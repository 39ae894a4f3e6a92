import itertools
import math

import numpy as np
import pytest

from orthochan import asymptotics
from orthochan.asymptotics import (
    basis_product_state,
    bell_input,
    bell_state_vector,
    convergence_experiment,
    convex_body,
    entropy_extremal,
    experiment_input,
    isotropic_entropy,
    isotropic_eta,
    maximally_entangled,
    maximal_block,
    mean_output_asymptotic,
    op_Q_tilde,
    op_R_tilde,
    op_S_tilde,
    op_T,
    op_T_tilde,
    project_to_body,
    von_neumann_entropy,
)
from orthochan.channels import _checked_state
from orthochan.errors import BudgetError, InvalidStateError, OrthochanError, ValidationError
from orthochan.moments import asymptotic_trace_moment, g_from_state
from orthochan.pairings import PartialPairing, enumerate_partial_pairings


def _place_factors(pair_op, single_op, block, dim):
    """Dense reference: pair_op tensored over the block's pairs, single_op over its singles, by einsum."""
    r = block.n_points
    args = []
    for a, b in block.pairs:
        args.extend((pair_op.reshape(dim, dim, dim, dim), [a, b, r + a, r + b]))
    for s in block.singles:
        args.extend((single_op, [s, r + s]))
    args.append(list(range(2 * r)))
    return np.einsum(*args).reshape(dim**r, dim**r)


def omega(dim):
    vec = np.eye(dim).reshape(dim * dim)
    return np.outer(vec, vec)


class TestIsotropicState:
    def test_t_zero(self):
        assert np.allclose(isotropic_eta(2, 0.0), np.eye(4) / 4)

    def test_t_one(self):
        assert np.allclose(isotropic_eta(3, 1.0), maximally_entangled(3) / 3)

    def test_eigenvalues_k2_t_half(self):
        eigs = np.sort(np.linalg.eigvalsh(isotropic_eta(2, 0.5)))
        assert np.allclose(eigs, [0.125, 0.125, 0.125, 0.625])

    def test_k_below_two_rejected(self):
        # the one-pair state and every extremal state share op_S_tilde's check
        for call in (
            lambda: isotropic_eta(1, 0.5),
            lambda: op_S_tilde(PartialPairing(3, ((0, 2),)), 1, 0.5),
            # the closed-form entropies once divided by zero or took k = 1
            lambda: isotropic_entropy(0, 0.5),
            lambda: entropy_extremal(ONE_PAIR, 1, 0.5),
        ):
            with pytest.raises(ValidationError, match="k must be >= 2"):
                call()

    def test_t_range_validated(self):
        # the operator family and the mean-output limit share the state's check
        for t in (1.5, 3.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match=r"t must lie in \[0, 1\]"):
                isotropic_eta(2, t)
            with pytest.raises(ValidationError, match=r"t must lie in \[0, 1\]"):
                op_R_tilde(PartialPairing(2, ((0, 1),)), 2, t)
            with pytest.raises(ValidationError, match=r"t must lie in \[0, 1\]"):
                mean_output_asymptotic(np.eye(4) / 4, 2, 2, t)
        # the closed forms take the same rule; each once returned a number outside it
        for t in (1.05, 1.5, 5.0, -0.1, float("nan"), float("inf")):
            for call in (
                lambda: isotropic_entropy(2, t),
                lambda: entropy_extremal(ONE_PAIR, 2, t),
                lambda: asymptotic_trace_moment(1, 2, 2, t, {}),
            ):
                with pytest.raises(ValidationError, match=r"t must lie in \[0, 1\]"):
                    call()
        # t just above 1 keeps floor(t*k*n) <= kn, so only the t rule refuses it
        with pytest.raises(ValidationError, match=r"t must lie in \[0, 1\], got 1.05"):
            g_from_state(np.eye(8)[0], 1, 2, 4, 1.05)


ONE_PAIR = PartialPairing(2, ((0, 1),))

# dimensions and r below 1; each once raised ZeroDivisionError or returned nonsense
BELOW_LEAST = {
    "op-T-k": lambda: op_T(ONE_PAIR, 0),
    "op-T-tilde-d": lambda: op_T_tilde(ONE_PAIR, 0),
    "op-R-tilde-k": lambda: op_R_tilde(ONE_PAIR, 0, 0.5),
    "op-Q-tilde-d": lambda: op_Q_tilde(PartialPairing(2, ()), 0),
    "maximally-entangled-dim": lambda: maximally_entangled(0),
    "bell-input-d": lambda: bell_input(maximal_block(3), 0),
    "bell-vector-d": lambda: bell_state_vector(maximal_block(2), 0),
    "maximal-block-r": lambda: maximal_block(-1),
    "g-from-state-r": lambda: g_from_state(np.eye(1), 0, 2, 3, 0.5),
    "mean-output-asymptotic-r": lambda: mean_output_asymptotic(np.eye(3) / 3, 0, 2, 0.5),
    "asymptotic-moment-k": lambda: asymptotic_trace_moment(1, 2, 0, 0.5, {}),
}


class TestOperatorFamily:
    @pytest.mark.parametrize("call", BELOW_LEAST.values(), ids=BELOW_LEAST.keys())
    def test_dimension_and_r_below_one_raise_validation_error(self, call):
        with pytest.raises(ValidationError, match="must be >= 1"):
            call()

    def test_s_empty_is_maximally_mixed(self):
        for r in (1, 2, 3):
            s = op_S_tilde(PartialPairing(r, ()), 2, 0.4)
            assert np.allclose(s, np.eye(2**r) / 2**r)

    def test_s_single_pair_is_eta(self):
        s = op_S_tilde(PartialPairing(2, ((0, 1),)), 2, 0.5)
        assert np.allclose(s, isotropic_eta(2, 0.5))

    def test_s_states_are_density_matrices(self):
        for r in (2, 3, 4):
            for block in enumerate_partial_pairings(r):
                s = op_S_tilde(block, 2, 0.3)
                assert abs(np.trace(s) - 1.0) < 1e-12
                assert np.linalg.eigvalsh(s)[0] >= -1e-12

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_s_is_sum_of_r_over_sub_blocks(self, r):
        for k, t in ((2, 0.3), (3, 0.7)):
            for block in enumerate_partial_pairings(r):
                total = sum(op_R_tilde(sub, k, t) for sub in block.sub_blocks())
                assert np.max(np.abs(op_S_tilde(block, k, t) - total)) < 1e-12

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_mobius_inversion_back(self, r):
        k, t = 2, 0.6
        for block in enumerate_partial_pairings(r):
            total = sum(
                (-1) ** (block.n_pairs - sub.n_pairs) * op_S_tilde(sub, k, t)
                for sub in block.sub_blocks()
            )
            assert np.max(np.abs(op_R_tilde(block, k, t) - total)) < 1e-12

    def test_r_trace_is_empty_indicator(self):
        for block in enumerate_partial_pairings(3):
            tr = float(np.trace(op_R_tilde(block, 2, 0.5)).real)
            assert tr == pytest.approx(1.0 if block.n_pairs == 0 else 0.0, abs=1e-12)

    @pytest.mark.parametrize("r,d", [(1, 8), (2, 8), (3, 6)])
    def test_q_resolves_identity(self, r, d):
        total = sum(op_Q_tilde(block, d) for block in enumerate_partial_pairings(r))
        assert np.max(np.abs(total - np.eye(d**r))) < 1e-12

    def test_q_spectrum_approaches_projector_set(self):
        dists = []
        for d in (4, 8, 12):
            worst = 0.0
            for block in enumerate_partial_pairings(3):
                eigs = np.linalg.eigvalsh(op_Q_tilde(block, d))
                worst = max(worst, float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1)))))
            dists.append(worst)
        assert dists[0] > dists[1] > dists[2]

    def test_t_tilde_normalization(self):
        block = PartialPairing(2, ((0, 1),))
        assert np.allclose(op_T_tilde(block, 4), op_T(block, 4) / 4)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_op_t_scatter_matches_dense_construction(self, r):
        # the signed pattern sums against the tensor products of their pair and single factors
        for d in (2, 3):
            for block in enumerate_partial_pairings(r):
                scattered = op_T(block, d)
                dense = _place_factors(omega(d), np.eye(d), block, d)
                assert np.array_equal(scattered, dense)
                for t in (0.0, 0.3, 0.5, 1.0):
                    eta = (t / d) * omega(d) + ((1.0 - t) / d**2) * np.eye(d**2)
                    r_pair = t * (omega(d) / d - np.eye(d**2) / d**2)
                    s_dense = _place_factors(eta, np.eye(d) / d, block, d)
                    r_dense = _place_factors(r_pair, np.eye(d) / d, block, d)
                    assert np.max(np.abs(op_S_tilde(block, d, t) - s_dense)) <= 1e-15
                    assert np.max(np.abs(op_R_tilde(block, d, t) - r_dense)) <= 1e-15
                if block.is_maximal():
                    dense = _place_factors(omega(d) / d, np.eye(d) / d, block, d)
                    assert np.max(np.abs(bell_input(block, d) - dense)) <= 1e-15


class TestMeanOutputAsymptotic:
    def test_maximally_mixed_input(self):
        d, r, k, t = 16, 2, 2, 0.5
        rho = np.eye(d**r) / d**r
        m = mean_output_asymptotic(rho, r, k, t)
        # block weights fall off like d^-2|B|, so the correction is tiny
        assert np.max(np.abs(m - np.eye(k**r) / k**r)) < 2.0 / d**2

    def test_bell_input_gives_eta_exactly(self):
        for d in (2, 4, 8):
            psi = bell_state_vector(PartialPairing(2, ((0, 1),)), d)
            m = mean_output_asymptotic(psi, 2, 2, 0.5)
            assert np.max(np.abs(m - isotropic_eta(2, 0.5))) < 1e-12

    @pytest.mark.parametrize("r,d", [(1, 3), (2, 3), (3, 2)])
    def test_two_expansions_agree(self, r, d):
        # expansion through R against the alternating expansion through Q and S
        rng = np.random.default_rng(6)
        g = rng.standard_normal((d**r, d**r)) + 1j * rng.standard_normal((d**r, d**r))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        k, t = 2, 0.45
        via_r = mean_output_asymptotic(rho, r, k, t)
        via_qs = np.zeros((k**r, k**r), dtype=complex)
        for block in enumerate_partial_pairings(r):
            weight = float(np.trace(op_Q_tilde(block, d) @ rho).real)
            via_qs += weight * op_S_tilde(block, k, t)
        assert np.max(np.abs(via_r - via_qs)) < 1e-10

    def test_trace_one(self):
        d, r = 3, 2
        rho = np.eye(d**r) / d**r
        m = mean_output_asymptotic(rho, r, 2, 0.3)
        assert abs(np.trace(m).real - 1.0) < 1e-12


class TestBellInput:
    def test_r2_rank_one(self):
        g = bell_input(PartialPairing(2, ((0, 1),)), 3)
        eigs = np.linalg.eigvalsh(g)
        assert abs(np.trace(g) - 1.0) < 1e-12
        assert np.sum(eigs > 1e-12) == 1

    def test_r3_has_mixed_factor(self):
        d = 3
        g = bell_input(PartialPairing(3, ((0, 1),)), d)
        omega_hat = maximally_entangled(d) / d
        assert np.max(np.abs(g - np.kron(omega_hat, np.eye(d) / d))) < 1e-12

    def test_non_maximal_rejected(self):
        with pytest.raises(ValidationError):
            bell_input(PartialPairing(4, ((0, 1),)), 3)

    def test_vector_matches_matrix(self):
        d = 4
        block = PartialPairing(2, ((0, 1),))
        psi = bell_state_vector(block, d)
        assert np.max(np.abs(np.outer(psi, psi.conj()) - bell_input(block, d))) < 1e-12

    def test_maximal_block_shapes(self):
        assert maximal_block(4).pairs == ((0, 1), (2, 3))
        assert maximal_block(3).singles == (2,)


class TestEntropy:
    def test_pure_state(self):
        psi = np.zeros(4)
        psi[0] = 1
        assert von_neumann_entropy(np.outer(psi, psi)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        for r, k in ((1, 2), (2, 2), (2, 3)):
            assert von_neumann_entropy(np.eye(k**r) / k**r) == pytest.approx(r * math.log(k))

    def test_eta_value(self):
        expected = -0.625 * math.log(0.625) - 3 * 0.125 * math.log(0.125)
        assert von_neumann_entropy(isotropic_eta(2, 0.5)) == pytest.approx(expected)
        assert expected == pytest.approx(1.0735, abs=1e-4)

    def test_invalid_state_raises(self):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.diag([1.2, -0.2]))

    def test_one_spectrum_per_entropy(self, monkeypatch):
        # the spectrum of the validation is the one the entropy uses: bitwise
        # the value of validating, then diagonalising again
        def two_pass(rho):
            _checked_state(rho, len(rho))
            eigs = np.clip(np.linalg.eigvalsh(np.asarray(rho).astype(complex)), 0.0, None)
            positive = eigs[eigs > 0]
            return float(-np.sum(positive * np.log(positive)))

        rng = np.random.default_rng(4)
        states = []
        for dim in (2, 3, 6, 16):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = g @ g.conj().T
            states.append(rho / np.trace(rho))
            real = g.real @ g.real.T
            states.append(real / np.trace(real))
        expected = [two_pass(rho) for rho in states]
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for rho, value in zip(states, expected):
            assert von_neumann_entropy(rho) == value
        assert len(calls) == len(states)

    def test_extremal_closed_form_empty(self):
        assert entropy_extremal(PartialPairing(3, ()), 2, 0.5) == pytest.approx(3 * math.log(2))

    def test_extremal_t1_maximal_even(self):
        assert entropy_extremal(PartialPairing(4, ((0, 1), (2, 3))), 2, 1.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_extremal_matches_eigen_entropy(self, r):
        for k, t in ((2, 0.5), (3, 0.3), (2, 0.7)):
            for block in enumerate_partial_pairings(r):
                closed = entropy_extremal(block, k, t)
                eigen = von_neumann_entropy(op_S_tilde(block, k, t))
                assert closed == pytest.approx(eigen, abs=1e-10)

    def test_entropy_strictly_decreasing_in_pairs(self):
        # the corollary's ordering: more pairs means lower entropy when t > 0
        for k, t in ((2, 0.5), (3, 0.7)):
            values = {}
            for block in enumerate_partial_pairings(4):
                values.setdefault(block.n_pairs, set()).add(round(entropy_extremal(block, k, t), 12))
            levels = [min(values[j]) for j in sorted(values)]
            assert levels[0] > levels[1] > levels[2]
            assert isotropic_entropy(k, t) < 2 * math.log(k)


class TestBodyProjection:
    def test_vertices_at_distance_zero(self):
        body = convex_body(2, 2, 0.5)
        for vertex in body.vertices:
            assert project_to_body(vertex, body).distance <= 1e-7

    def test_midpoint_at_distance_zero(self):
        body = convex_body(2, 2, 0.5)
        mid = 0.5 * body.vertices[0] + 0.5 * body.vertices[1]
        assert project_to_body(mid, body).distance <= 1e-7

    def test_orthogonal_perturbation_distance(self):
        body = convex_body(2, 2, 0.5)
        anchor = body.vertices[0]  # the maximally mixed vertex
        rng = np.random.default_rng(8)
        g = rng.standard_normal((4, 4))
        perturbation = (g + g.T) / 2
        perturbation -= np.trace(perturbation) / 4 * np.eye(4)
        # orthogonalize against the body's affine hull directions
        for direction in body.vertices[1:] - anchor:
            direction = direction.real
            perturbation -= (
                np.vdot(direction, perturbation).real / np.vdot(direction, direction).real
            ) * direction
        norm = math.sqrt(np.vdot(perturbation, perturbation).real)
        for eps in (1e-3, 1e-2):
            x = anchor + eps * perturbation
            assert project_to_body(x, body).distance == pytest.approx(eps * norm, rel=1e-4)

    def test_projection_reports_convergence(self):
        body = convex_body(2, 2, 0.5)
        proj = project_to_body(body.vertices[1], body)
        assert proj.converged
        assert proj.weights.sum() == pytest.approx(1.0)

    def test_vertex_stack_over_budget_raises_before_building(self, monkeypatch):
        # r = 3, k = 2: four vertices of 2^6 entries each
        assert len(convex_body(3, 2, 0.5).vertices) == 4
        monkeypatch.setattr(asymptotics, "OUTPUT_TENSOR_BUDGET", 4 * 2**6)
        convex_body(3, 2, 0.5)
        monkeypatch.setattr(asymptotics, "OUTPUT_TENSOR_BUDGET", 4 * 2**6 - 1)
        built = []
        monkeypatch.setattr(asymptotics, "op_S_tilde", lambda *args: built.append(args))
        with pytest.raises(BudgetError, match="4 vertices"):
            convex_body(3, 2, 0.5)
        assert built == []

    def test_vertex_count_matches_partial_pairings(self):
        for r in (1, 2, 3, 4):
            body = convex_body(r, 2, 0.5)
            assert len(body.blocks) == len(enumerate_partial_pairings(r))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        # NaN compares false with every tolerance, so it must not reach the solve
        body = convex_body(2, 2, 0.5)
        with pytest.raises(ValidationError, match="finite"):
            project_to_body(np.full((4, 4), bad), body)
        vertex = body.vertices[1].copy()
        vertex[2, 3] = bad
        with pytest.raises(ValidationError, match="finite"):
            project_to_body(vertex, body)

    @pytest.mark.parametrize("r, k, t", [(1, 2, 0.5), (2, 2, 0.5), (2, 3, 0.3), (3, 2, 0.5), (3, 3, 0.7), (4, 2, 0.5)])
    def test_matches_brute_force_over_all_supports(self, r, k, t):
        # the projection is the nearest of the affine minimisers, over every
        # support, whose weights are non-negative
        body = convex_body(r, k, t)
        n_verts, dim = len(body.vertices), k**r
        flat = body.vertices.reshape(n_verts, -1)
        for x in _points_around(body, np.random.default_rng(100 * r + k)):
            best = math.inf
            for size in range(1, n_verts + 1):
                for support in itertools.combinations(range(n_verts), size):
                    sub = flat[list(support)]
                    kkt = np.ones((size + 1, size + 1))
                    kkt[:size, :size] = (sub.conj() @ sub.T).real
                    kkt[size, size] = 0.0
                    rhs = np.append((sub.conj() @ x.reshape(dim * dim)).real, 1.0)
                    weights = np.linalg.solve(kkt, rhs)[:size]
                    if weights.min() >= 0.0:
                        best = min(best, np.linalg.norm(weights @ sub - x.reshape(dim * dim)))
            assert abs(project_to_body(x, body).distance - best) <= 1e-12

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_weights_carry_a_kkt_certificate(self, r):
        body = convex_body(r, 2, 0.5)
        for x in _points_around(body, np.random.default_rng(r)):
            proj = project_to_body(x, body)
            gram = np.array([[np.vdot(a, b).real for b in body.vertices] for a in body.vertices])
            b = np.array([np.vdot(a, x).real for a in body.vertices])
            grad = gram @ proj.weights - b
            # the slack's scale 1 + |X|^2 bounds every |G_ij| and |b_i|, as vertices are states
            scale = 1.0 + np.vdot(x, x).real
            assert max(np.abs(gram).max(), np.abs(b).max()) <= scale
            assert proj.converged and 1 <= proj.iterations <= len(gram) ** 2
            assert proj.weights.min() >= 0.0 and proj.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert grad.min() >= proj.weights @ grad - asymptotics.KKT_TOL * scale
            point = np.tensordot(proj.weights, body.vertices, 1)
            assert proj.distance == pytest.approx(np.linalg.norm(point - x), rel=1e-12, abs=1e-15)

    def test_no_certificate_raises(self, monkeypatch):
        # a negative tolerance can never be met; the step bound turns that into an error
        monkeypatch.setattr(asymptotics, "KKT_TOL", -1.0)
        body = convex_body(4, 2, 0.5)
        with pytest.raises(OrthochanError, match="no KKT certificate") as info:
            project_to_body(0.5 * body.vertices[0] + 0.5 * body.vertices[-1], body)
        assert type(info.value) is OrthochanError


def _points_around(body, rng):
    """Random Hermitian points at distances from 1e-6 to 10 of a random point of the body."""
    dim = body.vertices.shape[1]
    for scale in (1e-6, 1e-3, 1e-1, 10.0):
        inside = rng.dirichlet(np.full(len(body.vertices), 0.5)) @ body.vertices.reshape(len(body.vertices), -1)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = g + g.conj().T
        yield inside.reshape(dim, dim) + scale * h / np.linalg.norm(h)


class TestConvergenceExperiment:
    def test_structure_and_determinism(self):
        res1 = convergence_experiment("bell", 2, 2, 0.5, (8, 16), samples=8, seed=3)
        res2 = convergence_experiment("bell", 2, 2, 0.5, (8, 16), samples=8, seed=3)
        assert res1.rows == res2.rows
        assert len(res1.rows) == 16
        assert [s["n"] for s in res1.summary] == [8, 16]

    @pytest.mark.parametrize("n", [8.7, 8.0, "8"])
    def test_grid_points_must_be_integers(self, n):
        # int() would run n = 8 and report n_grid == (8,)
        with pytest.raises(ValidationError, match="n must be an integer"):
            convergence_experiment("bell", 2, 2, 0.5, (n,), 2, 0)

    @pytest.mark.parametrize(
        "call",
        [lambda: convex_body(0, 2, 0.5), lambda: convergence_experiment("product", 0, 2, 0.5, (8,), 2, 0)],
        ids=["body", "experiment"],
    )
    def test_r_below_one_rejected(self, call):
        # one partial pairing of no points would make a 1 x 1 body
        with pytest.raises(ValidationError, match="r must be >= 1"):
            call()

    def test_thread_invariance(self, monkeypatch):
        monkeypatch.setenv("ORTHOCHAN_THREADS", "1")
        res1 = convergence_experiment("bell", 2, 2, 0.5, (8, 16), samples=6, seed=4)
        monkeypatch.setenv("ORTHOCHAN_THREADS", "3")
        res2 = convergence_experiment("bell", 2, 2, 0.5, (8, 16), samples=6, seed=4)
        assert res1.rows == res2.rows
        assert res1.summary == res2.summary

    def test_summary_reports_projection_convergence(self, monkeypatch):
        calls = []

        def recording(z, body):
            proj = project_to_body(z, body)
            calls.append(proj)
            return proj

        monkeypatch.setattr(asymptotics, "project_to_body", recording)
        monkeypatch.setenv("ORTHOCHAN_THREADS", "1")  # draws run, and are recorded, in order
        res = convergence_experiment("bell", 3, 2, 0.5, (4, 6), samples=4, seed=3)
        for gi, row in enumerate(res.summary):
            draws = calls[4 * gi : 4 * gi + 4]
            assert row["unconverged"] == 0 and all(proj.converged for proj in draws)
            assert row["max_iterations"] == max(proj.iterations for proj in draws) >= 2

    def test_even_power_bell_inputs_minimise_entropy_at_r4(self):
        # the paper's even-power claim at r = 4: Bell-product inputs reach the
        # two-isotropic-pair entropy, below product inputs (n = 8 is too small
        # for the order to show, so the check runs at n = 16)
        samples = 10
        bell = convergence_experiment("bell", 4, 2, 0.5, (16,), samples, seed=41)
        prod = convergence_experiment("product", 4, 2, 0.5, (16,), samples, seed=42)
        h_bell = np.array([row[3] for row in bell.rows])
        h_prod = np.array([row[3] for row in prod.rows])
        pooled = math.sqrt(h_bell.var(ddof=1) / samples + h_prod.var(ddof=1) / samples)
        assert h_prod.mean() - h_bell.mean() > 3.0 * pooled
        assert abs(h_bell.mean() - 2 * isotropic_entropy(2, 0.5)) <= 0.1
        assert bell.summary[0]["unconverged"] == 0 and prod.summary[0]["unconverged"] == 0

    def test_distance_decreases_with_n(self):
        res = convergence_experiment("bell", 2, 2, 0.5, (8, 32), samples=20, seed=5)
        assert res.summary[0]["dist_median"] > res.summary[1]["dist_median"]

    def test_bell_beats_product_entropy(self):
        bell = convergence_experiment("bell", 2, 2, 0.5, (48,), samples=20, seed=6)
        prod = convergence_experiment("product", 2, 2, 0.5, (48,), samples=20, seed=7)
        assert bell.summary[0]["entropy_mean"] < prod.summary[0]["entropy_mean"]

    def test_input_rules(self):
        assert experiment_input("product", 2, 3).shape == (9,)
        assert experiment_input("bell", 2, 3).shape == (9,)
        assert experiment_input("bell", 3, 3).shape == (27, 27)
        with pytest.raises(ValidationError):
            experiment_input("custom", 2, 3)
        with pytest.raises(ValidationError):
            experiment_input("nope", 2, 3)

    def test_odd_r_runs(self):
        res = convergence_experiment("bell", 1, 2, 0.5, (8,), samples=4, seed=8)
        assert len(res.rows) == 4

    def test_product_state_helper(self):
        psi = basis_product_state(3, 2)
        assert psi.shape == (9,)
        assert psi[0] == 1.0 and np.count_nonzero(psi) == 1
