import functools
import gc
import itertools
import math
import re

import numpy as np
import pytest

from orthochan import moments
from orthochan.asymptotics import (
    basis_product_state,
    bell_state_vector,
    experiment_input,
    isotropic_eta,
    mean_output_asymptotic,
)
from orthochan.channels import (
    RngStream,
    input_dim,
    make_channel,
    mc_mean_output,
    mc_trace_moment,
    output_state,
    sample_haar_orthogonal,
)
from orthochan.errors import BudgetError, EnumerationLimitError, InvalidStateError, ValidationError
from orthochan.moments import (
    CONTRACTION_BUDGET,
    CONTRACTION_HARD_BUDGET,
    EXACT_PAIRING_HARD_CAP,
    MomentTerm,
    _engine_arrays,
    _f_values,
    _magnitude_ranks,
    _state_orbits,
    _term_arrays,
    asymptotic_trace_moment,
    exact_mean_output,
    exact_trace_moment,
    f_beta,
    g_from_state,
    term_report,
    wiring_matrix,
)
from orthochan.pairings import (
    SIDE_L,
    SIDE_R,
    Pairing,
    PartialPairing,
    _symmetry_orbits,
    box_index,
    bumps,
    combine_copies,
    connected_components,
    coset_types,
    delta_gamma,
    dominant_pairs,
    enumerate_pairings,
    enumerate_partial_pairings,
    length,
    pairing_from_partial,
    wiring_sum,
)
from orthochan.weingarten import wg_exact
from test_weingarten import dense_table


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def f_beta_dense_oracle(beta, state, p, d, r):
    """Contract against the dense delta-pattern tensor, elementwise."""
    state = np.asarray(state)
    rho = state if state.ndim == 2 else np.outer(state, state.conj())
    rho_power = rho
    for _ in range(p - 1):
        rho_power = np.kron(rho_power, rho)
    # rebuild the pattern entrywise from the pair constraints
    q = p * r
    pattern = np.zeros((d,) * (2 * q))
    for idx in np.ndindex(*([d] * (2 * q))):
        legs = {}
        for cell in range(q):
            legs[2 * cell] = idx[cell]          # L legs follow cell order
            legs[2 * cell + 1] = idx[q + cell]  # then R legs
        if all(legs[a] == legs[b] for a, b in beta.pairs):
            pattern[idx] = 1.0
    pattern = pattern.reshape(d**q, d**q)
    return np.sum(rho_power * pattern)


class TestFBeta:
    def test_horizontal_wires_give_trace(self):
        delta, _ = delta_gamma(1, 2)
        rho = random_density(9, 0)
        assert f_beta(delta, rho, 1) == pytest.approx(1.0)

    def test_bell_saturates_bump_bound(self):
        for d in (2, 3):
            bell = bell_state_vector(PartialPairing(2, ((0, 1),)), d)
            beta = pairing_from_partial(PartialPairing(2, ((0, 1),)))
            assert f_beta(beta, bell, 1) == pytest.approx(d)

    @pytest.mark.parametrize(
        "p,r,d,kind",
        [
            pytest.param(*dims, kind, id="-".join(map(str, dims)) + suffix)
            for kind, suffix in (("density", ""), ("complex", "-complex-vector"), ("real", "-real-vector"))
            for dims in [(1, 2, 2), (1, 2, 3), (2, 1, 2), (2, 2, 2), (1, 3, 2)]
        ],
    )
    def test_against_dense_oracle(self, p, r, d, kind):
        if kind == "density":
            state = random_density(d**r, seed=10 * p + r)
        else:
            rng = np.random.default_rng(10 * p + r)
            state = rng.standard_normal(d**r) + (1j * rng.standard_normal(d**r) if kind == "complex" else 0.0)
            state /= np.linalg.norm(state)
        for beta in enumerate_pairings(p * r):
            fast = f_beta(beta, state, p)
            dense = f_beta_dense_oracle(beta, state, p, d, r)
            assert fast == pytest.approx(dense, rel=1e-10, abs=1e-12)

    def test_pure_state_matches_projector(self):
        d, r, p = 3, 2, 2
        rng = np.random.default_rng(4)
        psi = rng.standard_normal(d**r) + 1j * rng.standard_normal(d**r)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        for beta in enumerate_pairings(p * r):
            assert f_beta(beta, psi, p) == pytest.approx(f_beta(beta, rho, p))

    def test_bump_bound(self):
        p, r, d = 2, 2, 2
        for seed in range(3):
            rho = random_density(d**r, seed)
            for beta in enumerate_pairings(p * r):
                bound = d ** bumps(beta)
                assert abs(f_beta(beta, rho, p)) <= bound + 1e-9

    def test_non_trespassing_bound_p2(self):
        # trespassing-bump blocks obey the tighter inward bound on product pairs
        p, r, d = 2, 2, 3
        rho = random_density(d**r, 7)
        state = np.kron(rho, rho)
        for _, block in dominant_pairs(p, r):
            beta = pairing_from_partial(block)
            inward = sum(1 for c1, c2 in block.pairs if c1 // r == c2 // r)
            assert abs(f_beta(beta, state, p)) <= d**inward + 1e-9

    def test_budget(self):
        beta = enumerate_pairings(2)[0]
        rho = np.eye(16) / 16
        with pytest.raises(BudgetError):
            f_beta(beta, rho, 1, budget=10)

    @pytest.mark.parametrize("engine", [exact_trace_moment, term_report])
    def test_budget_refused_before_any_table(self, engine, monkeypatch):
        # d^(pr) follows from the arguments: refuse before the table, types and orbits are built
        def no_table(*args):
            raise AssertionError("wg_exact ran before the budget check")

        monkeypatch.setattr(moments, "wg_exact", no_table)
        with pytest.raises(BudgetError, match=r"^f_beta contraction needs d\^\(pr\) = 81 entries, above budget 80$"):
            engine(2, 2, 2, 3, 0.5, np.eye(9) / 9, budget=80)

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: exact_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, cap=10.5),
                         "cap must be an integer, got 10.5", id="exact-cap-float"),
            pytest.param(lambda: exact_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, cap=-4),
                         "cap must be >= 1, got -4", id="exact-cap-negative"),
            pytest.param(lambda: exact_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, budget=2.5e7),
                         "budget must be an integer, got 25000000.0", id="exact-budget-float"),
            pytest.param(lambda: exact_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, budget=-1),
                         "budget must be >= 1, got -1", id="exact-budget-negative"),
            pytest.param(lambda: term_report(2, 1, 2, 3, 0.5, np.eye(3) / 3, cap=0),
                         "cap must be >= 1, got 0", id="report-cap-zero"),
            pytest.param(lambda: term_report(2, 1, 2, 3, 0.5, np.eye(3) / 3, budget="9"),
                         "budget must be an integer, got '9'", id="report-budget-string"),
            pytest.param(lambda: f_beta(delta_gamma(1, 2)[0], np.eye(4) / 4, 1, budget=16.0),
                         "budget must be an integer, got 16.0", id="f-beta-budget-float"),
            pytest.param(lambda: f_beta(delta_gamma(1, 2)[0], np.eye(4) / 4, 1, budget=0),
                         "budget must be >= 1, got 0", id="f-beta-budget-zero"),
        ],
    )
    def test_cap_and_budget_are_integers_at_least_one(self, call, message):
        # a float cap or budget once compared as a number, and a negative one
        # raised BudgetError ("above budget -1") instead of a validation error
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: exact_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, cap=13),
                         "cap must be <= 12, got 13", id="exact-cap-13"),
            pytest.param(lambda: term_report(2, 1, 2, 3, 0.5, np.eye(3) / 3, cap=99),
                         "cap must be <= 12, got 99", id="report-cap-99"),
            # at 2pr = 12 the cap is refused ahead of the term listing cap (BudgetError)
            pytest.param(lambda: term_report(3, 2, 2, 3, 0.5, np.eye(9) / 9, cap=99),
                         "cap must be <= 12, got 99", id="report-2pr-12-cap-99"),
            pytest.param(lambda: exact_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, budget=2**26 + 1),
                         "budget must be <= 67108864, got 67108865", id="exact-budget"),
            pytest.param(lambda: term_report(2, 1, 2, 3, 0.5, np.eye(3) / 3, budget=2**26 + 1),
                         "budget must be <= 67108864, got 67108865", id="report-budget"),
            pytest.param(lambda: f_beta(delta_gamma(1, 2)[0], np.eye(4) / 4, 1, budget=2**26 + 1),
                         "budget must be <= 67108864, got 67108865", id="f-beta-budget"),
        ],
    )
    def test_cap_and_budget_above_their_hard_bounds_raise(self, call, message, monkeypatch):
        # a cap above 12 was once clamped to 12, and any budget was taken
        def no_table(*args):
            raise AssertionError("wg_exact ran before the bound check")

        monkeypatch.setattr(moments, "wg_exact", no_table)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    def test_cap_and_budget_at_their_hard_bounds_run(self):
        rho, beta = np.eye(3) / 3, delta_gamma(2, 1)[0]
        bounds = {"cap": EXACT_PAIRING_HARD_CAP, "budget": CONTRACTION_HARD_BUDGET}
        assert (EXACT_PAIRING_HARD_CAP, CONTRACTION_HARD_BUDGET) == (12, 2**26)
        assert exact_trace_moment(2, 1, 2, 3, 0.5, rho, **bounds) == exact_trace_moment(2, 1, 2, 3, 0.5, rho)
        assert term_report(2, 1, 2, 3, 0.5, rho, **bounds) == term_report(2, 1, 2, 3, 0.5, rho)
        assert f_beta(beta, rho, 2, budget=CONTRACTION_HARD_BUDGET) == f_beta(beta, rho, 2)


def complex_state(kind, dim, seed):
    """A seeded complex density matrix, or a seeded complex unit vector."""
    if kind == "density":
        return random_density(dim, seed)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def per_pairing_f(state, p, r):
    return np.array([f_beta(beta, state, p) for beta in enumerate_pairings(p * r)])


def per_pairing_moment(p, r, k, n, t, state):
    """The exact moment as the dense double sum over every (alpha, beta), one f_beta per pairing."""
    delta, gamma = delta_gamma(p, r)
    weights = np.array([
        float(n) ** connected_components(delta, alpha) * float(k) ** connected_components(gamma, alpha)
        for alpha in enumerate_pairings(p * r)
    ])
    return float(weights @ dense_table(p * r, k * n) @ per_pairing_f(state, p, r).real)


class TestSymmetryOrbits:
    """f_beta is contracted once per orbit of the copy, side and state-fixed channel swaps."""

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (1, 3), (2, 3), (1, 5), (5, 1), (3, 2)])
    @pytest.mark.parametrize("kind", ["density", "vector"])
    def test_orbit_values_match_per_pairing(self, p, r, kind):
        state = complex_state(kind, 2**r, seed=p + 10 * r)
        batched = _f_values(enumerate_pairings(p * r), state, p, CONTRACTION_BUDGET, _state_orbits(state, p, r))
        assert np.max(np.abs(batched - per_pairing_f(state, p, r))) <= 1e-15

    @pytest.mark.parametrize("p,r", [(2, 2), (1, 3), (1, 5), (5, 1), (3, 1), (2, 3)])
    @pytest.mark.parametrize("rule,d", [("mixed", 2), ("mixed", 4), ("product", 3), ("bell", 4)])
    def test_orbit_values_equal_per_pairing_on_experiment_inputs(self, p, r, rule, d):
        # Entries 1/d^r, 0, 1 and 1/2 keep every product and sum exact, so equality tests
        # which value each pairing takes.  Elsewhere the contraction order of another orbit
        # member may round differently: Bell at d = 2, (p, r) = (2, 2) differs by one ulp
        # already under the copy swaps alone.
        state = np.eye(d**r) / d**r if rule == "mixed" else experiment_input(rule, r, d)
        batched = _f_values(enumerate_pairings(p * r), state, p, CONTRACTION_BUDGET, _state_orbits(state, p, r))
        assert np.array_equal(batched, per_pairing_f(state, p, r))

    @pytest.mark.parametrize("rule, merged", [("mixed", True), ("product", True), ("bell", True), ("e0e1", False)])
    def test_channel_swaps_merge_only_what_fixes_the_state(self, rule, merged):
        p, r, k, n, t = 2, 2, 2, 3, 0.5
        if rule == "e0e1":
            state = np.kron(np.eye(3)[0], np.eye(3)[1])
        else:
            state = np.eye(9) / 9 if rule == "mixed" else experiment_input(rule, r, 3)
        orbit, reps, _ = _state_orbits(state, p, r)
        assert orbit is _symmetry_orbits(p, r, (0,) if merged else ())[0]
        assert len(reps) == (35 if merged else 45)
        exact = exact_trace_moment(p, r, k, n, t, state)
        assert exact == pytest.approx(per_pairing_moment(p, r, k, n, t, state), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("kind", ["density", "vector"])
    def test_complex_moment_matches_per_pairing_sum(self, kind):
        state = complex_state(kind, 9, seed=21)
        exact = exact_trace_moment(2, 2, 2, 3, 0.5, state)
        assert exact == pytest.approx(per_pairing_moment(2, 2, 2, 3, 0.5, state), rel=1e-13)

    def test_mean_output_matches_per_pairing_f(self):
        # r = 3: the side swap conjugates f on 4 of the 15 pairings of this complex vector
        r, k, n, t = 3, 2, 3, 0.5
        state = complex_state("vector", 27, seed=5)
        assert _state_orbits(state, 1, r)[2].any()
        pair_list = enumerate_pairings(r)
        delta, _ = delta_gamma(1, r)
        n_exp = np.array([connected_components(delta, alpha) for alpha in pair_list])
        coeffs = float(n) ** n_exp * (dense_table(r, k * n) @ per_pairing_f(state, 1, r))
        reference = wiring_sum(pair_list, coeffs, k).T
        assert np.max(np.abs(exact_mean_output(r, k, n, t, state) - reference)) <= 1e-15

    @pytest.mark.parametrize("kind", ["density", "vector"])
    def test_term_report_f_is_the_direct_contraction(self, kind):
        p, r = 2, 2
        state = complex_state(kind, 9, seed=13)
        assert _state_orbits(state, p, r)[2].any()
        terms = term_report(p, r, 2, 3, 0.5, state)
        direct = {beta: f_beta(beta, state, p) for beta in enumerate_pairings(p * r)}
        assert max(abs(term.f_beta - direct[term.beta]) for term in terms) <= 1e-15

    def test_a_density_matrix_is_contracted_by_its_hermitian_part(self):
        # Hermitian only within the state check's tolerance: the engine reads (rho + rho^H) / 2
        rho = complex_state("density", 9, seed=3)
        skew = 1e-11j * np.triu(np.ones((9, 9)), 1)
        tilted = rho + skew + skew.T
        part = (tilted + tilted.conj().T) / 2
        assert np.max(np.abs(tilted - part)) > 0
        assert exact_trace_moment(2, 2, 2, 3, 0.5, tilted) == exact_trace_moment(2, 2, 2, 3, 0.5, part)
        f_vals = _engine_arrays(2, 2, 2, 3, 0.5, tilted, 8, CONTRACTION_BUDGET)[3]
        assert np.max(np.abs(f_vals - per_pairing_f(part, 2, 2))) <= 1e-15


def einsum_wiring(pairing, p, r, dim):
    """Reference delta pattern: one identity factor per pair, contracted by einsum.

    Its legs are laid out by (copy, channel) with box_index, so it also checks that
    the library's cell order is the copy-major order of p copies of r channels.
    """
    eye = np.eye(dim)
    args = []
    leg_var = {}
    for var, (s, u) in enumerate(pairing.pairs):
        args.extend((eye, [2 * var, 2 * var + 1]))
        leg_var[s] = 2 * var
        leg_var[u] = 2 * var + 1
    rows = [leg_var[box_index(i, x, SIDE_R, p, r)] for i in range(p) for x in range(r)]
    cols = [leg_var[box_index(i, x, SIDE_L, p, r)] for i in range(p) for x in range(r)]
    args.append(rows + cols)
    return np.einsum(*args).reshape(dim ** (p * r), -1)


class TestWiringMatrix:
    def test_operator_norm_is_d_to_bumps(self):
        p, r, d = 1, 2, 3
        for beta in enumerate_pairings(p * r):
            w = wiring_matrix(beta, d)
            norm = np.linalg.norm(w, 2)
            assert norm == pytest.approx(d ** bumps(beta))

    def test_horizontal_is_identity(self):
        delta, _ = delta_gamma(1, 2)
        assert np.array_equal(wiring_matrix(delta, 3), np.eye(9))

    @pytest.mark.parametrize("p, m", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 4)])
    def test_scatter_matches_einsum_over_identities(self, p, m):
        for dim in (2, 3):
            for beta in enumerate_pairings(m):
                reference = einsum_wiring(beta, p, m // p, dim)
                out = wiring_matrix(beta, dim)
                assert out.dtype == reference.dtype
                assert out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("p, m", [(1, 3), (2, 2)])
    def test_wiring_sum_is_the_ordered_sum_of_patterns(self, p, m):
        # each coefficient lands once per entry of its pattern, in the given order
        rng = np.random.default_rng(m)
        pairings = enumerate_pairings(m)
        for coeffs in (rng.standard_normal(len(pairings)), rng.standard_normal(len(pairings)) + 1j):
            reference = np.zeros((2**m, 2**m), dtype=coeffs.dtype)
            for beta, c in zip(pairings, coeffs):
                reference += c * einsum_wiring(beta, p, m // p, 2)
            out = wiring_sum(pairings, coeffs, 2)
            assert out.dtype == coeffs.dtype
            assert np.array_equal(out, reference)


class TestExactTraceMoment:
    @pytest.mark.parametrize(
        "r,k,n,t", [(1, 2, 3, 0.5), (2, 2, 4, 0.5), (1, 3, 4, 0.4), (2, 2, 3, 0.7)]
    )
    def test_p1_is_one(self, r, k, n, t):
        d = math.floor(t * k * n)
        rho = np.eye(d**r) / d**r
        assert exact_trace_moment(1, r, k, n, t, rho) == pytest.approx(1.0, abs=1e-10)

    def test_hand_computed_mixed_value(self):
        # p=2, r=1, k=2, n=3, t=0.5, rho = I/3: row sums of the m=2 table give 0.55
        assert exact_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3) == pytest.approx(0.55)

    def test_hand_computed_pure_value(self):
        assert exact_trace_moment(2, 1, 2, 3, 0.5, basis_product_state(3, 1)) == pytest.approx(0.75)

    def test_matches_mc_r1(self):
        exact = exact_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3)
        est, se = mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, samples=20000, seed=21)
        assert abs(exact - est) <= 3 * se

    def test_matches_mc_r2_bell(self):
        bell = bell_state_vector(PartialPairing(2, ((0, 1),)), 4)
        exact = exact_trace_moment(2, 2, 2, 4, 0.5, bell)
        est, se = mc_trace_moment(2, 2, 2, 4, 0.5, bell, samples=20000, seed=22)
        assert abs(exact - est) <= 3 * se

    def test_matches_mc_complex_input(self):
        # a genuinely complex Hermitian input pins the conjugation convention
        rho = random_density(3, 17)
        exact = exact_trace_moment(2, 1, 2, 3, 0.5, rho)
        est, se = mc_trace_moment(2, 1, 2, 3, 0.5, rho, samples=30000, seed=31)
        assert abs(exact - est) <= 3 * se

    def test_matches_mc_third_moment(self):
        # p=3 drives the m=3 table and the batched matrix-power path
        rho = random_density(3, 9)
        exact = exact_trace_moment(3, 1, 2, 3, 0.5, rho)
        est, se = mc_trace_moment(3, 1, 2, 3, 0.5, rho, samples=20000, seed=44)
        assert abs(exact - est) <= 3.5 * se

    def test_matches_mc_at_a_singular_table(self):
        # kn = 4 < m = 5, so the sum reads the Gram pseudo-inverse; seed, sample
        # count and bound were fixed before the first run
        table = wg_exact(5, 4)
        assert table.singular and table.rank == 903 and len(enumerate_pairings(5)) == 945
        rho = np.eye(2) / 2
        exact = exact_trace_moment(5, 1, 2, 2, 0.5, rho, cap=10)
        est, se = mc_trace_moment(5, 1, 2, 2, 0.5, rho, 200_000, 5)
        assert abs(exact - est) <= 4 * se

    def test_dimension_validated(self):
        with pytest.raises(ValidationError):
            exact_trace_moment(1, 1, 2, 3, 0.5, np.eye(4) / 4)

    def test_cap(self):
        with pytest.raises(EnumerationLimitError):
            exact_trace_moment(3, 2, 2, 3, 0.5, np.eye(3**2) / 9)

    @pytest.mark.parametrize(
        "state, error, positivity_only",
        [
            pytest.param(2 * np.eye(9)[0], InvalidStateError, False, id="norm-2 vector"),
            pytest.param(np.full(9, np.nan), InvalidStateError, False, id="nan vector"),
            pytest.param(np.eye(9) / 9 + np.eye(9, k=1) / 9, InvalidStateError, False, id="non-Hermitian matrix"),
            pytest.param(2 * np.eye(9) / 9, InvalidStateError, False, id="trace-2 matrix"),
            pytest.param(np.eye(9, 10) / 9, ValidationError, False, id="non-square array"),
            pytest.param(np.eye(8) / 8, ValidationError, False, id="wrong dimension"),
            pytest.param(np.diag([1.5, -0.5] + [0.0] * 7), InvalidStateError, True, id="negative eigenvalue"),
        ],
    )
    def test_rejects_what_monte_carlo_rejects(self, state, error, positivity_only):
        # r = 2, k = 2, n = 3, t = 0.5: every engine expects a state on
        # d^r = 9 dimensions (mean_output_asymptotic infers d, and 8 is not a
        # square).  Positivity needs a spectrum, so only the Monte Carlo lift
        # checks it; the exact and asymptotic sums stop at the O(D^2) checks.
        calls = [
            lambda: mc_trace_moment(2, 2, 2, 3, 0.5, state, samples=10, seed=0),
            lambda: mc_mean_output(2, 2, 3, 0.5, state, samples=10, seed=0),
            lambda: output_state(make_channel(2, 3, 0.5, RngStream(0)), 2, state),
        ]
        if not positivity_only:
            calls += [
                lambda: exact_trace_moment(2, 2, 2, 3, 0.5, state),
                lambda: exact_mean_output(2, 2, 3, 0.5, state),
                lambda: term_report(2, 2, 2, 3, 0.5, state),
                lambda: mean_output_asymptotic(state, 2, 2, 0.5),
                lambda: g_from_state(state, 2, 2, 3, 0.5),
            ]
        for call in calls:
            with pytest.raises(error):
                call()


class TestExactMeanOutput:
    def test_r1_is_maximally_mixed(self):
        out = exact_mean_output(1, 2, 3, 0.5, basis_product_state(3, 1))
        assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12

    def test_trace_one_and_hermitian(self):
        bell = bell_state_vector(PartialPairing(2, ((0, 1),)), 4)
        out = exact_mean_output(2, 2, 4, 0.5, bell)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-10

    def test_matches_mc_mean(self):
        bell = bell_state_vector(PartialPairing(2, ((0, 1),)), 3)
        exact = exact_mean_output(2, 2, 3, 0.5, bell)
        mean, stderr = mc_mean_output(2, 2, 3, 0.5, bell, samples=4000, seed=23)
        assert np.all(np.abs(mean - exact) <= 3 * stderr + 1e-12)

    def test_matches_mc_mean_r3_complex_input(self):
        # r=3 is the first size with wiring patterns that are not mirror
        # symmetric, so this pins the row/column orientation of the k-space
        # wiring; the transposed convention fails this check by a wide margin
        rng = np.random.default_rng(18)
        psi = rng.standard_normal(27) + 1j * rng.standard_normal(27)
        psi /= np.linalg.norm(psi)
        exact = exact_mean_output(3, 2, 3, 0.5, psi)
        mean, stderr = mc_mean_output(3, 2, 3, 0.5, psi, samples=4000, seed=32)
        # 5-sigma band over 64 entries: the transposed convention sits at ~11
        assert np.all(np.abs(mean - exact) <= 5 * stderr + 1e-12)
        assert not np.all(np.abs(mean - exact.T) <= 5 * stderr + 1e-12)

    def test_approaches_asymptotic_mean(self):
        k, t, r = 2, 0.5, 2
        gaps = []
        for n in (16, 32):
            d = math.floor(t * k * n)
            bell = bell_state_vector(PartialPairing(2, ((0, 1),)), d)
            exact = exact_mean_output(r, k, n, t, bell)
            asym = mean_output_asymptotic(bell, r, k, t)
            gaps.append(np.max(np.abs(exact - asym)))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 5.0 / 32


def term_report_reference(p, r, k, n, t, state):
    """The report by a nested loop over (alpha, beta) and a stable sort on -|value|."""
    pair_list = enumerate_pairings(p * r)
    delta, gamma = delta_gamma(p, r)
    values = dense_table(p * r, k * n)
    f_vals = [f_beta(b, state, p) for b in pair_list]
    terms = []
    for i, alpha in enumerate(pair_list):
        n_exp = connected_components(delta, alpha)
        k_exp = connected_components(gamma, alpha)
        scale = float(n) ** n_exp * float(k) ** k_exp
        for j, beta in enumerate(pair_list):
            wg = float(values[i, j])
            terms.append((alpha, beta, n_exp, k_exp, f_vals[j], wg, scale * f_vals[j] * wg))
    terms.sort(key=lambda term: -abs(term[6]))
    return terms


def dense_term_arrays(p, r, k, n, t, state, cap):
    """The sorted term values, rows, columns and coset types from one N^2 complex array and a float sort."""
    pair_list, n_exp, k_exp, f_vals, table, _ = _engine_arrays(p, r, k, n, t, state, cap, CONTRACTION_BUDGET)
    scale = float(n) ** n_exp * float(k) ** k_exp
    values = ((scale[:, None] * f_vals[None, :]) * dense_table(p * r, k * n)).ravel()
    order = np.argsort(-np.abs(values), kind="stable")
    rows, cols = np.divmod(order, len(pair_list))
    return values[order], rows, cols, coset_types(p * r).ravel()[order]


def _real_vector(dim, seed):
    psi = np.random.default_rng(seed).standard_normal(dim)
    return psi / np.linalg.norm(psi)


# (p, r, k, n, t, state) at 2pr <= 8, where every value's repr is cheap to check; the CI workflow
# compares the 2pr = 10 CSV bytes.  The flipped cases have orbit members whose f is the conjugate
# of their representative's.
VALUE_ID_CASES = {
    "mixed": (4, 1, 2, 4, 0.5, np.eye(4) / 4),
    "basis-product": (2, 2, 2, 3, 0.5, basis_product_state(3, 2)),
    "real-vector": (1, 4, 2, 2, 0.5, _real_vector(16, 0)),
    "bell": (2, 2, 2, 4, 0.5, bell_state_vector(PartialPairing(2, ((0, 1),)), 4)),
    "complex-vector": (4, 1, 2, 3, 0.5, complex_state("vector", 3, 18)),
    "complex-density": (2, 2, 2, 3, 0.5, random_density(9, 4)),
    "flipped-r3": (1, 3, 2, 3, 0.5, complex_state("vector", 27, 5)),
    "flipped-r4": (1, 4, 2, 2, 0.5, complex_state("vector", 16, 7)),
    "flipped-r2": (2, 2, 2, 3, 0.5, complex_state("vector", 9, 13)),
}


class TestTermValueIds:
    """_term_arrays keeps one value per distinct (exponents, f, coset type) and sorts on magnitude ranks."""

    @pytest.mark.parametrize("case", list(VALUE_ID_CASES))
    def test_reproduces_the_dense_build_bitwise(self, case):
        p, r, k, n, t, state = args = VALUE_ID_CASES[case]
        if case.startswith("flipped"):
            assert _state_orbits(state, p, r)[2].any()
        arrays = _term_arrays(*args, 2 * p * r, CONTRACTION_BUDGET)
        values, rows, cols, types = dense_term_arrays(*args, 2 * p * r)
        if case in ("basis-product", "real-vector"):
            # a real input: the side swap leaves f real but turns +0.0 imaginary parts into -0.0,
            # and f keyed on its value instead of its bytes changes the real vector's values
            signs = np.signbit(arrays.f_beta.imag)
            assert signs.any() and not signs.all() and not arrays.f_beta.imag.any()
        assert arrays.value_ids.dtype == np.min_scalar_type(len(arrays.value_table) - 1)
        assert np.array_equal(np.unique(arrays.value_ids), np.arange(len(arrays.value_table)))
        assert np.array_equal(arrays.value_table[arrays.value_ids].view(np.uint64), values.view(np.uint64))
        assert np.array_equal(arrays.rows, rows) and np.array_equal(arrays.cols, cols)
        assert np.array_equal(arrays.types, types)
        reprs = list(map(repr, values.tolist()))
        assert [repr(term.value) for term in term_report(*args, cap=2 * p * r)] == reprs

    @pytest.mark.parametrize("count, dtype", [(200, np.uint8), (60000, np.uint16), (70000, np.uint32)])
    def test_ranks_take_the_narrowest_dtype_and_order_like_magnitudes(self, count, dtype):
        # more than 65536 distinct magnitudes need uint32 ranks
        rng = np.random.default_rng(count)
        magnitudes = rng.permutation(np.arange(1, count + 1) / count)
        phases = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, count)]  # keep each magnitude exact
        # repeat some magnitudes with other phases and signs: equal magnitudes share a rank
        values = np.concatenate([magnitudes * phases, -magnitudes[:500], 1j * magnitudes[500:1000], [0j, -0j]])
        ranks = _magnitude_ranks(values)
        assert ranks.dtype == dtype and int(ranks.max()) == count
        assert np.array_equal(np.argsort(ranks, kind="stable"), np.argsort(-np.abs(values), kind="stable"))


class TestTermReport:
    @pytest.mark.parametrize("case", ["p2_r1_n3_mixed", "p1_r2_n4_bell"])
    def test_matches_nested_loop_reference(self, case):
        if case == "p2_r1_n3_mixed":
            args = (2, 1, 2, 3, 0.5, np.eye(3) / 3)
        else:
            args = (1, 2, 2, 4, 0.5, bell_state_vector(PartialPairing(2, ((0, 1),)), 4))
        terms = term_report(*args)
        ref = term_report_reference(*args)
        assert [(term.alpha, term.beta) for term in terms] == [row[:2] for row in ref]
        assert [(term.n_exp, term.k_exp) for term in terms] == [row[2:4] for row in ref]
        for term, (_, _, _, _, f, wg, value) in zip(terms, ref):
            assert abs(term.f_beta - f) <= 1e-12 * abs(f)
            assert abs(term.wg - wg) <= 1e-12 * abs(wg)
            assert abs(term.value - value) <= 1e-12 * abs(value)

    def test_refuses_listing_above_cap_before_building(self, monkeypatch):
        # 2pr = 12 would list 10395^2 terms from GB-sized arrays: refuse before any table or f
        class TableBuilt(Exception):
            pass

        def no_table(*args):
            raise TableBuilt

        monkeypatch.setattr(moments, "wg_exact", no_table)
        with pytest.raises(BudgetError, match="would list 108056025 terms"):
            term_report(3, 2, 2, 3, 0.5, np.eye(9) / 9, cap=12)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_leaves_the_collector_as_it_found_it(self, enabled, monkeypatch):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert len(term_report(2, 1, 2, 3, 0.5, np.eye(3) / 3)) == 9
            assert gc.isenabled() == enabled
            with pytest.raises(InvalidStateError):
                term_report(2, 1, 2, 3, 0.5, np.triu(np.ones((3, 3))) / 3)
            assert gc.isenabled() == enabled
            # a failure while the terms are boxed, with the collector paused
            monkeypatch.setattr(moments, "MomentTerm", int)
            with pytest.raises(TypeError):
                term_report(2, 1, 2, 3, 0.5, np.eye(3) / 3)
            assert gc.isenabled() == enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_terms_hold_no_reference_cycles(self):
        # what the paused collector skips while boxing must hold nothing for it to free
        gc.collect()
        terms = term_report(2, 2, 2, 3, 0.5, np.eye(9) / 9)
        assert len(terms) == 105**2
        del terms
        assert gc.collect() == 0

    def test_terms_are_immutable_tuples(self):
        term = term_report(2, 1, 2, 3, 0.5, np.eye(3) / 3)[0]
        assert isinstance(term, MomentTerm)
        copy = MomentTerm(*term)
        assert copy == term and hash(copy) == hash(term) and len({copy, term}) == 1
        assert (term.alpha, term.beta, term.n_exp, term.k_exp) == tuple(term)[:4]
        assert (term.f_beta, term.wg, term.value) == tuple(term)[4:]
        with pytest.raises(AttributeError):
            term.value = 0.0

    def test_terms_box_the_array_form(self):
        # each field is its _term_arrays entry, as a Python object shared by its row, column, type or value id
        args = (2, 2, 2, 3, 0.5, complex_state("vector", 9, seed=13), 8, CONTRACTION_BUDGET)
        arrays = _term_arrays(*args)
        terms = term_report(*args[:6])
        assert len(terms) == len(arrays.value_ids)
        f_objects, value_objects = {}, {}
        for term, i, j, kind, value in zip(
            terms, arrays.rows.tolist(), arrays.cols.tolist(), arrays.types.tolist(), arrays.value_ids.tolist()
        ):
            assert term.alpha is arrays.pairings[i] and term.beta is arrays.pairings[j]
            assert (term.n_exp, term.k_exp) == (arrays.n_exp[i], arrays.k_exp[i])
            assert (term.f_beta, term.wg, term.value) == (arrays.f_beta[j], arrays.wg[kind], arrays.value_table[value])
            assert list(map(type, term)) == [Pairing, Pairing, int, int, complex, float, complex]
            assert f_objects.setdefault(j, term.f_beta) is term.f_beta
            assert value_objects.setdefault(value, term.value) is term.value
        assert len(f_objects) == len(arrays.pairings)
        assert len(value_objects) == len(arrays.value_table) < len(terms)

    def test_wg_is_the_table_entry(self):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        psi /= np.linalg.norm(psi)
        values = dense_table(4, 6)
        index = {pairing: i for i, pairing in enumerate(enumerate_pairings(4))}
        terms = term_report(2, 2, 2, 3, 0.5, psi)
        assert len(terms) == len(index) ** 2
        for term in terms:
            wg = values[index[term.alpha], index[term.beta]]
            assert term.wg == wg and type(term.wg) is float

    def test_sums_to_exact_value(self):
        rho = np.eye(3) / 3
        terms = term_report(2, 1, 2, 3, 0.5, rho)
        total = sum(term.value for term in terms)
        assert total.real == pytest.approx(exact_trace_moment(2, 1, 2, 3, 0.5, rho), abs=1e-10)

    def test_sorted_descending(self):
        terms = term_report(2, 1, 2, 3, 0.5, np.eye(3) / 3)
        mags = [abs(term.value) for term in terms]
        assert mags == sorted(mags, reverse=True)

    def test_p1_r1_single_term(self):
        terms = term_report(1, 1, 2, 3, 0.5, np.eye(3) / 3)
        assert len(terms) == 1
        assert terms[0].value == pytest.approx(1.0)

    def test_term_invariant(self):
        n, k = 3, 2
        for term in term_report(2, 1, k, n, 0.5, np.eye(3) / 3):
            expected = n**term.n_exp * k**term.k_exp * term.f_beta * term.wg
            assert term.value == pytest.approx(expected)

    def test_dominant_terms_lead_at_large_n(self):
        # with a Bell input every block weight is order one, so the top of the
        # report at large n is exactly the dominant-form pairs
        p, r, k, t = 1, 2, 2, 0.5
        n = 64
        d = math.floor(t * k * n)
        bell = bell_state_vector(PartialPairing(2, ((0, 1),)), d)
        terms = term_report(p, r, k, n, t, bell)
        dom = {
            (pairing_from_partial(a), pairing_from_partial(b))
            for a, b in dominant_pairs(p, r)
        }
        leading = terms[: len(dom)]
        assert {(term.alpha, term.beta) for term in leading} == dom

    def test_subleading_ratio_halves(self):
        p, r, k, t = 2, 1, 2, 0.5

        def ratio(n):
            d = math.floor(t * k * n)
            terms = term_report(p, r, k, n, t, np.eye(d) / d)
            dom = {
                (pairing_from_partial(a), pairing_from_partial(b))
                for a, b in dominant_pairs(p, r)
            }
            lead = max(abs(term.value) for term in terms if (term.alpha, term.beta) in dom)
            sub = max(abs(term.value) for term in terms if (term.alpha, term.beta) not in dom)
            return sub / lead

        r1, r2 = ratio(32), ratio(64)
        assert 0.25 <= r2 / r1 <= 1.0


class TestExponentBounds:
    @pytest.mark.parametrize("p,r", [(1, 2), (2, 1), (1, 3), (2, 2)])
    def test_n_exponent_bound_and_equality_set(self, p, r):
        delta, _ = delta_gamma(p, r)
        pairings = enumerate_pairings(p * r)
        dom = {
            (pairing_from_partial(a), pairing_from_partial(b))
            for a, b in dominant_pairs(p, r)
        }
        saturating = set()
        for a in pairings:
            for b in pairings:
                expo = (
                    connected_components(delta, a)
                    + bumps(b)
                    - p * r
                    - length(a.compose(b)) // 2
                )
                assert expo <= 0
                if expo == 0:
                    saturating.add((a, b))
        assert saturating == dom


class TestAsymptoticTraceMoment:
    def test_empty_only_gives_one(self):
        for r in (1, 2, 3):
            g = {b: (1.0 if b.n_pairs == 0 else 0.0) for b in enumerate_partial_pairings(r)}
            assert asymptotic_trace_moment(1, r, 2, 0.5, g) == pytest.approx(1.0)

    def test_first_moment_trace_is_one_for_bell_weights(self):
        g = {b: 1.0 for b in enumerate_partial_pairings(2)}
        assert asymptotic_trace_moment(1, 2, 2, 0.5, g) == pytest.approx(1.0)

    @pytest.mark.parametrize("k,t", [(2, 0.5), (3, 0.3), (2, 0.7)])
    def test_second_moment_equals_trace_m_squared(self, k, t):
        # exact-integer d makes the Bell weights exactly one
        r = 2
        n = 8 if (t * k * 8) == int(t * k * 8) else 10
        d = math.floor(t * k * n)
        bell = bell_state_vector(PartialPairing(2, ((0, 1),)), d)
        g1 = g_from_state(bell, r, k, n, t)
        g2 = {}
        for b1, v1 in g1.items():
            for b2, v2 in g1.items():
                g2[combine_copies([b1, b2], r)] = v1 * v2
        lhs = asymptotic_trace_moment(2, r, k, t, g2)
        m = mean_output_asymptotic(bell, r, k, t)
        assert lhs == pytest.approx(float(np.trace(m @ m).real), rel=1e-9)

    @staticmethod
    def leading_order_gaps(p, rule, grid, cap):
        """|exact - leading order| of E Tr Z^p at r = 2, k = 2, t = 1/2 along the n grid."""
        r, k, t = 2, 2, 0.5
        gaps = []
        for n in grid:
            d = input_dim(k, n, t)
            if rule == "bell":
                state = bell_state_vector(PartialPairing(2, ((0, 1),)), d)
            else:
                state = basis_product_state(d, r)
            g1 = g_from_state(state, r, k, n, t)
            g = {
                combine_copies(blocks, r): math.prod(g1[b] for b in blocks)
                for blocks in itertools.product(g1, repeat=p)
            }
            exact = exact_trace_moment(p, r, k, n, t, state, cap=cap)
            gaps.append(abs(exact - asymptotic_trace_moment(p, r, k, t, g)))
        return gaps

    @pytest.mark.parametrize("rule", ["bell", "product"])
    def test_exact_approaches_leading_order_at_m4(self, rule):
        # 2pr = 8; each doubling of n must shrink the gap by criterion 4's decay bound
        gaps = self.leading_order_gaps(2, rule, (4, 8, 16, 32), 8)
        assert all(later <= 0.6 * earlier for earlier, later in zip(gaps, gaps[1:])), gaps

    @pytest.mark.parametrize("rule", ["bell", "product"])
    def test_exact_approaches_leading_order_at_m6(self, rule):
        # 2pr = 12, three copies: the same decay bound from n = 4 to 8
        gaps = self.leading_order_gaps(3, rule, (4, 8), 12)
        assert gaps[1] <= 0.6 * gaps[0], gaps

    def test_invalid_g_rejected(self):
        g = {PartialPairing(2, ()): 1.5}
        with pytest.raises(ValidationError):
            asymptotic_trace_moment(1, 2, 2, 0.5, g)

    def test_wrong_key_size_rejected(self):
        g = {PartialPairing(3, ()): 1.0}
        with pytest.raises(ValidationError):
            asymptotic_trace_moment(1, 2, 2, 0.5, g)


class TestGFromState:
    def test_bell_weights_are_one_at_exact_d(self):
        k, t, n = 2, 0.5, 8
        d = int(t * k * n)
        bell = bell_state_vector(PartialPairing(2, ((0, 1),)), d)
        g = g_from_state(bell, 2, k, n, t)
        for value in g.values():
            assert value == pytest.approx(1.0)

    def test_product_weights_decay(self):
        k, t, n = 2, 0.5, 8
        d = int(t * k * n)
        g = g_from_state(basis_product_state(d, 2), 2, k, n, t)
        for block, value in g.items():
            if block.n_pairs == 0:
                assert value == pytest.approx(1.0)
            else:
                assert value <= 1.0 / d + 1e-12

    def test_output_matches_eta_through_the_formula(self):
        # M built from the bell weights reproduces the isotropic state
        k, t, n = 2, 0.5, 8
        d = int(t * k * n)
        bell = bell_state_vector(PartialPairing(2, ((0, 1),)), d)
        m = mean_output_asymptotic(bell, 2, k, t)
        assert np.max(np.abs(m - isotropic_eta(k, t))) < 1e-12


def complex_haar_unitary(dim, seed):
    """Haar unitary: QR of a complex Gaussian with the phases of R's diagonal divided out."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestOrthogonalVersusUnitary:
    """The engines see O^(tensor r) rho O^(tensor r)^T as rho, but not a unitary rotation.

    The input is a generic complex density matrix: the Bell state is itself
    O x O-invariant, so it would make the invariance vacuous.
    """

    K, N, T = 2, 4, 0.5  # d = 4
    STATE_SEED, ROTATION_SEED = 1703, 8979
    MC_SAMPLES, MC_SEED = 20_000, 3

    def states(self, r):
        d = input_dim(self.K, self.N, self.T)
        rho = random_density(d**r, self.STATE_SEED + r)
        o = sample_haar_orthogonal(d, RngStream(self.ROTATION_SEED))
        u = complex_haar_unitary(d, self.ROTATION_SEED)
        o_r, u_r = (functools.reduce(np.kron, [g] * r) for g in (o, u))
        return rho, o_r @ rho @ o_r.T, u_r @ rho @ u_r.conj().T

    @pytest.mark.parametrize("p, r", [(2, 2), (3, 1), (4, 1)])
    def test_exact_moment_sees_orthogonal_but_not_unitary_rotations(self, p, r):
        rho, rotated, unitary = (exact_trace_moment(p, r, self.K, self.N, self.T, s) for s in self.states(r))
        assert abs(rotated - rho) <= 1e-13
        assert abs(unitary - rho) > 1e-8

    def test_mean_outputs_and_block_weights_are_orthogonally_invariant(self):
        rho, rotated, _ = self.states(2)
        for engine in (
            lambda s: exact_mean_output(2, self.K, self.N, self.T, s),
            lambda s: mean_output_asymptotic(s, 2, self.K, self.T),
        ):
            assert np.max(np.abs(engine(rotated) - engine(rho))) <= 1e-13
        g, g_rotated = g_from_state(rho, 2, self.K, self.N, self.T), g_from_state(rotated, 2, self.K, self.N, self.T)
        assert g.keys() == g_rotated.keys()
        assert max(abs(g_rotated[block] - g[block]) for block in g) <= 1e-13

    def test_monte_carlo_gives_one_law_for_rho_and_its_rotation(self):
        rho, rotated, _ = self.states(2)
        exact = exact_trace_moment(2, 2, self.K, self.N, self.T, rho)
        for state in (rho, rotated):
            est, se = mc_trace_moment(2, 2, self.K, self.N, self.T, state, self.MC_SAMPLES, self.MC_SEED)
            assert abs(est - exact) / se <= 3.0
