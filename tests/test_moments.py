import math

import numpy as np
import pytest

from orthochan.asymptotics import (
    basis_product_state,
    bell_state_vector,
    isotropic_eta,
    mean_output_asymptotic,
)
from orthochan.channels import RngStream, make_channel, mc_mean_output, mc_trace_moment, output_state
from orthochan.errors import BudgetError, EnumerationLimitError, InvalidStateError, ValidationError
from orthochan.moments import (
    CONTRACTION_BUDGET,
    MomentTerm,
    _f_values,
    asymptotic_trace_moment,
    exact_mean_output,
    exact_trace_moment,
    f_beta,
    g_from_state,
    term_report,
    wiring_matrix,
)
from orthochan.pairings import (
    PartialPairing,
    bumps,
    combine_copies,
    connected_components,
    delta_gamma,
    dominant_pairs,
    enumerate_pairings,
    enumerate_partial_pairings,
    length,
    pairing_from_partial,
)
from orthochan.weingarten import wg_exact


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
            beta = pairing_from_partial(PartialPairing(2, ((0, 1),)), 1, 2)
            assert f_beta(beta, bell, 1) == pytest.approx(d)

    @pytest.mark.parametrize("p,r,d", [(1, 2, 2), (1, 2, 3), (2, 1, 2), (2, 2, 2), (1, 3, 2)])
    def test_against_dense_oracle(self, p, r, d):
        rho = random_density(d**r, seed=10 * p + r)
        for beta in enumerate_pairings(p * r):
            fast = f_beta(beta, rho, p)
            dense = f_beta_dense_oracle(beta, rho, p, d, r)
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
                bound = d ** bumps(beta, p, r)
                assert abs(f_beta(beta, rho, p)) <= bound + 1e-9

    def test_non_trespassing_bound_p2(self):
        # trespassing-bump blocks obey the tighter inward bound on product pairs
        p, r, d = 2, 2, 3
        rho = random_density(d**r, 7)
        state = np.kron(rho, rho)
        for _, block in dominant_pairs(p, r):
            beta = pairing_from_partial(block, p, r)
            inward = sum(1 for c1, c2 in block.pairs if c1 // r == c2 // r)
            assert abs(f_beta(beta, state, p)) <= d**inward + 1e-9

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
    @pytest.mark.parametrize("kind", ["density", "vector"])
    def test_orbit_batched_values_match_per_pairing(self, p, r, kind):
        d = 2
        if kind == "density":
            state = random_density(d**r, seed=p + 10 * r)
        else:
            rng = np.random.default_rng(p + 10 * r)
            state = rng.standard_normal(d**r) + 1j * rng.standard_normal(d**r)
            state /= np.linalg.norm(state)
        pairings = enumerate_pairings(p * r)
        per_pairing = np.array([f_beta(beta, state, p) for beta in pairings])
        batched = _f_values(pairings, state, p, r, CONTRACTION_BUDGET)
        assert np.max(np.abs(batched - per_pairing)) <= 1e-14 * np.max(np.abs(per_pairing))

    def test_budget(self):
        beta = enumerate_pairings(2)[0]
        rho = np.eye(16) / 16
        with pytest.raises(BudgetError):
            f_beta(beta, rho, 1, budget=10)


class TestWiringMatrix:
    def test_operator_norm_is_d_to_bumps(self):
        p, r, d = 1, 2, 3
        for beta in enumerate_pairings(p * r):
            w = wiring_matrix(beta, p, r, d)
            norm = np.linalg.norm(w, 2)
            assert norm == pytest.approx(d ** bumps(beta, p, r))

    def test_horizontal_is_identity(self):
        delta, _ = delta_gamma(1, 2)
        assert np.array_equal(wiring_matrix(delta, 1, 2, 3), np.eye(9))


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
    table = wg_exact(p * r, k * n)
    f_vals = [f_beta(b, state, p) for b in pair_list]
    terms = []
    for i, alpha in enumerate(pair_list):
        n_exp = connected_components(delta, alpha)
        k_exp = connected_components(gamma, alpha)
        scale = float(n) ** n_exp * float(k) ** k_exp
        for j, beta in enumerate(pair_list):
            wg = float(table.values[i, j])
            terms.append((alpha, beta, n_exp, k_exp, f_vals[j], wg, scale * f_vals[j] * wg))
    terms.sort(key=lambda term: -abs(term[6]))
    return terms


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

    def test_terms_are_immutable_tuples(self):
        term = term_report(2, 1, 2, 3, 0.5, np.eye(3) / 3)[0]
        assert isinstance(term, MomentTerm)
        copy = MomentTerm(*term)
        assert copy == term and hash(copy) == hash(term) and len({copy, term}) == 1
        assert (term.alpha, term.beta, term.n_exp, term.k_exp) == tuple(term)[:4]
        assert (term.f_beta, term.wg, term.value) == tuple(term)[4:]
        with pytest.raises(AttributeError):
            term.value = 0.0

    def test_wg_is_the_table_entry(self):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        psi /= np.linalg.norm(psi)
        table = wg_exact(4, 6)
        terms = term_report(2, 2, 2, 3, 0.5, psi)
        assert len(terms) == len(table.pairings) ** 2
        for term in terms:
            wg = table.values[table.index(term.alpha), table.index(term.beta)]
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
            (pairing_from_partial(a, p, r), pairing_from_partial(b, p, r))
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
                (pairing_from_partial(a, p, r), pairing_from_partial(b, p, r))
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
            (pairing_from_partial(a, p, r), pairing_from_partial(b, p, r))
            for a, b in dominant_pairs(p, r)
        }
        saturating = set()
        for a in pairings:
            for b in pairings:
                expo = (
                    connected_components(delta, a)
                    + bumps(b, p, r)
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
