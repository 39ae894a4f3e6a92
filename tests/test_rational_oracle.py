"""Exact rational reference for the Weingarten tables and the exact engine.

The Gram matrix and its (pseudo-)inverse are class functions of the coset
type, so they live in the p(m)-dimensional algebra spanned by the type
indicators E_lam.  Its structure constants are integer counts read off
coset_types(m), and at integer n the Gram element sum_lam n^len(lam) E_lam
has integer coordinates, so the whole computation runs over
fractions.Fraction.  The Moore-Penrose inverse of the symmetric Gram matrix is
its group inverse, a polynomial in it read off its minimal polynomial, so a
singular n < m needs no special case.

For the basis product input every f_beta is 1, and the exact trace moment is
an exact rational: the common row sum of Wg times sum_a n^cc(delta, a) k^cc(gamma, a).
The maximally mixed input and the Bell-pair input contract p copies of the
state into one fixed wiring eta (delta itself, or the pairs of neighbouring
cells on each side), so f_beta = d^cc(beta, eta) / d^cc(delta, eta) and the
moment is an exact rational too.
"""
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from orthochan.asymptotics import basis_product_state, bell_state_vector, maximal_block
from orthochan.channels import mc_trace_moment
from orthochan.moments import exact_trace_moment, f_beta
from orthochan.pairings import (
    SIDE_L,
    SIDE_R,
    Pairing,
    box_index,
    coset_types,
    delta_gamma,
    enumerate_pairings,
    partitions,
    type_lengths,
)
from orthochan.weingarten import wg_exact


@lru_cache(maxsize=None)
def structure_constants(m: int) -> list[list[list[int]]]:
    """c[lam][mu][nu] with E_lam E_mu = sum_nu c[lam][mu][nu] E_nu.

    c[lam][mu][nu] counts the pairings b with type(e, b) = lam and
    type(b, rep) = mu, where e is the identity pairing and rep the first
    pairing of type nu against it.
    """
    types = coset_types(m)
    first = types[0].tolist()
    kinds = len(partitions(m))
    c = [[[0] * kinds for _ in range(kinds)] for _ in range(kinds)]
    for nu in range(kinds):
        for lam, mu in zip(first, types[first.index(nu)].tolist()):
            c[lam][mu][nu] += 1
    return c


def product(c, x, y) -> list[Fraction]:
    kinds = len(x)
    return [
        sum(x[lam] * y[mu] * c[lam][mu][nu] for lam in range(kinds) for mu in range(kinds))
        for nu in range(kinds)
    ]


def solve(columns, target):
    """The a with sum_i a_i columns[i] == target, or None outside their span; the columns are independent."""
    rows = [[col[v] for col in columns] + [target[v]] for v in range(len(target))]
    for j in range(len(columns)):
        pivot = next(i for i in range(j, len(rows)) if rows[i][j] != 0)
        rows[j], rows[pivot] = rows[pivot], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i in range(len(rows)):
            if i != j and rows[i][j] != 0:
                rows[i] = [a - rows[i][j] * b for a, b in zip(rows[i], rows[j])]
    if any(row[-1] != 0 for row in rows[len(columns):]):
        return None
    return [row[-1] for row in rows[: len(columns)]]


def group_inverse(c, g) -> list[Fraction]:
    """g h(g)^2, where h(x) = 1/x on every non-zero root of g's minimal polynomial.

    g is diagonalisable, so its minimal polynomial has simple roots and
    x = 0 is at most one of them; h comes from the minimal polynomial with
    that root divided out.  At a regular g this is the inverse.
    """
    one = [Fraction(0)] * (len(g) - 1) + [Fraction(1)]  # the last type is (1, ..., 1)
    powers = [one]
    while (lower := solve(powers, product(c, g, powers[-1]))) is None:
        powers.append(product(c, g, powers[-1]))
    minimal = [-a for a in lower] + [Fraction(1)]  # coefficients from x^0 up
    nonzero_roots = minimal[1:] if minimal[0] == 0 else minimal
    h = [-a / nonzero_roots[0] for a in nonzero_roots[1:]]
    h_of_g = [sum(h[i] * powers[i][nu] for i in range(len(h))) for nu in range(len(g))]
    return product(c, g, product(c, h_of_g, h_of_g))


@lru_cache(maxsize=None)
def exact_weingarten(m: int, n: float) -> tuple[tuple[Fraction, ...], int]:
    """Wg at n per coset type (indexed by partitions(m)), and the Gram rank; n is an integer or an exact float."""
    c = structure_constants(m)
    gram = [Fraction(n) ** len(lam) for lam in partitions(m)]
    wg = group_inverse(c, gram)
    rank = len(enumerate_pairings(m)) * product(c, gram, wg)[-1]  # trace of the range projector
    assert rank.denominator == 1
    return tuple(wg), int(rank)


def exact_basis_moment(p: int, r: int, k: int, n: int) -> Fraction:
    """E Tr Z^p for the basis product input, whose f_beta are all one."""
    m = p * r
    wg, _ = exact_weingarten(m, k * n)
    types = coset_types(m)
    row_sum = sum(wg[lam] * size for lam, size in Counter(types[0].tolist()).items())
    pairs = enumerate_pairings(m)
    lengths = [len(lam) for lam in partitions(m)]
    delta_row, gamma_row = (types[pairs.index(wiring)].tolist() for wiring in delta_gamma(p, r))
    weight = sum(n ** lengths[a] * k ** lengths[b] for a, b in zip(delta_row, gamma_row))
    return row_sum * weight


def relative_error(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / abs(exact))


def test_closed_form_at_m2():
    # Wg(e, e) = (n + 1) / (n (n - 1) (n + 2)) and Wg(e, b) = -1 / (n (n - 1) (n + 2))
    for n in (2, 3, 7):
        wg, rank = exact_weingarten(2, n)
        assert wg == (Fraction(-1, n * (n - 1) * (n + 2)), Fraction(n + 1, n * (n - 1) * (n + 2)))
        assert rank == 3


# Each tolerance is the worst error measured with numpy 2.4.6 on x86-64,
# rounded up to one or two significant digits.

# worst relative error of a table coefficient against the rational one, per m
COEFFICIENT_RTOL = {1: 1e-16, 2: 1e-15, 3: 4e-15, 4: 1e-14, 5: 4e-14}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_table_coefficients_match_rationals(m):
    worst = 0.0
    for n in (m, m + 1, 2 * m + 3):
        exact, rank = exact_weingarten(m, n)
        table = wg_exact(m, n)
        assert (table.rank, table.singular) == (rank, False)
        worst = max([worst] + [relative_error(v, e) for v, e in zip(table.coefficients.tolist(), exact)])
    assert worst <= COEFFICIENT_RTOL[m]


# n far below and above 1, up to where the table leaves float64
EXTREME_N = [(1, 1e308), (1, 1e-300), (2, 1e150), (2, 1e-300), (3, 1e100), (3, 1e-200), (4, 1e75), (4, 1e-100),
             (5, 1e60), (5, 1e-60)]


@pytest.mark.parametrize("m, n", EXTREME_N, ids=[f"m{m}-n{n:g}" for m, n in EXTREME_N])
def test_tables_at_extreme_n_match_rationals(m, n):
    # relative to the largest coefficient: at large n the others fall below its
    # rounding.  At m = 1, n = 1e308 the table once read 0.0.
    exact, rank = exact_weingarten(m, n)
    table = wg_exact(m, n)
    assert (table.rank, table.singular) == (rank, False)
    scale = max(abs(e) for e in exact)
    errors = [abs(Fraction(v) - e) / scale for v, e in zip(table.coefficients.tolist(), exact)]
    assert float(max(errors)) <= COEFFICIENT_RTOL[m]


# singular n < m: worst coefficient error relative to the largest coefficient, per m
SINGULAR_RTOL = {2: 3e-16, 3: 1e-15, 4: 1.5e-15, 5: 6e-15}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_singular_tables_match_rational_pseudo_inverse(m):
    worst = 0.0
    for n in range(1, m):
        exact, rank = exact_weingarten(m, n)
        table = wg_exact(m, n)
        assert (table.rank, table.singular) == (rank, True)
        scale = max(abs(e) for e in exact)
        errors = [abs(Fraction(v) - e) / scale for v, e in zip(table.coefficients.tolist(), exact)]
        worst = max([worst] + [float(error) for error in errors])
    assert worst <= SINGULAR_RTOL[m]


BASIS_CASES = [(p, r) for p in range(1, 6) for r in range(1, 6) if p * r <= 5]
# worst relative error of the engine's basis-product moment, per m = pr
MOMENT_RTOL = {1: 0.0, 2: 1e-15, 3: 2e-15, 4: 3e-14, 5: 3e-13}


@pytest.mark.parametrize("p,r", BASIS_CASES, ids=[f"p{p}_r{r}" for p, r in BASIS_CASES])
def test_basis_product_moments_match_rationals(p, r):
    k, t = 2, 0.5
    worst = 0.0
    for n in (2, 3, 4):
        exact = exact_basis_moment(p, r, k, n)
        value = exact_trace_moment(p, r, k, n, t, basis_product_state(n, r), cap=2 * p * r)
        worst = max(worst, relative_error(value, exact))
    assert worst <= MOMENT_RTOL[p * r]


# three 2pr = 12 cases, (p, r, n) at k = 2: their exact moments and the engine's tolerance
M6_CASES = {
    (3, 2, 4): (Fraction(191, 560), 3.5e-13),
    (2, 3, 3): (Fraction(15, 32), 7e-14),
    (6, 1, 5): (Fraction(43, 160), 7e-14),
}


@pytest.mark.parametrize("p,r,n", M6_CASES, ids=[f"p{p}_r{r}_n{n}" for p, r, n in M6_CASES])
def test_m6_basis_product_moments(p, r, n):
    exact, rtol = M6_CASES[(p, r, n)]
    assert exact_basis_moment(p, r, 2, n) == exact
    value = exact_trace_moment(p, r, 2, n, 0.5, basis_product_state(n, r), cap=12)
    assert relative_error(value, exact) <= rtol


@pytest.mark.parametrize("p,r,n", M6_CASES, ids=[f"p{p}_r{r}_n{n}" for p, r, n in M6_CASES])
def test_m6_monte_carlo_matches_rationals(p, r, n):
    # the Monte Carlo engine against the same rationals, within three standard
    # errors; seed and sample count were fixed before the first run
    exact, _ = M6_CASES[(p, r, n)]
    estimate, stderr = mc_trace_moment(p, r, 2, n, 0.5, basis_product_state(n, r), 40_000, 12)
    assert abs(estimate - float(exact)) <= 3 * stderr


def bell_wiring(p: int, r: int) -> Pairing:
    """The wiring of p copies of the Bell-pair input (r even): cells 2j and 2j + 1 of each copy joined on each side."""
    return Pairing.from_pairs(
        [(box_index(i, x, side, p, r), box_index(i, x + 1, side, p, r))
         for i in range(p) for x in range(0, r, 2) for side in (SIDE_L, SIDE_R)]
    )


def exact_wired_moment(p: int, r: int, k: int, n: int, d: int, eta: Pairing) -> Fraction:
    """E Tr Z^p for an input with f_beta = d^cc(beta, eta) / d^cc(delta, eta).

    The double sum is grouped by (cc(delta, a), cc(gamma, a), type(a, b),
    cc(b, eta)), each cell a count times one rational term.
    """
    m = p * r
    wg, _ = exact_weingarten(m, k * n)
    types, lengths, pairs = coset_types(m), type_lengths(m), enumerate_pairings(m)
    delta, gamma = delta_gamma(p, r)
    cc_delta, cc_gamma, cc_eta = (lengths[types[pairs.index(w)]] for w in (delta, gamma, eta))
    base, kinds = m + 1, len(wg)
    keys = ((cc_delta[:, None] * base + cc_gamma[:, None]) * kinds + types) * base + cc_eta[None, :]
    total = Fraction(0)
    for key, count in zip(*(column.tolist() for column in np.unique(keys, return_counts=True))):
        rest, c_eta = divmod(key, base)
        rest, lam = divmod(rest, kinds)
        c_delta, c_gamma = divmod(rest, base)
        total += count * n**c_delta * k**c_gamma * wg[lam] * Fraction(d) ** c_eta
    return total / Fraction(d) ** int(cc_eta[pairs.index(delta)])


@pytest.mark.parametrize("p,r", [(1, 2), (2, 2), (1, 4), (3, 1)])
def test_wired_inputs_contract_to_a_power_of_d(p, r):
    # the premise of exact_wired_moment, checked pairing by pairing against the engine's contraction
    d = 3
    types, lengths, pairs = coset_types(p * r), type_lengths(p * r), enumerate_pairings(p * r)
    inputs = [(delta_gamma(p, r)[0], np.eye(d**r) / d**r)]
    if r % 2 == 0:
        inputs.append((bell_wiring(p, r), bell_state_vector(maximal_block(r), d)))
    for eta, state in inputs:
        cc_eta = lengths[types[pairs.index(eta)]]
        norm = d ** int(cc_eta[pairs.index(delta_gamma(p, r)[0])])
        for beta, cc in zip(pairs, cc_eta.tolist()):
            assert f_beta(beta, state, p) == pytest.approx(d**cc / norm, rel=1e-12, abs=0)


# worst relative error of the engine's moment per m = pr, for the maximally
# mixed input at every (p, r) and the Bell-pair input at even r
MIXED_RTOL = {1: 0.0, 2: 5e-16, 3: 1.2e-15, 4: 1e-14, 5: 1.5e-13}
BELL_CASES = [(p, r) for p, r in BASIS_CASES if r % 2 == 0]
BELL_RTOL = {2: 7e-16, 4: 3e-14}


@pytest.mark.parametrize("p,r", BASIS_CASES, ids=[f"p{p}_r{r}" for p, r in BASIS_CASES])
def test_mixed_input_moments_match_rationals(p, r):
    k, t = 2, 0.5
    worst = 0.0
    for n in (2, 3, 4):
        exact = exact_wired_moment(p, r, k, n, n, delta_gamma(p, r)[0])
        value = exact_trace_moment(p, r, k, n, t, np.eye(n**r) / n**r, cap=2 * p * r)
        worst = max(worst, relative_error(value, exact))
    assert worst <= MIXED_RTOL[p * r]


@pytest.mark.parametrize("p,r", BELL_CASES, ids=[f"p{p}_r{r}" for p, r in BELL_CASES])
def test_bell_input_moments_match_rationals(p, r):
    k, t = 2, 0.5
    worst = 0.0
    for n in (2, 3, 4):
        exact = exact_wired_moment(p, r, k, n, n, bell_wiring(p, r))
        value = exact_trace_moment(p, r, k, n, t, bell_state_vector(maximal_block(r), n), cap=2 * p * r)
        worst = max(worst, relative_error(value, exact))
    assert worst <= BELL_RTOL[p * r]
