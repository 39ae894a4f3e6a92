import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from orthochan.errors import EnumerationLimitError, ValidationError
from orthochan.pairings import (
    coset_types,
    double_factorial_odd,
    enumerate_pairings,
    length,
    mobius,
    Pairing,
    partitions,
    Permutation,
)
from orthochan.weingarten import (
    GRAM_EIGENVALUE_CUTOFF,
    gram_matrix,
    integrate_monomial,
    wg_asymptotic,
    wg_exact,
)


def dense_table(m, n):
    """The dense Weingarten table over enumerate_pairings(m), gathered from its per-type coefficients."""
    return wg_exact(m, n).coefficients[coset_types(m)]


def dense_pseudo_inverse(g):
    """Moore-Penrose inverse of the dense Gram matrix by eigh, with the library's cutoff."""
    w, v = np.linalg.eigh(g)
    cut = GRAM_EIGENVALUE_CUTOFF * np.max(np.abs(w))
    inv = np.where(np.abs(w) > cut, 1.0 / np.where(w == 0, 1.0, w), 0.0)
    return (v * inv) @ v.T


def m2_closed_form(n):
    """Inverse of (n^2 - n) I + n J on three pairings, derived independently.

    For G = aI + bJ (J all-ones, size 3): G^-1 = (I - b/(a + 3b) J) / a.
    """
    a, b = n * n - n, n
    diag = (1 - b / (a + 3 * b)) / a
    off = -(b / (a + 3 * b)) / a
    return diag, off


class TestGramMatrix:
    def test_m1(self):
        assert gram_matrix(1, 7.0) == pytest.approx(np.array([[7.0]]))

    def test_m2_structure(self):
        g = gram_matrix(2, 5.0)
        assert g.shape == (3, 3)
        assert np.allclose(np.diag(g), 25.0)
        off = g[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 5.0)

    def test_m2_n3_values(self):
        g = gram_matrix(2, 3)
        assert np.allclose(np.diag(g), 9.0)
        assert np.allclose(g[0, 1], 3.0)

    def test_symmetry(self):
        g = gram_matrix(3, 4.0)
        assert np.allclose(g, g.T)


class TestExactTable:
    def test_m1_value(self):
        assert dense_table(1, 6)[0, 0] == pytest.approx(1 / 6)

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_m2_closed_form(self, n):
        values = dense_table(2, n)
        diag, off = m2_closed_form(n)
        # library form of the same numbers
        assert diag == pytest.approx((n + 1) / (n * (n - 1) * (n + 2)))
        assert off == pytest.approx(-1 / (n * (n - 1) * (n + 2)))
        assert np.allclose(np.diag(values), diag)
        assert values[0, 1] == pytest.approx(off)

    def test_m2_n1_pseudo_inverse(self):
        # gram at n=1 is the all-ones matrix; its pseudo-inverse is J/9
        assert np.allclose(dense_table(2, 1), np.ones((3, 3)) / 9, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_projector_identity(self, m):
        for n in range(1, 11):
            g = gram_matrix(m, n)
            w = dense_table(m, n)
            proj = g @ w
            # projector onto the range of the gram matrix
            assert np.allclose(proj @ proj, proj, atol=1e-6)
            if n >= 2 * m:
                assert np.allclose(proj, np.eye(len(g)), atol=1e-8)

    def test_orthogonality_relation(self):
        # sum_b Wg(a, b) n^{cc(b, c)} = delta_{ac} for n >= 2m
        m, n = 3, 7
        g = gram_matrix(m, n)
        w = dense_table(m, n)
        assert np.allclose(w @ g, np.eye(len(g)), atol=1e-9)

    def test_conjugation_invariance(self):
        # table entries depend only on the relabeling class of the pair
        m = 3
        pairings = enumerate_pairings(m)
        index = {pairing: i for i, pairing in enumerate(pairings)}
        values = dense_table(m, 9)
        rng = np.random.default_rng(3)
        perm = Permutation(tuple(rng.permutation(2 * m)))
        inv = perm.inverse()
        for a in pairings[:5]:
            for b in pairings[:5]:
                ca = Pairing(perm.compose(a).compose(inv).images)
                cb = Pairing(perm.compose(b).compose(inv).images)
                assert values[index[ca], index[cb]] == pytest.approx(values[index[a], index[b]], rel=1e-12)

    def test_cache_returns_same_object(self):
        assert wg_exact(2, 5) is wg_exact(2, 5)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 10])
    def test_class_solve_matches_dense_pseudo_inverse(self, m, n):
        # covers every singular case n < m of these grids
        dense = dense_pseudo_inverse(gram_matrix(m, n))
        values = dense_table(m, n)
        assert np.max(np.abs(values - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("m,n,singular", [(5, 4, True), (2, 1, True), (3, 2, True), (4, 6, False)])
    def test_rank_and_singular(self, m, n, singular):
        table = wg_exact(m, n)
        assert table.rank == np.linalg.matrix_rank(gram_matrix(m, n))
        assert table.singular is singular
        assert table.singular == (table.rank < len(enumerate_pairings(m)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_singular_exactly_at_integer_n_below_m(self, m):
        for n in (1, 2, 3, 4, 5, 6, 1.5, 3.5):
            assert wg_exact(m, n).singular == (n == int(n) and n < m)

    def test_coefficients_are_read_only(self):
        with pytest.raises(ValueError):
            wg_exact(2, 5).coefficients[0] = 0.0

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_table_keeps_one_coefficient_per_coset_type(self, m):
        # nothing of the pairing count's size is cached with the table
        table = wg_exact(m, 2 * m + 1)
        assert [f.name for f in fields(table)] == ["m", "n", "coefficients", "rank", "singular"]
        assert table.coefficients.shape == (len(partitions(m)),)
        assert not hasattr(table, "values")


@pytest.mark.parametrize("n", [0.0, -2.0, float("nan"), float("inf")])
def test_dimension_must_be_finite_and_positive(n):
    # NaN fails every comparison, so a bare n <= 0 test would let it through
    pair = enumerate_pairings(1)[0]
    with pytest.raises(ValidationError, match="finite and positive"):
        wg_exact(1, n)
    with pytest.raises(ValidationError, match="finite and positive"):
        wg_asymptotic(pair, pair, n)
    for index_rows in ([(0, 0), (0, 0)], [(0, 0)], []):
        with pytest.raises(ValidationError, match="finite and positive"):
            integrate_monomial(index_rows, n)


@pytest.mark.parametrize("m", [2.9, 2.0, "2"])
def test_half_size_must_be_an_integer(m):
    # int() would build the m = 2 table for each of these
    with pytest.raises(ValidationError, match="m must be an integer"):
        wg_exact(m, 3)


class TestAsymptotic:
    def test_m1(self):
        p = enumerate_pairings(1)[0]
        assert wg_asymptotic(p, p, 50) == pytest.approx(1 / 50)

    def test_m2_crossing(self):
        a, b = enumerate_pairings(2)[0], enumerate_pairings(2)[1]
        assert wg_asymptotic(a, b, 10) == pytest.approx(-1e-3)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exponent_from_the_product_permutation_bit_for_bit(self, m):
        # cc(a, b) - 2m from the cycle walk against -m - |ab|/2 from the product's cycles
        pairings = enumerate_pairings(m)
        for n in (3, 7.5, 1000):
            for a in pairings:
                for b in pairings:
                    assert wg_asymptotic(a, b, n) == float(n) ** (-m - length(a.compose(b)) / 2) * mobius(a, b)

    def test_ratio_near_one_large_n(self):
        n = 1000
        values = dense_table(2, n)
        pairings = enumerate_pairings(2)
        for i, a in enumerate(pairings):
            for j, b in enumerate(pairings):
                ratio = values[i, j] / wg_asymptotic(a, b, n)
                assert ratio == pytest.approx(1.0, abs=0.01)

    def test_deviation_halves_when_n_doubles(self):
        n = 400
        w1, w2 = dense_table(3, n), dense_table(3, 2 * n)
        pairings = enumerate_pairings(3)
        for i, a in enumerate(pairings):
            for j, b in enumerate(pairings):
                d1 = abs(w1[i, j] / wg_asymptotic(a, b, n) - 1)
                d2 = abs(w2[i, j] / wg_asymptotic(a, b, 2 * n) - 1)
                if d1 > 1e-12:
                    assert d2 <= 0.6 * d1


# E[U_11^(2m)] against its closed form: relative tolerance by m, fixed before
# the per-type sum first ran
POWER_RTOL = {1: 2e-16, 2: 1e-15, 3: 1e-14, 4: 5e-14, 5: 5e-13, 6: 1e-12}
# fourth-order O(n) moments that restrict both rows and columns, with closed forms
FOURTH_ORDER = {
    "U11^2 U12^2": ([(1, 1), (1, 1), (1, 2), (1, 2)], lambda n: Fraction(1, n * (n + 2))),
    "U11^2 U22^2": ([(1, 1), (1, 1), (2, 2), (2, 2)], lambda n: Fraction(n + 1, (n - 1) * n * (n + 2))),
    "U11 U12 U21 U22": ([(1, 1), (1, 2), (2, 1), (2, 2)], lambda n: Fraction(-1, (n - 1) * n * (n + 2))),
}


class TestIntegrateMonomial:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in (1, 2, 3, 4, 8)] + [(6, 8)])
    def test_u11_power_closed_form(self, m, n):
        # E U_11^(2m) = (2m-1)!! / prod_{j<m} (n + 2j); n < m reads a pseudo-inverse
        # table, and (6, 8) is the table of the 2pr = 12 oracle at n = 4
        exact = float(Fraction(double_factorial_odd(m), math.prod(n + 2 * j for j in range(m))))
        value = integrate_monomial([(1, 1)] * (2 * m), n)
        assert abs(value - exact) <= POWER_RTOL[m] * exact

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("name", FOURTH_ORDER)
    def test_fourth_order_closed_forms(self, name, n):
        index_rows, closed_form = FOURTH_ORDER[name]
        exact = float(closed_form(n))
        assert abs(integrate_monomial(index_rows, n) - exact) <= 1e-15 * abs(exact)

    def test_reads_no_dense_table(self):
        # the allowed pairs are counted per coset type: the peak stays below one
        # dense 945 x 945 float64 table (7.1 MB) at m = 5
        rows = [(1, 1)] * 10
        integrate_monomial(rows, 8)  # builds the table and the coset types
        tracemalloc.start()
        try:
            integrate_monomial(rows, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 945**2 * 8

    def test_u11_squared(self):
        assert integrate_monomial([(1, 1), (1, 1)], 9) == pytest.approx(1 / 9)

    def test_mixed_columns_vanish(self):
        assert integrate_monomial([(1, 1), (1, 2)], 9) == 0.0

    def test_odd_vanishes(self):
        assert integrate_monomial([(1, 1)], 9) == 0.0
        assert integrate_monomial([(1, 1), (2, 2), (1, 2)], 9) == 0.0

    @pytest.mark.parametrize("n", [4, 7, 11])
    def test_u11_fourth_power(self, n):
        # all three pairings compatible on both sides: value is a row sum
        diag, off = m2_closed_form(n)
        expected = 3 * (diag + 2 * off)
        assert expected == pytest.approx(3 / (n * (n + 2)))
        assert integrate_monomial([(1, 1)] * 4, n) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [4, 7])
    def test_u11sq_u21sq(self, n):
        # rows force the unique within-variable pairing; columns free
        diag, off = m2_closed_form(n)
        assert integrate_monomial([(1, 1), (1, 1), (2, 1), (2, 1)], n) == pytest.approx(diag + 2 * off)

    @pytest.mark.parametrize("index_rows", [[(0,), (0,)], [(0, 0, 5), (1, 1, 7)]], ids=["short", "long"])
    def test_factor_index_must_be_a_row_column_pair(self, index_rows):
        with pytest.raises(ValidationError, match="one \\(row, column\\) index pair"):
            integrate_monomial(index_rows, 3)

    def test_empty_product(self):
        assert integrate_monomial([], 5) == 1.0

    def test_cap_propagates(self):
        with pytest.raises(EnumerationLimitError):
            integrate_monomial([(1, 1)] * 14, 5)
