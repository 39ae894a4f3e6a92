from dataclasses import fields

import numpy as np
import pytest

from orthochan.errors import EnumerationLimitError, ValidationError
from orthochan.pairings import coset_types, enumerate_pairings, length, mobius, Pairing, partitions, Permutation
from orthochan.weingarten import (
    GRAM_EIGENVALUE_CUTOFF,
    gram_matrix,
    integrate_monomial,
    wg_asymptotic,
    wg_exact,
)


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
        table = wg_exact(1, 6)
        assert table.values[0, 0] == pytest.approx(1 / 6)

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_m2_closed_form(self, n):
        table = wg_exact(2, n)
        diag, off = m2_closed_form(n)
        # library form of the same numbers
        assert diag == pytest.approx((n + 1) / (n * (n - 1) * (n + 2)))
        assert off == pytest.approx(-1 / (n * (n - 1) * (n + 2)))
        assert np.allclose(np.diag(table.values), diag)
        assert table.values[0, 1] == pytest.approx(off)

    def test_m2_n1_pseudo_inverse(self):
        # gram at n=1 is the all-ones matrix; its pseudo-inverse is J/9
        table = wg_exact(2, 1)
        assert np.allclose(table.values, np.ones((3, 3)) / 9, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_projector_identity(self, m):
        for n in range(1, 11):
            g = gram_matrix(m, n)
            w = wg_exact(m, n).values
            proj = g @ w
            # projector onto the range of the gram matrix
            assert np.allclose(proj @ proj, proj, atol=1e-6)
            if n >= 2 * m:
                assert np.allclose(proj, np.eye(len(g)), atol=1e-8)

    def test_orthogonality_relation(self):
        # sum_b Wg(a, b) n^{cc(b, c)} = delta_{ac} for n >= 2m
        m, n = 3, 7
        g = gram_matrix(m, n)
        w = wg_exact(m, n).values
        assert np.allclose(w @ g, np.eye(len(g)), atol=1e-9)

    def test_conjugation_invariance(self):
        # table entries depend only on the relabeling class of the pair
        m = 3
        table = wg_exact(m, 9)
        pairings = enumerate_pairings(m)
        index = {pairing: i for i, pairing in enumerate(pairings)}
        values = table.values
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
        values = wg_exact(m, n).values
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

    def test_values_are_read_only(self):
        with pytest.raises(ValueError):
            wg_exact(2, 5).values[0, 0] = 0.0
        with pytest.raises(ValueError):
            wg_exact(2, 5).coefficients[0] = 0.0

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_table_keeps_one_coefficient_per_coset_type(self, m):
        # nothing of the pairing count's size is cached with the table
        table = wg_exact(m, 2 * m + 1)
        assert [f.name for f in fields(table)] == ["m", "n", "coefficients", "rank", "singular"]
        assert table.coefficients.shape == (len(partitions(m)),)
        assert np.array_equal(table.values, table.coefficients[coset_types(m)])


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
        values = wg_exact(2, n).values
        pairings = enumerate_pairings(2)
        for i, a in enumerate(pairings):
            for j, b in enumerate(pairings):
                ratio = values[i, j] / wg_asymptotic(a, b, n)
                assert ratio == pytest.approx(1.0, abs=0.01)

    def test_deviation_halves_when_n_doubles(self):
        n = 400
        w1, w2 = wg_exact(3, n).values, wg_exact(3, 2 * n).values
        pairings = enumerate_pairings(3)
        for i, a in enumerate(pairings):
            for j, b in enumerate(pairings):
                d1 = abs(w1[i, j] / wg_asymptotic(a, b, n) - 1)
                d2 = abs(w2[i, j] / wg_asymptotic(a, b, 2 * n) - 1)
                if d1 > 1e-12:
                    assert d2 <= 0.6 * d1


class TestIntegrateMonomial:
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
