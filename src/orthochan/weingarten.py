"""Exact and leading-order orthogonal Weingarten functions.

The exact table at half-size m and dimension parameter n is the Moore-Penrose
inverse of the Gram matrix G(a, b) = n^(#components of the two-matching graph).
The Gram matrix is singular exactly at integer n < m; elsewhere the table is
its true inverse.

Both matrices are class functions: their (a, b) entry depends only on the
coset type of the pair, a partition of m.  These functions form a commutative
algebra of dimension p(m) (the Hecke algebra of the Gelfand pair (S_2m, H_m)),
and the pseudo-inverse is computed there, from p(m) numbers instead of a dense
(2m-1)!! x (2m-1)!! matrix (Collins-Matsumoto 2009, Zinn-Justin 2010).  A table
keeps only these p(m) coefficients; readers dot them with per-type sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, checked_index, checked_real, shown
from .pairings import (
    Pairing,
    _int_entries,
    _ordered,
    _type_representatives,
    _type_sums,
    connected_components,
    coset_types,
    double_factorial_odd,
    enumerate_pairings,
    mobius,
    type_lengths,
)

GRAM_EIGENVALUE_CUTOFF = 1e-12  # relative cutoff for the pseudo-inverse
TABLE_CACHE_SIZE = 32


@dataclass(frozen=True, eq=False)
class WeingartenTable:
    """Exact Weingarten function at fixed (m, n): its value on each coset type.

    coefficients follows partitions(m).  rank is the rank of the Gram matrix;
    when singular is set (rank below the pairing count, at integer n < m) the
    coefficients are those of the Moore-Penrose pseudo-inverse.
    """

    m: int
    n: float
    coefficients: np.ndarray
    rank: int

    @property
    def singular(self) -> bool:
        """Whether the Gram matrix has rank below the (2m-1)!! pairings."""
        return self.rank < double_factorial_odd(self.m)


def gram_matrix(m: int, n: float) -> np.ndarray:
    """Loop-counting Gram matrix with entries n^connected_components(a, b)."""
    n = checked_real(n, "dimension parameter", 0, math.inf, exclusive=True)
    types = coset_types(m)  # checks m and the pairing cap before type_lengths lists the partitions of m
    return (n ** type_lengths(m))[types]


def _class_pseudo_inverse(m: int, gram_row: np.ndarray) -> tuple[np.ndarray, int]:
    """Pseudo-inverse of a class function of half-size m given by its identity row, per type id.

    Returns the coefficient of the pseudo-inverse on each coset type and the
    rank of the matrix.  Type ids follow partitions(m); the last one is the
    type of a pairing with itself.
    """
    reps = _type_representatives(m)
    first, kinds = coset_types(m)[0], len(reps)
    sizes = np.bincount(first, minlength=kinds)
    # structure constants E_lam E_mu = sum_nu c[lam, nu, mu] E_nu: c counts the
    # b with type(e, b) = lam and type(reps[nu], b) = mu
    c = np.array([_type_sums(m, reps, first == lam) for lam in range(kinds)])
    mult = np.tensordot(gram_row[reps], c, 1)  # multiplication by G on coefficients
    # the trace form weights type lam by its class size; symmetrise with it
    root = np.sqrt(sizes)
    sym = root[:, None] * mult / root[None, :]
    w, v = np.linalg.eigh(sym / 2 + sym.T / 2)  # halved first, so that it overflows only where sym does
    keep = np.abs(w) > GRAM_EIGENVALUE_CUTOFF * np.max(np.abs(w))
    ident = kinds - 1

    def spectral(f):
        # coefficients of f(G): f applied to the spectrum, acting on the unit
        return (v * f) @ v[ident] * root[ident] / root

    coeff = spectral(np.divide(1.0, w, out=np.zeros_like(w), where=keep))  # a dropped 1/w may overflow
    # the kept spectral projector has trace rank, i.e. rank / count on the diagonal
    rank = int(round(len(first) * spectral(keep.astype(float))[ident]))
    return coeff, rank


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _build_table(m: int, n: float) -> WeingartenTable:
    # Gram entries n^l overflow at large n, and the inverse spectrum at tiny n.
    # At the smallest subnormal n the halved Gram matrix underflows to 0, which
    # no n > 0 gives, so rank 0 is refused too.  Underflow elsewhere only rounds
    # coefficients far below the largest to 0.  Only integer n < m make the Gram
    # matrix singular; a lower rank elsewhere is an eigenvalue lost under the cutoff.
    try:
        with np.errstate(over="raise", invalid="raise"):
            coeff, rank = _class_pseudo_inverse(m, gram_matrix(m, n)[0])
    except FloatingPointError:
        coeff, rank = None, 0
    table = WeingartenTable(m=m, n=n, coefficients=coeff, rank=rank)
    if rank == 0 or table.singular and not (n < m and n.is_integer()):
        raise ValidationError(f"the Weingarten table at m = {m}, n = {n!r} leaves the float64 range")
    coeff.setflags(write=False)
    return table


def wg_exact(m: int, n: float) -> WeingartenTable:
    """Exact Weingarten table, cached per (m, n)."""
    n = checked_real(n, "dimension parameter", 0, math.inf, exclusive=True)
    return _build_table(checked_index(m, "m", 1), n)


def wg_asymptotic(alpha: Pairing, beta: Pairing, n: float) -> float:
    """Leading-order value n^(cc(a, b) - 2m) * mobius(a, b), i.e. n^(-m - |ab|/2) * mobius(a, b).

    mobius is never 0, so a value that overflows or underflows to 0 is not
    representable and raises ValidationError.
    """
    n = checked_real(n, "dimension parameter", 0, math.inf, exclusive=True)
    try:
        value = n ** (connected_components(alpha, beta) - alpha.size) * mobius(alpha, beta)
    except OverflowError:  # the power raises; the product overflows to inf instead
        value = math.inf
    if value == 0 or math.isinf(value):
        raise ValidationError(f"the leading-order Weingarten value at n = {n!r} leaves the float64 range")
    return value


def integrate_monomial(index_rows, n: float) -> float:
    """Haar average of a monomial in orthogonal-matrix entries.

    index_rows lists the integer (row, column) index of each factor U_{ij}.  Odd
    degrees integrate to zero; even degrees are the double pairing sum of
    row/column delta constraints, counted per coset type, against the table.
    """
    n = checked_real(n, "dimension parameter", 0, math.inf, exclusive=True)  # odd and empty products too
    if not _ordered(index_rows):  # a set would merge repeated factors
        raise ValidationError(f"index_rows must be a sequence of (row, column) pairs, got {index_rows!r}")
    rows = [_int_entries(rc, "row or column index") for rc in index_rows]
    if any(len(rc) != 2 for rc in rows):
        raise ValidationError(f"each factor needs one (row, column) index pair, got {shown(rows)}")
    if len(rows) % 2 == 1:
        return 0.0
    if not rows:
        return 1.0
    m = len(rows) // 2
    pairs = enumerate_pairings(m)
    i_ok = np.flatnonzero([all(rows[s][0] == rows[t][0] for s, t in a.pairs) for a in pairs])
    j_ok = [all(rows[s][1] == rows[t][1] for s, t in b.pairs) for b in pairs]
    return float(_type_sums(m, i_ok, j_ok).sum(axis=0) @ wg_exact(m, n).coefficients)
