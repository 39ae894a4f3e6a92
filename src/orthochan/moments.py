"""Exact finite-size moment sums for outputs of tensor powers of random channels.

The p-th trace moment of Z = Phi^(tensor r)(rho) is a double sum over pairings
of the 2pr diagram endpoints,

    E Tr Z^p = sum_{a, b} n^{cc(delta, a)} k^{cc(gamma, a)} f_b(rho) Wg_{kn}(a, b),

where cc counts components of the two-matching graph, delta/gamma are the
diagram wirings, and f_b contracts the input state against the delta pattern
of b.  The sum is an identity at every finite n, not an approximation, which
is what makes Monte Carlo cross-validation meaningful.
"""
from __future__ import annotations

import gc
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .channels import _check_t, _checked_state, input_dim
from .errors import BudgetError, EnumerationLimitError, ValidationError, checked_index, checked_size
from .pairings import (
    PAIR_LISTING_HALF_SIZE_CAP,
    PAIRING_HALF_SIZE_CAP,
    Pairing,
    PartialPairing,
    _neighbour_swap,
    _symmetry_orbits,
    _type_sums,
    connected_components,
    coset_types,
    delta_gamma,
    dominant_pairs,
    double_factorial_odd,
    enumerate_pairings,
    enumerate_partial_pairings,
    pairing_from_partial,
    type_lengths,
    wiring_sum,
)
from .weingarten import wg_exact

EXACT_PAIRING_CAP = 8        # default max 2pr for the double pairing sum
EXACT_PAIRING_HARD_CAP = 2 * PAIRING_HALF_SIZE_CAP  # largest cap accepted (12); see the CLI help for its cost
CONTRACTION_BUDGET = 2**24   # max d^(pr) free-index space in f_beta
CONTRACTION_HARD_BUDGET = 2**26  # largest budget accepted
TERM_CHUNK = 2**15           # rows gathered per batch for a term report or a listing CSV
G_WEIGHT_SLACK = 1e-9        # round-off allowed outside [0, 1] in a block weight g_B


class MomentTerm(NamedTuple):
    """One (alpha, beta) summand of the exact trace-moment sum."""

    alpha: Pairing
    beta: Pairing
    n_exp: int
    k_exp: int
    f_beta: complex
    wg: float
    value: complex


def _infer_local_dim(total: int, copies: int) -> int:
    """Integer d with d**copies == total."""
    d = round(total ** (1.0 / copies))
    for cand in (d - 1, d, d + 1):
        if cand >= 1 and cand**copies == total:
            return cand
    raise ValidationError(f"state dimension {total} is not a perfect {copies}-th power")


def f_beta(beta: Pairing, state: np.ndarray, p: int, budget: int = CONTRACTION_BUDGET) -> complex:
    """Contraction of p input-state copies against the delta pattern of beta.

    Never materializes the pattern matrix: each pair of beta identifies two
    state legs, leaving one free index per pair, and the d^(pr)-point sum is
    delegated to einsum.  The modulus is bounded by d^bumps(beta).  Unchecked:
    callers check the state once (channels._checked_state), this runs per orbit.
    """
    p, budget = checked_index(p, "p", 1), checked_index(budget, "budget", 1, CONTRACTION_HARD_BUDGET)
    if beta.size % (2 * p) != 0:
        raise ValidationError(f"pairing size {beta.size} is not a multiple of 2p = {2 * p}")
    r = beta.size // (2 * p)
    state = np.asarray(state)
    total = state.shape[0]
    d = _infer_local_dim(total, r)
    checked_size(d ** (p * r), budget, "f_beta contraction needs d^(pr)")
    # endpoint (copy i, cell x, side) takes the label of its pair; per copy, [ket legs], [bra legs]
    labels = np.empty(2 * p * r, dtype=int)
    labels[np.array(beta.pairs)] = np.arange(len(beta.pairs))[:, None]
    labels = labels.reshape(p, r, 2).transpose(0, 2, 1).tolist()
    if state.ndim == 1:
        psi = state.reshape((d,) * r)
        args = [arg for ket, bra in labels for arg in (psi, ket, psi.conj(), bra)]
    else:
        rho = state.reshape((d,) * (2 * r))
        args = [arg for ket, bra in labels for arg in (rho, ket + bra)]
    return complex(np.einsum(*args, []))


def wiring_matrix(pairing: Pairing, dim: int) -> np.ndarray:
    """Dense delta-pattern matrix of a diagram pairing of 2q endpoints on (C^dim)^q.

    Rows are indexed by the R-side legs in (copy, channel) order, columns by
    the L-side legs; entry 1 where every pair's two leg indices agree.  This
    is the dense counterpart of f_beta, kept for oracle use; its operator norm
    is dim^bumps.
    """
    return wiring_sum([pairing], [1.0], dim)


def _checked_limits(cap, budget) -> tuple[int, int]:
    """cap and budget as integers in [1, EXACT_PAIRING_HARD_CAP] and [1, CONTRACTION_HARD_BUDGET]; never clamped."""
    cap = checked_index(cap, "cap", 1, EXACT_PAIRING_HARD_CAP)
    return cap, checked_index(budget, "budget", 1, CONTRACTION_HARD_BUDGET)


def _engine_arrays(p: int, r: int, k: int, n: int, t: float, state, cap: int, budget: int):
    p, r = checked_index(p, "p", 1), checked_index(r, "r", 1)
    cap, budget = _checked_limits(cap, budget)
    m = p * r
    if 2 * m > cap:
        raise EnumerationLimitError(f"exact engine needs 2pr = {2 * m} diagram endpoints, above cap {cap}")
    d = input_dim(k, n, t)
    _checked_state(state, d**r)
    checked_size(d ** (p * r), budget, "f_beta contraction needs d^(pr)")  # before any table is built
    table = wg_exact(m, k * n)
    pair_list = enumerate_pairings(m)
    counts, types = type_lengths(m), coset_types(m)
    n_exp, k_exp = (counts[types[pair_list.index(wiring)]] for wiring in delta_gamma(p, r))
    # A density matrix is contracted by its Hermitian part, which makes the side
    # swap conjugate f exactly; it is the matrix itself when that is exactly
    # Hermitian, and the state check lets it be so only within a tolerance.
    state = np.asarray(state)
    if state.ndim == 2:
        state = (state + state.conj().T) / 2
    orbits = _state_orbits(state, p, r)
    f_vals = _f_values(pair_list, state, p, budget, orbits)
    return pair_list, n_exp, k_exp, f_vals, table, orbits


def _state_orbits(state: np.ndarray, p: int, r: int):
    """Orbits of the pairings under relabellings that keep f_beta of p copies of the state up to conjugation.

    Relabelling the copies keeps f, and swapping the L and R sides of every
    endpoint conjugates it (the state is Hermitian).  Swapping channels x and
    x + 1 in every copy keeps f when it leaves the state's tensor unchanged,
    tested exactly for each adjacent pair.  Returns pairings._symmetry_orbits of
    the channel swaps that pass.
    """
    d = _infer_local_dim(state.shape[0], r)
    tensor = state.reshape((d,) * (r * state.ndim))
    axes = np.arange(tensor.ndim).reshape(state.ndim, r)  # ket legs, then bra legs for a matrix
    fixed = (x for x in range(r - 1) if np.array_equal(tensor.transpose(_neighbour_swap(axes, 1, x)), tensor))
    return _symmetry_orbits(p, r, tuple(fixed))


def _f_values(pair_list, state: np.ndarray, p: int, budget: int, orbits) -> np.ndarray:
    """f_beta of every pairing, contracted once per orbit and conjugated on the orbit's flipped members."""
    orbit, reps, flipped = orbits
    f_vals = np.array([f_beta(pair_list[i], state, p, budget) for i in reps])[orbit]
    return np.conjugate(f_vals, out=f_vals, where=flipped)


def exact_trace_moment(
    p: int,
    r: int,
    k: int,
    n: int,
    t: float,
    state: np.ndarray,
    cap: int = EXACT_PAIRING_CAP,
    budget: int = CONTRACTION_BUDGET,
) -> float:
    """E Tr Z^p as the exact double pairing sum at finite n."""
    _, n_exp, k_exp, f_vals, table, (orbit, reps, _) = _engine_arrays(p, r, k, n, t, state, cap, budget)
    # Wg and Re f are invariant under the relabellings that make the orbits: sum
    # Re f per coset type on one row per orbit, weight each orbit by its total
    # n^n_exp k^k_exp, then dot with Wg per type.
    per_rep = _type_sums(p * r, reps, f_vals.real)
    per_type = np.bincount(orbit, float(n) ** n_exp * float(k) ** k_exp) @ per_rep
    return float(table.coefficients @ per_type)


def exact_mean_output(r: int, k: int, n: int, t: float, state: np.ndarray) -> np.ndarray:
    """Exact E Z at finite n: the first-moment sum with open output legs.

    The scalar k-loop factor of the trace sum is replaced by the k-space
    wiring pattern of each alpha, yielding a Hermitian trace-one k^r matrix.
    """
    pair_list, n_exp, _, f_vals, table, _ = _engine_arrays(
        1, r, k, n, t, state, EXACT_PAIRING_CAP, CONTRACTION_BUDGET
    )
    re, im = (_type_sums(r, range(len(pair_list)), part) @ table.coefficients for part in (f_vals.real, f_vals.imag))
    coeffs = float(n) ** n_exp * (re + 1j * im)
    # rows of the mean output are L legs, hence the transpose
    return np.ascontiguousarray(wiring_sum(pair_list, coeffs, k).T)


class _TermArrays(NamedTuple):
    """A term report as arrays: per-pairing, per-row, per-type and per-value
    tables, plus the row, column, coset type and value id of each term,
    largest value first."""

    pairings: tuple[Pairing, ...]
    n_exp: np.ndarray
    k_exp: np.ndarray
    f_beta: np.ndarray
    wg: np.ndarray
    value_table: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    types: np.ndarray
    value_ids: np.ndarray


def _magnitude_ranks(values: np.ndarray) -> np.ndarray:
    """Rank of each value among the distinct magnitudes, largest first, in the narrowest unsigned dtype.

    A stable sort on the ranks orders like a stable sort on -|value|, and
    numpy radix-sorts keys of up to 16 bits.
    """
    distinct, ranks = np.unique(-np.abs(values), return_inverse=True)
    return ranks.astype(np.min_scalar_type(len(distinct) - 1))


def _term_arrays(p: int, r: int, k: int, n: int, t: float, state, cap: int, budget: int) -> _TermArrays:
    """The terms of term_report, sorted, as index arrays into small tables; no per-term objects or values."""
    m = checked_index(p, "p", 1) * checked_index(r, "r", 1)
    _checked_limits(cap, budget)  # a refused cap or budget is a ValidationError ahead of the listing cap
    if m > PAIR_LISTING_HALF_SIZE_CAP:
        raise BudgetError(
            f"a term report at 2pr = {2 * m} would list {double_factorial_odd(m) ** 2} terms; "
            f"the cap is 2pr <= {2 * PAIR_LISTING_HALF_SIZE_CAP}"
        )
    pair_list, n_exp, k_exp, f_vals, table, _ = _engine_arrays(p, r, k, n, t, state, cap, budget)
    count, kinds, types = len(pair_list), len(table.coefficients), coset_types(m)
    # A term's value depends only on its row's exponents, its column's f and its
    # coset type.  Each distinct triple gets a value id; f is keyed on its
    # bytes, so conjugates and signed zeros keep separate ids.
    classes, row_class = np.unique(np.stack((n_exp, k_exp), axis=1), axis=0, return_inverse=True)
    _, f_first, col_f = np.unique(f_vals.view("V16"), return_index=True, return_inverse=True)
    # one intp code per term, (class * f ids + f id) * kinds + type: numpy would
    # copy a narrower index array to intp on every gather
    cells = (row_class[:, None] * len(f_first) + col_f).ravel()
    cells *= kinds
    cells += types.ravel()
    seen = np.zeros(len(classes) * len(f_first) * kinds, dtype=bool)
    seen[cells] = True
    triples = np.flatnonzero(seen)
    # each value is computed once, by the dense expression on its operands, so
    # it is bitwise what every term of its triple would get
    scale = float(n) ** classes[:, 0] * float(k) ** classes[:, 1]
    triple_class, rest = np.divmod(triples, len(f_first) * kinds)
    f_id, kind = np.divmod(rest, kinds)
    value_table = (scale[triple_class] * f_vals[f_first[f_id]]) * table.coefficients[kind]
    ranks = _magnitude_ranks(value_table)
    id_of = np.zeros(len(seen), dtype=np.min_scalar_type(len(triples) - 1))
    id_of[triples] = np.arange(len(triples))
    rank_of = np.zeros(len(seen), dtype=ranks.dtype)
    rank_of[triples] = ranks
    value_ids, order = id_of[cells], np.argsort(rank_of[cells], kind="stable")
    del cells
    # the narrowest index type keeps the arrays small beside the boxed terms;
    # divmod casts into them chunk by chunk, so no N^2 intp quotient or
    # remainder is left on the heap
    index = np.min_scalar_type(count - 1)
    rows, cols = np.empty(len(order), dtype=index), np.empty(len(order), dtype=index)
    np.divmod(order, count, out=(rows, cols), casting="unsafe")
    return _TermArrays(
        pair_list, n_exp, k_exp, f_vals, table.coefficients, value_table,
        rows, cols, types.ravel()[order], value_ids[order],
    )


def _gathered(columns):
    """The rows of (cells, index) columns, TERM_CHUNK at a time, as a list per column; row i is cells[index[i]],
    one Python object per cell, held once in an object array and shared by its rows."""
    columns = [(np.fromiter(cells, dtype=object, count=len(cells)), index) for cells, index in columns]
    for start in range(0, len(columns[0][1]), TERM_CHUNK):
        yield [cells[index[start:start + TERM_CHUNK]].tolist() for cells, index in columns]


def term_report(
    p: int,
    r: int,
    k: int,
    n: int,
    t: float,
    state: np.ndarray,
    cap: int = EXACT_PAIRING_CAP,
    budget: int = CONTRACTION_BUDGET,
) -> list[MomentTerm]:
    """All (alpha, beta) summands of the exact trace moment, largest first.

    Ties in magnitude keep row-major (alpha, beta) order.  Raises BudgetError
    above pr = PAIR_LISTING_HALF_SIZE_CAP, before any table or f is built.
    """
    arrays = _term_arrays(p, r, k, n, t, state, cap, budget)
    columns = (
        (arrays.pairings, arrays.rows), (arrays.pairings, arrays.cols), (arrays.n_exp.tolist(), arrays.rows),
        (arrays.k_exp.tolist(), arrays.rows), (arrays.f_beta.tolist(), arrays.cols),
        (arrays.wg.tolist(), arrays.types), (arrays.value_table.tolist(), arrays.value_ids),
    )
    # The list is allocated whole: grown by extend, its item array would be
    # copied as it grows, and the process keeps the freed copies.
    terms = [None] * len(arrays.value_ids)
    # The terms are acyclic, so the cyclic collector has nothing to free in
    # them; left on, it would rescan the growing list many times over.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for start, fields in zip(range(0, len(terms), TERM_CHUNK), _gathered(columns)):
            terms[start:start + TERM_CHUNK] = map(tuple.__new__, repeat(MomentTerm), zip(*fields))
    finally:
        if enabled:
            gc.enable()
    return terms


def asymptotic_trace_moment(
    p: int, r: int, k: int, t: float, g: dict[PartialPairing, float]
) -> float:
    """Leading-order p-th trace moment from the block weights g.

    The sum runs over cell blocks B and sub-blocks A, weighted by
    k^(cc(gamma, alpha(A)) + |A| - pr) * t^|B| * g_B * (-1)^(|B| - |A|).
    For p <= 2 only blocks pairing cells within one copy contribute.
    g maps partial pairings of the p*r cell grid to values in [0, 1];
    missing blocks count as zero.
    """
    _, gamma = delta_gamma(p, r)  # checks p and r
    k = checked_index(k, "k", 1)
    _check_t(t)
    for block, value in g.items():
        if block.n_points != p * r:
            raise ValidationError(
                f"g key on {block.n_points} cells, expected pr = {p * r}"
            )
        if not -G_WEIGHT_SLACK <= value <= 1 + G_WEIGHT_SLACK:
            raise ValidationError(f"g value {value} for {block.pairs} outside [0, 1]")
    total = 0.0
    for sub, block in dominant_pairs(p, r, inward_only=(p <= 2)):
        weight = g.get(block, 0.0)
        if weight == 0.0:
            continue
        alpha = pairing_from_partial(sub)
        cc = connected_components(gamma, alpha)
        total += (
            float(k) ** (cc + sub.n_pairs - p * r)
            * t**block.n_pairs
            * weight
            * (-1) ** (block.n_pairs - sub.n_pairs)
        )
    return total


def g_from_state(state: np.ndarray, r: int, k: int, n: int, t: float) -> dict[PartialPairing, float]:
    """Block weights g_B = f_beta(B) / (tkn)^|B| of a concrete input state on d^r, d = floor(tkn)."""
    r = checked_index(r, "r", 1)
    _checked_state(state, input_dim(k, n, t) ** r)
    out = {}
    for block in enumerate_partial_pairings(r):
        beta = pairing_from_partial(block)
        value = f_beta(beta, state, 1, CONTRACTION_BUDGET).real / (t * n * k) ** block.n_pairs
        out[block] = value
    return out
