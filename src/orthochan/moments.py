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

from functools import partial
from typing import NamedTuple

import numpy as np

from .channels import _checked_state, input_dim
from .errors import BudgetError, EnumerationLimitError, ValidationError
from .pairings import (
    PAIRING_HALF_SIZE_CAP,
    Pairing,
    PartialPairing,
    connected_components,
    copy_orbits,
    coset_types,
    delta_gamma,
    dominant_pairs,
    enumerate_pairings,  # noqa: F401  looked up here by perfbench/spans.py
    enumerate_partial_pairings,
    pairing_from_partial,
    type_lengths,
)
from .weingarten import wg_exact

EXACT_PAIRING_CAP = 8        # default max 2pr for the double pairing sum
EXACT_PAIRING_HARD_CAP = 2 * PAIRING_HALF_SIZE_CAP  # absolute max 2pr (12); see the CLI help for its cost
CONTRACTION_BUDGET = 2**24   # max d^(pr) free-index space in f_beta
TERM_CHUNK = 2**15           # report terms built per batch of index arrays


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


def _state_operands(state: np.ndarray, p: int, r: int, d: int):
    """Einsum operands and leg labellers for p copies of the input state.

    Returns (operands, labels_fn) where labels_fn(copy, x, side) gives the
    einsum axis label of that diagram endpoint's state leg.
    """
    state = np.asarray(state)
    if state.ndim == 1:
        psi = state.reshape((d,) * r)
        operands = []
        for _ in range(p):
            operands.append(psi)
            operands.append(psi.conj())

        def axis_of(i, x, side):
            # operand 2i carries the ket legs of copy i, operand 2i+1 the bra legs
            return (2 * i + side, x)

        return operands, axis_of
    rho = state.reshape((d,) * (2 * r))
    operands = [rho] * p

    def axis_of(i, x, side):
        return (i, x if side == 0 else r + x)

    return operands, axis_of


def f_beta(beta: Pairing, state: np.ndarray, p: int, budget: int = CONTRACTION_BUDGET) -> complex:
    """Contraction of p input-state copies against the delta pattern of beta.

    Never materializes the pattern matrix: each pair of beta identifies two
    state legs, leaving one free index per pair, and the d^(pr)-point sum is
    delegated to einsum.  The modulus is bounded by d^bumps(beta).  Unchecked:
    callers check the state once (channels._checked_state), this runs per orbit.
    """
    if beta.size % (2 * p) != 0:
        raise ValidationError(f"pairing size {beta.size} is not a multiple of 2p = {2 * p}")
    r = beta.size // (2 * p)
    state = np.asarray(state)
    total = state.shape[0]
    d = _infer_local_dim(total, r)
    if d ** (p * r) > budget:
        raise BudgetError(f"f_beta contraction needs d^(pr) = {d ** (p * r)} terms, above budget {budget}")
    operands, axis_of = _state_operands(state, p, r, d)
    labels = [[-1] * (op.ndim) for op in operands]
    for var, (s, u) in enumerate(beta.pairs):
        for endpoint in (s, u):
            cell, side = divmod(endpoint, 2)
            i, x = divmod(cell, r)
            op_idx, axis = axis_of(i, x, side)
            labels[op_idx][axis] = var
    args = []
    for op, lab in zip(operands, labels):
        args.extend((op, lab))
    args.append([])
    return complex(np.einsum(*args))


def wiring_matrix(pairing: Pairing, p: int, r: int, dim: int) -> np.ndarray:
    """Dense delta-pattern matrix of a diagram pairing on (C^dim)^(pr).

    Rows are indexed by the R-side legs in (copy, channel) order, columns by
    the L-side legs; entry 1 where every pair's two leg indices agree.  This
    is the dense counterpart of f_beta, kept for oracle use and for the
    k-space wiring of mean-output sums; its operator norm is dim^bumps.
    """
    if pairing.size != 2 * p * r:
        raise ValidationError(f"pairing acts on {pairing.size} points, expected 2pr = {2 * p * r}")
    eye = np.eye(dim)
    args = []
    leg_var = {}
    for var, (s, u) in enumerate(pairing.pairs):
        args.extend((eye, [2 * var, 2 * var + 1]))
        leg_var[s] = 2 * var
        leg_var[u] = 2 * var + 1
    q = p * r
    rows = [leg_var[2 * c + 1] for c in range(q)]  # R legs, cell order
    cols = [leg_var[2 * c] for c in range(q)]      # L legs, cell order
    args.append(rows + cols)
    return np.einsum(*args).reshape(dim**q, dim**q)


def _engine_arrays(p: int, r: int, k: int, n: int, t: float, state, cap: int, budget: int):
    m = p * r
    effective_cap = min(cap, EXACT_PAIRING_HARD_CAP)
    if 2 * m > effective_cap:
        raise EnumerationLimitError(
            f"exact engine needs 2pr = {2 * m} diagram endpoints, above cap {effective_cap}"
        )
    _checked_state(state, input_dim(k, n, t) ** r)  # the sums contract the state as given
    table = wg_exact(m, k * n)
    pair_list = table.pairings
    delta, gamma = delta_gamma(p, r)
    counts, types = type_lengths(m), coset_types(m)
    n_exp = counts[types[table.index(delta)]]
    k_exp = counts[types[table.index(gamma)]]
    f_vals = _f_values(pair_list, state, p, r, budget)
    return pair_list, n_exp, k_exp, f_vals, table


def _f_values(pair_list, state: np.ndarray, p: int, r: int, budget: int) -> np.ndarray:
    """f_beta of every pairing, contracted once per orbit of the copy permutations."""
    orbit, reps = copy_orbits(p, r)
    return np.array([f_beta(pair_list[i], state, p, budget) for i in reps])[orbit]


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
    _, n_exp, k_exp, f_vals, table = _engine_arrays(p, r, k, n, t, state, cap, budget)
    weights = float(n) ** n_exp * float(k) ** k_exp
    return float((weights @ table.values @ f_vals).real)


def exact_mean_output(r: int, k: int, n: int, t: float, state: np.ndarray) -> np.ndarray:
    """Exact E Z at finite n: the first-moment sum with open output legs.

    The scalar k-loop factor of the trace sum is replaced by the k-space
    wiring matrix of each alpha, yielding a Hermitian trace-one k^r matrix.
    """
    pair_list, n_exp, _, f_vals, table = _engine_arrays(
        1, r, k, n, t, state, EXACT_PAIRING_CAP, CONTRACTION_BUDGET
    )
    coeff = table.values @ f_vals
    out = np.zeros((k**r, k**r), dtype=complex)
    for i, alpha in enumerate(pair_list):
        # rows of the mean output are L legs, hence the transpose
        out += (float(n) ** n_exp[i] * coeff[i]) * wiring_matrix(alpha, 1, r, k).T
    return out


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

    Ties in magnitude keep row-major (alpha, beta) order.
    """
    pair_list, n_exp, k_exp, f_vals, table = _engine_arrays(p, r, k, n, t, state, cap, budget)
    scale = float(n) ** n_exp * float(k) ** k_exp
    values = ((scale[:, None] * f_vals[None, :]) * table.values).ravel()
    order = np.argsort(-np.abs(values), kind="stable")
    size = len(pair_list)
    # Terms share the Python objects of their row's exponents, their column's
    # f and their coset type's Wg; only the values are new per term.
    n_list, k_list, f_list = n_exp.tolist(), k_exp.tolist(), f_vals.tolist()
    types = coset_types(p * r)
    wg_by_type = np.empty(len(type_lengths(p * r)))
    wg_by_type[types[0]] = table.values[0]
    wg_list = wg_by_type.tolist()
    types = types.ravel()
    make = partial(tuple.__new__, MomentTerm)
    terms = []
    for start in range(0, len(order), TERM_CHUNK):
        chunk = order[start:start + TERM_CHUNK]
        rows, cols = np.divmod(chunk, size)
        rows, cols = rows.tolist(), cols.tolist()
        terms.extend(map(make, zip(
            map(pair_list.__getitem__, rows),
            map(pair_list.__getitem__, cols),
            map(n_list.__getitem__, rows),
            map(k_list.__getitem__, rows),
            map(f_list.__getitem__, cols),
            map(wg_list.__getitem__, types[chunk].tolist()),
            values[chunk].tolist(),
        )))
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
    for block, value in g.items():
        if block.n_points != p * r:
            raise ValidationError(
                f"g key on {block.n_points} cells, expected pr = {p * r}"
            )
        if not -1e-9 <= value <= 1 + 1e-9:
            raise ValidationError(f"g value {value} for {block.pairs} outside [0, 1]")
    _, gamma = delta_gamma(p, r)
    total = 0.0
    for sub, block in dominant_pairs(p, r, inward_only=(p <= 2)):
        weight = g.get(block, 0.0)
        if weight == 0.0:
            continue
        alpha = pairing_from_partial(sub, p, r)
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
    _checked_state(state, input_dim(k, n, t) ** r)
    out = {}
    for block in enumerate_partial_pairings(r):
        beta = pairing_from_partial(block, 1, r)
        value = f_beta(beta, state, 1, CONTRACTION_BUDGET).real / (t * n * k) ** block.n_pairs
        out[block] = value
    return out
