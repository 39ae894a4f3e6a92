"""Asymptotic output-state theory: operator family, convex body, entropies.

In the large-n limit the mean output of the r-th channel power is a convex
combination of the states S_B = (tensor of isotropic states over the pairs of
B) x (maximally mixed singles), indexed by partial pairings B of the r copies.
The body K = conv{S_B} attracts every output sequence, and its entropy is
minimized at maximal B, i.e. at Bell-product inputs.

Every operator of the family is one pairings.wiring_sum of the pair-projector
wirings T_A: expanding the pair factors of R~_B, S~_B and G_B sums over the
sub-blocks A of B, and Q~_B sums over the blocks containing B.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    RngStream,
    _checked_rule,
    _checked_spectrum,
    _checked_state,
    _haar_columns,
    _rule_output,
    input_dim,
    make_channel,
    map_ordered,
    output_state,
)
from .errors import InvalidStateError, OrthochanError, ValidationError
from .errors import checked_index, checked_instance, checked_real, checked_size, shown
from .moments import _infer_local_dim, f_beta
from .pairings import PartialPairing, enumerate_partial_pairings, pairing_from_partial, wiring_sum
from .pairings import _check_partial_count, _ordered, _pair_sets

KKT_TOL = 1e-12  # relative slack of the projection's optimality certificate


def _sized(block: PartialPairing, dim: int) -> int:
    """block.n_points = r once the dim^(2r) pattern is within the budget: before a coefficient is formed from dim."""
    checked_size(dim, 2 * checked_instance(block, PartialPairing, "block").n_points, "wiring pattern needs dim^(2pr)")
    return block.n_points


def _pattern_sum(terms, dim: int) -> np.ndarray:
    """Sum of coeff * op_T(block, dim) over the (block, coeff) terms, whose blocks share one point count r >= 1."""
    blocks, coeffs = zip(*terms)
    checked_index(blocks[0].n_points, "r", 1)
    return wiring_sum([pairing_from_partial(block) for block in blocks], coeffs, dim)


def op_T(block: PartialPairing, k: int) -> np.ndarray:
    """Unnormalized pair projectors over block pairs, identity on singles.

    This is the 0/1 wiring pattern of the block's diagram pairing (bumps on
    both sides of each pair, a horizontal wire through each single).
    """
    return _pattern_sum([(checked_instance(block, PartialPairing, "block"), 1.0)], checked_index(k, "k", 1))


def op_R_tilde(block: PartialPairing, k: int, t: float) -> np.ndarray:
    """Signed expansion factor: t(omega/k - I/k^2) on pairs, I/k on singles.

    Expanded, t^|B| sum over A in B of (-1)^(|B|-|A|) k^(|A|-r) T_A.
    Traceless except at the empty block, where the trace is one.
    """
    k, t = checked_index(k, "k", 1), checked_real(t, "t", 0, 1)
    r, b = _sized(block, k), block.n_pairs
    terms = [(a, t**b * (-1) ** (b - a.n_pairs) / k ** (r - a.n_pairs)) for a in block.sub_blocks()]
    return _pattern_sum(terms, k)


def op_S_tilde(block: PartialPairing, k: int, t: float) -> np.ndarray:
    """Extremal output state: isotropic states on pairs, maximally mixed singles.

    Expanded, sum over A in B of t^|A| (1-t)^(|B|-|A|) k^(|A|-r) T_A.
    """
    k, t = checked_index(k, "k", 2), checked_real(t, "t", 0, 1)
    r, b = _sized(block, k), block.n_pairs
    terms = [(a, t**a.n_pairs * (1.0 - t) ** (b - a.n_pairs) / k ** (r - a.n_pairs)) for a in block.sub_blocks()]
    return _pattern_sum(terms, k)


def _q_terms(block: PartialPairing, d: int) -> list[tuple[PartialPairing, float]]:
    """The (block, coeff) terms of op_Q_tilde: +-d^-|S| over the blocks S containing the given one."""
    r = _check_partial_count(block.n_points)  # before the singles are listed
    supers = _pair_sets(r, list(itertools.combinations(block.singles, 2)), block.pairs)
    return [(sup, (-1) ** (sup.n_pairs - block.n_pairs) * (1.0 / d**sup.n_pairs)) for sup in supers]


def op_Q_tilde(block: PartialPairing, d: int) -> np.ndarray:
    """Sum of (-1)^(|S|-|B|) d^-|S| T_S over the blocks S containing the given one B.

    These resolve the identity, and their spectra concentrate on {0, 1} as the
    local dimension grows.
    """
    d = checked_index(d, "d", 1)
    _sized(block, d)
    return _pattern_sum(_q_terms(block, d), d)


def mean_output_asymptotic(state: np.ndarray, r: int, k: int, t: float) -> np.ndarray:
    """Limit shape of the mean output: sum over blocks of <T~_B, rho> R~_B.

    Equals the alternating expansion over <Q~_A, rho> S~_A by Moebius
    inversion; the two agree to float precision for any input.
    """
    r, k, t = checked_index(r, "r", 1), checked_index(k, "k", 1), checked_real(t, "t", 0, 1)
    state = np.asarray(state)
    d = _infer_local_dim(state, r)
    _checked_state(state, d**r)
    checked_size(k, 2 * r, "asymptotic mean output needs k^(2r)")
    out = np.zeros((k**r, k**r), dtype=complex)
    for block in enumerate_partial_pairings(r):
        beta = pairing_from_partial(block)
        coeff = f_beta(beta, state, 1).real / d**block.n_pairs
        out += coeff * op_R_tilde(block, k, t)
    return out


def bell_input(block: PartialPairing, d: int) -> np.ndarray:
    """Input G_B0: normalized pair projectors over a maximal block, mixed singles."""
    d = checked_index(d, "d", 1)
    if not checked_instance(block, PartialPairing, "block").is_maximal():
        raise ValidationError(f"block with {block.n_pairs} pairs on {shown(block.n_points)} points is not maximal")
    _sized(block, d)
    return _pattern_sum([(block, (1.0 / d) ** (block.n_points - block.n_pairs))], d)


def bell_state_vector(block: PartialPairing, d: int) -> np.ndarray:
    """Pure version of bell_input for even point counts: unit vector on d^r."""
    d = checked_index(d, "d", 1)
    if not checked_instance(block, PartialPairing, "block").is_maximal() or block.singles:
        raise ValidationError("a pure pair-product input needs a perfect pairing of the copies")
    r = checked_index(block.n_points, "r", 1)
    checked_size(d, r, "pair-product input needs d^r")
    args = []
    for a, b in block.pairs:
        args.extend((np.eye(d) / math.sqrt(d), [a, b]))
    args.append(list(range(r)))
    return np.einsum(*args).reshape(d**r)


def basis_product_state(d: int, r: int) -> np.ndarray:
    """The product input e_0^(tensor r) as a unit vector on d^r."""
    d, r = checked_index(d, "d", 1), checked_index(r, "r", 1)
    psi = np.zeros(checked_size(d, r, "product input needs d^r"))
    psi[0] = 1.0
    return psi


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Spectral entropy -sum(lam log lam) in nats, clipping eigenvalues in [-NEGATIVE_EIGENVALUE_TOL, 0] to 0.

    Eigenvalues below the clip window mean the input is not a state and raise.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not rho.size:
        raise InvalidStateError(f"density matrix must be square and nonempty, got shape {rho.shape}")
    eigs, _ = _checked_spectrum(_checked_state(rho, rho.shape[0]))
    eigs = np.clip(eigs, 0.0, None)
    positive = eigs[eigs > 0]
    return float(0.0 - np.sum(positive * np.log(positive)))  # +0.0, not -0.0, at a unit eigenvalue


def isotropic_entropy(k: int, t: float) -> float:
    """Closed-form entropy of the isotropic state in nats.

    The spectrum is {t + (1-t)/k^2} once and {(1-t)/k^2} with multiplicity
    k^2 - 1: the pair projector carries eigenvalue k, so the t-part of the
    mixture contributes its full weight to the top eigenvalue.
    """
    k, t = checked_index(k, "k", 2), checked_real(t, "t", 0, 1)
    checked_real(k**2, "k^2", 4, math.inf)  # so that the divisions by k^2 below stay in the float range

    def h(x: float) -> float:
        return 0.0 if x <= 0 else -x * math.log(x)

    return h(t + (1.0 - t) / k**2) + (k**2 - 1) * h((1.0 - t) / k**2)


def entropy_extremal(block: PartialPairing, k: int, t: float) -> float:
    """Closed-form entropy of the extremal state S_B, in nats.

    |B| isotropic factors plus r - 2|B| maximally mixed singles.
    """
    k, t = checked_index(k, "k", 2), checked_real(t, "t", 0, 1)
    r = checked_instance(block, PartialPairing, "block").n_points
    return block.n_pairs * isotropic_entropy(k, t) + (r - 2 * block.n_pairs) * math.log(k)


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """The attractor body at (r, k, t): the extremal states S_B, one per partial pairing B of the r copies.

    blocks and vertices are built from (r, k, t), vertex i being
    op_S_tilde(blocks[i], k, t) in the canonical block order; the vertex
    stack is sized before it is built.
    """

    r: int
    k: int
    t: float
    blocks: tuple[PartialPairing, ...] = field(init=False)
    vertices: np.ndarray = field(init=False)  # (n_vertices, k^r, k^r), read-only

    def __post_init__(self):
        r, k, t = checked_index(self.r, "r", 1), checked_index(self.k, "k", 2), checked_real(self.t, "t", 0, 1)
        blocks = tuple(enumerate_partial_pairings(r))
        what = f"convex body needs {len(blocks)} vertices x k^(2r)"
        checked_size(len(blocks) * k ** (2 * r), 1, what)  # r <= 8: a cheap power
        vertices = np.stack([op_S_tilde(b, k, t) for b in blocks]).astype(complex)
        vertices.setflags(write=False)
        for name, value in (("r", r), ("k", k), ("t", t), ("blocks", blocks), ("vertices", vertices)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def _bordered_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Float rows of the vertices (Re<A, B> is their dot product) and [[G, 1], [1, 0]], G_ij = Re<S_i, S_j>."""
        flat = self.vertices.reshape(len(self.vertices), -1).view(float)
        return flat, np.block([[flat @ flat.T, np.ones((len(flat), 1))], [np.ones((1, len(flat))), 0.0]])


@dataclass(frozen=True, eq=False)
class BodyProjection:
    distance: float
    weights: np.ndarray
    converged: bool  # always True: a projection without a certificate raises
    iterations: int  # active-set steps, the final certificate check included


def project_to_body(x: np.ndarray, body: ConvexBody) -> BodyProjection:
    """Exact Frobenius projection onto the body by Wolfe's nearest-point method.

    In weights w, g = G w - b (G_ij = Re<S_i, S_j>, b_i = Re<S_i, X>) is half the
    gradient of the squared distance.  From the nearest vertex each step adds the
    lowest-scoring vertex and solves the support's bordered KKT system, or stops
    where that solution leaves the simplex and drops the vertex reached.  Returns
    once w >= 0, sum w = 1 and min g >= w.g - KKT_TOL (1 + |X|^2); raises after V^2 steps.
    """
    body = checked_instance(body, ConvexBody, "body")  # before the messages below read body.vertices
    try:
        x = np.asarray(x, dtype=complex)
    except (TypeError, ValueError):
        raise ValidationError(f"need a finite {body.vertices.shape[1:]} matrix, got {x!r}") from None
    target = x.reshape(-1).view(float)
    slack = KKT_TOL * (1.0 + target @ target)  # bounds |G| and |b| (every |S_i| <= 1); not finite unless x is
    if x.shape != body.vertices.shape[1:] or not math.isfinite(slack):
        raise ValidationError(f"need a finite {body.vertices.shape[1:]} matrix, got shape {x.shape}")
    flat, kkt = body._bordered_gram
    n_verts, gram, b = len(flat), kkt[:-1, :-1], flat @ target
    support = np.arange(n_verts) == (gram.diagonal() - 2.0 * b).argmin()  # start at the nearest vertex
    weights, settled = support.astype(float), True  # settled: weights minimise over the support's hull
    for step in range(1, n_verts**2 + 1):
        if settled:
            grad = gram @ weights - b
            if grad.min() >= weights @ grad - slack and weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= KKT_TOL:
                diff = weights @ flat - target
                return BodyProjection(math.sqrt(diff @ diff), weights, True, step)
            support[grad.argmin()] = True
        rows = np.concatenate((support.nonzero()[0], [n_verts]))
        affine = np.linalg.solve(kkt.take(rows, 0).take(rows, 1), np.concatenate((b, [1.0]))[rows])[:-1]
        settled = affine.min() > 0.0
        if not settled:  # step towards affine until a weight reaches zero, and drop that vertex
            current = weights[support]
            ratios = np.divide(current, current - affine, out=np.full_like(affine, np.inf), where=affine <= 0.0)
            affine = np.maximum(current + ratios.min() * (affine - current), 0.0)
            affine[ratios.argmin()] = 0.0
        weights[support] = affine
        support = weights > 0.0
    raise OrthochanError(f"no KKT certificate for the projection onto {n_verts} vertices in {n_verts**2} steps")


def maximal_block(r: int) -> PartialPairing:
    """Canonical maximal partial pairing: (0,1), (2,3), ..., last point single if r is odd."""
    r = checked_index(r, "r", 1)
    return PartialPairing(r, tuple((2 * j, 2 * j + 1) for j in range(r // 2)))


def experiment_input(rule: str, r: int, d: int) -> np.ndarray:
    """Input state for a convergence run: Bell-product or basis product."""
    r = checked_index(r, "r", 1)
    if _checked_rule(rule) == "product":
        return basis_product_state(d, r)
    block = maximal_block(r)
    return bell_input(block, d) if r % 2 else bell_state_vector(block, d)


@dataclass(frozen=True)
class ExperimentResult:
    """Per-draw distances/entropies plus per-n summary statistics."""

    rule: str
    r: int
    k: int
    t: float
    n_grid: tuple[int, ...]
    samples: int
    seed: int
    rows: tuple[tuple[int, int, float, float], ...]  # (n, sample, dist, entropy)
    summary: tuple[dict, ...]


def _column_summary(prefix: str, column: np.ndarray) -> dict[str, float]:
    """Mean, median and 0.10 and 0.90 quantiles of one draw-table column, keyed prefix_mean and so on."""
    return {
        f"{prefix}_mean": float(column.mean()),
        f"{prefix}_median": float(np.median(column)),
        f"{prefix}_q10": float(np.quantile(column, 0.10)),
        f"{prefix}_q90": float(np.quantile(column, 0.90)),
    }


def convergence_experiment(
    input_rule: str, r: int, k: int, t: float, n_grid, samples: int, seed: int
) -> ExperimentResult:
    """Distances to the body and output entropies over independent channel draws.

    Each draw's output is the Kronecker product of the rule's pair and
    single-point outputs: no d^r input, no eigh and no lift through (kn)^r.
    A Bell draw is output_state(make_channel(...), r, "bell").  A product
    draw reads only V e_0, so it orthogonalises only the first Gaussian
    column, whose Q column is bit for bit that of make_channel, and hands it
    to the same block routine as output_state(spec, r, "product").  Every
    grid point's Haar draw and d are checked before the first draw.  Draw s
    of grid point index g uses random stream (seed, g*samples + s), so the
    result table is reproducible and independent of the worker and BLAS
    thread counts.
    """
    _checked_rule(input_rule)  # before the body and the grid are sized by it
    if not _ordered(n_grid):  # a set would order the rows by its iteration
        raise ValidationError(f"n_grid must be a sequence of integers, got {n_grid!r}")
    n_grid = tuple(checked_index(n, "n", 1) for n in n_grid)
    samples, seed = checked_index(samples, "samples", 1), checked_index(seed, "seed")
    if not n_grid:
        raise ValidationError("need a nonempty n grid")
    body = ConvexBody(r, k, t)  # sizes the k^(2r) outputs too
    r, k, t = body.r, body.k, body.t  # as the body checked them
    for n in n_grid:  # size every draw and refuse a degenerate d before any is built
        checked_size(k * n, 2, "a Haar draw needs dim^2")
        input_dim(k, n, t)

    def draw(job):
        gi, s = job
        n, rng = n_grid[gi], RngStream(seed, gi * samples + s)
        if input_rule == "product":
            v = _haar_columns([rng.generator()], 1, k * n, 1)[0]
            z = _rule_output(k, n, v, r, input_rule)
        else:
            z = output_state(make_channel(k, n, t, rng), r, input_rule)
        proj = project_to_body(z, body)
        return proj.distance, von_neumann_entropy(z), proj.converged, proj.iterations

    jobs = [(gi, s) for gi in range(len(n_grid)) for s in range(samples)]
    table = np.array(list(map_ordered(draw, jobs))).reshape(len(n_grid), samples, 4)
    rows, summary = [], []
    for n, (dists, ents, converged, iterations) in zip(n_grid, table.transpose(0, 2, 1)):
        rows.extend((n, s, dist, ent) for s, (dist, ent) in enumerate(zip(dists.tolist(), ents.tolist())))
        summary.append(
            {
                "n": n,
                **_column_summary("dist", dists),
                **_column_summary("entropy", ents),
                "unconverged": int(samples - converged.sum()),
                "max_iterations": int(iterations.max()),
            }
        )
    return ExperimentResult(
        rule=input_rule,
        r=r,
        k=k,
        t=t,
        n_grid=n_grid,
        samples=samples,
        seed=seed,
        rows=tuple(rows),
        summary=tuple(summary),
    )
