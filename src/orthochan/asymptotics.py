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
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    OUTPUT_TENSOR_BUDGET,
    RngStream,
    _check_t,
    _checked_spectrum,
    _checked_state,
    input_dim,
    make_channel,
    map_ordered,
    output_state,
)
from .errors import BudgetError, InvalidStateError, OrthochanError, ValidationError, checked_index
from .moments import _infer_local_dim, f_beta
from .pairings import PartialPairing, enumerate_partial_pairings, pairing_from_partial, wiring_sum

KKT_TOL = 1e-12  # relative slack of the projection's optimality certificate


def maximally_entangled(dim: int) -> np.ndarray:
    """The rank-one pair projector Omega Omega^* on dim^2, of trace dim: op_T of one pair."""
    return op_T(PartialPairing(2, ((0, 1),)), checked_index(dim, "dim", 1))


def isotropic_eta(k: int, t: float) -> np.ndarray:
    """Isotropic state t/k * omega + (1-t)/k^2 * I on k^2: op_S_tilde of one pair."""
    return op_S_tilde(PartialPairing(2, ((0, 1),)), k, t)


def _pattern_sum(terms, r: int, dim: int) -> np.ndarray:
    """Sum of coeff * op_T(block, dim) over the (block, coeff) terms, blocks on r points."""
    blocks, coeffs = zip(*terms)
    return wiring_sum([pairing_from_partial(block, 1, r) for block in blocks], coeffs, 1, r, dim)


def op_T(block: PartialPairing, k: int) -> np.ndarray:
    """Unnormalized pair projectors over block pairs, identity on singles.

    This is the 0/1 wiring pattern of the block's diagram pairing (bumps on
    both sides of each pair, a horizontal wire through each single).
    """
    return _pattern_sum([(block, 1.0)], block.n_points, checked_index(k, "k", 1))


def op_T_tilde(block: PartialPairing, d: int) -> np.ndarray:
    """d^-|B| times op_T on local dimension d."""
    d = checked_index(d, "d", 1)
    return op_T(block, d) / d**block.n_pairs


def op_R_tilde(block: PartialPairing, k: int, t: float) -> np.ndarray:
    """Signed expansion factor: t(omega/k - I/k^2) on pairs, I/k on singles.

    Expanded, t^|B| sum over A in B of (-1)^(|B|-|A|) k^(|A|-r) T_A.
    Traceless except at the empty block, where the trace is one.
    """
    k = checked_index(k, "k", 1)
    _check_t(t)
    r, b = block.n_points, block.n_pairs
    terms = [(a, t**b * (-1) ** (b - a.n_pairs) / k ** (r - a.n_pairs)) for a in block.sub_blocks()]
    return _pattern_sum(terms, r, k)


def op_S_tilde(block: PartialPairing, k: int, t: float) -> np.ndarray:
    """Extremal output state: isotropic states on pairs, maximally mixed singles.

    Expanded, sum over A in B of t^|A| (1-t)^(|B|-|A|) k^(|A|-r) T_A.
    """
    k = checked_index(k, "k", 2)
    _check_t(t)
    r, b = block.n_points, block.n_pairs
    terms = [(a, t**a.n_pairs * (1.0 - t) ** (b - a.n_pairs) / k ** (r - a.n_pairs)) for a in block.sub_blocks()]
    return _pattern_sum(terms, r, k)


def op_Q_tilde(block: PartialPairing, d: int) -> np.ndarray:
    """Alternating sum of op_T_tilde over blocks containing the given one.

    These resolve the identity, and their spectra concentrate on {0, 1} as the
    local dimension grows.
    """
    d = checked_index(d, "d", 1)
    supers = [s for s in enumerate_partial_pairings(block.n_points) if s.contains(block)]
    terms = [(sup, (-1) ** (sup.n_pairs - block.n_pairs) * (1.0 / d**sup.n_pairs)) for sup in supers]
    return _pattern_sum(terms, block.n_points, d)


def mean_output_asymptotic(state: np.ndarray, r: int, k: int, t: float) -> np.ndarray:
    """Limit shape of the mean output: sum over blocks of <T~_B, rho> R~_B.

    Equals the alternating expansion over <Q~_A, rho> S~_A by Moebius
    inversion; the two agree to float precision for any input.
    """
    r, k = checked_index(r, "r", 1), checked_index(k, "k", 1)
    _check_t(t)
    state = np.asarray(state)
    d = _infer_local_dim(state.shape[0], r)
    _checked_state(state, d**r)
    out = np.zeros((k**r, k**r), dtype=complex)
    for block in enumerate_partial_pairings(r):
        beta = pairing_from_partial(block, 1, r)
        coeff = f_beta(beta, state, 1).real / d**block.n_pairs
        out += coeff * op_R_tilde(block, k, t)
    return out


def bell_input(block: PartialPairing, d: int) -> np.ndarray:
    """Input G_B0: normalized pair projectors over a maximal block, mixed singles."""
    d = checked_index(d, "d", 1)
    if not block.is_maximal():
        raise ValidationError(
            f"block with {block.n_pairs} pairs on {block.n_points} points is not maximal"
        )
    return _pattern_sum([(block, (1.0 / d) ** (block.n_points - block.n_pairs))], block.n_points, d)


def bell_state_vector(block: PartialPairing, d: int) -> np.ndarray:
    """Pure version of bell_input for even point counts: unit vector on d^r."""
    d = checked_index(d, "d", 1)
    if not block.is_maximal() or block.singles:
        raise ValidationError("a pure pair-product input needs a perfect pairing of the copies")
    r = block.n_points
    args = []
    for a, b in block.pairs:
        args.extend((np.eye(d) / math.sqrt(d), [a, b]))
    args.append(list(range(r)))
    return np.einsum(*args).reshape(d**r)


def basis_product_state(d: int, r: int) -> np.ndarray:
    """The product input e_0^(tensor r) as a unit vector on d^r."""
    psi = np.zeros(checked_index(d, "d", 1) ** checked_index(r, "r", 1))
    psi[0] = 1.0
    return psi


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Spectral entropy -sum(lam log lam) in nats, clipping eigenvalues in [-1e-10, 0] to 0.

    Eigenvalues below the clip window mean the input is not a state and raise.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not rho.size:
        raise InvalidStateError(f"density matrix must be square and nonempty, got shape {rho.shape}")
    eigs, _ = _checked_spectrum(_checked_state(rho, rho.shape[0]))
    eigs = np.clip(eigs, 0.0, None)
    positive = eigs[eigs > 0]
    return float(-np.sum(positive * np.log(positive)))


def isotropic_entropy(k: int, t: float) -> float:
    """Closed-form entropy of the isotropic state in nats.

    The spectrum is {t + (1-t)/k^2} once and {(1-t)/k^2} with multiplicity
    k^2 - 1: the pair projector carries eigenvalue k, so the t-part of the
    mixture contributes its full weight to the top eigenvalue.
    """
    k = checked_index(k, "k", 2)
    _check_t(t)

    def h(x: float) -> float:
        return 0.0 if x <= 0 else -x * math.log(x)

    return h(t + (1.0 - t) / k**2) + (k**2 - 1) * h((1.0 - t) / k**2)


def entropy_extremal(block: PartialPairing, k: int, t: float) -> float:
    """Closed-form entropy of the extremal state S_B, in nats.

    |B| isotropic factors plus r - 2|B| maximally mixed singles.
    """
    k = checked_index(k, "k", 2)
    _check_t(t)
    r = block.n_points
    return block.n_pairs * isotropic_entropy(k, t) + (r - 2 * block.n_pairs) * math.log(k)


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """The attractor body: extremal states S_B indexed by partial pairings."""

    r: int
    k: int
    t: float
    blocks: tuple[PartialPairing, ...]
    vertices: np.ndarray  # (n_vertices, k^r, k^r)

    @functools.cached_property
    def _bordered_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Float rows of the vertices (Re<A, B> is their dot product) and [[G, 1], [1, 0]], G_ij = Re<S_i, S_j>."""
        flat = self.vertices.reshape(len(self.vertices), -1).view(float)
        return flat, np.block([[flat @ flat.T, np.ones((len(flat), 1))], [np.ones((1, len(flat))), 0.0]])


def convex_body(r: int, k: int, t: float) -> ConvexBody:
    """Build the body for given (r, k, t); vertex order is the canonical block order."""
    r = checked_index(r, "r", 1)
    blocks = tuple(enumerate_partial_pairings(r))
    if len(blocks) * k ** (2 * r) > OUTPUT_TENSOR_BUDGET:
        raise BudgetError(
            f"convex body needs {len(blocks)} vertices of k^(2r) = {k ** (2 * r)} entries, "
            f"{len(blocks) * k ** (2 * r)} in all, above budget {OUTPUT_TENSOR_BUDGET}"
        )
    vertices = np.stack([op_S_tilde(b, k, t) for b in blocks]).astype(complex)
    vertices.setflags(write=False)
    return ConvexBody(r=r, k=k, t=t, blocks=blocks, vertices=vertices)


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
    x = np.asarray(x, dtype=complex)
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
    if rule == "bell":
        block = maximal_block(r)
        if r % 2 == 0:
            return bell_state_vector(block, d)
        return bell_input(block, d)
    if rule == "product":
        return basis_product_state(d, r)
    raise ValidationError(f"unknown input rule {rule!r}; use bell or product")


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


def convergence_experiment(
    input_rule: str, r: int, k: int, t: float, n_grid, samples: int, seed: int
) -> ExperimentResult:
    """Distances to the body and output entropies over independent channel draws.

    Draw s of grid point index g uses random stream (seed, g*samples + s), so
    the result table is reproducible and thread-count independent.
    """
    n_grid = tuple(checked_index(n, "n", 1) for n in n_grid)
    samples = checked_index(samples, "samples", 1)
    if not n_grid:
        raise ValidationError("need a nonempty n grid")
    body = convex_body(r, k, t)
    states = [experiment_input(input_rule, r, input_dim(k, n, t)) for n in n_grid]

    def draw(job):
        gi, s = job
        spec = make_channel(k, n_grid[gi], t, RngStream(seed, gi * samples + s))
        z = output_state(spec, r, states[gi])
        proj = project_to_body(z, body)
        return proj.distance, von_neumann_entropy(z), proj.converged, proj.iterations

    jobs = [(gi, s) for gi in range(len(n_grid)) for s in range(samples)]
    table = np.array(list(map_ordered(draw, jobs))).reshape(len(n_grid), samples, 4)
    dists, ents, converged, iterations = np.moveaxis(table, -1, 0)
    rows = tuple(
        (n, s, float(dists[gi, s]), float(ents[gi, s]))
        for gi, n in enumerate(n_grid)
        for s in range(samples)
    )
    summary = []
    for gi, n in enumerate(n_grid):
        drow, erow = dists[gi], ents[gi]
        summary.append(
            {
                "n": n,
                "dist_mean": float(drow.mean()),
                "dist_median": float(np.median(drow)),
                "dist_q10": float(np.quantile(drow, 0.10)),
                "dist_q90": float(np.quantile(drow, 0.90)),
                "entropy_mean": float(erow.mean()),
                "entropy_median": float(np.median(erow)),
                "entropy_q10": float(np.quantile(erow, 0.10)),
                "entropy_q90": float(np.quantile(erow, 0.90)),
                "unconverged": int(samples - converged[gi].sum()),
                "max_iterations": int(iterations[gi].max()),
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
        rows=rows,
        summary=tuple(summary),
    )
