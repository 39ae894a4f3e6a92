"""Haar orthogonal sampling, random channel realizations, and Monte Carlo estimators.

A channel realization truncates a Haar orthogonal matrix on R^(kn) to its
first d = floor(t*k*n) columns and partial-traces the ancilla factor:
Phi(X) = ptr_n(V X V^T).  Monte Carlo estimators draw one channel per sample
from a counter-based per-sample random stream, so every estimate is a pure
function of (seed, sample index) regardless of threading or batching.
"""
from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InvalidStateError, ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NEGATIVE_EIGENVALUE_TOL = 1e-10
OUTPUT_TENSOR_BUDGET = 2**24  # max entries of the (kn)^r lifted state tensor
THREADS_ENV_VAR = "ORTHOCHAN_THREADS"


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (master seed, stream index).

    Streams are backed by a counter-based generator, so the bits drawn from
    stream i are a pure function of (seed, i) and independent of scheduling.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ChannelSpec:
    """One realization of the random channel: dimensions plus its isometry."""

    k: int
    n: int
    t: float
    d: int
    isometry: np.ndarray

    def __post_init__(self):
        if self.isometry.shape != (self.k * self.n, self.d):
            raise ValidationError(
                f"isometry has shape {self.isometry.shape}, expected ({self.k * self.n}, {self.d})"
            )


def worker_count(threads: int | None = None) -> int:
    """Explicit thread count, else the ORTHOCHAN_THREADS env var, else 1."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if threads < 1:
        raise ValidationError(f"thread count must be >= 1, got {threads}")
    return threads


def validate_density_matrix(rho: np.ndarray, tol: float = NEGATIVE_EIGENVALUE_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace, and near-positivity; return as complex array."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"density matrix must be square, got shape {rho.shape}")
    rho = rho.astype(complex)
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise InvalidStateError("matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > max(TRACE_TOL, 1e-12 * rho.shape[0]):
        raise InvalidStateError(f"trace is {np.trace(rho).real}, expected 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < -tol:
        raise InvalidStateError(f"smallest eigenvalue {eigs[0]} below -{tol}")
    return rho


def validate_state_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi).astype(complex).ravel()
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise InvalidStateError(f"state vector has norm {norm}, expected 1")
    return psi


def input_dim(k: int, n: int, t: float) -> int:
    """Channel input dimension d = floor(t*k*n); raise if it is below 1."""
    d = math.floor(t * k * n)
    if d < 1:
        raise ValidationError(
            f"floor(t*k*n) = {d} is degenerate at t={t}, k={k}, n={n}; need t*k*n >= 1"
        )
    return d


def _haar_columns(
    gens: Iterable[np.random.Generator], count: int, dim: int, cols: int
) -> np.ndarray:
    """First cols columns of one Haar orthogonal per generator, shape (count, dim, cols).

    Each generator draws a full dim x dim Gaussian matrix, so the bits taken
    from a stream do not depend on cols.  Column j of Q depends only on the
    first j+1 columns of G, so QR of the first cols columns gives the same
    columns as a full QR, at a fraction of the cost.  Multiplying the columns
    of Q by the signs of R's diagonal is required; plain QR output is not Haar
    distributed.
    """
    g = np.empty((count, dim, dim))
    for b, gen in enumerate(gens):
        g[b] = gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g[:, :, :cols])
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1)).copy()
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def _stream_generators(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """Generators of streams lo..hi-1, made one at a time; sample i uses stream (seed, i)."""
    return (RngStream(seed, i).generator() for i in range(lo, hi))


def sample_haar_orthogonal(dim: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian matrix plus sign fix."""
    if dim < 1:
        raise ValidationError(f"dimension must be >= 1, got {dim}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return _haar_columns([gen], 1, dim, dim)[0]


def make_channel(k: int, n: int, t: float, rng: RngStream | np.random.Generator) -> ChannelSpec:
    """Draw one channel realization with input dimension d = floor(t*k*n).

    The isometry is the first d columns of sample_haar_orthogonal(k*n, rng).
    """
    if k < 1 or n < 1:
        raise ValidationError(f"k and n must be >= 1, got k={k}, n={n}")
    d = input_dim(k, n, t)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    v = _haar_columns([gen], 1, k * n, d)[0]
    v.setflags(write=False)
    return ChannelSpec(k=k, n=n, t=t, d=d, isometry=v)


def apply_channel(spec: ChannelSpec, x: np.ndarray) -> np.ndarray:
    """Phi(X) = partial trace over the ancilla factor of V X V^T."""
    x = np.asarray(x)
    if x.shape != (spec.d, spec.d):
        raise ValidationError(f"input has shape {x.shape}, expected ({spec.d}, {spec.d})")
    y = spec.isometry @ x @ spec.isometry.T
    return np.einsum("imjm->ij", y.reshape(spec.k, spec.n, spec.k, spec.n))


def _pure_output_batch(v: np.ndarray, psi: np.ndarray, k: int, n: int, r: int) -> np.ndarray:
    """Outputs of the r-th channel power on psi psi* for a batch of isometries.

    v has shape (B, kn, d).  V is applied to one leg of psi at a time, and
    the lifted leg is moved to the back, so V^(tensor r) is never formed.  The
    lifted state is then permuted to L of shape (B, k^r, n^r), output legs by
    ancilla legs, and Z = L L^H traces out the ancilla.  Real inputs stay in
    float64; the result is (B, k^r, k^r), real or complex as psi is.
    """
    batch, _, d = v.shape
    if not np.any(psi.imag):
        psi = psi.real
    lifted = psi.reshape(1, d, -1)  # a batch axis of 1 broadcasts against v
    for _ in range(r):
        lifted = (v @ lifted.reshape(lifted.shape[0], d, -1)).swapaxes(1, 2)
    # legs are now (k_1, n_1, ..., k_r, n_r); put the k legs first
    order = [0] + [1 + 2 * x for x in range(r)] + [2 + 2 * x for x in range(r)]
    ell = lifted.reshape((batch,) + (k, n) * r).transpose(order).reshape(batch, k**r, n**r)
    return ell @ ell.conj().swapaxes(1, 2)


def _state_components(state: np.ndarray, dim: int) -> list[tuple[float, np.ndarray]]:
    """Decompose a pure vector or density matrix into weighted pure components."""
    state = np.asarray(state)
    if state.ndim == 1:
        if state.shape[0] != dim:
            raise ValidationError(f"state vector has dim {state.shape[0]}, expected {dim}")
        return [(1.0, validate_state_vector(state))]
    if state.shape != (dim, dim):
        raise ValidationError(f"state has shape {state.shape}, expected ({dim}, {dim})")
    rho = validate_density_matrix(state)
    eigs, vecs = np.linalg.eigh(rho)
    return [(float(w), vecs[:, i].copy()) for i, w in enumerate(eigs) if w > 1e-12]


def _output_batch(v: np.ndarray, components, k: int, n: int, r: int) -> np.ndarray:
    """Weighted sum of the pure-component outputs, shape (B, k^r, k^r)."""
    z = None
    for weight, vec in components:
        zi = _pure_output_batch(v, vec, k, n, r)
        z = weight * zi if z is None else z + weight * zi
    return z


def _check_output_budget(k: int, n: int, r: int, budget: int):
    if (k * n) ** r > budget:
        raise BudgetError(
            f"lifted state tensor needs (kn)^r = {(k * n) ** r} entries, above budget {budget}"
        )


def apply_channel_power(
    spec: ChannelSpec, r: int, psi: np.ndarray, budget: int = OUTPUT_TENSOR_BUDGET
) -> np.ndarray:
    """Output of the r-th tensor power on a pure input, a k^r density matrix."""
    if r < 1:
        raise ValidationError(f"r must be >= 1, got {r}")
    _check_output_budget(spec.k, spec.n, r, budget)
    psi = np.asarray(psi).ravel()
    if psi.shape[0] != spec.d**r:
        raise ValidationError(f"input vector has dim {psi.shape[0]}, expected d^r = {spec.d ** r}")
    psi = validate_state_vector(psi)
    return _pure_output_batch(spec.isometry[None], psi, spec.k, spec.n, r)[0].astype(complex)


def output_state(
    spec: ChannelSpec, r: int, state: np.ndarray, budget: int = OUTPUT_TENSOR_BUDGET
) -> np.ndarray:
    """Output of the r-th tensor power on a pure vector or a density matrix."""
    if r < 1:
        raise ValidationError(f"r must be >= 1, got {r}")
    _check_output_budget(spec.k, spec.n, r, budget)
    components = _state_components(state, spec.d**r)
    return _output_batch(spec.isometry[None], components, spec.k, spec.n, r)[0].astype(complex)


def _chunk_ranges(total: int, chunk: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def _mc_chunk_size(k: int, n: int, r: int) -> int:
    # keep the per-chunk arrays around a few million entries; the Haar batch
    # itself costs (kn)^2 per sample regardless of r
    per_sample = max((k * n) ** r, (k * n) ** 2)
    return max(1, min(1024, 4_000_000 // per_sample))


def _worker_span(samples: int, chunk: int, workers: int) -> int:
    # align worker splits to batch boundaries so batch grouping (and thus
    # bitwise output) is independent of the worker count
    per_worker = -(-samples // workers)
    return chunk * max(1, -(-per_worker // chunk))


def _run_chunks(chunks, work, threads: int | None):
    workers = worker_count(threads)
    if workers == 1 or len(chunks) == 1:
        for c in chunks:
            work(c)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, chunks))


def _trace_power_batch(z: np.ndarray, p: int) -> np.ndarray:
    m = z
    for _ in range(p - 1):
        m = m @ z
    return np.einsum("bii->b", m)


def mc_trace_moment(
    p: int,
    r: int,
    k: int,
    n: int,
    t: float,
    state: np.ndarray,
    samples: int,
    seed: int,
    threads: int | None = None,
) -> tuple[float, float]:
    """Sample mean and standard error of Tr Z^p over independent channel draws.

    Sample i uses random stream (seed, i); accumulation is indexed, so the
    result is bitwise reproducible for a given seed under any thread count.
    """
    if samples < 2:
        raise ValidationError(f"samples must be >= 2, got {samples}")
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    d = input_dim(k, n, t)
    _check_output_budget(k, n, r, OUTPUT_TENSOR_BUDGET)
    components = _state_components(state, d**r)
    values = np.empty(samples)
    chunk = _mc_chunk_size(k, n, r)

    def work(rng_range):
        lo, hi = rng_range
        for blo, bhi in _chunk_ranges(hi - lo, chunk):
            v = _haar_columns(_stream_generators(seed, lo + blo, lo + bhi), bhi - blo, k * n, d)
            z = _output_batch(v, components, k, n, r)
            values[lo + blo: lo + bhi] = _trace_power_batch(z, p).real

    span = _worker_span(samples, chunk, worker_count(threads))
    _run_chunks(_chunk_ranges(samples, span), work, threads)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples))
    return mean, stderr


def mc_mean_output(
    r: int,
    k: int,
    n: int,
    t: float,
    state: np.ndarray,
    samples: int,
    seed: int,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise sample mean and standard error of the output state Z."""
    if samples < 2:
        raise ValidationError(f"samples must be >= 2, got {samples}")
    d = input_dim(k, n, t)
    _check_output_budget(k, n, r, OUTPUT_TENSOR_BUDGET)
    components = _state_components(state, d**r)
    dim = k**r
    outputs = np.empty((samples, dim, dim), dtype=complex)
    chunk = _mc_chunk_size(k, n, r)

    def work(rng_range):
        lo, hi = rng_range
        for blo, bhi in _chunk_ranges(hi - lo, chunk):
            v = _haar_columns(_stream_generators(seed, lo + blo, lo + bhi), bhi - blo, k * n, d)
            outputs[lo + blo: lo + bhi] = _output_batch(v, components, k, n, r)

    span = _worker_span(samples, chunk, worker_count(threads))
    _run_chunks(_chunk_ranges(samples, span), work, threads)
    mean = outputs.mean(axis=0)
    var = outputs.real.var(axis=0, ddof=1) + outputs.imag.var(axis=0, ddof=1)
    return mean, np.sqrt(var / samples)


def mc_conjugation_mean(
    a: np.ndarray, samples: int, seed: int, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise mean and standard error of U A U^T over Haar orthogonal draws."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"A must be square, got shape {a.shape}")
    if samples < 2:
        raise ValidationError(f"samples must be >= 2, got {samples}")
    dim = a.shape[0]
    outputs = np.empty((samples, dim, dim))
    chunk = max(1, 2_000_000 // (dim * dim))

    def work(rng_range):
        lo, hi = rng_range
        for blo, bhi in _chunk_ranges(hi - lo, chunk):
            u = _haar_columns(_stream_generators(seed, lo + blo, lo + bhi), bhi - blo, dim, dim)
            outputs[lo + blo: lo + bhi] = u @ a @ u.swapaxes(1, 2)

    span = _worker_span(samples, chunk, worker_count(threads))
    _run_chunks(_chunk_ranges(samples, span), work, threads)
    mean = outputs.mean(axis=0)
    stderr = outputs.std(axis=0, ddof=1) / math.sqrt(samples)
    return mean, stderr
