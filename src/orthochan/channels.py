"""Haar orthogonal sampling, random channel realizations, and Monte Carlo estimators.

A channel realization truncates a Haar orthogonal matrix on R^(kn) to its
first d = floor(t*k*n) columns and partial-traces the ancilla factor:
Phi(X) = ptr_n(V X V^T).  Monte Carlo estimators draw one channel per sample
from a counter-based per-sample random stream, so every estimate is a pure
function of (seed, sample index) regardless of threading or batching.
"""
from __future__ import annotations

import functools
import math
import operator
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import OUTPUT_TENSOR_BUDGET, InvalidStateError, ValidationError
from .errors import checked_index, checked_instance, checked_real, checked_size, shown

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-10
NEGATIVE_EIGENVALUE_TOL = 1e-10
EIGENWEIGHT_CUTOFF = 1e-12  # eigenvectors of a density matrix kept as input components
THREADS_ENV_VAR = "ORTHOCHAN_THREADS"
MAX_THREADS = 256  # largest ORTHOCHAN_THREADS accepted: a pool starts up to one thread per queued job
STREAM_LIMIT = 2**64  # streams _stream_keys addresses: indices of one or two 32-bit spawn words
_INPUT_RULES = ("bell", "product")  # inputs named by rule: Bell pairs on maximal_block(r), or e_0 on every copy

# numpy's SeedSequence hash constants, reproduced by _stream_keys
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (master seed, stream index).

    Streams are backed by a counter-based generator, so the bits drawn from
    stream i are a pure function of (seed, i) and independent of scheduling.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", checked_index(self.seed, "seed"))
        object.__setattr__(self, "stream", checked_index(self.stream, "stream"))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """One realization of the random channel: the dimensions k, n and its isometry V, of shape (kn, d).

    V is read as a real, finite, 2-D array of shape (kn, d) with 1 <= d <= kn,
    and kept as a read-only float64 array, the one given when it is one
    already.  Its orthonormality (V^T V = I) is not checked: that would cost
    O(kn d^2) per channel.
    """

    k: int
    n: int
    isometry: np.ndarray

    def __post_init__(self):
        k, n = checked_index(self.k, "k", 1), checked_index(self.n, "n", 1)
        try:
            v = np.asarray(self.isometry)
        except (TypeError, ValueError):  # a ragged nesting
            raise ValidationError(f"isometry must be a real 2-D array, got {self.isometry!r}") from None
        if v.dtype.kind not in "iuf":  # bool, complex, string and object arrays
            raise ValidationError(f"isometry must be a real 2-D array, got dtype {v.dtype}")
        if v.ndim != 2 or v.shape[0] != k * n or not 1 <= v.shape[1] <= k * n:
            raise ValidationError(f"isometry has shape {v.shape}, expected ({k * n}, d) with 1 <= d <= {k * n}")
        if not np.isfinite(v).all():
            raise ValidationError("isometry has non-finite entries")
        if v.dtype != np.float64 or v.flags.writeable:
            v = v.astype(np.float64)
            v.setflags(write=False)
        for name, value in (("k", k), ("n", n), ("isometry", v)):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        """The input dimension, V's column count."""
        return self.isometry.shape[1]


def worker_count() -> int:
    """The ORTHOCHAN_THREADS env var, else 1; a value outside [1, MAX_THREADS] raises ValidationError."""
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    return checked_index(threads, THREADS_ENV_VAR, 1, MAX_THREADS)


def _checked_state(state: np.ndarray, dim: int) -> np.ndarray:
    """Every engine's input-state rule; returns the state as a complex array.

    A shape other than (dim,) or (dim, dim) raises ValidationError; a vector
    that is not finite of unit norm, or a matrix that is not finite, Hermitian
    and of unit trace, InvalidStateError.  Positivity needs a spectrum, so
    only _checked_spectrum, which computes one, checks it.
    """
    state = np.asarray(state)
    if state.shape not in ((dim,), (dim, dim)):
        raise ValidationError(f"state has shape {state.shape}, expected ({dim},) or ({dim}, {dim})")
    if state.ndim == 1:
        state = state.astype(complex)
        if not np.all(np.isfinite(state)):
            raise InvalidStateError("state vector has non-finite entries")
        norm = np.linalg.norm(state)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidStateError(f"state vector has norm {norm}, expected 1")
        return state
    if not np.all(np.isfinite(state)):
        raise InvalidStateError("density matrix has non-finite entries")
    if np.max(np.abs(state - state.conj().T)) > HERMITICITY_TOL:
        raise InvalidStateError("matrix is not Hermitian within tolerance")
    if abs(np.trace(state).real - 1.0) > max(TRACE_TOL, 1e-12 * dim):
        raise InvalidStateError(f"trace is {np.trace(state).real}, expected 1")
    return state.astype(complex)


def _checked_spectrum(rho: np.ndarray, vectors: bool = False):
    """eigh(rho) if vectors, else (eigvalsh(rho), None); an eigenvalue below -NEGATIVE_EIGENVALUE_TOL raises."""
    eigs, vecs = np.linalg.eigh(rho) if vectors else (np.linalg.eigvalsh(rho), None)
    if eigs[0] < -NEGATIVE_EIGENVALUE_TOL:
        raise InvalidStateError(f"smallest eigenvalue {eigs[0]} below -{NEGATIVE_EIGENVALUE_TOL}")
    return eigs, vecs


def input_dim(k: int, n: int, t: float) -> int:
    """Channel input dimension d = floor(t*k*n) for integers k, n >= 1 with kn <= 10^11 and t in [0, 1]; d < 1 raises."""
    return _checked_dims(k, n, t)[2]


def _checked_dims(k: int, n: int, t: float) -> tuple[int, int, int]:
    """(k, n, input_dim(k, n, t)), k and n as the Python ints checked_index reads them as."""
    k, n = checked_index(k, "k", 1), checked_index(n, "n", 1)
    t = checked_real(t, "t", 0, 1)
    checked_index(k * n, "kn", 1, 10**11)  # so the round-off lift below stays under 0.1 and d <= kn
    d = math.floor(t * k * n * (1 + 1e-12))  # lifted over round-off: 0.3*3*30 = 26.999999999999996
    if d < 1:
        raise ValidationError(
            f"floor(t*k*n) = {d} is degenerate at t={t}, k={k}, n={n}; need t*k*n >= 1"
        )
    return k, n, d


def _haar_columns(
    gens: Iterable[np.random.Generator], count: int, dim: int, cols: int
) -> np.ndarray:
    """First cols columns of one Haar orthogonal per generator, shape (count, dim, cols).

    Each generator draws a full dim x dim Gaussian matrix, so the bits taken
    from a stream do not depend on cols.  Column j of Q depends only on the
    first j+1 columns of G, so QR of the first cols columns gives the columns
    of a full QR at a fraction of the cost: bit for bit at cols = 1 (tested
    against make_channel), to rounding otherwise.  Multiplying the columns
    of Q by the signs of R's diagonal is required; plain QR output is not Haar
    distributed.
    """
    checked_size(dim, 2, "a Haar draw needs dim^2")
    g = np.empty((count, dim, dim))
    for gen, out in zip(gens, g):
        gen.standard_normal(out=out)
    q, r = np.linalg.qr(g[:, :, :cols])
    q *= np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[:, None, :]  # a zero diagonal keeps +1
    return q


def _seed_hash(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of SeedSequence's multiplicative hash on uint32 words; returns the next constant."""
    nxt = const * mult & _MASK32
    words = (words ^ np.uint32(const)) * np.uint32(nxt)
    return words ^ (words >> np.uint32(16)), nxt


def _stream_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys of streams lo..hi-1 of seed, shape (hi - lo, 2), uint64.

    Row j is SeedSequence(seed, spawn_key=(lo + j,)).generate_state(2, uint64),
    the key RngStream(seed, lo + j) hands to Philox, computed for all rows at
    once.  SeedSequence mixes the seed's words into its four pool words first
    and the spawn words last, so the pool before the spawn words is
    SeedSequence(seed).pool for every stream, and the hash constant has by
    then advanced 16 + 4*max(0, words - 4) times.  Only the mixing of the
    spawn words (one below 2**32, two from there on) and the final
    generate_state depend on the index.
    """
    if not 0 <= lo <= hi <= STREAM_LIMIT:
        raise ValidationError(f"stream indices must lie in [0, 2**64), got [{shown(lo)}, {shown(hi)})")
    pool = np.random.SeedSequence(seed).pool
    seed_words = max(1, -(-operator.index(seed).bit_length() // 32))
    start = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, seed_words - 4), 2**32) % 2**32
    index = np.arange(lo, hi, dtype=np.uint64)
    keys = np.empty((hi - lo, 2), dtype=np.uint64)
    for two_words in (False, True):
        rows = (index >= 2**32) == two_words
        if not rows.any():
            continue
        spawn = [index[rows] & _MASK32, index[rows] >> np.uint64(32)][: 1 + two_words]
        spawn = [word.astype(np.uint32) for word in spawn]
        mixer = [np.full(int(rows.sum()), w, dtype=np.uint32) for w in pool]
        const = start
        for word in spawn:
            for j in range(4):
                hashed, const = _seed_hash(word, const, _MULT_A)
                mixed = np.uint32(_MIX_MULT_L) * mixer[j] - np.uint32(_MIX_MULT_R) * hashed
                mixer[j] = mixed ^ (mixed >> np.uint32(16))
        state, const = [], _INIT_B
        for word in mixer:
            hashed, const = _seed_hash(word, const, _MULT_B)
            state.append(hashed.astype(np.uint64))
        keys[rows, 0] = state[0] | (state[1] << np.uint64(32))
        keys[rows, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


def _stream_generators(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the start of streams lo..hi-1 of seed.

    Each state it takes is that of RngStream(seed, i).generator() bit for
    bit: key from _stream_keys, counter 0, buffer empty.  Draw from it before
    taking the next one.  The state dict holds plain ints, not the uint64
    arrays of bit_generator.state, which the setter reads back one numpy
    scalar at a time; it belongs to this call alone, so threads never share it.
    """
    gen = RngStream(seed, lo).generator()
    bits = gen.bit_generator
    state = bits.state  # a fresh stream: counter 0, buffer empty
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    for key in _stream_keys(seed, lo, hi).tolist():
        state["state"]["key"] = key
        bits.state = state
        yield gen


def sample_haar_orthogonal(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian matrix plus sign fix."""
    dim = checked_index(dim, "dimension", 1)
    return _haar_columns([checked_instance(rng, RngStream, "rng").generator()], 1, dim, dim)[0]


def make_channel(k: int, n: int, t: float, rng: RngStream) -> ChannelSpec:
    """Draw one channel realization with input dimension d = floor(t*k*n).

    The isometry is the first d columns of sample_haar_orthogonal(k*n, rng).
    """
    k, n, d = _checked_dims(k, n, t)
    v = _haar_columns([checked_instance(rng, RngStream, "rng").generator()], 1, k * n, d)[0]
    v.setflags(write=False)
    return ChannelSpec(k=k, n=n, isometry=v)


def apply_channel(spec: ChannelSpec, x: np.ndarray) -> np.ndarray:
    """Phi(X) = partial trace over the ancilla factor of V X V^T."""
    spec, x = checked_instance(spec, ChannelSpec, "spec"), np.asarray(x)
    if x.shape != (spec.d, spec.d):
        raise ValidationError(f"input has shape {x.shape}, expected ({spec.d}, {spec.d})")
    y = spec.isometry @ x @ spec.isometry.T
    return np.einsum("imjm->ij", y.reshape(spec.k, spec.n, spec.k, spec.n))


def _state_components(state: np.ndarray, dim: int) -> np.ndarray:
    """A dim x C factor F of the input with F F^H = state, real when it can be.

    A vector is its own single column; a density matrix gives its eigenvectors
    of weight above EIGENWEIGHT_CUTOFF, each times the square root of its weight.
    """
    state = _checked_state(state, dim)
    if state.ndim == 1:
        factor = state[:, None]
    else:
        eigs, vecs = _checked_spectrum(state, vectors=True)
        keep = eigs > EIGENWEIGHT_CUTOFF
        factor = vecs[:, keep] * np.sqrt(eigs[keep])
    return factor if np.any(factor.imag) else factor.real


def _lift(r: int, k: int, n: int, d: int, state: np.ndarray | str) -> tuple[int, int, Callable]:
    """Chunk size, the isometry columns read, and lift(v) -> outputs (B, k^r, k^r) of the r-th channel power.

    v holds B isometries' leading columns, (B, kn, columns).  A rule name,
    "bell" or "product", reads d columns or 1 and sizes only the k^(2r)
    output.  An array is factored once into F (d^r, C) with F F^H = state.
    V is applied to one leg of F at a time and the lifted leg moved to the
    back, so V^(tensor r) is never formed.  F's column axis rides along as
    one more ancilla leg: with L of shape (B, k^r, C n^r), output legs by
    ancilla legs, Z = L L^H traces out the ancilla and sums the components.
    F is lifted in blocks of columns, so (kn)^r x columns stays within
    OUTPUT_TENSOR_BUDGET; real factors stay in float64.
    """
    r = checked_index(r, "r", 1)
    if isinstance(state, str):
        rule, size = _checked_rule(state), checked_size(k, 2 * r, "the output needs k^(2r)")
        return _chunk_size(max(size, (k * n) ** 2)), d if rule == "bell" else 1, lambda v: _rule_output(k, n, v, r, rule)
    per_column = checked_size(k * n, r, "lifted state tensor needs (kn)^r")
    factor = _state_components(state, d**r)
    cols = min(OUTPUT_TENSOR_BUDGET // per_column, factor.shape[1])
    # after r lifts the legs are (C, k_1, n_1, ..., k_r, n_r); put the k legs first
    order = [0] + [2 + 2 * x for x in range(r)] + [1] + [3 + 2 * x for x in range(r)]

    def lift(v):
        def block(lo):
            lifted = factor[:, lo : lo + cols].reshape(1, d, -1)  # a batch axis of 1 broadcasts against v
            for _ in range(r):
                lifted = (v @ lifted.reshape(lifted.shape[0], d, -1)).swapaxes(1, 2)
            ell = lifted.reshape((len(v), -1) + (k, n) * r).transpose(order).reshape(len(v), k**r, -1)
            return ell @ ell.conj().swapaxes(1, 2)

        return functools.reduce(operator.add, map(block, range(0, factor.shape[1], cols)))

    return _chunk_size(max((k * n) ** r * cols, (k * n) ** 2)), d, lift


def _checked_rule(rule: str) -> str:
    """rule if it names one of _INPUT_RULES, else ValidationError."""
    if not isinstance(rule, str) or rule not in _INPUT_RULES:
        raise ValidationError(f"unknown input rule {rule!r}; use {' or '.join(_INPUT_RULES)}")
    return rule


def _rule_output(k: int, n: int, v: np.ndarray, r: int, rule: str) -> np.ndarray:
    """Outputs (B, k^r, k^r) of the r-th tensor power on a rule input, from its block outputs.

    v holds B isometries' leading columns, (B, kn, columns): at least column
    0 for "product", and all d for "bell", which reads d from v's shape.

    Phi^(tensor r)(A tensor B) = Phi^(tensor s)(A) tensor Phi^(tensor (r-s))(B),
    so the output is the Kronecker product of one output per block, in
    maximal_block order.  The product input gives the r-th power of u u^T,
    u = V e_0 read as (k, n), copied to contiguous memory so that u u^T has
    the same bits whichever columns came with it.  The Bell input puts the
    pair vector sum_i e_i e_i / sqrt(d) on each pair and I/d on the single at
    odd r.  M = V V^T, read as (k, n, k, n), is sqrt(d) times (V tensor V)
    applied to the pair vector, so a pair gives L L^T / d, L = M regrouped as
    (k^2, n^2), and the single gives ptr_n(M) / d.
    """
    b, d = len(v), v.shape[2]
    if rule == "product":
        u = np.ascontiguousarray(v[:, :, 0]).reshape(b, k, n)
        blocks = [u @ u.swapaxes(1, 2)] * r
    else:
        m = (v @ v.swapaxes(1, 2)).reshape(b, k, n, k, n)
        ell = m.transpose(0, 1, 3, 2, 4).reshape(b, k * k, n * n)
        blocks = [ell @ ell.swapaxes(1, 2) / d] * (r // 2) + [np.einsum("bimjm->bij", m) / d] * (r % 2)

    def kron(x, y):  # np.kron of each batch entry's pair
        return (x[:, :, None, :, None] * y[:, None, :, None, :]).reshape(b, x.shape[1] * y.shape[1], -1)

    return functools.reduce(kron, blocks).astype(complex)


def output_state(spec: ChannelSpec, r: int, state: np.ndarray | str) -> np.ndarray:
    """Output of the r-th tensor power on a pure vector, a density matrix or a rule input.

    Every input takes _lift, the Monte Carlo sampler's prepared draw.  A rule
    name, "bell" or "product", stands for experiment_input(rule, r, d); its
    output is built from pair and single-point outputs, with no d^r input.
    """
    checked_instance(spec, ChannelSpec, "spec")
    _, _, lift = _lift(r, spec.k, spec.n, spec.d, state)
    return lift(spec.isometry[None])[0].astype(complex)


def map_ordered(work: Callable, jobs: Iterable) -> Iterator:
    """work(job) for every job, yielded in job order, on worker_count() threads.

    Jobs are taken from the iterable as results are yielded, at most two per
    worker ahead, so a long stream of jobs is never held whole.
    """
    workers = worker_count()
    if workers <= 1:
        yield from map(work, jobs)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for job in jobs:
            ahead.append(pool.submit(work, job))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _chunk_size(entries_per_sample: int) -> int:
    # keep the per-chunk arrays around a few million entries.  The size is a
    # function of the problem dimensions only, never of the worker count: the
    # chunks fix the order in which partial results are combined.
    return max(1, min(1024, 4_000_000 // entries_per_sample))


def _chan_combine(a, b):
    """Merge two (count, mean, M2) partials (Chan, Golub and LeVeque)."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * (nb / n), m2_a + m2_b + (delta.conj() * delta).real * (na * nb / n)


def _sample_stats(samples: int, seed: int, chunk: int, draw: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise mean and standard error of draw's values over samples 0..samples-1.

    draw(gens, count) maps count generators, sample i's from stream (seed, i),
    to an array of count values, scalars or matrices.  Each chunk of samples
    is reduced to (count, mean, M2), M2 the sum of |x - mean|^2, and the
    partials are combined in chunk order, so the result is the same under any
    thread count and memory does not grow with the sample count.  More than
    STREAM_LIMIT samples raise ValidationError: there are no streams for them.
    """
    samples = checked_index(samples, "samples", 2)
    if samples > STREAM_LIMIT:
        raise ValidationError(f"samples must be <= 2**64, one stream each, got {shown(samples)}")

    def partial(bounds):
        lo, hi = bounds
        x = draw(_stream_generators(seed, lo, hi), hi - lo)
        mean = x.mean(axis=0)
        dev = x - mean
        return hi - lo, mean, (dev.conj() * dev).real.sum(axis=0)

    bounds = ((lo, min(lo + chunk, samples)) for lo in range(0, samples, chunk))
    count, mean, m2 = functools.reduce(_chan_combine, map_ordered(partial, bounds))
    return mean, np.sqrt(m2 / (count - 1)) / math.sqrt(count)


def _trace_power_batch(z: np.ndarray, p: int) -> np.ndarray:
    m = z
    for _ in range(p - 1):
        m = m @ z
    return np.einsum("bii->b", m)


def _output_draw(r: int, k: int, n: int, t: float, state: np.ndarray | str):
    """Chunk size and draw(gens, count) -> outputs (count, k^r, k^r), drawing the columns _lift reads."""
    r, (k, n, d) = checked_index(r, "r", 1), _checked_dims(k, n, t)  # r is refused before k, n and t
    chunk, cols, lift = _lift(r, k, n, d, state)
    return chunk, lambda gens, count: lift(_haar_columns(gens, count, k * n, cols))


def mc_trace_moment(
    p: int, r: int, k: int, n: int, t: float, state: np.ndarray | str, samples: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of Tr Z^p over independent channel draws.

    state is an array or a rule name, as output_state takes it.  Sample i
    draws from stream (seed, i) and partials combine in a fixed order, so the
    result is bitwise reproducible for a seed under any thread count.
    """
    p = checked_index(p, "p", 1)
    chunk, outputs = _output_draw(r, k, n, t, state)

    def draw(gens, count):
        return _trace_power_batch(outputs(gens, count), p).real

    mean, stderr = _sample_stats(samples, seed, chunk, draw)
    return float(mean), float(stderr)


def mc_mean_output(
    r: int, k: int, n: int, t: float, state: np.ndarray | str, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise sample mean and standard error of the output state Z."""
    chunk, outputs = _output_draw(r, k, n, t, state)
    mean, stderr = _sample_stats(samples, seed, chunk, outputs)
    return mean.astype(complex), stderr


def mc_conjugation_mean(a: np.ndarray, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise mean and standard error of U A U^T over Haar orthogonal draws."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size or np.any(np.imag(a)) or not np.isfinite(a).all():
        raise ValidationError(f"A must be a nonempty square matrix of finite real entries, got shape {a.shape}")
    a = a.real.astype(float)
    dim = a.shape[0]

    def draw(gens, count):
        u = _haar_columns(gens, count, dim, dim)
        return u @ a @ u.swapaxes(1, 2)

    return _sample_stats(samples, seed, _chunk_size(dim * dim), draw)
