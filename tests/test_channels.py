import functools
import itertools
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthochan import channels
from orthochan.channels import (
    MAX_THREADS,
    ChannelSpec,
    RngStream,
    _checked_state,
    _haar_columns,
    _output_draw,
    _stream_generators,
    _stream_keys,
    apply_channel,
    input_dim,
    make_channel,
    mc_conjugation_mean,
    mc_mean_output,
    mc_trace_moment,
    output_state,
    sample_haar_orthogonal,
    worker_count,
)
from orthochan.asymptotics import (
    basis_product_state,
    bell_input,
    bell_state_vector,
    convergence_experiment,
    maximal_block,
    mean_output_asymptotic,
    op_T,
    von_neumann_entropy,
)
from orthochan.errors import BudgetError, InvalidStateError, ValidationError, checked_size
from orthochan.moments import exact_trace_moment, f_beta, wiring_matrix
from orthochan.pairings import (
    PartialPairing,
    delta_gamma,
    dominant_pairs,
    enumerate_pairings,
    enumerate_partial_pairings,
    wiring_offsets,
)
from orthochan.weingarten import integrate_monomial, wg_exact


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).generator().standard_normal(8)
        b = RngStream(42, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(8)
        b = RngStream(42, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_stream_independent_of_order(self):
        direct = RngStream(7, 5).generator().standard_normal(4)
        for other in (0, 9, 2):
            RngStream(7, other).generator().standard_normal(4)
        again = RngStream(7, 5).generator().standard_normal(4)
        assert np.array_equal(direct, again)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1)])
    def test_negative_seed_or_index_rejected(self, seed, stream):
        with pytest.raises(ValidationError, match=">= 0"):
            RngStream(seed, stream)


# seeds of one, two, three and seven 32-bit words; the last is made the way the
# benchmark derives its per-op seeds
KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 1,
             int(np.random.SeedSequence([0, 1, 3]).generate_state(1)[0])]


class TestStreamKeys:
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    @pytest.mark.parametrize(
        "lo, hi",
        # chunk edges at 1024; an index from 2**32 on is spawned as two words
        [(0, 3), (1022, 1027), (2**32 - 3, 2**32 + 2), (2**64 - 2, 2**64)],
    )
    def test_keys_match_seed_sequence(self, seed, lo, hi):
        keys = _stream_keys(seed, lo, hi)
        assert keys.shape == (hi - lo, 2) and keys.dtype == np.uint64
        for i in range(lo, hi):
            ref = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
            assert np.array_equal(keys[i - lo], ref), i

    def test_indices_beyond_two_words_raise(self):
        with pytest.raises(ValidationError):
            _stream_keys(0, 2**64 - 1, 2**64 + 1)
        with pytest.raises(ValidationError):
            _stream_keys(0, -1, 2)

    @pytest.mark.parametrize("seed", [7, 2**200 + 1])
    # the second range crosses 2**32, where the spawn key gains a second word
    @pytest.mark.parametrize("lo, hi", [(1000, 1040), (2**32 - 20, 2**32 + 20)])
    def test_reseated_generator_draws_stream_bits(self, seed, lo, hi):
        # every stream of a chunk, the middle ones included, draws the bits of
        # a generator built for it alone, however much its predecessor drew
        for i, gen in enumerate(_stream_generators(seed, lo, hi), start=lo):
            ref = RngStream(seed, i).generator()
            assert np.array_equal(gen.standard_normal((3, 3)), ref.standard_normal((3, 3)))
            # an odd number of 32-bit draws leaves half a word buffered
            assert np.array_equal(
                gen.integers(0, 99, 3, dtype=np.int32), ref.integers(0, 99, 3, dtype=np.int32)
            )
            assert np.array_equal(gen.random(i % 7), ref.random(i % 7))

    def test_chunk_draws_equal_single_draws(self):
        u = _haar_columns(_stream_generators(5, 512, 520), 8, 6, 6)
        for b, i in enumerate(range(512, 520)):
            q, r = np.linalg.qr(RngStream(5, i).generator().standard_normal((6, 6)))
            assert np.array_equal(u[b], q * np.sign(np.diag(r)))


def _plain_haar_columns(gens, count, dim, cols):
    # one fresh generator's dim x dim Gaussian, one dense QR and the sign fix per sample
    out = []
    for gen in gens:
        q, r = np.linalg.qr(gen.standard_normal((dim, dim))[:, :cols])
        out.append(q * np.sign(np.diag(r)))
    assert len(out) == count
    return np.array(out)


# 1030 samples at these sizes are one chunk of 1024 and one of 6
PLAIN_REFERENCE_ESTIMATES = [
    lambda: mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, samples=1030, seed=9),
    lambda: mc_mean_output(2, 2, 4, 0.5, np.eye(16) / 16, samples=1030, seed=2**32 + 3),
    lambda: mc_conjugation_mean(np.arange(25.0).reshape(5, 5), samples=1030, seed=4),
]


@pytest.mark.parametrize("estimate", PLAIN_REFERENCE_ESTIMATES)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_estimators_equal_plain_per_sample_draws(estimate, threads, monkeypatch):
    monkeypatch.setenv("ORTHOCHAN_THREADS", threads)
    fast = estimate()
    chunks = []

    def streams(seed, lo, hi):
        chunks.append((lo, hi))
        return [RngStream(seed, i).generator() for i in range(lo, hi)]

    monkeypatch.setattr(channels, "_stream_generators", streams)
    monkeypatch.setattr(channels, "_haar_columns", _plain_haar_columns)
    plain = estimate()
    assert sorted(chunks) == [(0, 1024), (1024, 1030)]
    for x, y in zip(fast, plain, strict=True):
        assert np.array_equal(x, y)


class TestHaarSampling:
    def test_orthogonality(self):
        u = sample_haar_orthogonal(64, RngStream(0))
        assert np.max(np.abs(u.T @ u - np.eye(64))) < 1e-10

    def test_entry_second_moment_matches_monomial_integral(self):
        n, samples = 10, 20000
        vals = np.empty(samples)
        for i in range(samples):
            vals[i] = sample_haar_orthogonal(n, RngStream(11, i))[0, 0] ** 2
        target = integrate_monomial([(0, 0), (0, 0)], n)
        se = vals.std(ddof=1) / np.sqrt(samples)
        assert abs(vals.mean() - target) < 3 * se

    def test_entry_mean_vanishes(self):
        n, samples = 10, 20000
        vals = np.empty(samples)
        for i in range(samples):
            vals[i] = sample_haar_orthogonal(n, RngStream(12, i))[0, 0]
        se = vals.std(ddof=1) / np.sqrt(samples)
        assert abs(vals.mean()) < 3 * se

    def test_first_column_fourth_moments(self):
        # sphere moments up to order four, against the monomial-integral oracle
        n, samples = 6, 20000
        cols = np.empty((samples, n))
        for i in range(samples):
            cols[i] = sample_haar_orthogonal(n, RngStream(13, i))[:, 0]
        for vals, rows in (
            (cols[:, 0] ** 4, [(0, 0)] * 4),
            (cols[:, 0] ** 2 * cols[:, 1] ** 2, [(0, 0), (0, 0), (1, 0), (1, 0)]),
        ):
            target = integrate_monomial(rows, n)
            se = vals.std(ddof=1) / np.sqrt(samples)
            assert abs(vals.mean() - target) < 3 * se


INTEGER_ARGUMENTS = {
    "mc-samples": (lambda: mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, 2.5, 0), "samples must be an integer"),
    "mc-seed": (lambda: mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, 10, 1.5), "seed must be an integer"),
    "experiment-samples": (
        lambda: convergence_experiment("bell", 2, 2, 0.5, (8,), 2.5, 0), "samples must be an integer"
    ),
    "channel-n": (lambda: make_channel(2, 2.5, 0.5, RngStream(0)), "n must be an integer"),
    "exact-n": (lambda: exact_trace_moment(2, 1, 2, 2.5, 0.5, np.eye(2) / 2), "n must be an integer"),
    "input-dim-k": (lambda: input_dim(2.0, 3, 0.5), "k must be an integer"),
    "stream-seed": (lambda: RngStream(1.5), "seed must be an integer"),
    "stream-index": (lambda: RngStream(0, 2.5), "stream must be an integer"),
    # operator.index(True) is 1: a bool once passed as the integer 1 or 0
    "wg-m-true": (lambda: wg_exact(True, 3), "^m must be an integer, got True$"),
    "stream-seed-true": (lambda: RngStream(True), "^seed must be an integer, got True$"),
    "stream-index-false": (lambda: RngStream(0, False), "^stream must be an integer, got False$"),
    # entry points that once met a non-integer or a value below its least
    # with a TypeError, an IndexError or another argument's message
    "mc-p": (lambda: mc_trace_moment(2.5, 1, 2, 3, 0.5, np.eye(3) / 3, 10, 0), "p must be an integer"),
    "mean-output-r": (lambda: mc_mean_output(2.0, 2, 3, 0.5, np.eye(9) / 9, 10, 0), "r must be an integer"),
    "output-state-r": (
        lambda: output_state(make_channel(2, 3, 0.5, RngStream(0)), 1.5, np.eye(3) / 3), "r must be an integer"
    ),
    "channel-n-string": (lambda: make_channel(2, "3", 0.5, RngStream(0)), "n must be an integer"),
    "haar-dim": (lambda: sample_haar_orthogonal(2.5, RngStream(0)), "dimension must be an integer"),
    "basis-d0": (lambda: basis_product_state(0, 2), "d must be >= 1, got 0"),
    "exact-r0": (lambda: exact_trace_moment(2, 0, 2, 3, 0.5, np.eye(3) / 3), "r must be >= 1, got 0"),
    "pairings-m": (lambda: enumerate_pairings(2.5), "m must be an integer"),
    "partial-pairings-r": (lambda: enumerate_partial_pairings(2.5), "r must be an integer"),
    "delta-gamma-p": (lambda: delta_gamma(1.5, 2), "p must be an integer"),
    "op-T-k": (lambda: op_T(PartialPairing(2, ((0, 1),)), 2.5), "k must be an integer"),
    "mean-output-asymptotic-r": (
        lambda: mean_output_asymptotic(np.eye(3) / 3, 1.5, 2, 0.5), "r must be an integer"
    ),
    # f_beta and the wiring builders once met these with ZeroDivisionError,
    # numpy's ValueError or TypeError
    "f-beta-p0": (lambda: f_beta(delta_gamma(1, 2)[0], np.eye(4) / 4, 0), "p must be >= 1, got 0"),
    "f-beta-p-float": (lambda: f_beta(delta_gamma(1, 2)[0], np.eye(4) / 4, 1.0), "p must be an integer"),
    "wiring-matrix-dim0": (lambda: wiring_matrix(delta_gamma(1, 2)[0], 0), "dim must be >= 1, got 0"),
    "wiring-matrix-dim-float": (lambda: wiring_matrix(delta_gamma(1, 2)[0], 2.5), "dim must be an integer"),
    "wiring-offsets-dim0": (lambda: wiring_offsets(delta_gamma(1, 2)[0], 0), "dim must be >= 1, got 0"),
    # partial pairings and their listings once passed these through, to a TypeError,
    # to numpy's einsum or to another argument's message
    "partial-n-points-float": (lambda: PartialPairing(2.5, ()), "^n_points must be an integer, got 2.5$"),
    "partial-n-points-true": (lambda: PartialPairing(True, ()), "^n_points must be an integer, got True$"),
    "partial-n-points-negative": (lambda: PartialPairing(-1, ()), "^n_points must be >= 0, got -1$"),
    "partial-pair-entry-float": (lambda: PartialPairing(3, ((0, 1.0),)), "^pair entry must be an integer, got 1.0$"),
    "dominant-pairs-p0": (lambda: dominant_pairs(0, 1), "^p must be >= 1, got 0$"),
    "dominant-pairs-p-negative": (lambda: dominant_pairs(-1, 1), "^p must be >= 1, got -1$"),
    "dominant-pairs-r0": (lambda: dominant_pairs(1, 0), "^r must be >= 1, got 0$"),
    "bell-vector-no-points": (lambda: bell_state_vector(PartialPairing(0, ()), 2), "^r must be >= 1, got 0$"),
    "bell-input-no-points": (lambda: bell_input(PartialPairing(0, ()), 2), "^r must be >= 1, got 0$"),
}

# a shape, size or grid that does not fit, refused before any work on it
SHAPE_REFUSALS = {
    # the lift budget is checked before the state is read: None would raise ValidationError
    "lift-budget": (lambda: mc_trace_moment(2, 4, 2, 64, 0.5, None, 10, 0), BudgetError, "above budget 16777216"),
    "isometry-shape": (
        lambda: ChannelSpec(2, 2, 0.5, 2, np.zeros((3, 2))),
        ValidationError,
        "isometry has shape (3, 2), expected (4, 2)",
    ),
    "channel-input-shape": (
        lambda: apply_channel(make_channel(2, 2, 0.5, RngStream(0)), np.eye(3)),
        ValidationError,
        "input has shape (3, 3), expected (2, 2)",
    ),
    "entropy-not-square": (
        lambda: von_neumann_entropy(np.full((2, 3), 1 / 3)),
        InvalidStateError,
        "must be square and nonempty, got shape (2, 3)",
    ),
    # these two once raised numpy's ValueError and a ZeroDivisionError
    "entropy-empty": (
        lambda: von_neumann_entropy(np.zeros((0, 0))), InvalidStateError, "must be square and nonempty, got shape (0, 0)"
    ),
    "conjugation-empty": (
        lambda: mc_conjugation_mean(np.zeros((0, 0)), 10, 0),
        ValidationError,
        "A must be a nonempty square matrix of finite real entries, got shape (0, 0)",
    ),
    "bell-vector-odd-r": (lambda: bell_state_vector(maximal_block(3), 2), ValidationError, "needs a perfect pairing"),
    "experiment-empty-grid": (
        lambda: convergence_experiment("bell", 2, 2, 0.5, (), 2, 0), ValidationError, "need a nonempty n grid"
    ),
    "f-beta-size": (
        lambda: f_beta(delta_gamma(1, 3)[0], np.eye(8) / 8, 2), ValidationError, "size 6 is not a multiple of 2p = 4"
    ),
}


class TestChannelConstruction:
    def test_dimensions(self):
        spec = make_channel(2, 4, 0.5, RngStream(0))
        assert spec.d == 4
        assert spec.isometry.shape == (8, 4)

    def test_floor(self):
        assert make_channel(2, 3, 0.9, RngStream(0)).d == 5

    def test_isometry_property(self):
        spec = make_channel(3, 5, 0.6, RngStream(1))
        v = spec.isometry
        assert np.max(np.abs(v.T @ v - np.eye(spec.d))) < 1e-10

    def test_degenerate_d(self):
        with pytest.raises(ValidationError):
            make_channel(2, 1, 0.2, RngStream(0))

    def test_input_dim(self):
        assert input_dim(2, 3, 0.9) == 5
        assert input_dim(2, 4, 1.0) == 8
        with pytest.raises(ValidationError, match="is degenerate"):
            input_dim(2, 1, 0.2)
        # d = 12 > kn = 8: no isometry, so no engine may take the input
        with pytest.raises(ValidationError, match="exceeds kn = 8"):
            input_dim(2, 4, 1.5)
        with pytest.raises(ValidationError, match="exceeds kn = 8"):
            exact_trace_moment(2, 1, 2, 4, 1.5, np.eye(12)[0])
        # floor(1.05 * 8) = 8 = kn, so only the t rule stops t just above 1
        for call in (
            lambda: input_dim(2, 4, 1.05),
            lambda: make_channel(2, 4, 1.05, RngStream(0)),
            lambda: exact_trace_moment(2, 1, 2, 4, 1.05, np.eye(8)[0]),
        ):
            with pytest.raises(ValidationError, match=r"t must lie in \[0, 1\], got 1.05"):
                call()
        # math.floor raises ValueError at NaN and OverflowError at infinity
        for t in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match="must be finite"):
                input_dim(2, 3, t)
            with pytest.raises(ValidationError, match="must be finite"):
                exact_trace_moment(2, 1, 2, 3, t, np.eye(3) / 3)

    @pytest.mark.parametrize("call, error, message", SHAPE_REFUSALS.values(), ids=SHAPE_REFUSALS.keys())
    def test_shape_refusals(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("call, message", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
    def test_integer_arguments_raise_validation_error(self, call, message):
        # neither a TypeError from deep inside nor a value for a truncated dimension
        with pytest.raises(ValidationError, match=message):
            call()

    @pytest.mark.parametrize("k, n, t, d", [(3, 30, 0.3, 27), (2, 45, 0.7, 63), (3, 60, 0.15, 27)])
    def test_input_dim_survives_round_off(self, k, n, t, d):
        # t*k*n lands just under d in floating point, e.g. 0.3*3*30 = 26.999999999999996
        assert t * k * n < d
        assert input_dim(k, n, t) == d

    def test_input_dim_at_half_is_kn_over_two(self):
        assert [input_dim(2, n, 0.5) for n in range(1, 257)] == list(range(1, 257))
        assert [input_dim(k, 8, 0.5) for k in (3, 4)] == [12, 16]

    @pytest.mark.parametrize("k, n, t", [(2, 4, 0.5), (3, 5, 0.6), (2, 64, 0.5)])
    @pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3)])
    def test_isometry_is_leading_columns_of_haar_draw(self, k, n, t, seed, stream):
        # only the first d Gaussian columns are orthogonalised; the stream is
        # consumed as for a full draw, so the columns agree with it
        spec = make_channel(k, n, t, RngStream(seed, stream))
        u = sample_haar_orthogonal(k * n, RngStream(seed, stream))
        assert np.max(np.abs(spec.isometry - u[:, : spec.d])) < 1e-13


class TestChannelApplication:
    def test_trace_preserving(self):
        spec = make_channel(2, 3, 0.5, RngStream(2))
        rng = np.random.default_rng(0)
        g = rng.standard_normal((spec.d, spec.d)) + 1j * rng.standard_normal((spec.d, spec.d))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        out = apply_channel(spec, rho)
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_positivity_preserving(self):
        spec = make_channel(2, 4, 0.6, RngStream(3))
        rng = np.random.default_rng(1)
        for _ in range(5):
            g = rng.standard_normal((spec.d, spec.d)) + 1j * rng.standard_normal((spec.d, spec.d))
            rho = g @ g.conj().T
            rho /= np.trace(rho)
            out = apply_channel(spec, rho)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_power_r1_matches_apply_channel(self):
        spec = make_channel(2, 3, 0.5, RngStream(4))
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(spec.d) + 1j * rng.standard_normal(spec.d)
        psi /= np.linalg.norm(psi)
        z1 = output_state(spec, 1, psi)
        z2 = apply_channel(spec, np.outer(psi, psi.conj()))
        assert np.max(np.abs(z1 - z2)) < 1e-12

    def test_power_factorizes_on_product_inputs(self):
        spec = make_channel(2, 3, 0.5, RngStream(5))
        rng = np.random.default_rng(3)
        phi1 = rng.standard_normal(spec.d); phi1 /= np.linalg.norm(phi1)
        phi2 = rng.standard_normal(spec.d); phi2 /= np.linalg.norm(phi2)
        z = output_state(spec, 2, np.kron(phi1, phi2))
        z1 = apply_channel(spec, np.outer(phi1, phi1))
        z2 = apply_channel(spec, np.outer(phi2, phi2))
        assert np.max(np.abs(z - np.kron(z1, z2))) < 1e-12

    def test_bell_input_unit_trace(self):
        spec = make_channel(2, 4, 0.5, RngStream(6))
        d = spec.d
        bell = np.eye(d).reshape(d * d) / np.sqrt(d)
        z = output_state(spec, 2, bell)
        assert abs(np.trace(z) - 1.0) < 1e-12
        assert np.max(np.abs(z - z.conj().T)) < 1e-12

    def test_mixed_state_path_matches_decomposition(self):
        spec = make_channel(2, 3, 0.5, RngStream(7))
        d = spec.d
        rho = np.diag(np.arange(1.0, d + 1))
        rho /= np.trace(rho)
        direct = output_state(spec, 1, rho)
        assert np.max(np.abs(direct - apply_channel(spec, rho))) < 1e-12

    def test_norm_validated(self):
        spec = make_channel(2, 3, 0.5, RngStream(8))
        with pytest.raises(InvalidStateError):
            output_state(spec, 1, np.ones(spec.d))


def _dense_output(v, k, n, r, rho):
    """ptr over the ancilla of V^(tensor r) rho V^(tensor r)^T, built densely."""
    big = functools.reduce(np.kron, [v] * r)
    y = (big @ rho @ big.T).reshape((k, n) * (2 * r))
    # ket legs are (k_1, n_1, ..., k_r, n_r), then the bra legs the same way
    ket_k = [2 * x for x in range(r)]
    ket_n = [2 * x + 1 for x in range(r)]
    order = ket_k + ket_n + [2 * r + a for a in ket_k] + [2 * r + a for a in ket_n]
    y = y.transpose(order).reshape(k**r, n**r, k**r, n**r)
    return np.trace(y, axis1=1, axis2=3)


class TestOutputAgainstDenseReference:
    def _inputs(self, d, r):
        rng = np.random.default_rng(10 + r)
        dim = d**r
        psi_c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi_r = rng.standard_normal(dim)
        g = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        rho = g @ g.conj().T
        return {
            "complex pure": psi_c / np.linalg.norm(psi_c),
            "real pure": psi_r / np.linalg.norm(psi_r),
            "mixed": rho / np.trace(rho).real,
        }

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("k, n", [(2, 3), (3, 2)])
    def test_output_state_matches_dense(self, k, n, r):
        spec = make_channel(k, n, 0.5, RngStream(21, r))
        for label, state in self._inputs(spec.d, r).items():
            rho = state if state.ndim == 2 else np.outer(state, state.conj())
            ref = _dense_output(spec.isometry, k, n, r, rho)
            out = output_state(spec, r, state)
            assert out.dtype == complex
            assert np.max(np.abs(out - ref)) < 1e-13, label

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("r", [1, 2])
    def test_mixed_input_lifted_in_column_blocks(self, monkeypatch, r, columns):
        # a budget of columns * (kn)^r splits the rank-3 factor into several blocks
        k, n = 2, 3
        spec = make_channel(k, n, 0.5, RngStream(22, r))
        rho = self._inputs(spec.d, r)["mixed"]
        monkeypatch.setattr(channels, "OUTPUT_TENSOR_BUDGET", columns * (k * n) ** r)
        out = output_state(spec, r, rho)
        assert np.max(np.abs(out - _dense_output(spec.isometry, k, n, r, rho))) < 1e-13

    @pytest.mark.parametrize("r, columns", [(1, None), (2, None), (3, None), (2, 2)])
    def test_output_state_is_the_samplers_draw(self, monkeypatch, r, columns):
        # output_state on stream i's channel and the Monte Carlo draw of stream i
        # share one prepared lift, so they agree bit for bit, in column blocks too
        k, n, t, seed = 2, 3, 0.5, 23
        if columns:
            monkeypatch.setattr(channels, "OUTPUT_TENSOR_BUDGET", columns * (k * n) ** r)
        for i, (label, state) in enumerate(self._inputs(input_dim(k, n, t), r).items()):
            single = output_state(make_channel(k, n, t, RngStream(seed, i)), r, state)
            _, draw = _output_draw(r, k, n, t, state)
            sampled = draw(_stream_generators(seed, i, i + 1), 1)[0].astype(complex)
            assert single.tobytes() == sampled.tobytes(), label


_BLAS_THREADS_SCRIPT = """
import numpy as np
from orthochan.asymptotics import convergence_experiment
from orthochan.channels import mc_mean_output, mc_trace_moment
exp = convergence_experiment("bell", 2, 2, 0.5, (8, 64), samples=3, seed=4)
print(repr(exp.rows))
print(repr(mc_trace_moment(2, 2, 2, 4, 0.5, np.eye(16) / 16, samples=300, seed=5)))
print(repr([x.tolist() for x in mc_mean_output(2, 2, 4, 0.5, np.eye(16) / 16, samples=2100, seed=6)]))
"""


def _library_env(**settings: str) -> dict[str, str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(settings)
    return env


def _run_with_blas_threads(threads: int) -> str:
    env = _library_env(
        ORTHOCHAN_THREADS="1", OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads)
    )
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_results_independent_of_blas_thread_count():
    one = _run_with_blas_threads(1)
    assert one.count("\n") == 3
    assert one == _run_with_blas_threads(2)


_UNADDRESSABLE_SCRIPT = """
import numpy as np
from orthochan.channels import mc_conjugation_mean, mc_mean_output, mc_trace_moment
from orthochan.errors import ValidationError
too_many = 2**64 + 1
for estimate in (
    lambda: mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, too_many, 7),
    lambda: mc_mean_output(1, 2, 3, 0.5, np.eye(3) / 3, too_many, 7),
    lambda: mc_conjugation_mean(np.eye(4), too_many, 7),
):
    try:
        estimate()
    except ValidationError as exc:
        print(exc)
"""


def _limit_address_space():
    # 1 GiB: ample for one refusal, far below a list of 2**54 chunk bounds
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "args, code",
    [
        (["-c", _UNADDRESSABLE_SCRIPT], 0),
        (["-m", "orthochan.cli", "simulate", "--p", "2", "--r", "1", "--k", "2", "--n", "3",
          "--t", "0.5", "--input", "mixed", "--samples", str(2**64 + 1), "--seed", "7"], 2),
    ],
)
def test_sample_counts_beyond_the_streams_are_refused(args, code):
    # stream indices stop at 2**64; the refusal comes before any chunk is laid out
    done = subprocess.run(
        [sys.executable, *args],
        env=_library_env(ORTHOCHAN_THREADS="2", OPENBLAS_NUM_THREADS="1"),
        preexec_fn=_limit_address_space, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    refusals = (done.stdout if code == 0 else done.stderr).splitlines()
    assert len(refusals) == (3 if code == 0 else 1)
    assert all("samples must be <= 2**64" in line for line in refusals)


_DENSE_REFUSAL_SCRIPT = """
import sys
import numpy as np
from orthochan import asymptotics
from orthochan.asymptotics import (
    basis_product_state, bell_input, bell_state_vector, convergence_experiment, maximal_block,
    mean_output_asymptotic, op_Q_tilde,
)
from orthochan.channels import RngStream, make_channel
from orthochan.errors import BudgetError
from orthochan.pairings import PartialPairing

def drawn(*args):
    raise AssertionError("a channel was drawn before every grid point was sized")

asymptotics.make_channel = drawn
try:
    eval(sys.argv[1])
except BudgetError as exc:
    print(exc)
"""

# oversized dense requests, each refused before numpy is asked for the array;
# without the size rule they raised ValueError or MemoryError, or asked for
# tens of GiB (bell_input: a lazily zeroed 30.5 GiB pattern)
DENSE_REFUSALS = {
    "pattern": ("op_Q_tilde(PartialPairing(4, ()), 1000)", f"wiring pattern needs dim^(2pr) = {1000**8}"),
    "bell-matrix": ("bell_input(maximal_block(3), 40)", f"wiring pattern needs dim^(2pr) = {40**6}"),
    "bell-vector": ("bell_state_vector(maximal_block(4), 100)", f"pair-product input needs d^r = {100**4}"),
    "product-vector": ("basis_product_state(10**5, 3)", f"product input needs d^r = {10**15}"),
    "mean-output": (
        "mean_output_asymptotic(np.ones(1), 2, 5000, 0.5)", f"asymptotic mean output needs k^(2r) = {5000**4}"
    ),
    "haar-draw": ("make_channel(2, 10**5, 0.5, RngStream(0))", f"a Haar draw needs dim^2 = {(2 * 10**5) ** 2}"),
    # kn = 4098 at the second grid point: sized before the first draw
    "experiment-grid": (
        'convergence_experiment("bell", 2, 2, 0.5, (8, 2049), 2, 0)', f"a Haar draw needs dim^2 = {4098**2}"
    ),
}

# the CLI runs that once ended in numpy's allocation traceback (exit 1), or in
# allocating 30.5 GiB and 298 GiB where the address space allowed it
CLI_DENSE_REFUSALS = {
    "moment-mixed": (
        "moment --p 1 --r 3 --k 2 --n 100 --t 0.5 --input mixed", f"the mixed input needs d^(2r) = {10**12}"
    ),
    "experiment-bell": (
        "experiment --rule bell --r 3 --k 2 --t 0.5 --n 40 --samples 2", f"the input state needs d^6 = {40**6}"
    ),
    "simulate-draw": (
        "simulate --p 1 --r 1 --k 2 --n 100000 --t 0.5 --input product --samples 2",
        f"a Haar draw needs dim^2 = {(2 * 10**5) ** 2}",
    ),
    "experiment-draw": (
        "experiment --rule product --r 1 --k 2 --t 0.5 --n 100000 --samples 2",
        f"a Haar draw needs dim^2 = {(2 * 10**5) ** 2}",
    ),
}


def _run_limited(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=_library_env(ORTHOCHAN_THREADS="2", OPENBLAS_NUM_THREADS="1"),
        preexec_fn=_limit_address_space, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("call, message", DENSE_REFUSALS.values(), ids=DENSE_REFUSALS.keys())
def test_oversized_dense_arrays_raise_budget_error(call, message):
    done = _run_limited(["-c", _DENSE_REFUSAL_SCRIPT, call])
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{message} entries, above budget 16777216\n"


@pytest.mark.parametrize("command, message", CLI_DENSE_REFUSALS.values(), ids=CLI_DENSE_REFUSALS.keys())
def test_oversized_dense_arrays_exit_3(command, message):
    done = _run_limited(["-m", "orthochan.cli", *command.split()])
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"error: {message} entries, above budget 16777216\n"


def test_size_at_its_budget_is_accepted():
    assert checked_size(2**24, 2**24, "x") == 2**24
    with pytest.raises(BudgetError, match=r"^x = 16777217 entries, above budget 16777216$"):
        checked_size(2**24 + 1, 2**24, "x")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_map_ordered_takes_jobs_as_it_goes(threads, monkeypatch):
    monkeypatch.setenv("ORTHOCHAN_THREADS", threads)
    taken = []

    def jobs():
        for job in range(10**6):
            taken.append(job)
            yield job

    results = channels.map_ordered(lambda x: x * x, jobs())
    assert list(itertools.islice(results, 5)) == [0, 1, 4, 9, 16]
    results.close()
    assert len(taken) <= 5 + 2 * int(threads)


class TestMonteCarlo:
    def test_p1_is_exactly_one(self):
        est, se = mc_trace_moment(1, 1, 2, 3, 0.5, np.eye(3) / 3, samples=50, seed=0)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert se < 1e-12

    def test_seed_stability_bitwise(self):
        a = mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, samples=500, seed=9)
        b = mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, samples=500, seed=9)
        assert a == b

    def test_thread_count_invariance(self, monkeypatch):
        # 2500 samples span three chunks, so the workers share them out
        estimates = (
            lambda: mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, samples=2500, seed=1),
            lambda: mc_mean_output(2, 2, 4, 0.5, np.eye(16) / 16, samples=2500, seed=1),
            lambda: mc_conjugation_mean(np.arange(16.0).reshape(4, 4), samples=2500, seed=1),
        )
        for estimate in estimates:
            monkeypatch.setenv("ORTHOCHAN_THREADS", "1")
            a = estimate()
            monkeypatch.setenv("ORTHOCHAN_THREADS", "3")
            b = estimate()
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    def test_samples_validated(self):
        with pytest.raises(ValidationError):
            mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, samples=1, seed=0)

    def test_conjugation_mean_matches_showcase(self):
        n = 6
        a = np.diag(np.arange(1.0, n + 1))
        mean, stderr = mc_conjugation_mean(a, samples=20000, seed=4)
        target = np.trace(a) / n * np.eye(n)
        assert np.all(np.abs(mean - target) <= 3 * stderr)

    def test_mean_output_stderr_shapes(self):
        mean, stderr = mc_mean_output(1, 2, 3, 0.5, np.eye(3) / 3, samples=200, seed=5)
        assert mean.shape == (2, 2)
        assert stderr.shape == (2, 2)
        assert abs(np.trace(mean) - 1.0) < 1e-10

    def test_mean_output_memory_does_not_grow_with_samples(self, monkeypatch):
        # per-chunk partials are combined as they arrive; keeping every
        # sample's 4 x 4 complex output would add 4.6 MB between these runs
        monkeypatch.setenv("ORTHOCHAN_THREADS", "1")

        def peak(samples):
            tracemalloc.start()
            try:
                mc_mean_output(2, 2, 4, 0.5, np.eye(16) / 16, samples=samples, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2_000), peak(20_000)
        assert large <= small + 256 * 1024

    def test_mean_output_matches_exact_first_moment(self):
        # at r=1 the exact mean output is the maximally mixed state
        mean, stderr = mc_mean_output(1, 2, 3, 0.5, np.eye(3) / 3, samples=3000, seed=6)
        assert np.all(np.abs(mean - np.eye(2) / 2) <= 3 * stderr + 1e-12)


class TestValidation:
    def test_density_matrix_ok(self):
        _checked_state(np.eye(4) / 4, 4)

    def test_density_matrix_bad_trace(self):
        with pytest.raises(InvalidStateError):
            _checked_state(np.eye(4), 4)

    def test_density_matrix_not_hermitian(self):
        m = np.eye(3) / 3
        m[0, 1] = 0.5
        with pytest.raises(InvalidStateError):
            _checked_state(m, 3)

    def test_density_matrix_negative_eigenvalue(self):
        # positivity is checked by the spectrum a caller computes, not by _checked_state
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # every comparison with NaN is false, so the tolerance checks alone pass it
        rho = np.eye(2) / 2
        rho[1, 1] = bad
        with pytest.raises(InvalidStateError, match="non-finite"):
            _checked_state(rho, 2)
        with pytest.raises(InvalidStateError, match="non-finite"):
            _checked_state(np.array([1.0, bad]), 2)
        a = np.eye(3)
        a[0, 2] = bad
        with pytest.raises(ValidationError, match="finite real"):
            mc_conjugation_mean(a, samples=10, seed=0)

    def test_conjugation_mean_rejects_complex_entries(self):
        # casting to float would drop the imaginary part with only a warning
        a = np.arange(9.0).reshape(3, 3)
        with pytest.raises(ValidationError, match="finite real"):
            mc_conjugation_mean(a + 1j * np.eye(3), samples=10, seed=0)
        # a complex array with zero imaginary parts is the real matrix, bit for bit
        real = mc_conjugation_mean(a, samples=10, seed=0)
        for x, y in zip(real, mc_conjugation_mean(a + 0j, samples=10, seed=0)):
            assert np.array_equal(x, y)

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("ORTHOCHAN_THREADS", "5")
        assert worker_count() == 5
        monkeypatch.setenv("ORTHOCHAN_THREADS", "zero")
        with pytest.raises(ValidationError):
            worker_count()

    def test_worker_count_has_a_fixed_upper_bound(self, monkeypatch):
        monkeypatch.setenv("ORTHOCHAN_THREADS", str(MAX_THREADS))
        assert worker_count() == MAX_THREADS == 256
        monkeypatch.setenv("ORTHOCHAN_THREADS", "257")
        with pytest.raises(ValidationError, match=r"^ORTHOCHAN_THREADS must be <= 256, got 257$"):
            worker_count()

    def test_too_many_threads_refused_before_any_pool(self, monkeypatch):
        # a pool starts a thread per queued job while none is idle, and up to
        # 2 * workers + 1 jobs are queued: refuse before a pool exists
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(channels, "ThreadPoolExecutor", no_pool)
        monkeypatch.setenv("ORTHOCHAN_THREADS", "1000000")
        with pytest.raises(ValidationError, match="ORTHOCHAN_THREADS must be <= 256"):
            mc_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3, 10, 0)
