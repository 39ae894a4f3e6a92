import functools
import itertools
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
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
    ConvexBody,
    basis_product_state,
    bell_input,
    bell_state_vector,
    convergence_experiment,
    experiment_input,
    maximal_block,
    mean_output_asymptotic,
    op_T,
    project_to_body,
    von_neumann_entropy,
)
from orthochan.errors import BudgetError, InvalidStateError, ValidationError, checked_size
from orthochan.moments import G_WEIGHT_SLACK, asymptotic_trace_moment, exact_trace_moment, f_beta
from orthochan.pairings import Pairing, PartialPairing, delta_gamma, dominant_pairs, wiring_offsets
from orthochan.weingarten import integrate_monomial


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


# integer arguments outside __all__, and integer rules whose messages
# tests/test_public_api.py's argument sweep does not pin
INTEGER_ARGUMENTS = {
    "input-dim-k": (lambda: input_dim(2.0, 3, 0.5), "k must be an integer"),
    "basis-d0": (lambda: basis_product_state(0, 2), "d must be >= 1, got 0"),
    "wiring-offsets-dim0": (lambda: wiring_offsets(delta_gamma(1, 2)[0], 0), "dim must be >= 1, got 0"),
    "partial-pair-entry-float": (lambda: PartialPairing(3, ((0, 1.0),)), "^pair entry must be an integer, got 1.0$"),
    # r read off a block or a pairing of no points; f_beta's once raised ZeroDivisionError
    "bell-vector-no-points": (lambda: bell_state_vector(PartialPairing(0, ()), 2), "^r must be >= 1, got 0$"),
    "bell-input-no-points": (lambda: bell_input(PartialPairing(0, ()), 2), "^r must be >= 1, got 0$"),
    "f-beta-no-points": (lambda: f_beta(Pairing(()), np.eye(2) / 2, 1), "^r must be >= 1, got 0$"),
    # a spec once stored a float k whose product still matched the isometry's shape
    "channel-spec-k-float": (lambda: ChannelSpec(2.0, 2, np.zeros((4, 2))), "^k must be an integer, got 2.0$"),
}

# real arguments read by errors.checked_real where the sweep does not reach
# them: a call on the value, the argument's name, its bounds and a value beyond them
REAL_ARGUMENTS = {
    "input-dim-t": (lambda t: input_dim(2, 3, t), "t", "[0, 1]", 1.5),
    "g-weight": (
        lambda w: asymptotic_trace_moment(1, 2, 2, 0.5, {PartialPairing(2, ((0, 1),)): w}),
        "g weight of ((0, 1),)",
        f"[{-G_WEIGHT_SLACK}, {1 + G_WEIGHT_SLACK}]",
        1.5,
    ),
}
# a bool once counted as 1 or 0, an array or a string reached a comparison or numpy
NON_REALS = {"bool": True, "string": "0.5", "complex": 0.5 + 0j, "array": np.array([0.5])}
NON_FINITE = {"nan": float("nan"), "inf": float("inf")}

# a shape, size or grid that does not fit, refused before any work on it
SHAPE_REFUSALS = {
    # the lift budget is checked before the state is read: None would raise ValidationError
    "lift-budget": (lambda: mc_trace_moment(2, 4, 2, 64, 0.5, None, 10, 0), BudgetError, "above budget 16777216"),
    "isometry-shape": (
        lambda: ChannelSpec(2, 2, np.zeros((3, 2))),
        ValidationError,
        "isometry has shape (3, 2), expected (4, d) with 1 <= d <= 4",
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
    # these three once raised numpy's ValueError from a reshape or a complex
    # conversion, and an AttributeError from reading n_points off a string
    "f-beta-state-ndim": (
        lambda: f_beta(delta_gamma(1, 1)[0], np.zeros((2, 2, 2)), 1),
        ValidationError,
        "state must be a vector or a square matrix, got shape (2, 2, 2)",
    ),
    "projection-string": (
        lambda: project_to_body("x", ConvexBody(1, 2, 0.5)), ValidationError, "need a finite (2, 2) matrix, got 'x'"
    ),
    "g-key-not-a-block": (
        lambda: asymptotic_trace_moment(1, 2, 2, 0.5, {"x": 0.5}),
        ValidationError,
        "g key 'x' is not a partial pairing of the pr = 2 cells",
    ),
    # these two once raised an IndexError from reading the shape of a 0-d
    # state, and an AttributeError from reading .shape off a list
    "mean-output-asymptotic-string": (
        lambda: mean_output_asymptotic("x", 2, 2, 0.5),
        ValidationError,
        "state must be a vector or a square matrix, got shape ()",
    ),
    "mean-output-asymptotic-scalar": (
        lambda: mean_output_asymptotic(np.float64(1.0), 1, 2, 0.5),
        ValidationError,
        "state must be a vector or a square matrix, got shape ()",
    ),
    "isometry-list-shape": (
        lambda: ChannelSpec(2, 2, [[0.0, 0.0]] * 3),
        ValidationError,
        "isometry has shape (3, 2), expected (4, d) with 1 <= d <= 4",
    ),
    # these three once raised AttributeError or TypeError, and inward_only = 1 was taken as True
    "g-not-a-mapping": (
        lambda: asymptotic_trace_moment(1, 2, 2, 0.5, []), ValidationError, "g must be a Mapping, got []"
    ),
    "index-rows-none": (
        lambda: integrate_monomial(None, 3),
        ValidationError,
        "index_rows must be a sequence of (row, column) pairs, got None",
    ),
    "experiment-grid-none": (
        lambda: convergence_experiment("bell", 2, 2, 0.5, None, 2, 0),
        ValidationError,
        "n_grid must be a sequence of integers, got None",
    ),
    "inward-only-int": (lambda: dominant_pairs(1, 2, 1), ValidationError, "inward_only must be a bool, got 1"),
    # a set grid ordered the rows by its iteration, and a set of factors merged repeated ones
    "experiment-grid-set": (
        lambda: convergence_experiment("bell", 2, 2, 0.5, {16, 8}, 2, 0),
        ValidationError,
        "n_grid must be a sequence of integers, got {",
    ),
    "index-rows-set": (
        lambda: integrate_monomial({(0, 0), (1, 1)}, 3),
        ValidationError,
        "index_rows must be a sequence of (row, column) pairs, got {",
    ),
    # an isometry was stored as given: a string or a complex array reached the lift, a NaN gave a NaN output,
    # and a spec's d could exceed kn
    "isometry-string": (lambda: ChannelSpec(2, 2, "x"), ValidationError, "isometry must be a real 2-D array, got dtype <U1"),
    "isometry-complex": (
        lambda: ChannelSpec(2, 2, np.eye(4, 2) * 1j), ValidationError, "isometry must be a real 2-D array, got dtype complex128"
    ),
    "isometry-bool": (
        lambda: ChannelSpec(2, 2, np.ones((4, 2), bool)), ValidationError, "isometry must be a real 2-D array, got dtype bool"
    ),
    "isometry-nan": (
        lambda: ChannelSpec(2, 2, np.full((4, 2), np.nan)), ValidationError, "isometry has non-finite entries"
    ),
    "isometry-wider-than-kn": (
        lambda: ChannelSpec(2, 2, np.zeros((4, 5))),
        ValidationError,
        "isometry has shape (4, 5), expected (4, d) with 1 <= d <= 4",
    ),
    "isometry-no-columns": (
        lambda: ChannelSpec(2, 2, np.zeros((4, 0))),
        ValidationError,
        "isometry has shape (4, 0), expected (4, d) with 1 <= d <= 4",
    ),
    "isometry-ragged": (
        lambda: ChannelSpec(1, 2, [[0.0], [0.0, 1.0]]),
        ValidationError,
        "isometry must be a real 2-D array, got [[0.0], [0.0, 1.0]]",
    ),
}

# powers whose exponent alone puts them over the budget: the refused count once leaked
# "Exceeds the limit (4300 digits) for integer string conversion" when it was printed
HUGE_POWERS = {
    "mc-trace-moment": (lambda r: mc_trace_moment(1, r, 2, 2, 0.5, np.eye(2) / 2, 2, 0), "lifted state tensor needs (kn)^r"),
    "mc-mean-output": (lambda r: mc_mean_output(r, 2, 2, 0.5, np.eye(2) / 2, 2, 0), "lifted state tensor needs (kn)^r"),
    "output-state-rule": (
        lambda r: output_state(make_channel(2, 2, 0.5, RngStream(0)), r, "bell"), "the output needs k^(2r)"
    ),
    "op-t": (lambda r: op_T(PartialPairing(r, ()), 2), "wiring pattern needs dim^(2pr)"),
}


class TestChannelConstruction:
    def test_dimensions(self):
        spec = make_channel(2, 4, 0.5, RngStream(0))
        assert spec.d == 4
        assert spec.isometry.shape == (8, 4)

    def test_floor(self):
        assert make_channel(2, 3, 0.9, RngStream(0)).d == 5

    def test_isometry_read_as_an_array(self):
        spec = ChannelSpec(2, 2, [[0, 0]] * 4)
        assert isinstance(spec.isometry, np.ndarray) and spec.isometry.shape == (4, 2) and spec.d == 2
        assert spec.isometry.dtype == np.float64 and not spec.isometry.flags.writeable

    def test_isometry_kept_without_a_copy_when_read_only_float(self):
        # make_channel's isometry is read-only float64 already; a writable one is copied, so the spec cannot change
        spec = make_channel(2, 4, 0.5, RngStream(0))
        assert ChannelSpec(2, 4, spec.isometry).isometry is spec.isometry
        v = np.eye(4, 2)
        kept = ChannelSpec(2, 2, v).isometry
        v[0, 0] = 5.0
        assert kept is not v and kept[0, 0] == 1.0 and not kept.flags.writeable

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
        # t is read before t*k*n is formed: d = 12 > kn = 8 at t = 1.5, and
        # floor(1.05 * 8) = 8 = kn; math.floor raises at NaN and at infinity
        for t in (1.5, 1.05, float("nan"), float("inf"), -float("inf")):
            for call in (
                lambda: input_dim(2, 4, t),
                lambda: make_channel(2, 4, t, RngStream(0)),
                lambda: exact_trace_moment(2, 1, 2, 4, t, np.eye(8)[0]),
            ):
                with pytest.raises(ValidationError, match=rf"^t must lie in \[0, 1\], got {t}$"):
                    call()

    @pytest.mark.parametrize("call, error, message", SHAPE_REFUSALS.values(), ids=SHAPE_REFUSALS.keys())
    def test_shape_refusals(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("call, message", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
    def test_integer_arguments_raise_validation_error(self, call, message):
        # neither a TypeError from deep inside nor a value for a truncated dimension
        with pytest.raises(ValidationError, match=message):
            call()

    @pytest.mark.parametrize("kind", [*NON_REALS, *NON_FINITE, "outside"])
    @pytest.mark.parametrize("call, what, bounds, outside", REAL_ARGUMENTS.values(), ids=REAL_ARGUMENTS.keys())
    def test_real_arguments_raise_validation_error(self, call, what, bounds, outside, kind):
        if kind in NON_REALS:
            value = NON_REALS[kind]
            message = f"{what} must be a real number, got {value!r}"
        else:
            value = NON_FINITE.get(kind, outside)
            message = f"{what} must lie in {bounds}, got {value}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("k, n, t, d", [(3, 30, 0.3, 27), (2, 45, 0.7, 63), (3, 60, 0.15, 27)])
    def test_input_dim_survives_round_off(self, k, n, t, d):
        # t*k*n lands just under d in floating point, e.g. 0.3*3*30 = 26.999999999999996
        assert t * k * n < d
        assert input_dim(k, n, t) == d

    def test_input_dim_at_one_third(self):
        # (1/3)*3 rounds to 1.0, while the float 1/3 times 3 is just under 1
        assert Fraction(1 / 3) * 3 < 1
        assert input_dim(3, 1, 1 / 3) == 1

    def test_input_dim_is_the_floor_at_hundredths(self):
        for k, n, i in itertools.product(range(1, 7), range(1, 201), range(1, 101)):
            d = math.floor(Fraction(i, 100) * k * n)
            if d >= 1:
                assert input_dim(k, n, i / 100) == d, (k, n, i)
            else:
                with pytest.raises(ValidationError, match="is degenerate"):
                    input_dim(k, n, i / 100)

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_input_dim_refuses_kn_beyond_its_round_off_range(self, t):
        # the relative 1e-12 lift once read floor(0.5 * 2e12) as 10**12 + 1
        with pytest.raises(ValidationError, match=r"^kn must be <= 100000000000, got 2000000000000$"):
            input_dim(2, 10**12, t)
        assert input_dim(2, 5 * 10**10, t) == int(t * 10**11)

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

    @pytest.mark.parametrize("r, columns", [(1, None), (2, None), (3, None), (4, None), (2, 2)])
    def test_output_state_is_the_samplers_draw(self, monkeypatch, r, columns):
        # output_state on stream i's channel and the Monte Carlo draw of stream i
        # share one prepared lift, so they agree bit for bit, in column blocks
        # too, and on a rule name, for which the sampler draws only the
        # isometry columns the rule reads
        k, n, t, seed = 2, 3, 0.5, 23
        if columns:
            monkeypatch.setattr(channels, "OUTPUT_TENSOR_BUDGET", columns * (k * n) ** r)
        inputs = {**self._inputs(input_dim(k, n, t), r), "bell": "bell", "product": "product"}
        for i, (label, state) in enumerate(inputs.items()):
            single = output_state(make_channel(k, n, t, RngStream(seed, i)), r, state)
            _, draw = _output_draw(r, k, n, t, state)
            sampled = draw(_stream_generators(seed, i, i + 1), 1)[0].astype(complex)
            assert single.tobytes() == sampled.tobytes(), label


class TestRuleOutputs:
    """output_state on a rule name: the Kronecker product of the rule's block outputs."""

    @pytest.mark.parametrize("rule", ["bell", "product"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("k, n", [(2, 3), (2, 5), (3, 2), (3, 4)])
    def test_block_outputs_match_the_dense_input(self, rule, r, k, n):
        for seed in (0, 31):
            spec = make_channel(k, n, 0.5, RngStream(seed, r))
            dense = output_state(spec, r, experiment_input(rule, r, spec.d))
            blocks = output_state(spec, r, rule)
            assert blocks.dtype == complex and blocks.shape == dense.shape == (k**r, k**r)
            assert np.max(np.abs(blocks - dense)) < 1e-14, seed

    @pytest.mark.parametrize("rule", ["bell", "product"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("k, n", [(2, 4), (3, 2)])
    def test_estimators_on_a_name_match_the_dense_input(self, rule, r, k, n):
        # the same streams drive both; only the route from isometry to output differs
        t, samples, seed = 0.5, 40, 17
        dense = experiment_input(rule, r, input_dim(k, n, t))
        named, reference = (mc_trace_moment(2, r, k, n, t, x, samples, seed)[0] for x in (rule, dense))
        assert abs(named - reference) <= 1e-12 * abs(reference)
        named, reference = (mc_mean_output(r, k, n, t, x, samples, seed)[0] for x in (rule, dense))
        assert np.max(np.abs(named - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("rule", ["bogus", "Bell", ""])
    def test_unknown_rule_refused(self, rule):
        spec = make_channel(2, 3, 0.5, RngStream(0))
        message = f"^unknown input rule {re.escape(repr(rule))}; use bell or product$"
        with pytest.raises(ValidationError, match=message):
            output_state(spec, 2, rule)

    def test_r_refused_before_the_rule(self):
        spec = make_channel(2, 3, 0.5, RngStream(0))
        with pytest.raises(ValidationError, match="r must be >= 1, got 0"):
            output_state(spec, 0, "bogus")

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 8, 32, 128])
    def test_one_column_draw_is_the_channels_first_column(self, k, n):
        # the QR of the first Gaussian column alone gives make_channel's
        # column 0 bit for bit, which the product rule's experiment relies on
        for seed, stream in [(7, 0), (7, 5), (0, 2**40)]:
            column = _haar_columns([RngStream(seed, stream).generator()], 1, k * n, 1)[0]
            spec = make_channel(k, n, 0.5, RngStream(seed, stream))
            assert column.shape == (k * n, 1)
            assert column.tobytes() == spec.isometry[:, :1].tobytes(), (seed, stream)

    def test_output_sized_before_it_is_built(self):
        # k^(2r) = 2^26 at r = 13: refused before any block is multiplied out
        spec = make_channel(2, 2, 0.5, RngStream(0))
        with pytest.raises(BudgetError, match=f"^the output needs k\\^\\(2r\\) = {2**26} entries"):
            output_state(spec, 13, "product")


_BLAS_THREADS_SCRIPT = """
import numpy as np
from orthochan.asymptotics import convergence_experiment
from orthochan.channels import mc_mean_output, mc_trace_moment
exp = convergence_experiment("bell", 2, 2, 0.5, (8, 64), samples=3, seed=4)
print(repr(exp.rows))
for r in (2, 3):
    print(repr(convergence_experiment("product", r, 2, 0.5, (8, 128), samples=3, seed=4).rows))
print(repr(mc_trace_moment(2, 2, 2, 4, 0.5, np.eye(16) / 16, samples=300, seed=5)))
print(repr([x.tolist() for x in mc_mean_output(2, 2, 4, 0.5, np.eye(16) / 16, samples=2100, seed=6)]))
"""


def _library_env(**settings: str) -> dict[str, str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(settings)
    return env


def _run_with_blas_threads(threads: int, script: str = _BLAS_THREADS_SCRIPT) -> str:
    env = _library_env(
        ORTHOCHAN_THREADS="1", OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads)
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_results_independent_of_blas_thread_count():
    one = _run_with_blas_threads(1)
    assert one.count("\n") == 5
    assert one == _run_with_blas_threads(2)


_ODD_R_BLAS_SCRIPT = """
from orthochan.asymptotics import convergence_experiment
print(repr(convergence_experiment("bell", 3, 2, 0.5, (8,), 20, 0).rows))
"""


def test_odd_r_bell_experiment_independent_of_blas_thread_count():
    # a dense odd-r Bell input was factored by eigh, whose basis of the
    # degenerate spectrum at n = 8 moved with the BLAS thread count
    one = _run_with_blas_threads(1, _ODD_R_BLAS_SCRIPT)
    assert one.count("\n") == 1
    assert one == _run_with_blas_threads(2, _ODD_R_BLAS_SCRIPT)


_ODD_R_SIMULATE_SCRIPT = """
from orthochan.cli import main
main("simulate --p 2 --r 3 --k 2 --n 8 --t 0.5 --samples 2000 --seed 7 --input bell".split())
"""


def test_odd_r_bell_simulate_independent_of_blas_thread_count():
    # simulate passes the rule name, so no dense 512 x 512 input is factored by eigh
    one = _run_with_blas_threads(1, _ODD_R_SIMULATE_SCRIPT)
    assert one.count("\n") == 1
    assert one == _run_with_blas_threads(2, _ODD_R_SIMULATE_SCRIPT)


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


def test_odd_r_bell_experiment_runs_without_a_dense_input():
    # the d^6 = 40^6 input this run once needed was refused; its outputs are built from blocks now
    command = "experiment --rule bell --r 3 --k 2 --t 0.5 --n 40 --samples 2"
    done = _run_limited(["-m", "orthochan.cli", *command.split()])
    assert done.returncode == 0 and "error" not in done.stderr, done.stderr
    assert [line.split(",")[:2] for line in done.stdout.splitlines()[-2:]] == [["40", "0"], ["40", "1"]]


@pytest.mark.parametrize("call, what", HUGE_POWERS.values(), ids=HUGE_POWERS.keys())
def test_huge_powers_are_refused_unbuilt(call, what):
    with pytest.raises(BudgetError, match=f"^{re.escape(what)} = at least 2\\^100 entries, above budget 16777216$"):
        call(10**4)


def test_size_check_does_not_build_a_power_beyond_the_budget():
    # 4^(10^8) would take 25 MB to build and far more to print
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"^x = at least 2\^100 entries, above budget 16777216$"):
            checked_size(4, 10**8, "x")
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    # below 2^100 the count is built and printed in full, whatever the exponent
    with pytest.raises(BudgetError, match=f"^x = {3**26} entries, above budget 16777216$"):
        checked_size(3, 26, "x")
    assert checked_size(1, 10**8, "x") == 1


def test_size_at_its_budget_is_accepted():
    assert checked_size(2, 24, "x") == 2**24
    with pytest.raises(BudgetError, match=r"^x = 16777217 entries, above budget 16777216$"):
        checked_size(2**24 + 1, 1, "x")


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
