"""The benchmark's three workloads: inputs, reference values, ops and checks.

A worker process sets a workload up once (imports, input states, reference
values, a small warm-up) and then runs one round: a fixed list of ops, each a
call into orthochan's public API followed by a check of its output.  Inputs
are a pure function of (seed, round index).

The library is reached through module attributes looked up at call time
(``channels.mc_trace_moment``), so the tracer in ``spans.py`` can wrap the
same names the library itself looks up.

Workloads, and why each was chosen:

* ``mc_small_dim``: the Monte Carlo estimators at kn <= 10 over many samples.
  Per-sample stream setup and the batched small QR dominate and the lift is
  tiny; ``mc_mean_output`` and ``mc_conjugation_mean`` keep a
  samples x dim x dim array alive, so memory grows with the sample count.
* ``experiment_large_n``: ``convergence_experiment`` at n = 32, 64, 128.  Few
  draws at kn up to 256, dominated by the channel lift and the full QR;
  stream setup is negligible and the exact engine is not called.
* ``exact_engine``: ``exact_trace_moment`` at 2pr = 10 for n = 2..5, each n a
  fresh (cold) Weingarten table that then serves several inputs (warm), plus
  one ``term_report`` on a warm table.  Monte Carlo is not called.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SCALES = ("full", "tiny")

# A Monte Carlo estimate passes when it lies within Z_MAX standard errors of
# its exact value, entry by entry.  The Gaussian tail beyond 6 is 2e-9 per
# entry; a run checks a few hundred entries per round and a comparison of
# two commits makes hundreds of runs, so a 3-sigma gate (0.27% per entry)
# would fail correct code many times over.  A genuine bias is many standard
# errors at these sample counts.
Z_MAX = 6.0
EXACT_ZERO_TOL = 1e-12  # entries whose sample spread is exactly zero
TRACE_ONE_TOL = 1e-10   # p = 1 moments reproduce trace preservation
REFERENCE_RTOL = 1e-9   # stored exact moments, relative

# Exact E Tr Z^p at r = 1, k = 2, t = 1/2, recorded from the seed commit of
# this benchmark, keyed by (p, n, input).  A random real input must match the
# basis input: V and V O have the same law for any orthogonal O on R^d.
EXACT_REFERENCES = {
    (5, 2, "mixed"): 0.2347222222222227,
    (5, 2, "basis"): 0.645833333333335,
    (5, 3, "mixed"): 0.13128306878306853,
    (5, 3, "basis"): 0.47916666666666663,
    (5, 4, "mixed"): 0.10025510204081625,
    (5, 4, "basis"): 0.3839285714285718,
    (5, 5, "mixed"): 0.08650493025492838,
    (5, 5, "basis"): 0.32291666666666685,
    (3, 1, "mixed"): 1.0,
    (3, 1, "basis"): 1.0,
    (3, 2, "mixed"): 0.41666666666666674,
    (3, 2, "basis"): 0.7500000000000002,
    (3, 3, "mixed"): 0.325,
    (3, 3, "basis"): 0.6250000000000008,
}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    """One timed library call and the check applied to its output."""

    name: str
    work: int  # Haar draws, or exact moments and reports, the call completes
    call: Callable[[], object]
    check: Callable[[object], None]


def derived_seed(seed: int, round_index: int, slot: int) -> int:
    """Library seed for one op of one round, a pure function of its arguments."""
    return int(np.random.SeedSequence([seed, round_index, slot]).generate_state(1)[0])


def _within_z(est, se, exact, label: str) -> None:
    dev = np.abs(np.asarray(est) - np.asarray(exact))
    se = np.asarray(se)
    bad = np.where(se > 0, dev > Z_MAX * se, dev > EXACT_ZERO_TOL)
    if np.any(bad):
        z = float(np.max(np.where(se > 0, dev / np.where(se > 0, se, 1.0), np.inf)))
        raise CheckFailed(f"{label}: {int(np.sum(bad))} entries beyond {Z_MAX} standard errors (max z {z:.3g})")


def _close(value: float, ref: float, rtol: float, label: str) -> None:
    if not abs(value - ref) <= rtol * abs(ref):
        raise CheckFailed(f"{label}: {value!r} differs from reference {ref!r} beyond relative {rtol}")


# --- mc_small_dim -----------------------------------------------------------


def _mc_small_dim(seed: int, round_index: int, scale: str) -> list[Op]:
    from orthochan import asymptotics, channels, moments
    from orthochan.pairings import PartialPairing

    samples = {"full": 20_000, "tiny": 400}[scale]
    mixed = np.eye(3) / 3
    bell = asymptotics.bell_state_vector(PartialPairing(2, ((0, 1),)), 4)
    product = asymptotics.basis_product_state(4, 2)
    a = np.random.default_rng(derived_seed(seed, round_index, 99)).standard_normal((10, 10))
    moment_cases = (
        ("trace_moment_r1_mixed", (2, 1, 2, 3, 0.5, mixed)),
        ("trace_moment_r2_bell", (2, 2, 2, 4, 0.5, bell)),
        ("trace_moment_r2_product", (2, 2, 2, 4, 0.5, product)),
    )
    refs = {name: moments.exact_trace_moment(*args) for name, args in moment_cases}
    mean_ref = moments.exact_mean_output(2, 2, 4, 0.5, bell)
    conj_ref = np.trace(a) / 10 * np.eye(10)

    def ops(count: int) -> list[Op]:
        out = []
        for slot, (name, args) in enumerate(moment_cases):
            s = derived_seed(seed, round_index, slot)
            out.append(Op(
                name, count,
                lambda args=args, s=s: channels.mc_trace_moment(*args, count, s),
                lambda res, name=name: _within_z(res[0], res[1], refs[name], name),
            ))
        s = derived_seed(seed, round_index, 3)
        out.append(Op(
            "mean_output_r2_bell", count,
            lambda: channels.mc_mean_output(2, 2, 4, 0.5, bell, count, s),
            lambda res: _within_z(res[0], res[1], mean_ref, "mean_output_r2_bell"),
        ))
        s = derived_seed(seed, round_index, 4)
        out.append(Op(
            "conjugation_mean_10", count,
            lambda: channels.mc_conjugation_mean(a, count, s),
            lambda res: _within_z(res[0], res[1], conj_ref, "conjugation_mean_10"),
        ))
        return out

    for op in ops(64):  # warm-up
        op.call()
    return ops(samples)


# --- experiment_large_n -----------------------------------------------------


def _experiment_large_n(seed: int, round_index: int, scale: str) -> list[Op]:
    from orthochan import asymptotics

    n_grid, samples = {"full": ((32, 64, 128), 40), "tiny": ((8, 64), 6)}[scale]
    results = {}

    def run(rule: str, slot: int, grid, count: int):
        def call():
            res = asymptotics.convergence_experiment(
                rule, 2, 2, 0.5, grid, count, derived_seed(seed, round_index, slot)
            )
            results[rule] = res
            return res
        return call

    def falling_medians(res) -> None:
        medians = [row["dist_median"] for row in res.summary]
        if not all(a > b for a, b in zip(medians, medians[1:])):
            raise CheckFailed(f"bell median distances do not fall along n: {medians}")

    def bell_below_product(res) -> None:
        if "bell" not in results:
            raise CheckFailed("no bell result to compare the product entropy against")
        n_last = n_grid[-1]
        h_bell = np.array([row[3] for row in results["bell"].rows if row[0] == n_last])
        h_prod = np.array([row[3] for row in res.rows if row[0] == n_last])
        gap = float(h_prod.mean() - h_bell.mean())
        pooled = math.sqrt(h_bell.var(ddof=1) / h_bell.size + h_prod.var(ddof=1) / h_prod.size)
        if not gap > 3.0 * pooled:
            raise CheckFailed(f"bell entropy not below product at n={n_last}: gap {gap:.3g}, 3*se {3 * pooled:.3g}")

    run("bell", 0, (8,), 2)()  # warm-up
    run("product", 1, (8,), 2)()
    results.clear()
    draws = len(n_grid) * samples
    return [
        Op("experiment_bell", draws, run("bell", 0, n_grid, samples), falling_medians),
        Op("experiment_product", draws, run("product", 1, n_grid, samples), bell_below_product),
    ]


# --- exact_engine -----------------------------------------------------------


def _exact_engine(seed: int, round_index: int, scale: str) -> list[Op]:
    from orthochan import asymptotics, moments

    # n = 2 gives kn = 4 < m = 5, a rank-deficient Gram matrix; the Gram
    # matrix at half-size m is singular exactly when kn < m.
    p, n_grid = {"full": (5, (2, 3, 4, 5)), "tiny": (3, (1, 2, 3))}[scale]
    k, t, cap = 2, 0.5, 2 * p
    rng = np.random.default_rng(derived_seed(seed, round_index, 0))
    out = []
    for n in n_grid:
        d = math.floor(t * k * n)
        mixed = np.eye(d) / d
        basis = asymptotics.basis_product_state(d, 1)
        random_real = rng.standard_normal(d)
        random_real /= np.linalg.norm(random_real)
        ref_mixed = EXACT_REFERENCES[(p, n, "mixed")]
        ref_basis = EXACT_REFERENCES[(p, n, "basis")]
        for name, state, ref in (
            ("mixed", mixed, ref_mixed),  # first op at this n builds the table
            ("basis", basis, ref_basis),
            ("random_real", random_real, ref_basis),
        ):
            label = f"moment_p{p}_n{n}_{name}"
            out.append(Op(
                label, 1,
                lambda state=state, n=n: moments.exact_trace_moment(p, 1, k, n, t, state, cap=cap),
                lambda value, ref=ref, label=label: _close(value, ref, REFERENCE_RTOL, label),
            ))
        # p = 1 with r = p copies: the same 2pr, served by the same table
        ones = asymptotics.basis_product_state(d, p)
        label = f"moment_p1_r{p}_n{n}"
        out.append(Op(
            label, 1,
            lambda ones=ones, n=n: moments.exact_trace_moment(1, p, k, n, t, ones, cap=cap),
            lambda value, label=label: _close(value, 1.0, TRACE_ONE_TOL, label),
        ))

    n_last = n_grid[-1]
    d_last = math.floor(t * k * n_last)
    pairings = math.prod(range(1, 2 * p, 2))

    def report_check(terms) -> None:
        if len(terms) != pairings**2:
            raise CheckFailed(f"term report has {len(terms)} terms, expected {pairings ** 2}")
        total = sum(term.value for term in terms)
        _close(total.real, EXACT_REFERENCES[(p, n_last, "mixed")], REFERENCE_RTOL, "term_report sum")

    out.append(Op(
        f"term_report_p{p}_n{n_last}", 1,
        lambda: moments.term_report(p, 1, k, n_last, t, np.eye(d_last) / d_last, cap=cap),
        report_check,
    ))
    moments.exact_trace_moment(2, 1, 2, 3, 0.5, np.eye(3) / 3)  # warm-up, a small table
    return out


WORKLOADS: dict[str, Callable[[int, int, str], list[Op]]] = {
    "mc_small_dim": _mc_small_dim,
    "experiment_large_n": _experiment_large_n,
    "exact_engine": _exact_engine,
}


def setup(workload: str, seed: int, round_index: int, scale: str) -> list[Op]:
    """Set a workload up and return the ops of one round."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; use one of {SCALES}")
    return WORKLOADS[workload](seed, round_index, scale)
