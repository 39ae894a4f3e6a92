"""Acceptance checks binding the library to its quantitative contract.

Each criterion is one function of the seed returning ``(passed, detail)``,
registered with its name by ``_criterion``; its number is its definition
order.  The detail string is deterministic (no timestamps, fixed formatting),
so a report built twice from the same seed is byte-identical.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .asymptotics import (
    convergence_experiment,
    entropy_extremal,
    experiment_input,
    isotropic_entropy,
    maximal_block,
    op_Q_tilde,
    op_R_tilde,
    op_S_tilde,
    von_neumann_entropy,
)
from .channels import THREADS_ENV_VAR, RngStream, input_dim, mc_conjugation_mean, mc_trace_moment
from .moments import exact_trace_moment, term_report
from .pairings import (
    _type_representatives,
    bumps,
    connected_components,
    enumerate_pairings,
    enumerate_partial_pairings,
    min_transverse_distance,
)
from .weingarten import wg_asymptotic, wg_exact


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


CRITERIA = []


def _criterion(name: str):
    """Register a ``(seed) -> (passed, detail)`` check as the next numbered criterion."""

    def register(check):
        index = len(CRITERIA) + 1

        @functools.wraps(check)
        def run(seed: int) -> CriterionResult:
            passed, detail = check(seed)
            return CriterionResult(index, name, passed, detail)

        CRITERIA.append(run)
        return run

    return register


def _fmt(x: float) -> str:
    return f"{x:.6g}"


@_criterion("pairing-graph components equal half the product cycle count")
def criterion_1_components(seed: int) -> tuple[bool, str]:
    """Component count of the two-matching graph equals half the product cycles."""
    checked = 0
    mismatches = 0
    for m in range(1, 5):
        pairings = enumerate_pairings(m)
        for a in pairings:
            for b in pairings:
                checked += 1
                via_graph = connected_components(a, b)
                via_cycles = a.compose(b).cycle_count() // 2
                if via_graph != via_cycles:
                    mismatches += 1
    return mismatches == 0, f"checked {checked} pairs up to 2m=8, mismatches {mismatches}"


def _minimizer_structure_ok(beta, tau) -> bool:
    transverse_pairs = [p for p in beta.pairs if p[0] % 2 != p[1] % 2]
    r_bumps = [p for p in beta.pairs if p[0] % 2 == 1 and p[1] % 2 == 1]
    l_bumps = [set(p) for p in beta.pairs if p[0] % 2 == 0 and p[1] % 2 == 0]
    if not all(tau.images[a] == b for a, b in transverse_pairs):
        return False
    return all(
        any({tau.images[x], tau.images[y]} == lb for lb in l_bumps) for x, y in r_bumps
    )


@_criterion("transverse minimum equals twice the bump count with the matched-bump minimizers")
def criterion_2_bumps(seed: int) -> tuple[bool, str]:
    """Brute-forced transverse minimum equals twice the bump count, minimizers included."""
    checked = 0
    bad = 0
    for q in range(1, 5):
        for beta in enumerate_pairings(q):
            checked += 1
            minimum, minimizers = min_transverse_distance(beta, 1, q)
            flats = bumps(beta, 1, q)
            structural = all(_minimizer_structure_ok(beta, tau) for tau in minimizers)
            expected_count = math.factorial(flats) * 2**flats
            if minimum != 2 * flats or not structural or len(minimizers) != expected_count:
                bad += 1
    return bad == 0, f"checked {checked} pairings up to q=4, failures {bad}"


@_criterion("exact trace moments match Monte Carlo within 3 standard errors")
def criterion_3_exactness(seed: int) -> tuple[bool, str]:
    """Exact Weingarten sums agree with Monte Carlo at 1e5 samples."""
    samples = 100_000
    runs = []
    for (p, r, k, n, t), tag in (
        ((2, 1, 2, 3, 0.5), "r1"),
        ((2, 2, 2, 4, 0.5), "r2"),
    ):
        d = input_dim(k, n, t)
        for rule in ("bell", "product"):
            state = experiment_input(rule, r, d)
            exact = exact_trace_moment(p, r, k, n, t, state)
            est, se = mc_trace_moment(p, r, k, n, t, state, samples, seed)
            runs.append((tag, rule, exact, est, se, abs(exact - est) / se))
    p1 = exact_trace_moment(1, 2, 2, 4, 0.5, experiment_input("bell", 2, 4))
    p1_ok = abs(p1 - 1.0) <= 1e-10
    ok = p1_ok and all(z <= 3.0 for *_, z in runs)
    detail = "; ".join(
        f"{tag}/{rule}: exact {_fmt(exact)} mc {_fmt(est)}+-{_fmt(se)} z {_fmt(z)}"
        for tag, rule, exact, est, se, z in runs
    )
    return ok, f"p=1 exact {p1!r}; {detail}"


@_criterion("Weingarten asymptotics within 2% at n=1000 and decaying like 1/n")
def criterion_4_wg_asymptotics(seed: int) -> tuple[bool, str]:
    """Exact/asymptotic Weingarten ratio near one with O(1/n) decay."""
    n1, n2 = 1000, 2000
    worst_dev = 0.0
    worst_ratio = 0.0
    ok = True
    for m in range(1, 4):
        # both tables are class functions: one pair of each coset type covers every entry
        pairings = enumerate_pairings(m)
        w1, w2 = wg_exact(m, n1).coefficients, wg_exact(m, n2).coefficients
        for kind, rep in enumerate(_type_representatives(m)):
            dev1 = abs(w1[kind] / wg_asymptotic(pairings[0], pairings[rep], n1) - 1.0)
            dev2 = abs(w2[kind] / wg_asymptotic(pairings[0], pairings[rep], n2) - 1.0)
            worst_dev = max(worst_dev, dev1)
            if dev1 <= 1e-12:
                ok = ok and dev2 <= 1e-12
            else:
                worst_ratio = max(worst_ratio, dev2 / dev1)
                ok = ok and dev2 <= 0.6 * dev1
            ok = ok and dev1 <= 0.02
    return ok, f"max deviation {_fmt(worst_dev)} (cap 0.02), max decay ratio {_fmt(worst_ratio)} (cap 0.6)"


@_criterion("rotation average of a fixed matrix equals Tr(A)/n times the identity")
def criterion_5_showcase(seed: int) -> tuple[bool, str]:
    """Monte Carlo mean of U A U^T equals Tr(A)/n * I entrywise."""
    n = 10
    a = RngStream(seed, 900_000).generator().standard_normal((n, n))
    mean, stderr = mc_conjugation_mean(a, 100_000, seed)
    target = np.trace(a) / n * np.eye(n)
    z = np.abs(mean - target) / stderr
    worst = float(z.max())
    return worst <= 3.0, f"max entrywise z {_fmt(worst)} over {n}x{n} at 1e5 samples"


@_criterion("Moebius inversion round trips, traces, and the identity resolution at d=8")
def criterion_6_mobius_algebra(seed: int) -> tuple[bool, str]:
    """Partial-pairing Moebius inversion identities hold to 1e-12."""
    worst = 0.0
    for r in range(1, 5):
        blocks = enumerate_partial_pairings(r)
        for k in (2, 3):
            for t in (0.3, 0.7):
                for block in blocks:
                    s = op_S_tilde(block, k, t)
                    subsum = np.zeros_like(s)
                    back = np.zeros_like(s)
                    for sub in block.sub_blocks():
                        subsum += op_R_tilde(sub, k, t)
                        back += (-1) ** (block.n_pairs - sub.n_pairs) * op_S_tilde(sub, k, t)
                    worst = max(worst, float(np.max(np.abs(s - subsum))))
                    worst = max(worst, float(np.max(np.abs(op_R_tilde(block, k, t) - back))))
                    trace_target = 1.0 if block.n_pairs == 0 else 0.0
                    worst = max(worst, abs(float(np.trace(op_R_tilde(block, k, t)).real) - trace_target))
    d = 8
    for r in range(1, 5):
        total = np.zeros((d**r, d**r))
        for block in enumerate_partial_pairings(r):
            total += op_Q_tilde(block, d)
        total.ravel()[:: d**r + 1] -= 1.0  # minus the identity, and its |entries|, in place: no d^2r temporaries
        worst = max(worst, float(np.abs(total, out=total).max()))
    return worst <= 1e-12, f"max deviation {worst:.3e} over r<=4, k=2,3, t=0.3,0.7"


@_criterion("extremal-state entropies match the closed form and pin 1.0735 nats")
def criterion_7_extremal_entropy(seed: int) -> tuple[bool, str]:
    """Closed-form entropies of the extremal states match eigen-entropies."""
    worst = 0.0
    for r in range(1, 5):
        for k in (2, 3):
            for t in (0.3, 0.5, 0.7):
                for block in enumerate_partial_pairings(r):
                    eig = von_neumann_entropy(op_S_tilde(block, k, t))
                    closed = entropy_extremal(block, k, t)
                    worst = max(worst, abs(eig - closed))
    maximal = entropy_extremal(maximal_block(2), 2, 0.5)
    ok = worst <= 1e-10 and abs(maximal - 1.0735) <= 1e-3
    return ok, f"max |eigen - closed| {worst:.3e}; maximal-pair value {_fmt(maximal)} nats"


@_criterion("output distance to the convex body shrinks with n on Bell inputs")
def criterion_8_body_convergence(seed: int) -> tuple[bool, str]:
    """Median distance to the body strictly decreases along n = 32, 64, 128."""
    result = convergence_experiment("bell", 2, 2, 0.5, (32, 64, 128), 100, seed)
    medians = [row["dist_median"] for row in result.summary]
    ok = medians[0] > medians[1] > medians[2]
    return ok, "medians " + ", ".join(_fmt(m) for m in medians)


@_criterion("Bell inputs give lower output entropy than product inputs at n=128")
def criterion_9_entropy_ordering(seed: int) -> tuple[bool, str]:
    """At n=128 Bell inputs beat product inputs in mean entropy, near the target."""
    samples = 100
    bell = convergence_experiment("bell", 2, 2, 0.5, (128,), samples, seed)
    prod = convergence_experiment("product", 2, 2, 0.5, (128,), samples, seed + 1)
    h_bell = np.array([row[3] for row in bell.rows])
    h_prod = np.array([row[3] for row in prod.rows])
    gap = float(h_prod.mean() - h_bell.mean())
    pooled = math.sqrt(h_bell.var(ddof=1) / samples + h_prod.var(ddof=1) / samples)
    target = isotropic_entropy(2, 0.5)
    near = abs(float(h_bell.mean()) - target) <= 0.1
    ok = gap > 3.0 * pooled and near
    return ok, (
        f"gap {_fmt(gap)} vs 3*stderr {_fmt(3 * pooled)}; mean Bell entropy "
        f"{_fmt(float(h_bell.mean()))} vs target {_fmt(target)}"
    )


def _q_spectrum_distance(r: int, d: int) -> float:
    worst = 0.0
    for block in enumerate_partial_pairings(r):
        eigs = np.linalg.eigvalsh(op_Q_tilde(block, d))
        worst = max(worst, float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1.0)))))
    return worst


@_criterion("spectral distance of the Q family to {0, 1}: zero at r=2, shrinking at r=3")
def criterion_10_q_spectrum(seed: int) -> tuple[bool, str]:
    """Spectra of the identity-resolving family sit on or approach {0, 1}.

    At r=2 the family is exactly projective, so the distance is zero at every
    d (asserted to 1e-12, which subsumes any decrease); the genuine O(1/d)
    decay shows up from r=3 on, where strict decrease is asserted.
    """
    dists_r2 = [_q_spectrum_distance(2, d) for d in (8, 16, 32)]
    dists_r3 = [_q_spectrum_distance(3, d) for d in (4, 8, 12)]
    ok = max(dists_r2) <= 1e-12 and dists_r3[0] > dists_r3[1] > dists_r3[2]
    return ok, (
        "r=2 (d=8,16,32): " + ", ".join(f"{x:.2e}" for x in dists_r2)
        + "; r=3 (d=4,8,12): " + ", ".join(_fmt(x) for x in dists_r3)
    )


@contextlib.contextmanager
def _with_threads(value: str):
    old = os.environ.get(THREADS_ENV_VAR)
    os.environ[THREADS_ENV_VAR] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(THREADS_ENV_VAR, None)
        else:
            os.environ[THREADS_ENV_VAR] = old


@_criterion("repeated runs and thread-count changes leave every number bitwise intact")
def criterion_11_determinism(seed: int) -> tuple[bool, str]:
    """Same seed gives bitwise-equal numbers; thread count changes nothing."""
    rho = np.eye(3) / 3
    with _with_threads("1"):
        a1 = mc_trace_moment(2, 1, 2, 3, 0.5, rho, 3000, seed)
        e1 = convergence_experiment("bell", 2, 2, 0.5, (16, 24), 20, seed)
    with _with_threads("1"):
        a2 = mc_trace_moment(2, 1, 2, 3, 0.5, rho, 3000, seed)
    with _with_threads("4"):
        a3 = mc_trace_moment(2, 1, 2, 3, 0.5, rho, 3000, seed)
        e3 = convergence_experiment("bell", 2, 2, 0.5, (16, 24), 20, seed)
    terms1 = term_report(2, 1, 2, 3, 0.5, rho)
    terms2 = term_report(2, 1, 2, 3, 0.5, rho)
    repeat_ok = repr(a1) == repr(a2) and terms1 == terms2
    threads_ok = repr(a1) == repr(a3) and repr(e1.rows) == repr(e3.rows)
    return repeat_ok and threads_ok, f"repeat bitwise equal {repeat_ok}, thread-count invariant {threads_ok}"


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [fn(seed) for fn in CRITERIA]


def report_text(results: list[CriterionResult], seed: int) -> str:
    lines = [f"orthochan {__version__} verification report (seed {seed})"]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"criterion {res.index:02d} {status} {res.name}: {res.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"
