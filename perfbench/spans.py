"""Spans and counts at orthochan's layer boundaries, recorded from outside.

The tracer replaces a public name with a timing wrapper in the module where
the name is looked up.  A from-import binds the name per module, so
``connected_components`` is wrapped in both ``orthochan.weingarten`` and
``orthochan.moments``, and ``output_state`` in ``orthochan.asymptotics``.
A boundary that the library no longer has makes ``install`` raise, so that a
renamed or removed function stops the traced run instead of reading zero.

Coarse calls become spans (name, start, end, parent), kept in memory until
the round ends.  Hot leaf calls (per-sample stream setup, the Gram build's
component counts, ``f_beta``) are only counted and timed, and their time is
charged to the enclosing span, so that self times stay exact without storing
a span per call.  Tracing assumes one thread, which the benchmark enforces
with ORTHOCHAN_THREADS=1.
"""
from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    index: int
    parent: int | None  # index into Tracer.spans of the enclosing span
    start: float
    end: float = 0.0
    child_seconds: float = 0.0
    tracer_seconds: float = 0.0  # result hooks run inside this span

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.tracer_seconds

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


def _count_projection(tracer: "Tracer", args, result) -> None:
    tracer.counts["asymptotics.projection_iterations"] += result.iterations
    tracer.counts["asymptotics.projection_unconverged"] += not result.converged


def _count_singular_gram(tracer: "Tracer", args, result) -> None:
    # the library's own pseudo-inverse cutoff decides which eigenvalues it drops
    cutoff = importlib.import_module("orthochan.weingarten").GRAM_EIGENVALUE_CUTOFF
    w = np.abs(np.linalg.eigvalsh(result))
    tracer.counts["weingarten.singular_builds"] += bool(np.any(w <= cutoff * w.max()))


# (module, attribute path, span name, leaf, result hook)
BOUNDARIES = (
    ("orthochan.channels", "mc_trace_moment", "channels.mc_trace_moment", False, None),
    ("orthochan.channels", "mc_mean_output", "channels.mc_mean_output", False, None),
    ("orthochan.channels", "mc_conjugation_mean", "channels.mc_conjugation_mean", False, None),
    ("orthochan.channels", "RngStream.generator", "channels.stream_setup", True, None),
    ("orthochan.asymptotics", "convergence_experiment", "asymptotics.convergence_experiment", False, None),
    ("orthochan.asymptotics", "make_channel", "channels.make_channel", False, None),
    ("orthochan.asymptotics", "output_state", "channels.output_state", False, None),
    ("orthochan.asymptotics", "project_to_body", "asymptotics.project", False, _count_projection),
    ("orthochan.asymptotics", "von_neumann_entropy", "asymptotics.entropy", False, None),
    ("orthochan.moments", "exact_trace_moment", "moments.exact_trace_moment", False, None),
    ("orthochan.moments", "term_report", "moments.term_report", False, None),
    ("orthochan.moments", "f_beta", "moments.f_beta", True, None),
    ("orthochan.moments", "wg_exact", "weingarten.wg_exact", False, None),
    ("orthochan.moments", "enumerate_pairings", "pairings.enumerate", False, None),
    ("orthochan.moments", "connected_components", "pairings.connected_components", True, None),
    ("orthochan.weingarten", "gram_matrix", "weingarten.gram", False, _count_singular_gram),
    ("orthochan.weingarten", "enumerate_pairings", "pairings.enumerate", False, None),
    ("orthochan.weingarten", "connected_components", "pairings.connected_components", True, None),
)

COUNTS = (
    "asymptotics.projection_iterations",
    "asymptotics.projection_unconverged",
    "weingarten.singular_builds",
)


class Tracer:
    """Installs timing wrappers at BOUNDARIES and collects what they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[str, list[float]] = {}  # name -> [calls, seconds]
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self.origin = perf_counter()

    def _charge_parent(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1].child_seconds += seconds

    def _leaf(self, fn, name):
        totals = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                totals[0] += 1
                totals[1] += seconds
                self._charge_parent(seconds)

        return wrapper

    def _span(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].index if self._stack else None
            span = Span(name, len(self.spans), parent, perf_counter())
            self._stack.append(span)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self._charge_parent(span.seconds)
            if hook is not None:
                start = perf_counter()
                hook(self, args, result)
                spent = perf_counter() - start
                for outer in self._stack:
                    outer.tracer_seconds += spent
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary; raise LookupError, wrapping none, if one is missing."""
        missing = []
        for module_name, path, name, leaf, hook in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._leaf(fn, name) if leaf else self._span(fn, name, hook)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        if missing:
            self.uninstall()
            raise LookupError(f"layer boundaries not in the library: {', '.join(missing)}; "
                              "update BOUNDARIES in perfbench/spans.py")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def records(self) -> list[list]:
        """Every span as [name, parent index, start, end, self seconds], times from install."""
        return [[s.name, s.parent, s.start - self.origin, s.end - self.origin, s.self_seconds]
                for s in self.spans]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per boundary name: calls, seconds and self seconds."""
        out = {name: {"calls": calls, "seconds": secs, "self_seconds": secs}
               for name, (calls, secs) in self.leaves.items()}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += span.seconds
            entry["self_seconds"] += span.self_seconds
        return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _get(summary, name, key):
    return summary.get(name, {}).get(key, 0)


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round, by the names in BENCHMARK.json."""
    def secs(name):
        return float(_get(summary, name, "seconds"))

    def self_secs(name):
        return float(_get(summary, name, "self_seconds"))

    def calls(name):
        return int(_get(summary, name, "calls"))

    m = {
        "channels.streams": calls("channels.stream_setup"),
        "channels.stream_setup_s": secs("channels.stream_setup"),
    }
    for est in ("mc_trace_moment", "mc_mean_output", "mc_conjugation_mean", "make_channel"):
        m[f"channels.{est}_s"] = secs(f"channels.{est}")
        m[f"channels.{est}_self_s"] = self_secs(f"channels.{est}")
    m["channels.output_state_s"] = secs("channels.output_state")
    m["asymptotics.convergence_experiment_s"] = secs("asymptotics.convergence_experiment")
    m["asymptotics.convergence_experiment_self_s"] = self_secs("asymptotics.convergence_experiment")
    m["asymptotics.project_s"] = secs("asymptotics.project")
    m["asymptotics.projection_calls"] = calls("asymptotics.project")
    m["asymptotics.projection_iterations"] = counts["asymptotics.projection_iterations"]
    m["asymptotics.projection_unconverged"] = counts["asymptotics.projection_unconverged"]
    m["asymptotics.entropy_s"] = secs("asymptotics.entropy")
    m["pairings.connected_components_calls"] = calls("pairings.connected_components")
    m["pairings.connected_components_s"] = secs("pairings.connected_components")
    m["pairings.enumerate_calls"] = calls("pairings.enumerate")
    m["pairings.enumerate_s"] = secs("pairings.enumerate")
    requests = calls("weingarten.wg_exact")
    builds = calls("weingarten.gram")
    m["weingarten.table_requests"] = requests
    m["weingarten.gram_builds"] = builds
    # base: weingarten.table_requests; reads 0 when no table was requested
    m["weingarten.table_hit_ratio"] = 1.0 - builds / requests if requests else 0.0
    m["weingarten.singular_builds"] = counts["weingarten.singular_builds"]
    m["weingarten.gram_s"] = secs("weingarten.gram")
    m["weingarten.gram_self_s"] = self_secs("weingarten.gram")
    m["weingarten.wg_exact_s"] = secs("weingarten.wg_exact")
    m["weingarten.wg_exact_self_s"] = self_secs("weingarten.wg_exact")
    m["moments.f_beta_calls"] = calls("moments.f_beta")
    m["moments.f_beta_s"] = secs("moments.f_beta")
    for fn in ("exact_trace_moment", "term_report"):
        m[f"moments.{fn}_s"] = secs(f"moments.{fn}")
        m[f"moments.{fn}_self_s"] = self_secs(f"moments.{fn}")
    return m
