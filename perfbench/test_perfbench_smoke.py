"""Smoke test of the benchmark at tiny sizes.

Every metric BENCHMARK.json names is emitted with its unit, each workload's
own layers read non-zero in its traced run, a layer boundary missing from the
library stops the tracer, and an op forced to fail is counted in the failures
instead of stopping the round.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that each workload exists to move
SHOULD_MOVE = {
    "mc_small_dim": ("channels.streams", "channels.stream_setup_s"),
    "experiment_large_n": ("channels.output_state_s",),
    "exact_engine": ("weingarten.gram_builds", "weingarten.gram_s"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0.01", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace:
        assert all(result["metrics"][name]["value"] > 0 for name in SHOULD_MOVE[workload])


def test_missing_boundary_stops_the_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from orthochan import moments

    original = moments.exact_trace_moment
    renamed = ("orthochan.moments", "renamed_function", "moments.renamed", False, None)
    monkeypatch.setattr(spans, "BOUNDARIES", spans.BOUNDARIES + (renamed,))
    with pytest.raises(LookupError, match="orthochan.moments.renamed_function"):
        spans.Tracer().install()
    assert moments.exact_trace_moment is original  # nothing is left wrapped


def test_forced_failures_raise_failed_ratio(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    ops = workloads.setup("exact_engine", 0, 0, "tiny")
    from orthochan import moments

    def broken(*args, **kwargs):
        raise RuntimeError("forced failure")

    clean = run.summarize([{"ops": worker.run_ops(ops)}])
    monkeypatch.setattr(moments, "exact_trace_moment", lambda *args, **kwargs: 0.5)  # wrong value
    monkeypatch.setattr(moments, "term_report", broken)
    forced = run.summarize([{"ops": worker.run_ops(ops)}])
    assert clean["failed_ratio"] == 0.0
    assert forced["attempted"] == clean["attempted"]
    assert forced["failed_ratio"] == 1.0  # every moment is wrong, the report raises
    assert forced["ops"]["term_report_p3_n3"]["failed"] == 1
