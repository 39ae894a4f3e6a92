"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from ``src/``.
Each round of the workload runs in a fresh single-threaded process
(ORTHOCHAN_THREADS=1, BLAS pinned to one thread).  Rounds run one after
another until their timed ops add up to at least S seconds; a round is never
cut short, so a round longer than S makes the run longer than S.

``--trace 0`` reports the end-to-end metrics:

* ``work_per_s``: work of the ops that passed their check over the timed
  seconds of all ops.  A unit of work is one Haar draw on the Monte Carlo
  workloads (``draws_per_s``) and one exact moment or term report on
  ``exact_engine`` (``moments_per_s``).
* ``setup_s``: median over at least MIN_SETUPS fresh processes of the time
  from process start to the first timed op (imports, inputs, reference
  values, warm-up).
* ``peak_rss_mb``: median over the rounds of each round process's peak
  resident memory.

``--trace 1`` runs each round untraced and then traced, in turn, and reports
the per-layer metrics of ``spans.layer_metrics`` as means over the traced
rounds, plus ``trace_overhead_ratio`` (traced over untraced ``work_per_s``,
whose untraced value is ``trace_overhead_base_per_s``).

The line before the result holds the details behind it: op counts and
times, the samples behind each median, and the machine and library facts.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_small_dim", "experiment_large_n", "exact_engine")
MIN_SETUPS = 9
PROCESS_TIMEOUT_S = 170
THREAD_ENV = {
    "ORTHOCHAN_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, round_index: int, scale: str, mode: str, trace: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--round", str(round_index), "--scale", scale, "--mode", mode, "--trace", str(trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} {mode} process exceeded {PROCESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} {mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed(rounds: list[dict]) -> float:
    return sum(op["seconds"] for r in rounds for op in r["ops"])


def run_rounds(workload: str, seed: int, seconds: float, scale: str):
    """Fresh round processes until timed ops reach `seconds`, then set-up-only ones."""
    rounds, setups = [], []
    while _timed(rounds) < seconds or len(setups) < MIN_SETUPS:
        mode = "round" if _timed(rounds) < seconds else "setup"
        report = spawn(workload, seed, len(rounds), scale, mode, 0)
        setups.append(report["setup_s"])
        if mode == "round":
            rounds.append(report)
    return rounds, setups


def run_paired(workload: str, seed: int, seconds: float, scale: str):
    """Untraced and traced rounds in turn, so that drift in host speed hits both alike."""
    rounds, traced = [], []
    while min(_timed(rounds), _timed(traced)) < seconds:
        rounds.append(spawn(workload, seed, len(rounds), scale, "round", 0))
        traced.append(spawn(workload, seed, len(traced), scale, "round", 1))
    return rounds, traced


def summarize(rounds: list[dict]) -> dict:
    """Throughput, op counts and failures over a list of round reports."""
    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    per_op = {}
    for op in ops:
        entry = per_op.setdefault(op["op"], {"count": 0, "failed": 0, "seconds": []})
        entry["count"] += 1
        entry["failed"] += op["error"] is not None
        entry["seconds"].append(op["seconds"])
    for entry in per_op.values():
        secs = entry.pop("seconds")
        entry.update(median_s=statistics.median(secs), max_s=max(secs))
    timed = sum(op["seconds"] for op in ops)
    return {
        "rounds": len(rounds),
        "timed_s": timed,
        "work_per_s": sum(op["work"] for op in ops if op["error"] is None) / timed,
        "attempted": len(ops),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(ops),
        "errors": [f"{op['op']}: {op['error']}" for op in failed][:10],
        "ops": per_op,
    }


def environment() -> dict:
    import numpy as np

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": THREAD_ENV,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orthochan" / "__init__.py").is_file():
        print(f"no orthochan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            rounds, traced = run_paired(args.workload, args.seed, args.seconds, args.scale)
            setups = [r["setup_s"] for r in rounds]
        else:
            rounds, setups = run_rounds(args.workload, args.seed, args.seconds, args.scale)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    untraced = summarize(rounds)
    attempted, failed = untraced["attempted"], untraced["failed"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "untraced": untraced,
        "setup_samples_s": setups,
        "rss_samples_mb": [r["peak_rss_mb"] for r in rounds],
        "environment": environment(),
    }
    if args.trace:
        traced_summary = summarize(traced)
        attempted += traced_summary["attempted"]
        failed += traced_summary["failed"]
        names = traced[0]["layers"].keys()
        layers = {name: statistics.fmean(r["layers"][name] for r in traced) for name in names}
        layers["trace_overhead_ratio"] = traced_summary["work_per_s"] / untraced["work_per_s"]
        layers["trace_overhead_base_per_s"] = untraced["work_per_s"]
        detail["traced"] = traced_summary
        detail["traced_rounds"] = [{"spans": r["spans"], "leaves": r["leaves"]} for r in traced]
        from spans import unit_of

        metrics = {name: metric(value, unit_of(name)) for name, value in layers.items()}
    else:
        metrics = {
            "work_per_s": metric(untraced["work_per_s"], "1/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(detail["rss_samples_mb"]), "MB"),
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
