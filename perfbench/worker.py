"""One benchmark process: set a workload up, run one round, report as JSON.

``run.py`` starts a fresh worker for every round, so each round begins with
cold library caches and has its own peak resident memory.  With
``--mode setup`` the worker stops after set-up and only reports its set-up
time.  The last line of standard output is the report.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_ops(ops) -> list[dict]:
    """Time each op's library call, then check its output; failures are recorded."""
    results = []
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # a failed op is counted, the round goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error is None:
            try:
                op.check(out)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        del out  # a large result (the term report) must not live on into the next op
        results.append({"op": op.name, "seconds": seconds, "work": op.work, "error": error})
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--mode", choices=("round", "setup"), default="round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before this process started")
    args = parser.parse_args()

    import workloads

    ops = workloads.setup(args.workload, args.seed, args.round, args.scale)
    setup_s = time.monotonic() - args.t0
    import orthochan  # already imported by set-up; check it came from this checkout

    if not Path(orthochan.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"orthochan was imported from {orthochan.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = {"setup_s": setup_s}
    if args.mode == "round":
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        report["ops"] = run_ops(ops)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = spans.layer_metrics(tracer.summary(), tracer.counts)
            report["spans"] = tracer.records()
            report["leaves"] = tracer.leaves
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
