"""Run every workload over several seeds and print every metric with its unit.

    python3 perfbench/report.py --seeds 0-9 --traced --out results.json

Every workload in BENCHMARK.json runs once per seed for ``run_seconds`` with
tracing off and, with ``--traced``, once more with tracing on at the first
seed.  The printout gives, per end-to-end metric, the median over runs, the
quartiles, their spread as a share of the median, and the samples behind
each run's numbers (rounds, set-up processes, ops attempted and failed);
then the per-op times, the per-layer metrics of the traced run and the
machine facts.  ``--out`` keeps the same medians and quartiles, and every
run's full result and details, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
THROUGHPUT_ALIAS = {"exact_engine": "moments_per_s"}  # the others count Haar draws


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "trace": trace, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def summary(runs: list[dict]) -> dict[str, dict[str, float]]:
    """Per end-to-end metric: median, quartiles and their spread over the runs."""
    out = {}
    for name in runs[0]["result"]["metrics"]:
        med, q1, q3, rel = spread([r["result"]["metrics"][name]["value"] for r in runs])
        out[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": rel}
    return out


def print_workload(workload: str, runs: list[dict], traced: dict | None) -> None:
    print(f"\n== {workload} ==")
    alias = THROUGHPUT_ALIAS.get(workload, "draws_per_s")
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"runs {len(runs)}  ops attempted {attempted}  failed {failed}  "
          f"failed_ratio {failed / attempted:.3g}  correct in every run: "
          f"{all(r['result']['correct'] for r in runs)}")
    print(f"{'metric':<22}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}  samples behind each run")
    behind = {
        "work_per_s": "rounds " + ",".join(str(r["detail"]["untraced"]["rounds"]) for r in runs),
        "setup_s": "setup processes " + ",".join(str(len(r["detail"]["setup_samples_s"])) for r in runs),
        "peak_rss_mb": "round processes " + ",".join(str(len(r["detail"]["rss_samples_mb"])) for r in runs),
    }
    units = {name: entry["unit"] for name, entry in runs[0]["result"]["metrics"].items()}
    for name, stats in summary(runs).items():
        label = f"{name} ({alias})" if name == "work_per_s" else name
        print(f"{label:<22}{units[name]:<7}{stats['median']:>14.6g}{stats['q1']:>14.6g}{stats['q3']:>14.6g}"
              f"{stats['iqr_over_median']:>9.3%}  {behind.get(name, '')}")
    print(f"{'op':<28}{'count':>7}{'failed':>7}{'median_s':>12}{'max_s':>12}")
    ops: dict[str, dict] = {}
    for r in runs:
        for op, e in r["detail"]["untraced"]["ops"].items():
            agg = ops.setdefault(op, {"count": 0, "failed": 0, "medians": [], "max_s": 0.0})
            agg["count"] += e["count"]
            agg["failed"] += e["failed"]
            agg["medians"].append(e["median_s"])
            agg["max_s"] = max(agg["max_s"], e["max_s"])
    for op, agg in ops.items():
        print(f"{op:<28}{agg['count']:>7}{agg['failed']:>7}{statistics.median(agg['medians']):>12.4g}{agg['max_s']:>12.4g}")
    errors = [e for r in runs for e in r["detail"]["untraced"]["errors"]]
    for error in errors[:5]:
        print(f"  failed: {error}")
    if traced is not None:
        rounds = traced["detail"]["traced"]["rounds"]
        print(f"per-layer metrics, traced run at seed {traced['seed']} (means over {rounds} traced rounds):")
        for name, entry in traced["result"]["metrics"].items():
            print(f"  {name:<44}{entry['unit']:<7}{entry['value']:>16.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9", help="a range lo-hi or a comma list")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the medians, quartiles and every run as JSON")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    print(f"seeds {args.seeds}, run_seconds {BENCHMARK['run_seconds']}, traced {args.traced}")
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], 1) if args.traced else None
        report["workloads"][workload] = {"summary": summary(runs), "runs": runs, "traced": traced}
        report["environment"] = runs[0]["detail"]["environment"]
        print_workload(workload, runs, traced)
    print("\nenvironment:", json.dumps(report["environment"]))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
