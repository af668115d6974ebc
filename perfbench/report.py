"""One-command report over every workload.

    python3 perfbench/report.py                 # end-to-end table, 5 seeds per workload
    python3 perfbench/report.py --runs 10 --first-seed 1
    python3 perfbench/report.py --trace         # per-layer table and tracing overhead

Each run is ``run.py`` in its own interpreter, one at a time.  The
end-to-end table gives, per workload and metric, the median, the first and
third quartiles, the sample count (runs), the spread (quartile distance over
median) next to the metric's bound, the raw wall-clock medians behind the
speed-normalized times, and the suites attempted and failed.
All results, with the host record, are written to
``.perfbench/results/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return {"host": lines[0]["host"], "info": lines[-2], "result": lines[-1]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(spec, runs_by_workload):
    print(f"{'workload':<14} {'metric':<12} {'unit':<5} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'n':>3} {'spread':>7} {'bound':>6}")
    for workload, runs in runs_by_workload.items():
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            print(f"{workload:<14} {m['name']:<12} {m['unit']:<5} {med:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {len(values):>3} {(q3 - q1) / med:>7.3f} {m['bound']:>6}")
        raw = {k: statistics.median(r["info"]["raw"][k] for r in runs) for k in runs[0]["info"]["raw"]}
        print(f"{workload:<14} raw wall-clock medians: "
              + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        ops = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload:<14} ops {ops}, ops_failed {failed}, all correct: {correct}")


def per_layer(spec, traced):
    names = list(traced)
    print(f"{'metric':<42} {'unit':<6} " + " ".join(f"{w:>14}" for w in names))
    for m in spec["per_layer"]:
        row = [traced[w]["result"]["metrics"][m["name"]]["value"] for w in names]
        print(f"{m['name']:<42} {m['unit']:<6} " + " ".join(f"{v:>14.6g}" for v in row))
    for w in names:
        res = traced[w]["result"]
        print(f"{w}: ops {res['attempted']}, ops_failed {res['failed']}, correct {res['correct']}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--trace", action="store_true", help="one traced run per workload")
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + (1 if args.trace else args.runs))
    results = {
        w: [run_once(w, s, spec["run_seconds"], int(args.trace)) for s in seeds]
        for w in args.workloads
    }
    print(json.dumps({"host": next(iter(results.values()))[0]["host"]}))
    if args.trace:
        per_layer(spec, {w: runs[0] for w, runs in results.items()})
    else:
        end_to_end(spec, results)
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    path = out / f"{kind}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"results: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
