"""Quick self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's contract, the span
arithmetic, the failure semantics of a pass, the digest gate, the output
of run.py in both modes at tiny sample counts, and that run.py refuses to
measure in a directory without the program.  Exits nonzero on the first
failed check.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SEED = 424242  # never pinned: exercises recording, then checking
OTHER_SEED = SEED + 1
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok   {what}")


def check_spec(spec):
    from workloads import WORKLOADS

    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    check(spec["paths"] == ["perfbench"] and spec["command"][1].startswith("perfbench/"),
          "command runs a file under paths")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in [1, 60]")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "workloads match workloads.WORKLOADS")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"]),
          "each workload has a name and a why of at most 200 characters")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    check(len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names),
          "names are valid and used once")
    check(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
          "units and directions are valid")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in e2e.values()), "end-to-end bounds are in (0, 0.25]")
    setup = e2e.get("setup_s", {})
    check(setup.get("unit") == "s" and setup.get("better") == "lower"
          and setup["bound"] == max(m["bound"] for m in e2e.values()),
          "setup_s is in seconds, lower is better, with the largest bound")
    check(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
          "per-layer metrics have no bound")


def check_spans():
    import tracing

    # a: [0, 10] with children b: [1, 4] and c: [5, 6]; b has child d: [2, 3]
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["d", 2.0, 3.0, 1], ["c", 5.0, 6.0, 0]]
    summary = tracing.summarize(spans)
    check(summary["a"][2] == 6.0 and summary["b"][2] == 2.0 and summary["d"][2] == 1.0,
          "self time is duration minus direct children")
    check(tracing.percentile([1, 2, 3, 4], 0.5) == 2 and tracing.percentile([], 0.9) == 0.0,
          "nearest-rank percentiles")


def check_failures():
    import worker

    def raises(**_):
        raise ValueError("escaped the suite wrapper")

    def passes(**_):
        return {"criterion": "ok", "passed": True, "seconds": 0.5, "details": {}}

    records = worker.run_suites([("bad", raises, {}), ("good", passes, {})])
    check(records[0]["error"] == "ValueError" and not records[0]["passed"],
          "an escaping exception is a failed suite with its type")
    check(records[1]["passed"], "the remaining suites still run")
    check(worker.report_digest({"a": 1, "seconds": 2.0}) == worker.report_digest({"a": 1, "seconds": 9}),
          "digests ignore seconds")


def run(workload, trace, cwd=ROOT, runner=HERE / "run.py", seed=SEED):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def set_recorded(update):
    path = STATE / "digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    update(recorded)
    STATE.mkdir(exist_ok=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True))


def check_runs(spec):
    from workloads import WORKLOADS

    def forget(recorded):
        for key in recorded:
            recorded[key].pop(str(SEED), None)
            recorded[key].pop(str(OTHER_SEED), None)

    set_recorded(forget)
    e2e = [m["name"] for m in spec["end_to_end"]]
    for workload in WORKLOADS:
        res = result_of(run(workload, 0))
        check(set(res) == {"correct", "attempted", "failed", "metrics"} and list(res["metrics"]) == e2e,
              f"{workload}: result line carries every end-to-end metric")
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              f"{workload}: every suite passed and its digest was recorded")
    res = result_of(run("xd_q5", 0))
    check(res["correct"], "a second run of the seed matches the recorded digests")
    for workload, suite in (("xd_q5", "minimal-models"), ("density_mc_q5", "densities")):
        res = result_of(run(workload, 0, seed=OTHER_SEED))
        check(res["correct"], f"{workload}: another seed passes")
        recorded = json.loads((STATE / "digests.json").read_text())[f"{workload}@quick"]
        check(recorded[str(SEED)][suite] != recorded[str(OTHER_SEED)][suite],
              f"{workload}: the seed reaches {suite} and changes its report")

    def corrupt(recorded):
        recorded["xd_q5@quick"][str(SEED)]["minimal-models"] = "0" * 64

    set_recorded(corrupt)
    res = result_of(run("xd_q5", 0))
    check(not res["correct"] and res["failed"] > 0, "a digest mismatch is a failed, incorrect run")
    set_recorded(forget)
    res = result_of(run("xd_q5", 1))
    check(list(res["metrics"]) == [m["name"] for m in spec["per_layer"]] and res["correct"],
          "the traced run reports every per-layer metric")
    check(res["metrics"]["curves.xd_membership_calls"]["value"] > 0,
          "the traced run records spans of the workload's layers")


def check_bare_directory():
    bare = STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run("xd_q5", 0, cwd=bare, runner=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program, run.py exits nonzero and prints no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_spans()
    check_failures()
    check_bare_directory()
    check_runs(spec)
    print("self-test passed")


if __name__ == "__main__":
    main()
