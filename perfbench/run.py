"""Benchmark entry point: one run of one workload, result as the last stdout line.

    python3 perfbench/run.py --workload lie_p23 --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``, nothing is installed.  Every measurement is a fresh
interpreter started from this process, one at a time, with the numeric
thread pools pinned to one thread.

``--trace 0`` (closed loop, one client): SETUP_PROBES interpreters that only
set up the workload (``setup_s``), then passes of the workload back to back
while the next one is expected to end within ``--seconds`` (at least one;
the other metrics).  Reports medians; the times are at a fixed machine
speed (see worker.SpeedGauge) and the raw medians go on the line before.

``--trace 1``: one untraced pass, one traced pass and one probe process.
Reports the per-layer metrics and the tracing overhead (traced minus
untraced ``verdict_s``); the spans go to ``.perfbench/trace/``.

Every pass must pass every suite, and each suite's report digest must match
the digest pinned in ``digests.json`` for this seed, or, for a seed with no
pin, the digest recorded in ``.perfbench/digests.json`` by the first run of
that seed in this checkout.  A suite that fails or whose digest differs
counts in ``failed``.  Lines before the last: the host record, then
the pass count, raw times and failures, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, suite_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 16
DEADLINE_S = 170  # every child is stopped before the run reaches this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(Exception):
    pass


class Runner:
    """Starts worker interpreters one at a time, within the run's deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in THREAD_VARS})

    def spawn(self, mode, *extra):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("TimeoutExpired: no time left in the run")
        t0 = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--t0", str(t0), *extra]
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"TimeoutExpired: {mode} worker ran past the deadline") from exc
        try:
            if proc.returncode == 0:
                return json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            pass
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result line"]
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {tail[0]}")

    def workload(self, mode, trace_file=None):
        a = self.args
        extra = ["--workload", a.workload, "--seed", str(a.seed)]
        extra += ["--quick"] * a.quick + (["--trace", str(trace_file)] if trace_file else [])
        return self.spawn(mode, *extra)


def host_record(env):
    import numpy

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(env, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.split()
        commit = top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {k: env[k] for k in THREAD_VARS},
        "commit": commit,
    }


class Verdict:
    """Counts suites attempted and failed, and checks report digests."""

    def __init__(self, args):
        self.key = args.workload + ("@quick" if args.quick else "")
        self.seed = str(args.seed)
        self.suites = [name for name, _ in suite_calls(args.workload, args.seed, args.quick)]
        self.attempted = self.failed = self.passes = 0
        self.failures = []
        pinned = json.loads((HERE / "digests.json").read_text())
        self.expected = pinned.get(self.key, {}).get(self.seed)
        self.pinned = self.expected is not None
        if not self.pinned:
            self.expected = _load(STATE / "digests.json").get(self.key, {}).get(self.seed)

    def add_pass(self, result):
        records = result["suites"]
        self.passes += 1
        self.attempted += len(records)
        for r in records:
            if not r["passed"]:
                self.failed += 1
                self.failures.append({"criterion": r["criterion"], "error": r["error"]})
        if any(not r["passed"] for r in records):
            return
        got = {r["criterion"]: r["digest"] for r in records}
        if self.expected is None:
            self.expected = got
            recorded = _load(STATE / "digests.json")
            recorded.setdefault(self.key, {})[self.seed] = got
            STATE.mkdir(exist_ok=True)
            (STATE / "digests.json").write_text(json.dumps(recorded, indent=1, sort_keys=True))
        elif got != self.expected:
            origin = "pinned" if self.pinned else "recorded"
            for name in self.suites:
                if got.get(name) != self.expected.get(name):
                    self.failed += 1
                    error = f"digest differs from {origin}"
                    self.failures.append({"criterion": name, "error": error})

    def add_crash(self, exc):
        self.attempted += len(self.suites)
        self.failed += len(self.suites)
        self.failures.append({"criterion": "*", "error": str(exc)})

    @property
    def correct(self):
        return not self.failures


def _load(path):
    return json.loads(path.read_text()) if path.exists() else {}


def measure(runner, verdict, seconds):
    """(end-to-end metrics, raw wall-clock medians) of closed-loop passes."""
    setups, passes = [], []
    try:
        for _ in range(SETUP_PROBES):
            setups.append(runner.workload("setup"))
        start = time.monotonic()
        while True:
            began = time.monotonic()
            result = runner.workload("pass")
            verdict.add_pass(result)
            passes.append(result)
            now = time.monotonic()
            if now - start + (now - began) > seconds:
                break
    except WorkerFailed as exc:
        verdict.add_crash(exc)
    if not passes:
        return {}, {}

    def median(name, runs):
        return statistics.median(r[name] for r in runs)

    values = {name: median(name, passes) for name in ("verdict_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = median("setup_s", setups)
    raw = {name: median(name, passes) for name in ("verdict_wall_s", "cpu_raw_s")}
    raw["setup_wall_s"] = median("setup_wall_s", setups)
    return values, raw


def trace(runner, verdict, args, declared):
    (STATE / "trace").mkdir(parents=True, exist_ok=True)
    trace_file = STATE / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        plain = runner.workload("pass")
        verdict.add_pass(plain)
        traced = runner.workload("pass", trace_file)
        verdict.add_pass(traced)
        probes = runner.spawn("probes")["probes"]
    except WorkerFailed as exc:
        verdict.add_crash(exc)
        return {}, {}
    values = {**traced["layers"], **probes}
    values.update({m["name"]: 0.0 for m in declared if m["name"].startswith("verify.")})
    values.update({f"verify.{r['criterion']}_s": r["seconds"] for r in plain["suites"]})
    values["trace.overhead_s"] = traced["verdict_s"] - plain["verdict_s"]
    raw = {"verdict_wall_s": plain["verdict_wall_s"], "traced_verdict_wall_s": traced["verdict_wall_s"]}
    return values, raw


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sample counts (self-test only)")
    args = parser.parse_args()
    if not (ROOT / "src" / "d4vinberg" / "verify.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'd4vinberg'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(args)
    verdict = Verdict(args)
    print(json.dumps({"host": host_record(runner.env)}), flush=True)
    if args.trace:
        declared = spec["per_layer"]
        values, raw = trace(runner, verdict, args, declared)
    else:
        declared = spec["end_to_end"]
        values, raw = measure(runner, verdict, args.seconds)
    if not values:  # no measurement survived: report zeros, marked incorrect
        values = {m["name"]: 0.0 for m in declared}
    print(json.dumps({"passes": verdict.passes, "raw": raw, "failures": verdict.failures}))
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
