"""One measurement in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py setup  --t0 NS --workload W --seed S [--quick]
    python3 perfbench/worker.py pass   --t0 NS --workload W --seed S [--quick] [--trace FILE]
    python3 perfbench/worker.py probes

``--t0`` is the parent's CLOCK_MONOTONIC reading (ns) just before it started
this process.  ``setup`` does what ``pass`` does before its first suite call
(interpreter start, every import, binding the suites) and reports that time
as ``setup_s``; ``pass`` times the suites.  run.py starts these; they are
not meant to be run by hand except when debugging.

On a virtual machine whose cores are shared, the same Python code can run
up to twice as slowly for seconds at a time, and CPU time slows down with
wall time.  So ``setup_s``, ``verdict_s`` and ``cpu_s`` are reported at a fixed
machine speed: a ``SpeedGauge`` times a fixed pure-Python reference loop
every 20 ms from a SIGALRM handler, and a measured interval, less the time
spent in the gauge, is scaled by the time-weighted mean of
NOMINAL_S / (loop time) over the samples taken in it, raised to EXPONENT.
The raw wall and CPU times are reported too.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class _Elem:
    """A boxed residue mod 23, like the program's FElem but independent of it."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Elem((self.v + other.v) % 23)

    def __mul__(self, other):
        return _Elem(self.v * other.v % 23)


class SpeedGauge:
    """Samples machine speed with a fixed reference loop every PERIOD_S."""

    PERIOD_S = 0.02
    LOOPS = 400
    NOMINAL_S = 2.2e-4  # loop time on a 2-core shared VM in its fast state
    # The program slows down less than this loop when the core is contended.
    # Over 20 runs of each workload, the log-log slope of raw time against
    # gauge speed was 0.9 (lie_p23), 0.8-0.9 (xd_q5) and 0.65-0.7
    # (density_mc_q5); 0.85 gave the smallest run-to-run spread overall.
    EXPONENT = 0.85
    ELEMS = [_Elem(i % 23) for i in range(64)]

    def __init__(self):
        self.durations = []  # loop time of each sample
        self.stamps = []  # perf_counter at the end of each sample
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        elems, acc = self.ELEMS, self.ELEMS[0]
        start = time.perf_counter()
        for i in range(self.LOOPS):
            acc = acc + elems[i & 63] * elems[(i * 7) & 63]
        end = time.perf_counter()
        self.durations.append(end - start)
        self.stamps.append(end)
        if collecting:
            gc.enable()
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        self.started = self.mark()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self):
        return len(self.durations), time.perf_counter()

    def at_nominal(self, seconds, since):
        """seconds measured since mark ``since``, less the gauge's own time,
        at the reference speed; unscaled when no sample fell in the interval.

        A signal waits until a running C call (a numpy kernel) returns, so
        samples are not evenly spaced: each one is weighted by the time
        since the previous sample, which is the time it stands for.
        """
        first, began = since
        taken = self.durations[first:]
        if not taken:
            return seconds
        ends = self.stamps[first:]
        weights = [end - prev for end, prev in zip(ends, [began] + ends[:-1])]
        speed = sum(w * self.NOMINAL_S / d for w, d in zip(weights, taken)) / sum(weights)
        return (seconds - sum(taken)) * speed**self.EXPONENT


def import_program():
    """Import d4vinberg.verify from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    from d4vinberg import verify

    if Path(verify.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"d4vinberg imported from {verify.__file__}, not {SRC}")
    return verify


def strip_seconds(obj):
    """The report without its wall-clock fields."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


def report_digest(report):
    text = json.dumps(strip_seconds(report), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def run_suites(calls):
    """Run [(criterion, fn, kwargs)] in order and return one record each.

    Any exception a suite lets escape is a failed suite, recorded with its
    type; the remaining suites still run.
    """
    records = []
    for criterion, fn, kwargs in calls:
        start = time.perf_counter()
        try:
            report = fn(**kwargs)
            error = None if report["passed"] else "AssertionError"
        except Exception as exc:  # noqa: BLE001 - any escape is a failed suite
            report = {"criterion": criterion, "error": type(exc).__name__, "message": str(exc)}
            error = type(exc).__name__
        records.append({
            "criterion": criterion,
            "passed": error is None,
            "error": error,
            "seconds": time.perf_counter() - start,
            "digest": report_digest(report),
        })
    return records


def prepare(args):
    """Everything a pass does before its first suite call: import the
    program and bind the workload's suites to their arguments."""
    from workloads import suite_calls

    verify = import_program()
    return [
        (criterion, verify.ALL_SUITES[criterion], kwargs)
        for criterion, kwargs in suite_calls(args.workload, args.seed, args.quick)
    ]


def setup_times(gauge, t0):
    """(raw, at nominal speed) seconds from process start to now."""
    raw = (time.monotonic_ns() - t0) / 1e9
    return {"setup_wall_s": raw, "setup_s": gauge.at_nominal(raw, gauge.started)}


def do_pass(args, gauge):
    calls = prepare(args)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}:{args.seed}")
        tracing.install(tracer)
        calls = [(c, tracer.span(f"verify.{c}", fn), kw) for c, fn, kw in calls]
    mark, cpu0, wall0 = gauge.mark(), os.times(), time.perf_counter()
    records = run_suites(calls)
    wall1, cpu1 = time.perf_counter(), os.times()
    gauge.stop()
    wall = wall1 - wall0
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    out = {
        "verdict_wall_s": wall,
        "verdict_s": gauge.at_nominal(wall, mark),
        "cpu_raw_s": cpu,
        "cpu_s": gauge.at_nominal(cpu, mark),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "suites": records,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["spans"] = len(tracer.spans)
        tracer.write_jsonl(args.trace)
    return out


def do_setup(args, gauge):
    prepare(args)
    return setup_times(gauge, args.t0)


def do_probes(args, gauge):
    gauge.stop()  # probes report raw per-call times
    import_program()
    import probes

    return {"probes": probes.run_all()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass", "probes"))
    parser.add_argument("--t0", type=int, default=0)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", help="write the pass's spans to this JSONL file")
    args = parser.parse_args()
    gauge = SpeedGauge()
    gauge.start()
    mode = {"setup": do_setup, "pass": do_pass, "probes": do_probes}[args.mode]
    result = mode(args, gauge)
    gauge.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
