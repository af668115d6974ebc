"""Spans and counters recorded from outside the program.

A ``Tracer`` wraps public functions of d4vinberg where their callers look
them up: every module global (and class attribute) bound to the original
function object is rebound to the wrapper, so ``liealg.mat_mul``,
``invariants.mat_mul`` and ``linalg.mat_mul`` are all counted, and the lazy
``from .numkernels import il_factor`` inside a function picks up the wrapper
from the module.  Timed wrappers record spans (name, start, end, parent);
leaf arithmetic is only counted, and the probes give its per-call cost.

``layer_metrics`` turns one traced pass into the per-layer numbers.
"""

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.extras = Counter()

    def span(self, name, fn, on_result=None):
        """Wrapper of fn that records a span per call; on_result(extras,
        bound arguments, result) accumulates extra counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        signature = inspect.signature(fn) if on_result else None
        extras = self.extras

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(extras, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def counter(self, name, fn, on_result=None):
        """Wrapper of fn that only counts calls (and feeds on_result)."""
        counts, extras = self.counts, self.extras
        if on_result is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper
        signature = inspect.signature(fn)

        def hooked(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            on_result(extras, signature.bind(*args, **kwargs).arguments, result)
            return result

        return hooked

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None, "run": self.run_id,
                }) + "\n")


def _rebind(owners, orig, new):
    """Point every attribute of the owners that is orig at new."""
    hits = 0
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, key, new)
                hits += 1
    return hits


def _nonzero(extras, args, result):
    extras["quartic_disc_nonzero"] += (
        not result.is_zero() if hasattr(result, "is_zero") else bool(result)
    )


def _accepted(extras, args, result):
    extras["in_xd_fast_true"] += bool(result)


def _beta_samples(extras, args, result):
    extras["beta_mc_samples"] += args["n_samples"]


def _delta_b(extras, args, result):
    extras["delta_b_samples"] += args["n"]
    extras["delta_b_hits"] += result[2]


# (module, qualified name, wrapper kind, span or counter name, result hook)
TARGETS = (
    ("fields", "FElem.__mul__", "count", "fields.felem_mul", None),
    ("linalg", "mat_mul", "count", "linalg.mat_mul", None),
    ("rng", "det_rng", "count", "rng.det_rng", None),
    ("curves", "in_xd_fast", "count", "curves.in_xd_fast", _accepted),
    ("liealg", "D4Context.act", "span", "liealg.act", None),
    ("invariants", "Invariants.__init__", "span", "invariants.calibration", None),
    ("invariants", "Invariants.pi", "span", "invariants.pi", None),
    ("orbits", "reduce_trivial", "span", "orbits.reduce_trivial", None),
    ("quartic", "quartic_disc", "span", "quartic.quartic_disc", _nonzero),
    ("curves", "curve_group", "span", "curves.curve_group", None),
    ("curves", "stabilizer_two_torsion", "span", "curves.stabilizer_two_torsion", None),
    ("curves", "xd_membership", "span", "curves.xd_membership", None),
    ("curves", "kodaira_of_reduction", "span", "curves.kodaira_of_reduction", None),
    ("curves", "minimal_data", "span", "curves.minimal_data", None),
    ("polys", "gcd", "span", "polys.gcd", None),
    ("funcfield", "Place.reduce_poly", "span", "funcfield.reduce_poly", None),
    ("numkernels", "il_factor", "span", "numkernels.il_factor", None),
    ("numkernels", "squarefree_int_list", "span", "numkernels.squarefree_int_list", None),
    ("numkernels", "delta_poly_batch", "span", "numkernels.delta_poly_batch", None),
    ("numkernels", "beta_mc_prime", "span", "numkernels.beta_mc_prime", _beta_samples),
    ("densities", "delta_b_montecarlo", "span", "densities.delta_b_montecarlo", _delta_b),
    ("densities", "so4_count_bruteforce", "span", "densities.so4_count_bruteforce", None),
    ("densities", "alpha_bruteforce", "span", "densities.alpha_bruteforce", None),
    ("hnweights", "verify_cusp_table", "span", "hnweights.verify_cusp_table", None),
    ("hnweights", "boundary_tail_bound", "span", "hnweights.boundary_tail_bound", None),
)


def install(tracer):
    """Wrap every TARGETS function of the imported d4vinberg for tracer."""
    modules = [mod for name, mod in sys.modules.items() if name.startswith("d4vinberg.")]
    for mod_name, qualname, kind, label, hook in TARGETS:
        owner = sys.modules[f"d4vinberg.{mod_name}"]
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        orig = vars(owner)[attr]
        wrap = tracer.span if kind == "span" else tracer.counter
        if not _rebind([owner] if cls_path else modules, orig, wrap(label, orig, hook)):
            raise RuntimeError(f"nothing bound to {mod_name}.{qualname}")


def summarize(spans):
    """{name: (calls, total seconds, self seconds, sorted durations)}.

    Self time is a span's duration minus the time its direct children cover;
    the program is single-threaded, so children do not overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations = defaultdict(list)
    self_time = Counter()
    for (name, start, end, _), inner in zip(spans, child_time):
        durations[name].append(end - start)
        self_time[name] += end - start - inner
    return {
        name: (len(ds), sum(ds), self_time[name], sorted(ds))
        for name, ds in durations.items()
    }


def percentile(sorted_values, q):
    """Nearest-rank percentile; 0.0 when nothing was recorded."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json).

    A layer the workload never calls reads 0 (no calls, no time).
    """
    summary = summarize(tracer.spans)
    counts, extras = tracer.counts, tracer.extras

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0, []))[0]

    def total(name):
        return summary.get(name, (0, 0.0, 0.0, []))[1]

    def self_s(name):
        return summary.get(name, (0, 0.0, 0.0, []))[2]

    def pct_ms(name, q):
        return 1e3 * percentile(summary.get(name, (0, 0.0, 0.0, []))[3], q)

    return {
        "fields.felem_mul_calls": counts["fields.felem_mul"],
        "linalg.mat_mul_calls": counts["linalg.mat_mul"],
        "liealg.act_calls": calls("liealg.act"),
        "liealg.act_self_s": self_s("liealg.act"),
        "invariants.calibration_calls": calls("invariants.calibration"),
        "invariants.pi_calls": calls("invariants.pi"),
        "invariants.pi_us": 1e6 * _ratio(total("invariants.pi"), calls("invariants.pi")),
        "orbits.reduce_trivial_calls": calls("orbits.reduce_trivial"),
        "orbits.reduce_trivial_p50_ms": pct_ms("orbits.reduce_trivial", 0.5),
        "orbits.reduce_trivial_p90_ms": pct_ms("orbits.reduce_trivial", 0.9),
        "quartic.quartic_disc_calls": calls("quartic.quartic_disc"),
        "quartic.quartic_disc_self_s": self_s("quartic.quartic_disc"),
        "quartic.disc_nonzero_ratio": _ratio(
            extras["quartic_disc_nonzero"], calls("quartic.quartic_disc")
        ),
        "curves.curve_group_calls": calls("curves.curve_group"),
        "curves.curve_group_p50_ms": pct_ms("curves.curve_group", 0.5),
        "curves.curve_group_p90_ms": pct_ms("curves.curve_group", 0.9),
        "curves.stabilizer_two_torsion_self_s": self_s("curves.stabilizer_two_torsion"),
        "curves.sample_xd_accept_ratio": _ratio(
            extras["in_xd_fast_true"], counts["curves.in_xd_fast"]
        ),
        "curves.xd_membership_calls": calls("curves.xd_membership"),
        "curves.xd_membership_p50_ms": pct_ms("curves.xd_membership", 0.5),
        "curves.xd_membership_p99_ms": pct_ms("curves.xd_membership", 0.99),
        "curves.kodaira_of_reduction_calls": calls("curves.kodaira_of_reduction"),
        "curves.kodaira_of_reduction_self_s": self_s("curves.kodaira_of_reduction"),
        "curves.minimal_data_self_s": self_s("curves.minimal_data"),
        "polys.gcd_calls": calls("polys.gcd"),
        "polys.gcd_self_s": self_s("polys.gcd"),
        "funcfield.reduce_poly_self_s": self_s("funcfield.reduce_poly"),
        "numkernels.il_factor_calls": calls("numkernels.il_factor"),
        "numkernels.il_factor_self_s": self_s("numkernels.il_factor"),
        "numkernels.squarefree_int_list_calls": calls("numkernels.squarefree_int_list"),
        "numkernels.squarefree_int_list_self_s": self_s("numkernels.squarefree_int_list"),
        "numkernels.delta_poly_batch_self_s": self_s("numkernels.delta_poly_batch"),
        "numkernels.beta_mc_samples_per_s": _ratio(
            extras["beta_mc_samples"], total("numkernels.beta_mc_prime")
        ),
        "densities.delta_b_mc_samples_per_s": _ratio(
            extras["delta_b_samples"], total("densities.delta_b_montecarlo")
        ),
        "densities.delta_b_hits": extras["delta_b_hits"],
        "densities.so4_count_bruteforce_s": total("densities.so4_count_bruteforce"),
        "densities.alpha_bruteforce_s": total("densities.alpha_bruteforce"),
        "hnweights.verify_cusp_table_s": total("hnweights.verify_cusp_table"),
        "hnweights.verify_cusp_table_calls": calls("hnweights.verify_cusp_table"),
        "hnweights.boundary_tail_bound_self_s": self_s("hnweights.boundary_tail_bound"),
        "rng.det_rng_calls": counts["rng.det_rng"],
    }
