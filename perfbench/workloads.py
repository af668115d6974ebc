"""The benchmark's workloads: which acceptance suites each one calls, and how.

Together the three workloads are ``d4vinberg all --p 23`` split by the layer
that does the work.  Each keeps the acceptance shape (p, q, d and the suites
it calls); only sample counts are scaled down so that one pass fits a run.
``QUICK`` shrinks them further for the self-test and is never used for
measurements.  Every suite gets the workload seed except those in
``SEEDLESS``, which take no ``seed`` argument.
"""

SEEDLESS = frozenset({"structure", "fundamental-group", "cusp-table"})

WORKLOADS = {
    # Boxed F_23 arithmetic through linalg.mat_mul, D4Context.act and four
    # Invariants builds; no numpy or int-list polynomial work.
    "lie_p23": (
        ("structure", {"p": 23}),
        ("core-arithmetic", {"p": 23, "m": 2, "triples": 1000}),
        ("fundamental-group", {}),
        ("invariant-theory", {"p": 23, "trials": 100}),
        ("disc-compare", {"p": 23, "n": 20}),
        ("orbit-reduction", {"p": 23, "planted": 15, "pattern_trials": 150}),
        ("stabilizer-two-torsion", {"p": 23, "n": 20}),
        ("cusp-table", {"q": 23, "truncation": 40}),
        ("geography", {"p": 23}),
        ("clifford", {"trials": 1000}),
    ),
    # int-list Delta, il_factor at degrees 24 and 48, ExtField residue
    # fields, kodaira_of_reduction and minimal_data over RatFunc.
    "xd_q5": (
        ("minimal-models", {"q": 5, "samples_per_d": 100}),
    ),
    # Vectorized numpy (dual-number beta MC, delta_poly_batch) plus the
    # per-row squarefree_int_list loop.
    "density_mc_q5": (
        ("densities", {"q": 5, "beta_n": 300_000, "delta_d": 3, "delta_n": 12_000}),
    ),
}

QUICK = {
    "lie_p23": {
        "invariant-theory": {"trials": 10},
        "disc-compare": {"n": 3},
        "orbit-reduction": {"planted": 2, "pattern_trials": 10},
        "stabilizer-two-torsion": {"n": 3},
        "clifford": {"trials": 50},
        "core-arithmetic": {"triples": 30},
    },
    "xd_q5": {"minimal-models": {"samples_per_d": 5, "torsion_checks": 2}},
    "density_mc_q5": {"densities": {"beta_n": 20_000, "delta_n": 1_000}},
}


def suite_calls(workload, seed, quick=False):
    """[(criterion, kwargs)] for one pass of the workload at this seed."""
    overrides = QUICK[workload] if quick else {}
    calls = []
    for name, kwargs in WORKLOADS[workload]:
        kwargs = {**kwargs, **overrides.get(name, {})}
        if name not in SEEDLESS:
            kwargs["seed"] = seed
        calls.append((name, kwargs))
    return calls
