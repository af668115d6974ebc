"""Batch command surface: every verification and estimation job, with
machine-readable JSON/CSV output and deterministic seeding.

Config files are plain key=value lines; command-line flags override file
values.  All randomness is counter-based and keyed by (seed, job, index),
so identical configs give byte-identical reports.  Any failed assertion
exits nonzero with a structured failure record on stdout/file.
"""

import argparse
import csv
import io
import json
import sys

from . import curves, densities, hnweights, verify
from .fields import GF
from .quartic import quartic_disc


def _load_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _merged(args):
    cfg = {}
    if args.config:
        cfg.update(_load_config(args.config))
    for key in ("p", "m", "d", "n_samples", "seed", "truncation", "max_q"):
        file_val = cfg.get(key.replace("_", "-"), cfg.get(key))
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            cfg[key] = cli_val
        elif file_val is not None:
            try:
                cfg[key] = int(file_val)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        else:
            cfg[key] = _DEFAULTS[key]
    cfg["oracle"] = bool(args.oracle or cfg.get("oracle") in ("1", "true"))
    cfg["format"] = args.format or cfg.get("format", "json")
    if cfg["format"] not in ("json", "csv"):
        raise ValueError(f"format {cfg['format']!r} is neither json nor csv")
    return cfg


_DEFAULTS = {
    "p": 23,
    "m": 1,
    "d": 1,
    "n_samples": 100,
    "seed": 0,
    "truncation": 40,
    "max_q": 101,
}


def _strip_volatile(obj):
    """Drop wall-clock fields so identical configs give identical bytes."""
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _emit(payload, args, cfg):
    payload = _strip_volatile(payload)
    if cfg.get("format") == "csv" and isinstance(payload, dict) and "rows" in payload:
        buf = io.StringIO()
        rows = payload["rows"]
        if rows:  # no rows, no columns: an empty file
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(
                    {k: (";".join(map(str, v)) if isinstance(v, (list, tuple)) else v) for k, v in row.items()}
                )
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _suite_payload(results, cfg):
    return {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "passed": all(r["passed"] for r in results),
        "suites": results,
    }


def cmd_verify_algebra(args, cfg):
    results = [
        verify.structure_suite(p=cfg["p"]),
        verify.core_suite(p=cfg["p"], m=max(cfg["m"], 2), seed=cfg["seed"]),
        verify.pi1_suite(),
        verify.invariant_suite(p=cfg["p"], trials=max(cfg["n_samples"], 1000), seed=cfg["seed"]),
        verify.disc_compare_suite(p=cfg["p"], n=cfg["n_samples"], seed=cfg["seed"]),
    ]
    return _suite_payload(results, cfg)


def cmd_reduce_orbit(args, cfg):
    results = [
        verify.orbit_suite(
            p=cfg["p"], planted=cfg["n_samples"], pattern_trials=1000, seed=cfg["seed"]
        )
    ]
    return _suite_payload(results, cfg)


def cmd_curves(args, cfg):
    field = GF(5 if cfg["p"] > 7 else cfg["p"])
    d = cfg["d"]
    sampled = curves.sample_xd(field, d, cfg["n_samples"], seed=cfg["seed"])
    rows = []
    for b, member in zip(sampled, curves.xd_membership(field, sampled, d)):
        reduction = _first_good_reduction(field, b)
        row = {
            "p2": b[0].to_str(),
            "p4": b[1].to_str(),
            "q4": b[2].to_str(),
            "p6": b[3].to_str(),
            "in_XD": member.in_xd,
            "disc_degree": member.delta.degree,
            "bad_places": member.bad_places,
            "N": reduction[0],
            "two_torsion": reduction[1],
        }
        rows.append(row)
    return {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "passed": True,
        "rows": rows,
    }


def _first_good_reduction(field, b):
    """(N, two-torsion) of the fibre at the first t = c with Delta(b(c)) !=
    0; evaluation is a ring map, so Delta(b(c)) = Delta(b)(c) and the
    zeros of Delta are skipped."""
    for c in field:
        b_red = tuple(p(c) for p in b)
        if not quartic_disc(b_red):
            continue
        return curves.curve_group(field, b_red)
    return None, None


def cmd_stabilizer_check(args, cfg):
    results = [
        verify.stabilizer_suite(
            p=cfg["p"], n=cfg["n_samples"], seed=cfg["seed"], max_q=cfg["max_q"]
        )
    ]
    return _suite_payload(results, cfg)


def cmd_cusp_table(args, cfg):
    rows = hnweights.verify_cusp_table()
    tail_bounds = {}
    for r in rows:
        d1, d2 = (
            hnweights.boundary_tail_bound(r.m_set, d, cfg["truncation"], cfg["p"]) for d in (1, 2)
        )
        tail_bounds[str(r.m_set)] = {
            "d1": d1.to_float(),
            "d2": d2.to_float(),
            "upper_bound_d1": str(d1.upper_bound()),
        }
    return {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "passed": all(r.conditions_ok for r in rows),
        "rows": [r.as_record() for r in rows],
        "c0": [sorted(m) for m in hnweights.enumerate_c0()],
        "tail_bounds": tail_bounds,
    }


def cmd_geography(args, cfg):
    results = [verify.geography_suite(p=cfg["p"], seed=cfg["seed"])]
    return _suite_payload(results, cfg)


def cmd_densities(args, cfg):
    q = cfg["p"] ** cfg["m"]
    reports = {}
    alpha = densities.alpha_v(q) if q <= 64 else densities.alpha_closed_form(q)
    reports["alpha"] = str(alpha)
    if cfg["oracle"] and q <= 7:
        brute = densities.alpha_bruteforce(q)
        assert brute == alpha
        reports["alpha_bruteforce"] = str(brute)
        reports["so4_oracle"] = densities.so4_count_bruteforce(q)
    rep = densities.beta_v(
        q, mc=(cfg["n_samples"], cfg["seed"]) if q == cfg["p"] and cfg["n_samples"] > 0 else None
    )
    reports["beta"] = json.loads(rep.to_json())
    trunc = densities.delta_b_truncations(q, 6)[-1]
    # the exact rational has a q^15000-scale denominator; report the value
    # in float precision plus the exact operand sizes
    reports["delta_b_truncated_deg6"] = {
        "float": float(trunc),
        "numerator_bits": trunc.numerator.bit_length(),
        "denominator_bits": trunc.denominator.bit_length(),
    }
    reports["delta_b_tail_bound"] = str(densities.delta_b_tail_bound(q, 6))
    if cfg["d"] > 0 and q == cfg["p"]:
        frac, stderr, hits = densities.delta_b_montecarlo(
            GF(q), cfg["d"], max(cfg["n_samples"], 1000), cfg["seed"]
        )
        reports["delta_b_mc"] = {"fraction": frac, "stderr": stderr, "hits": hits}
    return {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "passed": True,
        "reports": reports,
    }


def cmd_all(args, cfg):
    results = [
        verify.structure_suite(p=cfg["p"]),
        verify.core_suite(p=cfg["p"], seed=cfg["seed"]),
        verify.pi1_suite(),
        verify.invariant_suite(p=cfg["p"], seed=cfg["seed"]),
        verify.disc_compare_suite(p=cfg["p"], seed=cfg["seed"]),
        verify.orbit_suite(p=cfg["p"], seed=cfg["seed"]),
        verify.stabilizer_suite(p=cfg["p"], seed=cfg["seed"], max_q=cfg["max_q"]),
        verify.cusp_suite(q=cfg["p"], truncation=cfg["truncation"]),
        verify.geography_suite(p=cfg["p"], seed=cfg["seed"]),
        verify.clifford_suite(seed=cfg["seed"]),
        verify.densities_suite(seed=cfg["seed"], slow=cfg["oracle"]),
        verify.minimal_model_suite(seed=cfg["seed"]),
    ]
    return _suite_payload(results, cfg)


COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "reduce-orbit": cmd_reduce_orbit,
    "curves": cmd_curves,
    "stabilizer-check": cmd_stabilizer_check,
    "cusp-table": cmd_cusp_table,
    "geography": cmd_geography,
    "densities": cmd_densities,
    "all": cmd_all,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="d4vinberg",
        description="Desk-scale verification jobs for the graded D4 pair and its curves",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="key=value config file (flags override)")
    parser.add_argument("--p", type=int, help="prime characteristic")
    parser.add_argument("--m", type=int, help="extension degree")
    parser.add_argument("--d", type=int, help="divisor degree deg D")
    parser.add_argument("--n-samples", dest="n_samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--truncation", type=int)
    parser.add_argument("--max-q", dest="max_q", type=int)
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"))
    parser.add_argument("--oracle", action="store_true", help="enable brute-force cross-checks")
    args = parser.parse_args(argv)
    cfg = {}  # a config file that fails to read or parse leaves it empty
    try:
        cfg = _merged(args)
        if cfg["m"] < 1:
            raise ValueError(f"extension degree m = {cfg['m']} must be >= 1")
        payload = COMMANDS[args.command](args, cfg)
    except (AssertionError, ValueError, OSError) as exc:
        failure = {
            "config": {k: cfg[k] for k in sorted(cfg)},
            "passed": False,
            "failure": {"type": type(exc).__name__, "message": str(exc)},
        }
        _emit(failure, args, cfg)
        return 1
    _emit(payload, args, cfg)
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
