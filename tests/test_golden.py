"""Golden values: fixed-seed results that a refactor or a speed-up must not
move.  A change to any of these must be justified where it is made.

The densities report covers alpha by lift and by brute force, the SO_4
oracle, the beta and delta_B Monte Carlo counts and the truncated product.
The other reports cover the cusp table, the point counts and Weierstrass
models of pointed curves over F_5 at d = 1 and 2, orbit reduction, the
algebra checks and the stabilizer counts at p = 23; the minimal-models
details pin the X_D samples and their bad-place count.  Each SHA-256 is
of the CLI output, which carries no wall-clock fields, or of the standard
output of a demo script."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from d4vinberg.cli import main
from d4vinberg.densities import delta_b_montecarlo
from d4vinberg.fields import GF
from d4vinberg.numkernels import beta_mc_prime
from d4vinberg.verify import minimal_model_suite

DENSITIES_ARGS = ["densities", "--p", "5", "--d", "3", "--n-samples", "2000", "--oracle"]
DENSITIES_SHA256 = "9143f73f8073742c2e57576cc766d8aeea6cbfd4af18eabbacfee48e0778deb7"
REPORT_SHA256 = {
    "cusp-table": "5e4dd31bb76372ed7354a1d48135fc650b866dcfc302754469906d0adc077a60",
    "curves --p 5 --d 1 --n-samples 20":
        "47201874a2d2aef79cbfda392461e5e51240d4f37a0993f1df507038a647a7b5",
    "curves --p 5 --d 2 --n-samples 20":
        "905234210e7af25bed0494ffd0cc7b020936aff8cfa524f5f884c4bdac080f94",
    "reduce-orbit --p 23 --n-samples 5":
        "8da8f971b0b50a741ba69cb51a00a478394411ea4f28b2f99406b524247ed660",
    "verify-algebra --p 23 --n-samples 5":
        "6065fb82c4f2a413feb37ddff6f48e22634365ba87092b013ededd3af72df38f",
    "stabilizer-check --p 23 --n-samples 5":
        "bd62cd07f5e56a819b88c47e87a2555e031a327b873e03c7da26babf97a0a205",
}

ROOT = Path(__file__).resolve().parent.parent
DEMO_STDOUT_SHA256 = {
    "01_algebra_and_weights.py": "b99f1ee56ffa2aae3ba0d91bb60e9c4ec78402484ba00efb591b764c3b299ee5",
    "02_invariants_and_slice.py": "d61a6dd023fa3f1b0d92a39af726cd106975bbd626f0d8c638c3e2fbafd571b4",
    "03_orbit_reduction.py": "b59d470fffea683e35fd1541e472677e00759dfdf4829ba634a170425671c871",
    "04_pointed_curves.py": "44e5f6622c01c22c50f5212955f49a099349a8c2e3f0988a6ed4eeb058fc6659",
    "05_cusp_table_and_slopes.py": "da42f95f53a67abb5462134fd43b987ed65f79a66fc19e5a1c7de9c7011c6a96",
    "06_densities.py": "479e33ff26757cb72f90a25c34828ba1b424f4cb23f8c2b913acef394e27ed69",
}


def test_delta_b_montecarlo_hits_pinned():
    # 12000 samples span three 4000-row Philox chunks
    frac, stderr, hits = delta_b_montecarlo(GF(5), 3, 12000, 0)
    assert hits == 4481
    assert frac == hits / 12000


def test_beta_mc_hits_pinned():
    # 20500 samples span two BETA_CHUNK-sample Philox streams
    assert beta_mc_prime(5, 20_500, 0) == 5452


def test_minimal_models_details_pinned():
    # the X_D samples at d = 1, 2 and the count of their bad places
    report = minimal_model_suite(samples_per_d=100, seed=0)
    assert report["passed"], report
    assert report["details"] == {"bad_places": 666, "samples": 200, "torsion_spot_checks": 10}


def test_densities_report_digest_pinned(tmp_path):
    out = tmp_path / "densities.json"
    assert main(DENSITIES_ARGS + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DENSITIES_SHA256


@pytest.mark.parametrize("command", sorted(REPORT_SHA256))
def test_report_digest_pinned(command, tmp_path):
    out = tmp_path / "report.json"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[command]


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, env=env, check=True
    )
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
