"""Golden values: fixed-seed results that a refactor or a speed-up must not
move.  A change to any of these must be justified where it is made.

The densities report covers alpha by lift and by brute force, the SO_4
oracle, the beta and delta_B Monte Carlo counts and the truncated product;
its SHA-256 is of the CLI output, which carries no wall-clock fields."""

import hashlib

from d4vinberg.cli import main
from d4vinberg.densities import delta_b_montecarlo
from d4vinberg.fields import GF

DENSITIES_ARGS = ["densities", "--p", "5", "--d", "3", "--n-samples", "2000", "--oracle"]
DENSITIES_SHA256 = "9143f73f8073742c2e57576cc766d8aeea6cbfd4af18eabbacfee48e0778deb7"


def test_delta_b_montecarlo_hits_pinned():
    # 12000 samples span three 4000-row Philox chunks
    frac, stderr, hits = delta_b_montecarlo(GF(5), 3, 12000, 0)
    assert hits == 4481
    assert frac == hits / 12000


def test_densities_report_digest_pinned(tmp_path):
    out = tmp_path / "densities.json"
    assert main(DENSITIES_ARGS + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DENSITIES_SHA256
