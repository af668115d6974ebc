"""Fixed-input micro-timings of single public functions.

Each probe builds its inputs from a fixed generator (never the workload
seed), then times a batch of calls and reports the median over REPEATS
batches.  Leaf arithmetic that the traced pass only counts gets its
per-call cost here.
"""

import statistics
import time

import numpy as np

from d4vinberg import linalg
from d4vinberg.fields import GF, extension_of
from d4vinberg.invariants import Invariants
from d4vinberg.liealg import D4Context
from d4vinberg.numkernels import delta_poly_intlists, il_factor

REPEATS = 5


def _median_per_call(fn, calls_per_batch, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / calls_per_batch)
    return statistics.median(times)


def _pairs(field, rng, n):
    return [(field.random(rng), field.random(rng)) for _ in range(n)]


def felem_mul_ns(n=50_000):
    pairs = _pairs(GF(23), np.random.default_rng(1), n)

    def batch():
        for a, b in pairs:
            a * b

    return 1e9 * _median_per_call(batch, n)


def felem_add_ns(n=50_000):
    pairs = _pairs(GF(23), np.random.default_rng(1), n)

    def batch():
        for a, b in pairs:
            a + b

    return 1e9 * _median_per_call(batch, n)


def _monic(rng, p, degree):
    return [int(c) for c in rng.integers(0, p, degree)] + [1]


def ext_mul_ns(degree, n):
    """ExtField multiplication in GF(5^degree), through FElem."""
    rng = np.random.default_rng(degree)
    while True:  # first irreducible monic modulus from the fixed stream
        modulus = _monic(rng, 5, degree)
        factors = il_factor(modulus, 5)
        if len(factors) == 1 and factors[0][1] == 1:
            break
    field = extension_of(GF(5), modulus, trusted=True)
    pairs = _pairs(field, rng, n)

    def batch():
        for a, b in pairs:
            a * b

    return 1e9 * _median_per_call(batch, n)


def mat_mul_8x8_us(n=200):
    field = GF(23)
    rng = np.random.default_rng(8)
    mats = [[[field.random(rng) for _ in range(8)] for _ in range(8)] for _ in range(n + 1)]

    def batch():
        for a, b in zip(mats, mats[1:]):
            linalg.mat_mul(a, b)

    return 1e6 * _median_per_call(batch, n)


def calibration_s():
    """One Invariants build at p = 23 (calibration and charts), timed once."""
    ctx = D4Context(GF(23))
    return _median_per_call(lambda: Invariants(ctx, seed=0), 1, repeats=1)


def il_factor_ms(degree, repeats=REPEATS):
    coeffs = _monic(np.random.default_rng(1000 + degree), 5, degree)
    return 1e3 * _median_per_call(lambda: il_factor(coeffs, 5), 1, repeats)


def delta_poly_intlists_us(n=20):
    """Delta of a d = 2 coefficient tuple (degrees 4, 8, 8, 12) over F_5."""
    rng = np.random.default_rng(24)
    tuples = [
        [[int(c) for c in rng.integers(0, 5, 4 * w + 1)] for w in (1, 2, 2, 3)]
        for _ in range(n)
    ]

    def batch():
        for b in tuples:
            delta_poly_intlists(5, b)

    return 1e6 * _median_per_call(batch, n)


def run_all():
    return {
        "fields.felem_mul_ns": felem_mul_ns(),
        "fields.felem_add_ns": felem_add_ns(),
        "fields.ext_mul_deg12_ns": ext_mul_ns(12, n=2_000),
        "fields.ext_mul_deg48_ns": ext_mul_ns(48, n=300),
        "linalg.mat_mul_8x8_us": mat_mul_8x8_us(),
        "invariants.calibration_s": calibration_s(),
        "numkernels.il_factor_deg24_ms": il_factor_ms(24),
        "numkernels.il_factor_deg48_ms": il_factor_ms(48),
        "numkernels.il_factor_deg72_ms": il_factor_ms(72),
        "numkernels.delta_poly_intlists_us": delta_poly_intlists_us(),
    }
