"""Differential tests of the lockstep squarefree test numkernels.squarefree_batch
against the scalar polys.is_squarefree_raw, row by row.

Batches mix degrees 0 to 72 (the degree of Delta at d = 3) with the rows
where a batched Euclid can go wrong: repeated factors, p-th powers (zero
derivative), the zero row, nonzero constants, degree 1, and rows padded
with high zero columns (leading coefficient 0 in the stored width).

At P_TOP, the largest prime below MAX_P, the products of
``_batched_polymul`` and the eliminations of ``squarefree_batch`` reach
the edge of the int64 range: there the reduction cadence and the bound
that ``squarefree_batch`` tracks decide whether a result is exact.  The
elimination runs at the narrowest width that holds one step (int16 at
p = 5, int32 at 32749, int64 at P_GUARD); at P_GUARD its bound first
crosses 2^63 below 2^64, and a spy on the reduction sees where the guard
puts it at each width."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d4vinberg import numkernels, polys
from d4vinberg.fields import GF
from d4vinberg.rng import det_rng

SETTINGS = settings(max_examples=40, deadline=None)
PRIMES = st.sampled_from([5, 7, 23])
MAX_DEGREE = 72
P_TOP = 268435399  # the largest prime below numkernels.MAX_P = 2^28 (= MAX_P - 57)


def _mul(a, b, p):
    return GF(p).poly_mul(a, b) if a and b else []


@st.composite
def dense(draw, p, max_degree=MAX_DEGREE):
    degree = draw(st.integers(0, max_degree))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return coeffs + [draw(st.integers(1, p - 1))]


@st.composite
def repeated_factors(draw, p):
    """A product of small factors with multiplicities up to p + 1."""
    out = [draw(st.integers(1, p - 1))]
    for _ in range(draw(st.integers(1, 5))):
        factor = draw(dense(p, 6).filter(lambda c: len(c) >= 2))
        for _ in range(draw(st.integers(1, p + 1))):
            if len(out) + len(factor) - 2 > MAX_DEGREE:
                break
            out = _mul(out, factor, p)
    return out


@st.composite
def pth_powers(draw, p):
    """g(x)^p = g(x^p), alone (zero derivative) or times a dense cofactor."""
    g = draw(dense(p, MAX_DEGREE // p))
    out = [0] * (p * (len(g) - 1) + 1)
    out[::p] = g
    if draw(st.booleans()):
        out = _mul(out, draw(dense(p, MAX_DEGREE - (len(out) - 1))), p)
    return out


def special(p):
    return st.one_of(
        st.just([]),  # zero
        st.integers(1, p - 1).map(lambda c: [c]),  # nonzero constant
        st.tuples(st.integers(0, p - 1), st.integers(1, p - 1)).map(list),  # degree 1
    )


@st.composite
def batches(draw):
    p = draw(PRIMES)
    row = st.one_of(dense(p), repeated_factors(p), pth_powers(p), special(p))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    width = max(len(r) for r in rows) + draw(st.integers(0, 3))
    return p, rows, width


@SETTINGS
@given(batches())
def test_squarefree_batch_matches_scalar_test(case):
    p, rows, width = case
    arr = np.zeros((len(rows), max(width, 1)), dtype=np.int64)
    for i, r in enumerate(rows):
        arr[i, : len(r)] = r
    got = numkernels.squarefree_batch(arr, p)
    field = GF(p)
    assert got.tolist() == [polys.is_squarefree_raw(field, r) for r in rows]


def test_squarefree_batch_conventions():
    # zero is not squarefree, a nonzero constant is; (x - 1)^2 and x^5 are
    # not, x^5 - x is; unreduced residues are reduced first
    rows = np.array(
        [
            [0, 0, 0, 0, 0, 0],
            [3, 0, 0, 0, 0, 0],
            [1, 3, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 4, 0, 0, 0, 1],
            [-4, 11, 0, 0, 0, 0],
        ],
        dtype=np.int64,
    )
    assert numkernels.squarefree_batch(rows, 5).tolist() == [False, True, False, False, True, True]
    assert numkernels.squarefree_batch(np.zeros((0, 3), dtype=np.int64), 5).tolist() == []


def test_row_degrees():
    rows = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0], [1, 0, 3]], dtype=np.int64)
    assert numkernels.row_degrees(rows).tolist() == [-1, 0, 1, 2]


# -- the edge of the int64 range --


def _convolve(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def test_batched_polymul_past_the_reduction_cadence_at_the_top_prime():
    # the shorter operand has 130 >= 128 columns, so the sums cross the
    # 128-term reduction, and then 260 >= 2 * 128, so they cross it twice
    # (129 terms of (p - 1)^2 exceed 2^63); row 0 is all p - 1, the largest
    # residue products
    p = P_TOP
    rng = det_rng(0, "polymul-top-prime")
    for width in (130, 260):
        a = rng.integers(0, p, size=(3, width), dtype=np.int64)
        b = rng.integers(0, p, size=(3, width + 10), dtype=np.int64)
        a[0], b[0] = p - 1, p - 1
        want = [_convolve(x, y, p) for x, y in zip(a.tolist(), b.tolist())]
        assert numkernels._batched_polymul(a, b, p).tolist() == want
        assert numkernels._batched_polymul(b, a, p).tolist() == want


def test_squarefree_batch_at_the_top_prime():
    # degrees 40 to 72: dense rows (squarefree almost surely), rows with a
    # square factor g^2 h, and rows of residues near p
    p = P_TOP
    field = GF(p)
    rng = det_rng(0, "squarefree-top-prime")

    def dense_row(degree):
        return rng.integers(0, p, size=degree).tolist() + [int(rng.integers(1, p))]

    rows = [dense_row(int(rng.integers(40, 73))) for _ in range(6)]
    for _ in range(6):
        g = dense_row(int(rng.integers(1, 12)))
        rows.append(_mul(_mul(g, g, p), dense_row(int(rng.integers(40, 49))), p))
    rows.append([p - 1] * 60)
    rows.append(_mul([p - 1] * 25, [p - 1] * 25, p))
    arr = np.zeros((len(rows), max(len(r) for r in rows)), dtype=np.int64)
    for i, r in enumerate(rows):
        arr[i, : len(r)] = r
    want = [polys.is_squarefree_raw(field, r) for r in rows]
    assert True in want and False in want
    assert numkernels.squarefree_batch(arr, p).tolist() == want


P_GUARD = 1649993  # the guard first reduces after one unreduced step, below 2^64


def _required_reductions(p, steps):
    """Reductions that the stated bound forces in `steps` eliminations at
    the width of one step, each as late as the bound allows: |entries| <=
    p - 1 after a reduction, times 2 (p - 1) per elimination, and at most
    the width's maximum after every one."""
    top = np.iinfo(numkernels._width(p, 2)).max
    count, bound = 0, p - 1
    for _ in range(steps):
        if 2 * (p - 1) * bound > top:
            count, bound = count + 1, p - 1
        bound *= 2 * (p - 1)
    return count


@pytest.mark.parametrize("p", [5, P_GUARD, 32749])
def test_squarefree_batch_reduces_where_the_int64_bound_requires(monkeypatch, p):
    # rows of degree 23, at least one squarefree, take 2 * 23 eliminations:
    # each lowers deg A + deg B (2 * 23 - 1 at the start) by one, down to -1
    # (A or B zero, the other a constant gcd).  At P_GUARD (int64) one step
    # gives 2 (p - 1)^2 and a second would give 4 (p - 1)^3, in [2^63,
    # 2^64), so the bound reduces before every step but the first (45
    # times), and a guard at 2^64, or a bound grown by p - 1 per step,
    # reduces every other step.  At p = 5 (int16, 4 * 8^4 <= 2^15 - 1 <
    # 4 * 8^5) the bound reduces every four steps (11 times), and one grown
    # by 3 (p - 1) per step every three (15 times).  32749 is the largest
    # prime whose step 2 (p - 1)^2 + p fits int32; there the bound reduces
    # before every step but the first (45 times), and a guard of 3 (p - 1)
    # bound would reduce before the first step too
    width, reductions = {5: (np.int16, 11), P_GUARD: (np.int64, 45), 32749: (np.int32, 45)}[p]
    calls = []
    reduce = numkernels._reduce

    def spy(x, p_, tmp):
        assert x.dtype == width
        calls.append(p_)
        reduce(x, p_, tmp)

    monkeypatch.setattr(numkernels, "_reduce", spy)
    rng = det_rng(p, "squarefree-guard")
    rows = rng.integers(0, p, size=(6, 24), dtype=np.int64)
    rows[:, -1] = rng.integers(1, p, size=6)
    want = [polys.is_squarefree_raw(GF(p), r) for r in rows.tolist()]
    assert True in want
    assert numkernels.squarefree_batch(rows, p).tolist() == want
    # a and b are reduced together
    assert len(calls) == 2 * _required_reductions(p, 2 * 23) == 2 * reductions


@pytest.mark.parametrize("degree", [9, 18])
def test_gcd_degrees_reduce_where_the_int64_bound_requires(monkeypatch, degree):
    # pairs of degree (k, k), one of them coprime, take 2k + 1
    # eliminations at p = 5, on int16: the stated bound reduces before
    # steps 5, 9, 13, ..., so 4 times in 19 steps and 9 in 37; a bound
    # grown by 3 (p - 1) or 2 (p + 1) a step would reduce every three steps
    calls = []
    reduce = numkernels._reduce

    def spy(x, p_, tmp):
        assert x.dtype == np.int16
        calls.append(p_)
        reduce(x, p_, tmp)

    monkeypatch.setattr(numkernels, "_reduce", spy)
    p = 5
    rng = det_rng(degree, "gcd-guard")
    a, b = rng.integers(0, p, size=(2, 6, degree + 1), dtype=np.int64)
    a[:, -1], b[:, -1] = 1, 2
    field = GF(p)
    want = [len(polys.gcd_raw(field, x, y)) - 1 for x, y in zip(a.tolist(), b.tolist())]
    assert 0 in want
    assert numkernels.gcd_degrees(a, b, p).tolist() == want
    assert len(calls) == 2 * _required_reductions(p, 2 * degree + 1) == 2 * (4 + 5 * (degree > 9))
