"""The integer widths of the numpy kernels.

Each kernel of ``numkernels`` runs at ``_width(p, terms)``, the narrowest
of int16, int32 and int64 whose maximum holds terms (p - 1)^2 + p.  The
tests here hold each kernel to its oracle at the largest prime of each
width and at the first prime past it, on rows of extreme entries p - 1
(block entries +-(p - 1)), where a width one step too narrow would wrap:
- the beta pipeline (32 products): 31 | 37 and 8191 | 8209;
- ``_batched_polymul`` and the sieve's jets (128 products): 13 | 17 and
  4093 | 4099;
- ``_eliminate`` (one step, 2 products): 127 | 131 and 32749 | 32771.
The int64 cases at the largest prime below MAX_P are in
``test_squarefree_batch`` and ``test_xd_kernels``.

numpy widens silently: an int64 operand, or a sum or trace without a
dtype, turns an int16 array into int64.  So the kernels are spied on at
p = 5, where every one of them runs at int16, and every public entry
point must return the dtype it always has, never a narrow one.
"""

import numpy as np
import pytest

from d4vinberg import numkernels, polys
from d4vinberg.fields import GF
from d4vinberg.liealg import D4Context, primitives
from d4vinberg.polys import Poly
from d4vinberg.rng import det_rng

# terms: (largest prime of int16, first past it, largest of int32, first past it)
EDGES = {32: (31, 37, 8191, 8209), 128: (13, 17, 4093, 4099), 2: (127, 131, 32749, 32771)}
WIDTHS = (np.int16, np.int32, np.int32, np.int64)


def _rows(polys_):
    out = np.zeros((len(polys_), max(len(c) for c in polys_)), dtype=np.int64)
    for i, c in enumerate(polys_):
        out[i, : len(c)] = c
    return out


@pytest.mark.parametrize("terms", sorted(EDGES))
def test_width_is_the_narrowest_that_holds_the_sum(terms):
    for p, dtype in zip(EDGES[terms], WIDTHS):
        assert numkernels._width(p, terms) == dtype
        assert terms * (p - 1) ** 2 + p <= np.iinfo(dtype).max
        if dtype != np.int16:
            narrower = {np.int32: np.int16, np.int64: np.int32}[dtype]
            assert terms * (p - 1) ** 2 + p > np.iinfo(narrower).max
    # int64 holds 128 products below MAX_P, and 129 products refuse it
    assert numkernels._width(numkernels.MAX_P - 1, 128) == np.int64
    with pytest.raises(ValueError, match="int64"):
        numkernels._width(numkernels.MAX_P - 1, 129)


class Dual:
    """a + b eps over the integers, eps^2 = 0: the boxed oracle's dual
    numbers, exact with no reduction."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        return Dual(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return Dual(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return Dual(other * self.a, other * self.b)
        return Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__


@pytest.mark.parametrize("p", EDGES[32])
def test_block_primitives_at_the_edges_of_their_width(p):
    # value and dual primitives at the width of 32 products against
    # liealg.primitives over exact dual numbers; row 0 is all p - 1, in the
    # value and eps parts, rows 1 to 3 in one part or in half the labels
    width = numkernels._width(p, 32)
    coords = det_rng(p, "block-primitives-width").integers(0, p, size=(8, 16, 2), dtype=np.int64)
    coords[0] = p - 1
    coords[1, :, 0] = p - 1
    coords[2, :, 1] = p - 1
    coords[3, ::2] = p - 1
    narrow = coords.astype(width)
    value = numkernels._block_primitives(narrow[..., 0], p, numkernels._value_lift(p))
    dual = numkernels.dual_primitives(narrow, p)
    assert {x.dtype for x in (*value, *(x for pair in dual for x in pair))} == {width}
    ctx = D4Context(GF(p))
    for i, row in enumerate(coords.tolist()):
        boxed = primitives(ctx, [Dual(a, b) for a, b in row])
        assert [int(x[i]) for x in value] == [b.a % p for b in boxed]
        assert [(int(x0[i]), int(x1[i])) for x0, x1 in dual] == [(b.a % p, b.b % p) for b in boxed]


@pytest.mark.parametrize("p", EDGES[32])
def test_the_widest_beta_sum_is_exact_at_its_width(p):
    # the eps part of tr(M M^2) sums 32 products of residues: 32 (p - 1)^2
    # at all p - 1, which wraps one width narrower past each edge
    width = numkernels._width(p, 32)
    m = np.full((1, 4, 4), p - 1, dtype=width)
    _, bilinear = numkernels._dual_lift(p)
    t0, t1 = bilinear(lambda a, b: np.einsum("nij,nji->n", a, b))((m, m), (m, m))
    assert (t0.tolist(), t1.tolist()) == ([16 * (p - 1) ** 2 % p], [32 * (p - 1) ** 2 % p])


@pytest.mark.parametrize("p", EDGES[128] + EDGES[32])
def test_batched_polymul_past_its_cadence_at_the_edges_of_its_width(monkeypatch, p):
    # the shorter operand has 130, then 260 columns: one and two 128-term
    # reductions before the last, whichever operand comes first; row 0 is
    # all p - 1, the largest products
    calls = []
    reduce = numkernels._reduce

    def spy(x, p_, tmp):
        calls.append(p_)
        reduce(x, p_, tmp)

    monkeypatch.setattr(numkernels, "_reduce", spy)
    width = numkernels._width(p, 128)
    field = GF(p)
    rng = det_rng(p, "polymul-width")
    for cols in (130, 260):
        a = rng.integers(0, p, size=(3, cols), dtype=np.int64)
        b = rng.integers(0, p, size=(3, cols + 130), dtype=np.int64)
        a[:, -1], b[:, -1] = 1, 1
        a[0], b[0] = p - 1, p - 1
        want = [field.poly_mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
        for x, y in ((a, b), (b, a)):
            calls.clear()
            got = numkernels._batched_polymul(x.astype(width), y.astype(width), p)
            assert got.dtype == width
            assert got.tolist() == want
            assert len(calls) == cols // 128 + 1
    # one width narrower, the sums of 128 products could wrap: refused
    if width != np.int16:
        narrower = {np.int32: np.int16, np.int64: np.int32}[width.type]
        with pytest.raises(AssertionError):
            numkernels._batched_polymul(a.astype(narrower), b.astype(narrower), p)


@pytest.mark.parametrize("p", EDGES[2] + EDGES[32])
def test_squarefree_and_gcd_at_the_edges_of_their_width(p):
    # degree 72 (Delta at d = 3), 145 eliminations: far past the reduction
    # cadence of every width.  Rows of p - 1, dense rows and rows with a
    # square factor; gcd pairs with a common factor of degree 0 to 12
    field = GF(p)
    rng = det_rng(p, "eliminate-width")

    def dense(degree):
        return rng.integers(0, p, size=degree).tolist() + [int(rng.integers(1, p))]

    rows = [[p - 1] * 73, field.poly_mul([p - 1] * 37, [p - 1] * 37), dense(72), dense(72)]
    for k in (1, 6):
        g = dense(k)
        rows.append(field.poly_mul(field.poly_mul(g, g), dense(72 - 2 * k)))
    want = [polys.is_squarefree_raw(field, r) for r in rows]
    assert True in want and False in want
    assert numkernels.squarefree_batch(_rows(rows), p).tolist() == want
    a, b = [[p - 1] * 73], [field.poly_mul([p - 1] * 72, [1, 1])]
    for k in (0, 1, 5, 12):
        common = dense(k)
        a.append(field.poly_mul(dense(72 - k), common))
        b.append(field.poly_mul(dense(60 - k), common))
    want = [polys.gcd(Poly(field, x), Poly(field, y)).degree for x, y in zip(a, b)]
    assert max(want) >= 12
    assert numkernels.gcd_degrees(_rows(a), _rows(b), p).tolist() == want


def _arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from _arrays(y)


def test_kernels_stay_narrow_and_return_their_dtypes(monkeypatch):
    # at p = 5 every kernel runs at int16: the beta blocks and their
    # primitives, the products, the sieve's jets and the elimination
    # buffers; the entry points return bool and int64 as they always have
    p = 5
    seen = {}

    def spy(name, pick):
        kernel = getattr(numkernels, name)

        def wrapped(*args):
            out = kernel(*args)
            seen.setdefault(name, set()).update(x.dtype for x in _arrays(pick(args, out)))
            return out

        monkeypatch.setattr(numkernels, name, wrapped)

    for name in ("_block_primitives", "_batched_polymul", "_product_mod", "_remainder"):
        spy(name, lambda args, out: [args, out])
    spy("_eliminate", lambda args, out: [args[0], args[2]])  # its degrees are int64
    rng = det_rng(0, "kernel-widths")
    numkernels.beta_mc_prime(p, 3000, 0)
    tuples = [rng.integers(0, p, size=(300, 6 * w + 1), dtype=np.int64) for w in (1, 2, 2, 3)]
    assert numkernels.xd_box_filter(p, tuples).dtype == bool
    rows = numkernels.delta_poly_batch(p, tuples)
    assert rows.dtype == np.int64
    assert numkernels.squarefree_batch(rows, p).dtype == bool
    assert numkernels.gcd_degrees(rows, np.roll(rows, 1, axis=0), p).dtype == np.int64
    assert numkernels.berlekamp_nullity(rows[:20], p).dtype == np.int64
    monic = rows[:, :25].copy()
    monic[:, 24] = 1
    ok, values = numkernels.i1_certificate(p, [c[:, :5] for c in tuples], monic)
    assert ok.dtype == bool and [v.dtype for v in values] == [np.int64] * 4
    assert set(seen) == {
        "_block_primitives", "_batched_polymul", "_product_mod", "_remainder", "_eliminate"
    }
    assert all(dtypes == {np.dtype(np.int16)} for dtypes in seen.values()), seen
