"""Differential tests of the one polynomial evaluator, MPoly.eval, and of
every ring it runs over: Python ring elements and the vectorized adapters
in numkernels (mod-p arrays, dual numbers, index tables, batched and
int-list polynomials).  The straight-line program quartic.delta, which
quartic_disc and the numkernels adapters run, is checked against the
expanded plan of delta_mpoly() over the same rings and over ints, rational
functions and polynomials over GF(25)."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from d4vinberg import numkernels
from d4vinberg.fields import GF
from d4vinberg.funcfield import RatFunc
from d4vinberg.multipoly import MPoly
from d4vinberg.polys import Poly
from d4vinberg.quartic import delta, disc_univariate, quartic_disc, quartic_poly
from oracles import delta_gradient, delta_mpoly

SETTINGS = settings(max_examples=60, deadline=None)
PRIMES = st.sampled_from([5, 7, 11, 23])


def reference_eval(poly, args):
    """Term-by-term evaluation: c * x_1^e_1 * ... * x_n^e_n, summed."""
    acc = None
    for e, c in poly.terms.items():
        term = c
        for x, k in zip(args, e):
            for _ in range(k):
                term = term * x
        acc = term if acc is None else acc + term
    if acc is None:
        return 0
    return acc


@st.composite
def mpolys(draw, coeff):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.dictionaries(exps, coeff, max_size=6))
    return MPoly(nvars, terms)


@lru_cache(maxsize=None)
def _field(p, m):
    return GF(p, m)


@lru_cache(maxsize=None)
def _elements(p, m):
    return list(_field(p, m))


@lru_cache(maxsize=None)
def _table(p, m):
    return numkernels.GFTable(_field(p, m))


@SETTINGS
@given(mpolys(st.integers(-20, 20)), st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_eval_matches_reference_over_ints(poly, args):
    assert poly.eval(args) == reference_eval(poly, args)


@SETTINGS
@given(
    st.sampled_from([(7, 1), (5, 2)]),
    st.data(),
)
def test_eval_matches_reference_over_field_elements(pm, data):
    elems = _elements(*pm)
    felem = st.sampled_from(elems)
    poly = data.draw(mpolys(felem))
    args = data.draw(st.lists(felem, min_size=3, max_size=3))
    assert poly.eval(args) == reference_eval(poly, args)


@SETTINGS
@given(st.sampled_from([(5, 1), (7, 1), (23, 1), (5, 2), (7, 2)]), st.data())
def test_quartic_disc_matches_resultant_oracle(pm, data):
    field = _field(*pm)
    b = tuple(data.draw(st.lists(st.sampled_from(_elements(*pm)), min_size=4, max_size=4)))
    assert quartic_disc(b) == disc_univariate(quartic_poly(field, b))


def _coeff_lists(p, max_len=7):
    return st.lists(
        st.lists(st.integers(0, p - 1), min_size=1, max_size=max_len),
        min_size=4,
        max_size=4,
    )


@SETTINGS
@given(PRIMES, st.data())
def test_intlist_delta_matches_poly_delta(p, data):
    lists = data.draw(_coeff_lists(p))
    field = GF(p)
    delta = quartic_disc(tuple(Poly(field, [field.elem(c) for c in cs]) for cs in lists))
    assert numkernels.delta_poly_intlists(p, lists) == [c.val for c in delta.coeffs]


@SETTINGS
@given(PRIMES, st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_batch_rows_match_intlist_delta(p, d, n, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.integers(0, p, size=(n, 2 * d * w + 1), dtype=np.int64) for w in (1, 2, 2, 3)]
    batch = numkernels.delta_poly_batch(p, arrays)
    # columns stop at the weighted degree 24 d of Delta
    assert batch.shape == (n, 24 * d + 1)
    for i, row in enumerate(batch.tolist()):
        expected = numkernels.delta_poly_intlists(p, [a[i].tolist() for a in arrays])
        while row and row[-1] == 0:
            row.pop()
        assert row == expected


@SETTINGS
@given(PRIMES, st.integers(0, 2**32 - 1))
def test_mod_and_dual_rings_match_field_elements(p, seed):
    """Dual numbers give (Delta(b0), grad Delta(b0) . b1); residues Delta(b0)."""
    field = GF(p)
    rng = np.random.default_rng(seed)
    b0 = [rng.integers(0, p, size=8, dtype=np.int64) for _ in range(4)]
    b1 = [rng.integers(0, p, size=8, dtype=np.int64) for _ in range(4)]
    values = delta_mpoly().eval(b0, numkernels.mod_ring(p))
    d0, d1 = delta_mpoly().eval(list(zip(b0, b1)), numkernels.dual_ring(p))
    grad = delta_gradient()
    for j in range(8):
        x0 = [field.elem(int(a[j])) for a in b0]
        x1 = [field.elem(int(a[j])) for a in b1]
        value = quartic_disc(x0)
        slope = sum((g.eval(x0) * t for g, t in zip(grad, x1)), field.zero)
        assert int(values[j]) == int(d0[j]) == value.val
        assert int(d1[j]) == slope.val


@SETTINGS
@given(st.lists(st.lists(st.integers(0, 24), min_size=4, max_size=4), min_size=1, max_size=8))
def test_table_ring_matches_field_elements_gf25(points):
    field, tab, elems = _field(5, 2), _table(5, 2), _elements(5, 2)
    by_code = {field.to_int(x): x for x in elems}
    arrays = [np.array([pt[i] for pt in points], dtype=np.int64) for i in range(4)]
    got = delta_mpoly().eval(arrays, tab.ring)
    for j, pt in enumerate(points):
        assert int(got[j]) == field.to_int(quartic_disc([by_code[c] for c in pt]))


# -- the straight-line program delta against the expanded plan --


def _trimmed(row):
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return row


@SETTINGS
@given(PRIMES, st.integers(0, 2**32 - 1))
def test_delta_matches_plan_over_mod_and_dual_rings(p, seed):
    rng = np.random.default_rng(seed)
    b0 = [rng.integers(0, p, size=16, dtype=np.int64) for _ in range(4)]
    b1 = [rng.integers(0, p, size=16, dtype=np.int64) for _ in range(4)]
    ring = numkernels.mod_ring(p)
    assert delta(b0, ring).tolist() == delta_mpoly().eval(b0, ring).tolist()
    dual = numkernels.dual_ring(p)
    got = delta(list(zip(b0, b1)), dual)
    want = delta_mpoly().eval(list(zip(b0, b1)), dual)
    assert [g.tolist() for g in got] == [w.tolist() for w in want]


@SETTINGS
@given(st.sampled_from([(5, 1), (7, 1), (23, 1), (5, 2)]), st.data())
def test_delta_matches_plan_over_field_elements(pm, data):
    b = data.draw(st.lists(st.sampled_from(_elements(*pm)), min_size=4, max_size=4))
    assert delta(b) == delta_mpoly().eval(b)


@SETTINGS
@given(st.lists(st.lists(st.integers(0, 24), min_size=4, max_size=4), min_size=1, max_size=8))
def test_delta_matches_plan_over_gf25_tables(points):
    tab = _table(5, 2)
    arrays = [np.array([pt[i] for pt in points], dtype=np.int64) for i in range(4)]
    got = delta(arrays, tab.ring)
    assert got.tolist() == delta_mpoly().eval(arrays, tab.ring).tolist()


@SETTINGS
@given(PRIMES, st.lists(st.integers(1, 9), min_size=4, max_size=4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_delta_matches_plan_over_batches(p, widths, n, seed):
    # any widths, not only those of H^0(X, B_D): rows agree once trimmed
    rng = np.random.default_rng(seed)
    arrays = [rng.integers(0, p, size=(n, w), dtype=np.int64) for w in widths]
    ring = numkernels.batch_ring(p)
    got = delta(arrays, ring)
    want = delta_mpoly().eval(arrays, ring)
    for g, w in zip(got.tolist(), want.tolist()):
        assert _trimmed(g) == _trimmed(w)


# -- quartic_disc, which runs delta, against the plan over Python rings --


@SETTINGS
@given(st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4))
def test_quartic_disc_matches_plan_over_ints(b):
    assert quartic_disc(b) == delta_mpoly().eval(b)


def _polys(p, m, max_len=4):
    """Polys over GF(p^m) of degree < max_len, the zero Poly included."""
    elems = st.sampled_from(_elements(p, m))
    return st.lists(elems, max_size=max_len).map(lambda cs: Poly(_field(p, m), cs))


@SETTINGS
@given(st.data())
def test_quartic_disc_matches_plan_over_rational_functions_f5(data):
    nums = data.draw(st.lists(_polys(5, 1), min_size=4, max_size=4))
    dens = data.draw(
        st.lists(_polys(5, 1).filter(lambda f: not f.is_zero()), min_size=4, max_size=4)
    )
    b = [RatFunc(n, d) for n, d in zip(nums, dens)]
    assert quartic_disc(b) == delta_mpoly().eval(b)


@SETTINGS
@given(st.data())
def test_quartic_disc_matches_plan_over_gf25_polys(data):
    b = data.draw(st.lists(_polys(5, 2, max_len=5), min_size=4, max_size=4))
    assert quartic_disc(b) == delta_mpoly().eval(b)
