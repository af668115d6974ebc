"""The prime-field Lie side on ints: a VElem over GF(p) holds Python ints in
[0, p), and the G-action, pi, the chart solves and the orbit reduction run
on them.

The oracle is the boxed path: the same inputs as constants of GF(p^2),
whose coordinates stay FElems and whose products are ExtField ones.  A
prime-field element embeds as a constant, so every int result must lift
to the extension-field result.  Also here: the one-field rule on the int
path, np.int64 inputs at a prime whose products overflow int64, and the
eliminations on a prime field's coordinate object, ``GF(p).coords``,
against the boxed ones.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d4vinberg import linalg
from d4vinberg.fields import GF, FElem
from d4vinberg.invariants import Invariants
from d4vinberg.liealg import (
    G_ROOTS,
    G_SIMPLE,
    LABELS,
    W0_PERMS,
    D4Context,
    TorusGen,
    UnipGen,
    VElem,
    WeylGen,
    primitives,
)
from d4vinberg.orbits import reduce_trivial
from d4vinberg.quartic import quartic_disc

PRIMES = st.sampled_from([23, 29])
SETTINGS = settings(max_examples=25, deadline=None)


@lru_cache(maxsize=None)
def invariants(p, m=1):
    return Invariants(D4Context(GF(p, m)))


def ext_of(p):
    """The invariants over GF(p^2) and the lift of GF(p) values into it."""
    ext_inv = invariants(p, 2)
    ext_ctx = ext_inv.ctx
    ext = ext_ctx.field

    def lift(x):
        if isinstance(x, VElem):
            return VElem(ext_ctx, [ext.elem(x[l]) for l in LABELS])
        if isinstance(x, TorusGen):
            return TorusGen([ext.elem(c) for c in x.values])
        if isinstance(x, UnipGen):
            return UnipGen(x.root, ext.elem(x.c))
        if isinstance(x, WeylGen):
            return x
        return ext.elem(x)

    return ext_inv, lift


def elems(p, low=0):
    f = GF(p)
    return st.integers(low, p - 1).map(f.elem)


@st.composite
def velem(draw, p):
    ctx = invariants(p).ctx
    return VElem(ctx, draw(st.lists(elems(p), min_size=16, max_size=16)))


@st.composite
def generator(draw, p):
    kind = draw(st.sampled_from(["torus", "unip", "weyl"]))
    if kind == "torus":
        return TorusGen(draw(st.lists(elems(p, 1), min_size=4, max_size=4)))
    if kind == "unip":
        return UnipGen(draw(st.sampled_from(G_ROOTS)), draw(elems(p)))
    return WeylGen(draw(st.sampled_from(sorted(W0_PERMS))))


def assert_int_coords(v):
    p = v.ctx.field.p
    assert all(type(c) is int and 0 <= c < p for c in v.coords)


@SETTINGS
@given(PRIMES.flatmap(lambda p: st.tuples(velem(p), velem(p), elems(p))))
def test_arithmetic_matches_the_field_operations(case):
    # coordinate by coordinate on the boxed values (the GF(p^2) lift would
    # run the same VElem code), and lifted
    v, w, c = case
    ext_inv, lift = ext_of(v.ctx.field.p)
    cases = (
        (v + w, [v[l] + w[l] for l in LABELS], lift(v) + lift(w)),
        (v - w, [v[l] - w[l] for l in LABELS], lift(v) - lift(w)),
        (-v, [-v[l] for l in LABELS], -lift(v)),
        (v.scale(c), [c * v[l] for l in LABELS], lift(v).scale(lift(c))),
    )
    for got, boxed, lifted in cases:
        assert_int_coords(got)
        assert [got[l] for l in LABELS] == boxed and lift(got) == lifted
        assert got.zero_set() == frozenset(l for l, x in zip(LABELS, boxed) if not x)
    assert (v - v).is_zero() and (v - v).zero_set() == frozenset(LABELS)


@SETTINGS
@given(PRIMES.flatmap(lambda p: st.tuples(velem(p), generator(p))))
def test_each_generator_matches_the_extension_field_action(case):
    v, gen = case
    ext_inv, lift = ext_of(v.ctx.field.p)
    got = v.ctx.act_gen(gen, v)
    assert_int_coords(got)
    assert lift(got) == ext_inv.ctx.act_gen(lift(gen), lift(v))


@SETTINGS
@given(PRIMES.flatmap(lambda p: st.tuples(velem(p), st.lists(generator(p), max_size=5))))
def test_random_words_and_pi_match_the_extension_field(case):
    v, word = case
    ext_inv, lift = ext_of(v.ctx.field.p)
    got = v.ctx.act(word, v)
    assert_int_coords(got)
    assert lift(got) == ext_inv.ctx.act([lift(g) for g in word], lift(v))
    b = invariants(v.ctx.field.p).pi(got)
    assert all(type(c) is FElem and c.field is v.ctx.field for c in b)
    assert tuple(map(lift, b)) == ext_inv.pi(lift(got))


@SETTINGS
@given(PRIMES.flatmap(lambda p: st.tuples(st.just(p), st.lists(elems(p), min_size=4, max_size=4))))
def test_kostant_section_matches_the_extension_field(case):
    p, b = case
    ext_inv, lift = ext_of(p)
    kappa = invariants(p).kostant_section(b)
    assert_int_coords(kappa)
    assert lift(kappa) == ext_inv.kostant_section([lift(c) for c in b])


@SETTINGS
@given(PRIMES.flatmap(lambda p: st.tuples(st.just(p), st.lists(elems(p), min_size=5, max_size=5))))
def test_slice_chart_matches_the_extension_field(case):
    p, cs = case
    inv = invariants(p)
    ext_inv, lift = ext_of(p)
    v = inv.slice_param(cs)
    assert lift(v) == ext_inv.slice_param([lift(c) for c in cs])
    x, y, b = inv.slice_coords(v)
    assert (lift(x), lift(y), tuple(map(lift, b))) == ext_inv.slice_coords(lift(v))
    got = inv.slice_lift(b, x, y)
    assert got == v
    assert lift(got) == ext_inv.slice_lift([lift(c) for c in b], lift(x), lift(y))


@st.composite
def planted(draw, p):
    """w u t kappa_b for a random b with Delta(b) != 0, as in the orbit suite."""
    inv = invariants(p)
    b = draw(st.lists(elems(p), min_size=4, max_size=4).filter(quartic_disc))
    w = WeylGen(draw(st.sampled_from(sorted(W0_PERMS))))
    t = TorusGen(draw(st.lists(elems(p, 1), min_size=4, max_size=4)))
    cs = draw(st.lists(elems(p), min_size=4, max_size=4))
    unips = [UnipGen(tuple(-x for x in a), c) for a, c in zip(G_SIMPLE, cs)]
    return inv.ctx.act(unips + [t], inv.ctx.act(w, inv.kostant_section(b)))


@settings(max_examples=15, deadline=None)
@given(PRIMES.flatmap(planted))
def test_reduce_trivial_matches_the_extension_field(v):
    p = v.ctx.field.p
    ext_inv, lift = ext_of(p)
    got = reduce_trivial(invariants(p), v)
    want = reduce_trivial(ext_inv, lift(v))
    assert got.certified and want.certified and got.w_name == want.w_name
    assert lift(got.kostant_point) == want.kostant_point
    for g, h in zip(got.word, want.word):
        assert type(g) is type(h)
        if isinstance(g, UnipGen):
            assert type(g.c) is FElem and g.c.field is v.ctx.field
            assert g.root == h.root and lift(g.c) == h.c


def test_act_gen_and_kostant_section_make_no_boxed_product(monkeypatch):
    inv = invariants(23)
    ctx, f = inv.ctx, inv.ctx.field
    rng = np.random.default_rng(3)
    v = VElem(ctx, [f.random(rng) for _ in range(16)])
    gens = [
        TorusGen([f.random_nonzero(rng) for _ in range(4)]),
        UnipGen(G_ROOTS[5], f.random(rng)),
        WeylGen("s13.24"),
    ]
    b = [f.random(rng) for _ in range(4)]
    expected = [ctx.act_gen(g, v) for g in gens], inv.kostant_section(b)

    def boxed(self, other):
        raise AssertionError("boxed multiplication on the prime-field path")

    monkeypatch.setattr(FElem, "__mul__", boxed)
    monkeypatch.setattr(FElem, "__rmul__", boxed)
    assert ([ctx.act_gen(g, v) for g in gens], inv.kostant_section(b)) == expected


# -- the one-field rule on the int path --


def test_velem_refuses_an_element_of_another_field():
    ctx = invariants(23).ctx
    for other in (GF(29).one, GF(23, 2).gen, GF(23, 2).one):
        with pytest.raises(ValueError):
            VElem(ctx, [other] + [0] * 15)


def test_act_gen_refuses_values_of_another_field():
    ctx = invariants(23).ctx
    v = VElem(ctx, range(16))
    with pytest.raises(ValueError):
        ctx.act_gen(TorusGen([GF(29).one] * 4), v)
    with pytest.raises(ValueError):
        ctx.act_gen(TorusGen([GF(23, 2).gen] * 4), v)
    with pytest.raises(ValueError):
        ctx.act_gen(UnipGen(G_ROOTS[0], GF(29).one), v)


def test_velem_equality_needs_the_same_field():
    # over GF(23^2) the coordinates are FElems, and an FElem equals the int
    # of its value; the fields must still differ
    ints = list(range(16))
    prime = VElem(invariants(23).ctx, ints)
    ext = VElem(invariants(23, 2).ctx, ints)
    assert prime != ext and ext != prime
    assert prime == VElem(D4Context(GF(23)), ints)
    assert prime != VElem(invariants(29).ctx, ints)


def test_velem_coordinates_are_reduced_python_ints():
    ctx = invariants(23).ctx
    v = VElem(ctx, [-1, 23, 24, np.int64(47), FElem(ctx.field, np.int64(5))] + [0] * 11)
    assert v.coords[:5] == (22, 0, 1, 1, 5)
    assert_int_coords(v)
    assert v[1] == ctx.field.elem(22) and type(v[1]) is FElem
    assert v.serialize().startswith("22,0,1,1,5,0")


# -- np.int64 values at a prime whose products overflow int64 --

BIG = 2**31 - 1


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, BIG - 1), min_size=16, max_size=16),
    st.lists(st.integers(1, BIG - 1), min_size=4, max_size=4),
    st.integers(0, BIG - 1),
    st.sampled_from(G_ROOTS),
)
def test_np_int64_inputs_match_the_boxed_route(vals, alphas, c, root):
    ctx, ext_ctx = D4Context(GF(BIG)), D4Context(GF(BIG, 2))
    f, ext = ctx.field, ext_ctx.field

    def box(x):
        return FElem(f, np.int64(x))

    v = VElem(ctx, [box(x) for x in vals])
    assert_int_coords(v)
    # a TorusGen tests its values for zero, which an FElem holding an
    # np.int64 answers with a bool; the bare np.int64 of a coordinate also
    # reads as a field value
    word = [TorusGen([box(x) for x in alphas[:2]] + [np.int64(x) for x in alphas[2:]]),
            UnipGen(root, box(c)), WeylGen("s14.23")]
    got = ctx.act(word, v)
    assert_int_coords(got)
    lift_v = VElem(ext_ctx, [ext.elem(int(x)) for x in vals])
    lift_word = [
        TorusGen([ext.elem(int(x)) for x in alphas]),
        UnipGen(root, ext.elem(int(c))),
        WeylGen("s14.23"),
    ]
    assert VElem(ext_ctx, [ext.elem(got[l]) for l in LABELS]) == ext_ctx.act(lift_word, lift_v)
    b = primitives(ctx, got)
    assert all(type(x.val) is int for x in b)
    assert b == primitives(ctx, [got[l] for l in LABELS])
    assert tuple(ext.elem(x) for x in b) == primitives(ext_ctx, ext_ctx.act(lift_word, lift_v))


# -- the eliminations on GF(p).coords against the boxed ones --


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([5, 23, 29]),
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_modp_eliminations_match_the_boxed_ones(p, rows, cols, data):
    # the coordinate object reads unreduced and negative ints; the boxed
    # field gets them reduced
    f = GF(p)
    ring = f.coords
    ints = st.integers(-3 * p, 3 * p)
    a = [data.draw(st.lists(ints, min_size=cols, max_size=cols)) for _ in range(rows)]
    b = data.draw(st.lists(ints, min_size=rows, max_size=rows))
    boxed = [[f.elem(x) for x in row] for row in a]
    assert linalg.rank(ring, a) == linalg.rank(f, boxed)
    kernel = linalg.kernel_basis(ring, a)
    assert all(0 <= x < p for vec in kernel for x in vec)
    assert kernel == [[x.val for x in vec] for vec in linalg.kernel_basis(f, boxed)]
    sol, want = linalg.solve(ring, a, b), linalg.solve(f, boxed, [f.elem(x) for x in b])
    assert (sol is None) == (want is None)
    if sol is not None:
        assert all(0 <= x < p for x in sol) and sol == [x.val for x in want]


def test_the_empty_system():
    # no equations: rank 0, and the empty solution of zero unknowns
    for field in (GF(23), GF(23).coords):
        assert linalg.rank(field, []) == 0 and linalg.kernel_basis(field, []) == []
        assert linalg.solve(field, [], []) == []
