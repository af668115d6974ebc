"""Differential tests of the prime-field fast paths against the boxed loops
they replace: the int route of liealg.primitives, Berkowitz on ints and the
bitmask enumeration of upward-closed sets; linalg.mat_mul against the ring
laws of the matrix product, which do not re-run its loop, and on mixed
inputs; and the pinned digest of the Invariants calibration, whose chart
functions are one linear solve (``test_invariants`` checks it against the
search over F_p^3 in ``oracles``)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d4vinberg import linalg
from d4vinberg.fields import GF, FElem, PrimeField
from d4vinberg.hnweights import enumerate_upward_closed
from d4vinberg.invariants import Invariants
from d4vinberg.liealg import D4Context, LABELS, VElem, leq, primitives
from d4vinberg.multipoly import MPoly

from oracles import det


def outcome(fn, *args):
    """The result of fn, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@st.composite
def matrix(draw, p, rows, cols):
    f = GF(p)
    vals = st.integers(0, p - 1)
    return [[FElem(f, draw(vals)) for _ in range(cols)] for _ in range(rows)]


def assert_boxed_in(result, field):
    for x in result:
        assert type(x) is FElem and x.field is field and type(x.val) is int
        assert 0 <= x.val < field.p


def _random_matrix(field, rng, n, m):
    return [[field.random(rng) for _ in range(m)] for _ in range(n)]


@st.composite
def prime_velem(draw):
    """A random VElem at p in {5, 23, 29} with int values, or at p = 2^31 - 1
    with np.int64 values, whose unreduced sums of products overflow int64."""
    p = draw(st.sampled_from([5, 23, 29, 2**31 - 1]))
    ctx = D4Context(GF(p))
    vals = draw(st.lists(st.integers(0, p - 1), min_size=16, max_size=16))
    box = np.int64 if p > 29 else int
    return ctx, VElem(ctx, [FElem(ctx.field, box(x)) for x in vals])


@settings(max_examples=60, deadline=None)
@given(prime_velem())
def test_primitives_int_route_matches_the_generic_route(case):
    # a list of the boxed coordinates takes the field operations, a VElem
    # the ints it holds
    ctx, v = case
    assert all(type(c) is int for c in v.coords)
    got = primitives(ctx, v)
    assert got == primitives(ctx, [v[l] for l in LABELS])
    assert_boxed_in(got, ctx.field)


def test_prime_primitives_make_no_boxed_product(monkeypatch):
    ctx = D4Context(GF(23))
    rng = np.random.default_rng(10)
    v = VElem(ctx, [ctx.field.random(rng) for _ in range(16)])
    expected = primitives(ctx, [v[l] for l in LABELS])

    def boxed(self, other):
        raise AssertionError("boxed multiplication on the prime-field path")

    monkeypatch.setattr(FElem, "__mul__", boxed)
    assert primitives(ctx, v) == expected


def _unit(zero, one, n, m, i, j):
    """The n x m matrix with one at (i, j) and zero elsewhere."""
    return [[one if (r, c) == (i, j) else zero for c in range(m)] for r in range(n)]


def _eye(zero, one, n):
    return [[one if r == c else zero for c in range(n)] for r in range(n)]


def _mat_add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def assert_ring_laws(zero, one, a, b, c, d):
    """mat_mul on a (n x k), b and c (k x m) and d (m x l) against laws that
    do not re-run its loop: unit matrices move one row or column (with
    bilinearity, this fixes the product), the identity is neutral, and the
    product is associative and distributive."""
    n, k, m = len(a), len(b), len(b[0])
    mul = linalg.mat_mul
    for i in range(n):
        for j in range(k):
            e = _unit(zero, one, n, k, i, j)
            assert mul(e, b) == [b[j] if r == i else [zero] * m for r in range(n)]
    for i in range(k):
        for j in range(m):
            e = _unit(zero, one, k, m, i, j)
            assert mul(a, e) == [[row[i] if col == j else zero for col in range(m)] for row in a]
    assert mul(_eye(zero, one, n), a) == a == mul(a, _eye(zero, one, k))
    assert mul(mul(a, b), d) == mul(a, mul(b, d))
    assert mul(a, _mat_add(b, c)) == _mat_add(mul(a, b), mul(a, c))
    assert mul(_mat_add(b, c), d) == _mat_add(mul(b, d), mul(c, d))


# (n, k, m, l): a is n x k, b and c are k x m, d is m x l
SHAPES = st.lists(st.integers(1, 4), min_size=4, max_size=4)


@settings(max_examples=20, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2**32 - 1))
def test_mat_mul_ring_laws_over_an_extension_field(shape, seed):
    f = GF(23, 2)
    rng = np.random.default_rng(seed)
    n, k, m, l = shape
    a, b, c, d = (_random_matrix(f, rng, r, s) for r, s in ((n, k), (k, m), (k, m), (m, l)))
    assert_ring_laws(f.zero, f.one, a, b, c, d)


@settings(max_examples=10, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2**32 - 1))
def test_mat_mul_ring_laws_on_mpoly_matrices(shape, seed):
    # evaluation at a point is a ring map, so it commutes with the product
    f = GF(23)
    rng = np.random.default_rng(seed)

    def entry():
        exps = rng.integers(0, 3, size=(2, 2)).tolist()
        return MPoly(2, {tuple(e): f.random(rng) for e in exps})

    def matrix_of(r, s):
        return [[entry() for _ in range(s)] for _ in range(r)]

    n, k, m, l = shape
    a, b, c, d = (matrix_of(r, s) for r, s in ((n, k), (k, m), (k, m), (m, l)))
    assert_ring_laws(MPoly(2), MPoly.const(2, f.one), a, b, c, d)
    point = [f.random(rng) for _ in range(2)]

    def at(mat):
        return [[f.elem(x.eval(point)) for x in row] for row in mat]

    assert at(linalg.mat_mul(a, b)) == linalg.mat_mul(at(a), at(b))
    # a prime-field matrix times MPolys, against the MPoly constants
    e = _random_matrix(f, rng, 2, n)
    constants = [[MPoly.const(2, x) for x in row] for row in e]
    assert linalg.mat_mul(e, a) == linalg.mat_mul(constants, a)


def test_extension_entries_after_a_prime_first_entry():
    # the first entry is a base-field element, the rest live in GF(5^2): the
    # fields do not mix, so the loop raises on an FElem product
    f, ext = GF(5), GF(5, 2)
    rng = np.random.default_rng(12)
    a = _random_matrix(ext, rng, 3, 3)
    a[0][0] = f.elem(3)
    b = _random_matrix(f, rng, 3, 3)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(TypeError, match="'FElem' and 'FElem'"):
            linalg.mat_mul(x, y)


def test_mixed_inputs_behave_as_the_boxed_loop():
    # fields that do not mix raise TypeError and ragged shapes IndexError;
    # int and np.int64 entries act as the field elements they stand for
    f, g = GF(23), GF(29)
    other23 = PrimeField(23)  # equal to GF(23) but a different object
    rng = np.random.default_rng(14)
    a = _random_matrix(f, rng, 3, 3)
    for b_field in (g, other23):
        b = _random_matrix(b_field, rng, 3, 2)
        assert outcome(linalg.mat_mul, a, b) is TypeError
    short = [row[:] for row in a]
    short[2] = short[2][:2]
    assert outcome(linalg.mat_mul, short, a) is IndexError
    assert outcome(linalg.mat_mul, a, short) is IndexError

    def boxed(mat):
        return [[f.elem(int(x.val) if isinstance(x, FElem) else x) for x in row] for row in mat]

    with_ints = _random_matrix(f, rng, 3, 3)
    with_ints[1][2] = 7
    numpy_vals = _random_matrix(f, rng, 3, 3)
    numpy_vals[2][0] = FElem(f, np.int64(5))
    for x, y in ((a, with_ints), (with_ints, a), (a, numpy_vals)):
        assert linalg.mat_mul(x, y) == linalg.mat_mul(boxed(x), boxed(y))
    # int64 values at p = 2^31 - 1: each product fits in 64 bits, a sum of
    # three does not; every entry is 3 (p - 1)^2 = 3
    big = GF(2**31 - 1)
    top = [[FElem(big, big.p - 1)] * 3 for _ in range(3)]
    wide = [[FElem(big, np.int64(big.p - 1))] * 3] * 3
    assert linalg.mat_mul(wide, top) == [[big.elem(3)] * 3] * 3
    ragged = [row[:] for row in a]
    ragged[1] = ragged[1] + [f.one]  # longer row: the loop reads only k entries
    assert linalg.mat_mul(ragged, a) == linalg.mat_mul(a, a)


@st.composite
def square_matrix(draw):
    p = draw(st.sampled_from([5, 23, 101]))
    n = draw(st.integers(1, 28))
    return p, draw(matrix(p, n, n))


@settings(max_examples=10, deadline=None)
@given(square_matrix())
def test_int_berkowitz_matches_the_boxed_loop(case):
    # the values as ints mod p take the int kernel; the matrix of FElems and
    # the same matrix as constants of GF(p^2) take the boxed loop, whose
    # coefficients are those of the prime field
    p, a = case
    f, ext = GF(p), GF(p, 2)
    got = linalg.charpoly_berkowitz(f.coords, [[x.val for x in row] for row in a])
    assert len(got) == len(a) + 1 and got[-1] == 1
    assert all(type(c) is int and 0 <= c < p for c in got)
    boxed = linalg.charpoly_berkowitz(f, a)
    assert_boxed_in(boxed, f)
    assert boxed == [f.elem(c) for c in got]
    lifted = [[ext.elem(x) for x in row] for row in a]
    assert linalg.charpoly_berkowitz(ext, lifted) == [ext.elem(c) for c in got]


def test_prime_berkowitz_takes_the_int_kernel(monkeypatch):
    f = GF(23)
    a = _random_matrix(f, np.random.default_rng(15), 6, 6)
    expected = linalg.charpoly_berkowitz(f, a)
    for t in f:  # 23 points fix a polynomial of degree 6: det(tI - a)
        shifted = [[t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(a)]
        assert sum(c * t**k for k, c in enumerate(expected)) == det(f, shifted)

    def boxed(self, other):
        raise AssertionError("boxed multiplication on the prime-field path")

    monkeypatch.setattr(FElem, "__mul__", boxed)
    # unreduced and negative ints are read mod p
    ints = [[x.val - 23 * (i + j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    assert linalg.charpoly_berkowitz(f.coords, ints) == [c.val for c in expected]


def reference_upward_closed():
    """Every nonempty subset of Phi_V as a frozenset, tested through leq."""
    labels = list(LABELS)
    out = []
    for mask in range(1, 1 << 16):
        m = frozenset(labels[i] for i in range(16) if mask & (1 << i))
        if all(all(b in m for b in LABELS if leq(a, b)) for a in m):
            out.append(m)
    return out


def test_bitmask_upward_closed_matches_brute_force():
    got = enumerate_upward_closed()
    assert len(got) == 167  # the Dedekind number D(4) = 168, less the empty set
    assert got == reference_upward_closed()


# SHA-256 of calibration_json(): the digests of the chart search over F_p^3,
# which the linear solve of the chart functions reproduces
CALIBRATION_SHA256 = {
    23: "2e75c5bc2705b21b28786efa708eeb33fa29b3153b20ff6852bc9e2af1372a20",
    29: "edf739accaa914851e04167b74118a6e0fb0cbbd3c17eeb67d833b66ffc90efc",
}


@pytest.mark.parametrize("p", sorted(CALIBRATION_SHA256))
def test_calibration_is_pinned_and_seed_free(p):
    ctx = D4Context(GF(p))
    digests = {
        seed: hashlib.sha256(Invariants(ctx, seed).calibration_json().encode()).hexdigest()
        for seed in (0, 1, 7)
    }
    assert set(digests.values()) == {digests[0]}
    assert digests[0] == CALIBRATION_SHA256[p]
