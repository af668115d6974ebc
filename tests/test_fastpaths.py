"""Differential tests of the prime-field fast paths against the boxed loops
they replace: the int route of liealg.primitives, Berkowitz on ints and the
bitmask enumeration of upward-closed sets; linalg.mat_mul on mixed inputs;
and the pinned digest of the Invariants calibration, whose chart functions
are one linear solve (``test_invariants`` checks it against the search over
F_p^3 in ``oracles``)."""

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


def reference_mat_mul(a, b):
    """The boxed triple loop: one field operation per product and sum."""
    n, k, m = len(a), len(b), len(b[0])
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    out = []
    for i in range(n):
        row = []
        for col in bt:
            acc = a[i][0] * col[0]
            for t in range(1, k):
                acc = acc + a[i][t] * col[t]
            row.append(acc)
        out.append(row)
    return out


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
    # a coordinate list takes the boxed field operations, a VElem the ints
    ctx, v = case
    got = primitives(ctx, v)
    assert got == primitives(ctx, list(v.coords))
    assert_boxed_in(got, ctx.field)


def test_prime_primitives_make_no_boxed_product(monkeypatch):
    ctx = D4Context(GF(23))
    rng = np.random.default_rng(10)
    v = VElem(ctx, [ctx.field.random(rng) for _ in range(16)])
    expected = primitives(ctx, list(v.coords))

    def boxed(self, other):
        raise AssertionError("boxed multiplication on the prime-field path")

    monkeypatch.setattr(FElem, "__mul__", boxed)
    assert primitives(ctx, v) == expected


def test_extension_field_matrices_take_the_generic_loop():
    f = GF(5, 2)
    rng = np.random.default_rng(11)
    for n, k, m in ((2, 3, 4), (4, 4, 1)):
        a, b = _random_matrix(f, rng, n, k), _random_matrix(f, rng, k, m)
        assert linalg.mat_mul(a, b) == reference_mat_mul(a, b)


def test_extension_entries_after_a_prime_first_entry():
    # the first entry is a base-field element, the rest live in GF(5^2): the
    # fields do not mix, so the loop raises on an FElem product
    f, ext = GF(5), GF(5, 2)
    rng = np.random.default_rng(12)
    a = _random_matrix(ext, rng, 3, 3)
    a[0][0] = f.elem(3)
    b = _random_matrix(f, rng, 3, 3)
    for x, y in ((a, b), (b, a)):
        assert outcome(linalg.mat_mul, x, y) == outcome(reference_mat_mul, x, y) == TypeError
        with pytest.raises(TypeError, match="'FElem' and 'FElem'"):
            linalg.mat_mul(x, y)


def test_mpoly_matrices_take_the_generic_loop():
    f = GF(23)
    rng = np.random.default_rng(13)

    def entry():
        return MPoly(2, {(int(rng.integers(0, 3)), int(rng.integers(0, 3))): f.random(rng)})

    a = [[entry() for _ in range(3)] for _ in range(2)]
    b = [[entry() for _ in range(2)] for _ in range(3)]
    assert linalg.mat_mul(a, b) == reference_mat_mul(a, b)
    # a prime-field matrix times MPolys
    c = _random_matrix(f, rng, 2, 2)
    assert linalg.mat_mul(c, a) == reference_mat_mul(c, a)


def test_mixed_inputs_behave_as_the_boxed_loop():
    f, g = GF(23), GF(29)
    other23 = PrimeField(23)  # equal to GF(23) but a different object
    rng = np.random.default_rng(14)
    a = _random_matrix(f, rng, 3, 3)
    cases = []
    for b_field in (g, other23):
        cases.append((a, _random_matrix(b_field, rng, 3, 2)))
    with_ints = _random_matrix(f, rng, 3, 3)
    with_ints[1][2] = 7
    cases.append((a, with_ints))
    cases.append((with_ints, a))
    numpy_vals = _random_matrix(f, rng, 3, 3)
    numpy_vals[2][0] = FElem(f, np.int64(5))
    cases.append((a, numpy_vals))
    # int64 values at p = 2^31 - 1: each product fits in 64 bits, a sum of three does not
    big = GF(2**31 - 1)
    top = [[FElem(big, big.p - 1)] * 3 for _ in range(3)]
    cases.append(([[FElem(big, np.int64(big.p - 1))] * 3] * 3, top))
    ragged = [row[:] for row in a]
    ragged[1] = ragged[1] + [f.one]  # longer row: the loop reads only k entries
    cases.append((ragged, a))
    short = [row[:] for row in a]
    short[2] = short[2][:2]
    cases.append((short, a))
    cases.append((a, short))
    for x, y in cases:
        assert outcome(linalg.mat_mul, x, y) == outcome(reference_mat_mul, x, y)
    assert outcome(reference_mat_mul, a, cases[0][1]) is TypeError


@st.composite
def square_matrix(draw):
    p = draw(st.sampled_from([5, 23, 101]))
    n = draw(st.integers(1, 28))
    return p, draw(matrix(p, n, n))


@settings(max_examples=10, deadline=None)
@given(square_matrix())
def test_int_berkowitz_matches_the_boxed_loop(case):
    # the same matrix as constants of GF(p^2) takes the boxed loop, whose
    # coefficients are those of the prime field
    p, a = case
    f, ext = GF(p), GF(p, 2)
    got = linalg.charpoly_berkowitz(f, a)
    assert len(got) == len(a) + 1 and got[-1] == f.one
    assert_boxed_in(got, f)
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
    assert linalg.charpoly_berkowitz(f, a) == expected


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
