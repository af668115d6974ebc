"""Differential tests of the X_D kernels of numkernels.

``berlekamp_nullity`` counts the irreducible factors of each row of a
stack; its oracle is the length of ``polys.factor``.  ``gcd_degrees``
runs the lockstep elimination of ``squarefree_batch`` on two batches; its
oracle is ``polys.gcd``.  ``_remainder`` is the same elimination with the
second batch held fixed; its oracle is ``poly_divmod``.  ``xd_box_filter``
tests a batch of tuples of H^0(X, B_D) at once; its oracles are the
unsieved filter ``oracles.xd_box_filter_unsieved`` and the boxed one-row
``curves.in_xd_fast``.  Its sieve at the places of degree 1 is held to
``oracles.double_zero_of_degree_one`` on the boxed Delta of each row.

At P_TOP, the largest prime below MAX_P, each kernel's int64 bound is
tight: the reductions of ``_eliminate`` and ``_remainder``, the bound
n (p - 1)^2 + p < 2^63 of Berlekamp's matrices and the 128-term slices of
the sieve's jet product decide whether a result is exact."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from d4vinberg import numkernels, polys
from d4vinberg.curves import WEIGHTS, in_xd_fast
from d4vinberg.fields import GF
from d4vinberg.polys import Poly
from d4vinberg.quartic import delta
from d4vinberg.rng import det_rng
from oracles import disc_poly, double_zero_of_degree_one, xd_box_filter_unsieved

P_TOP = 268435399  # the largest prime below numkernels.MAX_P = 2^28


def _rows(polys_, width=None):
    """Int lists (lowest degree first) as the rows of a zero-padded array."""
    width = width or max(1, max(len(c) for c in polys_))
    out = np.zeros((len(polys_), width), dtype=np.int64)
    for i, c in enumerate(polys_):
        out[i, : len(c)] = c
    return out


def _product(field, factors):
    out = [1]
    for f in factors:
        out = field.poly_mul(out, f)
    return out


@st.composite
def squarefree_polys(draw):
    p = draw(st.sampled_from([5, 7, 23]))
    degree = draw(st.integers(0, 48))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    coeffs.append(draw(st.integers(1, p - 1)))
    assume(polys.is_squarefree_raw(GF(p), coeffs))
    return p, coeffs


@settings(max_examples=60, deadline=None)
@given(squarefree_polys())
def test_berlekamp_nullity_counts_irreducible_factors(case):
    # one-row stacks
    p, coeffs = case
    factors = polys.factor(Poly(GF(p), coeffs))
    assert numkernels.berlekamp_nullity(_rows([coeffs]), p).tolist() == [len(factors)]


@st.composite
def mixed_stacks(draw):
    """(p, rows): nonzero rows of degrees 0 to 48, degree 0 and 1 among
    them, some with repeated factors."""
    p = draw(st.sampled_from([5, 7, 23]))
    field = GF(p)
    rows = [
        [draw(st.integers(1, p - 1))],
        [draw(st.integers(0, p - 1)), draw(st.integers(1, p - 1))],
    ]
    for _ in range(draw(st.integers(0, 8))):
        factors = []
        for _ in range(draw(st.integers(1, 4))):
            degree = draw(st.integers(1, 6))
            f = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)) + [1]
            factors += [f] * draw(st.integers(1, 2))
        rows.append(_product(field, factors))
    rows = draw(st.permutations(rows))
    return p, rows


@settings(max_examples=40, deadline=None)
@given(mixed_stacks())
def test_berlekamp_nullity_on_mixed_degree_stacks(case):
    # dim ker(Q - I) is the number of distinct irreducible factors, with
    # or without repeated ones: the Frobenius-fixed part of F_p[x]/(g^e)
    # is F_p
    p, rows = case
    want = [len(polys.factor(Poly(GF(p), r))) for r in rows]
    assert numkernels.berlekamp_nullity(_rows(rows), p).tolist() == want
    width = max(map(len, rows))
    assert numkernels.berlekamp_nullity(_rows(rows, width + 3), p).tolist() == want


def test_berlekamp_nullity_edges():
    # n distinct roots: Q = I, nullity n; trailing zero columns are ignored;
    # a zero row and a constant count 0
    p = 7
    coeffs = _product(GF(p), [[-r % p, 1] for r in range(5)])
    stack = _rows([coeffs + [0, 0], [3], [4, 2], []])
    assert numkernels.berlekamp_nullity(stack, p).tolist() == [5, 0, 1, 0]
    assert numkernels.berlekamp_nullity(np.zeros((0, 3), dtype=np.int64), p).tolist() == []
    with pytest.raises(ValueError):
        numkernels.berlekamp_nullity(_rows([coeffs]), 3)
    # 199 (p - 1)^2 >= 2^63 near MAX_P: refused before any product
    with pytest.raises(ValueError, match="int64"):
        numkernels.berlekamp_nullity(_rows([[1] * 200]), numkernels.MAX_P - 1)


def test_berlekamp_stacks_stay_small(monkeypatch):
    # rows of degree 48 go 14 to a stack: 14 * 48^2 entries, 252 KB; rows
    # of degree 200 go one to a stack (200^2 > 2^15)
    sizes = []
    matrix = numkernels._berlekamp_matrix

    def spy(f, p):
        sizes.append(f.shape)
        return matrix(f, p)

    monkeypatch.setattr(numkernels, "_berlekamp_matrix", spy)
    rng = det_rng(0, "berlekamp-stacks")
    rows = rng.integers(0, 5, size=(60, 49), dtype=np.int64)
    rows[:, -1] = rng.integers(1, 5, size=60)
    rows[50:, -1] = 0
    rows[50:, -2] = 1
    got = numkernels.berlekamp_nullity(rows, 5).tolist()
    assert sorted(sizes) == [(8, 49), (10, 48), (14, 49), (14, 49), (14, 49)]
    assert max(s * (n - 1) ** 2 for s, n in sizes) * 8 <= 2**18
    assert got == [len(polys.factor(Poly(GF(5), r))) for r in rows.tolist()]
    sizes.clear()
    wide = rng.integers(0, 5, size=(2, 201), dtype=np.int64)
    wide[:, -1] = 1
    got = numkernels.berlekamp_nullity(wide, 5).tolist()
    assert sizes == [(1, 201), (1, 201)]
    assert got == [len(polys.factor(Poly(GF(5), r))) for r in wide.tolist()]


@pytest.mark.parametrize("p, n", [(261383387, 134), (251343949, 146)])
def test_berlekamp_nullity_at_the_edge_of_its_int64_bound(p, n):
    # n is the largest degree that n (p - 1)^2 + p < 2^63 admits at p, and
    # at these p a bound of (p - 2)^2 would admit n + 1 (the first p), and
    # one of (p + 1)^2 would refuse n (the second); the stacks hold rows
    # of two degrees, and one row of degree n + 1 refuses the whole stack
    assert n * (p - 1) ** 2 + p < 2**63 <= (n + 1) * (p - 1) ** 2 + p
    field = GF(p)
    split = _product(field, [[p - r, 1] for r in range(1, n)])
    top = field.poly_mul(split, [p - n, 1])
    assert numkernels.berlekamp_nullity(_rows([top, split]), p).tolist() == [n, n - 1]
    with pytest.raises(ValueError, match="int64"):
        numkernels.berlekamp_nullity(_rows([top, field.poly_mul(top, [p - n - 1, 1])]), p)


def test_rank_stack_at_the_top_prime():
    # n = 128 is the largest n with n (p - 1)^2 + p < 2^63 at P_TOP: a
    # full-rank stack, a product of rank 60, and a matrix of p - 1 (rank 1)
    # against elimination on Python ints
    p, n = P_TOP, 128
    assert n * (p - 1) ** 2 + p < 2**63 <= (n + 1) * (p - 1) ** 2 + p
    rng = det_rng(0, "rank-top-prime")
    full = rng.integers(0, p, size=(n, n), dtype=np.int64)
    left = rng.integers(0, p, size=(n, 60)).tolist()
    right = rng.integers(0, p, size=(60, n)).tolist()
    low = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]
    stack = np.array([full, low, np.full((n, n), p - 1)], dtype=np.int64)
    want = [_rank_by_ints(m.tolist(), p) for m in stack]
    assert want[1:] == [60, 1]
    assert numkernels._rank_stack(stack.copy(), p).tolist() == want
    # one more row and column is refused, also at 261383387, where a bound
    # of (p - 2)^2 would admit 135
    for p, n in ((P_TOP, n + 1), (261383387, 135)):
        with pytest.raises(AssertionError):
            numkernels._rank_stack(np.zeros((1, n, n), dtype=np.int64), p)


def _rank_by_ints(rows, p):
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            c = rows[i][col] * inv % p
            if c:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- the two-batch elimination and the remainder --


@st.composite
def gcd_pairs(draw):
    """(p, a, b): rows of degree -1 to 30, with common factors planted."""
    p = draw(st.sampled_from([5, 7, 23]))
    field = GF(p)

    def row(max_degree):
        degree = draw(st.integers(-1, max_degree))
        if degree < 0:
            return []
        return draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)) + [
            draw(st.integers(1, p - 1))
        ]

    a, b = [], []
    for _ in range(draw(st.integers(1, 10))):
        x, y, common = row(15), row(15), row(6)
        if common and draw(st.booleans()):
            x = field.poly_mul(x, common) if x else x
            y = field.poly_mul(y, common) if y else y
        a.append(x)
        b.append(y)
    return p, a, b


@settings(max_examples=60, deadline=None)
@given(gcd_pairs(), st.integers(0, 3), st.integers(0, 3))
def test_gcd_degrees_match_polys_gcd(case, pad_a, pad_b):
    # zero rows included (gcd(0, 0) = 0, degree -1), and arrays padded with
    # zero columns to unequal widths
    p, a, b = case
    field = GF(p)
    want = [polys.gcd(Poly(field, x), Poly(field, y)).degree for x, y in zip(a, b)]
    width_a = max(1, max(map(len, a))) + pad_a
    width_b = max(1, max(map(len, b))) + pad_b
    got = numkernels.gcd_degrees(_rows(a, width_a), _rows(b, width_b), p)
    assert got.tolist() == want


def test_gcd_degrees_at_the_top_prime():
    # degrees 40 to 72 at P_TOP, where every step must be reduced: coprime
    # pairs, pairs with a common factor of degree 1 to 12, and rows of p - 1
    p = P_TOP
    field = GF(p)
    rng = det_rng(0, "gcd-top-prime")

    def dense(degree):
        return rng.integers(0, p, size=degree).tolist() + [int(rng.integers(1, p))]

    a, b = [], []
    for k in range(8):
        common = dense(int(rng.integers(1, 13))) if k % 2 else [1]
        a.append(field.poly_mul(dense(int(rng.integers(40, 61))), common))
        b.append(field.poly_mul(dense(int(rng.integers(40, 61))), common))
    a.append([p - 1] * 73)
    b.append(field.poly_mul([p - 1] * 40, [1, 1]))
    want = [polys.gcd(Poly(field, x), Poly(field, y)).degree for x, y in zip(a, b)]
    assert 0 in want and max(want) >= 5
    assert numkernels.gcd_degrees(_rows(a), _rows(b), p).tolist() == want


@pytest.mark.parametrize("p, n", [(5, 1), (23, 12), (P_TOP, 10), (P_TOP, 60)])
def test_remainder_matches_poly_divmod(p, n):
    # 300 steps past the degree of f at P_TOP cross the 128-step reduction
    # cadence twice.  Row 0 is all p - 1, and f's lower coefficients too;
    # row 1 is Q f + r with Q and f's lower coefficients all p - 1, so
    # that every step subtracts (p - 1)^2 from each entry, the most the
    # bound allows; row 3 is shorter than f at n = 60
    field = GF(p)
    rng = det_rng(n, "remainder", p)
    a = rng.integers(0, p, size=(4, n + 300), dtype=np.int64)
    f = rng.integers(0, p, size=(4, n + 1), dtype=np.int64)
    f[:2, :n] = p - 1
    f[:, n] = 1
    a[0] = p - 1
    r = a[1, :n].tolist()
    a[1] = field.poly_add(field.poly_mul([p - 1] * 300, f[1].tolist()), r)
    a[3, 20:] = 0
    want = [field.poly_divmod(x, y)[1] for x, y in zip(a.tolist(), f.tolist())]
    assert want[1] == np.trim_zeros(np.array(r), "b").tolist()
    got = numkernels._remainder(a, f, p)
    assert got.shape == (4, n)
    assert [np.trim_zeros(r, "b").tolist() for r in got] == want


def _remainder_reductions(p, width, n):
    """The widths of A at which ``_remainder`` must reduce, each as late as
    the stated bound allows: |entries| <= p - 1 after a reduction, plus
    (p - 1)^2 a step, below 2^63 after every one."""
    widths, bound = [], p - 1
    for w in range(width, n, -1):
        if bound + (p - 1) ** 2 >= 2**63:
            widths, bound = widths + [w], p - 1
        bound += (p - 1) ** 2
    return widths


@pytest.mark.parametrize(
    "p, steps",
    [
        (P_TOP, 128),
        (P_TOP, 129),
        (P_TOP, 300),
        (261383387, 300),
        (251343949, 300),
        (121870633, 1300),
    ],
)
def test_remainder_reduces_where_the_int64_bound_requires(monkeypatch, p, steps):
    # a quotient of p - 1 in every step adds (p - 1)^2 to each entry, the
    # most the bound allows.  At P_TOP, (p - 1) + 128 (p - 1)^2 < 2^63 <=
    # (p - 1) + 129 (p - 1)^2, so the reductions come before steps 129 and
    # 257; at the other three p a bound of (p - 2)^2, (p + 1)^2 a step, or
    # a guard of (p + 1)^2, would move one of them
    n = 20
    assert _remainder_reductions(P_TOP, n + 300, n) == [n + 300 - 128, n + 300 - 256]
    calls = []
    reduce = numkernels._reduce

    def spy(x, p_, tmp):
        calls.append(x.shape[1])
        reduce(x, p_, tmp)

    monkeypatch.setattr(numkernels, "_reduce", spy)
    field = GF(p)
    f = [p - 1] * n + [1]
    r = det_rng(steps, "remainder-cadence", p).integers(0, p, size=n).tolist()
    a = field.poly_add(field.poly_mul([p - 1] * steps, f), r)
    got = numkernels._remainder(np.array([a]), np.array([f]), p)
    assert np.trim_zeros(got[0], "b").tolist() == field.poly_divmod(a, f)[1]
    assert calls == _remainder_reductions(p, n + steps, n)


@pytest.mark.parametrize("p, d", [(5, 0), (5, 1), (7, 1), (5, 2), (23, 1)])
def test_box_filter_matches_in_xd_fast(p, d):
    # at p = 23, d = 1 the box filter does not sieve, so the row test
    # alone rejects a double zero at infinity
    field = GF(p)
    rng = det_rng(21, f"box-filter-{p}", d)
    arrays = [rng.integers(0, p, size=(200, 2 * d * w + 1), dtype=np.int64) for w in WEIGHTS]
    # plant rows with a zero p6 block, a zero tuple and a low-degree Delta
    arrays[3][:20] = 0
    for a in arrays:
        a[20] = 0
        a[21:40, a.shape[1] // 2 :] = 0
    # and rows whose box-degree coefficients (0, 2c, c, 0) give (t^2 + c)^2,
    # two double roots, where Delta vanishes to order 2: at d >= 1 most of
    # them have a zero of order exactly 2 at infinity
    if d:
        c = rng.integers(1, p, size=20)
        arrays[0][40:60, -1] = arrays[3][40:60, -1] = 0
        arrays[1][40:60, -1], arrays[2][40:60, -1] = 2 * c % p, c
    assert numkernels.delta_poly_batch(p, arrays).shape == (200, 24 * d + 1)
    mask = numkernels.xd_box_filter(p, arrays)
    for i in range(200):
        b = tuple(Poly(field, a[i].tolist()) for a in arrays)
        assert bool(mask[i]) == in_xd_fast(field, b, d)
    assert 0 < mask.sum() < 200


# -- the sieve at the places of degree 1 --


def _box_arrays(d, tuples):
    """Tuples of int lists (p2, p4, q4, p6) as the four (N, 2 d w + 1)
    arrays of H^0(X, B_D)."""
    return [_rows([b[i] for b in tuples], 2 * d * w + 1) for i, w in enumerate(WEIGHTS)]


def _double_zero_at(field, rng, d, a):
    """A tuple of the box (d >= 1) whose Delta vanishes to order >= 12 at
    the place a, a in F_p or a = p for infinity: each b_i is (t - a)^w_i
    times a random polynomial, or of degree <= (2 d - 1) w_i at infinity.
    Delta has weight 12, so Delta(u^w b) = u^12 Delta(b)."""
    p = field.char
    out = []
    for w in WEIGHTS:
        c = rng.integers(0, p, size=(2 * d - 1) * w + 1).tolist()
        out.append(_product(field, [c] + [[-a % p, 1]] * w) if a < p else c)
    return out


def _square_of_a_quadratic(field, rng, d):
    """A tuple of the box (d >= 1) with Delta = g^(12 d) Delta(c): g the
    first monic irreducible quadratic and c random constants with
    Delta(c) != 0.  Delta has degree 24 d and no zero of degree 1, so the
    sieve lets it through, and it is not squarefree."""
    p = field.char
    g = next(polys.monic_irreducibles(field, 2)).vals
    while True:
        c = rng.integers(1, p, size=4).tolist()
        if delta(c) % p:
            return [_product(field, [[x]] + [g] * (d * w)) for x, w in zip(c, WEIGHTS)]


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_degree_one_table_holds_the_jets_of_each_place(w):
    # c(t) = sum c_j t^j has value sum c_j a^j and slope sum j c_j a^(j-1)
    # at a in F_p; s^(w-1) c(1/s) has value c_(w-1) and slope c_(w-2) at 0
    p = 5
    table = numkernels._degree_one_table(w, p)
    assert table.shape == (w, 2 * (p + 1))
    for j in range(w):
        assert table[j, :p].tolist() == [pow(a, j, p) for a in range(p)]
        slopes = [j * pow(a, j - 1, p) % p if j else 0 for a in range(p)]
        assert table[j, p + 1 : 2 * p + 1].tolist() == slopes
    assert table[:, p].tolist() == [int(j == w - 1) for j in range(w)]
    assert table[:, 2 * p + 1].tolist() == [int(j == w - 2) for j in range(w)]


@st.composite
def sieve_blocks(draw):
    """(p, d, tuples, planted, squares): random tuples of H^0(X, B_D) as int
    lists, then planted rows: a zero Delta (q4 = p6 = 0) and, at d >= 1,
    double zeros at drawn places of degree 1 and the square of an
    irreducible quadratic.  p and d fall on both sides of the sieve's
    rule."""
    p = draw(st.sampled_from([5, 7, 23, 101]))
    d = draw(st.integers(0, 3))
    field = GF(p)
    rng = det_rng(draw(st.integers(0, 2**32)), "sieve-blocks", p)
    tuples = [
        [rng.integers(0, p, size=2 * d * w + 1).tolist() for w in WEIGHTS]
        for _ in range(draw(st.integers(1, 8)))
    ]
    zero = [rng.integers(0, p, size=2 * d * w + 1).tolist() for w in WEIGHTS[:2]] + [[], []]
    planted, squares = [len(tuples)], []
    tuples.append(zero)
    if d:
        for a in draw(st.lists(st.integers(0, p), max_size=3)):
            planted.append(len(tuples))
            tuples.append(_double_zero_at(field, rng, d, a))
        squares.append(len(tuples))
        tuples.append(_square_of_a_quadratic(field, rng, d))
    order = draw(st.permutations(range(len(tuples))))
    where = {old: new for new, old in enumerate(order)}
    return (
        p,
        d,
        [tuples[i] for i in order],
        [where[i] for i in planted],
        [where[i] for i in squares],
    )


@settings(max_examples=100, deadline=None)
@given(sieve_blocks())
def test_sieved_mask_matches_the_unsieved_filter(case):
    p, d, tuples, planted, squares = case
    field = GF(p)
    arrays = _box_arrays(d, tuples)
    mask = numkernels.xd_box_filter(p, arrays)
    want = xd_box_filter_unsieved(p, arrays)
    sieve = numkernels._degree_one_sieve(p, arrays)
    assert mask.tolist() == want.tolist()
    # the sieve never rejects a member
    assert not (want & ~sieve).any()
    for i, b in enumerate(tuples):
        b = tuple(Poly(field, c) for c in b)
        assert bool(want[i]) == in_xd_fast(field, b, d)
        assert bool(sieve[i]) != double_zero_of_degree_one(field, disc_poly(field, b), d)
    assert not sieve[planted].any()
    assert sieve[squares].all() and not mask[squares].any()


@pytest.mark.parametrize("p, d", [(5, 1), (7, 2), (23, 3), (101, 1)])
def test_sieve_rejects_a_double_zero_at_every_place_of_degree_one(p, d):
    field = GF(p)
    rng = det_rng(d, "sieve-places", p)
    tuples = [_double_zero_at(field, rng, d, a) for a in range(p + 1)]
    tuples.append(_square_of_a_quadratic(field, rng, d))
    arrays = _box_arrays(d, tuples)
    sieve = numkernels._degree_one_sieve(p, arrays)
    assert not sieve[:-1].any() and sieve[-1]
    assert not numkernels.xd_box_filter(p, arrays).any()


@pytest.mark.parametrize(
    "p, d, sieved",
    [(5, 0, False), (5, 1, True), (7, 1, True), (11, 1, False), (17, 2, False),
     (13, 2, True), (23, 3, True), (29, 3, False), (101, 2, False)],
)
def test_box_filter_sieves_where_the_places_are_few(monkeypatch, p, d, sieved):
    # the rule p + 1 <= SIEVE_RATIO d, SIEVE_RATIO = 8
    calls = []
    sieve = numkernels._degree_one_sieve

    def spy(p_, arrays):
        calls.append(p_)
        return sieve(p_, arrays)

    monkeypatch.setattr(numkernels, "_degree_one_sieve", spy)
    rng = det_rng(d, "sieve-rule", p)
    arrays = [rng.integers(0, p, size=(20, 2 * d * w + 1), dtype=np.int64) for w in WEIGHTS]
    assert numkernels.xd_box_filter(p, arrays).tolist() == xd_box_filter_unsieved(p, arrays).tolist()
    assert calls == ([p] if sieved else [])


@pytest.mark.parametrize("p", [P_TOP, numkernels.MAX_P])
def test_jet_product_is_exact_at_the_top_prime(p):
    # 128 (p - 1)^2 < 2^63 <= 129 (p - 1)^2 at P_TOP: sums of 128 products
    # of residues are exact and sums of 129 are not, so the product runs
    # in slices of 128 terms; width 300 takes three.  The stated bound
    # admits every modulus up to MAX_P and refuses MAX_P + 1
    assert 128 * (p - 1) ** 2 < 2**63 <= 129 * (p - 1) ** 2
    top = numkernels._product_mod(np.full((2, 300), p - 1), np.full((300, 3), p - 1), p)
    assert top.tolist() == [[300 % p] * 3] * 2
    rng = det_rng(0, "jet-product", p)
    a = rng.integers(0, p, size=(3, 300), dtype=np.int64)
    b = rng.integers(0, p, size=(300, 4), dtype=np.int64)
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()] for row in a.tolist()]
    assert numkernels._product_mod(a, b, p).tolist() == want
    with pytest.raises(AssertionError):
        numkernels._product_mod(a, b, numkernels.MAX_P + 1)
