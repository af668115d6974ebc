import functools
import itertools
import re
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from d4vinberg import numkernels, polys, verify
from d4vinberg.curves import (
    SAMPLE_BLOCK,
    WEIGHTS,
    MinimalData,
    PointedCurve,
    _certify_i1_block,
    curve_group,
    in_xd_fast,
    kodaira_of_reduction,
    minimal_data,
    sample_xd,
    stabilizer_count_from_degrees,
    stabilizer_two_torsion,
    to_weierstrass,
    two_torsion_field_rank,
    weierstrass_count,
    weierstrass_two_torsion,
    xd_membership,
)
from d4vinberg.fields import GF
from d4vinberg.funcfield import Place, RatFunc
from d4vinberg.invariants import Invariants
from d4vinberg.liealg import D4Context
from d4vinberg.multipoly import MPoly
from d4vinberg.polys import Poly
from d4vinberg.quartic import quartic_disc, quartic_poly, weierstrass
from d4vinberg.rng import det_rng
from oracles import certify_i1_by_row as _certify_i1
from oracles import (
    certify_i1_by_inverse,
    curve_mul,
    curve_neg,
    disc_poly,
    reversed_poly,
    square_root,
    third_by_evaluation,
    xd_membership_by_row,
)


def _random_smooth_b(field, rng):
    while True:
        b = tuple(field.random(rng) for _ in range(4))
        if quartic_disc(b):
            return b


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        PointedCurve(GF(5), (0, 0, 0, 0))


def test_enumeration_bound_enforced():
    with pytest.raises(ValueError):
        PointedCurve(GF(23), (0, 0, 1, 0), max_q=11)


def test_marked_points_and_infinity_line():
    field = GF(23)
    rng = det_rng(0, "curves-marked")
    c = PointedCurve(field, _random_smooth_b(field, rng))
    for pt in (c.O, c.P, c.Q):
        assert c.contains(pt)
        assert not pt[2]  # on the line Z = 0
    # the marked points are always smooth (gradient nonzero)
    for pt in (c.O, c.P, c.Q):
        assert any(c.gradient(pt))


def test_group_axioms_and_structure():
    field = GF(23)
    rng = det_rng(1, "curves-group")
    for _ in range(5):
        c = PointedCurve(field, _random_smooth_b(field, rng))
        pts = c.points()
        n = c.point_count()
        q = field.order
        assert (n - q - 1) ** 2 <= 4 * q  # Hasse window
        a, b2, d = pts[1], pts[min(3, len(pts) - 1)], pts[-1]
        assert c.add(c.add(a, b2), d) == c.add(a, c.add(b2, d))
        assert c.add(a, curve_neg(c, a)) == c.O
        n1, n2 = c.group_structure()
        assert n1 * n2 == n and n2 % n1 == 0
        # the exponent kills every point
        for p in pts[:6]:
            assert curve_mul(c, n2, p) == c.O


@pytest.mark.parametrize("p, m", [(7, 1), (23, 1), (5, 2)])
def test_chord_tangent_matches_the_evaluation_oracle(p, m):
    # every ordered pair of points, an equal pair being a tangent; GF(5^2)
    # runs the generic FElem path.  Among the chords, some are tangent at
    # one end, where the third point is that end
    field = GF(p, m)
    rng = det_rng(19, "curves-polar")
    for _ in range(2):
        curve = PointedCurve(field, _random_smooth_b(field, rng))
        pts = curve.points()
        ends = 0
        for p1 in pts:
            for p2 in pts:
                third = curve._third(p1, p2)
                assert third == third_by_evaluation(curve, p1, p2)
                ends += p1 != p2 and third in (p1, p2)
        assert ends


def test_mul_is_double_and_add_from_the_top_bit(monkeypatch):
    field = GF(23)
    c = PointedCurve(field, _random_smooth_b(field, det_rng(10, "curves-mul")))
    p = next(pt for pt in c.points() if c.order_of(pt) > 13)
    multiples = {0: c.O}
    for n in range(1, 14):
        multiples[n] = c.add(multiples[n - 1], p)
        multiples[-n] = curve_neg(c, multiples[n])
    calls = []
    add = PointedCurve.add

    def counted_add(self, a, b):
        calls.append((a, b))
        return add(self, a, b)

    monkeypatch.setattr(PointedCurve, "add", counted_add)
    for n in range(-6, 14):
        assert curve_mul(c, n, p) == multiples[n]
    for n, adds in ((0, 0), (1, 0), (2, 1), (3, 2), (12, 4), (13, 5)):
        calls.clear()
        curve_mul(c, n, p)
        assert len(calls) == adds, n


def test_counts_match_weierstrass_model():
    field = GF(23)
    rng = det_rng(2, "curves-weier")
    for _ in range(20):
        b = _random_smooth_b(field, rng)
        n, tt = curve_group(field, b)
        a_coef, b_coef = to_weierstrass(field, b)
        assert weierstrass_count(field, a_coef, b_coef) == n
        assert weierstrass_two_torsion(field, a_coef, b_coef) == tt
        # the transform is smooth whenever Delta(b) != 0 (finite j-invariant)
        assert 4 * a_coef**3 + 27 * b_coef * b_coef != field.zero


def test_b_0001_style_count_match():
    field = GF(23)
    b = (field.zero, field.zero, field.zero, -field.one)
    n = curve_group(field, b)[0]
    a_coef, b_coef = to_weierstrass(field, b)
    assert weierstrass_count(field, a_coef, b_coef) == n


def test_quartic_model_count_identity():
    # N = q + 2 + sum chi(f(x)): the (xy + q4)^2 = f(x) model
    field = GF(23)
    rng = det_rng(3, "curves-quartic")
    for _ in range(10):
        b = _random_smooth_b(field, rng)
        f = quartic_poly(field, b)
        n = curve_group(field, b)[0]
        assert n == field.order + 2 + sum(field.chi(f(x)) for x in field)


def test_stabilizer_count_from_degrees_cases():
    assert stabilizer_count_from_degrees([1, 1, 1, 1]) == 4
    assert stabilizer_count_from_degrees([2, 1, 1]) == 2
    assert stabilizer_count_from_degrees([2, 2]) == 4
    assert stabilizer_count_from_degrees([3, 1]) == 1
    assert stabilizer_count_from_degrees([4]) == 2


@functools.cache
def _invariants_23(m):
    """The Invariants of D4Context(GF(23, m)), one per extension degree."""
    return Invariants(D4Context(GF(23, m)))


def test_stabilizer_matches_curve_two_torsion():
    field = GF(23)
    inv = _invariants_23(1)
    rng = det_rng(4, "curves-stab")
    for _ in range(25):
        b = _random_smooth_b(field, rng)
        group_side = stabilizer_two_torsion(inv, b)
        assert group_side == curve_group(field, b)[1]
        # geometric two-torsion over the splitting field F_{23^m}
        degs = [g.degree for g, _ in polys.factor(quartic_poly(field, b))]
        ext_inv = _invariants_23(lcm(*degs))
        ext = ext_inv.ctx.field
        assert stabilizer_two_torsion(ext_inv, tuple(ext.elem(x) for x in b)) == 4


def test_fully_split_two_torsion():
    # b with f splitting into four rational roots: both sides give 4
    field = GF(23)
    ctx = D4Context(field)
    inv = Invariants(ctx)
    rng = det_rng(5, "curves-split")
    while True:
        rs = set()
        while len(rs) < 4:
            rs.add(field.random(rng).val)
        rs = [field.elem(v) for v in rs]
        f = Poly.const(field, field.one)
        t = Poly.x(field)
        for r in rs:
            f = f * (t - r)
        # need the constant term to be a square: f(0) = q4^2
        c0 = f[0]
        if field.chi(c0) != 1:
            continue
        q4 = square_root(field, c0)
        b = (f[3], f[2], q4, f[1])
        if quartic_disc(b):
            break
    assert stabilizer_two_torsion(inv, b) == 4
    assert curve_group(field, b)[1] == 4


def _v2(n):
    return (n & -n).bit_length() - 1


def _check_doubling_table(curve):
    """The doubling table against the order oracle: (n1, n2) from
    ``group_structure`` and e_i = v2(n_i)."""
    pts = curve.points()
    n1, n2 = curve.group_structure()
    e1, e2 = _v2(n1), _v2(n2)
    tt = curve.two_torsion_count()
    assert tt == (2 if e1 else 1) * (2 if e2 else 1)
    divisible = [t for t in pts if curve.is_two_divisible(t)]
    assert len(divisible) * tt == len(pts)
    for t in pts:
        if curve.order_of(t) % 2:
            assert curve.is_two_divisible(t)
    if e2 == 0:
        assert len(divisible) == len(pts)
    elif e1 in (0, e2):
        # the 2-part is Z/2^e2 or (Z/2^e2)^2: t is a double iff (n2/2) t = O
        for t in pts:
            assert curve.is_two_divisible(t) == (curve_mul(curve, n2 // 2, t) == curve.O)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([23, 29, 31]), coeffs=st.lists(st.integers(0, 30), min_size=4, max_size=4))
def test_doubling_table_against_the_order_oracle(p, coeffs):
    field = GF(p)
    b = tuple(field.elem(c) for c in coeffs)
    assume(quartic_disc(b))
    _check_doubling_table(PointedCurve(field, b))


def test_doubling_table_on_full_two_torsion_curve():
    # a Z/2 x Z/2k curve with k even, so that #E[2] = 4 and a point of
    # order 4 are covered whatever the hypothesis draws
    field = GF(23)
    rng = det_rng(8, "orbit-2x2k")
    while True:
        b = tuple(field.random(rng) for _ in range(4))
        if not quartic_disc(b):
            continue
        curve = PointedCurve(field, b)
        n1, n2 = curve.group_structure()
        if n1 % 2 == 0 and n2 % 2 == 0:
            break
    assert (n1, n2) == (2, 12)
    assert curve.two_torsion_count() == 4
    _check_doubling_table(curve)
    # with n1 = 2, E = Z/2 + <g> for any g of order n2, so 2E = <2g>
    pts = curve.points()
    g2 = curve_mul(curve, 2, next(p for p in pts if curve.order_of(p) == n2))
    halves = {curve_mul(curve, j, g2) for j in range(n2 // 2)}
    assert curve.doubled_set() == halves
    # [R - R'] in 2E(F_q) on random pairs
    for _ in range(20):
        r1 = pts[int(rng.integers(0, len(pts)))]
        r2 = pts[int(rng.integers(0, len(pts)))]
        t = curve.add(r1, curve_neg(curve, r2))
        assert curve.is_two_divisible(t) == (t in halves)


def test_curve_side_computes_no_element_order(monkeypatch):
    def no_orders(self, p):
        raise AssertionError("order_of called")

    monkeypatch.setattr(PointedCurve, "order_of", no_orders)
    field = GF(23)
    rng = det_rng(9, "curves-no-orders")
    for _ in range(10):
        b = _random_smooth_b(field, rng)
        n, tt = curve_group(field, b)
        a_coef, b_coef = to_weierstrass(field, b)
        assert (n, tt) == (
            weierstrass_count(field, a_coef, b_coef),
            weierstrass_two_torsion(field, a_coef, b_coef),
        )
    result = verify.stabilizer_suite(p=23, n=3)
    assert result["passed"], result["details"]


def test_minimal_data_weighted_example():
    field = GF(7)
    t = Poly.x(field)
    b = (RatFunc(t), RatFunc(t * t), RatFunc(t * t), RatFunc(t**3))
    md = minimal_data(field, b)
    finite = {pl: n for pl, n in md.n.items() if not pl.is_infinite}
    assert list(finite.values()) == [-1]
    assert [r.num.to_str() for r in md.b_min] == ["1", "1", "1", "1"]
    assert md.L_degree == 0


def test_minimal_data_idempotent_and_substitution_invariant():
    field = GF(5)
    t = Poly.x(field)
    rng = det_rng(6, "curves-minimal")
    for _ in range(10):
        while True:
            num = [Poly(field, [field.random(rng) for _ in range(3)]) for _ in range(4)]
            den = Poly(field, [field.elem(1), field.elem(1)])  # t + 1
            b = tuple(RatFunc(n, den) for n in num)
            if not quartic_disc(b).is_zero():
                break
        md = minimal_data(field, b)
        md2 = minimal_data(field, md.b_min)
        assert md2.b_min == md.b_min
        assert not any(not pl.is_infinite for pl in md2.n)
        lam = RatFunc(t * t + 2)
        b_l = (lam * b[0], lam * lam * b[1], lam * lam * b[2], lam**3 * b[3])
        assert minimal_data(field, b_l).b_min == md.b_min


def test_already_minimal():
    field = GF(5)
    rng = det_rng(7, "curves-alreadymin")
    while True:
        b = tuple(RatFunc(Poly.const(field, field.random(rng))) for _ in range(4))
        if not quartic_disc(b).is_zero():
            break
    md = minimal_data(field, b)
    assert not md.n and md.L_degree == 0


def singular_points_bruteforce(kv, b_red):
    """All singular points in P^2(kv) of the reduced cubic."""
    out = []
    pts = [(x, y, kv.one) for x in kv for y in kv]
    pts += [(kv.one, y, kv.zero) for y in kv] + [(kv.zero, kv.one, kv.zero)]
    p2, p4, q4, p6 = b_red
    for x, y, z in pts:
        fval = x * y * y + 2 * q4 * y * z * z - (
            x ** 3 + p2 * x * x * z + p4 * x * z * z + p6 * z ** 3
        )
        fx = y * y - 3 * x * x - 2 * p2 * x * z - p4 * z * z
        fy = 2 * x * y + 2 * q4 * z * z
        fz = 4 * q4 * y * z - p2 * x * x - 2 * p4 * x * z - 3 * p6 * z * z
        if not fval and not fx and not fy and not fz:
            out.append((x, y, z))
    return out


def test_xd_membership_edges():
    field = GF(5)
    t = Poly.x(field)
    # d = 0: constants with Delta != 0 are members with no bad places
    rng = det_rng(8, "curves-xd")
    while True:
        b = tuple(Poly.const(field, field.random(rng)) for _ in range(4))
        if not disc_poly(field, b).is_zero():
            break
    m = xd_membership(field, [b], 0)[0]
    assert m.in_xd and m.bad_places == 0 and m.ord_inf == 0
    # a (t-1)^2 divisor is rejected
    while True:
        found = tuple(Poly(field, [field.random(rng) for _ in range(3)]) for _ in range(4))
        if not disc_poly(field, found).is_zero():
            break
    sq = (t - 1) * (t - 1)
    b_bad = (found[0] * sq, found[1] * sq**2, found[2] * sq**2, found[3] * sq**3)
    m_bad = xd_membership(field, [b_bad], 3)[0]
    assert not m_bad.in_xd and m_bad.bad_places is None
    # Delta scales by sq^12 = (t - 1)^24
    orders = {g.to_str(): mult for g, mult in polys.factor(m_bad.delta)}
    assert orders["4,1"] == 24


def test_xd_membership_needs_a_prime_field():
    field = GF(5, 2)
    b = tuple(Poly.const(field, field.one) for _ in range(4))
    with pytest.raises(ValueError):
        xd_membership(field, [b], 0)
    with pytest.raises(ValueError):
        sample_xd(field, 1, 1, seed=0)


def _poly_in_box(draw, field, degree):
    """A Poly over field of degree at most degree (the zero one included)."""
    p = field.char
    return Poly(field, draw(st.lists(st.integers(0, p - 1), max_size=degree + 1)))


def _double_zero_at_infinity(field, d, a, k):
    """A tuple in the B_D box with ord_inf = 2: in the chart s = 1/t its
    quartic has the roots a(1 + s), a(1 - s), c(1 + s), a^2 (1 - s)/c for
    c = k a, k not in {0, 1, -1}, so q4 = a^2 (1 - s^2), and at s = 0 two
    roots meet (a double root, others simple): Delta has a double zero."""
    s = Poly.x(field)
    c = a * k % field.char
    roots = [a * (1 + s), a * (1 - s), c * (1 + s), a * a * pow(c, -1, field.char) * (1 - s)]
    e = [sum((prod(r) for r in itertools.combinations(roots, n)), Poly(field)) for n in (1, 2, 3)]
    chart = (-e[0], e[1], a * a * (1 - s * s), -e[2])
    return tuple(reversed_poly(x, 2 * d * w) for x, w in zip(chart, WEIGHTS))


@st.composite
def xd_blocks(draw):
    """(field, d, block): tuples of H^0(X, B_D) tagged by kind, shuffled:
    sampled members, a zero Delta (q4 = p6 = 0), constants given as ints,
    random tuples, and for d > 0 a double zero at infinity and a square
    factor (a tuple scaled by u^w for u = t + c)."""
    p, d = draw(st.sampled_from([5, 7])), draw(st.integers(0, 2))
    field = GF(p)
    block = [("member", b) for b in sample_xd(field, d, 2, seed=draw(st.integers(0, 99)))]
    zero = [_poly_in_box(draw, field, 2 * d * w) for w in WEIGHTS[:2]]
    block.append(("zero", (*zero, Poly(field), Poly(field))))
    block.append(("constants", tuple(draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4)))))
    for _ in range(draw(st.integers(0, 3))):
        block.append(("random", tuple(_poly_in_box(draw, field, 2 * d * w) for w in WEIGHTS)))
    if d:
        a, k = draw(st.integers(1, p - 1)), draw(st.integers(2, p - 2))
        block.append(("infinity", _double_zero_at_infinity(field, d, a, k)))
        u = Poly(field, [draw(st.integers(0, p - 1)), 1])
        base = [_poly_in_box(draw, field, (2 * d - 1) * w) for w in WEIGHTS]
        block.append(("square", tuple(x * u**w for x, w in zip(base, WEIGHTS))))
    return field, d, draw(st.permutations(block))


def _block_outcome(field, bs, d, membership):
    """The memberships of bs, or the message of the AssertionError raised."""
    try:
        return [
            (m.in_xd, m.bad_places, m.ord_inf, m.delta.vals) for m in membership(field, bs, d)
        ]
    except AssertionError as exc:
        return str(exc)


def _by_row(field, bs, d):
    return [xd_membership_by_row(field, b, d) for b in bs]


@settings(max_examples=40, deadline=None)
@given(xd_blocks())
def test_xd_membership_block_matches_the_row_oracle(case):
    field, d, block = case
    bs = [b for _, b in block]
    got = xd_membership(field, bs, d)
    assert len(got) == len(bs)
    for (kind, b), m in zip(block, got):
        want = xd_membership_by_row(field, b, d)
        assert (m.in_xd, m.bad_places, m.ord_inf, m.delta) == (
            want.in_xd, want.bad_places, want.ord_inf, want.delta
        )
        assert type(m.in_xd) is bool
        # the kinds are what they claim to be
        assert kind != "member" or m.in_xd
        assert kind != "zero" or m.ord_inf is None
        assert kind != "infinity" or (m.ord_inf == 2 and not m.in_xd)
        assert kind != "square" or not m.in_xd
        assert kind != "constants" or m.in_xd == (d == 0 and m.ord_inf is not None)


@settings(max_examples=40, deadline=None)
@given(xd_blocks())
def test_xd_membership_block_fails_as_the_row_oracle(case):
    # with both squarefree tests forced to pass, a square factor reaches
    # the certificate, whose first failure in block order has the message
    # of the first failure row by row
    field, d, block = case
    bs = [b for _, b in block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numkernels, "squarefree_batch", lambda rows, p: np.ones(len(rows), bool))
        mp.setattr(polys, "is_squarefree", lambda f: True)
        assert _block_outcome(field, bs, d, xd_membership) == _block_outcome(
            field, bs, d, _by_row
        )


def test_xd_membership_raises_at_a_forced_square_factor(monkeypatch):
    # (t - 1)^w times a tuple of degrees <= w with deg Delta = 12, between
    # two members at d = 1: Delta = (t - 1)^12 Delta(base) has degree 24
    # and fails the squarefree test; forced past it, the tuple is zero at
    # t = 1 and fails the certificate there
    field = GF(5)
    rng = det_rng(19, "curves-square")
    while True:
        base = tuple(Poly(field, [field.random(rng) for _ in range(w + 1)]) for w in WEIGHTS)
        if disc_poly(field, base).degree == 12:
            break
    u = Poly(field, [-1, 1])
    member = sample_xd(field, 1, 1, seed=3)[0]
    bs = [member, tuple(x * u**w for x, w in zip(base, WEIGHTS)), member]
    got = xd_membership(field, bs, 1)
    assert [m.in_xd for m in got] == [True, False, True] and got[1].ord_inf == 0
    monkeypatch.setattr(numkernels, "squarefree_batch", lambda rows, p: np.ones(len(rows), bool))
    monkeypatch.setattr(polys, "is_squarefree", lambda f: True)
    with pytest.raises(AssertionError) as block_error:
        xd_membership(field, bs, 1)
    with pytest.raises(AssertionError) as row_error:
        _by_row(field, bs, 1)
    assert str(block_error.value) == str(row_error.value)
    assert str(block_error.value) == "s1 unit fails: gcd with Delta 1,4,0,0,0,4,1"


def test_xd_membership_of_an_empty_block():
    assert xd_membership(GF(5), [], 1) == []


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("coefficient", range(4))
def test_xd_membership_checks_the_whole_block_first(monkeypatch, at, coefficient):
    # one tuple past the box anywhere in the block raises ValueError before
    # Delta of the block is computed; a tuple at the box degrees is in the
    # box
    field = GF(5)
    at_box = tuple(Poly(field, [1] * (2 * w + 1)) for w in WEIGHTS)
    bs = sample_xd(field, 1, 3, seed=5) + [at_box]
    over = list(at_box)
    over[coefficient] = over[coefficient] * Poly.x(field)
    bs.insert(at, tuple(over))

    def no_delta(p, arrays):
        raise RuntimeError("Delta of the block ran")

    monkeypatch.setattr(numkernels, "delta_poly_batch", no_delta)
    with pytest.raises(ValueError, match="exceed the B_D box"):
        xd_membership(field, bs, 1)
    with pytest.raises(RuntimeError):
        xd_membership(field, bs[:at] + bs[at + 1 :], 1)
    with pytest.raises(ValueError, match="prime fields"):
        xd_membership(GF(5, 2), [], 1)


def test_xd_infinity_double_zero_detected():
    # deg Delta = 24d - 2 with squarefree affine part: rejected at infinity
    field = GF(5)
    rng = det_rng(9, "curves-inf")
    d = 1
    found = 0
    tried = 0
    while found < 3 and tried < 4000:
        tried += 1
        b = tuple(
            Poly(field, [field.random(rng) for _ in range(k + 1)])
            for k in (2, 4, 4, 6)
        )
        delta = disc_poly(field, b)
        if delta.is_zero() or 24 * d - delta.degree != 2:
            continue
        if not polys.is_squarefree(delta):
            continue
        m = xd_membership(field, [b], d)[0]
        assert not m.in_xd and m.ord_inf == 2 and m.bad_places is None
        found += 1
    assert found > 0


def _sample_xd_by_scalar_draws(field, d, count, seed):
    """The row-at-a-time sampler: one scalar draw per coefficient, tuple
    by tuple, tested by in_xd_fast."""
    rng = det_rng(seed, "sample-xd")
    out, tries = [], 0
    while len(out) < count:
        tries += 1
        b = tuple(
            Poly(field, [field.random(rng) for _ in range(2 * d * w + 1)]) for w in WEIGHTS
        )
        if in_xd_fast(field, b, d):
            out.append(b)
    return out, tries


@pytest.mark.parametrize(
    "p, d, count, blocks", [(5, 1, 250, 2), (5, 2, 15, 1), (7, 1, 30, 1), (23, 1, 20, 1)]
)
def test_sample_xd_matches_scalar_draws(p, d, count, blocks):
    field = GF(p)
    got = sample_xd(field, d, count, seed=11)
    want, tries = _sample_xd_by_scalar_draws(field, d, count, seed=11)
    assert [[c.to_str() for c in b] for b in got] == [[c.to_str() for c in b] for b in want]
    assert -(-tries // SAMPLE_BLOCK) == blocks


@pytest.mark.parametrize("row, accepted", [(1199, True), (1200, False)])
def test_sample_xd_budget_counts_single_rows(monkeypatch, row, accepted):
    # a filter that accepts one row only: one sample may use 200 + 1000
    # rows, so row 1199 (0-based) is the last one it can take
    drawn = [0]

    def accept_one_row(p, arrays):
        n = arrays[0].shape[0]
        mask = np.arange(drawn[0], drawn[0] + n) == row
        drawn[0] += n
        return mask

    monkeypatch.setattr(numkernels, "xd_box_filter", accept_one_row)
    if accepted:
        assert len(sample_xd(GF(5), 1, 1, seed=0)) == 1
    else:
        with pytest.raises(RuntimeError):
            sample_xd(GF(5), 1, 1, seed=0)


def test_sample_xd_deterministic_and_valid():
    field = GF(5)
    s1 = sample_xd(field, 1, 10, seed=11)
    s2 = sample_xd(field, 1, 10, seed=11)
    assert [
        [p.to_str() for p in b] for b in s1
    ] == [[p.to_str() for p in b] for b in s2]
    for b in s1:
        assert xd_membership(field, [b], 1)[0].in_xd


def test_i1_certificate_against_per_place_oracle():
    # factor Delta and classify each place on its residue field: every
    # finite fibre is I1 and the places add up to bad_places
    field = GF(5)
    checked = at_infinity = 0
    for d, count in ((1, 30), (2, 6)):
        for b in sample_xd(field, d, count, seed=16):
            m = xd_membership(field, [b], d)[0]
            at_infinity += m.ord_inf
            places = polys.factor(m.delta)
            assert all(mult == 1 for _, mult in places)
            for g, _ in places:
                place = Place(field, g)
                kv = place.residue_field()
                b_red = tuple(place.reduce_poly(p) for p in b)
                assert kodaira_of_reduction(kv, b_red) == "I1"
                if place.degree <= 2:
                    assert len(singular_points_bruteforce(kv, b_red)) == 1
                    fbar = quartic_poly(kv, b_red)
                    assert polys.gcd(fbar, fbar.derivative()).degree == 1
                    checked += 1
            assert m.bad_places == len(places) + m.ord_inf
    assert checked >= 10 and at_infinity == 2


def _fibre_type(field, b, g):
    place = Place(field, g)
    return kodaira_of_reduction(place.residue_field(), tuple(place.reduce_poly(p) for p in b))


def test_i1_certificate_raises_at_a_non_i1_place():
    # at t = 0: a triple root (s1 = 0) and a double root at x = 0 (x0 = 0)
    field = GF(5)
    t = Poly.x(field)
    one = Poly.const(field, field.one)
    triple = (t + 3, t, t + 2, t + 2)  # f = (x - 1)^3 (x - 4) mod t
    at_zero = (one * 2, t + 2, t, t * 3)  # f = x^2 (x^2 + 2x + 2) mod t
    for b, test in ((triple, "s1 unit"), (at_zero, "x0 unit")):
        assert disc_poly(field, b)(field.zero) == field.zero
        assert _fibre_type(field, b, t) == "other"
        with pytest.raises(AssertionError, match=f"{test} fails: gcd with Delta 0,1"):
            _certify_i1(b, t)


def test_i1_certificate_zero_tests_fail_off_the_discriminant():
    # at a place where Delta does not vanish, s1 and s0 can be units while
    # x0 = -s0/s1 is no double root: the remainder decides the zero test,
    # and the gcd with the place, 1, names the failure
    field = GF(5)
    t = Poly.x(field)
    for coeffs, place, test in (
        (([1, 2], [2, 2], [4, 2], [2, 3]), t, "f(x0) = 0"),
        (([2, 3], [4, 3], [1, 3], [2]), t + 1, "f'(x0) = 0"),
    ):
        b = tuple(Poly(field, c) for c in coeffs)
        assert not (disc_poly(field, b) % place).is_zero()
        with pytest.raises(AssertionError, match=re.escape(f"{test} fails: gcd with Delta 1")):
            _certify_i1(b, place)


def test_i1_certificate_zero_tests_fail_below_the_degree_of_delta():
    # constant tuples off the discriminant: the tested value is a nonzero
    # constant, of lower degree than the place, so its remainder mod the
    # place is itself (the quotient by the place is 0)
    field = GF(5)
    t = Poly.x(field)
    for coeffs, test in (((0, 0, 1, 1), "f(x0) = 0"), ((0, 2, 1, 1), "f'(x0) = 0")):
        b = tuple(Poly.const(field, field.elem(c)) for c in coeffs)
        assert not disc_poly(field, b).is_zero()
        with pytest.raises(AssertionError, match=re.escape(f"{test} fails: gcd with Delta 1")):
            _certify_i1(b, t)


def test_i1_certificate_agrees_with_the_oracle_per_place():
    # random small tuples, every place of Delta, squarefree or not
    field = GF(5)
    rng = det_rng(15, "curves-certificate")
    verdicts = set()
    for _ in range(60):
        b = tuple(Poly(field, [field.random(rng) for _ in range(3)]) for _ in range(4))
        delta = disc_poly(field, b)
        if delta.degree < 1:
            continue
        for g, _ in polys.factor(delta):
            oracle = _fibre_type(field, b, g) == "I1"
            try:
                _certify_i1(b, g)
                certified = True
            except AssertionError:
                certified = False
            assert certified == oracle
            verdicts.add(oracle)
    assert verdicts == {True, False}


def _certificate_outcome(certify, b, modulus):
    """None if the certificate passes, else its AssertionError message."""
    try:
        certify(b, modulus)
    except AssertionError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=12, max_size=12),
    st.integers(0, 4),
    st.integers(0, 99),
    st.integers(0, 99),
)
def test_i1_certificate_agrees_with_the_inverse_form(coeffs, c, i, j):
    # the projective certificate and the affine one by an inverse mod
    # Delta pass together or fail with the same message, modulo each
    # place of Delta, Delta itself and a product of two places (the
    # places of Delta and t + c; equal places give a square)
    field = GF(5)
    t = Poly.x(field)
    b = tuple(Poly(field, coeffs[3 * k : 3 * k + 3]) for k in range(4))
    delta = disc_poly(field, b)
    assume(delta.degree >= 1)
    places = [g for g, _ in polys.factor(delta)]
    both = places + [t + c]
    moduli = places + [delta, both[i % len(both)] * both[j % len(both)]]
    for modulus in moduli:
        assert _certificate_outcome(_certify_i1, b, modulus) == _certificate_outcome(
            certify_i1_by_inverse, b, modulus
        )


def _block_outcome_of_pairs(certify, field, pairs):
    """None if every pair passes, else the message of the first failure."""
    try:
        certify(field, pairs)
    except AssertionError as exc:
        return str(exc)
    return None


def _pairs_by_row(field, pairs):
    for b, modulus in pairs:
        _certify_i1(b, modulus)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 7]),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 6), min_size=12, max_size=12),
            st.integers(0, 99),
            st.integers(0, 99),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_block_certificate_fails_as_the_row_oracle(p, rows):
    # blocks of pairs (b, modulus) with moduli of mixed degrees: a place
    # of Delta, Delta itself, a product of two places of Delta and t + 1
    # (a square when they are equal), and a constant; the block passes iff
    # every pair passes the row certificate, or raises the message of the
    # first pair that fails
    field = GF(p)
    t = Poly.x(field)
    pairs = []
    for coeffs, i, j in rows:
        b = tuple(Poly(field, [c % p for c in coeffs[3 * k : 3 * k + 3]]) for k in range(4))
        delta = disc_poly(field, b)
        places = [g for g, _ in polys.factor(delta)] if delta.degree >= 1 else []
        both = places + [t + 1]
        moduli = [delta, both[i % len(both)] * both[j % len(both)], Poly.const(field, 2)]
        pairs.append((b, moduli[i % 3] if delta.degree >= 1 else moduli[1]))
    assert _block_outcome_of_pairs(_certify_i1_block, field, pairs) == _block_outcome_of_pairs(
        _pairs_by_row, field, pairs
    )


def test_block_certificate_gives_the_pinned_messages():
    # the pinned failures of the row certificate, in one block with a
    # passing member between them: the block raises each one's message
    # when it comes first
    field = GF(5)
    t = Poly.x(field)
    one = Poly.const(field, field.one)
    member = sample_xd(field, 1, 1, seed=3)[0]
    cases = [
        ((t + 3, t, t + 2, t + 2), t, "s1 unit", "0,1"),
        ((one * 2, t + 2, t, t * 3), t, "x0 unit", "0,1"),
        (tuple(Poly(field, c) for c in ([1, 2], [2, 2], [4, 2], [2, 3])), t, "f(x0) = 0", "1"),
        (tuple(Poly(field, c) for c in ([2, 3], [4, 3], [1, 3], [2])), t + 1, "f'(x0) = 0", "1"),
        (tuple(Poly.const(field, field.elem(c)) for c in (0, 0, 1, 1)), t, "f(x0) = 0", "1"),
        (tuple(Poly.const(field, field.elem(c)) for c in (0, 2, 1, 1)), t, "f'(x0) = 0", "1"),
    ]
    passing = (member, disc_poly(field, member))
    _certify_i1_block(field, [passing])
    for k, (_, _, test, gcd) in enumerate(cases):
        later = [(b, modulus) for b, modulus, _, _ in cases[k:]]
        with pytest.raises(AssertionError) as error:
            _certify_i1_block(field, [passing] + later)
        assert str(error.value) == f"{test} fails: gcd with Delta {gcd}"


def test_hessian_identity_behind_the_certificate():
    # det_h = -2 f''(x0) - 4 fx as polynomials in x0, y0, p2, p4: the node
    # test of _certify_i1 follows from fx = 0 and a double, not triple, root
    x0, y0, p2, p4 = (MPoly.var(4, i) for i in range(4))
    f2 = 12 * x0 * x0 + 6 * p2 * x0 + 2 * p4
    fx = y0 * y0 - 3 * x0 * x0 - 2 * p2 * x0 - p4
    det_h = (-6 * x0 - 2 * p2) * (2 * x0) - (2 * y0) * (2 * y0)
    assert (det_h + 2 * f2 + 4 * fx).is_zero()


def test_node_identities_behind_the_certificate():
    # with x0 y0 = -q4 (q4 = -x0 y0 below), fy = 0, x0^2 fx = f(x0) -
    # x0 f'(x0) and x0 fval = -f(x0) as polynomials in x0, y0, p2, p4, p6:
    # the zero tests of f(x0) and f'(x0) in _certify_i1 put (x0, y0) at
    # the singular point of the plane model once x0 is a unit
    x0, y0, p2, p4, p6 = (MPoly.var(5, i) for i in range(5))
    q4 = -x0 * y0
    f = x0**4 + p2 * x0**3 + p4 * x0 * x0 + p6 * x0 + q4 * q4
    f1 = 4 * x0**3 + 3 * p2 * x0 * x0 + 2 * p4 * x0 + p6
    fx = y0 * y0 - 3 * x0 * x0 - 2 * p2 * x0 - p4
    fy = 2 * x0 * y0 + 2 * q4
    fval = x0 * y0 * y0 + 2 * q4 * y0 - (x0**3 + p2 * x0 * x0 + p4 * x0 + p6)
    assert fy.is_zero()
    assert (x0 * x0 * fx - (f - x0 * f1)).is_zero()
    assert (x0 * fval + f).is_zero()


def _at_infinity(b, d):
    """b in the chart s = 1/t, reversed at the B_D bounds."""
    return tuple(reversed_poly(p, 2 * d * w) for p, w in zip(b, WEIGHTS))


def _box_degree_tuple(b, d):
    """The coefficients of b at the B_D bounds 2dw, as constants: the
    tuple that xd_membership certifies at infinity."""
    field = b[0].field
    return tuple(Poly.const(field, p[2 * d * w]) for p, w in zip(b, WEIGHTS))


def test_i1_certificate_at_infinity_agrees_with_the_oracle():
    # members with ord_inf = 1 are I1 at s = 0; random tuples with a bad
    # fibre at infinity give both verdicts, and the certificate mod s, on
    # the reversed tuple and on the box-degree tuple (its reduction at
    # s = 0) alike, agrees with kodaira_of_reduction there
    field = GF(5)
    s = Poly.x(field)
    cases = [
        (b, d, True) for d, count in ((1, 40), (2, 10)) for b in sample_xd(field, d, count, seed=16)
        if xd_membership(field, [b], d)[0].ord_inf == 1
    ]
    assert cases
    rng = det_rng(17, "curves-infinity")
    while len(cases) < 100:
        b = tuple(Poly(field, [field.random(rng) for _ in range(2 * w + 1)]) for w in WEIGHTS)
        delta = disc_poly(field, b)
        if not delta.is_zero() and delta.degree < 24:
            cases.append((b, 1, False))
    verdicts = set()
    for b, d, member in cases:
        b_rev = _at_infinity(b, d)
        oracle = kodaira_of_reduction(field, tuple(p[0] for p in b_rev)) == "I1"
        for chart in (b_rev, _box_degree_tuple(b, d)):
            try:
                _certify_i1(chart, s)
                certified = True
            except AssertionError:
                certified = False
            assert certified == oracle
        assert oracle or not member
        verdicts.add(oracle)
    assert verdicts == {True, False}


def test_kodaira_good_reduction():
    field = GF(5)
    rng = det_rng(13, "curves-good")
    while True:
        b_red = tuple(field.random(rng) for _ in range(4))
        if quartic_disc(b_red):
            break
    assert kodaira_of_reduction(field, b_red) == "I0"


def test_two_torsion_field_rank_trivial_on_xd():
    field = GF(5)
    for b in sample_xd(field, 1, 5, seed=14):
        assert two_torsion_field_rank(field, b) == 0


def _k_roots_bruteforce(field, b):
    """K-roots of x^3 + A x + B over K = F_q(t), tried over every
    polynomial c of degree <= max(deg A / 2, deg B / 3): a K-root of the
    monic cubic is in F_q[t], and a larger deg c leaves c^3 uncancelled."""
    a_coef, b_coef = weierstrass(b)
    bound = max(a_coef.degree // 2, b_coef.degree // 3, 0)
    count = 0
    for coeffs in itertools.product(list(field), repeat=bound + 1):
        c = Poly(field, coeffs)
        if (c ** 3 + a_coef * c + b_coef).is_zero():
            count += 1
    return count


@pytest.mark.parametrize("q", [5, 7])
def test_two_torsion_field_rank_matches_bruteforce(q):
    # random tuples of degree <= the weight of each entry, constant ones
    # among them; the counts 0, 1 and 3 all occur
    field = GF(q)
    rng = det_rng(18, "curves-two-torsion-rank")
    counts = set()
    for _ in range(80):
        b = tuple(
            Poly(field, [field.random(rng) for _ in range(int(rng.integers(1, w + 2)))])
            for w in WEIGHTS
        )
        count = two_torsion_field_rank(field, b)
        assert count == _k_roots_bruteforce(field, b)
        counts.add(count)
    assert {0, 1, 3} <= counts


def test_two_torsion_field_rank_single_root():
    # f = (x^2 + t)(x^2 + x + t) = x^4 + x^3 + 2t x^2 + t x + t^2 splits into
    # two quadratics over F_5(t) in one way only: one K-rational 2-torsion point
    field = GF(5)
    t = Poly.x(field)
    b = (Poly.const(field, field.one), 2 * t, t, t)
    assert not disc_poly(field, b).is_zero()
    assert _k_roots_bruteforce(field, b) == 1
    assert two_torsion_field_rank(field, b) == 1


def test_two_torsion_field_rank_detects_split_torsion():
    # y^2 = x^3 - t^2 x has the rational 2-torsion point x = 0 ... build a
    # quartic with a K-rational 2-torsion class: f = (T-t)(T+t)(T-1)(T+1)
    field = GF(5)
    t = Poly.x(field)
    one = Poly.const(field, field.one)
    f = (Poly(field, [field.zero, -field.one, field.zero, field.zero, field.one]))
    # f(T) = T^4 - (t^2+1) T^2 + t^2: roots t, -t, 1, -1; constant term t^2 square
    p2 = Poly(field)
    p4 = -(t * t + 1)
    p6 = Poly(field)
    q4 = t
    b = (p2, p4, q4, p6)
    assert not disc_poly(field, b).is_zero()
    assert two_torsion_field_rank(field, b) == 3
