import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from d4vinberg import hnweights
from d4vinberg.hnweights import (
    CUSP_TABLE,
    INT64_MAX,
    QPowerSum,
    SlopeVector,
    boundary_tail_bound,
    clifford_h0,
    covers,
    enumerate_c0,
    enumerate_upward_closed,
    lambda_max,
    parabolic_stable_sets,
    trivial_inv_slopes,
    two_w,
    verify_cusp_table,
    _axis_product,
    _eighth_root_floor,
)
from d4vinberg.liealg import LABELS
from d4vinberg.rng import det_rng

from oracles import axis_product_by_dicts, qps_add, qps_monomial, qps_mul, tail_bound_by_dicts

W0_NAMES = ("e", "s12.34", "s13.24", "s14.23")


def test_lambda_examples():
    assert lambda_max(frozenset()) == frozenset({1})
    assert lambda_max(frozenset({1})) == frozenset({2, 3, 4, 5})
    assert lambda_max(frozenset({1, 2})) == frozenset({3, 4, 5})


def test_upward_closed_contains_top():
    for m in enumerate_upward_closed():
        assert 1 in m


def test_c0_is_the_eleven_table_sets():
    c0 = [tuple(sorted(m)) for m in enumerate_c0()]
    assert c0 == [
        (1,),
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (1, 2, 3),
        (1, 2, 4),
        (1, 2, 5),
        (1, 3, 4),
        (1, 3, 5),
        (1, 4, 5),
    ]
    assert (1, 2, 3, 4) not in c0


def test_cusp_table_rows_and_conditions():
    rows = verify_cusp_table()
    assert len(rows) == 11
    by_key = {r.m_set: r for r in rows}
    assert by_key[(1,)].wp2 == (1, 1, 1, 1)
    assert by_key[(1, 2)].wp2 == (Fraction(7, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert by_key[(1, 4, 5)].lambda_m == (2, 3, 11)
    assert by_key[(1, 4, 5)].wp2 == (Fraction(1, 2),) * 4
    for r in rows:
        assert r.size > sum(r.p)
        assert all(x > 0 for x in r.wp2)


def test_parabolic_case_isolates_12():
    assert [tuple(sorted(m)) for m in parabolic_stable_sets()] == [(1, 2)]


def test_covers_are_single_flips():
    assert covers(16) == frozenset({12, 13, 14, 15})
    assert covers(1) == frozenset()


def test_slope_vector_membership():
    assert SlopeVector([-1, -2, -3, -1]).in_lambda_b_pos()
    assert not SlopeVector([-1, 0, -3, -1]).in_lambda_b_pos()


def test_trivial_slopes_all_w_and_d():
    reference = None
    for w in W0_NAMES:
        for d in (1, 2, 3):
            sigma, hn, pos, lowest, rep = trivial_inv_slopes(w, d, char=23)
            assert pos and lowest == Fraction(-4 * d)
            assert rep["matches_reference_constant"] is False  # logged, not asserted
            assert rep["filtration_hypothesis_ok"]
            if d == 1:
                if reference is None:
                    reference = hn
                else:
                    assert hn == reference  # W0 permutes the weights
    # slope multiset at d = 1: (-4)x1, (-2)x3, 0x4, 2x4, 4x3, 6x1
    assert reference == [
        (Fraction(-4), 1),
        (Fraction(-2), 3),
        (Fraction(0), 4),
        (Fraction(2), 4),
        (Fraction(4), 3),
        (Fraction(6), 1),
    ]


def test_trivial_slopes_sum_is_twist_degree():
    for d in (1, 2, 3):
        _, hn, _, _, _ = trivial_inv_slopes("e", d)
        assert sum(s * m for s, m in hn) == 16 * d


def test_clifford_examples():
    assert clifford_h0([-1, -1], 0) == (0, True)
    assert clifford_h0([2, 2], 0) == (6, True)
    assert clifford_h0([3, -2], 0) == (4, True)


def test_clifford_random():
    rng = det_rng(0, "clifford-test")
    for _ in range(300):
        n = int(rng.integers(1, 6))
        degs = [int(rng.integers(-5, 6)) for _ in range(n)]
        twist = int(rng.integers(-3, 6))
        h0, ok = clifford_h0(degs, twist)
        assert ok
        assert h0 == sum(max(0, e + twist + 1) for e in degs)


def test_tail_bound_decreasing_and_stable():
    vals = {}
    for key in CUSP_TABLE:
        b1 = boundary_tail_bound(key, 1, 40, 23)
        b2 = boundary_tail_bound(key, 2, 40, 23)
        assert b2.to_float() < b1.to_float()
        b80 = boundary_tail_bound(key, 1, 80, 23)
        assert abs(b1.to_float() - b80.to_float()) < 1e-4
        assert float(b1.upper_bound()) >= b1.to_float() > 0
        vals[key] = b1.to_float()
    # leading exponent for M = {1,2} is q^{-d/2}
    r1 = boundary_tail_bound((1, 2), 2, 40, 23).to_float()
    r0 = boundary_tail_bound((1, 2), 1, 40, 23).to_float()
    assert abs(r1 / r0 - 23 ** -0.5) < 1e-9


def _integer_root_floor(n, k):
    """floor(n^(1/k)) by bisection: the oracle of the nested square roots."""
    lo, hi = 0, 1
    while hi**k <= n:
        hi *= 2
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def test_eighth_root_matches_bisection():
    # every exponent that the cusp-table report's upper_bound_d1 evaluates
    # (q = 23, truncation 40), plus the small cases around perfect powers
    exponents = set()
    for key in CUSP_TABLE:
        exponents |= set(boundary_tail_bound(key, 1, 40, 23).terms)
    assert len(exponents) > 100
    for e in sorted(exponents):
        n = 23**e
        assert _eighth_root_floor(n) == _integer_root_floor(n, 8)
    for r in range(6):
        for n in (r**8 - 1, r**8, r**8 + 1):
            if n >= 0:
                assert _eighth_root_floor(n) == _integer_root_floor(n, 8)


def _rounded_up_sum(bound, digits):
    """sum of ceil(c 10^digits / floor(q^(e/8))) / 10^digits over the terms,
    the root by bisection (a root of 0 counts as 1)."""
    scale = 10**digits
    total = Fraction(0)
    for e, c in bound.terms.items():
        root = max(_integer_root_floor(bound.q**e, 8), 1)
        total += math.ceil(Fraction(c * scale, root))
    return total / scale


def test_upper_bound_rounds_each_term_up():
    # floor(23^(e/8)) = 1, 1, 1, 23, 782: each term rounded up in hundredths
    small = QPowerSum(23, {0: 2, 1: 1, 5: 0, 8: 3, 17: 7})
    assert small.upper_bound(2) == Fraction(200 + 100 + 0 + 14 + 1, 100)
    cases = [small] + [boundary_tail_bound(key, 1, 40, 23) for key in ((1,), (1, 5), (1, 4, 5))]
    for bound in cases:
        assert bound.upper_bound() == _rounded_up_sum(bound, 40)
        assert bound.upper_bound(7) == _rounded_up_sum(bound, 7)
        assert bound.upper_bound(7) >= bound.upper_bound() >= bound.to_float()


def test_upper_bound_asserts_nonnegative_terms():
    for terms in ({3: -1}, {-1: 1}):
        with pytest.raises(AssertionError):
            QPowerSum(23, terms).upper_bound()


def test_axis_steps_and_leading_exponent_are_checked(monkeypatch):
    with pytest.raises(AssertionError):
        _axis_product((1, 0), 1)  # a zero step would collide the terms of an axis
    lam, p_vals, w2, wp2 = CUSP_TABLE[(1,)]
    # a leading exponent of 15/16, not in eighths; then a step of 5/3 eighths
    for row in ((lam, (Fraction(1, 16),), w2, wp2), (lam, p_vals, w2, (Fraction(5, 6), 1, 1, 1))):
        monkeypatch.setitem(CUSP_TABLE, (1,), row)
        with pytest.raises(AssertionError):
            boundary_tail_bound((1,), 1, 2, 23)


def test_qpowersum_arithmetic():
    a = qps_monomial(23, Fraction(1, 2))
    b = qps_monomial(23, Fraction(1, 4), 3)
    prod = qps_mul(a, b)
    assert prod.terms == {6: 3}  # exponents in eighths
    assert abs(qps_add(a, a).to_float() - 2 * 23**-0.5) < 1e-12


def test_tail_bounds_match_the_dict_product_in_order():
    # the report sums the terms in insertion order: the dense product must
    # insert them where the dict product does, not only with equal values
    cases = [(key, d, 40, 23) for key in CUSP_TABLE for d in (1, 2, 3)]
    cases += [(key, 1, t, 23) for key in CUSP_TABLE for t in (1, 2, 80)]
    cases += [((1,), 2, 3, 2), ((1, 2, 3), 2, 3, 2)]  # the smallest q
    for case in cases:
        got = boundary_tail_bound(*case)
        want = tail_bound_by_dicts(*case)
        assert list(got.terms.items()) == list(want.terms.items()), case
        assert got.to_float() == want.to_float()
        assert all(type(e) is int and type(c) is int for e, c in got.terms.items())


def test_tail_bound_order_is_not_ascending():
    # for M = {1, 5} (steps 1, 1, 1, 7 eighths) summing the same terms by
    # ascending exponent changes the floats of the report
    bound = boundary_tail_bound((1, 5), 1, 40, 23)
    ascending = QPowerSum(23, sorted(bound.terms.items()))
    assert list(bound.terms) != list(ascending.terms)
    assert bound.to_float() != ascending.to_float()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.integers(1, 10))
def test_axis_product_matches_the_dict_product(steps, truncation):
    want = axis_product_by_dicts(23, 0, steps, truncation)
    exps, coefs = _axis_product(tuple(steps), truncation)
    assert list(zip(exps.tolist(), coefs.tolist())) == list(want.terms.items())
    assert not exps.flags.writeable and not coefs.flags.writeable  # shared by the cache


@pytest.mark.parametrize("q", [1, 0, -5])
def test_tail_bound_rejects_q_below_two(q):
    with pytest.raises(ValueError, match="q >= 2"):
        boundary_tail_bound((1,), 1, 40, q)


@pytest.mark.parametrize("truncation", [0, -1])
def test_tail_bound_rejects_an_empty_truncation(truncation):
    with pytest.raises(ValueError, match="truncation >= 1"):
        boundary_tail_bound((1,), 1, truncation, 23)


def test_int64_bound_is_checked_before_any_array(monkeypatch):
    # (2T)^4 <= 2^63 - 1 exactly up to T = 27554
    assert (2 * 27554) ** 4 <= INT64_MAX < (2 * 27555) ** 4
    monkeypatch.setattr(hnweights, "np", None)  # any array built would raise AttributeError
    with pytest.raises(ValueError, match="overflow int64"):
        boundary_tail_bound((1,), 1, 27555, 23)
    with pytest.raises(ValueError, match="overflow int64"):
        _axis_product((1, 1, 1, 1), 27555)


def test_two_w_matches_table():
    for key, (_, _, w2, _) in CUSP_TABLE.items():
        assert two_w(frozenset(key)) == tuple(Fraction(x) for x in w2)
