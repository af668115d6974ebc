from fractions import Fraction

import numpy as np
import pytest

from d4vinberg import numkernels
from d4vinberg.densities import (
    MAX_TRUNCATION_EXPONENT,
    alpha_bruteforce,
    alpha_closed_form,
    alpha_v,
    beta_v,
    delta_b_montecarlo,
    delta_b_tail_bound,
    delta_b_truncated,
    delta_b_truncations,
    place_count,
    so4_count_bruteforce,
    so4_count_formula,
    vol_g,
)
from d4vinberg.fields import GF
from d4vinberg.quartic import delta
from d4vinberg.rng import det_rng
from oracles import alpha_points, delta_mpoly, disc_poly, reversed_poly


def test_alpha_three_routes_q5():
    assert alpha_v(5) == alpha_bruteforce(5) == alpha_closed_form(5) == Fraction(437, 3125)


def test_alpha_unit_disc_contributes_nothing():
    # alpha < #{Delta(bar b) = 0} q^4 / q^8: unit-discriminant points give 0
    q = 5
    n0 = q**3 + q - 1
    assert alpha_closed_form(q) <= Fraction(n0 * q**4, q**8)


def test_alpha_degree_two_place_uniformity():
    assert alpha_v(25) == alpha_closed_form(25)


def test_alpha_lift_at_23():
    assert alpha_v(23) == alpha_closed_form(23)


def test_alpha_closed_form_bound():
    for q in (5, 7, 11, 23, 125, 5**6):
        assert 0 < alpha_closed_form(q) < Fraction(5, q**2)


def test_alpha_lift_tripwire_fires(monkeypatch):
    # with no gradient filter every point of {Delta = 0} counts as singular,
    # and the dual-number check at those points must catch it
    def no_gradient_filter(q, ring, zero, one):
        sub, _ = alpha_points(q, ring, zero)
        return len(sub[0]), sub

    monkeypatch.setattr(numkernels, "_alpha_counts", no_gradient_filter)
    with pytest.raises(AssertionError, match="lifts to Delta != 0"):
        numkernels.alpha_lift_prime(5)


@pytest.mark.parametrize("block", [1000, 7**4, 2**16])
def test_alpha_grid_blocks_match_the_whole_grid(monkeypatch, block):
    # the 7^4 = 2401 points in three blocks (the last one partial), one
    # exact block, and one block larger than the grid
    p = 7
    ring = numkernels.mod_ring(p)
    axis = np.arange(p, dtype=np.int64)
    grid = [g.reshape(-1) for g in np.meshgrid(axis, axis, axis, axis, indexing="ij")]
    on = delta_mpoly().eval(grid, ring) == 0
    sub, singular = alpha_points(p, ring, 0)
    assert [a.tolist() for a in sub] == [a[on].tolist() for a in grid]
    monkeypatch.setattr(numkernels, "BLOCK", block)
    blocks = list(numkernels._grid_blocks(p, 4))
    assert [np.concatenate(c).tolist() for c in zip(*blocks)] == [a.tolist() for a in grid]
    n0, sing = numkernels._alpha_counts(p, ring, 0, 1)
    assert n0 == len(sub[0])
    assert [a.tolist() for a in sing] == [a[singular].tolist() for a in sub]


@pytest.mark.parametrize("pm", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)], ids=str)
def test_alpha_singular_set_matches_the_expanded_partials(pm):
    # the eps parts of the one Delta program over jets against the four
    # partials of the expanded Delta, on the whole grid
    p, m = pm
    if m == 1:
        q, ring, zero, one = p, numkernels.mod_ring(p), 0, 1
    else:
        field = GF(p, m)
        tab = numkernels.GFTable(field)
        q, ring = tab.q, tab.ring
        zero, one = field.to_int(field.zero), field.to_int(field.one)
    sub, singular = alpha_points(q, ring, zero)
    n0, sing = numkernels._alpha_counts(q, ring, zero, one)
    assert n0 == len(sub[0]) and singular.any() and not singular.all()
    assert [a.tolist() for a in sing] == [a[singular].tolist() for a in sub]


def test_so4_count():
    assert so4_count_formula(5) == 14400
    assert so4_count_bruteforce(5) == 14400


def test_vol_g_properties():
    vals = [vol_g(q) for q in (5, 7, 23, 101)]
    assert all(0 < v < 1 for v in vals)
    assert vals == sorted(vals)  # increases toward 1


def test_volume_identity_residual_zero():
    for q in (5, 7, 23):
        rep = beta_v(q)
        assert rep.identity_residual == 0
        assert 0 < rep.beta < 1


def test_beta_mc_small():
    rep = beta_v(5, mc=(50000, 7))
    assert rep.mc_estimate["deviation_sigmas"] < 4


def test_beta_report_json():
    rep = beta_v(5)
    text = rep.to_json()
    assert '"q_v": 5' in text and "assumptions" in text


def test_place_counts():
    assert place_count(5, 1) == 6
    assert place_count(5, 2) == 10
    assert place_count(5, 3) == 40


def test_delta_b_truncated_monotone():
    vals = [delta_b_truncated(5, k) for k in range(1, 7)]
    assert all(0 < v < 1 for v in vals)
    assert all(vals[i] > vals[i + 1] for i in range(5))
    # degree-1 truncation is (1 - alpha)^(q+1)
    assert vals[0] == (1 - alpha_closed_form(5)) ** 6


def test_delta_b_truncated_refuses_an_oversized_product():
    # q = 11 at degree 6 builds a denominator of q^15576976: refused before
    # any product, while q = 5 and 7 stay within the bound
    def exponent(q):
        return 8 * sum(n * place_count(q, n) for n in range(1, 7))

    assert exponent(5) < exponent(7) <= MAX_TRUNCATION_EXPONENT < exponent(11)
    with pytest.raises(ValueError, match="q = 11 needs a denominator of q\\^15576976"):
        delta_b_truncated(11, 6)


@pytest.mark.parametrize("q", [5, 7])
def test_delta_b_truncations_are_the_prefixes(q):
    # one running product gives every truncation: prefix k is the product
    # over the places of degree <= k, delta_b_truncated(q, k)
    vals = delta_b_truncations(q, 6)
    assert len(vals) == 7 and vals[0] == 1
    assert vals[1] == (1 - alpha_closed_form(q)) ** (q + 1)
    assert vals[1:] == [delta_b_truncated(q, k) for k in range(1, 7)]


def test_delta_b_truncations_refuse_before_any_product(monkeypatch):
    # the refusal at q = 11 reads only the top degree's exponent
    import d4vinberg.densities as densities_mod

    def no_product(q_v):
        raise AssertionError("a product was started")

    monkeypatch.setattr(densities_mod, "alpha_closed_form", no_product)
    with pytest.raises(ValueError, match="degree 6 over q = 11 needs a denominator of q\\^15576976"):
        delta_b_truncations(11, 6)


def test_delta_b_tail_bound_dominates():
    # the tail bound really bounds sum of alpha over higher-degree places
    q, b = 5, 6
    exact_tail = sum(
        place_count(q, n) * alpha_closed_form(q**n) for n in range(b + 1, b + 6)
    )
    assert exact_tail < delta_b_tail_bound(q, b)


def test_delta_b_montecarlo_agreement():
    frac, stderr, hits = delta_b_montecarlo(GF(5), 2, 5000, 3)
    trunc = float(delta_b_truncated(5, 6))
    assert abs(frac - trunc) <= 4 * stderr + float(delta_b_tail_bound(5, 6)) + 0.01


def test_mc_deterministic():
    a = delta_b_montecarlo(GF(5), 1, 2000, 5)
    b = delta_b_montecarlo(GF(5), 1, 2000, 5)
    assert a == b
    h1 = numkernels.beta_mc_prime(5, 10000, 11)
    h2 = numkernels.beta_mc_prime(5, 10000, 11)
    assert h1 == h2


def test_beta_mc_blocks_match_whole_chunks():
    # neither the BETA_BLOCK row blocks nor the value-first filter changes
    # a count: one unfiltered dual pass per Philox chunk
    p, seed, sizes = 5, 3, (numkernels.BETA_CHUNK, 700)
    hits = 0
    for i, size in enumerate(sizes):
        coords = det_rng(seed, "beta-mc", i).integers(0, p, size=(size, 16, 2), dtype=np.int64)
        prims = numkernels.dual_primitives(coords, p)
        d0, d1 = delta_mpoly().eval(prims, numkernels.dual_ring(p))
        hits += int(((d0 == 0) & (d1 == 0)).sum())
    assert numkernels.beta_mc_prime(p, sum(sizes), seed) == hits


def _value_delta(values, p):
    """Delta of the value pass of beta_mc_prime on (N, 16) coordinates."""
    prims = numkernels._block_primitives(values, p, numkernels._value_lift(p))
    return delta(prims, numkernels.mod_ring(p))


@pytest.mark.parametrize("p", [5, 23, 268435399])
def test_beta_value_pass_is_the_value_part_of_the_dual_delta(p):
    coords = det_rng(6, "beta-filter", p).integers(0, p, size=(300, 16, 2), dtype=np.int64)
    coords[:20, :, 0] = 0  # rows of value 0, survivors of the filter at every p
    coords[20:40, 8:, 0] = 0
    value = _value_delta(coords[..., 0], p)
    d0, _ = delta(numkernels.dual_primitives(coords, p), numkernels.dual_ring(p))
    assert (value == d0).all()
    assert (value[:40] == 0).all()


def test_beta_block_without_survivors_counts_zero():
    p, n, seed = 23, 5, 0
    coords = det_rng(seed, "beta-mc", 0).integers(0, p, size=(n, 16, 2), dtype=np.int64)
    value = _value_delta(coords[..., 0], p)
    assert value.all()  # no row of the block survives the value pass
    d0, d1 = delta(numkernels.dual_primitives(coords[value == 0], p), numkernels.dual_ring(p))
    assert d0.shape == d1.shape == (0,)
    assert numkernels.beta_mc_prime(p, n, seed) == 0


def test_int64_kernels_reject_p_beyond_exact_range():
    # p >= MAX_P leaves the exact int64 range; p < 5 cannot divide by 2, 4
    # and 6 (Newton step) or build GF(p)
    rows = np.zeros((1, 1), dtype=np.int64)
    for p in (2, 3, numkernels.MAX_P, 2**31 - 1):
        kernels = [
            lambda: numkernels.beta_mc_prime(p, 10, 0),
            lambda: numkernels.delta_poly_batch(p, [rows] * 4),
            lambda: numkernels.squarefree_batch(rows, p),
            lambda: numkernels.gcd_degrees(rows, rows, p),
            lambda: numkernels.xd_box_filter(p, [rows] * 4),
            lambda: numkernels.berlekamp_nullity(rows, p),
            lambda: numkernels.alpha_lift_prime(p),
            lambda: numkernels.alpha_brute_prime(p),
        ]
        for kernel in kernels:
            with pytest.raises(ValueError):
                kernel()


def test_infinity_coordinate_change():
    # ord at infinity via degree bookkeeping equals ord of the reversed
    # discriminant at s = 0 (the coordinate-change check, run once)
    from d4vinberg.polys import Poly
    from d4vinberg.rng import det_rng

    field = GF(5)
    rng = det_rng(0, "inf-chart")
    d = 1
    for _ in range(20):
        b = tuple(
            Poly(field, [field.random(rng) for _ in range(k + 1)])
            for k in (2, 4, 4, 6)
        )
        delta = disc_poly(field, b)
        if delta.is_zero():
            continue
        ord_inf = 24 * d - delta.degree
        rev = reversed_poly(delta, 24 * d)
        low = next((i for i, c in enumerate(rev.coeffs) if c), None)
        assert low == ord_inf
