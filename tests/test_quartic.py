from d4vinberg import polys
from d4vinberg.fields import GF, extension_of
from d4vinberg.multipoly import MPoly
from d4vinberg.polys import Poly, find_irreducible
from d4vinberg.quartic import (
    binary_quartic_invariants,
    delta,
    delta_mpoly,
    disc_monic_quartic_mpoly,
    disc_univariate,
    quartic_disc,
    quartic_poly,
    weierstrass,
)
from d4vinberg.rng import det_rng


def test_disc_t4_plus_1_is_256():
    assert quartic_disc((0, 0, 1, 0)) == 256  # f = t^4 + 1 (q4 = 1)


def test_repeated_root_gives_zero():
    # b = (0, -2, 1, 0): f = t^4 - 2t^2 + 1 = (t^2-1)^2
    assert quartic_disc((0, -2, 1, 0)) == 0
    f5 = GF(5)
    f = quartic_poly(f5, (0, -2, 1, 0))
    g = polys.gcd(f, f.derivative())
    assert g.degree >= 1  # genuinely has a repeated root in this convention


def test_weighted_homogeneity_degree_12():
    assert delta_mpoly().weighted_degrees((1, 2, 2, 3)) == {12}


def test_resultant_oracle_matches_closed_form():
    f = GF(23)
    rng = det_rng(0, "disc-oracle")
    for _ in range(100):
        b = tuple(f.random(rng) for _ in range(4))
        quartic = quartic_poly(f, b)
        assert quartic_disc(b) == disc_univariate(quartic)


def test_splitting_field_root_product_oracle():
    # disc = prod (r_i - r_j)^2 over roots in a splitting field
    f = GF(5)
    b = (0, 0, 1, 0)  # t^4 + 1: splits over F_25
    ext = extension_of(f, find_irreducible(f, 2).coeffs)
    quartic = Poly(ext, [ext.elem(c) for c in quartic_poly(f, b).coeffs])
    rs = polys.roots(quartic)
    assert len(rs) == 4
    prod = ext.one
    for i in range(4):
        for j in range(i + 1, 4):
            prod = prod * (rs[i] - rs[j]) ** 2
    assert prod == ext.elem(quartic_disc(tuple(f.elem(x) for x in b)))


def test_binary_quartic_syzygy():
    # 4 I^3 - J^2 = 27 disc as an exact integer polynomial identity
    i_inv, j_inv = binary_quartic_invariants()
    disc = disc_monic_quartic_mpoly()
    assert 4 * i_inv**3 - j_inv**2 == 27 * disc


def _variables():
    return tuple(MPoly.var(4, i) for i in range(4))  # (p2, p4, q4, p6)


def test_delta_program_is_the_expanded_discriminant():
    # an identity in ZZ[p2, p4, q4, p6], so it holds in every characteristic
    assert delta(_variables()) == delta_mpoly()


def test_weierstrass_program_is_minus_27_times_the_invariants():
    p2, p4, q4, p6 = _variables()
    point = (p2, p4, p6, q4 * q4)
    i_inv, j_inv = binary_quartic_invariants()
    assert weierstrass(_variables()) == (-27 * i_inv.eval(point), -27 * j_inv.eval(point))


def test_disc_over_polynomial_ring():
    f = GF(5)
    t = Poly.x(f)
    b = (t, t + 1, Poly.const(f, f.elem(2)), t * t)
    val = quartic_disc(b)
    # matches evaluation at sample points
    for c in f:
        b_c = tuple(x(c) for x in b)
        assert val(c) == quartic_disc(b_c)
