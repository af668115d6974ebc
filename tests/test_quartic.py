import numpy as np

from d4vinberg import numkernels, polys
from d4vinberg.fields import GF, extension_of
from d4vinberg.multipoly import PY_RING, MPoly
from d4vinberg.polys import Poly, find_irreducible
from d4vinberg.quartic import (
    delta,
    disc_univariate,
    first_subresultant,
    homogenized,
    quartic_disc,
    quartic_poly,
    weierstrass,
)
from d4vinberg.rng import det_rng
from oracles import (
    binary_quartic_invariants,
    delta_mpoly,
    det_mpoly,
    disc_monic_quartic_mpoly,
    weighted_degrees,
)


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
    assert weighted_degrees(delta_mpoly(), (1, 2, 2, 3)) == {12}


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


def test_first_subresultant_is_the_sylvester_minors():
    # rows x f, f, x^2 f', x f', f' of the 5x6 Sylvester matrix of (f, f'),
    # columns x^5 .. x^0; S1 = minor(x^5..x^2, x^1) x + minor(x^5..x^2, x^0)
    p2, p4, q4, p6 = _variables()
    one, zero = MPoly.const(4, 1), MPoly(4, {})
    f = [one, p2, p4, p6, q4 * q4]
    df = [4 * one, 3 * p2, 2 * p4, p6]
    rows = [f + [zero], [zero] + f]
    rows += [[zero] * k + df + [zero] * (2 - k) for k in range(3)]
    s1, s0 = (det_mpoly([r[:4] + [r[col]] for r in rows]) for col in (4, 5))
    assert first_subresultant(_variables(), PY_RING) == (s1, s0)


def test_first_subresultant_root_is_the_double_root():
    # where Delta = 0 and s1 != 0, -s0/s1 is the root of gcd(f, f')
    field = GF(7)
    rng = det_rng(3, "subresultant-root")
    seen = 0
    while seen < 20:
        b = tuple(field.random(rng) for _ in range(4))
        s1, s0 = first_subresultant(b, PY_RING)
        if quartic_disc(b) or not s1:
            continue
        f = quartic_poly(field, b)
        g = polys.gcd(f, f.derivative())
        assert g.degree == 1 and -g[0] == -s0 * s1.inverse()
        seen += 1


def test_homogenized_is_z4_f_of_x_over_z():
    # Fh(X, Z) = X^4 + p2 X^3 Z + p4 X^2 Z^2 + p6 X Z^3 + q4^2 Z^4
    p2, p4, q4, p6, x, z = (MPoly.var(6, i) for i in range(6))
    fh = x**4 + p2 * x**3 * z + p4 * x * x * z * z + p6 * x * z**3 + q4 * q4 * z**4
    dfh = 4 * x**3 + 3 * p2 * x * x * z + 2 * p4 * x * z * z + p6 * z**3
    assert homogenized((p2, p4, q4, p6), (x, z), PY_RING) == (fh, dfh)


def test_first_subresultant_over_polynomial_batches():
    # the program over numkernels.batch_ring, row by row the one over Polys
    p = 7
    field = GF(p)
    rng = det_rng(4, "subresultant-batch")
    arrays = [rng.integers(0, p, size=(6, 2 * w + 1), dtype=np.int64) for w in (1, 2, 2, 3)]
    arrays[2][0] = 0  # a zero q4
    got = first_subresultant(arrays, numkernels.batch_ring(p))
    for i in range(6):
        b = tuple(Poly(field, a[i].tolist()) for a in arrays)
        for row, want in zip(got, first_subresultant(b, PY_RING)):
            assert Poly(field, row[i].tolist()) == want


def test_disc_over_polynomial_ring():
    f = GF(5)
    t = Poly.x(f)
    b = (t, t + 1, Poly.const(f, f.elem(2)), t * t)
    val = quartic_disc(b)
    # matches evaluation at sample points
    for c in f:
        b_c = tuple(x(c) for x in b)
        assert val(c) == quartic_disc(b_c)
