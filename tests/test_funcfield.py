from d4vinberg import polys
from d4vinberg.fields import GF
from d4vinberg.funcfield import Place, RatFunc, count_monic_irreducibles, support
from d4vinberg.polys import Poly
from d4vinberg.rng import det_rng


def setup_module(module):
    module.F = GF(5)
    module.t = Poly.x(module.F)


def test_product_formula():
    rng = det_rng(0, "prod-formula")
    checked = 0
    while checked < 100:
        num = Poly(F, [F.random(rng) for _ in range(5)])
        den = Poly(F, [F.random(rng) for _ in range(3)])
        if num.is_zero() or den.is_zero():
            continue
        r = RatFunc(num, den)
        if r.is_zero():
            continue
        assert sum(o * pl.degree for pl, o in support(r)) == 0
        checked += 1


def test_place_counts():
    assert count_monic_irreducibles(5, 2) == len(list(polys.monic_irreducibles(F, 2))) == 10
    assert count_monic_irreducibles(5, 3) == 40


def test_place_equality_and_residue_field():
    p1 = Place(F, t * t + 2)
    p2 = Place(F, t * t + 2)
    assert p1 == p2
    kv = p1.residue_field()
    assert kv.order == 25
    # reduction is a ring map
    a = t ** 3 + t
    b = t + 4
    assert p1.reduce_poly(a * b) == p1.reduce_poly(a) * p1.reduce_poly(b)
