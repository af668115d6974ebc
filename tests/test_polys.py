import operator
from itertools import product

import pytest

from d4vinberg import polys
from d4vinberg.fields import GF
from d4vinberg.funcfield import RatFunc
from d4vinberg.polys import Poly, factor, gcd, is_irreducible, is_squarefree, roots
from d4vinberg.rng import det_rng


def test_divmod_and_gcd():
    f = GF(23)
    rng = det_rng(0, "poly-divmod")
    for _ in range(100):
        a = Poly(f, [f.random(rng) for _ in range(8)])
        b = Poly(f, [f.random(rng) for _ in range(4)])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_polys_over_two_fields_do_not_mix():
    base, ext = GF(7), GF(7, 2)
    a, b = Poly.x(base) + 3, Poly.x(ext) + ext.gen
    ring_ops = (operator.add, operator.sub, operator.mul)
    cases = [(x, y, ring_ops) for x, y in ((b, base.elem(3)), (base.elem(3), b))]
    cases += [(x, y, ring_ops + (divmod, operator.floordiv, operator.mod)) for x, y in ((a, b), (b, a))]
    for x, y, ops in cases:
        for op in ops:
            with pytest.raises(TypeError):
                op(x, y)
    for x, y in ((RatFunc(b), base.elem(3)), (RatFunc(b), a), (RatFunc(a), b)):
        for op in ring_ops:
            with pytest.raises(TypeError):
                op(x, y)
    assert Poly.const(ext, 3) != base.elem(3) and Poly.const(ext, 3) == ext.elem(3) == 3
    # Poly(ext, coeffs) is the embedding
    assert Poly(ext, a.coeffs) * b == Poly(ext, [3 * ext.gen, ext.gen + 3, 1])


def test_squarefree_examples():
    f = GF(5)
    t = Poly.x(f)
    assert is_squarefree(t)
    assert not is_squarefree(t * t)
    # t^4 + 1 over F_5 factors into two distinct quadratics
    g = t**4 + 1
    assert is_squarefree(g)
    fac = factor(g)
    assert [p.degree for p, _ in fac] == [2, 2]
    assert fac[0][0] != fac[1][0]


def test_inseparable_power_detected():
    f = GF(5)
    t = Poly.x(f)
    g = t**5 + 2  # (t + 2^(1/5))^5: derivative zero
    assert g.derivative().is_zero()
    assert not is_squarefree(g)
    fac = factor(g)
    total = Poly.const(f, f.one)
    for irr, mult in fac:
        total = total * irr**mult
    assert total == g


def test_factor_reconstructs_product():
    f = GF(7)
    rng = det_rng(3, "poly-factor")
    for _ in range(60):
        a = Poly(f, [f.random(rng) for _ in range(10)])
        if a.is_zero():
            continue
        prod = Poly.const(f, a.lead())
        for irr, mult in factor(a):
            assert is_irreducible(irr)
            prod = prod * irr**mult
        assert prod == a


def test_factor_deterministic():
    f = GF(23)
    rng = det_rng(4, "poly-det")
    for _ in range(10):
        a = Poly(f, [f.random(rng) for _ in range(9)])
        if a.is_zero():
            continue
        assert factor(a) == factor(a)


def test_roots():
    f = GF(23)
    t = Poly.x(f)
    g = (t - 3) * (t - 5) * (t * t + 1)
    rs = roots(g)
    assert {r.val for r in rs} == {3, 5} or len(rs) == 4  # t^2+1 may split
    assert all(g(r) == f.zero for r in rs)


def test_resultant_vs_product_of_values():
    f = GF(23)
    t = Poly.x(f)
    a = (t - 2) * (t - 7)
    b = (t - 1) * (t - 3) * (t - 4)
    # Res(a, b) = lc(a)^deg b * prod b at roots of a
    expected = b(f.elem(2)) * b(f.elem(7))
    assert polys.resultant(a, b) == expected


def test_find_irreducible():
    f = GF(5)
    for d in (1, 2, 3, 5):
        g = polys.find_irreducible(f, d)
        assert g.degree == d and is_irreducible(g)


def _monic_raw(field, degree):
    """Every monic polynomial of the given degree over field, as raw values."""
    vals = [x.val for x in field]
    for low in product(vals, repeat=degree):
        yield [*low, field.one.val]


def test_irreducibility_matches_a_product_sieve():
    """Every monic polynomial of degree n over F_5 (n <= 5), F_7 (n <= 4)
    and GF(25) (n <= 3) is irreducible exactly when it is not a product g h
    of monic polynomials of degrees d and n - d, 1 <= d <= n // 2."""
    for field, top in ((GF(5), 5), (GF(7), 4), (GF(5, 2), 3)):
        for n in range(1, top + 1):
            reducible = {
                tuple(field.poly_mul(g, h))
                for d in range(1, n // 2 + 1)
                for g in _monic_raw(field, d)
                for h in _monic_raw(field, n - d)
            }
            for f in _monic_raw(field, n):
                got = polys.is_irreducible_raw(field, f)
                assert got == (tuple(f) not in reducible), (field.order, f)


def test_poly_serialization():
    from d4vinberg.fields import extension_of

    base = GF(5, 2)
    tower = extension_of(base, polys.find_irreducible(base, 2).coeffs)
    rng = det_rng(9, "poly-ser")
    for f in (base, tower):
        for _ in range(20):
            a = Poly(f, [f.random(rng) for _ in range(5)])
            assert Poly.from_str(f, a.to_str()) == a
