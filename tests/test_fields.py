import pytest

from d4vinberg.fields import GF, extension_of
from d4vinberg.rng import det_rng


def test_rejects_small_characteristic():
    for p in (2, 3, 4, 6):
        with pytest.raises(ValueError):
            GF(p)


def test_prime_field_axioms():
    f = GF(23)
    rng = det_rng(0, "fields-axioms")
    for _ in range(300):
        a, b, c = (f.random(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == f.zero
        if a:
            assert a * a.inverse() == f.one


def test_extension_field_axioms_and_order():
    f = GF(5, 3)
    assert f.order == 125 and f.char == 5
    rng = det_rng(1, "ext-axioms")
    for _ in range(300):
        a, b, c = (f.random(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == f.one
    # multiplicative group order
    g = f.gen
    assert g ** (f.order - 1) == f.one


def test_auto_modulus_deterministic():
    assert GF(5, 2) == GF(5, 2)
    m1 = GF(7, 3).modulus
    m2 = GF(7, 3).modulus
    assert [c.val for c in m1] == [c.val for c in m2]


def test_default_extension_is_one_object():
    f, g = GF(5, 2), GF(5, 2)
    assert f is g
    rng = det_rng(2, "ext-memo")
    a, b = f.random(rng), g.random(rng)
    assert (a + b) - b == a
    assert GF(5, 2, modulus=f.modulus) is not f


def test_primality_of_large_and_pseudoprime_characteristics():
    assert GF(2**61 - 1).p == 2**61 - 1
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 23
    for n in (3215031751, 3825123056546413051, 2**61 + 1):
        with pytest.raises(ValueError):
            GF(n)


def test_serialization_roundtrip_bit_exact():
    for f in (GF(23), GF(5, 2)):
        for x in f:
            s = f.elem_to_str(x)
            assert f.elem_from_str(s) == x


def test_enumeration_and_int_codes():
    f = GF(5, 2)
    seen = set()
    for x in f:
        code = f.to_int(x)
        assert f.from_int(code) == x
        seen.add(code)
    assert seen == set(range(25))


def test_quadratic_character():
    f = GF(23)
    squares = {x * x for x in f if x}
    for x in f:
        if not x:
            assert f.chi(x) == 0
        else:
            assert f.chi(x) == (1 if x in squares else -1)


def test_mixed_base_extension_arithmetic():
    ext = GF(7, 2)
    a = ext.base.elem(3)
    b = ext.gen
    assert a * b == b * a
    assert (a + b) - b == ext.elem(a)


def test_tower_extension():
    f = GF(5)
    from d4vinberg.polys import find_irreducible

    mu = find_irreducible(f, 2)
    tower = extension_of(f, mu.coeffs)
    assert tower.order == 25
    assert tower.gen ** 24 == tower.one
