import operator
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from d4vinberg.fields import GF, FElem, PrimeField, extension_of
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
    from d4vinberg.polys import find_irreducible

    base = GF(5, 2)
    tower = extension_of(base, find_irreducible(base, 2).coeffs)
    for f in (GF(23), base, tower):
        for x in f:
            s = f.elem_to_str(x)
            assert f.elem_from_str(s) == x
    # tower literals nest
    assert tower.elem_to_str(tower.zero) == "((0,0),(0,0))"


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


OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def test_mixed_base_extension_arithmetic():
    # elements of two fields never mix; ext.elem is the one embedding
    ext = GF(7, 2)
    a = ext.base.elem(3)
    b = ext.gen
    for op in OPS:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeError):
                op(x, y)
    with pytest.raises(TypeError):
        GF(7).elem(3) * GF(7, 2).gen
    lifted = ext.elem(a)
    assert lifted * b == b * lifted == ext.elem([0, 3])
    assert (lifted + b) - b == lifted
    assert b / lifted * lifted == b and lifted / b * b == lifted
    # an equal field under another object does not mix either
    with pytest.raises(TypeError):
        a + PrimeField(7).one


@lru_cache(maxsize=None)
def _int_operand_fields():
    from d4vinberg.polys import find_irreducible

    tower = extension_of(GF(5, 2), find_irreducible(GF(5, 2), 2).coeffs)
    return (GF(23), GF(7, 2), tower)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(3)), st.integers(0, 10**6), st.integers(-10**30, 10**30))
def test_int_operands_read_through_elem(which, index, k):
    f = _int_operand_fields()[which]
    x = f.from_int(index % f.order)
    fk = f.elem(k)
    for op in OPS[:3]:
        assert op(x, k) == op(x, fk)
        assert op(k, x) == op(fk, x)
    if fk:
        assert x / k == x / fk
    if x:
        assert k / x == fk / x


@pytest.mark.parametrize("q", [(5, 2), (23, 2)], ids=["GF25", "GF23^2"])
def test_ext_times_int_scales_the_coefficients(q):
    f = GF(*q)
    p = f.char
    rng = det_rng(3, "ext-times-int", f.order)
    for k in (-10**20, -p - 1, -p, -1, 0, 1, p - 1, p, p + 2, 7 * p + 3, 10**20):
        for a in [f.zero, f.one, f.gen] + [f.random(rng) for _ in range(6)]:
            want = a * f.elem(k)
            assert a * k == want == k * a


def test_tower_extension():
    f = GF(5)
    from d4vinberg.polys import find_irreducible

    mu = find_irreducible(f, 2)
    tower = extension_of(f, mu.coeffs)
    assert tower.order == 25
    assert tower.gen ** 24 == tower.one


def _first_irreducible_by_trial_division(p, m):
    """Oracle: the first monic degree-m polynomial over F_p, in the order of
    the code sum c_i p^i of its lower coefficients, that no monic polynomial
    of degree 1..m//2 divides; plain int-list long division."""

    def rem(a, b):
        a = list(a)
        for k in range(len(a) - len(b), -1, -1):
            c = a[k + len(b) - 1]
            for j, y in enumerate(b):
                a[k + j] = (a[k + j] - c * y) % p
        return a[: len(b) - 1]

    divisors = [
        [code // p**i % p for i in range(d)] + [1]
        for d in range(1, m // 2 + 1)
        for code in range(p**d)
    ]
    for code in range(p**m):
        f = [code // p**i % p for i in range(m)] + [1]
        if all(any(rem(f, g)) for g in divisors):
            return f
    raise AssertionError("no irreducible found")


def test_default_modulus_is_find_irreducible():
    from d4vinberg.polys import find_irreducible

    cases = [(5, m) for m in range(2, 13)] + [(7, m) for m in range(2, 7)] + [(23, 2)]
    for p, m in cases:
        assert GF(p, m).modulus == find_irreducible(GF(p), m).coeffs
    for p, m in ((5, 2), (5, 3), (5, 4), (5, 5), (5, 6), (7, 2), (7, 3), (7, 4), (23, 2)):
        assert [c.val for c in GF(p, m).modulus] == _first_irreducible_by_trial_division(p, m)


def test_default_extension_builds_fast():
    # The default modulus search once squared untrimmed remainders, so each
    # squaring doubled the list: GF(5, 8) took seconds and GF(5, 12) minutes.
    from d4vinberg.fields import _default_extension

    for p, m in ((5, 12), (7, 10)):
        start = time.perf_counter()
        field = _default_extension.__wrapped__(p, m)  # a fresh build, not the memo
        assert time.perf_counter() - start < 1.0
        assert field.order == p**m and field.gen ** (field.order - 1) == field.one


def test_untrusted_extension_of_degree_12():
    from d4vinberg.polys import Poly, find_irreducible

    f = GF(5)
    mu = find_irreducible(f, 12)
    start = time.perf_counter()
    ext = extension_of(f, mu.coeffs)
    assert time.perf_counter() - start < 1.0
    assert ext.order == 5**12
    reducible = find_irreducible(f, 5) * find_irreducible(f, 7)
    assert reducible.degree == 12
    with pytest.raises(ValueError):
        extension_of(f, reducible.coeffs)
    with pytest.raises(ValueError):
        extension_of(f, (Poly.x(f) ** 12 - 1).coeffs)


# x^48 + x^3 + 2x + 3, the first irreducible of degree 48 over F_5 in the
# order of find_irreducible (found once; is_irreducible re-checks it below)
DEG48_MODULUS = [3, 2, 0, 1] + [0] * 44 + [1]


def test_find_irreducible_of_degree_48_is_pinned():
    from d4vinberg.polys import find_irreducible

    assert list(find_irreducible(GF(5), 48).vals) == DEG48_MODULUS


def _schoolbook_mul(field, a, b):
    """Reference ExtField product: the double loop over base-field values,
    then elimination of the top coefficients by the monic modulus."""
    bf = field.base
    n = field.deg
    prod = [bf.zero.val] * (2 * n - 1)
    for i, x in enumerate(a.val):
        for j, y in enumerate(b.val):
            prod[i + j] = bf._add(prod[i + j], bf._mul(x, y))
    modv = [c.val for c in field.modulus]
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        for j in range(n + 1):
            prod[k - n + j] = bf._sub(prod[k - n + j], bf._mul(c, modv[j]))
    return FElem(field, tuple(prod[:n]))


def _arith_fields():
    from d4vinberg.polys import Poly, find_irreducible, is_irreducible

    f5 = GF(5)
    assert is_irreducible(Poly(f5, DEG48_MODULUS))
    base = GF(5, 2)
    tower = extension_of(base, find_irreducible(base, 2).coeffs)
    return [
        (GF(5, 2), 60),
        (GF(5, 3), 60),
        (GF(5, 12), 30),
        (extension_of(f5, DEG48_MODULUS, trusted=True), 6),
        (GF(23, 2), 60),
        (tower, 30),
    ]


def test_ext_mul_and_inverse_match_schoolbook():
    for field, n in _arith_fields():
        rng = det_rng(field.degree, "ext-schoolbook")
        special = [field.zero, field.one, -field.one, field.gen, field.elem(3)]
        elems = special + [field.random(rng) for _ in range(n)]
        for a, b, c in zip(elems, elems[1:] + elems[:1], elems[2:] + elems[:2]):
            assert a * b == _schoolbook_mul(field, a, b)
            assert a * (b + c) == a * b + a * c
            if a:
                inv = a.inverse()
                assert a * inv == field.one
                assert _schoolbook_mul(field, a, inv) == field.one
