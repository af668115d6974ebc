"""Differential tests of the univariate polynomial layer in polys.

The layer runs on one of two primitive pairs, picked by the field's class:
the int pair of PrimeField and the generic pair of fields.Field, which
works through the raw element arithmetic and serves every other field.
Here the two run on the same prime fields F_5 and F_7 at degrees up to 72
(the degree of Delta at d = 3) and must agree on mul, divmod, gcd, factor,
is_squarefree and is_irreducible; over GF(25) the factors multiply back to
the monic input and pass the irreducibility test.

The il_factor / squarefree_int_list tests against polys.factor /
polys.is_squarefree predate the layer, when numkernels kept its own
int-list copy of the pipeline.  Both sides now run one code path, so they
only check the int-list entry points (trimming, tuple output, the False
for zero); they are kept unchanged."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from d4vinberg import numkernels, polys
from d4vinberg.fields import GF, Field, PrimeField
from d4vinberg.polys import Poly

SETTINGS = settings(max_examples=25, deadline=None)
MAX_DEGREE = 72


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@st.composite
def dense(draw, p, max_degree=MAX_DEGREE):
    degree = draw(st.integers(0, max_degree))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return coeffs + [draw(st.integers(1, p - 1))]


@st.composite
def with_repeated_factors(draw, p):
    """A product of small factors with multiplicities up to p + 1, so that
    square factors and p-th powers (zero derivative) both occur."""
    out = [draw(st.integers(1, p - 1))]
    for _ in range(draw(st.integers(1, 6))):
        factor = draw(dense(p).filter(lambda c: 1 <= len(c) - 1 <= 6))
        for _ in range(draw(st.integers(1, p + 1))):
            if len(out) - 1 + len(factor) - 1 > MAX_DEGREE:
                break
            out = _poly_mul(out, factor, p)
    return out


@st.composite
def intlist_polys(draw):
    p = draw(st.sampled_from([5, 7]))
    return p, draw(st.one_of(dense(p), with_repeated_factors(p)))


@SETTINGS
@given(intlist_polys())
def test_il_factor_matches_poly_factor(case):
    p, coeffs = case
    boxed = polys.factor(Poly(GF(p), coeffs))
    expected = Counter((tuple(c.val for c in g.coeffs), m) for g, m in boxed)
    assert Counter(numkernels.il_factor(coeffs, p)) == expected


@SETTINGS
@given(intlist_polys())
def test_squarefree_int_list_matches_is_squarefree(case):
    p, coeffs = case
    assert numkernels.squarefree_int_list(coeffs, p) == polys.is_squarefree(Poly(GF(p), coeffs))


class GenericPrimeField(PrimeField):
    """F_p on the generic primitives: the int ones' independent oracle."""

    poly_add = Field.poly_add
    poly_sub = Field.poly_sub
    poly_mul = Field.poly_mul
    poly_divmod = Field.poly_divmod


def _fields(p):
    return GF(p), GenericPrimeField(p)


@SETTINGS
@given(intlist_polys(), st.data())
def test_int_and_generic_pairs_agree_on_mul_and_divmod(case, data):
    p, a = case
    b = data.draw(dense(p))
    fast, generic = _fields(p)
    product = fast.poly_mul(a, b)
    assert product == generic.poly_mul(a, b) == _poly_mul(a, b, p)
    assert fast.poly_divmod(a, b) == generic.poly_divmod(a, b)
    q, r = fast.poly_divmod(product, b)
    assert (q, r) == (a, [])


@SETTINGS
@given(intlist_polys(), st.data())
def test_int_and_generic_add_and_sub_agree(case, data):
    """Also where the top coefficients cancel, down to the zero polynomial:
    b agrees with -a (with a, for the difference) above a drawn degree."""
    p, a = case
    fast = GF(p)
    k = data.draw(st.integers(0, len(a)))
    low = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    neg, same = low + [-c % p for c in a[k:]], low + a[k:]
    for b in (data.draw(dense(p)), neg):
        for x, y in ((a, b), (b, a)):
            assert fast.poly_add(x, y) == Field.poly_add(fast, x, y)
            assert fast.poly_sub(x, y) == Field.poly_sub(fast, x, y)
    assert fast.poly_sub(a, same) == Field.poly_sub(fast, a, same)
    assert fast.poly_add(a, [-c % p for c in a]) == [] == fast.poly_sub(a, a)


@SETTINGS
@given(intlist_polys(), st.data())
def test_int_and_generic_layers_agree(case, data):
    p, a = case
    b = data.draw(st.one_of(dense(p), with_repeated_factors(p)))
    c = data.draw(dense(p, 6))
    results = []
    for field in _fields(p):
        f = Poly(field, a)
        results.append((
            polys.gcd(Poly(field, _poly_mul(a, c, p)), Poly(field, _poly_mul(b, c, p))).vals,
            [(h.vals, m) for h, m in polys.factor(f)],
            polys.is_squarefree(f),
        ))
    assert results[0] == results[1]


@SETTINGS
@given(st.sampled_from([5, 7]).flatmap(lambda p: st.tuples(st.just(p), dense(p, 24))))
def test_int_and_generic_irreducibility_agree(case):
    """On a polynomial and on each of its irreducible factors."""
    p, coeffs = case
    fast, generic = _fields(p)
    factors = polys.factor(Poly(fast, coeffs))
    for cs in [coeffs] + [list(g.vals) for g, _ in factors]:
        verdict = polys.is_irreducible(Poly(fast, cs))
        assert verdict == polys.is_irreducible(Poly(generic, cs))
        if cs is not coeffs:
            assert verdict
    single = len(factors) == 1 and factors[0][1] == 1
    assert polys.is_irreducible(Poly(fast, coeffs)) == (single and len(coeffs) > 1)


@SETTINGS
@given(st.lists(st.integers(0, 24), min_size=2, max_size=17))
def test_factor_over_gf25_multiplies_back(codes):
    field = GF(5, 2)
    f = Poly(field, [field.from_int(c) for c in codes])
    if f.is_zero():
        return
    product = Poly.const(field, field.one)
    for g, mult in polys.factor(f):
        assert g.lead() == field.one and g.degree >= 1
        assert polys.is_irreducible(g)
        product = product * g**mult
    assert product == f.monic()
