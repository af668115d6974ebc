"""Differential tests of the int-list polynomial kernels in numkernels
against the boxed Poly pipeline in polys: il_factor against polys.factor
and squarefree_int_list against polys.is_squarefree, over F_5 and F_7 at
degrees up to 72 (the degree of Delta at d = 3)."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from d4vinberg import numkernels, polys
from d4vinberg.fields import GF
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
def dense(draw, p):
    degree = draw(st.integers(0, MAX_DEGREE))
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
