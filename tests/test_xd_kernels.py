"""Differential tests of the X_D kernels of numkernels.

``berlekamp_nullity`` counts the irreducible factors of a squarefree
polynomial; its oracle is the length of ``polys.factor``.
``xd_box_filter`` tests a batch of tuples of H^0(X, B_D) at once; its
oracle is the boxed one-row ``curves.in_xd_fast``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from d4vinberg import numkernels, polys
from d4vinberg.curves import WEIGHTS, in_xd_fast
from d4vinberg.fields import GF
from d4vinberg.polys import Poly
from d4vinberg.rng import det_rng


@st.composite
def squarefree_polys(draw):
    p = draw(st.sampled_from([5, 7, 23]))
    degree = draw(st.integers(0, 48))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    coeffs.append(draw(st.integers(1, p - 1)))
    assume(polys.is_squarefree_raw(GF(p), coeffs))
    return p, coeffs


@settings(max_examples=60, deadline=None)
@given(squarefree_polys())
def test_berlekamp_nullity_counts_irreducible_factors(case):
    p, coeffs = case
    factors = polys.factor(Poly(GF(p), coeffs))
    assert numkernels.berlekamp_nullity(coeffs, p) == len(factors)


def test_berlekamp_nullity_edges():
    # n distinct roots: Q = I, nullity n; trailing zero columns are ignored
    p = 7
    coeffs = [1]
    for r in range(5):
        coeffs = GF(p).poly_mul(coeffs, [-r % p, 1])
    assert numkernels.berlekamp_nullity(coeffs + [0, 0], p) == 5
    assert numkernels.berlekamp_nullity([3], p) == 0
    assert numkernels.berlekamp_nullity([4, 2], p) == 1
    with pytest.raises(ValueError):
        numkernels.berlekamp_nullity(coeffs, 3)
    # 199 (p - 1)^2 >= 2^63 near MAX_P: refused before any product
    with pytest.raises(ValueError, match="int64"):
        numkernels.berlekamp_nullity([1] * 200, numkernels.MAX_P - 1)


@pytest.mark.parametrize("p, n", [(261383387, 134), (251343949, 146)])
def test_berlekamp_nullity_at_the_edge_of_its_int64_bound(p, n):
    # n is the largest degree that n (p - 1)^2 + p < 2^63 admits at p, and
    # at these p a bound of (p - 2)^2 would admit n + 1 (the first p), and
    # one of (p + 1)^2 would refuse n (the second)
    assert n * (p - 1) ** 2 + p < 2**63 <= (n + 1) * (p - 1) ** 2 + p
    coeffs = [1]
    for r in range(1, n + 1):
        coeffs = GF(p).poly_mul(coeffs, [p - r, 1])
    assert numkernels.berlekamp_nullity(coeffs, p) == n
    with pytest.raises(ValueError, match="int64"):
        numkernels.berlekamp_nullity(GF(p).poly_mul(coeffs, [p - n - 1, 1]), p)


@pytest.mark.parametrize("p, d", [(5, 0), (5, 1), (7, 1), (5, 2)])
def test_box_filter_matches_in_xd_fast(p, d):
    field = GF(p)
    rng = det_rng(21, f"box-filter-{p}", d)
    arrays = [rng.integers(0, p, size=(200, 2 * d * w + 1), dtype=np.int64) for w in WEIGHTS]
    # plant rows with a zero p6 block, a zero tuple and a low-degree Delta
    arrays[3][:20] = 0
    for a in arrays:
        a[20] = 0
        a[21:40, a.shape[1] // 2 :] = 0
    delta, mask = numkernels.xd_box_filter(p, arrays)
    assert delta.shape == (200, 24 * d + 1)
    for i in range(200):
        b = tuple(Poly(field, a[i].tolist()) for a in arrays)
        assert bool(mask[i]) == in_xd_fast(field, b, d)
    assert 0 < mask.sum() < 200
