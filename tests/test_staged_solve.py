"""linalg.staged_solve against one linalg.solve of the whole system, and its
two failure modes: an inconsistent stage and a stage that is not affine."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from d4vinberg import linalg
from d4vinberg.fields import GF

FIELDS = st.sampled_from([GF(5), GF(23), GF(23, 2)])


@st.composite
def block_triangular_system(draw):
    """(field, a, b, stages): a x = b is block lower triangular with
    invertible diagonal blocks; stage s owns the rows and columns of block s."""
    field = draw(FIELDS)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    elem = st.integers(0, field.order - 1).map(field.from_int)
    stages, start = [], 0
    for k in sizes:
        block = tuple(range(start, start + k))
        stages.append((block, block))
        start += k
    a = [[field.zero] * n for _ in range(n)]
    for unknowns, eqs in stages:
        for i in eqs:
            for j in range(unknowns[-1] + 1):
                a[i][j] = draw(elem)
        assume(linalg.rank(field, [[a[i][j] for j in unknowns] for i in eqs]) == len(eqs))
    b = [draw(elem) for _ in range(n)]
    return field, a, b, stages


@settings(max_examples=80, deadline=None)
@given(block_triangular_system())
def test_staged_solve_matches_one_solve(case):
    field, a, b, stages = case

    def residual(x, eqs):
        return [sum((a[i][j] * x[j] for j in range(len(x))), field.zero) - b[i] for i in eqs]

    x = linalg.staged_solve(field, residual, len(b), stages)
    assert x == linalg.solve(field, a, b)


def test_stage_that_is_not_affine_trips_the_final_check():
    f = GF(23)

    def residual(x, eqs):
        return [x[0] * x[0] - 4 for _ in eqs]

    with pytest.raises(AssertionError, match="not affine"):
        linalg.staged_solve(f, residual, 1, [((0,), (0,))])


def test_inconsistent_stage_raises():
    f = GF(23)

    def residual(x, eqs):  # x0 = 1 and x0 = 2
        return [x[0] - 1 - i for i in eqs]

    with pytest.raises(AssertionError, match="inconsistent"):
        linalg.staged_solve(f, residual, 1, [((0,), (0, 1))])
