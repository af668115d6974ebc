import functools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from d4vinberg import linalg, numkernels
from d4vinberg.fields import GF
from d4vinberg.invariants import (
    Invariants,
    _chart_functions,
    _chart_primitives,
    _slice_relation,
)
from d4vinberg.liealg import (
    BLOCK_GATHER,
    D4Context,
    EVEN,
    G_ROOTS,
    IOTA,
    LABELS,
    LAMBDA_CHECK,
    ODD,
    POS_CHAR,
    VElem,
    TorusGen,
    RHO_CHECK,
    UnipGen,
    WEIGHT_EVEC,
    WeylGen,
    pairing,
    primitives,
    v_blocks,
)
from d4vinberg.linalg import mat_mul
from d4vinberg.multipoly import MPoly
from d4vinberg.polys import Poly
from d4vinberg.quartic import quartic_disc
from d4vinberg.rng import det_rng
from oracles import (
    det,
    det_leibniz,
    even_charpoly,
    even_coeffs,
    identity,
    pfaffian,
    search_chart_functions,
    to_matrix,
    v_coords_to_matrix,
    weighted_degrees,
)


def setup_module(module):
    module.ctx = D4Context(GF(23))
    module.inv = Invariants(module.ctx)
    module.F = module.ctx.field


def test_gate_below_23():
    with pytest.raises(ValueError):
        Invariants(D4Context(GF(19)))


def test_primitive_consistency_pf_squared():
    rng = det_rng(0, "inv-prim")
    for _ in range(50):
        v = VElem(ctx, [F.random(rng) for _ in range(16)])
        m = to_matrix(v)
        c2, c4, pf, c6 = primitives(ctx, v)
        c8 = det(F, m)
        assert pf * pf == c8
        # odd power traces vanish on so(Psi)
        m3 = mat_mul(mat_mul(m, m), m)
        tr = F.zero
        for i in range(8):
            tr = tr + m3[i][i]
        assert not tr


def test_even_charpoly_matches_berkowitz():
    rng = det_rng(1, "inv-charpoly")
    for _ in range(10):
        v = VElem(ctx, [F.random(rng) for _ in range(16)])
        m = to_matrix(v)
        c2, c4, c6, c8 = even_charpoly(F, m)
        full = linalg.charpoly_berkowitz(F, m)
        assert [x.val for x in full] == [
            c8.val, 0, c6.val, 0, c4.val, 0, c2.val, 0, 1
        ]


@functools.cache
def _invariants(p, m=1):
    return inv if (p, m) == (23, 1) else Invariants(D4Context(GF(p, m)))


@pytest.mark.parametrize("p", [23, 29])
def test_calibration_is_the_unit_relation(p):
    # the chart functions satisfy y(xy + 2 pf) = x^3 + c2 x^2 + c4 x + c6,
    # and no rescaling (alpha xi, s alpha eta) other than (1, +1) does, so
    # no normalization is left to choose
    p_inv = _invariants(p)
    data = json.loads(p_inv.calibration_json())
    assert data["p"] == p
    assert data["u"] == [1, 1, 1, 0, 0, 1, 0, 0, 0]
    assert len(data["Z"]) == 4 and len(data["W"]) == 5
    f = p_inv.ctx.field
    c_syms = _chart_primitives(p_inv.ctx, p_inv.e, p_inv.W)
    assert _slice_relation(c_syms, p_inv.xi, p_inv.eta).is_zero()
    for alpha in (f.one, f.elem(2), f.elem(p - 1)):
        for s in (f.one, -f.one):
            if (alpha, s) == (f.one, f.one):
                continue
            xi = tuple(alpha * c for c in p_inv.xi)
            eta = tuple(s * alpha * c for c in p_inv.eta)
            assert not _slice_relation(c_syms, xi, eta).is_zero()


@pytest.mark.parametrize("m", [1, 2], ids=["F23", "GF23^2"])
def test_slice_primitives_are_weight_graded(m):
    # the linear solve of _chart_functions rests on this grading: on
    # e + sum t_i W_i, with t of weights (2, 2, 2, 4, 4), c2, c4, pf, c6 are
    # homogeneous of weights 2, 4, 4, 6
    p_inv = _invariants(23, m)
    c_syms = _chart_primitives(p_inv.ctx, p_inv.e, p_inv.W)
    grading = [weighted_degrees(c, (2, 2, 2, 4, 4)) for c in c_syms]
    assert grading == [{2}, {4}, {4}, {6}]


@pytest.mark.parametrize("p", [23, 29, 31, 37])
def test_chart_functions_match_search_oracle(p):
    p_inv = _invariants(p)
    c_syms = _chart_primitives(p_inv.ctx, p_inv.e, p_inv.W)
    xi, eta = _chart_functions(p_inv.ctx.field, c_syms)
    assert (xi, eta) == (p_inv.xi, p_inv.eta)
    assert (xi, eta) == search_chart_functions(p_inv.ctx, c_syms, seed=0)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_chart_functions_follow_a_graded_change_of_slice_basis(data):
    # x and y are functions on the slice: in the directions
    # W'_k = sum_l A_kl W_l, with A invertible and block diagonal for the
    # weights (2, 2, 2 | 4, 4), their coefficients are A xi and A eta (the
    # canonical chart has equal pf-coefficients of t3 and t4; a generic
    # weight-4 block tells them apart)
    entries = st.integers(0, 22).map(F.elem)

    def block(n):
        rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        assume(linalg.rank(F, rows) == n)
        return rows

    def combine(row, directions):
        return sum((w.scale(c) for c, w in zip(row, directions)), VElem(ctx, [F.zero] * 16))

    a2, a4 = block(3), block(2)
    dirs = [combine(row, inv.W[:3]) for row in a2] + [combine(row, inv.W[3:]) for row in a4]
    xi, eta = _chart_functions(F, _chart_primitives(ctx, inv.e, dirs))
    assert list(xi) == [sum((a * c for a, c in zip(row, inv.xi)), F.zero) for row in a2]
    assert list(eta) == [sum((a * c for a, c in zip(row, inv.eta)), F.zero) for row in a2]


@pytest.mark.parametrize("m", [1, 2], ids=["F23", "GF23^2"])
def test_pi_is_the_primitives(m):
    ext_inv = _invariants(23, m)
    f = ext_inv.ctx.field
    rng = det_rng(18, "inv-pi-primitives")
    for _ in range(10):
        v = VElem(ext_inv.ctx, [f.random(rng) for _ in range(16)])
        assert ext_inv.pi(v) == primitives(ext_inv.ctx, v)


def test_pi_of_nilpotents_is_zero():
    zero4 = (F.zero,) * 4
    assert inv.pi(VElem(ctx, [F.zero] * 16)) == zero4
    assert inv.pi(ctx.E) == zero4
    assert inv.pi(inv.e) == zero4


def test_kostant_round_trip_100():
    rng = det_rng(2, "inv-kostant")
    for _ in range(100):
        b = tuple(F.random(rng) for _ in range(4))
        assert inv.pi(inv.kostant_section(b)) == b
    assert inv.kostant_section((0, 0, 0, 0)) == ctx.E


def test_kostant_scaling_covariance():
    rng = det_rng(3, "inv-scaling")
    for _ in range(100):
        b = tuple(F.random(rng) for _ in range(4))
        lam = F.random_nonzero(rng)
        lb = (lam**2 * b[0], lam**4 * b[1], lam**4 * b[2], lam**6 * b[3])
        rho_inv = inv.rho_torus(lam.inverse())
        assert inv.kostant_section(lb) == ctx.act(
            rho_inv, inv.kostant_section(b).scale(lam)
        )


def test_kostant_classification():
    rng = det_rng(4, "inv-classify")
    while True:
        b = tuple(F.random(rng) for _ in range(4))
        if quartic_disc(b):
            break
    kb = inv.kostant_section(b)
    assert ctx.classify(kb) == {"regular": True, "semisimple": True, "rs": True}
    assert ctx.centralizer_dim(kb, "g") == 0
    assert ctx.centralizer_dim(kb, "h") == 4


def test_slice_relation_and_charts():
    rng = det_rng(5, "inv-slice")
    for _ in range(100):
        cs = [F.random(rng) for _ in range(5)]
        v = inv.slice_param(cs)
        x, y, b = inv.slice_coords(v)
        assert y * (x * y + 2 * b[2]) == x**3 + b[0] * x * x + b[1] * x + b[3]
        assert inv.slice_lift(b, x, y) == v
    assert inv.slice_coords(inv.e) == (F.zero, F.zero, (F.zero,) * 4)


def test_slice_lift_rejects_off_curve():
    # (0, 0) is not on y(xy + 2 q4) = x^3 + ... + p6 when p6 != 0
    with pytest.raises(ValueError):
        inv.slice_lift((F.zero, F.zero, F.zero, F.one), F.zero, F.zero)
    # nor is a point of the slice with its y moved off the cubic
    rng = det_rng(12, "inv-slice-off-curve")
    rejected = 0
    for _ in range(30):
        x, y, b = inv.slice_coords(inv.slice_param([F.random(rng) for _ in range(5)]))
        y_off = y + F.random_nonzero(rng)
        if y_off * (x * y_off + 2 * b[2]) == x**3 + b[0] * x * x + b[1] * x + b[3]:
            continue  # the other root of the quadratic in y
        with pytest.raises(ValueError, match="cubic relation"):
            inv.slice_lift(b, x, y_off)
        rejected += 1
    assert rejected >= 20


def test_slice_membership_enforced():
    rng = det_rng(6, "inv-slice-bad")
    v = VElem(ctx, [F.random(rng) for _ in range(16)])
    if v - inv.e not in [None]:  # generic v is off the slice
        with pytest.raises(ValueError):
            inv.slice_coords(v)


def test_slice_weight_two_scaling():
    # the contraction scales (x, y) by t^2
    rng = det_rng(7, "inv-slice-weight")
    cs = [F.random(rng) for _ in range(5)]
    lam = F.elem(3)
    scaled = [lam**2 * cs[0], lam**2 * cs[1], lam**2 * cs[2], lam**4 * cs[3], lam**4 * cs[4]]
    x1, y1, _ = inv.slice_coords(inv.slice_param(cs))
    x2, y2, _ = inv.slice_coords(inv.slice_param(scaled))
    assert (x2, y2) == (lam**2 * x1, lam**2 * y1)


def test_homogeneity():
    rng = det_rng(8, "inv-homog")
    for _ in range(50):
        v = VElem(ctx, [F.random(rng) for _ in range(16)])
        lam = F.random_nonzero(rng)
        b = inv.pi(v)
        assert inv.pi(v.scale(lam)) == (
            lam**2 * b[0], lam**4 * b[1], lam**4 * b[2], lam**6 * b[3]
        )


def test_subregular_weights():
    # z_V(f) has graded dimensions (3, 2) at contraction weights (2, 4)
    weights = [  # ad-lambda weight of each W basis vector
        next(
            pairing((2, 1, 0, 1), WEIGHT_EVEC[l])
            for l in range(1, 17)
            if w[l]
        )
        for w in inv.W
    ]
    assert weights == [-1, -1, -1, -3, -3]


def test_lie_disc_constant_ratio():
    ratio = inv.lie_disc_compare(n=30, seed=9)
    assert ratio == F.one  # gamma = 1 for the canonical calibration


def test_lie_disc_vanishes_with_delta():
    rng = det_rng(10, "inv-disc0")
    found = 0
    while found < 5:
        v = VElem(ctx, [F.random(rng) for _ in range(16)])
        if quartic_disc(inv.pi(v)):
            continue
        assert not inv.lie_disc_fast(v)
        found += 1


def test_extension_field_context():
    ext_inv = _invariants(23, 2)
    f = ext_inv.ctx.field
    rng = det_rng(11, "inv-ext")
    for _ in range(10):
        b = tuple(f.random(rng) for _ in range(4))
        assert ext_inv.pi(ext_inv.kostant_section(b)) == b


def test_extension_calibration_is_the_prime_field_one_lifted():
    # the solves run in GF(23^2) itself; their inputs have prime-field
    # entries, so they must land on the F_23 calibration, coordinate by
    # coordinate
    ext_inv = _invariants(23, 2)
    ext = ext_inv.ctx.field

    def lift(v):
        return VElem(ext_inv.ctx, [ext.elem(v[l]) for l in LABELS])

    assert ext_inv.F == lift(inv.F) and ext_inv.f == lift(inv.f)
    assert ext_inv.Z == [lift(z) for z in inv.Z]
    assert ext_inv.W == [lift(w) for w in inv.W]
    assert ext_inv.xi == tuple(ext.elem(c) for c in inv.xi)
    assert ext_inv.eta == tuple(ext.elem(c) for c in inv.eta)


def _refuse_8x8(monkeypatch):
    """Make linalg's mat_mul and zeros raise on a matrix with 8 rows or
    columns, and check that they do."""
    mat_mul, zeros = linalg.mat_mul, linalg.zeros
    one = identity(F, 8)

    def no_matrix():
        raise AssertionError("8x8 matrix built")

    def small_mat_mul(a, b):
        if 8 in (len(a), len(b), len(b[0])):
            no_matrix()
        return mat_mul(a, b)

    def small_zeros(field, n, m):
        if 8 in (n, m):
            no_matrix()
        return zeros(field, n, m)

    monkeypatch.setattr(linalg, "mat_mul", small_mat_mul)
    monkeypatch.setattr(linalg, "zeros", small_zeros)
    with pytest.raises(AssertionError, match="8x8"):
        linalg.mat_mul(one, one)
    with pytest.raises(AssertionError, match="8x8"):
        linalg.zeros(F, 8, 8)


def test_action_and_pi_build_no_8x8_matrix(monkeypatch):
    # and classify, whose semisimplicity test runs on the 4x4 blocks
    rng = det_rng(13, "inv-no-matrix")
    v = VElem(ctx, [F.random(rng) for _ in range(16)])
    t = TorusGen([F.random_nonzero(rng) for _ in range(4)])
    word = [WeylGen("s13.24"), UnipGen(G_ROOTS[2], F.random(rng)), t, WeylGen("s12.34")]
    zero = VElem(ctx, [F.zero] * 16)
    targets = (zero, ctx.E, ctx.e_subreg, v)
    expected = ctx.act(word, v), inv.pi(v), [ctx.classify(w) for w in targets]
    _refuse_8x8(monkeypatch)
    assert (ctx.act(word, v), inv.pi(v), [ctx.classify(w) for w in targets]) == expected
    assert inv.pi(inv.kostant_section(expected[1])) == expected[1]


@pytest.mark.parametrize("m", [1, 2])
def test_lowering_elements_complete_sl2_triples(m):
    # [X, Y] = h by 8x8 commutators: h = 2 d(cochar)(1) is the diagonal
    # matrix of 2 <cochar, e-character of each position>
    p_inv = _invariants(23, m)
    f = p_inv.ctx.field
    for up, down, cochar in ((p_inv.E, p_inv.F, RHO_CHECK), (p_inv.e, p_inv.f, LAMBDA_CHECK)):
        x, y = to_matrix(up), to_matrix(down)
        bracket = [[a - b for a, b in zip(r, s)] for r, s in zip(mat_mul(x, y), mat_mul(y, x))]
        h = [[f.elem(2 * pairing(cochar, POS_CHAR[i])) if i == j else f.zero for j in range(8)]
             for i in range(8)]
        assert bracket == h


def test_sl2_data_centralizers_and_lie_disc_build_no_8x8_matrix(monkeypatch):
    rng = det_rng(14, "inv-no-matrix-h")
    while True:
        v = VElem(ctx, [F.random(rng) for _ in range(16)])
        if inv.lie_disc_fast(v):
            break
    _refuse_8x8(monkeypatch)
    fresh = D4Context(GF(23))
    built = Invariants(fresh)
    assert built.calibration_json() == inv.calibration_json()
    assert built.lie_disc(v) == built.lie_disc_fast(v)
    assert [fresh.centralizer_dim(e, a) for e in (fresh.E, fresh.e_subreg) for a in "gh"] == [0, 4, 1, 6]


# -- the one primitive pipeline across representations: boxed FElem,
# symbolic MPoly (the calibration charts) and numpy dual numbers --


@pytest.fixture(scope="module")
def charts():
    """(base, directions, symbolic primitives) of the slice and Kostant charts."""
    return {
        "slice": (inv.e, inv.W, _chart_primitives(ctx, inv.e, inv.W)),
        "kostant": (inv.E, inv.Z, _chart_primitives(ctx, inv.E, inv.Z)),
    }


@pytest.mark.parametrize("chart", ["slice", "kostant"])
@settings(max_examples=25, deadline=None)
@given(xs=st.lists(st.integers(0, 22), min_size=5, max_size=5))
def test_chart_primitives_match_boxed(charts, chart, xs):
    base, dirs, syms = charts[chart]
    xs = [F.elem(x) for x in xs[: len(dirs)]]
    v = base
    for x, d in zip(xs, dirs):
        v = v + d.scale(x)
    assert [F.elem(s.eval(xs)) for s in syms] == list(primitives(ctx, v))


def _dual_batch(seed, size):
    coords = np.random.default_rng(seed).integers(0, 23, size=(size, 16, 2), dtype=np.int64)
    return coords, numkernels.dual_primitives(coords, 23)


def _velem(values):
    return VElem(ctx, [int(c) for c in values])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dual_primitives_value_part_matches_boxed(seed):
    coords, duals = _dual_batch(seed, 16)
    for i, row in enumerate(coords):
        boxed = primitives(ctx, _velem(row[:, 0]))
        assert [int(d[0][i]) for d in duals] == [b.val for b in boxed]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dual_primitives_eps_part_is_directional_derivative(seed):
    # over k[eps], f(x + eps y) = f(x) + eps * (d/dt) f(x + t y) at t = 0
    coords, duals = _dual_batch(seed, 4)
    for i, row in enumerate(coords):
        syms = _chart_primitives(ctx, _velem(row[:, 0]), [_velem(row[:, 1])])
        linear = [F.elem(s.terms.get((1,), 0)).val for s in syms]
        assert [int(d[1][i]) for d in duals] == linear


def test_primitives_over_extension_field():
    ext = D4Context(GF(23, 2))
    f = ext.field
    rng = det_rng(12, "inv-ext-prims")
    for _ in range(5):
        v = VElem(ext, [f.random(rng) for _ in range(16)])
        c2, c4, pf, c6 = primitives(ext, v)
        full = linalg.charpoly_berkowitz(f, to_matrix(v))
        assert full == [pf * pf, 0, c6, 0, c4, 0, c2, 0, 1]


# -- the block primitives against the 8x8 oracle: on (EVEN, ODD) an element
# of V is [[0, X], [Y, 0]], and (c2, c4, pf, c6) come from X and Y alone --

BLOCK_FIELDS = pytest.mark.parametrize(
    "q", [(5, 1), (7, 1), (23, 1), (23, 2)], ids=["F5", "F7", "F23", "GF23^2"]
)


@functools.cache
def _context(p, m=1):
    return D4Context(GF(p, m))


def _oracle(m, char):
    """(c2, c4, pf, c6) of an 8x8 matrix of V by the full matrix: its even
    characteristic coefficients and the Pfaffian of its rows in IOTA order."""
    c2, c4, c6 = even_coeffs(m, char)
    return c2, c4, pfaffian([m[i] for i in IOTA]), c6


def _off_block_entries(m):
    return [m[i][j] for i in range(8) for j in range(8) if (i in EVEN) == (j in EVEN)]


def _chart_matrix(base, dirs, nvars):
    """The 8x8 MPoly matrix of base + sum_i x_i dirs[i], entry by entry
    from the matrices of base and dirs: the oracle of the chart coordinates."""
    mats = [to_matrix(base)] + [to_matrix(d) for d in dirs]
    exps = [(0,) * nvars] + [tuple(int(k == i) for k in range(nvars)) for i in range(len(dirs))]
    return [
        [MPoly(nvars, {e: m[i][j] for e, m in zip(exps, mats) if m[i][j]}) for j in range(8)]
        for i in range(8)
    ]


def test_v_is_zero_on_the_diagonal_blocks(charts):
    # the weight basis spans V, so this covers every VElem matrix; X and Y
    # sliced from its 8x8 matrix are what BLOCK_GATHER gathers
    for k in range(16):
        coords = [F.one if i == k else F.zero for i in range(16)]
        m = v_coords_to_matrix(F, coords)
        assert not any(_off_block_entries(m))
        sliced = [[m[i][j] for j in ODD] for i in EVEN], [[m[i][j] for j in EVEN] for i in ODD]
        assert v_blocks(coords) == sliced
        for block, gather in zip(sliced, BLOCK_GATHER):
            entries = [e for row in block for e in row]
            assert entries == [F.elem(s) if t == k else F.zero for t, s in gather]
    for base, dirs, _ in charts.values():
        mat = _chart_matrix(base, dirs, len(dirs))
        assert all(e.is_zero() for e in _off_block_entries(mat))


@BLOCK_FIELDS
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_block_primitives_match_8x8_oracle(q, data):
    c = _context(*q)
    f = c.field
    ints = data.draw(st.lists(st.integers(0, f.order - 1), min_size=16, max_size=16))
    v = VElem(c, [f.from_int(i) for i in ints])
    m = to_matrix(v)
    assert primitives(c, v) == _oracle(m, f.char)
    c2, c4, c6, c8 = even_charpoly(f, m)
    assert c.char_quartic(v) == Poly(f, [c8, c6, c4, c2, f.one])


@BLOCK_FIELDS
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_block_primitives_match_8x8_oracle_on_random_charts(q, data):
    c = _context(*q)
    f = c.field
    coords = st.lists(st.integers(0, f.order - 1), min_size=16, max_size=16)
    base, *dirs = (VElem(c, [f.from_int(i) for i in data.draw(coords)]) for _ in range(3))
    got, want = _chart_primitives(c, base, dirs), _oracle(_chart_matrix(base, dirs, 2), f.char)
    assert all(isinstance(g, MPoly) for g in got) and got == want


@pytest.mark.parametrize("chart", ["slice", "kostant"])
def test_chart_block_primitives_match_8x8_oracle(charts, chart):
    base, dirs, syms = charts[chart]
    mat = _chart_matrix(base, dirs, len(dirs))
    assert tuple(syms) == _oracle(mat, 23)


@pytest.mark.parametrize("p", [5, 7, 23])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dual_primitives_value_part_matches_8x8_oracle(p, seed):
    c = _context(p)
    coords = np.random.default_rng(seed).integers(0, p, size=(8, 16, 2), dtype=np.int64)
    duals = numkernels.dual_primitives(coords, p)
    for i, row in enumerate(coords):
        m = to_matrix(VElem(c, [int(x) for x in row[:, 0]]))
        assert [int(d[0][i]) for d in duals] == [x.val for x in _oracle(m, p)]


# -- the 4x4 determinant by complementary 2x2 minors --


@pytest.mark.parametrize("q", [(23, 1), (5, 2)], ids=["GF23", "GF5^2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_det4_matches_leibniz_over_fields(q, data):
    f = GF(*q)
    codes = data.draw(st.lists(st.integers(0, f.order - 1), min_size=16, max_size=16))
    a = [[f.from_int(c) for c in codes[4 * i : 4 * i + 4]] for i in range(4)]
    got = linalg.det4(a)
    assert got.field is f and got == det_leibniz(a)
    # the prime-field int kernel and the generic loop agree
    ints = [[f.to_int(x) for x in row] for row in a]
    assert linalg.det4(ints) == det_leibniz(ints)


def test_det4_of_symbolic_entries_is_the_leibniz_polynomial():
    a = [[MPoly.var(16, 4 * i + j) for j in range(4)] for i in range(4)]
    got = linalg.det4(a)
    assert got == det_leibniz(a) and len(got.terms) == 24
    f = GF(23)
    rng = det_rng(4, "det4-mpoly")
    b = [[MPoly.var(3, k % 3, f.random(rng)) + f.random(rng) for k in range(4 * i, 4 * i + 4)]
         for i in range(4)]
    assert linalg.det4(b) == det_leibniz(b)


# the largest prime below MAX_P drives the int64 bound of _block_det to its edge
@pytest.mark.parametrize("p", [5, 23, 268435399])
def test_numpy_block_det_matches_boxed(p):
    assert p < numkernels.MAX_P
    f = GF(p)
    rng = np.random.default_rng(p)
    x = rng.integers(-p + 1, p, size=(40, 4, 4, 2), dtype=np.int64)
    x[:8] = rng.choice([-p + 1, p - 1], size=(8, 4, 4, 2))
    value = numkernels._block_det(x[..., 0], numkernels._value_lift(p))
    dual = numkernels._block_det((x[..., 0], x[..., 1]), numkernels._dual_lift(p))
    for i, block in enumerate(x):
        boxed = linalg.det4([[f.elem(int(c)) for c in row] for row in block[..., 0]])
        assert int(value[i]) == int(dual[0][i]) == boxed.val
        # the eps part is the t-coefficient of det(x0 + t x1) over F_p[t]
        pencil = det_leibniz([[Poly(f, [int(c) for c in e]) for e in row] for row in block])
        assert int(dual[1][i]) == (*pencil.vals, 0, 0)[1]
