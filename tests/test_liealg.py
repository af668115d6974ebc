import functools

import pytest
from hypothesis import given, settings, strategies as st

from d4vinberg import linalg
from d4vinberg.fields import GF
from d4vinberg.liealg import (
    BRACKETS,
    D4Context,
    G_BASIS,
    G_ROOT_MOVES,
    G_ROOTS,
    G_SIMPLE,
    H_BASIS,
    H_ROOTS,
    H_SIMPLE,
    IOTA,
    LABELS,
    LABEL_SIGNS,
    LAMBDA_CHECK,
    POS_CHAR,
    RHO_CHECK,
    ROOT_ENTRIES,
    S_SIGNS,
    W0_MOVES,
    W0_POSITION_PERMS,
    TorusGen,
    UnipGen,
    V_BASIS,
    V_ENTRIES,
    V_ROOTS,
    VElem,
    WEIGHT_EVEC,
    WeylGen,
    alpha_coords,
    fundamental_group_divisors,
    fundamental_group_order,
    leq,
    pairing,
    w0_label_perm,
)
from d4vinberg.polys import Poly, is_squarefree
from d4vinberg.rng import det_rng
from oracles import identity, minimal_polynomial, square_root, to_matrix

W0_NAMES = ("e", "s12.34", "s13.24", "s14.23")


def setup_module(module):
    module.ctx = D4Context(GF(23))
    module.F = module.ctx.field


def _theta(m):
    """theta(m) = s m s for s = diag(S_SIGNS): the entrywise sign mask."""
    return [[S_SIGNS[i] * S_SIGNS[j] * x for j, x in enumerate(row)] for i, row in enumerate(m)]


def _bracket(a, b):
    ab, ba = linalg.mat_mul(a, b), linalg.mat_mul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


# -- the 8x8 view of h, the oracle of the bracket table --


def _root_matrix(field, root):
    """The root vector of a root of h: +1 at its primary entry, -1 at the partner."""
    m = linalg.zeros(field, 8, 8)
    (pi, pj), (qi, qj) = ROOT_ENTRIES[root]
    m[pi][pj], m[qi][qj] = field.one, -field.one
    return m


def _h_basis(field):
    """The Chevalley basis of h as 8x8 matrices: the Cartan elements h_k =
    diag(POS_CHAR[i][k]), then the root vectors of H_ROOTS."""
    cartan = [
        [[field.elem(POS_CHAR[i][k]) if i == j else field.zero for j in range(8)] for i in range(8)]
        for k in range(4)
    ]
    return cartan + [_root_matrix(field, r) for r in H_ROOTS]


def _g_basis(field):
    h = _h_basis(field)
    return [h[a] for a in G_BASIS]


def _h_coords(m):
    """Coordinates of m in the h basis: the diagonal entries of e_0..e_3, then
    the primary entries of the roots."""
    roots = [m[i][j] for (i, j), _ in (ROOT_ENTRIES[r] for r in H_ROOTS)]
    return [m[0][0], m[1][1], m[4][4], m[5][5]] + roots


def _ad_matrix_8x8(v, basis):
    """ad(v) on span(basis) by 8x8 commutators, in h coordinates (28 rows)."""
    vm = to_matrix(v)
    cols = [_h_coords(_bracket(vm, b)) for b in basis]
    return [[col[i] for col in cols] for i in range(28)]


def _unip_matrix(context, root, c):
    """exp(c X) = I + c X for the root vector X of a root of h."""
    x = _root_matrix(context.field, root)
    one = identity(context.field, 8)
    return [[one[i][j] + c * x[i][j] for j in range(8)] for i in range(8)]


def _weyl_matrix(context, name):
    """The permutation matrix P with P e_j = e_perm[j] of a Klein-group element."""
    f = context.field
    perm = W0_POSITION_PERMS[name]
    return [[f.one if i == perm[j] else f.zero for j in range(8)] for i in range(8)]


def _velem_from_matrix(context, m):
    """The VElem read off the primary entries of m; asserts that m is its matrix."""
    v = VElem(context, [m[i][j] for (i, j), _ in V_ENTRIES])
    assert to_matrix(v) == m, "matrix is not in V"
    return v


def _conjugate(context, g, v, g_inv):
    """g v g_inv by 8x8 products: the oracle of the coordinate action."""
    return _velem_from_matrix(context, linalg.mat_mul(linalg.mat_mul(g, to_matrix(v)), g_inv))


@functools.cache
def _context(p, m=1):
    return D4Context(GF(p, m))


def test_dimensions():
    assert len(H_BASIS) == 28
    assert len(G_BASIS) == 12
    assert len(V_ROOTS) == 16
    assert len(G_ROOTS) == 8


def test_weight_table_matches_roots():
    assert set(WEIGHT_EVEC[l] for l in LABELS) == set(V_ROOTS)
    assert LABEL_SIGNS[1] == (1, 1, 1, 1)
    # alpha0 = product of the top weight: e0 + e1
    assert WEIGHT_EVEC[1] == (1, 1, 0, 0)


def test_membership_constraint():
    rng = det_rng(0, "lie-membership")
    v = VElem(ctx, [F.random(rng) for _ in range(16)])
    m = to_matrix(v)
    # in so(Psi): m^T Psi + Psi m = 0, i.e. m[iota(j)][iota(i)] = -m[i][j]
    assert all(m[IOTA[j]][IOTA[i]] == -m[i][j] for i in range(8) for j in range(8))
    # theta acts as -1 on V
    assert _theta(m) == [[-x for x in row] for row in m]


def test_bracket_grading():
    rng = det_rng(1, "lie-grading")
    g_basis = _g_basis(F)
    for _ in range(20):
        a = to_matrix(VElem(ctx, [F.random(rng) for _ in range(16)]))
        b = to_matrix(VElem(ctx, [F.random(rng) for _ in range(16)]))
        br = _bracket(a, b)
        assert _theta(br) == br  # [V, V] in g
        g = g_basis[int(rng.integers(0, 12))]
        br2 = _bracket(g, a)
        assert _theta(br2) == [[-x for x in row] for row in br2]  # [g, V] in V


def test_torus_diagonal_action():
    rng = det_rng(2, "lie-torus")
    for _ in range(100):
        t = TorusGen([F.random_nonzero(rng) for _ in range(4)])
        for l in LABELS:
            e_l = VElem(ctx, [F.one if m == l else F.zero for m in LABELS])
            assert ctx.act(t, e_l) == e_l.scale(t.eval_char(F, WEIGHT_EVEC[l]))


def test_torus_matrix_consistency():
    # torus points lifted from the diagonal torus: conjugation agrees with
    # the weight-wise action
    rng = det_rng(3, "lie-torus-mat")
    for _ in range(20):
        vals = [F.random_nonzero(rng) for _ in range(4)]  # a, b, c, d
        diag = [vals[0], vals[1], vals[1].inverse(), vals[0].inverse(),
                vals[2], vals[3], vals[3].inverse(), vals[2].inverse()]
        alpha_vals = []
        for alpha in H_SIMPLE:
            x = F.one
            for k, e in zip(vals, alpha):
                x = x * (k**e if e >= 0 else k.inverse() ** (-e))
            alpha_vals.append(x)
        t = TorusGen(alpha_vals)
        v = VElem(ctx, [F.random(rng) for _ in range(16)])
        m = to_matrix(v)
        conj = [[diag[i] * m[i][j] * diag[j].inverse() for j in range(8)] for i in range(8)]
        assert ctx.act(t, v) == _velem_from_matrix(ctx, conj)


def test_unipotent_squares_to_zero_and_acts():
    rng = det_rng(4, "lie-unip")
    for root in G_ROOTS:
        u = UnipGen(root, F.random(rng))
        v = VElem(ctx, [F.random(rng) for _ in range(16)])
        w = ctx.act(u, v)
        assert isinstance(w, VElem)
    # non-G roots do not preserve V
    bad = next(r for r in V_ROOTS)
    with pytest.raises(ValueError):
        ctx.act(UnipGen(bad, F.one), VElem(ctx, [F.one] * 16))


# the labels l with P e_l P^T = -e_perm(l), for the permutation matrices P
# of W0_POSITION_PERMS; every other label keeps its sign
WEYL_NEGATED = {
    "e": set(),
    "s12.34": {7, 8, 9, 10},
    "s13.24": {1, 7, 10, 16},
    "s14.23": {1, 8, 9, 16},
}


def test_weyl_group_action_permutes_weights():
    for name in W0_NAMES:
        perm = w0_label_perm(name)
        g = WeylGen(name)
        p = _weyl_matrix(ctx, name)
        for l in LABELS:
            e_l = VElem(ctx, [F.one if m == l else F.zero for m in LABELS])
            img = ctx.act(g, e_l)
            nz = [m for m in LABELS if img[m]]
            assert nz == [perm[l]]
            assert img[perm[l]] == (-F.one if l in WEYL_NEGATED[name] else F.one)
            assert img == _conjugate(ctx, p, e_l, linalg.transpose(p))


ACT_FIELDS = pytest.mark.parametrize("q", [(23, 1), (23, 2)], ids=["F23", "GF23^2"])


@ACT_FIELDS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_coordinate_action_matches_8x8_conjugation(q, data):
    c = _context(*q)
    f = c.field
    elems = st.integers(0, f.order - 1).map(f.from_int)
    v = VElem(c, data.draw(st.lists(elems, min_size=16, max_size=16)))
    assert len(G_ROOTS) == len(G_ROOT_MOVES) == 8
    for root in G_ROOTS:
        a = data.draw(elems)
        u, u_inv = _unip_matrix(c, root, a), _unip_matrix(c, root, -a)
        assert c.act(UnipGen(root, a), v) == _conjugate(c, u, v, u_inv)
    for name in W0_NAMES:
        p = _weyl_matrix(c, name)
        assert c.act(WeylGen(name), v) == _conjugate(c, p, v, linalg.transpose(p))


def _graded_spaces():
    """The h indices of the cochar-weight spaces of V, for rho-check and lambda-check."""
    spaces = {}
    for cochar in (RHO_CHECK, LAMBDA_CHECK):
        for l in LABELS:
            spaces.setdefault((cochar, pairing(cochar, WEIGHT_EVEC[l])), []).append(V_BASIS[l - 1])
    return list(spaces.values())


@pytest.mark.parametrize("q", [(23, 1), (29, 1), (23, 2)], ids=["F23", "F29", "GF23^2"])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_ad_matrix_matches_8x8_commutators(q, data):
    c = _context(*q)
    f = c.field
    elems = st.integers(0, f.order - 1).map(f.from_int)
    v = VElem(c, data.draw(st.lists(elems, min_size=16, max_size=16)))
    h = _h_basis(f)
    for basis in [H_BASIS, G_BASIS, *_graded_spaces()]:
        got = [[f.elem(x) for x in row] for row in c.ad_matrix(v, basis)]
        assert got == _ad_matrix_8x8(v, [h[a] for a in basis])


def test_move_tables_check_their_input(monkeypatch):
    import d4vinberg.liealg as liealg

    for name in W0_NAMES:
        labels = w0_label_perm(name)
        assert [t + 1 for t, _ in W0_MOVES[name]] == [labels[l] for l in LABELS]
    # e_t is +1 at its primary entry and -1 at its partner, and nothing else
    # is a signed weight vector
    primary, partner = V_ENTRIES[5]
    assert liealg._as_weight_vector({partner: 1, primary: -1}) == (5, -1)
    for m in ({primary: 1}, {primary: 1, partner: 1}, {primary: 2, partner: -2},
              {primary: 1, partner: -1, V_ENTRIES[6][0]: 1}, {(0, 0): 1}, {}):
        with pytest.raises(ValueError, match="not a signed weight vector"):
            liealg._as_weight_vector(m)
    # a G root vector whose partner entry leaves so(Psi): some [e_s, X] is
    # not in h, and for two of them X e_s X != 0 as well
    root = (1, 0, -1, 0)
    primary, partner = liealg.ROOT_ENTRIES[root]
    assert root in G_ROOT_MOVES and (primary, partner) == ((0, 4), (7, 3))
    for bad in ((3, 7), (0, 1), (3, 1)):
        monkeypatch.setitem(liealg.ROOT_ENTRIES, root, (primary, bad))
        with pytest.raises(ValueError, match="not a combination of the basis of h"):
            liealg._brackets()
        if bad != (3, 7):
            with pytest.raises(ValueError, match="X e_s X"):
                liealg._g_root_moves()
    monkeypatch.setitem(liealg.ROOT_ENTRIES, root, (primary, partner))
    assert liealg._g_root_moves() == G_ROOT_MOVES
    # a table entry [e_s, X] that is not a signed weight vector: a Cartan
    # term, a coefficient 2, two terms
    a = 4 + H_ROOTS.index(root)
    s, t, c = G_ROOT_MOVES[root][0]
    for terms in (((0, 1),), ((V_BASIS[t], 2),), ((V_BASIS[t], -c), (V_BASIS[t - 1], 1))):
        table = [list(row) for row in BRACKETS]
        table[s][a] = terms
        monkeypatch.setattr(liealg, "BRACKETS", table)
        with pytest.raises(ValueError, match="not a signed weight vector"):
            liealg._g_root_moves()
    # a position permutation that does not commute with IOTA
    monkeypatch.setitem(liealg.W0_POSITION_PERMS, "e", (1, 0, 2, 3, 4, 5, 6, 7))
    with pytest.raises(ValueError, match="not a signed weight vector"):
        liealg._w0_moves()


def test_w0_is_klein_four_group():
    perms = {name: w0_label_perm(name) for name in W0_NAMES}
    # each non-identity element is an involution without fixed a_i
    for name in W0_NAMES[1:]:
        p = perms[name]
        assert all(p[p[l]] == l for l in LABELS)
    # order preservation
    for name in W0_NAMES:
        p = perms[name]
        for a in LABELS:
            for b in LABELS:
                assert leq(a, b) == leq(p[a], p[b])


def test_centralizer_dims():
    zero = VElem(ctx, [F.zero] * 16)
    assert ctx.centralizer_dim(zero, "g") == 12
    assert ctx.centralizer_dim(ctx.E, "g") == 0
    assert ctx.centralizer_dim(ctx.E, "h") == 4
    assert ctx.centralizer_dim(ctx.e_subreg, "h") == 6


def test_classify():
    zero = VElem(ctx, [F.zero] * 16)
    assert ctx.classify(zero) == {"regular": False, "semisimple": True, "rs": False}
    assert ctx.classify(ctx.E) == {"regular": True, "semisimple": False, "rs": False}
    # minimal polynomial of E is a power of t
    mp = minimal_polynomial(ctx.E)
    assert all(not mp[i] for i in range(mp.degree))


@pytest.mark.parametrize("q", [(7, 1), (11, 1), (5, 2)], ids=["F7", "F11", "GF5^2"])
def test_block_semisimplicity_matches_the_8x8_minimal_polynomial(q):
    # sparse elements (1 to 7 nonzero coordinates), so that semisimple,
    # nilpotent and mixed (neither) elements all occur
    c = _context(*q)
    f = c.field
    rng = det_rng(5, "lie-semisimple", f.order)
    kinds = set()
    for _ in range(100):
        coords = [f.zero] * 16
        for k in rng.choice(16, size=int(rng.integers(1, 8)), replace=False):
            coords[int(k)] = f.random_nonzero(rng)
        v = VElem(c, coords)
        semisimple = is_squarefree(minimal_polynomial(v))
        assert c.classify(v)["semisimple"] == semisimple
        nilpotent = c.char_quartic(v) == Poly(f, [0, 0, 0, 0, 1])
        kinds.add((semisimple, nilpotent))
    assert kinds == {(True, False), (False, True), (False, False)}


def test_rho_pairings():
    # <rho, alpha_i> = 1 on the simple roots; <rho, a_i> = (4, 2, 2, 2)
    for alpha in H_SIMPLE:
        assert pairing(RHO_CHECK, alpha) == 1
    assert [pairing(RHO_CHECK, a) for a in G_SIMPLE] == [4, 2, 2, 2]
    # the highest V-weight pairs to 5 (not 2): the geography constant
    assert pairing(RHO_CHECK, WEIGHT_EVEC[1]) == 5


def test_alpha_coords_integral():
    for l in LABELS:
        m = alpha_coords(WEIGHT_EVEC[l])
        assert all(isinstance(x, int) for x in m)


def test_fundamental_group():
    assert fundamental_group_order() == 8
    assert sorted(d for d in fundamental_group_divisors() if d > 1) == [2, 2, 2]
    # in the order of the Smith form, which the verify-algebra golden pins
    assert fundamental_group_divisors() == [1, 2, 2, 2]


def test_velem_serialization():
    from d4vinberg.fields import extension_of
    from d4vinberg.polys import find_irreducible

    rng = det_rng(5, "lie-ser")
    v = VElem(ctx, [F.random(rng) for _ in range(16)])
    assert VElem.deserialize(ctx, v.serialize()) == v
    # GF(23^2) and the tower GF((23^2)^2), whose literals nest
    base = GF(23, 2)
    tower = extension_of(base, find_irreducible(base, 2).coeffs)
    for f in (base, tower):
        ext_ctx = D4Context(f)
        for _ in range(5):
            v = VElem(ext_ctx, [f.random(rng) for _ in range(16)])
            assert VElem.deserialize(ext_ctx, v.serialize()) == v


def test_unipotent_inverse_is_the_negated_parameter():
    rng = det_rng(9, "lie-unip-inverse")
    one = identity(F, 8)
    assert len(H_ROOTS) == 24
    for root in H_ROOTS:
        c = F.random(rng)
        u = _unip_matrix(ctx, root, c)
        u_neg = _unip_matrix(ctx, root, -c)
        assert linalg.mat_mul(u, u_neg) == one
        assert linalg.mat_mul(u_neg, u) == one
    # on coordinates, the action at -c undoes the action at c
    for root in G_ROOTS:
        c = F.random(rng)
        v = VElem(ctx, [F.random(rng) for _ in range(16)])
        assert ctx.act([UnipGen(root, -c), UnipGen(root, c)], v) == v
        assert ctx.act([UnipGen(root, c), UnipGen(root, -c)], v) == v


def test_bracket_table_checks_that_root_vectors_square_to_zero(monkeypatch):
    import d4vinberg.liealg as liealg

    zero = linalg.zeros(F, 8, 8)
    for root in H_ROOTS:
        x = _root_matrix(F, root)
        assert linalg.mat_mul(x, x) == zero
    # a partner entry at the transpose makes X^2 = -(E_ii + E_jj) != 0
    assert len(H_ROOTS) == 24
    for root in H_ROOTS:
        (i, j), partner = liealg.ROOT_ENTRIES[root]
        monkeypatch.setitem(liealg.ROOT_ENTRIES, root, ((i, j), (j, i)))
        with pytest.raises(ValueError, match="square to zero"):
            liealg._brackets()
        monkeypatch.setitem(liealg.ROOT_ENTRIES, root, ((i, j), partner))
    assert liealg._brackets() == BRACKETS


def test_torus_g_root_value_square_identity():
    # with lambda_i = chi(a_i), a weight a = (1/2) sum eps_i a_i scales by a
    # square root of prod lambda_i^eps_i: assert the squared identity
    rng = det_rng(6, "lie-groot")
    for _ in range(50):
        t = TorusGen([F.random_nonzero(rng) for _ in range(4)])
        lams = [t.eval_char(F, a) for a in G_SIMPLE]
        for l in LABELS:
            scale = t.eval_char(F, WEIGHT_EVEC[l])
            prod = F.one
            for lam, e in zip(lams, LABEL_SIGNS[l]):
                prod = prod * (lam if e > 0 else lam.inverse())
            assert scale * scale == prod


def _torus_from_g_root_values(field, lams):
    """Torus point with chi(a_i) = lams[i], when one exists.

    The a_i span an index-2 sublattice of the root lattice, so the values
    determine chi only up to a sign and exist only when lam2 lam3 lam4 /
    lam1 is a square; returns None otherwise (deterministic square root).
    """
    l1, l2, l3, l4 = lams
    s = square_root(field, l2 * l3 * l4 * l1.inverse())
    if s is None or not s:
        return None
    x2 = s
    x1 = l2 * x2.inverse()
    x4 = l3 * x2.inverse()
    x3 = l4 * x2.inverse()
    return TorusGen([x1, x2, x3, x4])


def test_torus_from_g_root_values():
    rng = det_rng(7, "lie-groot2")
    built = 0
    while built < 20:
        lams = [F.random_nonzero(rng) for _ in range(4)]
        t = _torus_from_g_root_values(F, lams)
        if t is None:
            continue  # requires a square root to exist
        for lam, a in zip(lams, G_SIMPLE):
            assert t.eval_char(F, a) == lam
        built += 1
