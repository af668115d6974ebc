import pytest

from d4vinberg import linalg
from d4vinberg.fields import GF
from d4vinberg.liealg import (
    D4Context,
    G_SIMPLE,
    H_SIMPLE,
    LABELS,
    LABEL_SIGNS,
    RHO_CHECK,
    TorusGen,
    UnipGen,
    VElem,
    WeylGen,
    alpha_coords,
    fundamental_group_divisors,
    fundamental_group_order,
    leq,
    pairing,
    w0_label_perm,
    weight_evec,
)
from d4vinberg.rng import det_rng

W0_NAMES = ("e", "s12.34", "s13.24", "s14.23")


def setup_module(module):
    module.ctx = D4Context(GF(23))
    module.F = module.ctx.field


def test_dimensions():
    assert len(ctx.h_basis) == 28
    assert len(ctx.g_basis) == 12
    assert len(ctx.v_roots) == 16
    assert len(ctx.g_roots) == 8


def test_weight_table_matches_roots():
    assert set(weight_evec(LABEL_SIGNS[l]) for l in LABELS) == set(ctx.v_roots)
    assert LABEL_SIGNS[1] == (1, 1, 1, 1)
    # alpha0 = product of the top weight: e0 + e1
    assert weight_evec(LABEL_SIGNS[1]) == (1, 1, 0, 0)


def test_membership_constraint():
    rng = det_rng(0, "lie-membership")
    v = VElem(ctx, [F.random(rng) for _ in range(16)])
    m = v.to_matrix()
    ctx.assert_in_h(m)
    # theta acts as -1 on V
    assert ctx.theta(m) == [[-x for x in row] for row in m]


def test_bracket_grading():
    rng = det_rng(1, "lie-grading")
    for _ in range(20):
        a = VElem(ctx, [F.random(rng) for _ in range(16)]).to_matrix()
        b = VElem(ctx, [F.random(rng) for _ in range(16)]).to_matrix()
        br = linalg.bracket(a, b)
        assert ctx.theta(br) == br  # [V, V] in g
        g = ctx.g_basis[int(rng.integers(0, 12))]
        br2 = linalg.bracket(g, a)
        assert ctx.theta(br2) == [[-x for x in row] for row in br2]  # [g, V] in V


def test_torus_diagonal_action():
    rng = det_rng(2, "lie-torus")
    for _ in range(100):
        t = TorusGen([F.random_nonzero(rng) for _ in range(4)])
        for l in LABELS:
            e_l = VElem(ctx, [F.one if m == l else F.zero for m in LABELS])
            assert ctx.act(t, e_l) == e_l.scale(t.eval_char(F, ctx.weight_evec[l]))


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
        m = v.to_matrix()
        conj = [[diag[i] * m[i][j] * diag[j].inverse() for j in range(8)] for i in range(8)]
        assert ctx.act(t, v) == ctx.velem_from_matrix(conj)


def test_unipotent_squares_to_zero_and_acts():
    rng = det_rng(4, "lie-unip")
    for root in ctx.g_roots:
        u = UnipGen(root, F.random(rng))
        m = ctx.unip_matrix(u)
        v = VElem(ctx, [F.random(rng) for _ in range(16)])
        w = ctx.act(u, v)
        assert isinstance(w, VElem)
    # non-G roots do not preserve V
    bad = next(r for r in ctx.v_roots)
    with pytest.raises(ValueError):
        ctx.act(UnipGen(bad, F.one), VElem(ctx, [F.one] * 16))


def test_weyl_group_action_permutes_weights():
    for name in W0_NAMES:
        perm = w0_label_perm(name)
        g = WeylGen(name)
        for l in LABELS:
            e_l = VElem(ctx, [F.one if m == l else F.zero for m in LABELS])
            img = ctx.act(g, e_l)
            nz = [m for m in LABELS if img[m]]
            assert nz == [perm[l]]
            assert img[perm[l]] in (F.one, -F.one)  # signs recorded, not asserted


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
    mp = ctx.minimal_polynomial(ctx.E)
    assert all(not mp[i] for i in range(mp.degree))


def test_rho_pairings():
    # <rho, alpha_i> = 1 on the simple roots; <rho, a_i> = (4, 2, 2, 2)
    for alpha in H_SIMPLE:
        assert pairing(RHO_CHECK, alpha) == 1
    assert [pairing(RHO_CHECK, a) for a in G_SIMPLE] == [4, 2, 2, 2]
    # the highest V-weight pairs to 5 (not 2): the geography constant
    assert pairing(RHO_CHECK, weight_evec(LABEL_SIGNS[1])) == 5


def test_alpha_coords_integral():
    for l in LABELS:
        m = alpha_coords(weight_evec(LABEL_SIGNS[l]))
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
    one = linalg.identity(F, 8)
    assert len(ctx.h_roots) == 24
    for root in ctx.h_roots:
        c = F.random(rng)
        u = ctx.unip_matrix(UnipGen(root, c))
        u_neg = ctx.unip_matrix(UnipGen(root, -c))
        assert linalg.mat_mul(u, u_neg) == one
        assert linalg.mat_mul(u_neg, u) == one


def test_context_checks_that_root_vectors_square_to_zero(monkeypatch):
    import d4vinberg.liealg as liealg

    zero = linalg.zeros(F, 8, 8)
    for root in ctx.h_roots:
        x = ctx.root_matrix[root]
        assert linalg.mat_mul(x, x) == zero
    # a partner entry at the transpose makes X^2 = -(E_ii + E_jj) != 0
    root = ctx.h_roots[0]
    (i, j), _ = liealg.ROOT_ENTRIES[root]
    monkeypatch.setitem(liealg.ROOT_ENTRIES, root, ((i, j), (j, i)))
    with pytest.raises(ValueError, match="square to zero"):
        D4Context(GF(23))


def test_torus_g_root_value_square_identity():
    # with lambda_i = chi(a_i), a weight a = (1/2) sum eps_i a_i scales by a
    # square root of prod lambda_i^eps_i: assert the squared identity
    rng = det_rng(6, "lie-groot")
    for _ in range(50):
        t = TorusGen([F.random_nonzero(rng) for _ in range(4)])
        lams = [t.eval_char(F, a) for a in G_SIMPLE]
        for l in LABELS:
            scale = t.eval_char(F, ctx.weight_evec[l])
            prod = F.one
            for lam, e in zip(lams, LABEL_SIGNS[l]):
                prod = prod * (lam if e > 0 else lam.inverse())
            assert scale * scale == prod


def test_torus_from_g_root_values():
    from d4vinberg.liealg import torus_from_g_root_values

    rng = det_rng(7, "lie-groot2")
    built = 0
    while built < 20:
        lams = [F.random_nonzero(rng) for _ in range(4)]
        t = torus_from_g_root_values(F, lams)
        if t is None:
            continue  # requires a square root to exist
        for lam, a in zip(lams, G_SIMPLE):
            assert t.eval_char(F, a) == lam
        built += 1
