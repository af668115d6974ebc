"""Verification suites: one callable per acceptance criterion.

Every suite returns {"criterion", "passed", "seconds", "details"}; hard
mathematical failures raise AssertionError inside the suite.  Any exception
a suite raises is reported as passed = False with details {"failure":
message, "type": exception class name}, so one failing suite never discards
the others' results.  The CLI and the acceptance tests both run these, so
reports and pytest agree by construction.  The structure suite checks the
grading on numpy commutators, apart from the bracket table of ``liealg``.
"""

import functools
import time

import numpy as np

from . import curves, densities, hnweights, orbits
from .fields import GF
from .funcfield import RatFunc, support
from .invariants import CALIBRATION_U, Invariants
from .liealg import (
    D4Context,
    G_ROOTS,
    G_SIMPLE,
    LABELS,
    LABEL_SIGNS,
    POS_CHAR,
    RHO_CHECK,
    ROOT_ENTRIES,
    S_SIGNS,
    TorusGen,
    UnipGen,
    V_ROOTS,
    VElem,
    W0_PERMS,
    WEIGHT_EVEC,
    WeylGen,
    fundamental_group_divisors,
    fundamental_group_order,
    leq,
    pairing,
    w0_label_perm,
)
from .polys import Poly
from .quartic import quartic_disc
from .rng import det_rng

W0_NAMES = tuple(W0_PERMS)


def _suite(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                details = fn(*args, **kwargs)
                passed = True
            except Exception as exc:
                details = {"failure": str(exc), "type": type(exc).__name__}
                passed = False
            return {
                "criterion": name,
                "passed": passed,
                "seconds": round(time.perf_counter() - start, 3),
                "details": details,
            }

        run.criterion = name
        return run

    return wrap


def _int_bases(p):
    """The bases of g (the Cartan elements, then the root vectors of G) and
    of V (its weight vectors) as int64 8x8 matrices mod p."""
    mats = {root: np.zeros((8, 8), dtype=np.int64) for root in ROOT_ENTRIES}
    for root, ((i, j), (k, l)) in ROOT_ENTRIES.items():
        mats[root][i, j], mats[root][k, l] = 1, -1
    g = [np.diag([c[k] for c in POS_CHAR]) for k in range(4)] + [mats[r] for r in G_ROOTS]
    return np.array(g) % p, np.array([mats[r] for r in V_ROOTS]) % p


@_suite("structure")
def structure_suite(p=23):
    """Dims (28, 12, 16), weight table, Hasse covers, grading closure."""
    GF(p)  # ValueError unless p is a prime >= 5
    g_mats, v_mats = _int_bases(p)
    assert len(ROOT_ENTRIES) + 4 == 28 and len(g_mats) == 12 and len(v_mats) == 16
    # the weight table: labels carry exactly the sixteen sign patterns
    assert sorted(LABEL_SIGNS.values()) == sorted(
        tuple(s) for s in {tuple(x) for x in LABEL_SIGNS.values()}
    )
    assert len(set(LABEL_SIGNS.values())) == 16
    assert LABEL_SIGNS[1] == (1, 1, 1, 1)
    # Hasse covers: cover_sets[l] is the set of labels that l covers
    cover_sets = {
        l: frozenset(
            m
            for m in LABELS
            if leq(m, l) and m != l and not any(
                leq(m, k) and leq(k, l) and k not in (m, l) for k in LABELS
            )
        )
        for l in LABELS
    }
    # label 1 covers exactly {2,3,4,5}; hnweights.covers(m) is the set of
    # labels that cover m
    assert cover_sets[1] == frozenset({2, 3, 4, 5})
    for m in LABELS:
        assert hnweights.covers(m) == frozenset(l for l in LABELS if m in cover_sets[l])
    for l, cov in cover_sets.items():
        for m in cov:
            diff = sum(
                1 for a, b in zip(LABEL_SIGNS[l], LABEL_SIGNS[m]) if a != b
            )
            assert diff == 1, "cover is not a single sign flip"
    # roots of G: 8 roots + rank 4 = dim 12
    assert len(G_ROOTS) == 8
    # grading closure on all basis pairs, vectorized mod p
    theta_mask = np.outer(S_SIGNS, S_SIGNS)

    def theta_np(mats):
        return (mats * theta_mask) % p

    def comms(a, b):
        prod1 = np.einsum("aij,bjk->abik", a, b)
        prod2 = np.einsum("bij,ajk->abik", b, a)
        return (prod1 - prod2) % p

    gg = comms(g_mats, g_mats).reshape(-1, 8, 8)
    gv = comms(g_mats, v_mats).reshape(-1, 8, 8)
    vv = comms(v_mats, v_mats).reshape(-1, 8, 8)
    assert np.array_equal(theta_np(gg) % p, gg % p), "[g,g] not in g"
    assert np.array_equal(theta_np(gv) % p, (-gv) % p), "[g,V] not in V"
    assert np.array_equal(theta_np(vv) % p, vv % p), "[V,V] not in g"
    # W0 preserves the partial order
    for name in W0_NAMES:
        perm = w0_label_perm(name)
        for a in LABELS:
            for b in LABELS:
                assert leq(a, b) == leq(perm[a], perm[b])
    # sum of n_i coordinates over the hypercube vanishes
    total = [0, 0, 0, 0]
    for s in LABEL_SIGNS.values():
        total = [t + x for t, x in zip(total, s)]
    assert total == [0, 0, 0, 0]
    return {
        "dims": (28, 12, 16),
        "g_roots": len(G_ROOTS),
        "covers_of_top": sorted(cover_sets[1]),
    }


def _random_gen(ctx, rng):
    f = ctx.field
    k = int(rng.integers(0, 3))
    if k == 0:
        return TorusGen([f.random_nonzero(rng) for _ in range(4)])
    if k == 1:
        return UnipGen(G_ROOTS[int(rng.integers(0, 8))], f.random(rng))
    return WeylGen(W0_NAMES[int(rng.integers(0, 4))])


@_suite("invariant-theory")
def invariant_suite(p=23, trials=1000, seed=0):
    """G-invariance, homogeneity, slice relation, Kostant round trips."""
    ctx = D4Context(GF(p))
    inv = Invariants(ctx)
    f = ctx.field
    rng = det_rng(seed, "invariant-suite")
    for _ in range(trials):
        v = VElem(ctx, [f.random(rng) for _ in range(16)])
        word = [_random_gen(ctx, rng) for _ in range(int(rng.integers(1, 4)))]
        assert inv.pi(ctx.act(word, v)) == inv.pi(v), "invariance failed"
    # torus eigenbasis action: act(t, e_a) = a(t) e_a
    for _ in range(100):
        t = TorusGen([f.random_nonzero(rng) for _ in range(4)])
        for l, e_l in zip(LABELS, ctx.v_basis):
            img = ctx.act(t, e_l)
            assert img == e_l.scale(t.eval_char(f, WEIGHT_EVEC[l]))
    # homogeneity (2, 4, 4, 6)
    for _ in range(50):
        v = VElem(ctx, [f.random(rng) for _ in range(16)])
        lam = f.random_nonzero(rng)
        b = inv.pi(v)
        assert inv.pi(v.scale(lam)) == (
            lam**2 * b[0],
            lam**4 * b[1],
            lam**4 * b[2],
            lam**6 * b[3],
        )
    # pi o kappa = id and scaling covariance
    for _ in range(100):
        b = tuple(f.random(rng) for _ in range(4))
        assert inv.pi(inv.kostant_section(b)) == b
    for _ in range(100):
        b = tuple(f.random(rng) for _ in range(4))
        lam = f.random_nonzero(rng)
        lb = (lam**2 * b[0], lam**4 * b[1], lam**4 * b[2], lam**6 * b[3])
        lhs = inv.kostant_section(lb)
        rhs = ctx.act(inv.rho_torus(lam.inverse()), inv.kostant_section(b).scale(lam))
        assert lhs == rhs, "Kostant scaling covariance failed"
    # slice relation as an exact polynomial identity (verified at build; and
    # the chart round trip on random points)
    for _ in range(100):
        cs = [f.random(rng) for _ in range(5)]
        v = inv.slice_param(cs)
        x, y, b = inv.slice_coords(v)
        assert y * (x * y + 2 * b[2]) == x**3 + b[0] * x * x + b[1] * x + b[3]
        assert inv.slice_lift(b, x, y) == v
        assert inv.pi(v) == b
    # F uniqueness and centralizer dims were asserted during the build
    assert ctx.centralizer_dim(inv.e, "h") == 6
    return {
        "trials": trials,
        "u": list(CALIBRATION_U),
        "kostant_roundtrips": 100,
    }


@_suite("disc-compare")
def disc_compare_suite(p=23, n=100, seed=0):
    """Lie discriminant proportional to disc(f) with one constant ratio."""
    ctx = D4Context(GF(p))
    inv = Invariants(ctx)
    ratio = inv.lie_disc_compare(n=n, seed=seed)
    # a nilpotent-direction spot check: both sides vanish together
    rng = det_rng(seed, "disc-zero")
    zeros = 0
    while zeros < 10:
        v = VElem(ctx, [ctx.field.random(rng) for _ in range(16)])
        b = inv.pi(v)
        if quartic_disc(b):
            continue
        assert not inv.lie_disc_fast(v)
        zeros += 1
    return {"ratio": ratio.val, "points": n}


@_suite("orbit-reduction")
def orbit_suite(p=23, planted=100, pattern_trials=1000, seed=0):
    """Planted reductions recover w; parabolic patterns force Delta = 0."""
    ctx = D4Context(GF(p))
    inv = Invariants(ctx)
    f = ctx.field
    rng = det_rng(seed, "orbit-suite")
    recovered = 0
    for _ in range(planted):
        while True:
            b = tuple(f.random(rng) for _ in range(4))
            if quartic_disc(b):
                break
        w_name = W0_NAMES[int(rng.integers(0, 4))]
        target = ctx.act(WeylGen(w_name), inv.kostant_section(b))
        t = TorusGen([f.random_nonzero(rng) for _ in range(4)])
        unips = [
            UnipGen(tuple(-x for x in a), f.random(rng)) for a in G_SIMPLE
        ]
        v = ctx.act(unips + [t], target)
        res = orbits.reduce_trivial(inv, v)
        assert res.certified and res.w_name == w_name
        recovered += 1
    # parabolic patterns force Delta = 0
    for _ in range(pattern_trials):
        s = orbits.PARABOLIC_SETS[int(rng.integers(0, len(orbits.PARABOLIC_SETS)))]
        coords = [
            f.zero if l in s else f.random(rng) for l in LABELS
        ]
        v = VElem(ctx, coords)
        assert not quartic_disc(inv.pi(v)), "parabolic pattern with Delta != 0"
        got = orbits.pattern_classify(v)
        assert got.kind == "parabolic_zero"
    # W0-equivariance of the classifier
    for _ in range(100):
        s = orbits.PARABOLIC_SETS[int(rng.integers(0, len(orbits.PARABOLIC_SETS)))]
        coords = [f.zero if l in s else f.random(rng) for l in LABELS]
        v = VElem(ctx, coords)
        name = W0_NAMES[int(rng.integers(0, 4))]
        perm = w0_label_perm(name)
        moved = ctx.act(WeylGen(name), v)
        assert moved.zero_set() >= frozenset(perm[l] for l in v.zero_set())
    return {"planted": recovered, "pattern_trials": pattern_trials}


@_suite("stabilizer-two-torsion")
def stabilizer_suite(p=23, n=100, seed=0, max_q=101):
    """#Z_G(kappa_b)(F_q) = #J_b[2](F_q), the curve side two independent
    ways: the doubling table and the 2-division polynomial."""
    field = GF(p)
    ctx = D4Context(field)
    inv = Invariants(ctx)
    rng = det_rng(seed, "stabilizer-suite")
    hist = {}
    done = 0
    while done < n:
        b = tuple(field.random(rng) for _ in range(4))
        if not quartic_disc(b):
            continue
        group_side = curves.stabilizer_two_torsion(inv, b)
        count, tt_doubling = curves.curve_group(field, b, max_q=max_q)
        a_coef, b_coef = curves.to_weierstrass(field, b)
        tt_division = curves.weierstrass_two_torsion(field, a_coef, b_coef)
        assert curves.weierstrass_count(field, a_coef, b_coef) == count
        assert tt_doubling == tt_division == group_side, (
            b,
            group_side,
            tt_doubling,
            tt_division,
        )
        hist[group_side] = hist.get(group_side, 0) + 1
        done += 1
    return {"matched": n, "two_torsion_histogram": hist}


@_suite("cusp-table")
def cusp_suite(q=23, truncation=40):
    """C0 = the 11 table rows, both conditions, tail bounds decreasing."""
    rows = hnweights.verify_cusp_table()
    assert len(rows) == 11 and all(r.conditions_ok for r in rows)
    stable = hnweights.parabolic_stable_sets()
    assert [tuple(sorted(m)) for m in stable] == [(1, 2)]
    decreasing = {}
    for row in rows:
        vals = [
            hnweights.boundary_tail_bound(row.m_set, d, truncation, q).to_float()
            for d in (1, 2, 3)
        ]
        assert vals[0] > vals[1] > vals[2] > 0
        decreasing[row.m_set] = vals
    return {
        "rows": [r.as_record() for r in rows],
        "parabolic_stable": [(1, 2)],
        "tail_bounds_d123": {str(k): v for k, v in decreasing.items()},
    }


@_suite("geography")
def geography_suite(p=23, seed=0):
    """Trivial-class slopes: positivity, negative lowest slope, reported
    constant, and a matrix-level check of the pairing table."""
    out = {}
    for w_name in W0_NAMES:
        for d in (1, 2, 3):
            sigma, hn, pos, lowest, rep = hnweights.trivial_inv_slopes(
                w_name, d, char=p
            )
            assert pos, "slope vector not in Lambda_B^pos"
            assert lowest < 0
            assert rep["filtration_hypothesis_ok"]
            out[f"{w_name},d={d}"] = {
                "lowest": str(lowest),
                "reference_constant": str(rep["reference_constant"]),
                "matches_reference_constant": rep["matches_reference_constant"],
                "hn": [(str(s), m) for s, m in hn],
            }
    # matrix-level check of <rho, a>: act by rho(c) on each weight vector
    ctx = D4Context(GF(p))
    f = ctx.field
    c = None
    for cand in f:
        if cand and all(cand**k != f.one for k in range(1, p - 1)):
            c = cand
            break
    t = ctx.torus_from_cochar(RHO_CHECK, c)
    for l, e_l in zip(LABELS, ctx.v_basis):
        img = ctx.act(t, e_l)
        scalar = img[l] * e_l[l].inverse()
        dlog = next(k for k in range(-(p - 1), p) if c**k == scalar)
        assert dlog % (p - 1) == pairing(RHO_CHECK, WEIGHT_EVEC[l]) % (p - 1)
    return out


@_suite("clifford")
def clifford_suite(trials=1000, seed=0):
    """Exact h0 for random split bundles; all case inequalities hold."""
    rng = det_rng(seed, "clifford-suite")
    checked = 0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        degs = [int(rng.integers(-6, 7)) for _ in range(n)]
        twist = int(rng.integers(-3, 7))
        h0, ok = hnweights.clifford_h0(degs, twist)
        assert h0 == sum(max(0, e + twist + 1) for e in degs)
        assert ok, (degs, twist)
        checked += 1
    # slope-zero instances exercise the refinement cases
    for _ in range(trials // 2):
        n = int(rng.integers(2, 6))
        degs = [int(rng.integers(-5, 6)) for _ in range(n - 1)]
        degs.append(-sum(degs))
        twist = int(rng.integers(1, 7))
        h0, ok = hnweights.clifford_h0(degs, twist)
        assert ok, (degs, twist)
        checked += 1
    return {"bundles": checked}


@_suite("densities")
def densities_suite(q=5, beta_n=10**6, delta_d=3, delta_n=10**5, seed=0, slow=False):
    """alpha oracle equality, volume identities, beta MC, delta_B MC."""
    details = {}
    assert densities.alpha_v(5) == densities.alpha_bruteforce(5)
    details["alpha5"] = str(densities.alpha_v(5))
    if slow:
        assert densities.alpha_v(7) == densities.alpha_bruteforce(7)
        assert densities.so4_count_bruteforce(7) == densities.so4_count_formula(7)
    assert densities.so4_count_bruteforce(5) == densities.so4_count_formula(5)
    # degree-2 place uniformity spot check
    assert densities.alpha_v(25) == densities.alpha_closed_form(25)
    for qq in (5, 7, 23):
        rep = densities.beta_v(qq)
        assert rep.identity_residual == 0
        assert 0 < rep.vol_g < 1
    details["vol_identity"] = "residual 0 at q in {5, 7, 23}"
    rep = densities.beta_v(q, mc=(beta_n, seed))
    details["beta_mc"] = rep.mc_estimate
    # truncated product vs Monte Carlo in_XD fraction
    vals = densities.delta_b_truncations(q, 6)[1:]
    trunc = vals[-1]
    tail = densities.delta_b_tail_bound(q, 6)
    field = GF(q)
    frac, stderr, hits = densities.delta_b_montecarlo(field, delta_d, delta_n, seed)
    gap = abs(frac - float(trunc))
    allowance = 4 * stderr + float(tail)
    assert gap <= allowance, f"delta_B MC gap {gap} > {allowance}"
    # monotone decreasing truncations
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    details["delta_b"] = {
        "truncated_deg6": float(trunc),
        "tail_bound": float(tail),
        "mc": frac,
        "mc_stderr": stderr,
        "gap": gap,
    }
    return details


@_suite("minimal-models")
def minimal_model_suite(q=5, samples_per_d=500, seed=0, torsion_checks=10):
    """X_D samples: every bad fibre is I1 with ord Delta = 1; infinity
    bookkeeping consistent; minimality idempotent and substitution-stable."""
    field = GF(q)
    details = {"bad_places": 0, "samples": 0}
    for d in (1, 2):
        got = curves.sample_xd(field, d, samples_per_d, seed=seed + d)
        for member in curves.xd_membership(field, got, d):
            assert member.in_xd
            assert 24 * d - member.delta.degree == member.ord_inf
            assert member.ord_inf <= 1
            details["bad_places"] += member.bad_places
        details["samples"] += len(got)
    # minimality: idempotent, and invariant under the weighted substitution
    t = Poly.x(field)
    rng = det_rng(seed, "minimal-models")

    def random_ratfunc():
        num = Poly(field, [field.random(rng) for _ in range(3)])
        while True:
            den = Poly(field, [field.random(rng) for _ in range(2)])
            if not den.is_zero():
                return RatFunc(num, den)

    for _ in range(20):
        while True:
            b = tuple(random_ratfunc() for _ in range(4))
            if not curves.delta_vanishes(b):
                break
        md = curves.minimal_data(field, b)
        md2 = curves.minimal_data(field, md.b_min)
        assert not any(not pl.is_infinite for pl in md2.n), "finite places survive"
        assert md2.b_min == md.b_min, "minimal data not idempotent"
        lam = RatFunc(t)  # substitution by a uniformizer-like unit
        b_l = tuple(r * lam**w for r, w in zip(b, curves.WEIGHTS))
        md_l = curves.minimal_data(field, b_l)
        assert md_l.b_min == md.b_min, "substitution changed the minimal model"
    # E(K)[2] trivial on X_D spot checks
    spot = curves.sample_xd(field, 1, torsion_checks, seed=seed + 77)
    for b in spot:
        assert curves.two_torsion_field_rank(field, b) == 0
    details["torsion_spot_checks"] = torsion_checks
    return details


@_suite("fundamental-group")
def pi1_suite():
    divisors = fundamental_group_divisors()
    assert sorted(d for d in divisors if d != 1) == [2, 2, 2]
    order = fundamental_group_order()
    assert order == 8
    return {"elementary_divisors": divisors, "order": order}


@_suite("core-arithmetic")
def core_suite(p=23, m=2, seed=0, triples=1000):
    """Field axioms, the weighted scaling of the discriminant and the
    product formula over F_q(t)."""
    rng = det_rng(seed, "core-suite")
    for field in (GF(p), GF(p, m), GF(5)):
        for _ in range(triples // 3):
            a, b, c = (field.random(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if a:
                assert a * a.inverse() == field.one
    field = GF(5)
    # weighted scaling law of the discriminant
    for _ in range(100):
        b = tuple(field.random(rng) for _ in range(4))
        lam = field.random_nonzero(rng)
        lb = (lam * b[0], lam**2 * b[1], lam**2 * b[2], lam**3 * b[3])
        assert quartic_disc(lb) == lam**12 * quartic_disc(b)
    # product formula over F_q(t), infinity included
    checked = 0
    while checked < 100:
        num = Poly(field, [field.random(rng) for _ in range(4)])
        den = Poly(field, [field.random(rng) for _ in range(3)])
        if num.is_zero() or den.is_zero():
            continue
        r = RatFunc(num, den)
        if r.is_zero():
            continue
        total = sum(o * pl.degree for pl, o in support(r))
        assert total == 0, "product formula failed"
        checked += 1
    return {"fields": [str(GF(p)), str(GF(p, m)), "F_5"], "product_formula": checked}


ALL_SUITES = {
    "structure": structure_suite,
    "core-arithmetic": core_suite,
    "invariant-theory": invariant_suite,
    "disc-compare": disc_compare_suite,
    "orbit-reduction": orbit_suite,
    "stabilizer-two-torsion": stabilizer_suite,
    "cusp-table": cusp_suite,
    "geography": geography_suite,
    "clifford": clifford_suite,
    "densities": densities_suite,
    "minimal-models": minimal_model_suite,
    "fundamental-group": pi1_suite,
}
