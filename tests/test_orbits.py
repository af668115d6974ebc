import pytest

from d4vinberg.fields import GF
from d4vinberg.invariants import Invariants
from d4vinberg.liealg import (
    D4Context,
    G_SIMPLE,
    LABELS,
    TorusGen,
    UnipGen,
    VElem,
    WeylGen,
)
from d4vinberg.orbits import (
    ALL_CUSP_SETS,
    PARABOLIC_SETS,
    WEIERSTRASS_SETS,
    ReductionResult,
    lambda_max,
    pattern_classify,
    reduce_trivial,
)
from d4vinberg.quartic import quartic_disc
from d4vinberg.rng import det_rng

W0_NAMES = ("e", "s12.34", "s13.24", "s14.23")


def setup_module(module):
    module.ctx = D4Context(GF(23))
    module.inv = Invariants(module.ctx)
    module.F = module.ctx.field


def test_pattern_set_dictionary():
    # computed translation of the vanishing criteria into label sets
    parabolic = sorted(tuple(sorted(s)) for s in PARABOLIC_SETS)
    assert parabolic == [
        (1, 2, 3, 4, 5),
        (1, 2, 3, 6),
        (1, 2, 4, 7),
        (1, 2, 5, 8),
        (1, 3, 4, 9),
        (1, 3, 5, 10),
        (1, 4, 5, 11),
    ]
    weier = sorted(tuple(sorted(s)) for s in WEIERSTRASS_SETS)
    assert weier == [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5)]
    # the union is the printed eleven-set collection (grouping differs)
    assert len(set(ALL_CUSP_SETS)) == 11
    # the W0-dictionary: e maps the Kostant pattern to itself
    assert WEIERSTRASS_SETS[frozenset({1, 3, 4, 5})] == "e"


def test_lambda_of_kostant_pattern_is_simple_roots():
    assert lambda_max(frozenset({1, 3, 4, 5})) == frozenset({2, 9, 10, 11})


def test_kostant_section_pattern():
    rng = det_rng(0, "orbit-kappa")
    while True:
        b = tuple(F.random(rng) for _ in range(4))
        if quartic_disc(b):
            break
    got = pattern_classify(inv.kostant_section(b))
    assert got.kind == "weierstrass_S"
    assert got.subset == frozenset({1, 3, 4, 5})


def test_generic_element_has_no_pattern():
    rng = det_rng(1, "orbit-generic")
    v = VElem(ctx, [F.random_nonzero(rng) for _ in range(16)])
    assert pattern_classify(v).kind == "none"


def test_parabolic_patterns_force_delta_zero():
    rng = det_rng(2, "orbit-parabolic")
    for _ in range(300):
        s = PARABOLIC_SETS[int(rng.integers(0, 7))]
        v = VElem(ctx, [F.zero if l in s else F.random(rng) for l in LABELS])
        assert not quartic_disc(inv.pi(v))
        assert pattern_classify(v).kind == "parabolic_zero"


def test_reduce_trivial_identity_on_kappa():
    rng = det_rng(3, "orbit-id")
    while True:
        b = tuple(F.random(rng) for _ in range(4))
        if quartic_disc(b):
            break
    res = reduce_trivial(inv, inv.kostant_section(b))
    assert res.certified and res.w_name == "e"


def test_reduce_trivial_torus_round_trip():
    rng = det_rng(4, "orbit-torus")
    for _ in range(20):
        while True:
            b = tuple(F.random(rng) for _ in range(4))
            if quartic_disc(b):
                break
        t = TorusGen([F.random_nonzero(rng) for _ in range(4)])
        v = ctx.act(t, inv.kostant_section(b))
        res = reduce_trivial(inv, v)
        assert res.certified and res.w_name == "e"


def test_reduce_trivial_planted_full():
    rng = det_rng(5, "orbit-planted")
    for _ in range(30):
        while True:
            b = tuple(F.random(rng) for _ in range(4))
            if quartic_disc(b):
                break
        w_name = W0_NAMES[int(rng.integers(0, 4))]
        target = ctx.act(WeylGen(w_name), inv.kostant_section(b))
        t = TorusGen([F.random_nonzero(rng) for _ in range(4)])
        unips = [UnipGen(tuple(-x for x in a), F.random(rng)) for a in G_SIMPLE]
        v = ctx.act(unips + [t], target)
        res = reduce_trivial(inv, v)
        assert res.certified
        assert res.w_name == w_name
        assert res.kostant_point == inv.kostant_section(inv.pi(v))


def test_reduce_trivial_rejects_bad_input():
    rng = det_rng(6, "orbit-reject")
    v = VElem(ctx, [F.random_nonzero(rng) for _ in range(16)])
    with pytest.raises(ValueError):
        reduce_trivial(inv, v)


def test_pattern_classifier_w0_equivariance():
    from d4vinberg.liealg import w0_label_perm

    rng = det_rng(9, "orbit-equivariance")
    for _ in range(50):
        s = PARABOLIC_SETS[int(rng.integers(0, 7))]
        v = VElem(ctx, [F.zero if l in s else F.random(rng) for l in LABELS])
        name = W0_NAMES[int(rng.integers(0, 4))]
        perm = w0_label_perm(name)
        moved = pattern_classify(ctx.act(WeylGen(name), v))
        assert moved.kind == "parabolic_zero"
        # the moved zero set contains the translated parabolic set
        assert frozenset(perm[l] for l in s) in PARABOLIC_SETS
    # Weierstrass side: kappa pattern translates along W0
    while True:
        b = tuple(F.random(rng) for _ in range(4))
        if quartic_disc(b):
            break
    kb = inv.kostant_section(b)
    for name in W0_NAMES:
        perm = w0_label_perm(name)
        got = pattern_classify(ctx.act(WeylGen(name), kb))
        assert got.kind == "weierstrass_S"
        assert got.subset == frozenset(perm[l] for l in {1, 3, 4, 5})
