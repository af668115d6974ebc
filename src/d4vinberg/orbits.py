"""Vanishing-pattern criteria and the constructive reduction of trivial
elements to the Kostant section.

Two families of label sets govern the classification.  The parabolic family
(seven sets) forces Delta = 0; the Weierstrass family is the W0-orbit of the
Kostant pattern {1,3,4,5}, and an element vanishing on such a set S with all
of lambda(S) nonzero is trivial once Delta != 0.  Both families are computed
from the weight table, and only their union matters for cutting the cusp;
the split between the families is pinned down by the Kostant section
itself, which vanishes exactly on {1,3,4,5}.
"""

from itertools import combinations

from . import linalg
from .liealg import (
    LABEL_SIGNS,
    TorusGen,
    UnipGen,
    VElem,
    WeylGen,
    lambda_max,
    W0_PERMS,
    w0_label_perm,
)
from .quartic import quartic_disc


def _parabolic_sets():
    out = []
    # all-but-at-most-one positive signs: the five-element set
    big = frozenset(
        l for l, s in LABEL_SIGNS.items() if sum(1 for x in s if x < 0) <= 1
    )
    out.append(big)
    # pairs S in {1..4}: vanishing where n_i > 0 for both i in S
    for i, j in combinations(range(4), 2):
        out.append(
            frozenset(
                l
                for l, s in LABEL_SIGNS.items()
                if s[i] > 0 and s[j] > 0
            )
        )
    return tuple(out)


def _weierstrass_sets():
    base = frozenset({1, 3, 4, 5})
    out = {}
    for name in W0_PERMS:
        perm = w0_label_perm(name)
        out[frozenset(perm[l] for l in base)] = name
    assert len(out) == 4
    return out


PARABOLIC_SETS = _parabolic_sets()
WEIERSTRASS_SETS = _weierstrass_sets()  # frozenset -> W0 element mapping it from the Kostant pattern
ALL_CUSP_SETS = tuple(PARABOLIC_SETS) + tuple(WEIERSTRASS_SETS)


class PatternResult:
    __slots__ = ("kind", "subset")

    def __init__(self, kind, subset=None):
        self.kind = kind  # "parabolic_zero" | "weierstrass_S" | "none"
        self.subset = subset

    def __repr__(self):
        return f"PatternResult({self.kind}, {sorted(self.subset) if self.subset else None})"


def pattern_classify(v: VElem) -> PatternResult:
    """Classify the vanishing pattern of v.

    parabolic_zero: the zero set contains a parabolic set (so Delta(v) = 0).
    weierstrass_S: the zero set contains a Weierstrass set S with all of
    lambda(S) nonvanishing (so v is trivial whenever Delta(v) != 0).
    """
    zero = v.zero_set()
    for s in PARABOLIC_SETS:
        if s <= zero:
            return PatternResult("parabolic_zero", s)
    for s in WEIERSTRASS_SETS:
        if s <= zero and all(v[l] for l in lambda_max(s)):
            return PatternResult("weierstrass_S", s)
    return PatternResult("none")


class ReductionResult:
    """Certificate that act(word, v) = act(w, kappa_{pi(v)}) exactly."""

    __slots__ = ("w_name", "word", "certified", "kostant_point")

    def __init__(self, w_name, word, certified, kostant_point):
        self.w_name = w_name
        self.word = word
        self.certified = certified
        self.kostant_point = kostant_point

    def __repr__(self):
        return f"ReductionResult(w={self.w_name!r}, certified={self.certified})"


# labels of the simple-root weights, in alpha order (alpha_1..alpha_4)
ALPHA_LABELS = (11, 2, 9, 10)
# negative V-weight labels grouped by rho-height
_NEG_HEIGHT_LABELS = {-1: (6, 7, 8, 15), -3: (12, 13, 14), -5: (16,)}


def reduce_trivial(inv, v: VElem) -> ReductionResult:
    """Reduce a Weierstrass-pattern element to w * kappa_b constructively.

    Torus step: the adjoint torus hits alpha_i(t) = lambda_i exactly.
    Unipotent step: the kappa coordinates t and the parameters c of the
    negative simple-root unipotents are solved height by height down the
    rho-grading by ``linalg.staged_solve``; each stage is affine in its
    unknowns given the earlier stages.
    """
    ctx = inv.ctx
    f, rep = ctx.field, ctx.rep
    pat = pattern_classify(v)
    if pat.kind != "weierstrass_S":
        raise ValueError("element does not have a Weierstrass vanishing pattern")
    b = inv.pi(v)
    if not quartic_disc(b):
        raise ValueError("Delta(pi(v)) = 0: not a regular semisimple element")
    w_name = WEIERSTRASS_SETS[pat.subset]
    w = WeylGen(w_name)
    v1 = ctx.act(w, v)  # Klein-group elements are involutions
    assert v1.zero_set() >= frozenset({1, 3, 4, 5})
    lam = [v1[l] for l in ALPHA_LABELS]
    t_gen = TorusGen(lam)
    v2 = ctx.act(t_gen.inverse(), v1)
    assert all(v2[l] == f.one for l in ALPHA_LABELS)

    from .liealg import G_SIMPLE

    neg_roots = [tuple(-x for x in a) for a in G_SIMPLE]

    def apply_unipotents(cs, base):
        word = [UnipGen(r, c) for r, c in zip(neg_roots, cs)]
        return ctx.act(word, base)

    def residual(x, labels):
        img = apply_unipotents(x[4:], inv._kappa_point(x[:4])).coords
        return rep.reduce([v2.coords[l - 1] - img[l - 1] for l in labels])

    # unknowns x = (t0..t3, c0..c3): kappa coordinates, then unipotent parameters
    stages = (
        ((0, 5, 6, 7), _NEG_HEIGHT_LABELS[-1]),
        ((1, 2, 4), _NEG_HEIGHT_LABELS[-3]),
        ((3,), _NEG_HEIGHT_LABELS[-5]),
    )
    x = linalg.staged_solve(rep, residual, 8, stages)
    ts, cs = x[:4], x[4:]
    kappa_t = inv._kappa_point(ts)
    assert apply_unipotents(cs, kappa_t) == v2, "unipotent solve failed"
    kb = inv.kostant_section(b)
    assert kappa_t == kb, "kappa point does not match the section over pi(v)"
    u_inv = [UnipGen(r, rep.box(-c)) for r, c in zip(neg_roots, cs)]
    word = [w] + u_inv + [t_gen.inverse(), w]
    certified = ctx.act(word, v) == ctx.act(w, kb)
    if not certified:
        raise AssertionError("reduction certificate failed")
    return ReductionResult(w_name, word, certified, kb)
