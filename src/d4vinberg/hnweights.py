"""Weight-poset combinatorics, the cusp-cutting table, slope arithmetic for
torus-induced torsors, and section-count bounds for split bundles on P^1.

Slope vectors live in X_*(T)_Q and are stored by their pairings with the
simple roots a_1..a_4 of G (rational 4-tuples).  The eleven-row table
certifying that deep-cusp strata vanish in the limit is hardcoded as data
and recomputed from the poset; both bulleted conditions are checked row by
row.  Tail bounds are exact sums of geometric series in q^(-1/8), reported
as floats (terms summed in insertion order) and rational upper bounds.
The four-axis product of a row is built once per (steps, truncation) on
dense int64 arrays, by one shifted slice per axis term, in the dict
product's first-occurrence order; every coefficient is at most (2T)^4,
checked against 2^63 - 1 before any array is built.
"""

from array import array
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .liealg import LABELS, LABEL_OF_SIGNS, LABEL_SIGNS, leq, lambda_max, W0_PERMS

# <rho-check, a_i> for the simple roots of G
RHO_PAIRINGS = (4, 2, 2, 2)


def covers(label):
    """Labels covering the given one (flip a single -1 up)."""
    signs = LABEL_SIGNS[label]
    return frozenset(
        LABEL_OF_SIGNS[signs[:i] + (1,) + signs[i + 1:]] for i in range(4) if signs[i] < 0
    )


def enumerate_upward_closed():
    """All nonempty upward-closed subsets of Phi_V, in bitmask order.

    Bit i of a mask stands for LABELS[i] and up[i] is the mask of labels
    >= LABELS[i].  A mask is upward-closed iff the union of up[i] over its
    bits is the mask itself; that union is built from the mask with its
    lowest bit cleared, so each of the 2^16 masks costs one OR.
    """
    n = len(LABELS)
    up = [sum(1 << j for j, b in enumerate(LABELS) if leq(a, b)) for a in LABELS]
    closure = array("H", [0]) * (1 << n)  # 16-bit cells: 128 KB, not a list of ints
    out = []
    for mask in range(1, 1 << n):
        low = mask & -mask
        c = closure[mask] = closure[mask ^ low] | up[low.bit_length() - 1]
        if c == mask:
            out.append(frozenset(l for i, l in enumerate(LABELS) if mask >> i & 1))
    return out


def enumerate_c0():
    """The eleven upward-closed sets avoiding every cusp set, sorted."""
    from .orbits import ALL_CUSP_SETS

    out = []
    for m in enumerate_upward_closed():
        if any(s <= m for s in ALL_CUSP_SETS):
            continue
        out.append(m)
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


# the table: M -> (lambda(M), p on lambda(M) in ascending label order,
#                  2w(M), 2w(M,p)); values straight from the source table
HALF = Fraction(1, 2)
CUSP_TABLE = {
    (1,): ((2, 3, 4, 5), (0, 0, 0, 0), (1, 1, 1, 1), (1, 1, 1, 1)),
    (1, 2): ((3, 4, 5), (HALF, HALF, HALF), (2, 0, 0, 0), (Fraction(7, 2), HALF, HALF, HALF)),
    (1, 3): ((2, 4, 5), (HALF, HALF, HALF), (0, 2, 0, 0), (HALF, Fraction(7, 2), HALF, HALF)),
    (1, 4): ((2, 3, 5), (HALF, HALF, HALF), (0, 0, 2, 0), (HALF, HALF, Fraction(7, 2), HALF)),
    (1, 5): ((2, 3, 4), (HALF, HALF, HALF), (0, 0, 0, 2), (HALF, HALF, HALF, Fraction(7, 2))),
    (1, 2, 3): ((4, 5, 6), (HALF, HALF, Fraction(3, 2)), (1, 1, -1, -1), (HALF,) * 4),
    (1, 2, 4): ((3, 5, 7), (HALF, HALF, Fraction(3, 2)), (1, -1, 1, -1), (HALF,) * 4),
    (1, 2, 5): ((3, 4, 8), (HALF, HALF, Fraction(3, 2)), (1, -1, -1, 1), (HALF,) * 4),
    (1, 3, 4): ((2, 5, 9), (HALF, HALF, Fraction(3, 2)), (-1, 1, 1, -1), (HALF,) * 4),
    (1, 3, 5): ((2, 4, 10), (HALF, HALF, Fraction(3, 2)), (-1, 1, -1, 1), (HALF,) * 4),
    (1, 4, 5): ((2, 3, 11), (HALF, HALF, Fraction(3, 2)), (-1, -1, 1, 1), (HALF,) * 4),
}


class CuspRow:
    __slots__ = ("m_set", "lambda_m", "size", "w2", "p", "wp2", "conditions_ok")

    def __init__(self, m_set, lambda_m, size, w2, p, wp2, conditions_ok):
        self.m_set = m_set
        self.lambda_m = lambda_m
        self.size = size
        self.w2 = w2
        self.p = p
        self.wp2 = wp2
        self.conditions_ok = conditions_ok

    def as_record(self):
        return {
            "M": list(self.m_set),
            "lambda": list(self.lambda_m),
            "size": self.size,
            "2w": [str(x) for x in self.w2],
            "p": [str(x) for x in self.p],
            "2wp": [str(x) for x in self.wp2],
            "conditions_ok": self.conditions_ok,
        }


def two_w(m_set):
    """2 w(M) = -sum_{a in M} eps(a) - 2 delta_B, delta_B = -(a1+..+a4)."""
    total = [0, 0, 0, 0]
    for l in m_set:
        for i, s in enumerate(LABEL_SIGNS[l]):
            total[i] += s
    return tuple(Fraction(2 - t) for t in total)


def verify_cusp_table():
    """Recompute the eleven rows and check the two cusp conditions.

    Any failing row (or mismatch with the stored table) raises.
    """
    c0 = enumerate_c0()
    assert len(c0) == 11, f"|C0| = {len(c0)} != 11"
    rows = []
    for m in c0:
        key = tuple(sorted(m))
        assert key in CUSP_TABLE, f"set {key} missing from the table"
        exp_lambda, p_vals, exp_w2, exp_wp2 = CUSP_TABLE[key]
        lam = tuple(sorted(lambda_max(m)))
        assert lam == exp_lambda, (key, lam, exp_lambda)
        w2 = two_w(m)
        assert w2 == tuple(Fraction(x) for x in exp_w2), (key, w2, exp_w2)
        assert len(p_vals) == len(lam)
        wp2 = list(w2)
        for a, pv in zip(lam, p_vals):
            for i, s in enumerate(LABEL_SIGNS[a]):
                wp2[i] += Fraction(pv) * s
        wp2 = tuple(wp2)
        assert wp2 == tuple(Fraction(x) for x in exp_wp2), (key, wp2, exp_wp2)
        cond1 = len(m) > sum(Fraction(x) for x in p_vals)
        cond2 = all(x > 0 for x in wp2)
        row = CuspRow(
            key, lam, len(m), w2, tuple(Fraction(x) for x in p_vals), wp2, cond1 and cond2
        )
        if not row.conditions_ok:
            raise AssertionError(f"cusp table row {key} fails its conditions")
        rows.append(row)
    return rows


def parabolic_stable_sets():
    """Members of C0 stable under the a_1-sign involution (expected: {1,2})."""

    def flip1(label):
        s = LABEL_SIGNS[label]
        return LABEL_OF_SIGNS[(-s[0],) + s[1:]]

    return [m for m in enumerate_c0() if all(flip1(a) in m for a in m)]


# -- slope arithmetic --


class SlopeVector:
    """Element of X_*(T)_Q, stored by pairings with (a_1, a_2, a_3, a_4)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(Fraction(c) for c in coords)
        assert len(self.coords) == 4

    def pair_weight(self, label):
        """<sigma, a> for the weight with the given label (half-integers)."""
        return sum(
            s * Fraction(e, 2) for s, e in zip(self.coords, LABEL_SIGNS[label])
        )

    def in_lambda_b_pos(self):
        """<sigma, a> > 0 for all a in the Borel's root basis R^- = {-a_i}."""
        return all(c < 0 for c in self.coords)

    def __eq__(self, other):
        return isinstance(other, SlopeVector) and self.coords == other.coords

    def __repr__(self):
        return f"SlopeVector({self.coords})"


def trivial_inv_slopes(w_name, d, char=None):
    """Slope data of the trivial-class torsor inv(w kappa_b) at deg D = d.

    Returns (sigma, hn, positivity, lowest, report) where hn is the sorted
    (slope, multiplicity) list of V_g(D) and report carries the lowest-slope
    constant next to the reference value -2 deg D for comparison (logged, never
    asserted).
    """
    if d <= 0:
        raise ValueError("deg D must be positive")
    perm = W0_PERMS[w_name]
    # <w rho w^-1, a_i> = <rho, a_{w^-1(i)}>; Klein elements are involutions
    pairings = [RHO_PAIRINGS[perm[i] - 1] for i in range(4)]
    sigma = SlopeVector([-d * x for x in pairings])
    slopes = {}
    for l in LABELS:
        s = sigma.pair_weight(l) + d
        slopes[s] = slopes.get(s, 0) + 1
    hn = sorted(slopes.items())
    lowest = hn[0][0]
    positivity = sigma.in_lambda_b_pos()
    hyp = None
    if char is not None:
        # small-weight hypothesis: 2 <rho_G, lambda> < char for all weights;
        # rho_G pairs to 1 with every a_i, so the max is 4.
        hyp = 4 < char
    report = {
        "lowest": lowest,
        "reference_constant": Fraction(-2 * d),
        "matches_reference_constant": lowest == Fraction(-2 * d),
        "filtration_hypothesis_ok": hyp,
    }
    assert lowest < 0, "lowest slope of a trivial class must be negative"
    return sigma, hn, positivity, lowest, report


# -- Clifford / section bounds on P^1 (split bundles) --


def clifford_h0(split_degrees, twist):
    """(h0, bounds_ok) for (+) O(e_i) twisted by O(twist) on P^1.

    h0 is exact; bounds_ok checks every case inequality of the semistable
    section bound and of the slope-zero refinement (the negative-part
    subtraction is applied piecewise, which is the form the orbit-count
    argument uses; the single-piece statement follows).
    """
    degs = sorted(split_degrees, reverse=True)
    n = len(degs)
    h0 = sum(max(0, e + twist + 1) for e in degs)
    ok = True
    # HN pieces: groups of equal degree, slopes descending
    pieces = []
    for e in degs:
        if pieces and pieces[-1][0] == e:
            pieces[-1][1] += 1
        else:
            pieces.append([e, 1])
    # semistable bound per piece; on P^1, g = 0, so h0 = rank (1 - g + mu)
    # above mu = 2g - 2 = -2, and the band 0 <= mu <= 2g - 2 is empty
    for e, rank in pieces:
        mu = e + twist
        piece_h0 = rank * max(0, mu + 1)
        if mu < 0 and piece_h0 != 0:
            ok = False
        if mu > -2 and piece_h0 != rank * (1 + mu):
            ok = False
    # slope-zero refinement, when applicable
    total_deg = sum(degs)
    if total_deg == 0 and twist > 0:
        q0_low = pieces[-1][0]
        neg = [(e, r) for e, r in pieces if e + twist < 0]
        bound = n * (1 + twist) - sum(r * (1 + e + twist) for e, r in neg)
        if h0 > bound:
            ok = False
        # the sub-bundle of negative twisted slope has no sections
        if twist + q0_low < 0 and any(r * max(0, e + twist + 1) for e, r in neg):
            ok = False
        if twist + q0_low > -2 and h0 != n * (1 + twist):
            ok = False
    return h0, ok


# -- exact tail bounds for the boundary sums --


class QPowerSum:
    """Exact finite sums of integer multiples of q^(-e/8), integer e >= 0.

    Eighth-integer exponents cover everything the boundary sums produce
    (sigma coordinates in (1/2)Z paired against weights in (1/2)Z).  The
    terms are summed in insertion order, which is part of the report."""

    __slots__ = ("q", "terms")

    def __init__(self, q, terms):
        self.q = q
        self.terms = dict(terms)  # int exponent (units of 1/8) -> int coeff

    def to_float(self):
        root8 = self.q ** 0.125
        return float(sum(c * root8 ** (-e) for e, c in self.terms.items()))

    def upper_bound(self, digits=40) -> Fraction:
        """Rational upper bound with denominator 10^digits.

        Per term, q^(-e/8) <= 1/floor(q^(e/8)); each quotient is rounded up
        on a common power-of-ten denominator so the result stays compact.
        """
        scale = 10**digits
        total = 0
        for e, c in self.terms.items():
            assert c >= 0 and e >= 0
            root = max(_eighth_root_floor(self.q**e), 1)
            total += -((-c * scale) // root)  # ceil division
        return Fraction(total, scale)


def _eighth_root_floor(n):
    """floor(n^(1/8)) for an int n >= 0, exactly: isqrt(isqrt(m)) =
    floor(m^(1/4)) for every m >= 0, so three square roots give it."""
    return isqrt(isqrt(isqrt(n)))


# every coefficient of a product of k axes of 2T unit terms is at most
# (2T)^k, the sum of them all, and the int64 arrays hold at most this
INT64_MAX = 2**63 - 1


@lru_cache(maxsize=32)
def _axis_product(steps, truncation):
    """prod_i sum_{j=1..2T} q^(-j steps[i] / 8) as two read-only int64
    arrays, the exponents (in eighths) in first-occurrence order and their
    coefficients.

    That is the order in which a dict product, multiplying the axes in
    turn with the running product in the outer loop and j in the inner
    one, inserts them.  The product is held densely over its exponent
    range: coef[e], and rank[e], the position of e in the running order
    (``none`` if absent).  Axis term j adds the running product shifted by
    j * step with one slice each; e's first occurrence comes from the
    lowest-ranked e - j * step, and one lexsort on (that rank, j) orders
    the new terms.  Every step is > 0, so the 2T terms of an axis are
    distinct.
    """
    n = 2 * truncation
    if n ** len(steps) > INT64_MAX:
        raise ValueError(f"truncation {truncation}: coefficients up to {n}^{len(steps)} "
                         "overflow int64")
    none = INT64_MAX
    coef = np.ones(1, np.int64)
    rank = np.zeros(1, np.int64)
    for step in steps:
        assert type(step) is int and step > 0, step
        width = len(coef)
        new_coef = np.zeros(width + n * step, np.int64)
        new_rank = np.full(len(new_coef), none, np.int64)
        first_j = np.zeros(len(new_coef), np.int64)
        for j in range(1, n + 1):
            cells = slice(j * step, j * step + width)
            new_coef[cells] += coef
            earlier = rank < new_rank[cells]
            np.copyto(new_rank[cells], rank, where=earlier)
            np.copyto(first_j[cells], j, where=earlier)
        (present,) = np.nonzero(new_rank != none)
        order = present[np.lexsort((first_j[present], new_rank[present]))]
        coef, rank = new_coef, np.full(len(new_coef), none, np.int64)
        rank[order] = np.arange(len(order))
    coef = coef[order]
    order.setflags(write=False)
    coef.setflags(write=False)
    return order, coef


def boundary_tail_bound(m_key, d, truncation, q):
    """Truncated lattice-sum bound for the boundary stratum of M.

    Sum over sigma in Lambda_B^pos with coordinates in -(1/2)Z, each
    magnitude <= truncation, of q^(d (sum p - |M|) + <sigma, w(M,p)>).
    The summand factors over coordinates, so the sum is q^(-lead) times a
    product of truncated geometric series, exact in powers of q^(1/8).
    sigma_i = -j/2, j = 1..2T, gives the term q^(-j w_i / 4) (w_i is
    2w(M,p)_i), so axis i steps by 2 w_i eighths; the axis product does
    not depend on d or q and is shared.
    """
    if q < 2:
        raise ValueError(f"q = {q}: the tail bound needs q >= 2")
    if truncation < 1:
        raise ValueError(f"truncation {truncation}: the tail bound needs truncation >= 1")
    key = tuple(sorted(m_key))
    _, p_vals, _, exp_wp2 = CUSP_TABLE[key]
    p_sum = sum(Fraction(x) for x in p_vals)
    lead_exp = -Fraction(d) * (p_sum - len(key))  # positive: q^{-lead_exp} prefactor
    assert lead_exp > 0
    lead8 = 8 * lead_exp  # in eighths, as are the steps (> 0 by the second condition)
    steps = [2 * Fraction(x) for x in exp_wp2]
    assert lead8.denominator == 1 and all(s.denominator == 1 for s in steps)
    exps, coefs = _axis_product(tuple(map(int, steps)), truncation)
    return QPowerSum(q, zip((exps + int(lead8)).tolist(), coefs.tolist()))
