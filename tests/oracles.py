"""Independent oracles of the tests, kept out of the package.

The package computes each quantity once, by the division-free programs
that it runs.  The definitions here compute the same quantities a second,
slower way, and serve only as the reference of the differential tests:

- Delta expanded once over the integers from the Sylvester determinant of
  (f, f') (``delta_mpoly``), its partials (``delta_gradient``) and the
  classical invariants I, J (``binary_quartic_invariants``);
- the 8x8 view of an element of V (``to_matrix``), its even characteristic
  coefficients (``even_coeffs``, ``even_charpoly``), its Pfaffian by the
  105 perfect matchings (``pfaffian``) and its minimal polynomial by a
  Krylov dependence (``minimal_polynomial``);
- the determinant by the n! signed terms of the Leibniz formula
  (``det_leibniz``), against which ``linalg.det4`` is checked;
- a square root in a finite field by search (``square_root``), the first
  in enumeration order, for the tests that build squares;
- the third point of a chord or tangent of a pointed cubic from values
  of the cubic on the line (``third_by_evaluation``), against which the
  polar-form law of ``PointedCurve._third`` is checked; with it the
  negation ``curve_neg`` and the double-and-add multiple ``curve_mul``
  through ``PointedCurve.add``, the group law against which the doubling
  table and ``group_structure`` are checked, all on the points of
  ``coord_points``;
- the chart functions (x, y) of the subregular slice by a search over
  F_p^3 through the three lines of the central fibre
  (``search_chart_functions``), against which the linear solve
  ``invariants._chart_functions`` is checked;
- the cusp-table tail bounds by the dict product of ``QPowerSum``s
  (``tail_bound_by_dicts``), term order included, against which the dense
  shifted-slice product ``hnweights._axis_product`` is checked;
- the I1 certificate of one tuple on boxed ``Poly``s (``certify_i1_by_row``),
  against which the block certificate ``curves._certify_i1_block`` is
  checked; the same certificate in affine form, x0 = -s0/s1 by an inverse
  mod Delta (``certify_i1_by_inverse``), against which the projective
  form is checked; and the coefficient reversal x^k p(1/x)
  (``reversed_poly``) that moves a tuple to the chart at infinity;
- X_D membership one tuple at a time, on the boxed Delta (``disc_poly``),
  the boxed squarefree test, the row certificate and the number of
  factors of ``polys.factor`` (``xd_membership_by_row``), against which
  the block form ``curves.xd_membership`` is checked;
- the X_D box filter with no sieve, Delta and the row test on every row
  (``xd_box_filter_unsieved``), against which the sieved mask of
  ``numkernels.xd_box_filter`` is checked; and a double zero of a boxed
  Delta at a place of degree 1 by evaluation at each one
  (``double_zero_of_degree_one``), against which the sieve
  ``numkernels._degree_one_sieve`` is checked;
- the minimal model over F_q(t) in ``RatFunc`` arithmetic throughout
  (``minimal_data_by_ratfunc``): Delta of b as a rational function, and
  b rescaled by a ``RatFunc`` product of uniformizers, against which
  ``curves.minimal_data`` and its test on F_q[t], ``curves.delta_vanishes``,
  are checked.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import prod

import numpy as np

from d4vinberg import linalg, numkernels, polys
from d4vinberg.curves import WEIGHTS, MinimalData, XDMembership, _as_polys
from d4vinberg.funcfield import RatFunc, support
from d4vinberg.hnweights import CUSP_TABLE, QPowerSum
from d4vinberg.invariants import _slice_relation
from d4vinberg.liealg import LABELS, V_ENTRIES
from d4vinberg.linalg import mat_mul, newton_even, trace, trace_prod
from d4vinberg.multipoly import PY_RING, MPoly
from d4vinberg.polys import Poly, xgcd_raw
from d4vinberg.quartic import delta, first_subresultant, quartic_disc
from d4vinberg.rng import det_rng

# -- multivariate polynomials --


def partial(poly, i):
    """d poly / d x_i of an MPoly."""
    out = {}
    for e, c in poly.terms.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = e[i] * c
    return MPoly(poly.nvars, out)


def weighted_degrees(poly, weights):
    """The set of weighted degrees of the monomials of an MPoly."""
    return {sum(w * k for w, k in zip(weights, e)) for e in poly.terms}


def det_mpoly(rows):
    """Determinant of a square matrix of MPolys, by Laplace expansion with
    memoization over column subsets (division-free)."""
    n = len(rows)
    nvars = rows[0][0].nvars
    memo = {}

    def minor(r, cols):
        if r == n:
            return MPoly.const(nvars, 1)
        if cols in memo:
            return memo[cols]
        acc = MPoly(nvars, {})
        sign = 1
        for idx, c in enumerate(cols):
            entry = rows[r][c]
            if not entry.is_zero():
                term = entry * minor(r + 1, cols[:idx] + cols[idx + 1 :])
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        memo[cols] = acc
        return acc

    return minor(0, tuple(range(n)))


# -- the quartic discriminant, expanded --


def _monic_quartic_variables():
    return tuple(MPoly.var(4, i) for i in range(4))


@lru_cache(maxsize=1)
def disc_monic_quartic_mpoly():
    """disc(t^4 + a t^3 + b t^2 + c t + d) in ZZ[a,b,c,d] (vars 0..3), as
    the 7x7 Sylvester determinant of (f, f')."""
    a, b, c, d = _monic_quartic_variables()
    one = MPoly.const(4, 1)
    zero = MPoly(4, {})
    f = [one, a, b, c, d]  # highest degree first
    df = [4 * one, 3 * a, 2 * b, c]
    rows = [[zero] * k + f + [zero] * (2 - k) for k in range(3)]
    rows += [[zero] * k + df + [zero] * (3 - k) for k in range(4)]
    return det_mpoly(rows)


@lru_cache(maxsize=1)
def delta_mpoly():
    """Delta(p2, p4, q4, p6) = disc(t^4+p2 t^3+p4 t^2+p6 t+q4^2), vars
    ordered (p2, p4, q4, p6).  Weighted-homogeneous of degree 12 for
    weights (1, 2, 2, 3)."""
    out = {}
    # disc vars: (a, b, c, d) = (p2, p4, p6, q4^2); reorder to (p2,p4,q4,p6)
    for (ea, eb, ec, ed), coef in disc_monic_quartic_mpoly().terms.items():
        key = (ea, eb, 2 * ed, ec)
        out[key] = out.get(key, 0) + coef
    poly = MPoly(4, out)
    degs = weighted_degrees(poly, (1, 2, 2, 3))
    assert degs == {12}, f"discriminant not weighted-homogeneous: {degs}"
    return poly


@lru_cache(maxsize=1)
def delta_gradient():
    """The four partials of ``delta_mpoly()``."""
    d = delta_mpoly()
    return tuple(partial(d, i) for i in range(4))


@lru_cache(maxsize=1)
def binary_quartic_invariants():
    """(I, J) of the monic quartic t^4+a t^3+b t^2+c t+d in ZZ[a,b,c,d].

    Normalized so that 4 I^3 - J^2 = 27 disc; the curve y^2 = x^3 - 27 I x
    - 27 J is the Weierstrass model of w^2 = f(t).
    """
    a, b, c, d = _monic_quartic_variables()
    i_inv = 12 * d - 3 * a * c + b * b
    j_inv = 72 * b * d - 27 * c * c - 27 * a * a * d + 9 * a * b * c - 2 * b * b * b
    return i_inv, j_inv


def alpha_points(q, ring, zero):
    """The points of {Delta = 0} over a field of q elements coded 0..q-1,
    as four coordinate arrays in code order, and the mask of those where
    the four partials of ``delta_mpoly()`` vanish.  The zero set comes from
    the program ``delta``, which the evaluator tests hold to
    ``delta_mpoly()``: the expanded plan over all 49^4 points of GF(49)
    would double the time of the test that compares the singular sets."""
    blocks = []
    for pt in numkernels._grid_blocks(q, 4):
        on = delta(pt, ring) == zero
        blocks.append([a[on] for a in pt])
    sub = [np.concatenate(c) for c in zip(*blocks)]
    singular = np.ones(len(sub[0]), dtype=bool)
    for g in delta_gradient():
        singular &= g.eval(sub, ring) == zero
    return sub, singular


# -- signed sums of products of entries --


def _perm_sign(values):
    """Sign of the permutation sending (0, 1, ..., n-1) to values."""
    values = list(values)
    sign = 1
    for i in range(len(values)):
        while values[i] != i:
            j = values[i]
            values[i], values[j] = values[j], values[i]
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def det_terms(n):
    """[(sign, ((0, s(0)), ..., (n-1, s(n-1))))] over the permutations s of
    {0..n-1}; the identity comes first."""
    return [(_perm_sign(perm), tuple(enumerate(perm))) for perm in permutations(range(n))]


def _signed_sum(a, terms):
    """sum of sign * prod a[i][j] over the (sign, index pairs) terms, whose
    first term has sign +1, over any commutative ring (division-free)."""
    acc = None
    for sign, ((i, j), *rest) in terms:
        term = a[i][j]
        for k, l in rest:
            term = term * a[k][l]
        acc = term if acc is None else acc + term if sign > 0 else acc - term
    return acc


def det_leibniz(a):
    """Determinant of a small square matrix over any commutative ring, by
    the n! terms of the Leibniz formula (division-free)."""
    return _signed_sum(a, det_terms(len(a)))


# -- 8x8 matrices --


def identity(field, n):
    out = linalg.zeros(field, n, n)
    for i in range(n):
        out[i][i] = field.one
    return out


def square_root(field, a):
    """The first x of field, in enumeration order, with x^2 = a, or None."""
    return next((x for x in field if x * x == a), None)


def det(field, a):
    """Determinant by elimination over a field."""
    n = len(a)
    m = [row[:] for row in a]
    result = field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result = result * m[c][c]
        inv = m[c][c].inverse()
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def _matchings(items):
    if not items:
        yield []
        return
    first = items[0]
    for j in range(1, len(items)):
        rest = items[1:j] + items[j + 1 :]
        for sub in _matchings(rest):
            yield [(first, items[j])] + sub


@lru_cache(maxsize=None)
def pfaffian_terms(n):
    """[(sign, ((i1,j1),...))] over the perfect matchings of {0..n-1}."""
    return [
        (_perm_sign([i for pair in pairs for i in pair]), tuple(pairs))
        for pairs in _matchings(list(range(n)))
    ]


def pfaffian(a):
    """Pfaffian of an antisymmetric n x n matrix (n even, n >= 2), over any
    commutative ring, by perfect matchings (division-free)."""
    return _signed_sum(a, pfaffian_terms(len(a)))


def even_coeffs(a, char):
    """(c2, c4, c6) with det(xI - a) = x^8 + c2 x^6 + c4 x^4 + c6 x^2 + c8.

    Valid for 8x8 matrices similar to -a^T (odd power traces vanish), which
    holds throughout so(Psi), with entries in any commutative ring of
    characteristic char >= 5 (field elements, MPolys over a field).
    """
    a2 = mat_mul(a, a)
    a4 = mat_mul(a2, a2)
    return newton_even(trace(a2), trace(a4), trace_prod(a2, a4), char)


def even_charpoly(field, a):
    """(c2, c4, c6, c8) of ``even_coeffs``, with c8 = det(a) by elimination."""
    return (*even_coeffs(a, field.char), det(field, a))


def v_coords_to_matrix(field, coords):
    """The 8x8 matrix of the element of V with these weight coordinates."""
    m = linalg.zeros(field, 8, 8)
    for c, ((pi, pj), (qi, qj)) in zip(coords, V_ENTRIES):
        if c:
            m[pi][pj] = m[pi][pj] + c
            m[qi][qj] = m[qi][qj] - c
    return m


def to_matrix(v):
    """The 8x8 matrix of a VElem."""
    return v_coords_to_matrix(v.ctx.field, [v[l] for l in LABELS])


def minimal_polynomial(v):
    """The minimal polynomial of the 8x8 matrix of a VElem: the first power
    of it that depends linearly on the earlier ones."""
    f = v.ctx.field
    m = to_matrix(v)
    powers = [identity(f, 8)]
    while True:
        rows = [[pw[i][j] for pw in powers] for i in range(8) for j in range(8)]
        target_mat = mat_mul(powers[-1], m)
        target = [target_mat[i][j] for i in range(8) for j in range(8)]
        sol = linalg.solve(f, rows, target)
        if sol is not None:
            return Poly(f, [-c for c in sol] + [f.one])
        powers.append(target_mat)


# -- the chord-tangent law, by evaluations of the cubic --


def _on_line(p1, p2, t):
    return tuple(a + t * b for a, b in zip(p1, p2))


def third_by_evaluation(curve, p1, p2):
    """Third intersection of the line through p1, p2 with a PointedCurve
    (tangent if equal), from values of F on the line.  A chord reads the
    coefficients of F(p1 + t p2) = c1 t + c2 t^2 off t = +-1.  A tangent
    takes a direction r from a kernel basis of grad F(p1), with r
    independent of p1, and reads F(p1 + t r) = c2 t^2 + c3 t^3 off
    t = 0, 1.

    The points come and go in the curve's coordinates (``coord_points``),
    but the oracle runs on their FElems: F and grad F of an FElem point
    are FElems, b's ints acting as field constants, and the third point is
    scaled to 1 at its last nonzero coordinate here, not by the curve."""
    f, k = curve.field, curve.coords
    p1, p2 = (tuple(map(k.box, p)) for p in (p1, p2))

    def normalized(pt):
        s = next(c for c in reversed(pt) if c).inverse()
        return tuple(k.coord(c * s) for c in pt)

    if p1 == p2:
        basis = linalg.kernel_basis(f, [list(curve.gradient(p1))])
        assert len(basis) == 2, "tangent line degenerate"
        r = next(tuple(v) for v in basis if any(_cross(p1, v)))
        c3 = curve.equation(r)
        c2 = curve.equation(_on_line(p1, r, f.one)) - c3
        if c3:
            return normalized(_on_line(p1, r, -c2 * c3.inverse()))
        return normalized(r)
    cp = curve.equation(_on_line(p1, p2, f.one))
    cm = curve.equation(_on_line(p1, p2, -f.one))
    half = f.elem(2).inverse()
    c1 = (cp - cm) * half
    c2 = (cp + cm) * half
    if c2:
        return normalized(_on_line(p1, p2, -c1 * c2.inverse()))
    if c1:
        return normalized(p2)
    raise AssertionError("line contained in a smooth cubic")


def coord_points(curve):
    """The points of a PointedCurve as its public ``points`` boxes them,
    taken back into the curve's coordinates, where its group law runs."""
    return [tuple(map(curve.coords.coord, pt)) for pt in curve.points()]


def curve_neg(curve, p):
    """-p on a PointedCurve: the third point of the line through p and the
    tangent point of O, both by ``third_by_evaluation``."""
    return third_by_evaluation(curve, p, third_by_evaluation(curve, curve.O, curve.O))


def curve_mul(curve, n, p):
    """n p by double-and-add from the top bit of |n|, through curve.add:
    the group-law oracle of the doubling table."""
    if n < 0:
        return curve_mul(curve, -n, curve_neg(curve, p))
    if not n:
        return curve.O
    acc = p
    for bit in bin(n)[3:]:
        acc = curve.add(acc, acc)
        if bit == "1":
            acc = curve.add(acc, p)
    return acc


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# -- the slice chart functions, by search over F_p^3 --


def _linear_coeffs(poly, idx, field):
    """Coefficients of the plain variables x_i, i in idx, of an MPoly."""
    units = [tuple(int(k == i) for k in range(poly.nvars)) for i in idx]
    return [poly.terms.get(u, field.zero) for u in units]


def nilpotent_branches(ctx, c_syms, plane):
    """The three lines of the central fibre: directions d in the C2-kernel
    plane with a (unique) weight-4 completion making the ray nilpotent.

    Contraction-equivariance means checking the four invariants at a single
    nonzero point of each candidate ray.
    """
    f = ctx.field
    _, c4s, pfs, _ = c_syms
    l4 = _linear_coeffs(c4s, (3, 4), f)
    lp = _linear_coeffs(pfs, (3, 4), f)
    assert linalg.rank(f, [l4, lp]) == 2, "weight-4 chart block is singular"
    out = []
    d1, d2 = plane
    dirs = [[a + t * b for a, b in zip(d1, d2)] for t in f] + [list(d2)]
    for d in dirs:
        point = (d[0], d[1], d[2], f.zero, f.zero)
        const4, constp = c4s.eval(point), pfs.eval(point)
        sol = linalg.solve(f, [l4, lp], [-const4, -constp])
        cs = [f.elem(d[0]), f.elem(d[1]), f.elem(d[2]), sol[0], sol[1]]
        vals = [p.eval(tuple(cs)) for p in c_syms]
        if all(not v for v in vals):
            out.append((tuple(d), (sol[0], sol[1])))
    return out


def search_chart_functions(ctx, c_syms, seed):
    """(xi, eta) with the cubic relation for pi = (c2, c4, pf, c6), by search.

    The three lines of the central fibre pin x and y on the C2-kernel
    plane up to three unknowns: candidates xi = x1 phi0 + x2 phi1,
    eta = x1 psi0 + x2 psi1 + y3 nvec, over the six orderings of the lines
    and all of F_p^3.  They are filtered on 40 random slice points in int
    arithmetic mod p (the seed only chooses these points); survivors must
    then satisfy the slice relation exactly, and exactly one must.
    """
    f = ctx.field
    p = f.p
    c2s, c4s, pfs, c6s = c_syms
    c2_lin = _linear_coeffs(c2s, range(3), f)
    assert any(c2_lin), "degree-2 invariant restricts to zero on the slice"
    plane = linalg.kernel_basis(f, [c2_lin])
    assert len(plane) == 2, "nilpotent-direction plane must be 2-dimensional"
    branches = nilpotent_branches(ctx, c_syms, plane)
    assert len(branches) == 3, f"expected 3 nilpotent branches, got {len(branches)}"
    rng = det_rng(seed, "calibration-points")
    pts = []
    for _ in range(40):
        cs = [f.random(rng) for _ in range(5)]
        pts.append((cs[:3], c2s.eval(cs), c4s.eval(cs), pfs.eval(cs), c6s.eval(cs)))

    def dot(u, z):
        return sum(a.val * b.val for a, b in zip(u, z)) % p

    candidates = []
    dirs = [b[0] for b in branches]
    for i0 in range(3):
        d0 = dirs[i0]
        others = [dirs[j] for j in range(3) if j != i0]
        phi = linalg.kernel_basis(f, [list(d0)])
        if len(phi) != 2:
            continue
        for dplus, dminus in (others, others[::-1]):
            # y values on the plane are pinned by x: y(d+) = x(d+), y(d-) = -x(d-)
            rows = [list(dplus), list(dminus)]
            psi = []
            for base in phi:
                xp = sum((a * b for a, b in zip(base, dplus)), f.zero)
                xm = sum((a * b for a, b in zip(base, dminus)), f.zero)
                psi.append(linalg.solve(f, rows, [xp, -xm]))
            nvec = linalg.kernel_basis(f, rows)
            assert len(nvec) == 1
            nvec = nvec[0]
            # per point: phi.z, psi.z, nvec.z and c2, c4, 2 pf, c6 as ints
            per_point = [
                (dot(phi[0], z), dot(phi[1], z), dot(psi[0], z), dot(psi[1], z),
                 dot(nvec, z), c2.val, c4.val, 2 * pf.val, c6.val)
                for z, c2, c4, pf, c6 in pts
            ]
            for x1 in range(p):
                for x2 in range(p):
                    for y3 in range(p):
                        for a0, a1, b0, b1, n, c2, c4, pf2, c6 in per_point:
                            x = (x1 * a0 + x2 * a1) % p
                            y = (x1 * b0 + x2 * b1 + y3 * n) % p
                            if (y * (x * y + pf2) - x * (x * (x + c2) + c4) - c6) % p:
                                break
                        else:
                            fx1, fx2, fy3 = f.elem(x1), f.elem(x2), f.elem(y3)
                            xi = tuple(fx1 * a + fx2 * b for a, b in zip(phi[0], phi[1]))
                            eta = tuple(
                                fx1 * a + fx2 * b + fy3 * c
                                for a, b, c in zip(psi[0], psi[1], nvec)
                            )
                            candidates.append((xi, eta))
    sols = [(xi, eta) for xi, eta in candidates if _slice_relation(c_syms, xi, eta).is_zero()]
    assert len(sols) == 1, f"chart search found {len(sols)} solutions"
    return sols[0]


# -- the cusp-table tail bounds, by dict products --


def qps_monomial(q, exponent, coeff=1):
    """coeff q^(-exponent) as a QPowerSum; the exponent must be a
    nonnegative multiple of 1/8."""
    e8 = Fraction(exponent) * 8
    assert e8.denominator == 1 and e8 >= 0
    return QPowerSum(q, {int(e8): coeff})


def qps_add(a, b):
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return QPowerSum(a.q, out)


def qps_mul(a, b):
    """The product by a double loop over the terms of a, then of b; a new
    exponent is inserted where it first occurs in that order."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return QPowerSum(a.q, out)


def axis_product_by_dicts(q, exponent, steps, truncation):
    """q^(-exponent) prod_i sum_{j=1..2T} q^(-j steps[i] / 8), one axis
    after the other, each axis built term by term."""
    out = qps_monomial(q, exponent)
    for step in steps:
        axis = QPowerSum(q, {})
        for j in range(1, 2 * truncation + 1):
            axis = qps_add(axis, qps_monomial(q, Fraction(j * step, 8)))
        out = qps_mul(out, axis)
    return out


def tail_bound_by_dicts(m_key, d, truncation, q):
    """``hnweights.boundary_tail_bound`` by dict products: the leading
    monomial q^(-d (|M| - sum p)) times one geometric axis per coordinate,
    whose term j is q^(-j w_i / 4) for w_i = 2w(M,p)_i."""
    key = tuple(sorted(m_key))
    _, p_vals, _, wp2 = CUSP_TABLE[key]
    lead = d * (len(key) - sum(Fraction(x) for x in p_vals))
    return axis_product_by_dicts(q, lead, [2 * Fraction(w) for w in wp2], truncation)


# -- the I1 certificate, by an inverse --


def reversed_poly(p, at_degree):
    """Coefficient reversal x^at_degree * p(1/x) of a Poly."""
    if at_degree < p.degree:
        raise ValueError("reversal degree below actual degree")
    return Poly(p.field, [p[at_degree - i] for i in range(at_degree + 1)])


def _check(name, value, unit, delta):
    """value is a unit of F_q[t]/(Delta) (unit) or zero in it (not unit),
    else AssertionError naming the test and gcd(value, Delta)."""
    if not unit and (value % delta).is_zero():
        return
    g = polys.gcd(value, delta)
    if g.degree != (0 if unit else delta.degree):
        raise AssertionError(f"{name} fails: gcd with Delta {g.to_str()}")


def certify_i1_by_row(b, delta):
    """The I1 certificate of ``curves._certify_i1_block`` for one tuple b
    and its Delta, on boxed Polys: gcd(s1 s0, Delta) = 1 (s1 and s0 one by
    one only when it fails), then Fh = Z^4 f(x0) and dFh/dX = Z^3 f'(x0)
    at (X, Z) = (-s0, s1), each a remainder mod Delta, with the squares
    and the cube of X and Z reduced mod Delta first.  A failed test raises
    AssertionError naming it and gcd(value, Delta)."""
    if delta.degree < 1:
        return
    p2, p4, q4, p6 = b
    s1, s0 = first_subresultant(b, PY_RING)
    if polys.gcd(s1 * s0, delta).degree:
        _check("s1 unit", s1, True, delta)
        _check("x0 unit", s0, True, delta)
    x, z = -s0, s1
    xx, xz, zz = x * x % delta, x * z % delta, z * z % delta
    z3 = zz * z % delta
    fh = xx * (xx + p2 * xz + p4 * zz) + z3 * (p6 * x + q4 * q4 * z)
    _check("f(x0) = 0", fh, False, delta)
    _check("f'(x0) = 0", x * (4 * xx + 3 * p2 * xz + 2 * p4 * zz) + p6 * z3, False, delta)


def certify_i1_by_inverse(b, delta):
    """``certify_i1_by_row`` in affine form: one xgcd of s1 s0 with Delta
    gives w = 1/(s1 s0), so x0 = -s0^2 w, and f(x0), f'(x0) are tested
    as zeros mod Delta.  The same tests, in the same order, raise the
    same AssertionError messages."""
    if delta.degree < 1:
        return
    p2, p4, q4, p6 = b
    s1, s0 = first_subresultant(b, PY_RING)
    field = delta.field
    g, w, _ = (Poly._of(field, v) for v in xgcd_raw(field, (s1 * s0).vals, delta.vals))
    if g.degree:
        _check("s1 unit", s1, True, delta)
        _check("x0 unit", s0, True, delta)
    x0 = -s0 * s0 * w % delta
    xx = x0 * x0 % delta
    x3 = xx * x0 % delta
    _check("f(x0) = 0", xx * xx + p2 * x3 + p4 * xx + p6 * x0 + q4 * q4, False, delta)
    _check("f'(x0) = 0", 4 * x3 + 3 * p2 * xx + 2 * p4 * x0 + p6, False, delta)


# -- X_D membership, one tuple at a time --


def disc_poly(field, b):
    """Delta(b) for polynomial coefficient tuples (constants are lifted)."""
    return quartic_disc(_as_polys(field, b))


def xd_membership_by_row(field, b, d):
    """``curves.xd_membership`` of the one tuple b, on the boxed Delta and
    the boxed squarefree test (a non-member returns right after them),
    ``certify_i1_by_row`` and the factors of ``polys.factor``."""
    if field.order != field.char:
        raise ValueError("X_D membership implemented for prime fields")
    b = _as_polys(field, b)
    bounds = tuple(w * 2 * d for w in WEIGHTS)
    if any(p.degree > bound for p, bound in zip(b, bounds)):
        raise ValueError("coefficient degrees exceed the B_D box")
    delta = disc_poly(field, b)
    ord_inf = None if delta.is_zero() else 24 * d - delta.degree
    if ord_inf is None or ord_inf > 1 or not polys.is_squarefree(delta):
        return XDMembership(False, None, ord_inf, delta)
    certify_i1_by_row(b, delta)
    if ord_inf:
        top = tuple(Poly.const(field, p[k]) for p, k in zip(b, bounds))
        certify_i1_by_row(top, Poly.x(field))
    bad = len(polys.factor(delta)) + ord_inf
    return XDMembership(True, bad, ord_inf, delta)


def xd_box_filter_unsieved(p, coeff_arrays):
    """The X_D mask of ``numkernels.xd_box_filter`` with no sieve: Delta of
    every row (``delta_poly_batch``) and the row test ``xd_delta_mask``."""
    d = (coeff_arrays[0].shape[1] - 1) // 2
    return numkernels.xd_delta_mask(numkernels.delta_poly_batch(p, coeff_arrays), d, p)


def double_zero_of_degree_one(field, delta, d):
    """Whether a boxed Delta of formal degree 24 d has a double zero at a
    place of degree 1: Delta(a) = Delta'(a) = 0 at some a in the field
    (everywhere for Delta = 0), or 24 d - deg Delta >= 2 at infinity."""
    if delta.is_zero() or 24 * d - delta.degree >= 2:
        return True
    slope = delta.derivative()
    return any(delta(a) == field.zero and slope(a) == field.zero for a in field)


# -- minimal models in RatFunc arithmetic --


def minimal_data_by_ratfunc(field, b):
    """``curves.minimal_data`` with every step over F_q(t): Delta of the
    RatFunc tuple for the nonzero test, n_v = max_i ceil(-ord_v(b_i) / w_i)
    from ``support``, and b_i times scale^w_i for scale the RatFunc product
    of pi^n_v over the finite places."""
    b = [x if isinstance(x, RatFunc) else RatFunc(x) for x in b]
    if quartic_disc(tuple(b)).is_zero():
        raise ValueError("discriminant must be nonzero")
    ords = {}
    for i, r in enumerate(b):
        if not r.is_zero():
            for place, o in support(r):
                ords.setdefault(place, [0, 0, 0, 0])[i] += o
    n_map = {}
    for place, place_ords in ords.items():
        n_v = max(-(o // w) for r, o, w in zip(b, place_ords, WEIGHTS) if not r.is_zero())
        if n_v:
            n_map[place] = n_v
    scale = prod(
        (RatFunc(place.poly) ** n_v for place, n_v in n_map.items() if not place.is_infinite),
        start=RatFunc(Poly.const(field, field.one)),
    )
    b_min = tuple(r * scale**w for r, w in zip(b, WEIGHTS))
    degree = sum(n_v * place.degree for place, n_v in n_map.items())
    return MinimalData(n_map, b_min, degree)
