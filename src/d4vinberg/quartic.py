"""The quartic discriminant and its closed form.

The basic object is f(t) = t^4 + p2 t^3 + p4 t^2 + p6 t + q4^2 (the
homogeneous convention: weights (1,2,2,3) on (p2,p4,q4,p6) with t of weight
2 rescale f by weight 12).  Delta(b) = disc(f) is expanded once over the
integers from the Sylvester resultant Res(f, f') and cached as a sparse
integer polynomial.  Its ``MPoly.eval`` plan is compiled once, so Delta is
evaluated exactly over any commutative ring by the same code: field
elements, F_q[t] coefficients and rational functions through Python's
operators, and int-list polynomials through ``numkernels.intlist_ring``.

Over a ring of characteristic p >= 5, ``delta_ij`` is the same Delta as a
straight-line program through the invariants I, J of the quartic, 27 Delta
= 4 I^3 - J^2 (ten products against the plan's 39).  The numpy kernels of
``numkernels`` (residue arrays, dual numbers, index tables, polynomial
batches) run it; ``delta_mpoly()`` stays the expanded form and the oracle.
"""

from functools import lru_cache

from .multipoly import PY_RING, MPoly, det_mpoly
from . import polys


@lru_cache(maxsize=1)
def disc_monic_quartic_mpoly():
    """disc(t^4 + a t^3 + b t^2 + c t + d) in ZZ[a,b,c,d] (vars 0..3)."""
    a = MPoly.var(4, 0)
    b = MPoly.var(4, 1)
    c = MPoly.var(4, 2)
    d = MPoly.var(4, 3)
    one = MPoly.const(4, 1)
    zero = MPoly(4, {})
    f = [one, a, b, c, d]  # highest degree first
    df = [4 * one, 3 * a, 2 * b, c]
    rows = []
    for shift in range(3):
        rows.append([zero] * shift + f + [zero] * (2 - shift))
    for shift in range(4):
        rows.append([zero] * shift + df + [zero] * (3 - shift))
    return det_mpoly(rows)


@lru_cache(maxsize=1)
def delta_mpoly():
    """Delta(p2, p4, q4, p6) = disc(t^4+p2 t^3+p4 t^2+p6 t+q4^2), vars
    ordered (p2, p4, q4, p6).  Weighted-homogeneous of degree 12 for
    weights (1, 2, 2, 3)."""
    disc = disc_monic_quartic_mpoly()
    # disc vars: (a, b, c, d) = (p2, p4, p6, q4^2); reorder to (p2,p4,q4,p6)
    out = {}
    for e, coef in disc.terms.items():
        ea, eb, ec, ed = e
        key = (ea, eb, 2 * ed, ec)  # q4 exponent doubles, p6 takes c's slot
        out[key] = out.get(key, 0) + coef
    delta = MPoly(4, out)
    degs = delta.weighted_degrees((1, 2, 2, 3))
    assert degs == {12}, f"discriminant not weighted-homogeneous: {degs}"
    return delta


def delta_ij(b, char, ring=PY_RING):
    """Delta(b) for b = (p2, p4, q4, p6) over a ring of characteristic
    char >= 5, by the straight-line program 27 Delta = 4 I^3 - J^2.

    I and J are those of ``binary_quartic_invariants`` at (a, b, c, d) =
    (p2, p4, p6, q4^2).  The ring is a ``(mul, add, scale)`` triple as in
    ``MPoly.eval``; every constant, 27^-1 included, is an int scaling
    reduced mod char, as in ``linalg.newton_even``.  That is ten ring
    products, against 39 in the expanded plan of ``delta_mpoly``.
    """
    mul, add, scale = ring

    def lin(*terms):
        """sum of c * x over (int c, ring element x)"""
        acc = None
        for c, x in terms:
            t = scale(c % char, x)
            acc = t if acc is None else add(acc, t)
        return acc

    p2, p4, q4, p6 = b
    d = mul(q4, q4)
    ac = mul(p2, p6)
    bb = mul(p4, p4)
    i_inv = lin((12, d), (-3, ac), (1, bb))
    # J = b (72 d + 9 a c - 2 b^2) - 27 (c^2 + a^2 d)
    j_inv = add(
        mul(p4, lin((72, d), (9, ac), (-2, bb))),
        lin((-27, mul(p6, p6)), (-27, mul(mul(p2, p2), d))),
    )
    inv27 = pow(27, -1, char)
    cube = mul(mul(i_inv, i_inv), i_inv)
    return lin((4 * inv27, cube), (-inv27, mul(j_inv, j_inv)))


@lru_cache(maxsize=1)
def delta_gradient():
    d = delta_mpoly()
    return tuple(d.partial(i) for i in range(4))


def quartic_disc(b):
    """Delta(b) for b = (p2, p4, q4, p6) with entries in any commutative
    ring supporting +, -, * and multiplication by python ints."""
    return delta_mpoly().eval(tuple(b))


def quartic_poly(field, b):
    """f(t) = t^4 + p2 t^3 + p4 t^2 + p6 t + q4^2 as a Poly over field."""
    p2, p4, q4, p6 = (field.elem(x) for x in b)
    return polys.Poly(field, [q4 * q4, p6, p4, p2, field.one])


def disc_univariate(f: polys.Poly):
    """disc of a univariate polynomial over a field, via Res(f, f')/lc.

    Independent oracle path; agrees with quartic_disc on monic quartics.
    """
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    res = polys.resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    val = res * f.lead().inverse()
    return val if sign > 0 else -val


@lru_cache(maxsize=1)
def binary_quartic_invariants():
    """(I, J) of the monic quartic t^4+a t^3+b t^2+c t+d in ZZ[a,b,c,d].

    Normalized so that 4 I^3 - J^2 = 27 disc; the curve y^2 = x^3 - 27 I x
    - 27 J is the Weierstrass model of w^2 = f(t).
    """
    a = MPoly.var(4, 0)
    b = MPoly.var(4, 1)
    c = MPoly.var(4, 2)
    d = MPoly.var(4, 3)
    i_inv = 12 * d - 3 * a * c + b * b
    j_inv = 72 * b * d - 27 * c * c - 27 * a * a * d + 9 * a * b * c - 2 * b * b * b
    return i_inv, j_inv


def weierstrass_from_quartic(field, f: polys.Poly):
    """Short Weierstrass coefficients (A, B) with y^2 = x^3 + A x + B the
    Jacobian model of w^2 = f(t), f monic quartic."""
    if f.degree != 4 or f.lead() != field.one:
        raise ValueError("monic quartic required")
    a, b, c, d = f[3], f[2], f[1], f[0]
    i_inv, j_inv = binary_quartic_invariants()
    i_val = i_inv.eval((a, b, c, d))
    j_val = j_inv.eval((a, b, c, d))
    return field.elem(-27) * i_val, field.elem(-27) * j_val
