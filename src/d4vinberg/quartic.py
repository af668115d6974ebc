"""The quartic discriminant, its invariants and the Weierstrass model.

The basic object is f(t) = t^4 + p2 t^3 + p4 t^2 + p6 t + q4^2 (the
homogeneous convention: weights (1,2,2,3) on (p2,p4,q4,p6) with t of weight
2 rescale f by weight 12).  Delta(b) = disc(f) (``delta``) and (A, B) =
(-27 I, -27 J) (``weierstrass``), with I, J the invariants of f in the
normalization 27 Delta = 4 I^3 - J^2 of Cremona (2001) and Bhargava-Shankar
(2015), are one division-free straight-line program over a ``(mul, add,
scale)`` ring triple, valid in every characteristic: ints, ``MPoly``, field
elements and F_q[t] through Python's operators (``quartic_disc``), and the
numpy representations of ``numkernels``.  Over F_q(t), ``curves.minimal_data``
tests Delta on F_q[t] after clearing denominators by weight; RatFunc stays
at the API boundary.  The root of the first subresultant S1 = s1 x + s0 of
(f, f') (``first_subresultant``) is the double root of f where Delta
vanishes, and ``homogenized`` gives Z^4 f(X/Z) and its X-partial; both are
programs over the same rings.  Over first-order jets (``numkernels``) the
program also gives grad Delta.  ``disc_univariate`` is the discriminant of
any univariate polynomial over a field, from Res(f, f'); the expanded Delta
and the classical invariants I, J are the tests' oracles.
"""

from .multipoly import PY_RING
from . import polys


def _lin(ring, *terms):
    """sum of c * x over (int c, ring element x); c = 1 adds x unscaled."""
    _, add, scale = ring
    acc = None
    for c, x in terms:
        t = x if c == 1 else scale(c, x)
        acc = t if acc is None else add(acc, t)
    return acc


def _ij_prelude(b, ring):
    """(p4, d, bb, u, s, w) of b = (p2, p4, q4, p6), with (a, b, c, d) =
    (p2, p4, p6, q4^2), bb = b^2, u = 4d - ac, s = 8d + ac and w = c^2 +
    a^2 d: then I = bb + 3u and J = 9bs - 2b bb - 27w (six products)."""
    mul = ring[0]
    p2, p4, q4, p6 = b
    d = mul(q4, q4)
    ac = mul(p2, p6)
    bb = mul(p4, p4)
    u = _lin(ring, (4, d), (-1, ac))
    s = _lin(ring, (8, d), (1, ac))
    w = _lin(ring, (1, mul(p6, p6)), (1, mul(mul(p2, p2), d)))
    return p4, d, bb, u, s, w


def delta(b, ring=PY_RING):
    """Delta(b) for b = (p2, p4, q4, p6) over any commutative ring, as one
    division-free straight-line program of 12 ring products:

        Delta = bb (u^2 + d (72u - 432d + 16bb)) + 4u^3
                + w (-27w + b (18s - 4bb))

    in the notation of ``_ij_prelude``; it equals the expanded
    discriminant in ZZ[p2, p4, q4, p6], so it holds in every
    characteristic.  The ring is
    a ``(mul, add, scale)`` triple as in ``MPoly.eval``; constants enter
    as int scalings.
    """
    mul, add, scale = ring
    p4, d, bb, u, s, w = _ij_prelude(b, ring)
    uu = mul(u, u)
    return _lin(
        ring,
        (1, mul(bb, add(uu, mul(d, _lin(ring, (72, u), (-432, d), (16, bb)))))),
        (4, mul(uu, u)),
        (1, mul(w, add(scale(-27, w), mul(p4, _lin(ring, (18, s), (-4, bb)))))),
    )


def first_subresultant(b, ring):
    """(s1, s0) with S1 = s1 x + s0 the first subresultant of (f, f'), as
    a division-free program of eleven products over a ``(mul, add,
    scale)`` ring, like ``delta``:

        s1 = 2 (a^2 (3ac - bb + 6d) + b (4bb - 14ac - 16d) + 18c^2)
        s0 = c (4bb - 3ac - a^2 b + 48d) + ad (9a^2 - 32b)

    with (a, b, c, d) = (p2, p4, p6, q4^2), bb = b^2 and ac = a c.  They
    are the minors of the 5x6 Sylvester matrix of (f, f') that carry x^1
    and x^0.  Where Res(f, f') = 0 and s1 != 0, gcd(f, f') is S1 up to a
    unit, so x0 = -s0/s1 is the one double root of f.
    """
    mul = ring[0]
    p2, p4, q4, p6 = b
    d, aa, ac, bb = mul(q4, q4), mul(p2, p2), mul(p2, p6), mul(p4, p4)
    s1 = _lin(
        ring,
        (2, mul(aa, _lin(ring, (3, ac), (-1, bb), (6, d)))),
        (2, mul(p4, _lin(ring, (4, bb), (-14, ac), (-16, d)))),
        (36, mul(p6, p6)),
    )
    s0 = _lin(
        ring,
        (1, mul(p6, _lin(ring, (4, bb), (-3, ac), (-1, mul(aa, p4)), (48, d)))),
        (1, mul(mul(p2, d), _lin(ring, (9, aa), (-32, p4)))),
    )
    return s1, s0


def homogenized(b, point, ring):
    """(Fh, dFh/dX) at point = (X, Z), with Fh(X, Z) = Z^4 f(X/Z), as a
    division-free program of thirteen products over a ring:

        Fh = X^2 (X^2 + p2 XZ + p4 Z^2) + Z^3 (p6 X + q4^2 Z)
        dFh/dX = X (4 X^2 + 3 p2 XZ + 2 p4 Z^2) + p6 Z^3
    """
    mul = ring[0]
    p2, p4, q4, p6 = b
    x, z = point
    xx, zz = mul(x, x), mul(z, z)
    z3 = mul(zz, z)
    p2xz, p4zz = mul(p2, mul(x, z)), mul(p4, zz)
    fh = _lin(
        ring,
        (1, mul(xx, _lin(ring, (1, xx), (1, p2xz), (1, p4zz)))),
        (1, mul(z3, _lin(ring, (1, mul(p6, x)), (1, mul(mul(q4, q4), z))))),
    )
    dfh = _lin(ring, (1, mul(x, _lin(ring, (4, xx), (3, p2xz), (2, p4zz)))), (1, mul(p6, z3)))
    return fh, dfh


def weierstrass(b, ring=PY_RING):
    """(A, B) = (-27 I, -27 J) of b = (p2, p4, q4, p6): y^2 = x^3 + A x + B
    is the Jacobian of w^2 = f(t) (seven ring products)."""
    mul = ring[0]
    p4, _, bb, u, s, w = _ij_prelude(b, ring)
    return (
        _lin(ring, (-27, bb), (-81, u)),
        _lin(ring, (-27, mul(p4, _lin(ring, (9, s), (-2, bb)))), (729, w)),
    )


def quartic_disc(b):
    """``delta`` over Python's operators: entries in any commutative ring
    with +, * and int multiples.  Not an alias, so that rebinding it (as a
    tracer does) leaves the numpy kernels' ``delta`` alone."""
    return delta(b)


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
