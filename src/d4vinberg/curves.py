"""Doubly-marked plane cubics and their arithmetic.

Model: Y(XY + 2 q4 Z^2) = X^3 + p2 X^2 Z + p4 X Z^2 + p6 Z^3, with the three
collinear marked points O = [0:1:0], P = [-1:1:0], Q = [1:1:0] on Z = 0.
The group law is chord-tangent with base point O directly on the plane
model, by the polar forms of the cubic, so divisibility questions never
leave the curve.  It runs in the coordinates of ``field.coords``, ints
over a prime field (``fields`` owns that choice).  Multiplying the affine
equation by x gives (xy + q4)^2 = f(x) with f the defining quartic, which
ties the curves to the invariant theory.

Over F_q(t), the numpy row test ``numkernels.xd_delta_mask`` decides
membership in X_D: ``sample_xd`` reads it through the sieved box filter
``numkernels.xd_box_filter``, and ``xd_membership`` runs it on the Delta
of every tuple of a block, then certifies every bad fibre of each member
I1 at once in F_q[t]/(Delta) and counts its bad places by Berlekamp's
matrix.

Desk-scale enumeration is guarded by max_q (default 101).
"""

from functools import cached_property
from math import lcm, prod

import numpy as np

from . import numkernels, polys
from .fields import extension_of
from .funcfield import RatFunc, support
from .polys import Poly
from .quartic import quartic_disc, quartic_poly, weierstrass
from .rng import det_rng

DEFAULT_MAX_Q = 101


class PointedCurve:
    """Smooth pointed cubic over a finite field with the chord-tangent law.

    b, O, P, Q and the points of the law are held in ``field.coords``
    (ints in [0, p) or FElems), and ``equation`` to ``add`` are written
    once for both; ``_third`` reduces its point.  FElems leave by
    ``points`` and ``doubled_set``; ``order_of`` and ``is_two_divisible``
    take a point in either form.

    The curve side of the paper needs E[2] and 2E, and both come from one
    doubling table, ``_doubled``: #E[2] = #E / #2E and t is 2-divisible
    iff t is in the table.  A chord or tangent (``_third``) costs two
    gradients, a value of F for a tangent, and one inverse.  ``order_of``
    and ``group_structure`` add points until they reach O; nothing on the
    verification path calls them.
    """

    def __init__(self, field, b, max_q=DEFAULT_MAX_Q):
        self.field = field
        b = tuple(field.elem(x) for x in b)
        if not quartic_disc(b):
            raise ValueError("singular curve: discriminant vanishes")
        if field.order > max_q:
            raise ValueError(f"field size {field.order} exceeds enumeration bound {max_q}")
        self.coords = field.coords
        self.b = self._coord(b)
        self.O, self.P, self.Q = map(self._coord, ((0, 1, 0), (-1, 1, 0), (1, 1, 0)))

    def _coord(self, pt):
        return tuple(map(self.coords.coord, pt))

    def _box(self, pt):
        return tuple(map(self.coords.box, pt))

    # -- the plane model --

    def equation(self, pt):
        x, y, z = pt
        p2, p4, q4, p6 = self.b
        return (
            x * y * y
            + 2 * q4 * y * z * z
            - (x ** 3 + p2 * x * x * z + p4 * x * z * z + p6 * z ** 3)
        )

    def gradient(self, pt):
        x, y, z = pt
        p2, p4, q4, p6 = self.b
        fx = y * y - 3 * x * x - 2 * p2 * x * z - p4 * z * z
        fy = 2 * x * y + 2 * q4 * z * z
        fz = 4 * q4 * y * z - p2 * x * x - 2 * p4 * x * z - 3 * p6 * z * z
        return (fx, fy, fz)

    def _normalize(self, pt):
        """The reduced nonzero pt scaled to 1 at its last nonzero coordinate."""
        k = self.coords
        s = k.inverse(next(c for c in reversed(pt) if c))
        return tuple(k.reduce([c * s for c in pt]))

    # -- chord-tangent machinery --

    def _third(self, p1, p2):
        """Third intersection of the line through p1, p2 (tangent if equal).

        For p1 on F, F(s p1 + t r) = s^2 t A + s t^2 B + t^3 C with A =
        grad F(p1).r, B = grad F(r).p1, C = F(r).  A chord (r = p2, C = 0)
        meets F again at B p1 - A p2.  A tangent takes r = grad F(p1) x e_i
        (A = 0) for the first i with p1_i != 0: r_i = 0, so r is no multiple
        of p1, and r != 0, since grad F(p1).p1 = 0 (Euler) and p1_i != 0
        keep grad F(p1) off e_i.  It meets F again at C p1 - B r.
        """
        k = self.coords
        if p1 == p2:
            gx, gy, gz = self.gradient(p1)
            i = next(i for i, v in enumerate(p1) if v)
            r = ((k.zero, gz, -gy), (-gz, k.zero, gx), (gy, -gx, k.zero))[i]
            b, c = k.dot(self.gradient(r), p1), self.equation(r)
            pt = [c * x - b * y for x, y in zip(p1, r)]
        else:
            a, b = k.dot(self.gradient(p1), p2), k.dot(self.gradient(p2), p1)
            pt = [b * x - a * y for x, y in zip(p1, p2)]
        pt = k.reduce(pt)
        assert any(pt), "line contained in a smooth cubic"
        return self._normalize(pt)

    def add(self, p1, p2):
        return self._third(self.O, self._third(p1, p2))

    def order_of(self, p):
        p = cur = self._coord(p)
        n = 1
        while cur != self.O:
            cur = self.add(cur, p)
            n += 1
        return n

    # -- enumeration --

    @cached_property
    def _points(self):
        """O, P, Q, then the affine points in field order, in coordinates."""
        k = self.coords
        p2, p4, q4, p6 = self.b
        xs = list(map(k.coord, self.field))
        sqrt_table = {}
        for x, sq in zip(xs, k.reduce([x * x for x in xs])):
            sqrt_table.setdefault(sq, x)
        # x y^2 + 2 q4 y - g(x) = 0; discriminant/4 = f(x) for the quartic
        quartic = k.reduce([(((x + p2) * x + p4) * x + p6) * x + q4 * q4 for x in xs])
        affine = []
        for x, fx in zip(xs, quartic):
            if not x:
                if q4:
                    affine.append((x, p6 * k.inverse(2 * q4)))
                continue
            root = sqrt_table.get(fx)
            if root is None:
                continue
            xinv = k.inverse(x)
            affine.append((x, (root - q4) * xinv))
            if fx:
                affine.append((x, (-q4 - root) * xinv))
        ys = k.reduce([y for _, y in affine])
        pts = [self.O, self.P, self.Q] + [(x, y, k.one) for (x, _), y in zip(affine, ys)]
        assert not any(k.reduce(map(self.equation, pts))), "a point off the curve"
        return pts

    def points(self):
        """E(F_q) as FElem triples: O, P, Q, then the affine points."""
        return [self._box(pt) for pt in self._points]

    def point_count(self):
        n = len(self._points)
        q = self.field.order
        assert (n - q - 1) ** 2 <= 4 * q, "Hasse bound violated"
        return n

    def group_structure(self):
        """(n1, n2) with E(F_q) = Z/n1 x Z/n2, n1 | n2, from the order of
        every point (uncached; the demo prints it, the tests use it as the
        oracle of the doubling table)."""
        pts = self._points
        n = len(pts)
        exponent = 1
        for p in pts:
            exponent = lcm(exponent, self.order_of(p))
        n1, n2 = n // exponent, exponent
        assert n1 * n2 == n and n2 % n1 == 0, "not of rank <= 2 shape"
        return n1, n2

    @cached_property
    def _doubled(self):
        """2E(F_q) = {P + P} in coordinates, built once per curve."""
        return frozenset(self.add(p, p) for p in self._points)

    def doubled_set(self):
        """2E(F_q) as FElem triples."""
        return frozenset(map(self._box, self._doubled))

    def two_torsion_count(self):
        """#E[2] = #E / #2E: doubling is a homomorphism with kernel E[2]."""
        n, m = len(self._points), len(self._doubled)
        assert n % m == 0 and n // m in (1, 2, 4), "doubling table is not a group map"
        return n // m

    def is_two_divisible(self, t):
        """t in 2E(F_q), read from the doubling table."""
        return self._coord(t) in self._doubled


def curve_group(field, b, max_q=DEFAULT_MAX_Q):
    """(point count, two-torsion count) of the pointed cubic; no element
    order is computed."""
    curve = PointedCurve(field, b, max_q=max_q)
    return curve.point_count(), curve.two_torsion_count()


def to_weierstrass(field, b):
    """(A, B): y^2 = x^3 + A x + B isomorphic to the pointed cubic.

    Route: multiply the affine equation by x to get (xy + q4)^2 = f(x) and
    take the Jacobian of the binary quartic.
    """
    return weierstrass(tuple(field.elem(x) for x in b))


def weierstrass_count(field, a_coef, b_coef):
    """#{y^2 = x^3 + Ax + B} including infinity, by the character sum."""
    n = 1
    cubic = Poly(field, [b_coef, a_coef, field.zero, field.one])
    for x in field:
        n += 1 + field.chi(cubic(x))
    return n


def weierstrass_two_torsion(field, a_coef, b_coef):
    """Two-torsion count via the 2-division polynomial x^3 + Ax + B."""
    cubic = Poly(field, [b_coef, a_coef, field.zero, field.one])
    return 1 + len(polys.roots(cubic))


# -- minimal integral data over F_q(t) --

WEIGHTS = (1, 2, 2, 3)


class MinimalData:
    """n_v exponents, the rescaled minimal tuple, and deg L."""

    __slots__ = ("n", "b_min", "L_degree")

    def __init__(self, n, b_min, L_degree):
        self.n = n
        self.b_min = b_min
        self.L_degree = L_degree

    def __repr__(self):
        return f"MinimalData(L_degree={self.L_degree}, places={len(self.n)})"


def delta_vanishes(b):
    """Whether Delta(b) = 0 for b in F_q(t)^4, tested on F_q[t]: with D the
    monic lcm of the denominators, Delta(b_i D^w_i) = D^24 Delta(b)."""
    den = b[0].den
    for r in b[1:]:
        den = den * (r.den // polys.gcd(den, r.den))
    cleared = [r.num * (den // r.den) * den ** (w - 1) for r, w in zip(b, WEIGHTS)]
    return quartic_disc(cleared).is_zero()


def minimal_data(field, b) -> MinimalData:
    """Minimal weighted-integral model of b = (p2, p4, q4, p6) over F_q(t).

    n_v = max_i ceil(-ord_v(b_i) / w_i) over the nonzero coefficients; the
    rescaled tuple (pi^n p2, pi^2n p4, pi^2n q4, pi^3n p6) is v-integral with
    n_v minimal.  Places with n_v = 0 are omitted from the map; deg L sums
    n_v deg v over all places including infinity.

    b_min is the finite-normalized representative (no common weighted factor
    at any finite place); the exponent at infinity has no global uniformizer
    to absorb it and lives in the bundle degree, so b_min is a fixed point:
    rerunning on it leaves no finite places and reproduces it.

    All arithmetic is on F_q[t] (``delta_vanishes``, then two products of
    polynomials), and each entry of b_min is formed once as a RatFunc.
    """
    b = [x if isinstance(x, RatFunc) else RatFunc(x) for x in b]
    if delta_vanishes(b):
        raise ValueError("discriminant must be nonzero")
    # a place outside every support has n_v = 0, so it needs no entry
    ords = {}
    for i, r in enumerate(b):
        if not r.is_zero():
            for place, o in support(r):
                ords.setdefault(place, [0, 0, 0, 0])[i] += o
    n_map = {}
    for place, place_ords in ords.items():
        n_v = max(_ceil_div(-o, w) for r, o, w in zip(b, place_ords, WEIGHTS) if not r.is_zero())
        if n_v:
            n_map[place] = n_v
    # rescale by the finite part; infinity is bookkeeping only
    finite = [(place.poly, n_v) for place, n_v in n_map.items() if not place.is_infinite]
    up = prod((pi**n for pi, n in finite if n > 0), start=Poly.const(field, field.one))
    down = prod((pi**-n for pi, n in finite if n < 0), start=Poly.const(field, field.one))
    b_min = tuple(RatFunc(r.num * up**w, r.den * down**w) for r, w in zip(b, WEIGHTS))
    degree = sum(n_v * place.degree for place, n_v in n_map.items())
    return MinimalData(n_map, b_min, degree)


def _ceil_div(a, b):
    return -((-a) // b)


# -- membership in the squarefree family X_D --


class XDMembership:
    __slots__ = ("in_xd", "bad_places", "ord_inf", "delta")

    def __init__(self, in_xd, bad_places, ord_inf, delta):
        self.in_xd = in_xd
        self.bad_places = bad_places
        self.ord_inf = ord_inf
        self.delta = delta

    def __repr__(self):
        return f"XDMembership(in_xd={self.in_xd}, ord_inf={self.ord_inf})"


def xd_membership(field, bs, d):
    """Membership in H^0(X, B_D)^sf, D = d*infinity, of each tuple of bs.

    bs: tuples of four Polys (p2, p4, q4, p6) over a prime field, subject
    to degree bounds (2d, 4d, 4d, 6d), all checked before any work; one
    XDMembership per tuple, in order.  One ``numkernels.delta_poly_batch``
    call gives every Delta, with no sieve, as non-members report theirs
    too, and one ``numkernels.xd_delta_mask`` call each in_xd: Delta
    nonzero and squarefree and ord_inf = 24d - deg Delta <= 1.  A
    non-member has bad_places None; a member's counts the zeros of Delta
    (``numkernels.berlekamp_nullity``, one call for the block) and
    infinity when ord_inf = 1.
    One certificate, ``_certify_i1_block``, covers every bad fibre of the
    block: the finite ones of each member at once in F_q[t]/(Delta), and
    the one at infinity in F_q[s]/(s) on the coefficients of b at the box
    degrees 2dw (weights w): the tuple (s^2dw b(1/s)) in the chart s =
    1/t, whose Delta vanishes at s = 0 to order ord_inf, reduced at s = 0.
    A fibre that is not I1 raises AssertionError, so every bad place of a
    member is I1.
    """
    if field.order != field.char:
        raise ValueError("X_D membership implemented for prime fields")
    bs = [_as_polys(field, b) for b in bs]
    bounds = tuple(w * 2 * d for w in WEIGHTS)
    if any(p.degree > bound for b in bs for p, bound in zip(b, bounds)):
        raise ValueError("coefficient degrees exceed the B_D box")
    arrays = [_pack([b[i] for b in bs], k + 1) for i, k in enumerate(bounds)]
    rows = numkernels.delta_poly_batch(field.char, arrays)
    mask = numkernels.xd_delta_mask(rows, d, field.char)
    deltas = [
        Poly._of(field, row[: k + 1].tolist()) for row, k in zip(rows, numkernels.row_degrees(rows))
    ]
    ord_inf = [None if delta.is_zero() else 24 * d - delta.degree for delta in deltas]
    members = np.flatnonzero(mask).tolist()
    # each member's finite pair, then its pair at infinity, in block order
    pairs = []
    for i in members:
        pairs.append((bs[i], deltas[i]))
        if ord_inf[i]:
            top = tuple(Poly.const(field, p[k]) for p, k in zip(bs[i], bounds))
            pairs.append((top, Poly.x(field)))
    _certify_i1_block(field, pairs)
    bad = dict(zip(members, numkernels.berlekamp_nullity(rows[members], field.char).tolist()))
    return [
        XDMembership(i in bad, bad[i] + ord_inf[i] if i in bad else None, ord_inf[i], delta)
        for i, delta in enumerate(deltas)
    ]


def _pack(polys_, width):
    """The coefficients of Polys over a prime field, lowest degree first,
    as the rows of an (N, width) int64 array."""
    return np.array([f.vals + (0,) * (width - len(f.vals)) for f in polys_], np.int64).reshape(
        -1, width
    )


# the tests of the I1 certificate, in order, and whether each value must
# be a unit (else zero) mod Delta
I1_TESTS = (("s1 unit", True), ("x0 unit", True), ("f(x0) = 0", False), ("f'(x0) = 0", False))


def _certify_i1_block(field, pairs):
    """For each pair (b, Delta) of a block, the fibre of b at every zero of
    Delta is I1, certified in A = F_q[t]/(Delta), the product of the
    residue fields k_v (Della Dora, Dicrescenzo & Duval, EUROCAL '85): an
    identity or a unit in A holds at every place at once.  The tests of
    ``kodaira_of_reduction`` read, in A:

    - s1 is a unit (``quartic.first_subresultant``): with Res(f, f') =
      Delta = 0, gcd(f, f') has degree 1 at every v, and x0 = -s0/s1 is
      its root; f(x0) = f'(x0) = 0 confirms the double root, and it is
      not a triple root, which would give gcd(f, f') degree 2;
    - x0 is a unit (so is s0), and fx = fy = fval = 0 at (x0, y0 =
      -q4/x0), the singular point of the plane model.  With x0 y0 = -q4,
      fy = 2 x0 y0 + 2 q4 is 0, x0^2 fx = f(x0) - x0 f'(x0) and x0 fval =
      -f(x0): the zero tests of f(x0) and f'(x0) give all three;
    - the Hessian det_h of the point is a unit: the point is a node.  As
      det_h = -2 f''(x0) - 4 fx identically, with fx = 0 it is
      -2 f''(x0), and f''(x0) vanishes at a double root only if it is a
      triple root (characteristic not 2), which the unit s1 excludes.

    So only s1 and x0 are tested as units, and f(x0) and f'(x0) as zeros,
    at (X : Z) = (-s0 : s1), with no inverse: the units as one pair,
    gcd(s1 s0, Delta) = 1, the zeros as Fh = Z^4 f(x0) and dFh/dX =
    Z^3 f'(x0) for Fh(X, Z) = Z^4 f(X/Z), one remainder mod Delta each; Z
    is a unit, so they vanish where f(x0) and f'(x0) do.  By Tate's
    algorithm ord_v Delta = 1 forces I1.

    The pairs run on numpy by ``numkernels.i1_certificate``, grouped by
    deg Delta; a Delta of degree < 1 has no zero to test.  The first
    failing pair in block order raises AssertionError naming its first
    failed test (``I1_TESTS``) and gcd(value, Delta), which is 1 for a
    unit and Delta for a zero.
    """
    failed = []
    for n in {delta.degree for _, delta in pairs if delta.degree >= 1}:
        group = [i for i, (_, delta) in enumerate(pairs) if delta.degree == n]
        coeffs = [
            _pack(column, max(1, max(len(f.vals) for f in column)))
            for column in zip(*(pairs[i][0] for i in group))
        ]
        moduli = _pack([pairs[i][1] for i in group], n + 1)
        ok, values = numkernels.i1_certificate(field.char, coeffs, moduli)
        if not ok.all():
            j = int(np.argmin(ok))
            failed.append((group[j], [v[j] for v in values]))
    if failed:
        i, values = min(failed, key=lambda f: f[0])
        delta = pairs[i][1]
        for (name, unit), value in zip(I1_TESTS, values):
            g = polys.gcd(Poly(field, value.tolist()), delta)
            if g.degree != (0 if unit else delta.degree):
                raise AssertionError(f"{name} fails: gcd with Delta {g.to_str()}")


def kodaira_of_reduction(kv, b_red):
    """Fibre type of the reduced cubic over the residue field kv.

    I0 for smooth reduction; I1 when the quartic has a single double root
    (two simple others) whose plane point is a node; 'other' otherwise.
    The double root, when unique, is automatically rational, so locating
    the singular point needs no residue-field enumeration.  Per place it
    is the oracle of ``_certify_i1_block``.
    """
    delta = quartic_disc(b_red)
    if delta:
        return "I0"
    p2, p4, q4, p6 = b_red
    fbar = quartic_poly(kv, b_red)
    g = polys.gcd(fbar, fbar.derivative())
    if g.degree != 1:
        return "other"
    delta_root = -g[0]  # g monic linear
    # double but not triple
    sq = Poly(kv, [delta_root * delta_root, -2 * delta_root, kv.one])
    if (fbar // sq) (delta_root) == kv.zero:
        return "other"
    if not delta_root:
        # double root at 0 forces q4 = p6 = 0: reducible fibre
        return "other"
    y0 = -q4 * delta_root.inverse()
    # certify the singular point on the plane model
    x0 = delta_root
    fx = y0 * y0 - 3 * x0 * x0 - 2 * p2 * x0 - p4
    fy = 2 * x0 * y0 + 2 * q4
    fval = x0 * y0 * y0 + 2 * q4 * y0 - (x0 ** 3 + p2 * x0 * x0 + p4 * x0 + p6)
    assert not fx and not fy and not fval, "singular point certificate failed"
    # tangent cone rank 2 <=> nodal
    hxx = -6 * x0 - 2 * p2
    hxy = 2 * y0
    hyy = 2 * x0
    det_h = hxx * hyy - hxy * hxy
    return "I1" if det_h else "other"


def _as_polys(field, b):
    """b with each constant lifted to a constant Poly over field."""
    return tuple(x if isinstance(x, Poly) else Poly.const(field, field.elem(x)) for x in b)


def in_xd_fast(field, b, d) -> bool:
    """Boxed one-row in_XD test: nonzero squarefree discriminant, simple at
    infinity; the oracle of ``numkernels.xd_box_filter``."""
    delta = quartic_disc(_as_polys(field, b))
    if delta.is_zero():
        return False
    if 24 * d - delta.degree > 1:
        return False
    return polys.is_squarefree(delta)


SAMPLE_BLOCK = 512  # rows per block of sample_xd


def sample_xd(field, d, count, seed):
    """Uniform rejection sampling of H^0(X, B_D)^sf coefficient tuples over
    a prime field, within 200 count + 1000 tries.

    The tries come in blocks of SAMPLE_BLOCK rows, one (SAMPLE_BLOCK,
    16 d + 4) draw from the stream (seed, "sample-xd") with columns
    p2 | p4 | q4 | p6: the draws of one scalar per coefficient, tuple by
    tuple.  ``numkernels.xd_box_filter`` tests a block (the mask only,
    sieved at the places of degree 1 where they are few), and its
    members are accepted in order, so the samples and the count of tries
    are those of one row at a time.
    """
    p = field.char
    if field.order != p:
        raise ValueError("X_D sampling implemented for prime fields")
    if d < 0:
        raise ValueError(f"divisor degree d = {d} must be >= 0")
    max_tries = 200 * count + 1000
    widths = [w * 2 * d + 1 for w in WEIGHTS]
    splits = np.cumsum(widths)[:-1]
    rng = det_rng(seed, "sample-xd")
    out = []
    drawn = 0
    while len(out) < count:
        block = rng.integers(0, p, size=(SAMPLE_BLOCK, sum(widths)), dtype=np.int64)
        mask = numkernels.xd_box_filter(p, np.split(block, splits, axis=1))
        for i in np.flatnonzero(mask)[: count - len(out)]:
            if drawn + i >= max_tries:
                break
            out.append(tuple(Poly(field, c.tolist()) for c in np.split(block[i], splits)))
        drawn += SAMPLE_BLOCK
        if len(out) < count and drawn >= max_tries:
            raise RuntimeError(f"rejection sampling exceeded {max_tries} tries")
    return out


# -- stabilizer side of the 2-torsion identity --


def stabilizer_count_from_degrees(degrees):
    """#Z_G(kappa_b)(F_q) from the factor degrees of the eigenvalue quartic.

    Geometric 2-torsion classes are even sign patterns on the four
    eigenline pairs modulo a global flip; Frobenius permutes the pairs as
    it permutes the quartic's roots, so rationality is epsilon o sigma =
    +/- epsilon.
    """
    assert sum(degrees) == 4
    sigma = [0] * 4
    start = 0
    for d in degrees:
        for i in range(d):
            sigma[start + i] = start + (i + 1) % d
        start += d
    count = 0
    for mask in range(16):
        eps = [1 if mask & (1 << i) else -1 for i in range(4)]
        if eps[0] * eps[1] * eps[2] * eps[3] != 1:
            continue
        if all(eps[sigma[i]] == eps[i] for i in range(4)) or all(
            eps[sigma[i]] == -eps[i] for i in range(4)
        ):
            count += 1
    assert count % 2 == 0
    return count // 2


def stabilizer_two_torsion(inv, b):
    """#Z_G(kappa_b)(F_q) computed on the group side, over the field F_q of
    inv's context (a prime field or an extension GF(p, m)).

    Takes the calibrated invariant context, forms kappa_b, reads off the
    even characteristic quartic of its matrix (the eigenvalue-pair data of
    the Cartan it spans), and counts Frobenius-stable even sign patterns.
    """
    ctx = inv.ctx
    b = tuple(ctx.field.elem(x) for x in b)
    if not quartic_disc(b):
        raise ValueError("Delta(b) = 0")
    g = ctx.char_quartic(inv.kostant_section(b))
    degrees = []
    for fpoly, mult in polys.factor(g):
        degrees += [fpoly.degree] * mult
    return stabilizer_count_from_degrees(sorted(degrees))


# -- K-rational 2-torsion over the function field --


def two_torsion_field_rank(field, b_polys):
    """Number of K-rational roots of the 2-division cubic of the quartic
    model over K = F_q(t); 0 means E(K)[2] is trivial.

    A K-root of the monic cubic is a polynomial of degree <= bound, and in
    the residue field F_q[t]/(mu) of a place of degree bound + 1 the
    coordinates of its value are its coefficients; each root there is read
    back as that polynomial and kept if it is a root over K.
    """
    a_coef, b_coef = weierstrass(_as_polys(field, b_polys))
    # at least 1 (a zero coefficient has degree -1): a residue field of
    # degree 1 is no extension
    bound = max(_ceil_div(a_coef.degree, 2), _ceil_div(b_coef.degree, 3), 1)
    mu = polys.find_irreducible(field, bound + 1)
    ext = extension_of(field, mu.coeffs, trusted=True)
    tau = ext.gen
    cubic = Poly(ext, [Poly(ext, b_coef.coeffs)(tau), Poly(ext, a_coef.coeffs)(tau), 0, 1])
    count = 0
    for root in polys.roots(cubic):
        cand = Poly(field, root.val)
        if (cand ** 3 + a_coef * cand + b_coef).is_zero():
            count += 1
    return count
