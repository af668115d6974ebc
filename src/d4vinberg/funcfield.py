"""The rational function field F_q(t): places, rational functions and
their supports.

Finite places are monic irreducible polynomials pi(t); the place at infinity
is first-class with uniformizer 1/t, so global degree bookkeeping (product
formula, section degrees on P^1) flows through it uniformly.  ``support``
gives the valuations of a rational function at every place where it is not
zero, from one factorization of its numerator and denominator.
"""

from . import polys
from .fields import extension_of
from .polys import Poly


class Place:
    """A place of F_q(t): finite (monic irreducible) or infinite."""

    __slots__ = ("field", "poly", "degree", "_kv")

    def __init__(self, field, poly=None, _trusted=False):
        self.field = field
        self._kv = None
        if poly is None:
            self.poly = None  # the place at infinity
            self.degree = 1
        else:
            if poly.lead() != field.one:
                poly = poly.monic()
            if not _trusted and not polys.is_irreducible(poly):
                raise ValueError("finite places require an irreducible polynomial")
            self.poly = poly
            self.degree = poly.degree

    @staticmethod
    def infinite(field):
        return Place(field, None)

    @property
    def is_infinite(self):
        return self.poly is None

    def residue_field(self):
        """k(v) as an extension of the constant field (cached per place)."""
        if self.is_infinite or self.degree == 1:
            return self.field
        if self._kv is None:
            self._kv = extension_of(self.field, self.poly.coeffs, trusted=True)
        return self._kv

    def reduce_poly(self, f: Poly):
        """Image of f in k(v) (finite places; degree-1 places give F_q)."""
        if self.is_infinite:
            raise ValueError("reduce_poly needs a finite place")
        r = f % self.poly
        if self.degree == 1:
            return r(-self.poly[0])
        return self.residue_field().elem([c for c in r.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.field == other.field
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.field, self.poly))

    def __repr__(self):
        return "Place(oo)" if self.is_infinite else f"Place({self.poly.to_str()})"


class RatFunc:
    """Element of F_q(t), stored as num/den with den monic and gcd 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        self.field = num.field
        if den is None:
            den = Poly.const(self.field, self.field.one)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = polys.gcd(num, den)
        if not g.is_constant():
            num, den = num // g, den // g
        c = den.lead().inverse()
        self.num = num * c
        self.den = den * c

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, k):
        if k < 0:
            return RatFunc(self.den**-k, self.num**-k)
        return RatFunc(self.num**k, self.den**k)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        poly = self.num._coerce(other)
        if poly is None:
            raise TypeError(f"{other!r} is not an element of {self.field}(t)")
        return RatFunc(poly)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"RatFunc({self.num.to_str()!r} / {self.den.to_str()!r})"


def count_monic_irreducibles(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q (necklace count)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _moebius(n // d) * q**d
    return total // n


def _moebius(n):
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def support(r) -> list:
    """Places where ord_v(r) != 0, with their orders (includes oo).  The
    finite places are the factors of ``polys.factor``, irreducible by
    construction, so they are not tested again."""
    if isinstance(r, Poly):
        r = RatFunc(r)
    if r.is_zero():
        raise ValueError("support of zero")
    field = r.field
    out = []
    for f, mult in polys.factor(r.num):
        if f.degree > 0:
            out.append((Place(field, f, _trusted=True), mult))
    for f, mult in polys.factor(r.den):
        if f.degree > 0:
            out.append((Place(field, f, _trusted=True), -mult))
    o_inf = r.den.degree - r.num.degree
    if o_inf != 0:
        out.append((Place.infinite(field), o_inf))
    return out
