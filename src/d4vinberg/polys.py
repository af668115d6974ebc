"""Univariate polynomials over a finite field: one layer for every caller.

The raw level works on trimmed lists of raw element values (``FElem.val``),
lowest degree first, without trailing zeros; [] is the zero polynomial.
Every field supplies four primitives on such lists, ``field.poly_add``,
``poly_sub``, ``poly_mul`` and ``poly_divmod``: prime fields run them on
Python ints, every other field through its raw element arithmetic
(``fields.Field``).  Everything else is written once here on top of them
and the raw ``_add``/``_sub``/``_mul``/``_inv``: gcd, powmod, the
derivative and p-th root, the squarefree test, squarefree / distinct-degree
/ Cantor-Zassenhaus factorization (von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 14), the distinct-degree irreducibility check, the
resultant and ``find_irreducible``.  ``ExtField`` multiplies through this
layer and inverts by its raw-level ``xgcd_raw``, which has no Poly-level
wrapper, and ``numkernels`` keeps its int-list entry points as calls into
it.

``Poly`` is the boxed front end: it stores the raw values in ``vals`` and
derives ``coeffs``, a tuple of FElem, from them.  Its operands are Polys
over an equal field, elements of its own field and ints; a polynomial
moves to an extension only explicitly, as ``Poly(ext, f.coeffs)``.  Text
format: "c0,c1,...,cn" with each coefficient in the field's element format
(round trips bit-exactly).

The equal-degree splitting draws from a deterministic rng keyed by the
polynomial, so factorizations are reproducible; factors are returned
sorted, so the result does not depend on the draws.
"""

from .fields import FElem, split_top, trim
from .rng import det_rng


class Poly:
    __slots__ = ("field", "vals")

    def __init__(self, field, coeffs=()):
        self.field = field
        self.vals = tuple(trim([field.elem(c).val for c in coeffs], field.zero.val))

    @staticmethod
    def _of(field, vals):
        """Poly from trimmed raw values, without conversion."""
        out = object.__new__(Poly)
        out.field = field
        out.vals = tuple(vals)
        return out

    # -- construction helpers --

    @staticmethod
    def x(field):
        return Poly(field, [field.zero, field.one])

    @staticmethod
    def const(field, c):
        return Poly(field, [c])

    @property
    def coeffs(self):
        f = self.field
        return tuple(FElem(f, v) for v in self.vals)

    @property
    def degree(self):
        return len(self.vals) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.vals

    def is_constant(self):
        return len(self.vals) <= 1

    def lead(self):
        if not self.vals:
            raise ValueError("zero polynomial has no leading coefficient")
        return FElem(self.field, self.vals[-1])

    def __getitem__(self, i):
        return FElem(self.field, self.vals[i]) if i < len(self.vals) else self.field.zero

    def __bool__(self):
        return bool(self.vals)

    def __eq__(self, other):
        other = self._coerce(other)
        return other is not None and self.vals == other.vals

    def __hash__(self):
        return hash((self.field, self.vals))

    # -- arithmetic --

    def _coerce(self, other):
        """other as a Poly over self.field, or None: a Poly over an equal
        field, an FElem of self.field or an int; nothing crosses fields."""
        if isinstance(other, Poly):
            return other if other.field is self.field or other.field == self.field else None
        if isinstance(other, int) or (isinstance(other, FElem) and other.field is self.field):
            return Poly.const(self.field, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._of(self.field, self.field.poly_add(self.vals, other.vals))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return Poly._of(f, [f._neg(c) for c in self.vals])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._of(self.field, self.field.poly_sub(self.vals, other.vals))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._of(self.field, self.field.poly_mul(self.vals, other.vals))

    __rmul__ = __mul__

    def __pow__(self, n):
        f = self.field
        result, base = [f.one.val], self.vals
        while n:
            if n & 1:
                result = f.poly_mul(result, base)
            n >>= 1
            if n:
                base = f.poly_mul(base, base)
        return Poly._of(f, result)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        q, r = f.poly_divmod(self.vals, other.vals)
        return Poly._of(f, q), Poly._of(f, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        return Poly._of(self.field, monic_raw(self.field, self.vals))

    def derivative(self):
        return Poly._of(self.field, deriv_raw(self.field, self.vals))

    def __call__(self, x):
        result = x * 0  # zero of x's ring: an element or a Poly over self.field
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __repr__(self):
        return f"Poly({self.to_str()!r})"

    def to_str(self):
        f = self.field
        return ",".join(f.elem_to_str(c) for c in self.coeffs)

    @staticmethod
    def from_str(field, s):
        if s == "":
            return Poly(field)
        return Poly(field, [field.elem_from_str(t) for t in split_top(s)])


# -- the Poly-level API: thin wrappers over the raw layer --


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd (zero for two zeros)."""
    return Poly._of(a.field, gcd_raw(a.field, a.vals, b.vals))


def is_squarefree(fpoly: Poly) -> bool:
    """gcd(f, f') constant; false for inseparable (p-th power) inputs."""
    if fpoly.is_zero():
        raise ValueError("zero polynomial")
    return is_squarefree_raw(fpoly.field, fpoly.vals)


def is_irreducible(fpoly: Poly) -> bool:
    """Irreducibility by the distinct-degree check."""
    return is_irreducible_raw(fpoly.field, fpoly.vals)


def factor(fpoly: Poly):
    """Full factorization: [(monic irreducible, multiplicity)], sorted."""
    if fpoly.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    f = fpoly.field
    return [(Poly._of(f, g), mult) for g, mult in factor_raw(f, fpoly.vals)]


def roots(fpoly: Poly):
    """Roots in the coefficient field, without multiplicity, sorted."""
    out = [-g[0] for g, _ in factor(fpoly) if g.degree == 1]
    out.sort(key=fpoly.field.to_int)
    return out


def resultant(a: Poly, b: Poly):
    """Res(a, b) over a field, by the Euclidean remainder sequence."""
    return FElem(a.field, resultant_raw(a.field, a.vals, b.vals))


def monic_irreducibles(field, degree: int):
    """The monic irreducibles of the given degree, in the order of the code
    sum c_i q^i of their lower coefficients (c_i = field.to_int)."""
    q = field.order
    for code in range(q**degree):
        vals = []
        for _ in range(degree):
            vals.append(field.from_int(code % q).val)
            code //= q
        vals.append(field.one.val)
        if is_irreducible_raw(field, vals):
            yield Poly._of(field, vals)


def find_irreducible(field, degree: int) -> Poly:
    """The first of monic_irreducibles(field, degree)."""
    return next(monic_irreducibles(field, degree))


# -- the raw layer: F is the field, polynomials are trimmed raw-value lists --


def _pow(F, c, e):
    """c^e for a raw value c."""
    out = F.one.val
    while e:
        if e & 1:
            out = F._mul(out, c)
        e >>= 1
        if e:
            c = F._mul(c, c)
    return out


def scale_raw(F, c, a):
    """c * a for a raw value c."""
    return trim([F._mul(c, y) for y in a], F.zero.val)


def monic_raw(F, a):
    if not a or a[-1] == F.one.val:
        return list(a)
    return scale_raw(F, F._inv(a[-1]), a)


def deriv_raw(F, a):
    mul, add, one = F._mul, F._add, F.one.val
    out, i = [], one
    for c in a[1:]:
        out.append(mul(i, c))
        i = add(i, one)
    return trim(out, F.zero.val)


def pth_root_raw(F, a):
    """h with h^p = a, for a(x) = g(x^p): Frobenius inverse c -> c^(q/p)
    on the coefficients of g."""
    e = F.order // F.char
    return [_pow(F, c, e) for c in a[:: F.char]]


def gcd_raw(F, a, b):
    """Monic gcd."""
    divmod_ = F.poly_divmod
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic_raw(F, a)


def xgcd_raw(F, a, b):
    """(g, s, t) with g monic and s*a + t*b = g.  The remainder sequence
    carries s only; t = (g - s*a)/b is one exact division at the end."""
    r0, r1 = list(a), list(b)
    s0, s1 = [F.one.val], []
    while r1:
        q, r = F.poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, F.poly_sub(s0, F.poly_mul(q, s1))
    t0 = F.poly_divmod(F.poly_sub(r0, F.poly_mul(s0, a)), b)[0] if b else []
    if not r0:
        return r0, s0, t0
    c = F._inv(r0[-1])
    return scale_raw(F, c, r0), scale_raw(F, c, s0), scale_raw(F, c, t0)


def powmod_raw(F, base, e, mod):
    """base^e mod mod."""
    mul, divmod_ = F.poly_mul, F.poly_divmod
    result = divmod_([F.one.val], mod)[1]
    base = divmod_(base, mod)[1]
    while e:
        if e & 1:
            result = divmod_(mul(result, base), mod)[1]
        e >>= 1
        if e:
            base = divmod_(mul(base, base), mod)[1]
    return result


def is_squarefree_raw(F, a):
    """gcd(a, a') constant; trailing zeros are ignored and zero is not
    squarefree.  The Euclid skips normalization: only the degree of the
    gcd matters."""
    a = trim(list(a), F.zero.val)
    if len(a) <= 1:
        return bool(a)
    d = deriv_raw(F, a)
    divmod_ = F.poly_divmod
    while d:
        a, d = d, divmod_(a, d)[1]
    return len(a) == 1


def squarefree_decomposition_raw(F, f):
    """[(g_i, i)] with f = lc * prod g_i^i, g_i monic squarefree, char-p
    aware (Yun's algorithm with p-th roots of inseparable parts)."""
    out = []
    divmod_ = F.poly_divmod

    def sff(f, mult):
        if len(f) <= 1:
            return
        d = deriv_raw(F, f)
        if not d:
            sff(pth_root_raw(F, f), mult * F.char)
            return
        w = gcd_raw(F, f, d)
        c = divmod_(f, w)[0]
        i = 1
        while len(c) > 1:
            y = gcd_raw(F, w, c)
            fac = divmod_(c, y)[0]
            if len(fac) > 1:
                out.append((monic_raw(F, fac), mult * i))
            w = divmod_(w, y)[0]
            c = y
            i += 1
        if len(w) > 1:
            sff(w, mult)  # w is a p-th power

    sff(monic_raw(F, f), 1)
    return out


def distinct_degree_raw(F, f):
    """[(product of the irreducible factors of degree d, d)] for monic
    squarefree f."""
    q = F.order
    x = [F.zero.val, F.one.val]
    out = []
    h = F.poly_divmod(x, f)[1]
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            out.append((f, len(f) - 1))
            break
        h = powmod_raw(F, h, q, f)
        g = gcd_raw(F, f, F.poly_sub(h, x))
        if len(g) > 1:
            out.append((g, d))
            f = F.poly_divmod(f, g)[0]
            h = F.poly_divmod(h, f)[1]
    return out


def equal_degree_raw(F, f, d):
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    irreducibles."""
    if len(f) - 1 == d:
        return [f]
    rng = det_rng(0, "edf:" + ",".join(map(str, f)))
    e = (F.order**d - 1) // 2
    z = F.zero.val
    work, out, tries = [f], [], 0
    while work:
        g = work.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        tries += 1
        if tries > 10000:
            raise RuntimeError("equal-degree factorization failed to split")
        r = trim([F.random(rng).val for _ in range(len(g) - 1)], z)
        if not r:
            work.append(g)
            continue
        h = gcd_raw(F, g, r)
        if len(h) == 1:
            h = gcd_raw(F, g, F.poly_sub(powmod_raw(F, r, e, g), [F.one.val]))
        if 1 < len(h) < len(g):
            work += [h, F.poly_divmod(g, h)[0]]
        else:
            work.append(g)
    return out


def factor_raw(F, f):
    """[(monic irreducible, multiplicity)] of nonzero f, sorted by degree,
    then by the codes of the coefficients."""
    out = []
    for g, mult in squarefree_decomposition_raw(F, f):
        for h, d in distinct_degree_raw(F, g):
            out += [(irr, mult) for irr in equal_degree_raw(F, h, d)]
    out.sort(key=lambda t: (len(t[0]), [F.to_int(FElem(F, c)) for c in t[0]]))
    return out


def is_irreducible_raw(F, f):
    """The distinct-degree check: gcd(f, x^(q^d) - x) = 1 for d = 1..n/2.
    Exact for every f of degree n, squarefree or not, since a reducible f
    has an irreducible factor of degree at most n/2."""
    f = monic_raw(F, f)
    n = len(f) - 1
    if n <= 1:
        return n == 1
    q = F.order
    x = h = [F.zero.val, F.one.val]
    for _ in range(n // 2):
        h = powmod_raw(F, h, q, f)
        if len(gcd_raw(F, f, F.poly_sub(h, x))) > 1:
            return False
    return True


def resultant_raw(F, a, b):
    """Res(a, b) as a raw value."""
    z = F.zero.val
    if not a or not b:
        return z
    res = F.one.val
    while True:
        if len(b) == 1:
            return F._mul(res, _pow(F, b[0], len(a) - 1))
        r = F.poly_divmod(a, b)[1]
        if not r:
            return z
        res = F._mul(res, _pow(F, b[-1], len(a) - len(r)))
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = F._neg(res)
        a, b = b, r
