"""Univariate polynomials over a finite field.

Coefficient lists are lowest-degree-first; the zero polynomial has an empty
list.  Text format: "c0,c1,...,cn" with each coefficient in the field's
element format (round trips bit-exactly).

Factorization is standard squarefree / distinct-degree / Cantor-Zassenhaus;
the equal-degree splitting draws from a caller-supplied deterministic rng so
factorizations are reproducible.
"""

from .fields import FElem
from .rng import det_rng


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = field
        cs = [field.elem(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers --

    @staticmethod
    def x(field):
        return Poly(field, [field.zero, field.one])

    @staticmethod
    def const(field, c):
        return Poly(field, [c])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, FElem)):
            other = Poly.const(self.field, self.field.elem(other))
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # -- arithmetic --

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, FElem)):
            return Poly.const(self.field, self.field.elem(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.field, [self[i] + other[i] for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly(self.field)
        zero = self.field.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = Poly.const(self.field, self.field.one)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        db = other.degree
        if self.degree < db:
            return Poly(self.field), self
        q = [self.field.zero] * (self.degree - db + 1)
        inv_lead = other.lead().inverse()
        for k in range(self.degree - db, -1, -1):
            c = r[db + k] * inv_lead
            if c:
                q[k] = c
                for j in range(db + 1):
                    r[j + k] = r[j + k] - c * other.coeffs[j]
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.lead().inverse()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        return Poly(
            self.field,
            [i * c for i, c in enumerate(self.coeffs)][1:],
        )

    def reversed(self, at_degree=None):
        """Coefficient reversal x^n * self(1/x) padded to at_degree."""
        n = self.degree if at_degree is None else at_degree
        if n < self.degree:
            raise ValueError("reversal degree below actual degree")
        cs = [self.field.zero] * (n + 1)
        for i, c in enumerate(self.coeffs):
            cs[n - i] = c
        return Poly(self.field, cs)

    def __call__(self, x):
        result = x * 0  # zero of x's ring (x may live in an extension)
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
        depth, parts, cur = 0, [], []
        for ch in s:
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            cur.append(ch)
        parts.append("".join(cur))
        return Poly(field, [field.elem_from_str(t) for t in parts])


def gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def xgcd(a: Poly, b: Poly):
    """(g, s, t) monic with s*a + t*b = g."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.const(f, f.one), Poly(f)
    t0, t1 = Poly(f), Poly.const(f, f.one)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = r0.lead().inverse()
    return r0 * c, s0 * c, t0 * c


def is_squarefree(fpoly: Poly) -> bool:
    """gcd(f, f') constant; false for inseparable (p-th power) inputs."""
    if fpoly.is_zero():
        raise ValueError("zero polynomial")
    if fpoly.is_constant():
        return True
    g = gcd(fpoly, fpoly.derivative())
    return g.is_constant()


def powmod(base: Poly, e: int, mod: Poly) -> Poly:
    result = Poly.const(mod.field, mod.field.one) % mod
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def is_irreducible(fpoly: Poly) -> bool:
    """Rabin irreducibility test for monic f of degree >= 1."""
    f = fpoly.monic()
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    q = f.field.order
    x = Poly.x(f.field)
    if (powmod(x, q**n, f) - x) % f != Poly(f.field):
        return False
    for r in _prime_divisors(n):
        h = (powmod(x, q ** (n // r), f) - x) % f
        if not gcd(f, h).is_constant():
            return False
    return True


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_decomposition(fpoly: Poly):
    """[(g_i, i)] with f = lc * prod g_i^i, g_i monic squarefree, char-p aware."""
    f = fpoly.monic()
    field = f.field
    p = field.char
    out = []

    def sff(f, mult):
        if f.is_constant():
            return
        d = f.derivative()
        if d.is_zero():
            # f = h(x^p) = (frobenius-twisted h)(x)^p over a finite field
            h = _pth_root(f)
            sff(h, mult * p)
            return
        w = gcd(f, d)
        c = f // w
        i = 1
        while not c.is_constant():
            y = gcd(w, c)
            factor = c // y
            if not factor.is_constant():
                out.append((factor.monic(), mult * i))
            w = w // y
            c = y
            i += 1
        if not w.is_constant():
            sff(w, mult)  # w is a p-th power times a unit

    sff(f, 1)
    return out


def _pth_root(fpoly: Poly) -> Poly:
    """p-th root of f(x) = h(x^p) over a finite field (Frobenius inverse)."""
    field = fpoly.field
    p = field.char
    q = field.order
    e = q // p  # exponent with (c^e)^p = c^q = c... valid since c^q = c
    cs = []
    for i in range(0, fpoly.degree + 1, p):
        cs.append(fpoly[i] ** e)
    return Poly(field, cs)


def distinct_degree_factor(fpoly: Poly):
    """[(product-of-irreducibles-of-degree-d, d)] for monic squarefree f."""
    f = fpoly.monic()
    field = f.field
    q = field.order
    out = []
    x = Poly.x(field)
    h = x % f
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f, f.degree))
            break
        h = powmod(h, q, f)
        g = gcd(f, h - x)
        if not g.is_constant():
            out.append((g, d))
            f = f // g
            h = h % f
    return out


def equal_degree_factor(fpoly: Poly, d: int, seed=0):
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d irreducibles."""
    f = fpoly.monic()
    field = f.field
    q = field.order
    if f.degree == d:
        return [f]
    rng = det_rng(seed, f"edf:{f.to_str()}", 0)
    n = f.degree
    work = [f]
    out = []
    tries = 0
    while work:
        g = work.pop()
        if g.degree == d:
            out.append(g)
            continue
        tries += 1
        if tries > 10000:
            raise RuntimeError("equal-degree factorization failed to split")
        r = Poly(field, [field.random(rng) for _ in range(g.degree)])
        if r.is_zero():
            work.append(g)
            continue
        h = gcd(g, r)
        if not h.is_constant() and h.degree < g.degree:
            work += [h, g // h]
            continue
        e = (q**d - 1) // 2
        s = powmod(r, e, g) - 1
        h = gcd(g, s)
        if not h.is_constant() and h.degree < g.degree:
            work += [h, g // h]
        else:
            work.append(g)
    out.sort(key=lambda p: tuple(p.field.to_int(c) for c in p.coeffs))
    return out


def factor(fpoly: Poly, seed=0):
    """Full factorization: [(monic irreducible, multiplicity)], sorted."""
    if fpoly.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    out = []
    for g, mult in squarefree_decomposition(fpoly):
        for h, d in distinct_degree_factor(g):
            for irr in equal_degree_factor(h, d, seed=seed):
                out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, tuple(t[0].field.to_int(c) for c in t[0].coeffs)))
    return out


def roots(fpoly: Poly):
    """Roots in the coefficient field, without multiplicity, sorted."""
    out = [
        -g[0] for g, _ in factor(fpoly) if g.degree == 1
    ]
    out.sort(key=fpoly.field.to_int)
    return out


def resultant(a: Poly, b: Poly):
    """Res(a, b) over a field, by the Euclidean remainder sequence."""
    f = a.field
    if a.is_zero() or b.is_zero():
        return f.zero
    res = f.one
    while True:
        if b.degree == 0:
            return res * b.lead() ** a.degree
        r = a % b
        if r.is_zero():
            return f.zero
        res = res * b.lead() ** (a.degree - r.degree)
        if (a.degree * b.degree) % 2 == 1:
            res = -res
        a, b = b, r


def find_irreducible(field, degree: int) -> Poly:
    """Smallest monic irreducible of the given degree (enumeration order)."""
    if degree == 1:
        return Poly.x(field)
    for code in range(field.order**degree):
        cs = []
        c = code
        for _ in range(degree):
            cs.append(field.from_int(c % field.order))
            c //= field.order
        f = Poly(field, cs + [field.one])
        if is_irreducible(f):
            return f
    raise RuntimeError("unreachable")
