"""Exact finite field arithmetic: prime fields F_p and extensions F_{p^m}.

Fields are value objects; elements are immutable and canonically reduced.
Extensions are represented as base[x]/(modulus) with coefficient tuples
(lowest degree first), so residue fields of places and towers over F_q reuse
the same machinery.  Characteristics 2 and 3 are rejected: the algebra side
of the package divides by 2 and 3 freely.

Text format (bit-exact round trip): prime elements as decimal integers,
extension elements as comma-separated coefficient tuples "(c0,c1,...)".
"""

from functools import lru_cache
from math import isqrt


class FElem:
    """Element of a PrimeField or ExtField; immutable, canonically reduced.

    Binary operations lift a base-field operand into the other operand's
    extension automatically (python skips reflected methods for same-type
    operands, so both directions are handled here).
    """

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def _pair(self, other):
        c = self.field.coerce(other)
        if c is not NotImplemented:
            return self.field, self, c
        if isinstance(other, FElem):
            c = other.field.coerce(self)
            if c is not NotImplemented:
                return other.field, c, other
        return None

    def __add__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        f, a, b = p
        return FElem(f, f._add(a.val, b.val))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        f, a, b = p
        return FElem(f, f._sub(a.val, b.val))

    def __rsub__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        f, a, b = p
        return FElem(f, f._sub(b.val, a.val))

    def __mul__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        f, a, b = p
        return FElem(f, f._mul(a.val, b.val))

    __rmul__ = __mul__

    def __neg__(self):
        return FElem(self.field, self.field._neg(self.val))

    def __truediv__(self, other):
        other = self.field.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self.field.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return FElem(self.field, self.field._inv(self.val))

    def __bool__(self):
        return self.val != self.field.zero.val

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.elem(other)
        return (
            isinstance(other, FElem)
            and self.field is other.field
            and self.val == other.val
        )

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __repr__(self):
        return self.field.elem_to_str(self)


class PrimeField:
    """F_p for an odd prime p >= 5; element values are ints in [0, p)."""

    def __init__(self, p):
        if p < 5 or not _is_prime(p):
            raise ValueError(f"characteristic must be a prime >= 5, got {p}")
        self.p = p
        self.char = p
        self.order = p
        self.degree = 1
        self.zero = FElem(self, 0)
        self.one = FElem(self, 1)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        return pow(a, self.p - 2, self.p)

    def elem(self, x):
        if isinstance(x, FElem):
            if x.field is not self:
                raise ValueError("element of a different field")
            return x
        return FElem(self, x % self.p)

    def coerce(self, x):
        if isinstance(x, FElem):
            return x if x.field is self else NotImplemented
        if isinstance(x, int):
            return FElem(self, x % self.p)
        return NotImplemented

    def inv_int(self, k):
        """Inverse of the integer k as a field element (k must be a unit)."""
        return self.elem(k).inverse()

    def random(self, rng):
        return FElem(self, int(rng.integers(0, self.p)))

    def random_nonzero(self, rng):
        return FElem(self, int(rng.integers(1, self.p)))

    def __iter__(self):
        return (FElem(self, v) for v in range(self.p))

    def chi(self, a) -> int:
        """Quadratic character: 1 square, -1 non-square, 0 zero."""
        a = self.elem(a)
        if not a:
            return 0
        return 1 if pow(a.val, (self.p - 1) // 2, self.p) == 1 else -1

    def sqrt(self, a):
        """A square root of a, or None.  Deterministic (smallest int value)."""
        a = self.elem(a)
        if not a:
            return self.zero
        if self.chi(a) != 1:
            return None
        for v in range(1, self.p):
            if v * v % self.p == a.val:
                return FElem(self, v)
        return None

    def elem_to_str(self, x):
        return str(x.val)

    def elem_from_str(self, s):
        return FElem(self, int(s) % self.p)

    def to_int(self, x):
        """Index of x in the enumeration order (prime field: the value)."""
        return x.val

    def from_int(self, i):
        return FElem(self, i % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class ExtField:
    """base[x]/(modulus), modulus monic irreducible over base.

    Element values are tuples of base-field values of length deg(modulus).
    """

    def __init__(self, base, modulus_coeffs, _trusted=False):
        # modulus_coeffs: tuple of base FElems, lowest degree first, monic.
        self.base = base
        mod = tuple(base.elem(c) for c in modulus_coeffs)
        if len(mod) < 3 or mod[-1] != base.one:
            raise ValueError("modulus must be monic of degree >= 2")
        if not _trusted and not _poly_is_irreducible(base, mod):
            raise ValueError("modulus is not irreducible")
        self.modulus = mod
        self.deg = len(mod) - 1
        self.char = base.char
        self.order = base.order**self.deg
        self.degree = base.degree * self.deg
        self.zero = FElem(self, (base.zero.val,) * self.deg)
        one = [base.zero.val] * self.deg
        one[0] = base.one.val
        self.one = FElem(self, tuple(one))
        # x reduced: the residue class of the variable
        gen = [base.zero.val] * self.deg
        gen[1] = base.one.val
        self.gen = FElem(self, tuple(gen))

    def _wrap(self, vals):
        return tuple(vals)

    def _add(self, a, b):
        bf = self.base
        return tuple(bf._add(x, y) for x, y in zip(a, b))

    def _sub(self, a, b):
        bf = self.base
        return tuple(bf._sub(x, y) for x, y in zip(a, b))

    def _neg(self, a):
        bf = self.base
        return tuple(bf._neg(x) for x in a)

    def _mul(self, a, b):
        bf = self.base
        n = self.deg
        prod = [bf.zero.val] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai == bf.zero.val:
                continue
            for j, bj in enumerate(b):
                prod[i + j] = bf._add(prod[i + j], bf._mul(ai, bj))
        # reduce modulo the monic modulus
        modv = [c.val for c in self.modulus]
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if c == bf.zero.val:
                continue
            prod[k] = bf.zero.val
            for j in range(n):
                prod[k - n + j] = bf._sub(prod[k - n + j], bf._mul(c, modv[j]))
        return tuple(prod[:n])

    def _inv(self, a):
        # extended Euclid in base[x] against the modulus
        bf = self.base
        r0 = [c.val for c in self.modulus]
        r1 = list(a)
        s0, s1 = [bf.zero.val], [bf.one.val]
        while any(c != bf.zero.val for c in r1):
            q, r = _poly_divmod(bf, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(bf, s0, _poly_mul(bf, q, s1))
        # r0 = gcd (a constant, nonzero since modulus irreducible)
        lead = r0[_poly_deg(bf, r0)]
        c = bf._inv(lead)
        out = [bf._mul(c, v) for v in s0]
        out = out[: self.deg] + [bf.zero.val] * max(0, self.deg - len(out))
        return tuple(out[: self.deg])

    def elem(self, x):
        if isinstance(x, FElem):
            if x.field is self:
                return x
            if x.field is self.base:
                vals = [x.val] + [self.base.zero.val] * (self.deg - 1)
                return FElem(self, tuple(vals))
            raise ValueError("element of a different field")
        if isinstance(x, int):
            vals = [self.base.elem(x).val] + [self.base.zero.val] * (self.deg - 1)
            return FElem(self, tuple(vals))
        # sequence of base-coercible coefficients
        vals = [self.base.elem(c).val for c in x]
        if len(vals) > self.deg:
            raise ValueError("too many coefficients")
        vals += [self.base.zero.val] * (self.deg - len(vals))
        return FElem(self, tuple(vals))

    def coerce(self, x):
        if isinstance(x, FElem):
            if x.field is self:
                return x
            if x.field is self.base:
                return self.elem(x)
            return NotImplemented
        if isinstance(x, int):
            return self.elem(x)
        return NotImplemented

    def inv_int(self, k):
        return self.elem(k).inverse()

    def random(self, rng):
        return FElem(
            self, tuple(self.base.random(rng).val for _ in range(self.deg))
        )

    def random_nonzero(self, rng):
        while True:
            x = self.random(rng)
            if x:
                return x

    def __iter__(self):
        def gen(i):
            if i == self.deg:
                yield ()
                return
            for rest in gen(i + 1):
                for c in self.base:
                    yield (c.val,) + rest

        return (FElem(self, vals) for vals in gen(0))

    def chi(self, a) -> int:
        a = self.elem(a)
        if not a:
            return 0
        return 1 if a ** ((self.order - 1) // 2) == self.one else -1

    def sqrt(self, a):
        a = self.elem(a)
        if not a:
            return self.zero
        if self.chi(a) != 1:
            return None
        # desk scale: deterministic scan in enumeration order
        for x in self:
            if x * x == a:
                return x
        return None

    def elem_to_str(self, x):
        inner = ",".join(self.base.elem_to_str(self.base.elem(v)) for v in x.val)
        return f"({inner})"

    def elem_from_str(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"bad extension element literal: {s!r}")
        parts = s[1:-1].split(",")
        return self.elem([self.base.elem_from_str(t) for t in parts])

    def to_int(self, x):
        i = 0
        for v in reversed(x.val):
            i = i * self.base.order + self.base.to_int(FElem(self.base, v))
        return i

    def from_int(self, i):
        vals = []
        for _ in range(self.deg):
            vals.append(self.base.from_int(i % self.base.order).val)
            i //= self.base.order
        return FElem(self, tuple(vals))

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.base, tuple(c.val for c in self.modulus)))

    def __repr__(self):
        return f"F_{self.char}^{self.degree}"


# -- raw polynomial helpers over a base field (value lists, lowest first) --


def _poly_deg(bf, a):
    d = -1
    for i, c in enumerate(a):
        if c != bf.zero.val:
            d = i
    return d


def _poly_sub(bf, a, b):
    n = max(len(a), len(b))
    a = a + [bf.zero.val] * (n - len(a))
    b = b + [bf.zero.val] * (n - len(b))
    return [bf._sub(x, y) for x, y in zip(a, b)]


def _poly_mul(bf, a, b):
    if not a or not b:
        return []
    out = [bf.zero.val] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == bf.zero.val:
            continue
        for j, y in enumerate(b):
            out[i + j] = bf._add(out[i + j], bf._mul(x, y))
    return out


def _poly_divmod(bf, a, b):
    da, db = _poly_deg(bf, a), _poly_deg(bf, b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [bf.zero.val] * max(0, da - db + 1)
    inv_lead = bf._inv(b[db])
    for k in range(da - db, -1, -1):
        c = bf._mul(r[db + k], inv_lead)
        if c == bf.zero.val:
            continue
        q[k] = c
        for j in range(db + 1):
            r[j + k] = bf._sub(r[j + k], bf._mul(c, b[j]))
    return q, r


def _poly_is_irreducible(bf, mod):
    """Rabin test for a monic polynomial over the field bf."""
    n = len(mod) - 1
    q = bf.order
    modv = [c.val for c in mod]

    def powmod_x(e):
        # x^e mod mod, by square and multiply on value lists
        result = [bf.one.val]
        base = [bf.zero.val, bf.one.val]
        while e:
            if e & 1:
                result = _poly_divmod(bf, _poly_mul(bf, result, base), modv)[1]
            base = _poly_divmod(bf, _poly_mul(bf, base, base), modv)[1]
            e >>= 1
        return result

    xq = powmod_x(q**n)
    x = [bf.zero.val, bf.one.val]
    if _poly_deg(bf, _poly_sub(bf, xq, x)) >= 0:
        return False
    for r in {k for k in range(2, n + 1) if k * (n // k) == n and _is_prime(k)}:
        xqr = powmod_x(q ** (n // r))
        diff = _poly_sub(bf, xqr, x)
        # gcd(diff, mod) must be constant
        g0, g1 = modv, diff
        while _poly_deg(bf, g1) >= 0:
            g0, g1 = g1, _poly_divmod(bf, g0, g1)[1]
        if _poly_deg(bf, g0) > 0:
            return False
    return True


# Miller-Rabin on the first twelve primes as bases is a proof of primality
# below this bound (Sorenson & Webster, Math. Comp. 2017); above it, trial
# division.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        return all(n % d for d in range(41, isqrt(n) + 1, 2))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_field(p):
    return PrimeField(p)


@lru_cache(maxsize=None)
def _auto_modulus(p, m):
    """Lexicographically smallest monic irreducible of degree m over F_p."""
    bf = _prime_field(p)
    for code in range(p**m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        mod = tuple(bf.elem(v) for v in coeffs) + (bf.one,)
        if _poly_is_irreducible(bf, mod):
            return tuple(c.val for c in mod)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def _default_extension(p, m):
    bf = _prime_field(p)
    return ExtField(bf, [bf.elem(c) for c in _auto_modulus(p, m)])


def GF(p, m=1, modulus=None):
    """Field descriptor F_{p^m}; p >= 5 prime, modulus monic irreducible.

    Without an explicit modulus the lexicographically smallest monic
    irreducible of degree m is used, and the field object is memoized, so
    GF(p, m) is GF(p, m) and elements of two calls mix.  An explicit
    modulus builds a new field object.
    """
    bf = _prime_field(p)
    if m == 1:
        if modulus is not None:
            raise ValueError("modulus only applies to extensions")
        return bf
    if modulus is None:
        return _default_extension(p, m)
    return ExtField(bf, [bf.elem(c) for c in modulus])


def extension_of(field, modulus_coeffs, trusted=False):
    """Extension field[x]/(modulus); used for residue fields of places."""
    return ExtField(field, modulus_coeffs, _trusted=trusted)
