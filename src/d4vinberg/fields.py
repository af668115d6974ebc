"""Exact finite field arithmetic: prime fields F_p and extensions F_{p^m}.

Fields are value objects; elements are immutable and canonically reduced.
Extensions are represented as base[x]/(modulus) with coefficient tuples
(lowest degree first), so residue fields of places and towers over F_q reuse
the same machinery.  Characteristics 2 and 3 are rejected: the algebra side
of the package divides by 2 and 3 freely.

Each operation stays in one field: elements of two field objects never mix
(``GF(7).elem(3) * GF(7, 2).gen`` raises TypeError), and ``field.elem`` is
the only conversion, from ints, coefficient sequences and, for an
extension, elements of its base field.

Every field supplies the polynomial primitives that ``polys`` builds its
one univariate layer on, ``poly_add``, ``poly_sub``, ``poly_mul`` and
``poly_divmod`` on trimmed lists of raw values (``trim``): generic ones in
``Field``, through the raw element arithmetic, and ones on Python ints in
``PrimeField``.  An int factor only scales the raw value (``_scale``).
``ExtField`` multiplies as a base-field product reduced modulo its modulus,
inverts by the layer's extended Euclid and checks an untrusted modulus with
its Rabin test (``polys`` is imported inside those functions, since it
imports this module).

Text format (bit-exact round trip): prime elements as decimal integers,
extension elements as comma-separated coefficient tuples "(c0,c1,...)", so
an element of a tower nests them, "((0,1),(2,3))".  ``split_top`` splits a
list of such literals at its top-level commas; ``ExtField.elem_from_str``,
``polys.Poly.from_str`` and ``liealg.VElem.deserialize`` all read through it.
"""

from functools import lru_cache
from math import isqrt


def trim(a, z):
    """The list a without its trailing values z, in place."""
    while a and a[-1] == z:
        a.pop()
    return a


def split_top(s):
    """The parts of s between its commas outside parentheses."""
    depth, parts, cur = 0, [], []
    for ch in s:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    parts.append("".join(cur))
    return parts


class FElem:
    """Element of a PrimeField or ExtField; immutable, canonically reduced.

    One field per operation: ``+ - * /`` take an FElem of the same field
    object or an int (read through ``field._int_val``); any other operand,
    an element of another field included, gives NotImplemented and so a
    TypeError.  ``ExtField.elem`` is the one way to embed a base-field
    element into an extension.
    """

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def __add__(self, other):
        f = self.field
        if other.__class__ is FElem and other.field is f:
            return FElem(f, f._add(self.val, other.val))
        if isinstance(other, int):
            return FElem(f, f._add(self.val, f._int_val(other)))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        f = self.field
        if other.__class__ is FElem and other.field is f:
            return FElem(f, f._sub(self.val, other.val))
        if isinstance(other, int):
            return FElem(f, f._sub(self.val, f._int_val(other)))
        return NotImplemented

    def __rsub__(self, other):
        # reached only for a left operand that is not an FElem
        f = self.field
        if isinstance(other, int):
            return FElem(f, f._sub(f._int_val(other), self.val))
        return NotImplemented

    def __mul__(self, other):
        f = self.field
        if other.__class__ is FElem and other.field is f:
            return FElem(f, f._mul(self.val, other.val))
        if isinstance(other, int):
            return FElem(f, f._scale(self.val, other))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return FElem(self.field, self.field._neg(self.val))

    def __truediv__(self, other):
        if (other.__class__ is FElem and other.field is self.field) or isinstance(other, int):
            return self * self.field.elem(other).inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return self.field.elem(other) * self.inverse()
        return NotImplemented

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
            return self.val == self.field._int_val(other)
        return (
            isinstance(other, FElem)
            and self.field is other.field
            and self.val == other.val
        )

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __repr__(self):
        return self.field.elem_to_str(self)


class Field:
    """Base of the field classes: the generic polynomial primitives.

    A polynomial is a list of raw element values, lowest degree first,
    without trailing zeros; [] is zero.  Results are trimmed; a factor of
    poly_mul or a term of poly_add may carry trailing zeros, a divisor may
    not.  The methods go through the raw ``_add``/``_sub``/``_mul``/``_inv``
    of the field, so they serve every representation; a subclass with
    faster ones overrides them, and those here stay callable on it as
    ``Field.poly_mul(field, a, b)``.
    """

    def poly_mul(self, a, b):
        z = self.zero.val
        add, mul = self._add, self._mul
        out = [z] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            if x != z:
                for j, y in enumerate(b, i):
                    out[j] = add(out[j], mul(x, y))
        return trim(out, z)

    def poly_add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        add = self._add
        return trim([add(x, y) for x, y in zip(a, b)] + list(a[len(b):]), self.zero.val)

    def poly_sub(self, a, b):
        return self.poly_add(a, [self._neg(c) for c in b])

    def poly_divmod(self, a, b):
        """(quotient, remainder); b must be trimmed and nonzero."""
        z = self.zero.val
        db = len(b) - 1
        if db < 0:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(a)
        q = [z] * (len(r) - db)
        inv = self._inv(b[db])
        sub, mul = self._sub, self._mul
        for k in range(len(q) - 1, -1, -1):
            c = mul(r[db + k], inv)
            if c != z:
                q[k] = c
                for j, y in enumerate(b[:db], k):
                    r[j] = sub(r[j], mul(c, y))
        return q, trim(r[:db], z)


class PrimeField(Field):
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

    def _scale(self, a, k):
        return a * k % self.p

    def _inv(self, a):
        return pow(a, self.p - 2, self.p)

    def _int_val(self, k):
        return k % self.p

    # The int pair: products, and the eliminations of poly_divmod, are summed
    # as unreduced Python ints and reduced mod p once at the end.

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        i = 0
        for x in a:
            if x:
                j = i
                for y in b:
                    out[j] += x * y
                    j += 1
            i += 1
        p = self.p
        return trim([c % p for c in out], 0)

    # poly_add and poly_sub reduce the common part only; one concatenation
    # builds an exact-size result, without the spare capacity of appending

    def poly_add(self, a, b):
        p = self.p
        tail = a[len(b):] if len(a) > len(b) else b[len(a):]
        return trim([(x + y) % p for x, y in zip(a, b)] + list(tail), 0)

    def poly_sub(self, a, b):
        p = self.p
        tail = a[len(b):] if len(a) > len(b) else [-y % p for y in b[len(a):]]
        return trim([(x - y) % p for x, y in zip(a, b)] + list(tail), 0)

    def poly_divmod(self, a, b):
        p = self.p
        db = len(b) - 1
        if db < 0:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(a)
        q = [0] * (len(r) - db)
        inv = pow(b[db], p - 2, p)
        for k in range(len(q) - 1, -1, -1):
            c = r[db + k] * inv % p
            if c:
                q[k] = c
                j = k
                for y in b:
                    r[j] -= c * y
                    j += 1
        return q, trim([c % p for c in r[:db]], 0)

    def elem(self, x):
        if isinstance(x, FElem):
            if x.field is not self:
                raise ValueError("element of a different field")
            return x
        return FElem(self, self._int_val(x))

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


class ExtField(Field):
    """base[x]/(modulus), modulus monic irreducible over base.

    Element values are tuples of base-field values of length deg(modulus).
    """

    def __init__(self, base, modulus_coeffs, _trusted=False):
        # modulus_coeffs: tuple of base FElems, lowest degree first, monic.
        self.base = base
        mod = tuple(base.elem(c) for c in modulus_coeffs)
        if len(mod) < 3 or mod[-1] != base.one:
            raise ValueError("modulus must be monic of degree >= 2")
        if not _trusted:
            from .polys import Poly, is_irreducible

            if not is_irreducible(Poly(base, mod)):
                raise ValueError("modulus is not irreducible")
        self.modulus = mod
        self._modv = [c.val for c in mod]
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

    def _add(self, a, b):
        bf = self.base
        return tuple(bf._add(x, y) for x, y in zip(a, b))

    def _sub(self, a, b):
        bf = self.base
        return tuple(bf._sub(x, y) for x, y in zip(a, b))

    def _neg(self, a):
        bf = self.base
        return tuple(bf._neg(x) for x in a)

    def _scale(self, a, k):
        """a times the int k, coefficient by coefficient (no reduction)."""
        bf = self.base
        return tuple(bf._scale(x, k) for x in a)

    def _mul(self, a, b):
        """Base-field product, then its remainder modulo the modulus."""
        bf = self.base
        r = bf.poly_divmod(bf.poly_mul(a, b), self._modv)[1]
        return tuple(r) + (bf.zero.val,) * (self.deg - len(r))

    def _inv(self, a):
        """Extended Euclid in base[x] against the modulus."""
        from .polys import xgcd_raw

        z = self.base.zero.val
        t = xgcd_raw(self.base, self._modv, trim(list(a), z))[2]
        return tuple(t) + (z,) * (self.deg - len(t))

    def _int_val(self, k):
        return (self.base._int_val(k),) + self.zero.val[1:]

    def elem(self, x):
        if isinstance(x, FElem):
            if x.field is self:
                return x
            if x.field is self.base:
                vals = [x.val] + [self.base.zero.val] * (self.deg - 1)
                return FElem(self, tuple(vals))
            raise ValueError("element of a different field")
        if isinstance(x, int):
            return FElem(self, self._int_val(x))
        # sequence of base-coercible coefficients
        vals = [self.base.elem(c).val for c in x]
        if len(vals) > self.deg:
            raise ValueError("too many coefficients")
        vals += [self.base.zero.val] * (self.deg - len(vals))
        return FElem(self, tuple(vals))

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

    def elem_to_str(self, x):
        inner = ",".join(self.base.elem_to_str(self.base.elem(v)) for v in x.val)
        return f"({inner})"

    def elem_from_str(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"bad extension element literal: {s!r}")
        return self.elem([self.base.elem_from_str(t) for t in split_top(s[1:-1])])

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
def _default_extension(p, m):
    from .polys import find_irreducible

    bf = _prime_field(p)
    return ExtField(bf, find_irreducible(bf, m).coeffs, _trusted=True)


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
