"""Sparse multivariate polynomials over the integers or a field.

Monomials map exponent tuples to coefficients.  Used for the symbolic
invariant restrictions to the Kostant and subregular charts during
calibration; ``quartic.delta`` runs over MPolys too, which is how the
tests hold it to the expanded discriminant.

``MPoly.eval`` is the one evaluator.  On first use a polynomial compiles a
plan, each monomial as its coefficient and one variable index per factor,
and evaluation forms one product per monomial.  The ring is a ``(mul, add,
scale)`` triple, so the same plan runs over Python ring elements and over
the vectorized representations in ``numkernels``.  A polynomial with int
coefficients evaluates at an int point to its exact, unreduced value, which
is how the chart solves of ``invariants`` run over a prime field.
"""

import operator

# Python's operators: ints, FElem, Poly, RatFunc, MPoly
PY_RING = (operator.mul, operator.add, operator.mul)


class MPoly:
    __slots__ = ("nvars", "terms", "_plan")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        self._plan = None
        if terms:
            for e, c in terms.items():
                if _nonzero(c):
                    self.terms[tuple(e)] = c

    @staticmethod
    def const(nvars, c):
        return MPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars, i, one=1):
        e = [0] * nvars
        e[i] = 1
        return MPoly(nvars, {tuple(e): one})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, None)
            s = c if s is None else s + c
            if _nonzero(s):
                out[e] = s
            elif e in out:
                del out[e]
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                s = out.get(e, None)
                s = prod if s is None else s + prod
                if _nonzero(s):
                    out[e] = s
                elif e in out:
                    del out[e]
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = MPoly.const(self.nvars, 1 if not self.terms else _one_like(next(iter(self.terms.values()))))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return MPoly.const(self.nvars, other)

    def _compile(self):
        """Each monomial as its coefficient and one variable index per factor."""
        return [
            (c, tuple(i for i, k in enumerate(e) for _ in range(k))) for e, c in self.terms.items()
        ]

    def eval(self, args, ring=PY_RING):
        """Value at the point args over a commutative ring.

        ring = (mul, add, scale), with scale(c, x) the multiple of x by a
        coefficient c.  A constant term enters as the bare coefficient, and
        the zero polynomial evaluates to 0.
        """
        mul, add, scale = ring
        if self._plan is None:
            self._plan = self._compile()
        acc = None
        for c, idx in self._plan:
            term = None
            for i in idx:
                term = args[i] if term is None else mul(term, args[i])
            term = c if term is None else scale(c, term)
            acc = term if acc is None else add(acc, term)
        return 0 if acc is None else acc

    def monomials(self):
        """Sorted list of (coefficient, exponent-tuple)."""
        return [(self.terms[e], e) for e in sorted(self.terms)]

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return (self - other).is_zero()

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for c, e in self.monomials():
            mono = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}"
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(bits) + ")"


def _nonzero(c):
    if isinstance(c, int):
        return c != 0
    return bool(c)


def _one_like(c):
    if isinstance(c, int):
        return 1
    return c.field.one
