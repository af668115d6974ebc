"""The graded pair (G, V) inside the adjoint D4 algebra.

h = so(Psi) for the split form Psi (antidiagonal 4x4 blocks), theta is
conjugation by s = diag(1,-1,-1,1,1,-1,-1,1), g and V its +/-1 eigenspaces.
The 16 weights of V carry the label table (1..16) and the Boolean-cube
partial order; the adjoint torus T(k) = Hom(root lattice, k^x) is stored by
its values on the simple-root basis of H, which is exactly what the
constructive orbit reduction needs.

V stays in weight coordinates and h in the Chevalley basis x_0..x_27 (the
Cartan elements, then the root vectors).  Module tables, built at import
from sparse products of the matrix entries of the root vectors
(``ROOT_ENTRIES``), replace the 8x8 round trip: ``BRACKETS`` holds the
integer structure constants of [e_s, x_a], so ``ad_matrix``, the
centralizers and the sl2 solves of ``invariants`` work on h indices over
every field; a root vector X of G sends each e_s to +/-e_t or 0 and
X v X = 0 on V, so exp(c X) acts as v + c[X, v] (``G_ROOT_MOVES``, read off
``BRACKETS``); the Klein group permutes the e_s with signs
(``W0_MOVES``); and ``BLOCK_GATHER`` fills the blocks X, Y of v = [[0, X],
[Y, 0]] on the positions (EVEN, ODD) of theta.  No 8x8 matrix is built:
``primitives``, the one computation of pi(v) = (c2, c4, Pf, c6), works on
X and Y, ``char_quartic`` is ``quartic_poly`` of pi, and ``classify``
decides semisimplicity on X, Y and the 4x4 products XY, YX.
A D4Context holds the field-dependent rest and is safe to share, with the
coordinate object of its field, ``rep = field.coords`` (``fields`` owns
the choice): over a prime field a VElem holds Python ints in [0, p),
converted once when it is built, and the action, pi, the ad matrices and
the solves of ``invariants`` and ``orbits`` run on them; values are boxed
into FElems only where they leave, by ``v[label]``, ``serialize`` and pi.
Over an extension field the coordinates are FElems.
pi_1(G) is read off the pairings <coroot, alpha_i>, the coroot coordinates
in the fundamental-coweight basis of X_*(T).
"""

from . import linalg
from .fields import split_top
from .quartic import disc_univariate, quartic_poly
from .polys import Poly, gcd

# positions 0..7 carry torus characters +/- e_k:
POS_CHAR = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, -1, 0, 0),
    (-1, 0, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (0, 0, 0, -1),
    (0, 0, -1, 0),
]
IOTA = [3, 2, 1, 0, 7, 6, 5, 4]  # Psi_{i,j} = [j == IOTA[i]]
S_SIGNS = [1, -1, -1, 1, 1, -1, -1, 1]

# weight label table: label -> (2n1, 2n2, 2n3, 2n4)
LABEL_SIGNS = {
    1: (1, 1, 1, 1),
    2: (-1, 1, 1, 1),
    3: (1, -1, 1, 1),
    4: (1, 1, -1, 1),
    5: (1, 1, 1, -1),
    6: (-1, -1, 1, 1),
    7: (-1, 1, -1, 1),
    8: (-1, 1, 1, -1),
    9: (1, -1, -1, 1),
    10: (1, -1, 1, -1),
    11: (1, 1, -1, -1),
    12: (-1, -1, -1, 1),
    13: (-1, -1, 1, -1),
    14: (-1, 1, -1, -1),
    15: (1, -1, -1, -1),
    16: (-1, -1, -1, -1),
}
LABELS = tuple(sorted(LABEL_SIGNS))
LABEL_OF_SIGNS = {signs: label for label, signs in LABEL_SIGNS.items()}

# simple roots of G in e-coordinates: a1 = e0+e2, a2 = e0-e2, a3 = e1+e3, a4 = e1-e3
G_SIMPLE = ((1, 0, 1, 0), (1, 0, -1, 0), (0, 1, 0, 1), (0, 1, 0, -1))
# simple roots of H: alpha1 = e0-e1, alpha2 = e1-e2, alpha3 = e2-e3, alpha4 = e2+e3
H_SIMPLE = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1))

RHO_CHECK = (3, 2, 1, 0)  # sum of fundamental coweights of H, e*-coordinates
LAMBDA_CHECK = (2, 1, 0, 1)  # the subregular cocharacter, e*-coordinates

# Klein four-group acting on the index set {1,2,3,4} of the a_i
W0_PERMS = {
    "e": (1, 2, 3, 4),
    "s12.34": (2, 1, 4, 3),
    "s13.24": (3, 4, 1, 2),
    "s14.23": (4, 3, 2, 1),
}
# 8x8 signed-permutation representatives (position permutations, 0-indexed)
W0_POSITION_PERMS = {
    "e": (0, 1, 2, 3, 4, 5, 6, 7),
    "s12.34": (0, 1, 2, 3, 7, 6, 5, 4),
    "s13.24": (1, 0, 3, 2, 5, 4, 7, 6),
    "s14.23": (1, 0, 3, 2, 6, 7, 4, 5),
}


# label -> the e-coordinates of its weight (the character vector, in ZZ)
WEIGHT_EVEC = {
    l: ((e1 + e2) // 2, (e3 + e4) // 2, (e1 - e2) // 2, (e3 - e4) // 2)
    for l, (e1, e2, e3, e4) in LABEL_SIGNS.items()
}


def alpha_coords(evec):
    """Coordinates of a root-lattice element in the H-simple-root basis."""
    w0, w1, w2, w3 = evec
    m1 = w0
    m2 = w0 + w1
    s = w0 + w1 + w2 + w3
    if s % 2:
        raise ValueError("not in the root lattice")
    m4 = s // 2
    m3 = (w0 + w1 + w2 - w3) // 2
    return (m1, m2, m3, m4)


def pairing(cochar, char) -> int:
    """<cochar, char> for e*-coordinates against e-coordinates."""
    return sum(a * b for a, b in zip(cochar, char))


def leq(label_a, label_b) -> bool:
    """Partial order on Phi_V: a <= b iff n_i(a) <= n_i(b) for all i."""
    sa, sb = LABEL_SIGNS[label_a], LABEL_SIGNS[label_b]
    return all(x <= y for x, y in zip(sa, sb))


def w0_label_perm(name):
    """Permutation of weight labels induced by a Klein-group element."""
    perm = W0_PERMS[name]
    return {
        label: LABEL_OF_SIGNS[tuple(signs[perm[i] - 1] for i in range(4))]
        for label, signs in LABEL_SIGNS.items()
    }


def lambda_max(m_set):
    """Maximal elements of the complement of m_set in the weight poset."""
    comp = [l for l in LABELS if l not in m_set]
    return frozenset(a for a in comp if all(a == b or not leq(a, b) for b in comp))


def _root_entries():
    """char -> (primary (i, j), partner (i, j)) for the 24 roots of h.

    The root vector of a root has +1 at its primary entry, the
    lexicographically least of its two, and -1 at the partner entry.
    """
    roots = {}
    for i in range(8):
        for j in range(8):
            if i == j or j == IOTA[i]:
                continue
            char = tuple(a - b for a, b in zip(POS_CHAR[i], POS_CHAR[j]))
            primary = min((i, j), (IOTA[j], IOTA[i]))
            if char not in roots or primary < roots[char][0]:
                roots[char] = (primary, (IOTA[primary[1]], IOTA[primary[0]]))
    assert len(roots) == 24
    return roots


ROOT_ENTRIES = _root_entries()
# per label, the H-simple-root coordinates of its weight: under the torus
# point with alpha-values x, e_l scales by prod_i x_i^k_i
WEIGHT_ALPHA = tuple(alpha_coords(WEIGHT_EVEC[l]) for l in LABELS)
# per alpha_i, the nonzero exponents k_i that WEIGHT_ALPHA takes, and per
# label the pairs (i, k_i) with k_i != 0
_ALPHA_EXPONENTS = tuple(sorted({m[i] for m in WEIGHT_ALPHA} - {0}) for i in range(4))
_WEIGHT_FACTORS = tuple(tuple((i, k) for i, k in enumerate(m) if k) for m in WEIGHT_ALPHA)
# (primary, partner) entries of the weight basis of V, in label order
V_ENTRIES = tuple(ROOT_ENTRIES[WEIGHT_EVEC[l]] for l in LABELS)

# theta splits the positions by S_SIGNS: on (EVEN, ODD) a matrix of V is
# [[0, X], [Y, 0]]; IOTA keeps both sets
EVEN = tuple(i for i in range(8) if S_SIGNS[i] == 1)
ODD = tuple(i for i in range(8) if S_SIGNS[i] == -1)

# The Chevalley basis x_0..x_27 of h: the Cartan elements h_k =
# diag(POS_CHAR[i][k]), then the root vectors of H_ROOTS (+1 at the primary
# entry, -1 at the partner).  G_BASIS indexes the basis of g (theta fixes a
# root vector whose positions have one sign), and V_BASIS the weight vector
# e_l of each label, which is the root vector of its weight.
H_ROOTS = tuple(sorted(ROOT_ENTRIES))
G_ROOTS = tuple(r for r in H_ROOTS if len({S_SIGNS[i] for i in ROOT_ENTRIES[r][0]}) == 1)
V_ROOTS = tuple(r for r in H_ROOTS if r not in G_ROOTS)
H_BASIS = tuple(range(4 + len(H_ROOTS)))
G_BASIS = H_BASIS[:4] + tuple(4 + H_ROOTS.index(r) for r in G_ROOTS)
V_BASIS = tuple(4 + H_ROOTS.index(WEIGHT_EVEC[l]) for l in LABELS)
assert len(G_ROOTS) == 8 and set(V_ROOTS) == set(WEIGHT_EVEC.values())


# entry (i, j) of V -> (weight coordinate, +1 at its primary entry, -1 at its partner)
_V_OWNER = {
    entry: (k, sign)
    for k, entries in enumerate(V_ENTRIES)
    for entry, sign in zip(entries, (1, -1))
}


def _sparse_mul(a, b):
    """Product of sparse integer matrices {(i, j): entry}, zeros dropped."""
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[i, j] = out.get((i, j), 0) + x * y
    return {e: c for e, c in out.items() if c}


def _sparse_sum(terms):
    """sum c m over the pairs (c, m) of an int and a sparse matrix, zeros dropped."""
    out = {}
    for c, m in terms:
        for e, x in m.items():
            out[e] = out.get(e, 0) + c * x
    return {e: x for e, x in out.items() if x}


def _brackets():
    """BRACKETS[s][a]: the terms (b, c) of [e_s, x_a] = sum c x_b, c an int,
    for e_s in label order.  A coordinate is read at one entry of x_b (the
    diagonal entry of character e_k for h_k, the primary entry of a root
    vector); ValueError unless each root vector squares to zero and each
    bracket is exactly the combination read off, so the table holds over
    every field."""
    basis = [{(i, i): c[k] for i, c in enumerate(POS_CHAR) if c[k]} for k in range(4)]
    basis += [dict(zip(ROOT_ENTRIES[r], (1, -1))) for r in H_ROOTS]
    if any(_sparse_mul(x, x) for x in basis[4:]):
        raise ValueError("root vector does not square to zero")
    units = [tuple(int(j == k) for j in range(4)) for k in range(4)]
    read = [(POS_CHAR.index(u),) * 2 for u in units] + [ROOT_ENTRIES[r][0] for r in H_ROOTS]
    table = []
    for e in (basis[a] for a in V_BASIS):
        row = []
        for x in basis:
            br = _sparse_sum([(1, _sparse_mul(e, x)), (-1, _sparse_mul(x, e))])
            terms = tuple((b, br[e]) for b, e in enumerate(read) if e in br)
            if _sparse_sum((c, basis[b]) for b, c in terms) != br:
                raise ValueError("a bracket is not a combination of the basis of h")
            row.append(terms)
        table.append(tuple(row))
    return tuple(table)


def _as_weight_vector(m):
    """(t, c) with the sparse matrix m equal to c e_t for c = +/-1 (e_t is +1
    at the primary entry and -1 at the partner); ValueError otherwise."""
    entry = next(iter(m), None)
    if entry in _V_OWNER:
        t, sign = _V_OWNER[entry]
        c = m[entry] * sign
        if c in (1, -1) and m == {e: c * s for e, s in zip(V_ENTRIES[t], (1, -1))}:
            return t, c
    raise ValueError("not a signed weight vector of V")


def _g_root_moves():
    """root of G -> the moves (s, t, c) with [X, e_s] = c e_t, s and t
    coordinate indices in label order, read as -[e_s, X] from ``BRACKETS``.

    Each [X, e_s] must be a signed weight vector, and X e_s X must vanish:
    by linearity (I + cX) v (I - cX) = v + c[X, v] on all of V, so a
    unipotent acts on the coordinates with no check per call.
    """
    out = {}
    for root in G_ROOTS:
        a = 4 + H_ROOTS.index(root)
        x = dict(zip(ROOT_ENTRIES[root], (1, -1)))
        moves = []
        for s, row in enumerate(BRACKETS):
            if _sparse_mul(_sparse_mul(x, dict(zip(V_ENTRIES[s], (1, -1)))), x):
                raise ValueError("X e_s X is not zero")
            if not row[a]:
                continue
            (b, c), *rest = row[a]
            if rest or b not in V_BASIS or c not in (1, -1):
                raise ValueError("not a signed weight vector of V")
            moves.append((s, V_BASIS.index(b), -c))
        out[root] = tuple(moves)
    return out


def _w0_moves():
    """W0 element -> per coordinate s, (t, sign) with P e_s P^T = sign e_t,
    where P e_j = e_perm[j] for its position permutation perm."""
    return {
        name: tuple(
            _as_weight_vector({(perm[i], perm[j]): c for (i, j), c in zip(entries, (1, -1))})
            for entries in V_ENTRIES
        )
        for name, perm in W0_POSITION_PERMS.items()
    }


def _block_gather():
    """Per block, X = v[EVEN, ODD] and then Y = v[ODD, EVEN], and per entry
    of it in row-major order: the (coordinate, sign) of ``_V_OWNER``."""
    blocks = tuple(
        tuple(_V_OWNER.get((i, j)) for i in rows for j in cols)
        for rows, cols in ((EVEN, ODD), (ODD, EVEN))
    )
    assert None not in blocks[0] + blocks[1], "a weight vector of V is not off-diagonal"
    return blocks


BRACKETS = _brackets()
G_ROOT_MOVES = _g_root_moves()
W0_MOVES = _w0_moves()
BLOCK_GATHER = _block_gather()


def v_blocks(coords):
    """The blocks (X, Y) of v = [[0, X], [Y, 0]] on (EVEN, ODD), gathered
    from its 16 weight coordinates (elements of any ring)."""
    return tuple(
        [[coords[k] if sign > 0 else -coords[k] for k, sign in block[r : r + 4]]
         for r in range(0, 16, 4)]
        for block in BLOCK_GATHER
    )


def _kills(r, m):
    """Whether r(m) = 0, for a Poly r and a square matrix m over its field
    (Horner's rule)."""
    acc = linalg.zeros(r.field, len(m), len(m))
    for c in reversed(r.coeffs):
        acc = linalg.mat_mul(acc, m)
        for i, row in enumerate(acc):
            row[i] = row[i] + c
    return not any(map(any, acc))


class VElem:
    """Element of V in weight coordinates (label order 1..16).

    The coordinates are those of ``ctx.rep = field.coords``: over a
    PrimeField, ints in [0, p), converted once here; else FElems.
    ``v[label]`` and ``serialize`` give field elements.
    """

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx, coords):
        self.ctx = ctx
        self.coords = tuple(map(ctx.rep.coord, coords))
        if len(self.coords) != 16:
            raise ValueError("16 weight coordinates required")

    @classmethod
    def _of(cls, ctx, coords):
        """The VElem with these coordinates, already in ``ctx.rep`` form."""
        v = object.__new__(cls)
        v.ctx, v.coords = ctx, tuple(coords)
        return v

    def __getitem__(self, label):
        return self.ctx.rep.box(self.coords[label - 1])

    def __add__(self, other):
        rep = self.ctx.rep
        return VElem._of(self.ctx, rep.reduce([a + b for a, b in zip(self.coords, other.coords)]))

    def __sub__(self, other):
        rep = self.ctx.rep
        return VElem._of(self.ctx, rep.reduce([a - b for a, b in zip(self.coords, other.coords)]))

    def __neg__(self):
        return VElem._of(self.ctx, self.ctx.rep.reduce([-a for a in self.coords]))

    def scale(self, c):
        rep = self.ctx.rep
        c = rep.coord(c)
        return VElem._of(self.ctx, rep.reduce([c * a for a in self.coords]))

    def __eq__(self, other):
        return (
            isinstance(other, VElem)
            and self.ctx.field is other.ctx.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self):
        return not any(self.coords)

    def zero_set(self):
        return frozenset(l for l, c in zip(LABELS, self.coords) if not c)

    def serialize(self):
        f = self.ctx.field
        return ",".join(f.elem_to_str(self[l]) for l in LABELS)

    @staticmethod
    def deserialize(ctx, s):
        f = ctx.field
        return VElem(ctx, [f.elem_from_str(t) for t in split_top(s)])

    def __repr__(self):
        return f"VElem({self.serialize()})"


def primitives(ctx, v):
    """(c2, c4, pf, c6) of v, the invariant map pi; valid for any p >= 5.

    v is a VElem, or its 16 weight coordinates in any commutative ring over
    ctx.field (the symbolic charts of ``invariants`` pass MPolys).  On
    (EVEN, ODD) its matrix is [[0, X], [Y, 0]], with X and Y gathered by
    ``v_blocks`` (no 8x8 matrix is built), so c2, c4, c6 come from the two
    4x4 products of ``linalg.block_even_coeffs``.  Psi permutes rows by
    IOTA, which permutes EVEN evenly, so the antisymmetric Psi v is
    [[0, X'], [-X'^T, 0]] with det X' = det X; the reordering to (EVEN, ODD)
    is even too, so Pf(Psi v) = det X (``linalg.det4``, 30 products).

    A VElem's coordinates are read as they are held: over a PrimeField the
    blocks run on unreduced Python ints, and the four results are boxed by
    ``ctx.rep``.  Every other input uses the operators of its entries.
    """
    velem = isinstance(v, VElem)
    x, y = v_blocks(v.coords if velem else v)
    c2, c4, c6 = linalg.block_even_coeffs(x, y, ctx.field.char)
    out = c2, c4, linalg.det4(x), c6
    return tuple(map(ctx.rep.box, out)) if velem else out


class TorusGen:
    """Element of the adjoint torus T(k) = Hom(root lattice, k^x), stored by
    its values on the H-simple roots (alpha_1..alpha_4)."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)
        if len(self.values) != 4 or not all(self.values):
            raise ValueError("four nonzero alpha-values required")

    def eval_char(self, field, evec):
        m = alpha_coords(evec)
        out = field.one
        for x, k in zip(self.values, m):
            if k:
                out = out * x**k
        return out

    def inverse(self):
        return TorusGen([x.inverse() for x in self.values])


class UnipGen:
    """exp(c X_root) = I + c X_root for a root of G (X_root^2 = 0)."""

    __slots__ = ("root", "c")

    def __init__(self, root, c):
        self.root = tuple(root)
        self.c = c


class WeylGen:
    """A representative of the Klein four-group W0."""

    __slots__ = ("name",)

    def __init__(self, name):
        if name not in W0_PERMS:
            raise ValueError(f"unknown W0 element {name!r}")
        self.name = name


class D4Context:
    """The weight basis of V and the nilpotents E, e_subreg over one field;
    the Lie structure is in the module tables.  Safe to share."""

    def __init__(self, field):
        if field.char < 5:
            raise ValueError("characteristic must be at least 5")
        self.field = field
        self.rep = field.coords
        # the weight basis of V: v_basis[l - 1] = e_l
        self.v_basis = tuple(
            VElem(self, [field.one if m == l else field.zero for m in LABELS]) for l in LABELS
        )
        self.E = VElem(self, E_COORDS)
        self.e_subreg = VElem(self, E_SUBREG_COORDS)

    def torus_from_cochar(self, exps, t):
        """The torus point cochar(t) as a TorusGen (alpha-values t^<exps, alpha_i>)."""
        t = self.field.elem(t)
        return TorusGen([t ** pairing(exps, alpha) for alpha in H_SIMPLE])

    # -- group action on V --

    def act_gen(self, gen, v: VElem) -> VElem:
        """One generator on weight coordinates: a torus point scales each
        coordinate by its character, computed once per call from the powers
        of the alpha-values, exp(c X) adds c[X, v] by the moves of
        ``G_ROOT_MOVES`` (ValueError for a root outside G) and a Klein-group
        element permutes the coordinates with the signs of ``W0_MOVES``.
        The values of a generator must lie in the context's field."""
        rep = self.rep
        if isinstance(gen, TorusGen):
            powers = [
                {k: rep.power(x, k) for k in ks}
                for x, ks in zip(map(rep.coord, gen.values), _ALPHA_EXPONENTS)
            ]
            coords = []
            for c, factors in zip(v.coords, _WEIGHT_FACTORS):
                for i, k in factors:
                    c = c * powers[i][k]
                coords.append(c)
        elif isinstance(gen, UnipGen):
            moves = G_ROOT_MOVES.get(gen.root)
            if moves is None:
                raise ValueError(f"{gen.root} is not a root of G")
            c = rep.coord(gen.c)
            neg_c = -c
            coords = list(v.coords)
            for s, t, sign in moves:
                x = v.coords[s]
                if x:
                    coords[t] = coords[t] + (c if sign > 0 else neg_c) * x
        elif isinstance(gen, WeylGen):
            coords = [None] * 16
            for x, (t, sign) in zip(v.coords, W0_MOVES[gen.name]):
                coords[t] = x if sign > 0 else -x
        else:
            raise TypeError(f"not a group generator: {gen!r}")
        return VElem._of(self, rep.reduce(coords))

    def act(self, gens, v: VElem) -> VElem:
        """Apply a generator or a word of generators (leftmost outermost)."""
        if not isinstance(gens, (list, tuple)):
            gens = [gens]
        for gen in reversed(gens):
            v = self.act_gen(gen, v)
        return v

    # -- invariant-free classification helpers --

    def ad_matrix(self, v: VElem, basis):
        """Matrix of ad(v) on the span of the h basis elements x_a, a in
        basis, in h coordinates: column j is [v, x_a] = sum_s v_s [e_s, x_a]
        from ``BRACKETS``.  Its entries are in the coordinates of ``rep``,
        unreduced ints over a prime field, for the eliminations over
        ``rep``."""
        zero = self.rep.zero
        mat = [[zero] * len(basis) for _ in H_BASIS]
        for x, row in zip(v.coords, BRACKETS):
            if not x:
                continue
            for j, a in enumerate(basis):
                for b, c in row[a]:
                    mat[b][j] = mat[b][j] + x * c
        return mat

    def centralizer_dim(self, v: VElem, ambient) -> int:
        basis = G_BASIS if ambient == "g" else H_BASIS
        return len(basis) - linalg.rank(self.rep, self.ad_matrix(v, basis))

    def char_quartic(self, v: VElem) -> Poly:
        """g(T) with det(xI - v) = g(x^2): the quartic f(t) of b = pi(v),
        since c8 = det v = det X det Y = (det X)^2 = Pf^2 (det Y = det X on V)."""
        return quartic_poly(self.field, primitives(self, v))

    def classify(self, v: VElem):
        """(regular, semisimple, regular-semisimple) flags; v is regular
        semisimple iff g = ``char_quartic(v)`` has a nonzero discriminant.

        Otherwise semisimplicity is read off the blocks of v = [[0, X],
        [Y, 0]].  v is semisimple iff v^2 = diag(XY, YX) is and ker v =
        ker v^2: on an eigenspace of v^2 with eigenvalue lambda != 0, v
        satisfies t^2 - lambda, squarefree as the characteristic is not 2,
        and on ker v^2 it must vanish.  Given ker v = ker v^2, the generalized
        kernel of v^2 is its kernel, and XY and YX have the same Jordan
        blocks at every eigenvalue other than 0 (Flanders, Proc. AMS 2,
        1951); so v^2 is semisimple iff XY is.  A matrix is semisimple iff
        the squarefree part r = g / gcd(g, g') of its characteristic
        polynomial kills it (deg g = 4 < p), and g is that of XY.  So v is
        semisimple iff r(XY) = 0 and rank X + rank Y = rank XY + rank YX.
        """
        g = self.char_quartic(v)
        if disc_univariate(g):
            return {"regular": True, "semisimple": True, "rs": True}
        f = self.field
        regular = self.centralizer_dim(v, "g") == 0
        x, y = v_blocks([v[l] for l in LABELS])
        xy, yx = linalg.mat_mul(x, y), linalg.mat_mul(y, x)
        semisimple = _kills(g // gcd(g, g.derivative()), xy) and (
            linalg.rank(f, x) + linalg.rank(f, y) == linalg.rank(f, xy) + linalg.rank(f, yx)
        )
        return {"regular": regular, "semisimple": semisimple, "rs": False}

    def __repr__(self):
        return f"D4Context({self.field!r})"


# the distinguished nilpotents in weight coordinates: E, the sum of the
# weight vectors of the simple roots alpha_i (labels 2, 9, 10, 11), and the
# subregular e_subreg (the sl2 solves of ``invariants`` check both)
E_COORDS = (0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0)
E_SUBREG_COORDS = (0, 1, 2, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0)


# -- lattice bookkeeping: pi_1(G) --


def _snf_diagonal(mat):
    """Elementary divisors of an integer matrix (Smith normal form)."""
    m = [row[:] for row in mat]
    n = len(m)
    divisors = []
    for k in range(n):
        # find a nonzero pivot minimizing |value|
        while True:
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                divisors.append(0)
                break
            bi, bj = best
            m[k], m[bi] = m[bi], m[k]
            for row in m:
                row[k], row[bj] = row[bj], row[k]
            pivot = m[k][k]
            clean = True
            for i in range(k + 1, n):
                if m[i][k] % pivot:
                    clean = False
                q = m[i][k] // pivot
                m[i] = [a - q * b for a, b in zip(m[i], m[k])]
            for j in range(k + 1, n):
                if m[k][j] % pivot:
                    clean = False
                q = m[k][j] // pivot
                for i in range(n):
                    m[i][j] -= q * m[i][k]
            if clean and all(m[i][k] == 0 for i in range(k + 1, n)) and all(
                m[k][j] == 0 for j in range(k + 1, n)
            ):
                divisors.append(abs(pivot))
                break
        else:
            continue
    return divisors


def fundamental_group_divisors():
    """Elementary divisors of X_*(T) / (coroot lattice of G).

    X_*(T) for the adjoint torus is the dual of the root lattice of H, with
    the fundamental coweights as the dual basis of the simple roots
    alpha_i; so a coroot has the coordinates <coroot, alpha_i> in that
    basis.  The coroots of the a_i = e_j +/- e_k have the same
    coordinates as the a_i.  Returns the divisor list, whose product is the
    order of pi_1(G).
    """
    return _snf_diagonal([[pairing(a, alpha) for alpha in H_SIMPLE] for a in G_SIMPLE])


def fundamental_group_order() -> int:
    out = 1
    for d in fundamental_group_divisors():
        out *= d
    return out
