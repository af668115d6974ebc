"""Dense exact linear algebra over a field, plus division-free kernels.

Matrices are lists of lists of field elements.  Sizes here are tiny (at most
28x28), so everything is straightforward Gaussian elimination with exact
arithmetic.  ``staged_solve`` solves a block-triangular system given only by
its residual function, one stage at a time: it reads each stage's affine
map off by evaluation and asserts at the end that the solution zeroes every
residual.  The Kostant section, the slice lift and the orbit reduction run
on it.

The invariant primitives are division-free and written once, for entries in
any commutative ring: ``trace``, ``trace_prod``, ``det4`` (by 2x2-minor
pairs, ``LAPLACE_4``) and ``block_even_coeffs``, the c2, c4, c6 of the
even characteristic polynomial of [[0, x], [y, 0]] from the blocks x and
y.  They serve field elements and the symbolic ``MPoly`` charts of
``invariants``; no 8x8 matrix is formed (the 8x8 coefficients and the
Pfaffian by perfect matchings are the tests' oracles).  The Newton
step ``newton_even`` from power sums to c2, c4, c6 also takes a ``(mul,
add, scale)`` ring triple, as ``MPoly.eval`` does, so ``numkernels`` runs
it on dual-number arrays; its divisions by 2, 4 and 6 are scalings by int
inverses mod the characteristic (p >= 5).

The eliminations (``rank``, ``kernel_basis``, ``solve``, ``staged_solve``)
and ``charpoly_berkowitz`` take a field or its ``coords`` (see ``fields``)
and call its ``inverse``, ``reduce`` and ``dot``: on a PrimeField's
``Residues`` they run on the ints their callers hold (``D4Context.rep``).
Every other routine is one generic loop over the operators of its entries.
"""

from .multipoly import PY_RING


def zeros(field, n, m):
    return [[field.zero] * m for _ in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    out = []
    for i in range(n):
        row_a = a[i]
        row = []
        for col in bt:
            acc = row_a[0] * col[0]
            for t in range(1, k):
                acc = acc + row_a[t] * col[t]
            row.append(acc)
        out.append(row)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def _row_echelon(field, mat, aug=None):
    """In-place row reduction by ``field.reduce``; returns pivot columns."""
    red = field.reduce
    mat[:] = map(red, mat)
    if aug is not None:
        aug[:] = map(red, aug)
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        if aug is not None:
            aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = field.inverse(mat[r][c])
        mat[r] = red([x * inv for x in mat[r]])
        if aug is not None:
            aug[r] = red([x * inv for x in aug[r]])
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = red([x - f * y for x, y in zip(mat[i], mat[r])])
                if aug is not None:
                    aug[i] = red([x - f * y for x, y in zip(aug[i], aug[r])])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(field, a):
    if not a:
        return 0
    m = [row[:] for row in a]
    return len(_row_echelon(field, m))


def kernel_basis(field, a):
    """Basis of the right kernel of a (rows = equations)."""
    if not a:
        return []
    cols = len(a[0])
    m = [row[:] for row in a]
    pivots = _row_echelon(field, m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(field.reduce(v))
    return basis


def solve(field, a, b):
    """One solution x of a x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [row[:] for row in a]
    aug = [[x] for x in b]
    pivots = _row_echelon(field, m, aug)
    for i in range(rows):
        if all(not x for x in m[i]) and aug[i][0]:
            return None
    x = [field.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][0]
    return x


def staged_solve(field, residual, n, stages):
    """x of length n zeroing residual(x, eqs) for every stage (unknowns, eqs).

    The stages run in order.  While a stage runs, the earlier unknowns hold
    their solved values and the rest are 0; the stage's residuals must be
    affine in its unknowns there.  They are read off by evaluation: with
    base = residual(x, eqs), column j is residual(x + e_j, eqs) - base, and
    the stage's values solve A d = -base.
    """
    x = [field.zero] * n
    for unknowns, eqs in stages:
        base = residual(x, eqs)
        cols = []
        for j in unknowns:
            xj = list(x)
            xj[j] = field.one
            cols.append([r - b for r, b in zip(residual(xj, eqs), base)])
        sol = solve(field, transpose(cols), [-b for b in base])
        assert sol is not None, "staged solve: inconsistent stage"
        for j, d in zip(unknowns, sol):
            x[j] = d
    every_eq = [e for _, eqs in stages for e in eqs]
    assert not any(residual(x, every_eq)), "staged solve: a stage is not affine"
    return x


# -- the 4x4 determinant by complementary 2x2 minors --

# Laplace expansion along rows (0, 1): det a is the sum over the six column
# pairs (i, j) of det a[0:2, (i, j)] det a[2:4, (k, l)], where (k, l) is the
# complement of (i, j), ordered so as to carry the sign of the term.
LAPLACE_4 = (((0, 1), (2, 3)), ((0, 2), (3, 1)), ((0, 3), (1, 2)),
             ((1, 2), (0, 3)), ((1, 3), (2, 0)), ((2, 3), (0, 1)))


def det4(a):
    """Determinant of a 4x4 matrix over any commutative ring by ``LAPLACE_4``,
    30 products (division-free)."""
    terms = (
        (a[0][i] * a[1][j] - a[0][j] * a[1][i]) * (a[2][k] * a[3][l] - a[2][l] * a[3][k])
        for (i, j), (k, l) in LAPLACE_4
    )
    acc = next(terms)
    for term in terms:
        acc = acc + term
    return acc


# -- characteristic polynomial --


def trace(a):
    """Sum of the diagonal of a square matrix over any ring."""
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def trace_prod(a, b):
    """tr(a b) of two square matrices over any ring, without the product."""
    terms = (x * b[j][i] for i, row in enumerate(a) for j, x in enumerate(row))
    acc = next(terms)
    for t in terms:
        acc = acc + t
    return acc


def newton_even(t2, t4, t6, char, ring=PY_RING):
    """(e2, e4, e6) from the power sums t_k = tr(a^k), k = 2, 4, 6, of a
    matrix whose odd power sums vanish (Newton's identities).

    The ring is a ``(mul, add, scale)`` triple as in ``MPoly.eval``; the
    divisions by 2, 4 and 6 are scalings by their int inverses mod char,
    so char must be at least 5.
    """
    mul, add, scale = ring
    e2 = scale(-pow(2, -1, char) % char, t2)
    e4 = scale(-pow(4, -1, char) % char, add(t4, mul(e2, t2)))
    e6 = scale(-pow(6, -1, char) % char, add(t6, add(mul(e2, t4), mul(e4, t2))))
    return e2, e4, e6


def block_even_coeffs(x, y, char):
    """(c2, c4, c6) of det(tI - a) = t^2n + c2 t^(2n-2) + c4 t^(2n-4) +
    c6 t^(2n-6) + ... for a = [[0, x], [y, 0]] with n x n blocks x and y,
    whose odd power traces vanish: a^2 = diag(xy, yx), so tr(a^(2k)) =
    2 tr(m^k) with m = xy, and two n x n products replace two 2n x 2n
    ones."""
    m = mat_mul(x, y)
    m2 = mat_mul(m, m)
    t2, t4, t6 = trace(m), trace(m2), trace_prod(m, m2)
    return newton_even(t2 + t2, t4 + t4, t6 + t6, char)


def charpoly_berkowitz(field, a):
    """Characteristic polynomial of a (det(xI - a)), division-free.

    Returns coefficients lowest-degree-first, length n+1, leading 1.
    Cross-check path for the fast even charpoly; also used for ad matrices
    whose size exceeds the characteristic (Newton would divide by p).
    On ``Residues`` it runs on ints, each dot product reduced mod p, and
    returns ints; over a field, on the operators of its entries.
    """
    n, one, dot = len(a), field.one, field.dot
    # Berkowitz: iteratively build the char poly vector via Toeplitz products
    vec = [one, -a[0][0]]
    for i in range(1, n):
        row = a[i][:i]  # R
        cur = [a[k][i] for k in range(i)]  # S
        sub = [r[:i] for r in a[:i]]  # principal submatrix
        # products R A^j S for j = 0..i-1
        products = []
        for _ in range(i):
            products.append(dot(row, cur))
            cur = [dot(r, cur) for r in sub]
        # Toeplitz multiply: new vector length i+2, entry r = sum_k diag[r-k] vec[k]
        diag = [one, -a[i][i]] + [-x for x in products]
        vec = [dot(vec, diag[r::-1]) for r in range(i + 2)]
    # vec holds coefficients from x^n down to x^0
    return field.reduce(vec[::-1])
