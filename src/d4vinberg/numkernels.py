"""Vectorized mod-p kernels for the density enumerations and Monte Carlo.

Everything here is exact integer arithmetic on int64 arrays reduced mod p.
Length-2 local rings O_v/(pi^2) are equal-characteristic, so they are dual
numbers k[eps]/(eps^2); ring elements are (value, eps-part) array pairs.
Small extension residue fields use index tables.

The beta Monte Carlo computes the invariant primitives (c2, c4, pf, c6),
which are pi = (p2, p4, q4, p6) itself (``invariants.pi``), so Delta of
the primitives is Delta o pi by definition.  It runs one numpy program on
4x4 blocks (``_block_primitives``) over a lift of its int64 array maps:
residues mod p (``_value_lift``) or dual-number pairs (``_dual_lift``),
the way ``_jet_ring`` lifts a ring adapter.  The blocks
X, Y of v = [[0, X], [Y, 0]] are gathered by ``liealg.BLOCK_GATHER``, the
table of ``liealg.v_blocks``, and det X runs on ``linalg.LAPLACE_4``.
``beta_mc_prime`` filters on the value first: the dual pass runs only on
the rows whose Delta value is 0.

Delta is the division-free program ``quartic.delta`` over one ``(mul,
add, scale)`` ring adapter per representation: mod-p int64 arrays
(``mod_ring``), dual-number pairs (``dual_ring``), index tables
(``GFTable.ring``), (N, deg+1) polynomial batches (``batch_ring``) and int
lists (``intlist_ring``).  The gradient of the alpha counts is the same
program over first-order jets of an adapter (``_jet_ring``): at b_i +
eps_i the eps parts of Delta are its four partials.  Grids run in
BLOCK-point blocks.  The int-list functions are entry points into
``polys``.

The delta_B Monte Carlo, X_D sampling and membership share one box filter,
``xd_box_filter``, batched end to end: ``delta_poly_batch`` gives Delta of
a chunk of rows, ``row_degrees`` their degrees, and ``squarefree_batch``
runs gcd(f, f') for all rows in lockstep.  ``berlekamp_nullity`` counts
the irreducible factors of a squarefree polynomial, the bad places of an
X_D member, as the nullity of Berlekamp's Q - I in int64 mod p.

The int64 kernels are exact only for p < MAX_P = 2**28.  The sum that
binds is a 128-term block of ``_batched_polymul``, which reduces after
every 128 terms: 128 (p - 1)^2 + p < 2^63.  The widest sum of the beta
pipeline is the eps part of tr(M M^2) on the 4x4 blocks, 32 products of
residues (det X sums at most twelve, see ``_block_det``);
``squarefree_batch`` tracks a bound on its entries,
and ``berlekamp_nullity``, whose products of n x n matrices sum n products
of residues, checks n (p - 1)^2 + p < 2^63.
The numpy ring adapters and ``squarefree_batch`` reject larger p, and
p < 5 (the Newton step of the beta pipeline divides by 2, 4 and 6).
"""

import numpy as np

from . import polys
from .fields import GF
from .liealg import BLOCK_GATHER
from .linalg import LAPLACE_4, newton_even
from .quartic import delta
from .rng import det_rng

MAX_P = 2**28
BETA_CHUNK = 20000  # samples per Philox stream of beta_mc_prime
# rows per block of beta_mc_prime: a third survive the value pass at q = 5,
# and on 500-row blocks their dual pass was bound by per-call overhead; the
# beta stage peaks at 46 MB at 500 and at 2000 rows alike
BETA_BLOCK = 2000
BLOCK = 2**16  # grid points per block of the alpha counts and their oracle


def _check_p(p):
    """Reject p outside [5, MAX_P): the Newton step of ``dual_primitives``
    divides by 2, 4 and 6 (Delta itself is division-free), and int64 is
    exact only below MAX_P."""
    if not 5 <= p < MAX_P:
        raise ValueError(f"p = {p} outside the range 5 <= p < {MAX_P} of the int64 kernels")


def _value_lift(p):
    """Lift to residues mod p: ``(each, bilinear)`` as in ``_dual_lift``."""
    return (lambda f: f, lambda f: lambda a, b: f(a, b) % p)


def _dual_lift(p):
    """Lift of maps on int64 arrays to dual-number pairs (value, eps) mod
    p: ``each(f)`` applies a linear f to the value and the eps parts alike
    (unreduced), ``bilinear(f)`` gives (f(a0, b0), f(a0, b1) + f(a1, b0))
    reduced mod p, so an eps part sums twice the products of the value."""
    return (
        lambda f: lambda *args: tuple(f(*parts) for parts in zip(*args)),
        lambda f: lambda a, b: (f(a[0], b[0]) % p, (f(a[0], b[1]) + f(a[1], b[0])) % p),
    )


def _lift_ring(lift, p):
    """The ``(mul, add, scale)`` ring of a lift."""
    _check_p(p)
    each, bilinear = lift
    return (
        bilinear(np.multiply),
        each(lambda a, b: (a + b) % p),
        lambda c, a: each(lambda x: c % p * x % p)(a),
    )


def mod_ring(p):
    """Ring of int64 residue arrays mod p."""
    return _lift_ring(_value_lift(p), p)


def _grid_blocks(q, n):
    """The q^n points of {0..q-1}^n in code order (the first coordinate
    most significant), BLOCK points at a time, as n coordinate arrays."""
    for start in range(0, q**n, BLOCK):
        codes = np.arange(start, min(start + BLOCK, q**n), dtype=np.int64)
        yield [codes // q**k % q for k in reversed(range(n))]


def _jet_ring(ring):
    """First-order jets over ring: (value, [eps_0..eps_3 parts]) with
    eps_i eps_j = 0, so a product's eps parts follow Leibniz's rule."""
    mul, add, scale = ring
    return (
        lambda a, b: (
            mul(a[0], b[0]),
            [add(mul(a[0], y), mul(x, b[0])) for x, y in zip(a[1], b[1])],
        ),
        lambda a, b: (add(a[0], b[0]), [add(x, y) for x, y in zip(a[1], b[1])]),
        lambda c, a: (scale(c, a[0]), [scale(c, x) for x in a[1]]),
    )


def _alpha_counts(q, ring, zero, one):
    """N0 = #{Delta = 0} and the points of {Delta = 0, grad Delta = 0}, as
    four coordinate arrays in code order, over a field of q elements coded
    0..q-1 (zero and one are the codes of 0 and 1).  grad Delta is the eps
    part of ``delta`` at the jet (b_i, e_i) of each coordinate."""
    blocks = []
    for pt in _grid_blocks(q, 4):
        on = delta(pt, ring) == zero
        blocks.append([a[on] for a in pt])
    sub = [np.concatenate(c) for c in zip(*blocks)]
    jets = [(x, [one if j == i else zero for j in range(4)]) for i, x in enumerate(sub)]
    _, grad = delta(jets, _jet_ring(ring))
    acc = np.ones(len(sub[0]), dtype=bool)
    for g in grad:
        acc &= g == zero
    return len(sub[0]), [a[acc] for a in sub]


def alpha_lift_prime(p):
    """Numerator of alpha_v * q^8 by the first-order lift strategy, F_p.

    Nodal-smooth points contribute p^3 lifts each; gradient-zero points are
    evaluated once over the dual numbers (all their lifts share the value).
    """
    n0, sing = _alpha_counts(p, mod_ring(p), 0, 1)
    n2 = len(sing[0])
    # tripwire: at gradient-zero points every lift b + eps e has the dual
    # value Delta(b) + eps grad Delta(b) . e = 0
    eps = det_rng(0, "alpha-lift-tripwire", p).integers(0, p, size=(4, n2), dtype=np.int64)
    d0, d1 = delta(list(zip(sing, eps)), dual_ring(p))
    assert not d0.any() and not d1.any(), "a gradient-zero point lifts to Delta != 0"
    return (n0 - n2) * p**3 + n2 * p**4


def alpha_brute_prime(p):
    """Exhaustive count over all p^8 residues of B(O/pi^2) with Delta = 0
    mod pi^2 (literal dual-number evaluation at every point); the oracle
    for the lift strategy."""
    ring = dual_ring(p)
    count = 0
    for x in _grid_blocks(p, 8):
        d0, d1 = delta(list(zip(x[0:4], x[4:8])), ring)
        count += int(((d0 == 0) & (d1 == 0)).sum())
    return count


class GFTable:
    """Index-table arithmetic for a small extension field (vectorized)."""

    def __init__(self, field):
        self.field = field
        q = field.order
        if q > 64:
            raise ValueError("index tables limited to q <= 64")
        self.q = q
        elems = sorted(field, key=field.to_int)
        self.add = np.zeros((q, q), dtype=np.int64)
        self.mul = np.zeros((q, q), dtype=np.int64)
        for a in elems:
            ia = field.to_int(a)
            for b in elems:
                ib = field.to_int(b)
                self.add[ia, ib] = field.to_int(a + b)
                self.mul[ia, ib] = field.to_int(a * b)
        embed = np.array(
            [field.to_int(field.elem(k)) for k in range(field.char)], dtype=np.int64
        )
        add, mul, p = self.add, self.mul, field.char
        self.ring = (
            lambda a, b: mul[a, b],
            lambda a, b: add[a, b],
            lambda c, a: mul[embed[c % p], a],
        )


def alpha_counts_table(field):
    """(N0, N2) over a small extension field via index tables."""
    tab = GFTable(field)
    n0, sing = _alpha_counts(tab.q, tab.ring, field.to_int(field.zero), field.to_int(field.one))
    return n0, len(sing[0])


# -- the invariant pipeline of the beta Monte Carlo on numpy blocks --


def dual_ring(p):
    """Ring of dual-number pairs (value array, eps array) mod p."""
    return _lift_ring(_dual_lift(p), p)


# (2, 16) coordinate indices and signs of the entries of the blocks X, Y
_BLOCK_INDEX, _BLOCK_SIGN = np.array(BLOCK_GATHER, dtype=np.int64).transpose(2, 0, 1)
# (2, 2, 6) columns (i, j) of the minors of the rows (0, 1) and (2, 3) in
# the six pairs of linalg.LAPLACE_4
_LAPLACE_COLS = np.array(LAPLACE_4, dtype=np.int64).transpose(1, 2, 0)


def _block_det(x, lift):
    """det of (N, 4, 4) blocks x of signed residues in (-p, p), over a lift
    (``_value_lift``, ``_dual_lift``): the sum of the products of the
    complementary 2x2 minors of ``linalg.LAPLACE_4``, 30 products a row.

    Int64 bound: a minor sums two products of signed residues (four in an
    eps part), reduced once; the determinant sums six products of residues
    (twelve in an eps part): each sum is below 12 (p - 1)^2 < 2^63.
    """
    bilinear = lift[1]
    top, bottom = (
        bilinear(lambda a, b: a[:, r, i] * b[:, r + 1, j] - a[:, r, j] * b[:, r + 1, i])(x, x)
        for r, (i, j) in zip((0, 2), _LAPLACE_COLS)
    )
    return bilinear(lambda a, b: (a * b).sum(axis=1))(top, bottom)


def _block_primitives(coords, p, lift):
    """(c2, c4, pf, c6) of a batch of elements of V over a lift.

    coords are (N, 16) weight coordinates mod p in label order, one array
    per part of the lift.  ``liealg.BLOCK_GATHER`` gathers them into the
    4x4 blocks of v = [[0, X], [Y, 0]], (N, 4, 4) arrays of signed residues
    in (-p, p) (every product reduces).  As in ``invariants.primitives``,
    c2, c4, c6 come from M = XY by ``linalg.newton_even`` over the lift's
    ring, and Pf(Psi v) = det X (``_block_det``).
    """
    each, bilinear = lift
    x, y = (
        each(lambda c: (c[:, index] * sign).reshape(-1, 4, 4))(coords)
        for index, sign in zip(_BLOCK_INDEX, _BLOCK_SIGN)
    )
    matmul = bilinear(np.matmul)
    m = matmul(x, y)
    m2 = matmul(m, m)
    ring = _lift_ring(lift, p)
    add = ring[1]
    trace = each(lambda a: np.trace(a, axis1=1, axis2=2) % p)
    traces = (trace(m), trace(m2), bilinear(lambda a, b: np.einsum("nij,nji->n", a, b))(m, m2))
    c2, c4, c6 = newton_even(*(add(t, t) for t in traces), p, ring)
    return c2, c4, _block_det(x, lift), c6


def dual_primitives(coords, p):
    """(c2, c4, pf, c6) of a batch of elements of V over the dual numbers:
    coords is an int64 array (N, 16, 2) of weight coordinates mod p,
    value part and eps part; each invariant comes back as a dual pair of
    (N,) arrays (``_block_primitives`` over ``_dual_lift``)."""
    return _block_primitives((coords[..., 0], coords[..., 1]), p, _dual_lift(p))


def beta_mc_prime(p, n_samples, seed):
    """Monte Carlo count of {x in V(O/pi^2) : Delta(pi(x)) = 0 mod pi^2}.

    Samples uniform dual-number coordinates, pushes them through the matrix
    invariants and the quartic discriminant, and returns the hit count.
    Batch i of BETA_CHUNK samples draws from the Philox stream (seed,
    "beta-mc", i).  A block of rows runs the value parts first (over
    ``_value_lift`` and ``mod_ring``), and the dual numbers only on the rows
    whose value is 0: dropping eps is a ring map onto F_p, and the Newton
    step scales by int inverses, so the value part of the dual Delta is
    Delta of the value parts.
    """
    value_ring, ring = mod_ring(p), dual_ring(p)
    hits = 0
    done = 0
    batch_index = 0
    while done < n_samples:
        size = min(BETA_CHUNK, n_samples - done)
        rng = det_rng(seed, "beta-mc", batch_index)
        batch_index += 1
        coords = rng.integers(0, p, size=(size, 16, 2), dtype=np.int64)
        for lo in range(0, size, BETA_BLOCK):
            block = coords[lo : lo + BETA_BLOCK]
            value = delta(_block_primitives(block[..., 0], p, _value_lift(p)), value_ring)
            d0, d1 = delta(dual_primitives(block[value == 0], p), ring)
            hits += int(((d0 == 0) & (d1 == 0)).sum())
        done += size
    return hits


# -- batched polynomial pipeline for the delta_B Monte Carlo --


def _batched_polymul(a, b, p):
    """(N, da+1) x (N, db+1) -> (N, da+db+1), coefficients mod p.

    Residue products are formed in one buffer, summed unreduced and
    reduced every 128 terms: 128 (p - 1)^2 + p < 2^63 for p < MAX_P.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    n, da1 = a.shape
    db1 = b.shape[1]
    out = np.zeros((n, da1 + db1 - 1), dtype=np.int64)
    term = np.empty_like(b)
    for i in range(da1):
        np.multiply(a[:, i : i + 1], b, out=term)
        out[:, i : i + db1] += term
        if i % 128 == 127:
            out %= p
    out %= p
    return out


def _batched_polyadd(a, b, p):
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    out = a.copy()
    out[:, : b.shape[1]] = (out[:, : b.shape[1]] + b) % p
    return out


def batch_ring(p):
    """Ring of polynomial batches: (N, deg+1) coefficient arrays mod p."""
    _check_p(p)
    return (
        lambda a, b: _batched_polymul(a, b, p),
        lambda a, b: _batched_polyadd(a, b, p),
        lambda c, a: c % p * a % p,
    )


def delta_poly_batch(p, coeff_arrays):
    """Batched Delta for polynomial coefficient tuples (arrays (N, deg+1),
    lowest degree first, residues mod p).  Row i holds the coefficients of
    Delta of tuple i, up to the weighted degree 24 d of Delta when the
    arrays are those of H^0(X, B_D) (widths 2 d w + 1)."""
    return delta(coeff_arrays, batch_ring(p))


def row_degrees(rows):
    """Degree of each row of an (N, m) coefficient array (lowest degree
    first); -1 for a zero row."""
    nz = rows != 0
    return np.where(nz.any(axis=1), rows.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), -1)


def _reduce(x, p, tmp):
    """x %= p in place through the buffer tmp (floor division by a scalar
    is much faster than numpy's integer remainder)."""
    np.floor_divide(x, p, out=tmp)
    tmp *= p
    x -= tmp


def squarefree_batch(rows, p):
    """Squarefree test of every row of an (N, m) array of mod-p polynomial
    coefficients (lowest degree first), as ``polys.is_squarefree_raw``:
    zero is not squarefree, a nonzero constant is.

    gcd(f, f') runs for all rows in lockstep on int64, exact for p < MAX_P.
    A and B are stored leading coefficient first at a formal degree, so the
    elimination C = lc(B) A - lc(A) B needs neither an inverse nor an
    alignment, and its column 0 is zero.  In each step every live row
    replaces one of A, B by C shifted left one column: A when lc(A) = 0
    (then C = lc(B) A), or when both leads are nonzero and deg A >= deg B;
    else B (C is then -lc(A) B, or B - x^k A up to a unit).  The one left
    alone keeps a nonzero lead: lc(A) != 0 at the start, and a step
    leaves alone only a polynomial whose lead it found nonzero.  So deg A
    + deg B falls by one per step.  Entries are reduced mod p only when
    the next step could leave the int64 range.  A row is done when A or B
    reaches formal degree -1, that is, is zero; the other one is then the
    gcd with a nonzero lead, and the row is squarefree iff its degree is 0.
    """
    _check_p(p)
    rows = np.asarray(rows, dtype=np.int64) % p
    deg = row_degrees(rows)
    out = deg == 0
    idx = np.flatnonzero(deg > 0)
    if len(idx) == 0:
        return out
    da = deg[idx]
    # column j holds the coefficient of x^(deg - j); f' at formal degree
    # deg - 1 is then column-wise (deg - j) f_(deg - j)
    expo = da[:, None] - np.arange(da.max() + 1)
    a = np.where(expo >= 0, np.take_along_axis(rows[idx], np.maximum(expo, 0), axis=1), 0)
    b = expo % p * a % p
    db = da - 1
    bound = p - 1  # of |entries| of a and b
    combo, tmp = np.empty_like(a), np.empty_like(a)
    while True:
        live = (da >= 0) & (db >= 0)
        done = ~live
        if done.any():
            out[idx[done]] = np.maximum(da, db)[done] == 0
            idx, a, b, da, db = idx[live], a[live], b[live], da[live], db[live]
            combo, tmp = np.empty_like(a), np.empty_like(a)
            if not len(idx):
                return out
        width = int(max(da.max(), db.max())) + 1
        a, b, combo, tmp = a[:, :width], b[:, :width], combo[:, :width], tmp[:, :width]
        if 2 * (p - 1) * bound >= 2**63:
            _reduce(a, p, tmp)
            _reduce(b, p, tmp)
            bound = p - 1
        lead_a, lead_b = a[:, 0] % p, b[:, 0] % p
        into_a = (lead_a == 0) | ((lead_b != 0) & (da >= db))
        # C shifted left: column 0 of C is zero mod p
        c, t = combo[:, 1:], tmp[:, 1:]
        np.multiply(lead_b[:, None], a[:, 1:], out=c)
        np.multiply(lead_a[:, None], b[:, 1:], out=t)
        c -= t
        bound *= 2 * (p - 1)
        for poly, deg_, mask in ((a, da, into_a), (b, db, ~into_a)):
            np.copyto(poly[:, :-1], c, where=mask[:, None])
            poly[mask, -1] = 0
            deg_ -= mask


def xd_box_filter(p, coeff_arrays):
    """(Delta rows, X_D mask) of a batch of tuples of H^0(X, B_D).

    coeff_arrays are the four (N, 2 d w + 1) arrays of (p2, p4, q4, p6),
    w = (1, 2, 2, 3), lowest degree first, residues mod p.  The Delta rows
    are those of ``delta_poly_batch``; row i is in X_D iff its Delta is
    nonzero and squarefree (``squarefree_batch``) with at most a simple
    zero at infinity, 24 d - deg Delta <= 1 (``row_degrees``).
    """
    d = (coeff_arrays[0].shape[1] - 1) // 2
    delta = delta_poly_batch(p, coeff_arrays)
    deg = row_degrees(delta)
    mask = (deg >= 0) & (24 * d - deg <= 1)
    mask[mask] = squarefree_batch(delta[mask], p)
    return delta, mask


# -- Berlekamp's place count --


def _rank_mod(a, p):
    """Rank of an (n, n) int64 matrix of residues mod p by elimination.

    Only the pivot row and the multipliers are reduced, so each step adds
    less than (p - 1)^2 to an entry's size: exact while n (p - 1)^2 + p <
    2^63, as ``berlekamp_nullity`` checks."""
    a = a.copy()
    rank = 0
    for col in range(a.shape[1]):
        column = a[rank:, col] % p
        nz = np.flatnonzero(column)
        if not len(nz):
            continue
        k = nz[0]
        if k:
            a[[rank, rank + k]] = a[[rank + k, rank]]
            column[[0, k]] = column[[k, 0]]
        pivot_row = a[rank, col + 1 :] % p
        factors = column[1:] * pow(int(column[0]), -1, p) % p
        a[rank + 1 :, col + 1 :] -= factors[:, None] * pivot_row
        rank += 1
    return rank


def berlekamp_nullity(coeffs, p):
    """dim ker(Q - I) for f mod p given as an int list (lowest degree
    first), 0 for a constant: the number of irreducible factors of a
    squarefree f (Berlekamp, Bell Syst. Tech. J. 46, 1967).

    Column i of Q is x^(i p) mod f.  With C the companion matrix of monic
    f (multiplication by x on 1, x, ..., x^(n-1)), C^p is multiplication
    by x^p, so column i is (C^p)^i e_0; C^p comes by square-and-multiply
    and the rank by elimination mod p, all on int64 with no float BLAS.
    Each matrix product sums n products of residues: exact while
    n (p - 1)^2 + p < 2^63, which is checked (p < MAX_P by ``_check_p``).
    """
    _check_p(p)
    f = np.trim_zeros(np.asarray(coeffs, dtype=np.int64) % p, "b")
    n = len(f) - 1
    if n < 1:
        return 0
    if n * (p - 1) ** 2 + p >= 2**63:
        raise ValueError(f"degree {n} at p = {p} leaves the int64 range of Berlekamp's matrices")
    f = f * pow(int(f[-1]), -1, p) % p
    comp = np.zeros((n, n), dtype=np.int64)
    comp[1:, :-1] = np.eye(n - 1, dtype=np.int64)
    comp[:, -1] = -f[:-1] % p
    step, e = np.eye(n, dtype=np.int64), p
    while e:
        if e & 1:
            step = step @ comp % p
        e >>= 1
        if e:
            comp = comp @ comp % p
    q = np.zeros((n, n), dtype=np.int64)
    q[0, 0] = 1
    for i in range(1, n):
        q[:, i] = step @ q[:, i - 1] % p
    q[np.arange(n), np.arange(n)] -= 1
    return n - _rank_mod(q % p, p)


# -- int-list entry points into the polynomial layer of polys --


def squarefree_int_list(coeffs, p):
    """Squarefree test of a mod-p polynomial given as an int list (low
    first); False for the zero polynomial."""
    return polys.is_squarefree_raw(GF(p), coeffs)


def il_factor(coeffs, p):
    """[(tuple coeffs of monic irreducible, multiplicity)], sorted."""
    return [(g.vals, mult) for g, mult in polys.factor(polys.Poly(GF(p), coeffs))]


def intlist_ring(p):
    """Ring of mod-p polynomials as int lists (lowest degree first)."""
    F = GF(p)
    return (
        F.poly_mul,
        F.poly_add,
        lambda c, a: F.poly_mul([c % p], a),
    )


def delta_poly_intlists(p, coeff_lists):
    """Delta for four mod-p polynomials given as int lists (low first)."""
    return delta(coeff_lists, intlist_ring(p))
