"""Vectorized mod-p kernels for the density enumerations and Monte Carlo.

Everything here is exact integer arithmetic on int64 arrays reduced mod p.
Length-2 local rings O_v/(pi^2) are equal-characteristic, so they are dual
numbers k[eps]/(eps^2); ring elements are (value, eps-part) array pairs.
Small extension residue fields use index tables.

``dual_primitives`` is the dual-number backend of the invariant primitives
(c2, c4, pf, c6) for the beta Monte Carlo: it keeps only the numpy 4x4
block products, traces and determinant gather, and runs the Newton step of
``linalg`` over ``dual_ring``.  Weight coordinates are gathered straight
into the blocks X, Y of v = [[0, X], [Y, 0]] by the ``liealg.BLOCK_GATHER``
table, the one that ``liealg.v_blocks`` reads for boxed coordinates.

Delta is the division-free program ``quartic.delta`` over one ``(mul,
add, scale)`` ring adapter per representation: mod-p int64 arrays
(``mod_ring``), dual-number pairs (``dual_ring``), index tables
(``GFTable.ring``), (N, deg+1) polynomial batches (``batch_ring``) and int
lists (``intlist_ring``).  The gradient of the alpha counts is the same
program over first-order jets of an adapter (``_jet_ring``): at b_i +
eps_i the eps parts of Delta are its four partials.  Grids run in
BLOCK-point blocks.  The int-list functions are entry points into
``polys``.

The delta_B Monte Carlo and the X_D sampler share one box filter,
``xd_box_filter``, batched end to end: ``delta_poly_batch`` gives Delta of
a chunk of rows, ``row_degrees`` their degrees, and ``squarefree_batch``
runs gcd(f, f') for all rows in lockstep.  ``berlekamp_nullity`` counts
the irreducible factors of a squarefree polynomial, the bad places of an
X_D member, as the nullity of Berlekamp's Q - I in int64 mod p.

The int64 kernels are exact only for p < MAX_P = 2**28.  The sum that
binds is a 128-term block of ``_batched_polymul``, which reduces after
every 128 terms: 128 (p - 1)^2 + p < 2^63.  The widest sum of the beta
pipeline is now the eps part of ``_dtrace_prod`` on the 4x4 blocks, 32
products of residues; ``squarefree_batch`` tracks a bound on its entries,
and ``berlekamp_nullity``, whose products of n x n matrices sum n products
of residues, checks n (p - 1)^2 + p < 2^63.
The numpy ring adapters and ``squarefree_batch`` reject larger p, and
p < 5 (the Newton step of the beta pipeline divides by 2, 4 and 6).
"""

import numpy as np

from . import polys
from .fields import GF
from .liealg import BLOCK_GATHER
from .linalg import det_terms, newton_even
from .quartic import delta
from .rng import det_rng

MAX_P = 2**28
BETA_CHUNK = 20000  # samples per Philox stream of beta_mc_prime
# rows per dual_primitives call in beta_mc_prime: with small temporaries
# the allocator reuses their pages instead of returning and refaulting them
BETA_BLOCK = 500
BLOCK = 2**16  # grid points per block of the alpha counts and their oracle


def _check_p(p):
    """Reject p outside [5, MAX_P): the Newton step of ``dual_primitives``
    divides by 2, 4 and 6 (Delta itself is division-free), and int64 is
    exact only below MAX_P."""
    if not 5 <= p < MAX_P:
        raise ValueError(f"p = {p} outside the range 5 <= p < {MAX_P} of the int64 kernels")


def mod_ring(p):
    """Ring of int64 residue arrays mod p."""
    _check_p(p)
    return (
        lambda a, b: a * b % p,
        lambda a, b: (a + b) % p,
        lambda c, a: c % p * a % p,
    )


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


# -- dual-number invariant pipeline for the beta Monte Carlo --


def _dmul(a, b, p):
    return (a[0] * b[0] % p, (a[0] * b[1] + a[1] * b[0]) % p)


def _dadd(a, b, p):
    return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)


def _dscale(k, a, p):
    return (k * a[0] % p, k * a[1] % p)


def dual_ring(p):
    """Ring of dual-number pairs (value array, eps array) mod p."""
    _check_p(p)
    return (
        lambda a, b: _dmul(a, b, p),
        lambda a, b: _dadd(a, b, p),
        lambda c, a: _dscale(c % p, a, p),
    )


def _dmatmul(a, b, p):
    m0 = np.matmul(a[0], b[0]) % p
    m1 = (np.matmul(a[0], b[1]) + np.matmul(a[1], b[0])) % p
    return (m0, m1)


def _dtrace(a, p):
    return (np.trace(a[0], axis1=1, axis2=2) % p, np.trace(a[1], axis1=1, axis2=2) % p)


def _dtrace_prod(a, b, p):
    t0 = np.einsum("nij,nji->n", a[0], b[0]) % p
    t1 = (np.einsum("nij,nji->n", a[0], b[1]) + np.einsum("nij,nji->n", a[1], b[0])) % p
    return (t0, t1)


# (2, 16) coordinate indices and signs of the entries of the blocks X, Y
_BLOCK_INDEX, _BLOCK_SIGN = np.array(BLOCK_GATHER, dtype=np.int64).transpose(2, 0, 1)
# signs (24,) and index pairs (24, 4, 2) of the terms of a 4x4 determinant
_DET_SIGNS, _DET_PAIRS = (np.array(t, dtype=np.int64) for t in zip(*det_terms(4)))


def dual_primitives(coords, p):
    """(c2, c4, pf, c6) of a batch of elements of V over the dual numbers.

    coords is an int64 array (N, 16, 2) of weight coordinates mod p in label
    order, value part and eps part; each invariant comes back as a dual
    pair of (N,) arrays.  The coordinates are gathered by
    ``liealg.BLOCK_GATHER`` into the 4x4 blocks of v = [[0, X], [Y, 0]], as
    dual pairs of (N, 4, 4) arrays of signed residues in (-p, p) (every
    product reduces).  As in ``invariants.primitives``, c2, c4, c6 come
    from M = XY by the Newton step of ``linalg.newton_even`` over
    ``dual_ring(p)``, and Pf(Psi v) = det X is a gather of the 24 terms of
    ``linalg.det_terms(4)``.
    """
    x, y = (
        tuple(
            (coords[:, index, part] * sign).reshape(-1, 4, 4) for part in (0, 1)
        )
        for index, sign in zip(_BLOCK_INDEX, _BLOCK_SIGN)
    )
    m = _dmatmul(x, y, p)
    m2 = _dmatmul(m, m, p)
    ring = dual_ring(p)
    _, add, _ = ring
    traces = (_dtrace(m, p), _dtrace(m2, p), _dtrace_prod(m, m2, p))
    c2, c4, c6 = newton_even(*(add(t, t) for t in traces), p, ring)
    prod = None
    for t in range(4):
        rows, cols = _DET_PAIRS[:, t, 0], _DET_PAIRS[:, t, 1]
        h = (x[0][:, rows, cols], x[1][:, rows, cols])
        prod = h if prod is None else _dmul(prod, h, p)
    pf = (prod[0] @ _DET_SIGNS % p, prod[1] @ _DET_SIGNS % p)
    return c2, c4, pf, c6


def beta_mc_prime(p, n_samples, seed):
    """Monte Carlo count of {x in V(O/pi^2) : Delta(pi(x)) = 0 mod pi^2}.

    Samples uniform dual-number coordinates, pushes them through the matrix
    invariants (``dual_primitives``, diagonal normalization) and the
    quartic discriminant.  Returns the hit count.  Batch i of BETA_CHUNK
    samples draws from the Philox stream (seed, "beta-mc", i).
    """
    ring = dual_ring(p)
    hits = 0
    done = 0
    batch_index = 0
    while done < n_samples:
        size = min(BETA_CHUNK, n_samples - done)
        rng = det_rng(seed, "beta-mc", batch_index)
        batch_index += 1
        coords = rng.integers(0, p, size=(size, 16, 2), dtype=np.int64)
        for lo in range(0, size, BETA_BLOCK):
            prims = dual_primitives(coords[lo : lo + BETA_BLOCK], p)
            d0, d1 = delta(prims, ring)
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
        lambda a, b: polys.add_raw(F, a, b),
        lambda c, a: F.poly_mul([c % p], a),
    )


def delta_poly_intlists(p, coeff_lists):
    """Delta for four mod-p polynomials given as int lists (low first)."""
    return delta(coeff_lists, intlist_ring(p))
