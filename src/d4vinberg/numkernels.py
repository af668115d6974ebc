"""Vectorized mod-p kernels for the density enumerations and Monte Carlo.

Everything here is exact integer arithmetic on numpy integer arrays
reduced mod p, each reduction by floor division (``_reduce``, ``_mod``).
Length-2 local rings O_v/(pi^2) are equal-characteristic, so they are dual
numbers k[eps]/(eps^2); ring elements are (value, eps-part) array pairs.
Small extension residue fields use index tables.

The beta Monte Carlo computes the invariant primitives (c2, c4, pf, c6),
which are pi = (p2, p4, q4, p6) itself (``invariants.pi``), so Delta of
the primitives is Delta o pi by definition.  It runs one numpy program on
4x4 blocks (``_block_primitives``) over a lift of its integer array maps:
residues mod p (``_value_lift``) or dual-number pairs (``_dual_lift``),
the way ``_jet_ring`` lifts a ring adapter.  The blocks
X, Y of v = [[0, X], [Y, 0]] are gathered by ``liealg.BLOCK_GATHER``, the
table of ``liealg.v_blocks``, and det X runs on ``linalg.LAPLACE_4``.
``beta_mc_prime`` filters on the value first: the dual pass runs only on
the rows whose Delta value is 0.

Delta is the division-free program ``quartic.delta`` over one ``(mul,
add, scale)`` ring adapter per representation: mod-p integer arrays
(``mod_ring``), dual-number pairs (``dual_ring``), index tables
(``GFTable.ring``), (N, deg+1) polynomial batches (``batch_ring``) and int
lists (``intlist_ring``).  The gradient of the alpha counts is the same
program over first-order jets of an adapter (``_jet_ring``): at b_i +
eps_i the eps parts of Delta are its four partials.  Grids run in
BLOCK-point blocks.  The int-list functions are entry points into
``polys``.

X_D membership is one test on rows of Delta, ``xd_delta_mask``, batched
end to end: ``delta_poly_batch`` gives Delta of a chunk of rows,
``row_degrees`` their degrees, and ``squarefree_batch`` runs gcd(f, f')
for all rows in lockstep.  ``curves.xd_membership`` runs it on every row,
as it reports every Delta.  The delta_B Monte Carlo and X_D sampling read
only the mask, through ``xd_box_filter``: where the places of degree 1
are few next to deg Delta (SIEVE_RATIO), a double zero of Delta at one of
them rejects a row first (``_degree_one_sieve``), and Delta and the gcd
run on the other rows only.

The lockstep elimination of ``squarefree_batch``,
``_eliminate``, takes any two row batches (``gcd_degrees``), and with the
second batch held fixed and monic it is the remainder mod a per-row
polynomial (``_remainder``).  The members of X_D run on blocks too:
``i1_certificate`` is the I1 certificate of ``curves`` in F_p[t]/(Delta)
(a gcd degree and two remainders per row), and ``berlekamp_nullity``
counts the irreducible factors of each row of a stack, the bad places of
an X_D member, as the nullity of Berlekamp's Q - I on (rows, n, n)
stacks of at most STACK entries.

Each kernel states how many products of residues it sums before a
reduction and runs at ``_width(p, terms)``, the narrowest of int16,
int32 and int64 that holds terms (p - 1)^2 + p; its entry point casts
once (after the int64 Philox draws) and returns bool or int64 as always:
- the beta pipeline: 32 products, the eps part of tr(M M^2) (det X sums
  twelve, ``_block_det``): int16 to p = 31, int32 to 8191;
- ``_batched_polymul`` and the sieve's ``_product_mod``: 128 products
  between reductions: int16 to p = 13, int32 to 4093;
- ``_eliminate``: one step, 2 (p - 1)^2; a step multiplies its tracked
  bound by 2 (p - 1), and it reduces before the bound could pass the
  width's maximum; ``_remainder`` likewise adds (p - 1)^2 a step;
- Berlekamp's mat-vecs and elimination: n products at degree n (and the
  128 of its squarings).
int64 holds them all for p < MAX_P = 2**28; the ring adapters and the
X_D kernels reject larger p, and p < 5 (the beta pipeline's Newton step
divides by 2, 4 and 6).  numpy keeps an array's dtype in arithmetic with
a Python int (NEP 50, numpy 2.0), but widens sums and traces not given
one.
"""

import numpy as np

from . import polys
from .fields import GF
from .liealg import BLOCK_GATHER
from .linalg import LAPLACE_4, newton_even
from .quartic import delta, first_subresultant, homogenized
from .rng import det_rng

MAX_P = 2**28
BETA_CHUNK = 20000  # samples per Philox stream of beta_mc_prime
# bytes per coordinate of a block of beta_mc_prime, 2000 rows of int64: a
# third survive the value pass at q = 5, and on 500-row blocks their dual
# pass was bound by per-call overhead; the stage peaks at 46 MB at 500 and
# at 2000 rows alike; at int16, 8000-row blocks took a quarter less time
BETA_BLOCK = 16000
BLOCK = 2**16  # grid points per block of the alpha counts and their oracle


def _check_p(p):
    """Reject p outside [5, MAX_P): the Newton step of ``dual_primitives``
    divides by 2, 4 and 6 (Delta itself is division-free), and int64 is
    exact only below MAX_P."""
    if not 5 <= p < MAX_P:
        raise ValueError(f"p = {p} outside the range 5 <= p < {MAX_P} of the int64 kernels")


def _width(p, terms):
    """The narrowest of int16, int32 and int64 that holds terms (p - 1)^2 +
    p: terms products of residues mod p and one more residue."""
    for dtype in (np.int16, np.int32, np.int64):
        if terms * (p - 1) ** 2 + p <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"{terms} products of residues mod {p} leave the int64 range")


def _value_lift(p):
    """Lift to residues mod p: ``(each, bilinear)`` as in ``_dual_lift``."""
    return (lambda f: f, lambda f: lambda a, b: _mod(f(a, b), p))


def _dual_lift(p):
    """Lift of maps on integer arrays to dual-number pairs (value, eps) mod
    p: ``each(f)`` applies a linear f to the value and the eps parts alike
    (unreduced), ``bilinear(f)`` gives (f(a0, b0), f(a0, b1) + f(a1, b0))
    reduced mod p, so an eps part sums twice the products of the value."""
    return (
        lambda f: lambda *args: tuple(f(*parts) for parts in zip(*args)),
        lambda f: lambda a, b: (_mod(f(a[0], b[0]), p), _mod(f(a[0], b[1]) + f(a[1], b[0]), p)),
    )


def _lift_ring(lift, p):
    """The ``(mul, add, scale)`` ring of a lift."""
    _check_p(p)
    each, bilinear = lift
    return (
        bilinear(np.multiply),
        each(lambda a, b: _mod(a + b, p)),
        lambda c, a: each(lambda x: _mod(c % p * x, p))(a),
    )


def mod_ring(p):
    """Ring of residue arrays mod p."""
    return _lift_ring(_value_lift(p), p)


def _grid_blocks(q, n):
    """The q^n points of {0..q-1}^n in code order (the first coordinate
    most significant), BLOCK points at a time, as n coordinate arrays at
    the width of two products (a dual-number product)."""
    for start in range(0, q**n, BLOCK):
        codes = np.arange(start, min(start + BLOCK, q**n), dtype=np.int64)
        yield [_mod(codes // q**k, q).astype(_width(q, 2)) for k in reversed(range(n))]


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
    """Index-table arithmetic on int16 codes for a small extension field."""

    def __init__(self, field):
        self.field = field
        q = field.order
        if q > 64:
            raise ValueError("index tables limited to q <= 64")
        self.q = q
        elems = sorted(field, key=field.to_int)
        self.add = np.zeros((q, q), dtype=np.int16)
        self.mul = np.zeros((q, q), dtype=np.int16)
        for a in elems:
            ia = field.to_int(a)
            for b in elems:
                ib = field.to_int(b)
                self.add[ia, ib] = field.to_int(a + b)
                self.mul[ia, ib] = field.to_int(a * b)
        embed = np.array(
            [field.to_int(field.elem(k)) for k in range(field.char)], dtype=np.int16
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


# (2, 16) coordinate indices and signs of the entries of the blocks X, Y;
# the signs are int8, so that a product takes the coordinates' dtype
_BLOCK_INDEX, _BLOCK_SIGN = np.array(BLOCK_GATHER, dtype=np.int8).transpose(2, 0, 1)
# (2, 2, 6) columns (i, j) of the minors of the rows (0, 1) and (2, 3) in
# the six pairs of linalg.LAPLACE_4
_LAPLACE_COLS = np.array(LAPLACE_4, dtype=np.int64).transpose(1, 2, 0)


def _block_det(x, lift):
    """det of (N, 4, 4) blocks x of signed residues in (-p, p), over a lift
    (``_value_lift``, ``_dual_lift``): the sum of the products of the
    complementary 2x2 minors of ``linalg.LAPLACE_4``, 30 products a row.

    Bound: a minor sums two products of signed residues (four in an eps
    part), reduced once; the determinant sums six products of residues
    (twelve in an eps part), in the dtype of x.
    """
    bilinear = lift[1]
    top, bottom = (
        bilinear(lambda a, b: a[:, r, i] * b[:, r + 1, j] - a[:, r, j] * b[:, r + 1, i])(x, x)
        for r, (i, j) in zip((0, 2), _LAPLACE_COLS)
    )
    return bilinear(lambda a, b: (a * b).sum(axis=1, dtype=a.dtype))(top, bottom)


def _block_primitives(coords, p, lift):
    """(c2, c4, pf, c6) of a batch of elements of V over a lift.

    coords are (N, 16) weight coordinates mod p in label order, one array
    per part of the lift.  ``liealg.BLOCK_GATHER`` gathers them into the
    4x4 blocks of v = [[0, X], [Y, 0]], (N, 4, 4) arrays of signed residues
    in (-p, p) (every product reduces).  As in ``liealg.primitives``,
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
    trace = each(lambda a: _mod(a.trace(axis1=1, axis2=2, dtype=a.dtype), p))
    traces = (trace(m), trace(m2), bilinear(lambda a, b: np.einsum("nij,nji->n", a, b))(m, m2))
    c2, c4, c6 = newton_even(*(add(t, t) for t in traces), p, ring)
    return c2, c4, _block_det(x, lift), c6


def dual_primitives(coords, p):
    """(c2, c4, pf, c6) of a batch of elements of V over the dual numbers:
    coords is an integer array (N, 16, 2) of weight coordinates mod p,
    value part and eps part; each invariant comes back as a dual pair of
    (N,) arrays (``_block_primitives`` over ``_dual_lift``)."""
    return _block_primitives((coords[..., 0], coords[..., 1]), p, _dual_lift(p))


def beta_mc_prime(p, n_samples, seed):
    """Monte Carlo count of {x in V(O/pi^2) : Delta(pi(x)) = 0 mod pi^2}.

    Samples uniform dual-number coordinates, pushes them through the matrix
    invariants and the quartic discriminant, and returns the hit count.
    Batch i of BETA_CHUNK samples draws from the Philox stream (seed,
    "beta-mc", i), cast to ``_width`` of its widest sum, 32 products, in
    blocks of BETA_BLOCK bytes a coordinate.  A block runs the value parts
    first (over ``_value_lift`` and ``mod_ring``), and the dual numbers only
    on the rows whose value is 0: dropping eps is a ring map onto F_p, and
    the Newton step scales by int inverses, so the value part of the dual
    Delta is Delta of the value parts.
    """
    value_ring, ring = mod_ring(p), dual_ring(p)
    width = _width(p, 32)
    rows = BETA_BLOCK // width.itemsize
    hits = 0
    done = 0
    batch_index = 0
    while done < n_samples:
        size = min(BETA_CHUNK, n_samples - done)
        rng = det_rng(seed, "beta-mc", batch_index)
        batch_index += 1
        coords = rng.integers(0, p, size=(size, 16, 2), dtype=np.int64).astype(width)
        for lo in range(0, size, rows):
            block = coords[lo : lo + rows]
            value = delta(_block_primitives(block[..., 0], p, _value_lift(p)), value_ring)
            d0, d1 = delta(dual_primitives(block[value == 0], p), ring)
            hits += int(((d0 == 0) & (d1 == 0)).sum())
        done += size
    return hits


# -- batched polynomial pipeline for the delta_B Monte Carlo --


def _batched_polymul(a, b, p):
    """(N, da+1) x (N, db+1) -> (N, da+db+1), coefficients mod p.

    Residue products are formed in one buffer, summed unreduced and
    reduced every 128 terms, in the dtype of a, whose maximum must hold
    128 (p - 1)^2 + p.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    n, da1 = a.shape
    db1 = b.shape[1]
    out = np.zeros((n, da1 + db1 - 1), dtype=a.dtype)
    assert 128 * (p - 1) ** 2 + p <= np.iinfo(out.dtype).max
    term, tmp = np.empty_like(b), np.empty_like(out)
    for i in range(da1):
        np.multiply(a[:, i : i + 1], b, out=term)
        out[:, i : i + db1] += term
        if i % 128 == 127:
            _reduce(out, p, tmp)
    _reduce(out, p, tmp)
    return out


def _batched_polyadd(a, b, p):
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    out = a.copy()
    out[:, : b.shape[1]] = _mod(out[:, : b.shape[1]] + b, p)
    return out


def batch_ring(p):
    """Ring of polynomial batches: (N, deg+1) coefficient arrays mod p."""
    _check_p(p)
    return (
        lambda a, b: _batched_polymul(a, b, p),
        lambda a, b: _batched_polyadd(a, b, p),
        lambda c, a: _mod(c % p * a, p),
    )


def delta_poly_batch(p, coeff_arrays):
    """Batched Delta for polynomial coefficient tuples (arrays (N, deg+1),
    lowest degree first, residues mod p).  Row i holds the coefficients of
    Delta of tuple i, up to the weighted degree 24 d of Delta when the
    arrays are those of H^0(X, B_D) (widths 2 d w + 1), as int64; the
    products run at the width of ``_batched_polymul``'s 128 terms."""
    return delta([c.astype(_width(p, 128)) for c in coeff_arrays], batch_ring(p)).astype(np.int64)


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


def _mod(x, p):
    """x mod p as a new array, by the floor division of ``_reduce``."""
    out = np.floor_divide(x, p)
    out *= p
    return np.subtract(x, out, out=out)


def _lead_first(rows, deg, width):
    """Rows of residues (lowest degree first) stored leading coefficient
    first at their degrees deg in width columns: column j holds the
    coefficient of x^(deg - j), 0 past x^0.  Also returns the exponents
    deg - j."""
    expo = deg[:, None] - np.arange(width)
    return np.where(expo >= 0, np.take_along_axis(rows, np.maximum(expo, 0), axis=1), 0), expo


def _eliminate(a, da, b, db, p):
    """deg gcd(A, B) of each pair of rows, -1 for two zeros, by lockstep
    elimination, as int64.

    a and b are (N, w) arrays of residues mod p, each row stored leading
    coefficient first at a formal degree (da, db; -1 for zero, below w),
    and in each row at least one of the two leads is nonzero.  The
    elimination C = lc(B) A - lc(A) B then needs neither an inverse nor an
    alignment, and its column 0 is zero.  In each step every live row
    replaces one of A, B by C shifted left one column: A when lc(A) = 0
    (then C = lc(B) A), or when both leads are nonzero and deg A >= deg B;
    else B (C is then -lc(A) B, or B - x^k A up to a unit).  The one left
    alone keeps a nonzero lead, as a step leaves alone only a polynomial
    whose lead it found nonzero.  So deg A + deg B falls by one per step.
    A row is done when A or B reaches formal degree -1, that is, is zero;
    the other one is then the gcd with a nonzero lead, at its degree.

    Bound: a step takes |entries| <= bound to 2 (p - 1) bound, so a and b
    are reduced mod p only when the next step could pass the maximum of
    their dtype, which must hold 2 (p - 1)^2.
    """
    out = np.empty(len(a), dtype=np.int64)
    idx = np.arange(len(a))
    top = np.iinfo(a.dtype).max
    bound = p - 1  # of |entries| of a and b
    combo, tmp = np.empty_like(a), np.empty_like(a)
    while len(idx):
        live = (da >= 0) & (db >= 0)
        if not live.all():
            out[idx[~live]] = np.maximum(da, db)[~live]
            idx, a, b, da, db = idx[live], a[live], b[live], da[live], db[live]
            combo, tmp = np.empty_like(a), np.empty_like(a)
            continue
        width = int(max(da.max(), db.max())) + 1
        a, b, combo, tmp = a[:, :width], b[:, :width], combo[:, :width], tmp[:, :width]
        if 2 * (p - 1) * bound > top:
            _reduce(a, p, tmp)
            _reduce(b, p, tmp)
            bound = p - 1
        lead_a, lead_b = _mod(a[:, 0], p), _mod(b[:, 0], p)
        into_a = (lead_a == 0) | ((lead_b != 0) & (da >= db))
        # C shifted left: column 0 of C is zero mod p
        c, t = combo[:, 1:], tmp[:, 1:]
        np.multiply(lead_b[:, None], a[:, 1:], out=c)
        np.multiply(lead_a[:, None], b[:, 1:], out=t)
        c -= t
        bound *= 2 * (p - 1)
        assert bound <= top
        for poly, deg_, mask in ((a, da, into_a), (b, db, ~into_a)):
            np.copyto(poly[:, :-1], c, where=mask[:, None])
            poly[mask, -1] = 0
            deg_ -= mask
    return out


def gcd_degrees(a, b, p):
    """deg gcd(a, b) of each pair of rows of two arrays of residues mod p
    (lowest degree first), -1 for two zero rows, as ``polys.gcd``: the
    lockstep ``_eliminate``, at the width of one step."""
    _check_p(p)
    a, b = a.astype(_width(p, 2)), b.astype(_width(p, 2))
    da, db = row_degrees(a), row_degrees(b)
    width = max(a.shape[1], b.shape[1])
    return _eliminate(_lead_first(a, da, width)[0], da, _lead_first(b, db, width)[0], db, p)


def squarefree_batch(rows, p):
    """Squarefree test of every row of an (N, m) array of mod-p polynomial
    coefficients (lowest degree first), as ``polys.is_squarefree_raw``:
    zero is not squarefree, a nonzero constant is.

    deg gcd(f, f') = 0 by ``_eliminate``, for all rows in lockstep at the
    width of one step: f at its degree (a nonzero lead), and f' at formal
    degree deg f - 1, column j of its lead-first row being (deg - j)
    f_(deg - j).
    """
    _check_p(p)
    rows = _mod(np.asarray(rows, dtype=np.int64), p).astype(_width(p, 2))
    deg = row_degrees(rows)
    out = deg == 0
    idx = np.flatnonzero(deg > 0)
    if len(idx):
        da = deg[idx]
        a, expo = _lead_first(rows[idx], da, da.max() + 1)
        out[idx] = _eliminate(a, da, _mod(_mod(expo, p).astype(a.dtype) * a, p), da - 1, p) == 0
    return out


def _remainder(a, f, p):
    """a mod f for each row: a is (N, w), f is (N, n + 1) with monic rows
    of degree n >= 1, both lowest degree first and residues mod p; the
    remainders come back as (N, min(w, n)) residues.

    This is the step of ``_eliminate`` with B = f held fixed: as lc(B) =
    1, C = A - lc(A) x^k B drops the lead of A, one column a step, until
    deg A < n, and the pseudo-remainder (Knuth, TAOCP vol. 2, 4.6.1) is
    the remainder.  Bound: a step adds at most (p - 1)^2 to |entries|, so
    A is reduced only when the next step could pass the maximum of its
    dtype, every 128 steps at p near MAX_P on int64.
    """
    n = f.shape[1] - 1
    a = a[:, ::-1].copy()  # lead first at formal degree w - 1
    spare = np.empty_like(a)
    low = f[:, n - 1 :: -1]  # f_(n-1), ..., f_0
    tmp = np.empty_like(low)
    top = np.iinfo(a.dtype).max
    bound = p - 1  # of |entries| of a
    while a.shape[1] > n:
        if bound + (p - 1) ** 2 > top:
            _reduce(a, p, spare[:, : a.shape[1]])
            bound = p - 1
        np.multiply(_mod(a[:, :1], p), low, out=tmp)
        a[:, 1 : n + 1] -= tmp
        bound += (p - 1) ** 2
        assert bound <= top
        a = a[:, 1:]
    return _mod(a[:, ::-1], p)


def _inverse(x, p):
    """x^(p - 2) mod p of an array of residues: the inverse of each
    nonzero one, and 0 for 0, by square-and-multiply on products of
    residues."""
    out = np.ones_like(x)
    for bit in bin(p - 2)[2:]:
        out = _mod(out * out, p)
        if bit == "1":
            out = _mod(out * x, p)
    return out


def i1_certificate(p, coeff_arrays, moduli):
    """The I1 certificate of ``curves`` for a batch of tuples b = (p2, p4,
    q4, p6) and moduli Delta of one degree n >= 1: the four (N, k + 1)
    arrays of b and the (N, n + 1) array of Delta, lowest degree first,
    residues mod p.

    Returns (ok, (s1, s0, Fh, dFh)): row i passes iff ok[i], and the four
    int64 arrays hold its tested values, computed at the width of
    ``_batched_polymul``'s 128 terms.  S1 = s1 x + s0 is the first
    subresultant of (f, f') (``quartic.first_subresultant`` over
    ``batch_ring``); the pair of units is gcd(s1 s0, Delta) = 1
    (``gcd_degrees``); Fh and dFh are the remainders mod Delta of Fh(X, Z)
    = Z^4 f(X/Z) and dFh/dX at (X, Z) = (-s0, s1) (``quartic.homogenized``
    over F_p[t]/(Delta): ``_batched_polymul``, then ``_remainder`` mod the
    monic Delta), the zero tests.
    """
    _check_p(p)
    n = moduli.shape[1] - 1
    width = _width(p, 128)
    coeff_arrays, moduli = [c.astype(width) for c in coeff_arrays], moduli.astype(width)
    monic = _mod(moduli * _inverse(moduli[:, n], p)[:, None], p)
    mul, add, scale = batch_ring(p)
    s1, s0 = first_subresultant(coeff_arrays, (mul, add, scale))
    quotient = (lambda a, b: _remainder(mul(a, b), monic, p), add, scale)
    fh, dfh = homogenized(coeff_arrays, (scale(-1, s0), s1), quotient)
    ok = (gcd_degrees(mul(s1, s0), monic, p) == 0) & ~fh.any(axis=1) & ~dfh.any(axis=1)
    return ok, tuple(x.astype(np.int64) for x in (s1, s0, fh, dfh))


def xd_delta_mask(rows, d, p):
    """X_D mask of the Delta rows of tuples of H^0(X, B_D): row i is in
    X_D iff its Delta is nonzero and squarefree (``squarefree_batch``)
    with at most a simple zero at infinity, 24 d - deg Delta <= 1
    (``row_degrees``).  The rows are (N, 24 d + 1) residues mod p, lowest
    degree first, as ``delta_poly_batch`` gives them."""
    deg = row_degrees(rows)
    mask = (deg >= 0) & (24 * d - deg <= 1)
    mask[mask] = squarefree_batch(rows[mask], p)
    return mask


def _product_mod(a, b, p):
    """a @ b mod p of residue arrays (N, w) and (w, k) of one dtype whose
    maximum holds 128 (p - 1)^2 + p: slices of 128 terms, each added to the
    reduced sum of those before it."""
    assert 128 * (p - 1) ** 2 + p <= np.iinfo(a.dtype).max
    acc = 0
    for i in range(0, a.shape[1], 128):
        acc = _mod(acc + a[:, i : i + 128] @ b[i : i + 128], p)
    return acc


def _degree_one_table(w, p):
    """The (w, 2 (p + 1)) table whose product with the coefficients c_0,
    ..., c_(w-1) of c(t) gives its jets at the places of degree 1: p + 1
    values, then p + 1 slopes.  Column a < p holds a^j, and its slope
    column j a^(j - 1), mod p.  Column p is the place at infinity, in the
    chart s = 1/t with c read at degree w - 1: s^(w-1) c(1/s) has value
    c_(w-1) and slope c_(w-2) at s = 0 (0 at w = 1)."""
    value = np.zeros((w, p + 1), dtype=np.int64)
    slope = np.zeros((w, p + 1), dtype=np.int64)
    value[0, :p] = 1
    for j in range(1, w):
        value[j, :p] = _mod(value[j - 1, :p] * np.arange(p), p)
        slope[j, :p] = _mod(j * value[j - 1, :p], p)
    value[w - 1, p] = 1
    if w > 1:
        slope[w - 2, p] = 1
    return np.concatenate((value, slope), axis=1)


def _degree_one_sieve(p, coeff_arrays):
    """False for the tuples of H^0(X, B_D) whose Delta has a double zero at
    a place of degree 1, and so are not in X_D; True for the rest.

    At a in F_p, Delta(b(a)) and (d/dt) Delta(b(t)) at t = a are the value
    and eps parts of ``delta`` over ``dual_ring`` at the jets (b_i(a),
    b_i'(a)).  At infinity they are the coefficients of t^(24 d) and
    t^(24 d - 1) of Delta: Delta is weighted homogeneous, so at the jets
    (top, second-top) of the box-degree coefficients of b it gives
    s^(24 d) Delta(b(1/s)) to first order at s = 0.  All p + 1 places are
    one ``delta`` call on (N, p + 1) arrays, whose jets are one
    ``_product_mod`` per coefficient array (``_degree_one_table``), at
    the width of its 128-term slices.
    """
    _check_p(p)
    width = _width(p, 128)
    jets = []
    for c in coeff_arrays:
        both = _product_mod(c.astype(width), _degree_one_table(c.shape[1], p).astype(width), p)
        jets.append((both[:, : p + 1], both[:, p + 1 :]))
    value, slope = delta(jets, dual_ring(p))
    return ((value != 0) | (slope != 0)).all(axis=1)


# xd_box_filter sieves at p + 1 <= SIEVE_RATIO d (measured: see its docstring)
SIEVE_RATIO = 8


def xd_box_filter(p, coeff_arrays):
    """X_D mask of a batch of tuples of H^0(X, B_D).

    coeff_arrays are the four (N, 2 d w + 1) arrays of (p2, p4, q4, p6),
    w = (1, 2, 2, 3), lowest degree first, residues mod p.  Row i is in
    X_D iff ``xd_delta_mask`` passes its Delta (``delta_poly_batch``).

    Where p + 1 <= SIEVE_RATIO d, the places of degree 1 go first: a row
    whose Delta has a double zero at one of them is not in X_D
    (``_degree_one_sieve``), and Delta and the squarefree test run on the
    other rows only.  The sieve costs N (p + 1) dual-number Delta
    programs, and it rejects a share of the rows that falls like 1 / p,
    so it pays only where the places are few next to deg Delta = 24 d.
    Sieved over unsieved filter time (CPU, medians of 9, 2-core VM):
    - d = 1, three blocks of 512 rows: 0.67 at p = 5, 0.94 at 7, 1.11 at
      11, 1.24 at 13;
    - d = 2, the same blocks: 0.62 at p = 5, 0.92 at 13, 1.08 at 17;
    - d = 3, one block of 4000 rows: 0.44 at p = 5, 0.98 at 23, 1.02 at
      29, 1.07 at 31;
    - d = 4, two blocks of 512 rows: 0.99 at p = 29, 1.01 at 31.
    """
    d = (coeff_arrays[0].shape[1] - 1) // 2
    mask = np.ones(len(coeff_arrays[0]), dtype=bool)
    if p + 1 <= SIEVE_RATIO * d:
        mask = _degree_one_sieve(p, coeff_arrays)
        coeff_arrays = [c[mask] for c in coeff_arrays]
    mask[mask] = xd_delta_mask(delta_poly_batch(p, coeff_arrays), d, p)
    return mask


# -- Berlekamp's place count --

# entries of one (rows, n, n) stack of Berlekamp's matrices, 256 KB at int64:
# a minimal-models pass then peaks in its sampling, not here, and smaller
# stacks are slower
STACK = 2**15


def _rank_stack(a, p):
    """Ranks mod p of an (S, n, n) stack of entries in (-p, p)
    (overwritten), by lockstep Gauss-Jordan elimination: in each column
    every stack takes one pivot, its first row not yet a pivot with a
    nonzero entry, and subtracts multiples of it from every row.  The
    pivot row itself goes to 0 mod p, but no pivot row is read again.

    Only the pivot row and the multipliers are reduced, so a column adds
    less than (p - 1)^2 to an entry's size: exact while the maximum of
    the dtype holds n (p - 1)^2 + p, as ``berlekamp_nullity`` sees to."""
    s, n, _ = a.shape
    assert n * (p - 1) ** 2 + p <= np.iinfo(a.dtype).max
    stacks = np.arange(s)
    free = np.ones((s, n), dtype=bool)
    for col in range(n):
        column = _mod(a[:, :, col], p)
        candidates = free & (column != 0)
        found = candidates.any(axis=1)
        pivot = np.argmax(candidates, axis=1)
        factors = _mod(column * (_inverse(column[stacks, pivot], p) * found)[:, None], p)
        pivot_row = _mod(a[stacks, pivot, col + 1 :], p)
        a[:, :, col + 1 :] -= factors[:, :, None] * pivot_row[:, None, :]
        free[stacks[found], pivot[found]] = False
    return n - free.sum(axis=1)


def _berlekamp_matrix(f, p):
    """Q - I for each row of f, an (S, n + 1) array of residues mod p of
    degree n >= 1 (lowest first), as an (S, n, n) stack of entries in
    (-p, p).

    Column i of Q is x^(i p) mod f.  x^p mod f comes by square-and-multiply
    on the rows: a square is ``_batched_polymul`` and ``_remainder``, a
    product by x a shift and one step of ``_remainder``.  Column j of C^p,
    the matrix of multiplication by x^p on 1, x, ..., x^(n-1), is
    x^(p + j) mod f, one more shift-and-reduce step each, and column i of
    Q is C^p times column i - 1, one batched mat-vec each: n steps, not
    O(p).  C^p is freed on return, before the elimination.
    """
    s, n = f.shape[0], f.shape[1] - 1
    f = _mod(f * _inverse(f[:, n], p)[:, None], p)
    zero = np.zeros((s, 1), dtype=f.dtype)

    def times_x(r):
        return _remainder(np.concatenate((zero, r), axis=1), f, p)

    r = np.ones((s, 1), dtype=f.dtype)
    for bit in bin(p)[2:]:
        r = _remainder(_batched_polymul(r, r, p), f, p)
        if bit == "1":
            r = times_x(r)
    cp = np.zeros((s, n, n), dtype=f.dtype)
    cp[:, : r.shape[1], 0] = r
    for j in range(1, n):
        cp[:, :, j] = times_x(cp[:, :, j - 1])
    q = np.zeros_like(cp)
    q[:, 0, 0] = 1
    for i in range(1, n):
        # n products of residues: below n (p - 1)^2
        q[:, :, i] = _mod(np.matmul(cp, q[:, :, i - 1 : i])[:, :, 0], p)
    q[:, np.arange(n), np.arange(n)] -= 1
    return q


def berlekamp_nullity(rows, p):
    """dim ker(Q - I) of each row of an (N, m) array of mod-p polynomials
    (lowest degree first), 0 for a constant: the number of irreducible
    factors of a squarefree row (Berlekamp, Bell Syst. Tech. J. 46, 1967),
    as an int64 array.

    Rows are grouped by degree n and run in stacks of at most STACK // n^2
    rows (``_berlekamp_matrix``, ``_rank_stack``), with no float BLAS.  A
    mat-vec sums n products of residues, and the elimination adds less
    than (p - 1)^2 to an entry per column, so the stacks run at the
    ``_width`` of n terms at the largest degree n (and of the 128 of
    ``_batched_polymul``), which refuses a degree past int64 before any
    product (p < MAX_P by ``_check_p``).
    """
    _check_p(p)
    rows = _mod(np.asarray(rows, dtype=np.int64), p)
    deg = row_degrees(rows)
    rows = rows.astype(_width(p, max(int(deg.max(initial=0)), 128)))
    out = np.zeros(len(rows), dtype=np.int64)
    for n in set(deg[deg > 0].tolist()):
        idx = np.flatnonzero(deg == n)
        size = max(1, STACK // n**2)
        for lo in range(0, len(idx), size):
            stack = idx[lo : lo + size]
            out[stack] = n - _rank_stack(_berlekamp_matrix(rows[stack, : n + 1], p), p)
    return out


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
