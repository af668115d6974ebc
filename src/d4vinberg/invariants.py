"""The invariant map pi: V -> B, the Kostant section and the subregular slice.

The four invariants (p2, p4, q4, p6) of v are primitive conjugation
invariants of the 8x8 matrix view: the even characteristic polynomial
coefficients c2, c4, c6 and the Pfaffian of Psi*v, so pi(v) = (c2, c4, Pf,
c6) (for the stable grading, Thorne, Algebra & Number Theory 7, 2013).
``liealg.primitives`` computes them once, from the 4x4 blocks X, Y of
v = [[0, X], [Y, 0]], for a VElem and for the symbolic MPoly coordinates of
the Kostant and slice charts; ``pi`` and ``_chart_primitives`` call it, and
``numkernels`` does the same on numpy blocks.
The points of the charts, symbolic or at field values, come from one
coordinate-wise pass, ``_chart_coords``.

The calibration finds the weight-2 linear chart functions x, y on the
subregular slice for which the plane-cubic relation
y(xy + 2 q4) = x^3 + p2 x^2 + p4 x + p6 holds identically
(``_slice_relation``).  The relation is linear in them on its monomials of
mixed weight, so ``_chart_functions`` reads them off the symbolic
primitives by three 2x2 solves, and the exact relation certifies the
solution.  Nothing is left to normalize: rescaling x by alpha and y by
+-alpha breaks the relation unless alpha = 1 and the sign is +.  The
calibration report gives pi in the nine coefficients of a general ansatz,
``CALIBRATION_U``.  All chart data (F, f, centralizer
bases, chart functions) is solved once, in the context's own field: every
input of those solves has prime-field entries, so over F_{p^m} row
reduction picks the pivots it picks over F_p and lands on the same
prime-field values.  The sl2 lowering elements (for
h = 2 cochar in Cartan coordinates) and the graded centralizers solve
``D4Context.ad_matrix`` on weight spaces, as h indices of the bracket table
``liealg.BRACKETS``; the Kostant section and the slice lift are triangular
solves of chart polynomials by ``linalg.staged_solve``.
"""

import json

from . import linalg
from .liealg import (
    D4Context,
    H_BASIS,
    LABELS,
    RHO_CHECK,
    LAMBDA_CHECK,
    VElem,
    pairing,
    TorusGen,
    V_BASIS,
    WEIGHT_EVEC,
    primitives,
)
from .multipoly import MPoly
from .quartic import quartic_disc
from .rng import det_rng

MIN_LIE_CHAR = 23  # standing hypothesis for the section/slice machinery

# pi as the calibration report prints it: u1..u9 of the ansatz
#     p2 = u1 c2,  q4 = u2 Pf,  p4 = u3 c4 + u4 c2^2 + u5 Pf,
#     p6 = u6 c6 + u7 c2 c4 + u8 c2^3 + u9 c2 Pf,
# in which pi = (c2, c4, Pf, c6) is the unit.
CALIBRATION_U = (1, 1, 1, 0, 0, 1, 0, 0, 0)


class Invariants:
    """pi, the Kostant section and the subregular slice chart of a
    D4Context with char >= 23, over any finite field F_{p^m}.

    F, f, Z, W and the chart functions (xi, eta) are computed directly in
    ctx.field, and ``calibration_json`` prints that field's values.  The
    calibration is a linear solve with no random points, so `seed` is
    unused; it stays for the callers that pass it.
    """

    def __init__(self, ctx: D4Context, seed: int = 0):
        if ctx.field.char < MIN_LIE_CHAR:
            raise ValueError(
                f"section and slice machinery requires characteristic >= {MIN_LIE_CHAR}"
            )
        self.ctx = ctx
        self.E, self.e = ctx.E, ctx.e_subreg
        self.F = _solve_lowering(ctx, self.E, RHO_CHECK)
        self.f = _solve_lowering(ctx, self.e, LAMBDA_CHECK)
        self.Z = _graded_centralizer_basis(
            ctx, self.F, RHO_CHECK, expect_weights=(-1, -3, -3, -5), expect_h_dim=4
        )
        self.W = _graded_centralizer_basis(
            ctx, self.f, LAMBDA_CHECK, expect_weights=(-1, -1, -1, -3, -3), expect_h_dim=6
        )
        k_prims = _chart_primitives(ctx, self.E, self.Z)
        s_prims = _chart_primitives(ctx, self.e, self.W)
        self.xi, self.eta = _chart_functions(ctx.field, s_prims)
        # the equations of the chart solves, in the coordinates of ctx.rep:
        # the Kostant section's pi = b, and slice_lift's x, y and p2, then
        # p4 and q4
        rep = ctx.rep
        self._kappa_eqs = [rep.poly(m) for m in k_prims]
        self._lift_eqs = [
            rep.poly(m) for m in (*_chart_xy(len(self.W), self.xi, self.eta), *s_prims[:3])
        ]

    # -- public operations --

    def pi(self, v: VElem):
        """The invariants (p2, p4, q4, p6) = (c2, c4, pf, c6) of v."""
        return primitives(self.ctx, v)

    def kostant_section(self, b) -> VElem:
        """kappa_b: the point of E + z_h(F) with pi = b (graded triangular solve)."""
        rep = self.ctx.rep
        b = [rep.coord(x) for x in b]
        t = _solve_chart(rep, self._kappa_eqs, b, stages=((0,), (1, 2), (3,)))
        return self._kappa_point(t)

    def _kappa_point(self, t) -> VElem:
        """E + sum t_k Z_k for t in the coordinates of ctx.rep."""
        ctx = self.ctx
        coords = _chart_coords(self.E.coords, [z.coords for z in self.Z], t)
        return VElem._of(ctx, ctx.rep.reduce(coords))

    def slice_param(self, cs) -> VElem:
        ctx = self.ctx
        cs = [ctx.rep.coord(c) for c in cs]
        if len(cs) != 5:
            raise ValueError("five slice coordinates required")
        coords = _chart_coords(self.e.coords, [w.coords for w in self.W], cs)
        return VElem._of(ctx, ctx.rep.reduce(coords))

    def slice_coords(self, v: VElem):
        """(x, y, b) for v in Sigma; raises if v is not on the slice."""
        f, rep = self.ctx.field, self.ctx.rep
        diff = v - self.e
        rows = [list(col) for col in zip(*(w.coords for w in self.W))]
        sol = linalg.solve(rep.ring, rows, list(diff.coords))
        if sol is None or self.slice_param(sol) != v:
            raise ValueError("element is not on the slice")
        cs = list(map(rep.box, sol))
        x = sum((a * c for a, c in zip(self.xi, cs[:3])), f.zero)
        y = sum((a * c for a, c in zip(self.eta, cs[:3])), f.zero)
        return x, y, self.pi(v)

    def slice_lift(self, b, x, y) -> VElem:
        """The point of Sigma over b with chart values (x, y): the weight-2
        coordinates from (x, y, p2), then the weight-4 ones from (p4, q4)."""
        f, rep = self.ctx.field, self.ctx.rep
        b = tuple(f.elem(v) for v in b)
        x, y = f.elem(x), f.elem(y)
        if y * (x * y + 2 * b[2]) != x ** 3 + b[0] * x * x + b[1] * x + b[3]:
            raise ValueError("(x, y) does not satisfy the cubic relation for b")
        targets = [rep.coord(c) for c in (x, y, *b[:3])]
        t = _solve_chart(rep, self._lift_eqs, targets, stages=((0, 1, 2), (3, 4)))
        v = self.slice_param(t)
        assert self.pi(v) == b, "slice lift landed on the wrong fibre"
        return v

    def lie_disc(self, v: VElem):
        """Product of the 24 nonzero ad-eigenvalues: the degree-4 coefficient
        of the characteristic polynomial of ad(v) on h (Berkowitz)."""
        rep = self.ctx.rep
        coeffs = linalg.charpoly_berkowitz(rep.ring, self.ctx.ad_matrix(v, H_BASIS))
        return rep.box(coeffs[4])

    def lie_disc_fast(self, v: VElem):
        """disc of the even characteristic quartic; equals lie_disc on
        regular semisimple elements (both are prod over roots of alpha(v))."""
        from .quartic import disc_univariate

        return disc_univariate(self.ctx.char_quartic(v))

    def lie_disc_compare(self, n, seed):
        """Constant ratio quartic_disc(pi(v)) / lie_disc(v) over rs samples;
        the first three also check lie_disc_fast against lie_disc."""
        f = self.ctx.field
        rng = det_rng(seed, "lie-disc-compare")
        ratio = None
        done = 0
        while done < n:
            v = VElem(self.ctx, [f.random(rng) for _ in range(16)])
            ld = self.lie_disc_fast(v)
            if not ld:
                continue
            if done < 3:
                assert self.lie_disc(v) == ld, "ad-charpoly route disagrees"
            r = quartic_disc(self.pi(v)) * ld.inverse()
            if ratio is None:
                ratio = r
            elif r != ratio:
                raise AssertionError("discriminant ratio is not constant")
            done += 1
        return ratio

    def rho_torus(self, t) -> TorusGen:
        """The torus point rho-check(t)."""
        return self.ctx.torus_from_cochar(RHO_CHECK, t)

    def calibration_json(self) -> str:
        data = {
            "p": self.ctx.field.char,
            "u": list(CALIBRATION_U),
            "xi": [c.val for c in self.xi],
            "eta": [c.val for c in self.eta],
            "F": self.F.serialize(),
            "f_subreg": self.f.serialize(),
            "Z": [z.serialize() for z in self.Z],
            "W": [w.serialize() for w in self.W],
        }
        return json.dumps(data, indent=2, sort_keys=True)


# -- helpers --


def _weight_space(cochar, wt):
    """The labels of cochar-weight wt and the h indices of their weight vectors."""
    labels = [l for l in LABELS if pairing(cochar, WEIGHT_EVEC[l]) == wt]
    return labels, [V_BASIS[l - 1] for l in labels]


def _solve_lowering(ctx, nilpotent_up: VElem, cochar) -> VElem:
    """Unique Y in V of cochar-weight -1 with [X, Y] = h, the semisimple
    element 2 d(cochar)(1) of the sl2-triple: in h coordinates, 2 cochar on
    the Cartan elements and 0 on the root vectors."""
    rep = ctx.rep
    labels, basis = _weight_space(cochar, -1)
    rows = ctx.ad_matrix(nilpotent_up, basis)
    target = [rep.coord(2 * k) for k in cochar] + [rep.ring.zero] * (len(rows) - len(cochar))
    sol = linalg.solve(rep.ring, rows, target)
    assert sol is not None, "no lowering element: sl2 solve failed"
    hom = linalg.kernel_basis(rep.ring, rows)
    assert not hom, "lowering element is not unique"
    coords = [rep.ring.zero] * 16
    for l, c in zip(labels, sol):
        coords[l - 1] = c
    return VElem(ctx, coords)


def _graded_centralizer_basis(ctx, y: VElem, cochar, expect_weights, expect_h_dim):
    """Basis of z_V(y), computed weight-by-weight with lexicographic pivots.

    expect_h_dim pins the full centralizer dimension in h (regular: 4,
    subregular: 6); expect_weights the graded dimensions of the V part.
    """
    ring = ctx.rep.ring
    full = ctx.centralizer_dim(y, "h")
    assert full == expect_h_dim, f"centralizer dimension {full} != {expect_h_dim}"
    out = []
    weights = sorted(set(expect_weights), reverse=True)
    found_weights = []
    for wt in weights:
        labels, basis = _weight_space(cochar, wt)
        if not labels:
            continue
        for vec in linalg.kernel_basis(ring, ctx.ad_matrix(y, basis)):
            coords = [ring.zero] * 16
            for l, c in zip(labels, vec):
                coords[l - 1] = c
            out.append(VElem(ctx, coords))
            found_weights.append(wt)
    assert sorted(found_weights, reverse=True) == sorted(
        expect_weights, reverse=True
    ), f"graded centralizer weights {found_weights} != {expect_weights}"
    order = sorted(range(len(out)), key=lambda i: -found_weights[i])
    return [out[i] for i in order]


def _chart_primitives(ctx, base: VElem, directions):
    """Symbolic (C2, C4, PF, C6) on base + sum_i x_i * directions[i], in
    one variable x_i per direction, with coefficients in ctx.field: they
    are computed on the coordinates of ctx.rep and boxed once."""
    rep, nvars = ctx.rep, len(directions)
    prims = primitives(ctx, _chart_coords(
        [MPoly.const(nvars, c) for c in base.coords],
        [d.coords for d in directions],
        [MPoly.var(nvars, i, rep.ring.one) for i in range(nvars)],
    ))
    return tuple(MPoly(nvars, {e: rep.box(c) for e, c in m.terms.items()}) for m in prims)


def _chart_coords(base, directions, t):
    """The 16 coordinates of base + sum_k t[k] directions[k], in one pass
    over the nonzero coordinates of each direction: base and directions
    are coordinate sequences and t holds their values, or MPoly variables
    for a chart.  Int coordinates come back unreduced."""
    coords = list(base)
    for c, d in zip(t, directions):
        if not c:
            continue
        for l, a in enumerate(d):
            if a:
                coords[l] = coords[l] + c * a
    return coords


def _monomial(nvars, *idx):
    """Exponent tuple of the product of the variables x_i, i in idx."""
    return tuple(idx.count(k) for k in range(nvars))


def _solve_chart(rep, polys_, targets, stages):
    """t with polys_[i](t) = targets[i], by ``linalg.staged_solve`` over
    rep.ring, in the coordinates of a ``D4Context.rep`` (the polynomials
    with the coefficients of ``rep.poly``): a stage is a tuple of unknowns,
    and equation i serves the stage of unknown i."""

    def residual(t, eqs):
        return rep.reduce([polys_[i].eval(t) - targets[i] for i in eqs])

    return linalg.staged_solve(rep.ring, residual, len(targets), [(s, s) for s in stages])


def _chart_functions(field, c_syms):
    """(xi, eta) of the chart functions x = xi . t[:3], y = eta . t[:3] for
    which the slice relation holds, by three 2x2 solves.

    The slice coordinates t have weights (2, 2, 2, 4, 4) under the
    contraction, and c2, c4, pf, c6 are homogeneous of weights 2, 4, 4, 6,
    so the mixed monomials t_k t_j (k < 3 <= j) of the relation come only
    from 2 y pf - x c4 - c6.  With l4_j, lp_j the coefficients of t_j in c4
    and pf and m_kj that of t_k t_j in c6, each k gives
    2 eta_k lp_j - xi_k l4_j = m_kj (j = 3, 4).  The weight-4 block
    [l4, lp] is invertible, so (xi, eta) is unique, and the exact relation
    is its certificate.
    """
    _, c4s, pfs, c6s = c_syms

    def coeff(poly, *idx):
        return poly.terms.get(_monomial(poly.nvars, *idx), field.zero)

    l4 = [coeff(c4s, j) for j in (3, 4)]
    lp = [coeff(pfs, j) for j in (3, 4)]
    assert linalg.rank(field, [l4, lp]) == 2, "weight-4 chart block is singular"
    rows = [[-a, 2 * b] for a, b in zip(l4, lp)]
    xi, eta = zip(*(linalg.solve(field, rows, [coeff(c6s, k, j) for j in (3, 4)])
                    for k in range(3)))
    assert _slice_relation(c_syms, xi, eta).is_zero(), "slice relation fails on the chart"
    return xi, eta


def _chart_xy(nvars, xi, eta):
    """The chart functions x = xi . (x0, x1, x2) and y = eta . (x0, x1, x2)."""

    def linear(coeffs):
        return MPoly(nvars, {_monomial(nvars, i): c for i, c in enumerate(coeffs)})

    return linear(xi), linear(eta)


def _slice_relation(c_syms, xi, eta):
    """y(xy + 2 pf) - (x^3 + c2 x^2 + c4 x + c6) on the slice, symbolically."""
    c2, c4, pf, c6 = c_syms
    x, y = _chart_xy(c2.nvars, xi, eta)
    return y * (x * y + 2 * pf) - x * (x * (x + c2) + c4) - c6
