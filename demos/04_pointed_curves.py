"""Pointed cubic curves: counts, group structure, and the stabilizer
identity #Z_G(kappa_b)(F_q) = #J_b[2](F_q).

The group law runs directly on the plane model with base point O at
infinity, so divisibility of [R - R'] never needs a model change.
"""

from d4vinberg import GF, D4Context, Invariants
from d4vinberg.curves import (
    PointedCurve,
    curve_group,
    stabilizer_two_torsion,
    to_weierstrass,
    weierstrass_count,
    weierstrass_two_torsion,
)
from d4vinberg.quartic import quartic_disc
from d4vinberg.rng import det_rng

field = GF(23)
ctx = D4Context(field)
inv = Invariants(ctx)
rng = det_rng(0, "demo-curves")

while True:
    b = tuple(field.random(rng) for _ in range(4))
    if quartic_disc(b):
        break

curve = PointedCurve(field, b)
n, tt = curve_group(field, b)
n1, n2 = curve.group_structure()
print("b =", b)
print("#E(F_23) =", n, " structure Z/%d x Z/%d" % (n1, n2), " 2-torsion:", tt)
print("marked points P, Q have orders", curve.order_of(curve.P), curve.order_of(curve.Q))

a_coef, b_coef = to_weierstrass(field, b)
print("Weierstrass count agrees:", weierstrass_count(field, a_coef, b_coef) == n)
print("2-division polynomial agrees:", weierstrass_two_torsion(field, a_coef, b_coef) == tt)
print("group-side stabilizer count:", stabilizer_two_torsion(inv, b), "== curve side:", tt)
print()

pt = curve.points()[5]
print("sample divisibility: [R - O] in 2 E(F_q)?",
      curve.is_two_divisible(pt), "(halving oracle:", pt in curve.doubled_set(), ")")
