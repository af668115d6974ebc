"""The invariant map, the Kostant section, and the subregular slice.

The four invariants are the conjugation invariants (c2, c4, Pf, c6); the
slice chart (x, y) is calibrated once from the slice relation
y(xy + 2q4) = x^3 + p2 x^2 + p4 x + p6.  Then pi o kappa = id holds on the
nose and the slice chart is an exact inverse pair.
"""

from d4vinberg import GF, D4Context, Invariants
from d4vinberg.invariants import CALIBRATION_U
from d4vinberg.rng import det_rng

ctx = D4Context(GF(23))
inv = Invariants(ctx)
F = ctx.field

print("calibration constants u =", list(CALIBRATION_U))
print("chart functionals xi =", [c.val for c in inv.xi], " eta =", [c.val for c in inv.eta])
print()

rng = det_rng(0, "demo-invariants")
b = tuple(F.random(rng) for _ in range(4))
kb = inv.kostant_section(b)
print("b =", b)
print("pi(kappa_b) =", inv.pi(kb), " round trip:", inv.pi(kb) == b)
print("kappa_b vanishing pattern (zero labels):", sorted(kb.zero_set()))
print()

cs = [F.random(rng) for _ in range(5)]
v = inv.slice_param(cs)
x, y, bb = inv.slice_coords(v)
lhs = y * (x * y + 2 * bb[2])
rhs = x**3 + bb[0] * x * x + bb[1] * x + bb[3]
print("slice point with chart (x, y) =", (x, y))
print("cubic relation holds exactly:", lhs == rhs)
print("chart inversion:", inv.slice_lift(bb, x, y) == v)
print()
print("discriminant comparison (quartic disc / Lie disc) over 40 points:",
      inv.lie_disc_compare(n=40, seed=1))
