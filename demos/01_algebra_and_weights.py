"""The graded pair (G, V): dimensions, weights, and group actions.

Builds the split so_8 algebra with its involution over F_23, prints the
structural facts (28 = 12 + 16, the sixteen weights as a Boolean 4-cube),
and demonstrates torus / unipotent / Klein-group actions on V.
"""

from d4vinberg import GF, D4Context, TorusGen, UnipGen, VElem, WeylGen
from d4vinberg.liealg import (
    G_BASIS, G_ROOTS, H_BASIS, LABELS, LABEL_SIGNS, V_BASIS, fundamental_group_divisors,
)
from d4vinberg.rng import det_rng

ctx = D4Context(GF(23))
F = ctx.field

print("dim h =", len(H_BASIS), " dim g =", len(G_BASIS), " dim V =", len(V_BASIS))
print("roots of G:", len(G_ROOTS), "(plus rank 4 = dim g)")
print()
print("weight table (label: sign pattern 2n_i):")
for l in LABELS:
    print(f"  {l:2d}: {LABEL_SIGNS[l]}")
print()

rng = det_rng(0, "demo-algebra")
v = VElem(ctx, [F.random(rng) for _ in range(16)])

t = TorusGen([F.elem(2), F.elem(3), F.elem(5), F.elem(7)])
print("torus action is diagonal in the weight basis:")
e2 = VElem(ctx, [F.one if m == 2 else F.zero for m in LABELS])
print("  act(t, e_2) coordinates:", ctx.act(t, e2).serialize())

u = UnipGen(G_ROOTS[0], F.elem(4))
print("unipotent exp(4 X) acting on a random v stays in V:", isinstance(ctx.act(u, v), VElem))

w = WeylGen("s12.34")
print("Klein-group element permutes weights; zero set of act(w, e_2):",
      sorted(ctx.act(w, e2).zero_set())[:3], "...")
print()
print("classification of distinguished elements:")
print("  0:                 ", ctx.classify(VElem(ctx, [F.zero] * 16)))
print("  regular nilpotent: ", ctx.classify(ctx.E))
print("  subregular e:      ", "centralizer in h has dim", ctx.centralizer_dim(ctx.e_subreg, "h"))
print()
print("fundamental group elementary divisors:", fundamental_group_divisors(),
      "(order 8: three copies of Z/2)")
