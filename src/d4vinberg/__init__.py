"""Exact-arithmetic desk verification of a graded D4 pair and its curves.

Core layers:
  fields / polys / funcfield   exact F_{p^m}, polynomials, places of F_q(t)
  quartic                      the weighted quartic discriminant
  liealg                       the pair (G, V) inside so_8, weights, actions
  invariants                   invariant map, Kostant section, slice chart
  orbits                       vanishing patterns, reduction to the section
  curves                       pointed cubics, minimal data, X_D, stabilizers
  hnweights                    weight poset, cusp table, slopes, tail bounds
  densities                    local/global squarefree densities
  verify / cli                 acceptance suites and the batch interface
"""

from .fields import GF
from .liealg import D4Context, VElem, TorusGen, UnipGen, WeylGen
from .invariants import Invariants

__all__ = [
    "GF",
    "D4Context",
    "VElem",
    "TorusGen",
    "UnipGen",
    "WeylGen",
    "Invariants",
]

__version__ = "0.1.0"
