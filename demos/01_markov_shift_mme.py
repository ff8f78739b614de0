"""
Maximal-entropy measures on countable Markov shifts
====================================================

The golden-mean shift (no two consecutive 1s) is small enough that every
quantity has a closed form, which makes it the standard smoke test: the
Gurevich entropy is log of the golden ratio, the loop counts are Fibonacci
numbers, and the maximizing measure is an explicit two-state chain.
"""

import math

import numpy as np

from henonshift.markov import (
    CylinderWord,
    build_mme,
    chain_entropy,
    count_loops,
    equidistribution_cylinder,
    full_shift_graph,
    golden_mean_graph,
    gurevich_entropy,
    is_spr,
    perron,
    radii,
    shift_periodic_census,
)

g = golden_mean_graph()
spec = perron(g)
chain = build_mme(spec, g)

phi = (1 + math.sqrt(5)) / 2
print("golden-mean shift")
print(f"  entropy        {gurevich_entropy(g):.12f}   (log phi = {math.log(phi):.12f})")
print(f"  stationary pi  {np.round(chain.pi, 6)}")
print(f"  chain entropy  {chain_entropy(chain):.12f}")

# loop counts at the base vertex are Fibonacci: 1, 2, 3, 5, 8, ...
census = count_loops(g, 10)
print(f"  loops Z_1..Z_10 = {census.Z}")

# the first-return series has only two terms, so its radius is infinite
# and the shift is strongly positive recurrent with room to spare
rad = radii(count_loops(g, 64))
rep = is_spr(count_loops(g, 64), margin=0.05)
print(f"  R = {rad.R:.6f}, R* = {rad.R_star}, SPR: {rep.spr}")

# on the full 2-shift every word is admissible: Fix sigma^p = 2^p and
# periodic points spread cylinder mass exactly like the measure
g2 = full_shift_graph(2)
chain2 = build_mme(perron(g2), g2)
print("\nfull 2-shift")
for p in (4, 8, 12):
    n = shift_periodic_census(g2, p)
    cmp = equidistribution_cylinder(g2, p, CylinderWord(("0",)), chain2)
    print(f"  p={p:2d}  Fix={n:5d}  cylinder [0]: empirical {cmp.empirical:.6f}"
          f" vs mme {cmp.mme:.6f}")

# the same margin knob that certifies robustness can also be used to
# demand an impossible gap: R e^{0.7} exceeds R* = 1 on the full shift
strict = is_spr(count_loops(g2, 64), margin=0.7)
print(f"  SPR with margin 0.7: {strict.spr}  (gap {strict.gap:.4f})")
