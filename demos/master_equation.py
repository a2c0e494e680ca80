"""The cubic matrix action and its classical master equation.

Fields are odd elements of the truncated complex with rank-two matrix
coefficients, even levels riding auxiliary odd generators so that a
single generic field point probes every cross term.  The script
evaluates the action of such a point, verifies {S, S} = 0 on a few
probes, fits the field equation out of the variation, checks trace
cyclicity, and ends with two controls: a tampered differential must be
caught, and dropping the cubic term must make the residual exactly zero
rather than merely small.
"""

import numpy as np

from twistorbf import bv
from twistorbf.gcomplex import GComplex

G = GComplex(6)
data = bv.BFData(G, rank=2)
print("complex dim %d, matrix rank %d, %d auxiliary odd generators"
      % (data.dim, data.rank, data.n_aux))

rng = np.random.default_rng(11)
a = data.random_field(rng)
S = bv.bv_action(data, a)
print("\naction of a generic field point, largest generator components")
for mask, v in sorted(S.items(), key=lambda kv: -abs(kv[1]))[:4]:
    print("  e[%s]   %+.6f%+.6fj" % (format(mask, "06b"), v.real, v.imag))

out = bv.master_equation_residual(data, probes=3, seed=0, check_variation=1)
print("\nmaster equation on 3 random field points")
print("  |{S, S}| / scale     %.3e   (per probe: %s)"
      % (out["residual"],
         "  ".join("%.1e" % r for r in out["per_probe"])))
print("  variation residual   %.3e" % out["variation_residual"])
kappa, mism = out["eom_fits"][0]
print("  field equation fit   kappa = %.12f, mismatch %.1e"
      % (kappa.real, mism))

cyc = bv.trace_cyclicity_residual(data, samples=10, seed=1)
print("  trace cyclicity      %.3e" % cyc)

# control 1: a single tampered matrix entry of the differential shows up
# immediately, so a small residual is not an artifact of the evaluation
bad = G.dbar_full.copy()
i, j = np.argwhere(np.abs(bad) > 0.1)[5]
bad[i, j] *= 1.37
worse = bv.master_equation_residual(bv.BFData(G, rank=2, dbar=bad),
                                    probes=2, seed=0, check_variation=0)
print("\ntampered differential (one entry scaled by 1.37): residual %.3e"
      % worse["residual"])

# control 2: without the cubic term the bracket pairs d a with d a, which
# cancels identically, not just to rounding
free = bv.BFData(G, rank=2, cubic=False)
quad = bv.master_equation_residual(free, probes=2, seed=0,
                                   check_variation=0)
print("quadratic action only: residual %r (exact zero)" % quad["residual"])
