"""Transfer of the algebraic structure onto harmonics, twice.

First the sheaf complex: contract onto its sixteen harmonic classes and
build the operations through arity four.  The higher ones vanish, so the
minimal model is just a graded Lie bracket; the checks then concern the
relations, the quasi-isomorphism, and cyclicity with respect to the
harmonic pairing.  Second, a deliberately non-formal toy (the Heisenberg
exterior algebra) where the arity-3 operation survives and can be read
off by hand, to show the same machinery detecting actual homotopy
content.
"""

from collections import Counter

import numpy as np

from twistorbf.gcomplex import GComplex
from twistorbf.transfer import (Contraction, build_contraction,
                                check_ainfinity, check_cyclic,
                                check_linfty_relations, harmonic_pairing,
                                heisenberg_dga, lambda_oracle,
                                quasi_iso_linear, transfer)

G = GComplex(6)
con = build_contraction(G)
split = dict(sorted(Counter(con.harm_degrees.tolist()).items()))
print("contraction of %s: dim %d, %d harmonics, degrees %s"
      % (con.label, con.dim, con.nharm, split))
print("  worst side condition  %.2e" % max(con.side_conditions.values()))

tb = transfer(con, max_arity=4)
print("\ntransferred tensors on the harmonic space")
print("  max |m_1| = %.3e" % np.abs(tb.m1).max())
for n, (_, vals) in sorted(tb.support.items()):
    print("  max |m_%d| = %.3e" % (n, np.abs(vals).max(initial=0.0)))
print("  (m_3 and m_4 vanish: the complex is formal, everything sits")
print("   in the binary bracket)")

rng = np.random.default_rng(0)
ai = check_ainfinity(tb, through_arity=4)
lr = check_linfty_relations(tb, rng, max_arity=4, samples=2, rank=2)
print("\nrelation residuals (associativity tower / generalized Jacobi)")
for n in sorted(ai):
    r = "skipped" if lr.get(n) is None else "%.3e" % lr[n]
    print("  arity %d   %.3e   %s" % (n, ai[n], r))

qi = quasi_iso_linear(con)
print("\nlinear quasi-isomorphism onto harmonics")
print("  cochain residual        %.3e" % qi["cochain_residual"])
print("  induced rank %d = source %d = target %d, isomorphism: %s"
      % (qi["induced_rank"], qi["dim_h_source"], qi["dim_h_target"],
         qi["isomorphism"]))

P = harmonic_pairing(con)
cy = check_cyclic(tb, P, rng, arities=(2, 3, 4), samples=3, rank=2)
print("  cyclicity of the pairing:",
      "  ".join("arity %d %.2e" % (n, v) for n, v in sorted(cy.items())))

# -- the toy with memory ----------------------------------------------------

alg, d, H, proj, degs = heisenberg_dga()
toy = Contraction(alg, d, H, proj, degs, label="toy")
tt = transfer(toy, max_arity=3)
names = ["1", "e1", "e2", "e13", "e23", "e123"]
m2, m3 = tt.dense(2), tt.dense(3)
print("\nHeisenberg toy: d e3 = e1 e2, harmonics", names)
print("  m_2(e1, e2)      = 0 on harmonics (the product is exact):"
      " max %.1e" % np.abs(m2[1, 2]).max())
i23 = names.index("e23")
print("  m_3(e1, e2, e2)  = %+g * e23" % m3[1, 2, 2, i23].real)
print("  m_3(e2, e1, e2)  = %+g * e23" % m3[2, 1, 2, i23].real)
ai_toy = check_ainfinity(tt, through_arity=4)
print("  tower residuals through arity 4:",
      "  ".join("%.1e" % ai_toy[n] for n in sorted(ai_toy)))

# the slow recursive oracle agrees entry by entry
vecs = [toy.i_mat[:, t].astype(complex) for t in (1, 2, 2)]
ref = toy.p_mat @ lambda_oracle(alg, H, vecs, [1, 1, 1])
print("  oracle cross-check of m_3(e1, e2, e2): %.1e"
      % np.abs(ref - m3[1, 2, 2]).max())
