"""Harmonic dimensions of O(n) on the sphere, straight from the spectral model.

The model keeps L spherical levels per twist; harmonic counts stabilize as
soon as the truncation clears the harmonic level, and the chain homotopy
dH + Hd = 1 - P holds to roundoff at every truncation.
"""

import numpy as np

from twistorbf.sphere import build_model

print("twist   dim H0  dim H1   chain residual")
for n in range(-8, 9):
    m = build_model(n, abs(n) + 4)
    h0, h1 = m.serre_dims()
    res = m.chain_homotopy_residual()
    tag = ""
    if (h0, h1) != (max(n + 1, 0), max(-n - 1, 0)):
        tag = "  <-- off"
    print("%+3d     %4d    %4d    %9.2e%s" % (n, h0, h1, res, tag))

# H0 counts holomorphic sections (spanned by 1, z, ..., z^n); H1 lives on
# the negative side and pairs with sections of twist -n-2
print()
m = build_model(-5, 9)
print("harmonic (0,1)-forms of O(-5):", m.n_harm1)
dual = build_model(3, 9)
print("sections of O(3):            ", dual.dim(0) and dual.serre_dims()[0])

# the harmonic forms are exact cohomology representatives: applying the
# Green-composed homotopy returns nothing
coeffs = np.zeros(m.dim(1), dtype=complex)
coeffs[0] = 1.0
print("H applied to a harmonic form:",
      float(np.abs(m.hom @ np.concatenate([np.zeros(m.dim(0)), coeffs]))
            .max()))
