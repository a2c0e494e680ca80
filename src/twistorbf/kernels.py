"""Closed-form Cauchy-type homotopy kernels and their quadrature operators.

The two-point kernel h_n(z1, z2) has a simple pole on the diagonal and one of
two branch forms depending on the sign of n + 1; both are assembled from the
invariant building blocks (zbar1 z2 + 1), D = 1 + |z|^2 and 1/(z2 - z1).  The
quadrature operator integrates h against a (0,1)-form density and is compared
coefficient-wise with the spectral homotopy of `sphere`.

Orientation convention: integrals over the chart use dzbar ^ dz = 2i dx dy.
All densities are evaluated through the bounded profiles of `sphere`, with the
metric weights folded into the kernel factor, so nothing under the integral
grows at infinity.

The diagonal is handled by splitting the integrand with a smooth radial bump
in chordal distance: the far piece is flat near the pole and integrates well on
the global grid, while the near piece is integrated on a polar grid about the
target, where the pole is cancelled by the polar measure.  Sums are plain
numpy reductions (pairwise), so results are reproducible.

The near piece at target z2 is the polar rule turned onto z2 by an SU(2) map,
an equivariant finite sum: the grid moves rigidly, the kernel obeys the Mobius
law (`check_invariance`), the bump depends only on chordal distance, and each
level of a model is one irrep.  By Schur's lemma it sends the image form of
each section to c_p times the section's value at z2, one c_p per level p, and
the harmonic forms (spin |n|/2 - 1, with no section partner) to 0, so one rule
centred at the origin gives the whole near block.  That rule keeps every form
weight w = 1 mod n_phi, so this is exact iff |w - 1| < n_phi for every form
weight, and `KernelHomotopy` refuses other polar grids.

The far block is equivariant under the torus z -> e^(i alpha) z: when alpha
is a multiple of 2 pi / n_theta, the far grid's angle step, rotating the
target permutes the grid, and the value for a form of RadialFun weight w
picks up e^(i (w - 1) alpha).  So each ring of T equally spaced targets is
evaluated directly at its first q = T // gcd(T, n_theta) targets only.  The
far grid is a product rule, z = r_a e^(i theta_b), and a form of weight w is
P(r_a) e^(i w theta_b) there.  So the far sum over b of (cut kernel) times
form is n_theta times the inverse FFT over b of the cut kernel, read at
frequency w mod n_theta: the same finite sum reordered, aliasing included,
with the forms evaluated on the radial nodes only (Huffenberger & Wandelt,
ApJS 189 (2010) 255, do the azimuthal sums of spin-weighted transforms the
same way).
"""

from __future__ import annotations

import math

import numpy as np

from .gcomplex import PLAIN_BLOCKS
from .radial import SphereGrid
# Mobius is defined with the line bundle models and re-exported here
from .sphere import LineBundleModel, Mobius


def kernel_h(n, z1, z2):
    """Scalar part of the homotopy kernel; simple pole at z1 = z2.

    n >= -1 branch:  ((zbar1 z2 + 1)/(1+|z1|^2))^(n+1) / (2 pi i (z2 - z1));
    n <= -1 branch:  ((1+|z2|^2)/(z1 zbar2 + 1))^(n+1) / (2 pi i (z2 - z1)).
    The two agree at n = -1.  Negative powers are re-arranged so only
    nonnegative integer powers are taken.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    dz = z2 - z1
    if n >= -1:
        base = (np.conj(z1) * z2 + 1.0) / (1.0 + np.abs(z1) ** 2)
        fac = base ** (n + 1)
    else:
        base = (z1 * np.conj(z2) + 1.0) / (1.0 + np.abs(z2) ** 2)
        fac = base ** (-n - 1)
    return fac / (2j * math.pi * dz)


def kernel_weighted(n, z1, z2):
    """2i h(z1,z2) D1^(n/2-1) D2^(-n/2): the operator kernel on bounded
    profiles, decaying like the fourth power of the chordal distance to
    infinity in z1 and bounded in z2."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    d1 = 1.0 + np.abs(z1) ** 2
    d2 = 1.0 + np.abs(z2) ** 2
    if n >= -1:
        fac = (np.conj(z1) * z2 + 1.0) ** (n + 1) * d1 ** (-n / 2.0 - 2.0) * d2 ** (-n / 2.0)
    else:
        fac = (z1 * np.conj(z2) + 1.0) ** (-n - 1) * d1 ** (n / 2.0 - 1.0) * d2 ** (n / 2.0 + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = fac / (math.pi * (z2 - z1))
    return out


def kernel_hG(z1, z2):
    """The six-block kernel: (twist, doublet multiplicity, value) triples,
    over the plain complex's blocks (`gcomplex.PLAIN_BLOCKS`).

    The doublet blocks (twists -3 and 1) carry an identity factor on their
    two-dimensional index, recorded here as multiplicity 2.
    """
    return [(n, mult, kernel_h(n, z1, z2)) for n, mult in PLAIN_BLOCKS]


def check_invariance(n, g, z1, z2):
    """Relative residual of the transformation law
    h(z1,z2) = P2^n / P1^(n+2) h(f z1, f z2), P = g.factor(z)."""
    f1, f2 = g.apply(z1), g.apply(z2)
    p1, p2 = g.factor(z1), g.factor(z2)
    lhs = kernel_h(n, z1, z2)
    rhs = p2 ** n * p1 ** (-n - 2) * kernel_h(n, f1, f2)
    return np.abs(lhs - rhs) / np.abs(lhs)


def reduction_residual(n, z1, z2, theta):
    """Residual of the reduction to a kernel value at the origin,
    h(z1,z2) = e^(i t) (zbar1 z2+1)^n / (1+|z1|^2)^(n+1)
               * h(0, e^(i t) (z2-z1)/(zbar1 z2+1)),
    valid on the n >= -1 branch for any real t = 2 pi theta."""
    if n < -1:
        raise ValueError("reduction identity belongs to the n >= -1 branch")
    ph = np.exp(2j * math.pi * theta)
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    c = np.conj(z1) * z2 + 1.0
    lhs = kernel_h(n, z1, z2)
    rhs = ph * c ** n / (1.0 + np.abs(z1) ** 2) ** (n + 1) \
        * kernel_h(n, 0.0, ph * (z2 - z1) / c)
    return np.abs(lhs - rhs) / np.abs(lhs)


def fd_wirtinger(fun, z, step):
    """Central-difference Wirtinger derivatives (d/dz, d/dzbar) of fun at z;
    the error scales as step^2."""
    fx = (fun(z + step) - fun(z - step)) / (2 * step)
    fy = (fun(z + 1j * step) - fun(z - 1j * step)) / (2 * step)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def check_holomorphy(n, z1, z2, step=1e-4):
    """FD residual of the vanishing dbar, in the branch-dictated argument:
    second argument for n >= -1, first for n <= -1.

    Normalized Cauchy-Riemann style, |dbar h| / |d h| from the same stencil
    (with |h| as a floor in case the holomorphic derivative is accidentally
    small): the anti-holomorphic fraction of the gradient.  Scales as step^2.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if n >= -1:
        fun = lambda w: kernel_h(n, z1, w)
        z = z2
    else:
        fun = lambda w: kernel_h(n, w, z2)
        z = z1
    dhol, dbar = fd_wirtinger(fun, z, step)
    scale = np.maximum(np.abs(dhol), np.abs(fun(z)))
    return np.abs(dbar) / scale


def chordal(z1, z2):
    return np.abs(z1 - z2) / np.sqrt((1.0 + np.abs(z1) ** 2) * (1.0 + np.abs(z2) ** 2))


def _smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(x > 0, np.exp(-1.0 / np.where(x > 0, x, 1.0)), 0.0)
        b = np.where(x < 1, np.exp(-1.0 / np.where(x < 1, 1.0 - x, 1.0)), 0.0)
    return a / (a + b)


# the bump's radii in chordal distance: flat inside D_FLAT, zero past D_CUT
D_FLAT, D_CUT = 0.15, 0.55


def bump(d):
    """1 inside chordal distance D_FLAT, 0 beyond D_CUT, smooth between."""
    return _smooth_step((D_CUT - d) / (D_CUT - D_FLAT))


class KernelHomotopy:
    """Quadrature realization of the homotopy operator of one twist.

    Integrates the closed-form kernel against (0,1)-form densities given by
    spectral coefficients of `model`, and projects the result back onto the
    section basis, yielding a (dim0 x dim1) matrix comparable with the
    sections x forms block of model.hom.

    The far block sums the far grid's angle by one FFT per radial node and
    is rotated around the target rings; the near block is c_p times the
    section values, with c_p from the n_rho x n_phi polar rule at the
    origin, and n_phi must exceed every |w - 1| (module docstring).
    """

    def __init__(self, model: LineBundleModel, order=64, n_rho=24, n_phi=48,
                 target_order=32):
        for w in model.weights1:
            if abs(w - 1) >= n_phi:
                raise ValueError("twist %d: form weight %d aliases onto weight"
                                 " 1 on n_phi = %d polar angles"
                                 % (model.n, w, n_phi))
        self.model = model
        self.far = SphereGrid(order, 2 * order)
        self.targets = SphereGrid(target_order, 2 * target_order)
        self.n_rho = n_rho
        self.n_phi = n_phi
        self._matrix = None

    # -- output values of H(basis forms) at the target points --------------

    def _far_block(self, zt):
        """Far contribution for targets zt: (len(zt), dim1).

        Every form is a radial profile times e^(i w theta), so the sum over
        the far grid's angles is one inverse FFT of the cut kernel per
        radial node, read at frequency w mod n_theta (module docstring).
        The forms are evaluated on the radial nodes only, and targets go in
        chunks that keep each kernel array near 1 MB (2^16 complex values).
        """
        m, far, nt = self.model, self.far, self.far.n_theta
        zf = far.z.reshape(far.n_radial, nt)
        # profiles at theta = 0, times the ring weight pi du
        prof = m.basis_values(zf[:, 0], 1) * (nt * far.w[::nt])
        cols = m.weights1 % nt
        step = max(1, 2 ** 16 // far.z.size)
        out = np.empty((len(zt), m.dim1), dtype=complex)
        for i0 in range(0, len(zt), step):
            z = zt[i0:i0 + step, None, None]
            k = kernel_weighted(m.n, zf[None], z)
            d = chordal(zf[None], z)
            cut = 1.0 - bump(d)
            kc = np.fft.ifft(np.where(d < 1e-14, 0.0, k) * cut, axis=-1)
            out[i0:i0 + step] = np.einsum("tai,ia->ti", kc[:, :, cols], prof)
        return out

    def _near_block(self, v0):
        """Near contribution at targets with section values v0 (dim0, t):
        (t, dim1).  c_p is the centred rule on the weight-1 image form of
        level p over its section's value at 0, the (0,0) coefficient; the
        angular sum is exactly 2 pi on that form, so c_p is a radial sum."""
        m = self.model
        rho_max = D_CUT / math.sqrt(1.0 - D_CUT ** 2)
        x, wx = np.polynomial.legendre.leggauss(self.n_rho)
        rho = 0.5 * rho_max * (x + 1.0)
        chi = bump(rho / np.sqrt(1.0 + rho ** 2))
        wk = math.pi * rho_max * wx * rho * chi * kernel_weighted(m.n, rho, 0)
        i0, i1 = np.array(m._image_pairs, dtype=int).reshape(-1, 2).T
        c = np.zeros(m.levels, dtype=complex)
        for s, f in zip(i0, i1):
            if m.weights0[s] == 0:
                form = m.funs1[f].eval(rho, extra=m.normalized_extra(1))
                c[m.level0[s]] = form @ wk / m.funs0[s].terms[(0, 0)]
        out = np.zeros((v0.shape[1], m.dim1), dtype=complex)
        out[:, i1] = c[m.level0[i0]] * v0[i0].T
        return out

    def _on_rings(self):
        """The far block at every target, from the first q targets of each
        ring (module docstring)."""
        t = self.targets
        q = t.n_theta // math.gcd(t.n_theta, self.far.n_theta)
        base = self._far_block(
            t.z.reshape(t.n_radial, t.n_theta)[:, :q].ravel())
        alpha = 2.0 * math.pi * q * np.arange(t.n_theta // q) / t.n_theta
        w = self.model.weights1
        phase = np.exp(1j * alpha[:, None] * (w - 1)[None, :])
        out = base.reshape(t.n_radial, 1, q, -1) * phase[None, :, None, :]
        return out.reshape(t.n_radial * t.n_theta, -1)

    def matrix(self):
        """H as a (dim0, dim1) coefficient matrix."""
        if self._matrix is not None:
            return self._matrix
        v0, wfac = self.model.grid_data(self.targets, 0)
        outvals = self._on_rings() + self._near_block(v0)
        self._matrix = v0.conj() @ (wfac[:, None] * outvals)
        return self._matrix


def spectral_levels_mask(model, degree, n_levels):
    """Boolean mask selecting the first n_levels levels of the basis."""
    if degree == 0:
        lv = model.level0
        return lv < n_levels
    lv = model.src_level1.copy()
    # harmonic forms are the lowest level; then images by source level
    order = np.where(lv < 0, -1, lv)
    kept = sorted(set(order.tolist()))[:n_levels]
    return np.isin(order, kept)


def operator_agreement(model, hquad, n_levels=5):
    """Relative operator discrepancy of the quadrature homotopy against the
    spectral one on the span of the first n_levels form levels, plus the
    fitted global sign (the quadrature operator determines it empirically;
    +1 means the printed orientation conventions match)."""
    mask = spectral_levels_mask(model, 1, n_levels)
    hq = hquad.matrix()[:, mask]
    hs = model.hom.dense()[:model.dim0, model.dim0:][:, mask]
    denom = np.linalg.norm(hs, 2)
    if denom == 0:
        return 0.0, 1.0
    sign = 1.0 if np.vdot(hq, hs).real >= 0 else -1.0
    return float(np.linalg.norm(hq - sign * hs, 2) / denom), sign


def chain_identity_quadrature(model, hquad, rng, samples=50):
    """Worst relative residual of {dbar, H} = 1 - P with the quadrature H,
    over random coefficient vectors in both form degrees."""
    hq = hquad.matrix()
    d0, zero0, zero1 = model.dim0, np.zeros(model.dim0), np.zeros(model.dim1)
    worst = 0.0
    for _ in range(samples):
        s = rng.standard_normal(model.dim0) + 1j * rng.standard_normal(model.dim0)
        x = np.concatenate([s, zero1])
        lhs = hq @ (model.dbar @ x)[d0:]
        rhs = s - (model.proj @ x)[:d0]
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(s))
        a = rng.standard_normal(model.dim1) + 1j * rng.standard_normal(model.dim1)
        lhs1 = (model.dbar @ np.concatenate([hq @ a, zero1]))[d0:]
        rhs1 = a - (model.proj @ np.concatenate([zero0, a]))[d0:]
        worst = max(worst, np.linalg.norm(lhs1 - rhs1) / np.linalg.norm(a))
    return float(worst)


def separated_pairs(rng, count, min_chordal=0.35, max_chordal=None):
    """Seeded off-diagonal sample pairs with a chordal separation floor.

    max_chordal additionally keeps z1 away from the antipode of z2 (the two
    distances are complementary: d(z1, -1/zbar2)^2 = 1 - d(z1, z2)^2), which
    matters for derivative-based checks since the kernel factor degenerates
    on the antipodal locus.
    """
    out = []
    while len(out) < count:
        z1 = rng.standard_normal() + 1j * rng.standard_normal()
        z2 = rng.standard_normal() + 1j * rng.standard_normal()
        d = chordal(z1, z2)
        if d < min_chordal:
            continue
        if max_chordal is not None and d > max_chordal:
            continue
        out.append((z1, z2))
    return out
