"""Spectral models for the Dolbeault complex of a line bundle on the sphere.

A twist-n model holds an orthonormal basis of sections and (0,1)-forms
organized by rotation level.  Sections at level p span the spin j = |n|/2 + p
representation; their chart functions come from a two-term recursion that
solves the harmonicity condition weight by weight, so no numerical
diagonalization enters the basis.  They are spin-weighted harmonics
(Goldberg et al., J. Math. Phys. 8 (1967) 2155), so their norms and the
d-bar spectrum lambda_p^2 = 2 [j(j+1) - (n/2)(n/2+1)] are taken in closed
form rather than measured.  d-bar sends each section to its image form
times the level constant lambda_p, which makes the Green operator, the
harmonic projector and the standard homotopy H = dbar* G explicit; the three
are held once, as `graded.Gather`s on the total space (sections, then
forms), and the chain identity {dbar, H} = 1 - P holds to machine precision
by construction.

Conventions fixed here and used everywhere else:
  * chart metric weight D = 1 + |z|^2, fiber metric D^-n,
  * sections pair as  <f, g> = int f conj(g) D^-n-2 dx dy,
  * (0,1)-forms a = A dzbar pair as  <a, b> = 2 int A conj(B) D^-n dx dy,
  * bounded chart profiles: sections are drawn as f D^-n/2, form
    coefficients as A D^(1-n/2).
"""

from __future__ import annotations

import math

import numpy as np

from .graded import (BigradedSpace, Gather, GradedMap,
                     chain_identity_residual, cohomology)
from .radial import RadialFun, hermitian_inner


def level_sections(n, p):
    """Orthonormal chart functions of the level-p section space of twist n.

    Returns a list of (weight, RadialFun) with weight running from -b to a,
    where (a, b) = (j + n/2, j - n/2) and j = |n|/2 + p.  The numerator
    coefficients solve the harmonicity recursion
        q_{m+1} = -[(m + a0 - a)(m + b0 - b)] / [(m + a0 + 1)(m + b0 + 1)] q_m
    and terminate on their own once the numerator factor hits zero.  With
    q_0 = 1 the solution has squared norm
        pi / ((a + b + 1) C(a + b0, k) C(b + a0, k)),  k = |w|,
    (a spin-weighted harmonic), so q_0 is set to the inverse square root.
    """
    two_j = abs(n) + 2 * p
    a = (two_j + n) // 2
    b = (two_j - n) // 2
    out = []
    for w in range(-b, a + 1):
        a0, b0, k = max(w, 0), max(-w, 0), abs(w)
        q = math.sqrt((a + b + 1) * math.comb(a + b0, k)
                      * math.comb(b + a0, k) / math.pi)
        terms = {}
        for m in range(min(a - a0, b - b0) + 1):
            terms[(a0 + m, b0 + m)] = q
            q *= -((m + a0 - a) * (m + b0 - b)) / ((m + a0 + 1) * (m + b0 + 1))
        out.append((w, RadialFun(terms, gamma=b)))
    return out


def harmonic_forms(n):
    """Orthonormal harmonic (0,1)-forms: A = zbar^k D^n, k = 0..m with
    m = -n-2; the unnormalized form has squared norm 2 pi / ((m+1) C(m, k))."""
    m = -n - 2
    out = []
    for k in range(m + 1):
        c = math.sqrt((m + 1) * math.comb(m, k) / (2.0 * math.pi))
        out.append((-k, RadialFun({(0, k): c}, gamma=-n)))
    return out


class Mobius:
    """Unit row (a, b) acting by z -> (a z + b) / (conj(a) - conj(b) z)."""

    def __init__(self, a, b):
        a, b = complex(a), complex(b)
        nrm = abs(a) ** 2 + abs(b) ** 2
        if abs(nrm - 1.0) > 1e-14:
            raise ValueError("row must be unit norm")
        self.a, self.b = a, b

    @classmethod
    def random(cls, rng):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        return cls(v[0] + 1j * v[1], v[2] + 1j * v[3])

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0)

    def matrix(self):
        return np.array([[self.a, self.b],
                         [-np.conj(self.b), np.conj(self.a)]])

    def compose(self, other):
        m = self.matrix() @ other.matrix()
        return Mobius(m[0, 0], m[0, 1])

    def factor(self, z):
        """Automorphy factor P = conj(a) - conj(b) z, the denominator."""
        z = np.asarray(z, dtype=complex)
        return np.conj(self.a) - np.conj(self.b) * z

    def apply(self, z):
        """Chart-aware action; accepts and returns inf for the far pole."""
        a, b = self.a, self.b
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        is_inf = np.isinf(z.real) | np.isinf(z.imag)
        zf = np.where(is_inf, 0.0, z)
        den = self.factor(zf)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (a * zf + b) / den
        out[is_inf] = a / (-np.conj(b)) if b != 0 else np.inf
        pole = (~is_inf) & (np.abs(den) == 0.0)
        out[pole] = np.inf
        return out[0] if scalar else out


class LineBundleModel:
    """Truncated spectral Dolbeault complex of O(n), `levels` section levels."""

    def __init__(self, n, levels):
        if levels < 1:
            raise ValueError("need at least one level")
        self.n = int(n)
        self.levels = int(levels)
        self._build_bases()
        self._build_operators()

    # -- construction -----------------------------------------------------

    def _build_bases(self):
        n = self.n
        two_j = abs(n) + 2 * np.arange(self.levels)
        a, b = (two_j + n) // 2, (two_j - n) // 2
        # lambda_p^2 = 2 [j(j+1) - (n/2)(n/2+1)] = 2 b (a+1), zero exactly
        # when b = 0
        self.lambdas = np.sqrt(2.0 * b * (a + 1))

        # weights0 and weights1 hold each chart function's torus weight,
        # RadialFun.weight: an image form's is one more than its section's
        self.funs0, self.weights0, self.level0 = [], [], []
        self.funs1, self.weights1, self.src_level1 = [], [], []
        self._image_pairs = []      # (section, its image form)
        for w, f in harmonic_forms(n):
            self.funs1.append(f)
            self.weights1.append(w)
            self.src_level1.append(-1)
        self.n_harm1 = len(self.funs1)
        for p, lam in enumerate(self.lambdas):
            for w, f in level_sections(n, p):
                self.funs0.append(f)
                self.weights0.append(w)
                self.level0.append(p)
                if lam == 0.0:
                    continue
                g = f.dbar().scale(1.0 / lam)
                # the recursion is the same code at every level, so its
                # first levels vouch for all; the Beta sums lose about 4x
                # per level, and on levels 0-3 they are good to 1e-13 for
                # |n| <= 8 and to 1e-12 for n >= -16
                if p < 4:
                    resid = abs(2.0 * hermitian_inner(g, g, n).real - 1.0)
                    if resid > 1e-12:
                        raise AssertionError(
                            "twist %d level %d: |dbar f / lambda|^2 - 1 = "
                            "%.3g" % (n, p, resid))
                if g.boundedness_margin(self.n / 2.0 - 1.0) < -1e-9:
                    raise AssertionError("unbounded normalized form profile")
                self._image_pairs.append((len(self.funs0) - 1,
                                          len(self.funs1)))
                self.funs1.append(g)
                self.weights1.append(w + 1)
                self.src_level1.append(p)

        self.weights0 = np.array(self.weights0, dtype=int)
        self.level0 = np.array(self.level0, dtype=int)
        self.weights1 = np.array(self.weights1, dtype=int)
        self.src_level1 = np.array(self.src_level1, dtype=int)
        self.dim0 = len(self.funs0)
        self.dim1 = len(self.funs1)
        self.lam0 = self.lambdas[self.level0]

    def _build_operators(self):
        # on the total space: sections, then forms
        dim0, dim = self.dim0, self.dim0 + self.dim1
        i0, i1 = np.array(self._image_pairs, dtype=int).reshape(-1, 2).T
        lam = self.lam0[i0]
        self.dbar = Gather(dim, dim0 + i1, i0, lam)
        self.hom = Gather(dim, i0, dim0 + i1, 1.0 / lam)
        harm = np.concatenate([np.nonzero(self.lam0 == 0.0)[0],
                               dim0 + np.arange(self.n_harm1)])
        self.proj = Gather(dim, harm, harm, 1.0)

        self.total_space = BigradedSpace(
            np.repeat([(0, 0), (1, 0)], [dim0, self.dim1], axis=0))
        self.dbar_total = GradedMap(self.total_space, self.total_space, (1, 0),
                                    self.dbar.dense())

    # -- spectral operators -----------------------------------------------

    def dim(self, degree):
        return self.dim0 if degree == 0 else self.dim1

    def funs(self, degree):
        return self.funs0 if degree == 0 else self.funs1

    def weights(self, degree):
        return self.weights0 if degree == 0 else self.weights1

    # -- evaluation and projection ----------------------------------------

    def normalized_extra(self, degree):
        """D-exponent making chart profiles bounded: n/2 or n/2 - 1."""
        return self.n / 2.0 if degree == 0 else self.n / 2.0 - 1.0

    def basis_values(self, z, degree):
        """Matrix of normalized basis chart values, shape (dim, len(z))."""
        z = np.asarray(z, dtype=complex)
        extra = self.normalized_extra(degree)
        fs = self.funs(degree)
        out = np.empty((len(fs), z.size), dtype=complex)
        for i, f in enumerate(fs):
            out[i] = f.eval(z.ravel(), extra=extra)
        return out.reshape((len(fs),) + z.shape)

    def values(self, coeffs, z, degree):
        return np.tensordot(np.asarray(coeffs), self.basis_values(z, degree),
                            axes=(0, 0))

    def grid_data(self, grid, degree):
        """(basis values, projection weights) on a SphereGrid or a
        RadialGrid, evaluated anew on each call."""
        return (self.basis_values(grid.z, degree),
                self.grid_weights(grid, degree))

    def grid_weights(self, grid, degree):
        return grid.w / grid.D ** 2 * (2.0 if degree == 1 else 1.0)

    # -- group action ------------------------------------------------------

    def rotate_values(self, g, z, coeffs, degree):
        """Normalized chart values of the section or form moved by the
        Mobius map g.

        With P = g.factor(z) and f(z) = (a z + b) / P, the bounded profile
        transforms by the pure phase (P/|P|)^n for sections and
        (P/|P|)^(n+2) for (0,1)-forms, so nothing blows up near the pole.
        """
        z = np.asarray(z, dtype=complex)
        p = g.factor(z)
        absp = np.abs(p)
        safe = np.where(absp > 0, absp, 1.0)
        phase = (p / safe) ** (self.n if degree == 0 else self.n + 2)
        fz = (g.a * z + g.b) / np.where(absp > 0, p, 1e-300)
        return phase * self.values(coeffs, fz, degree)

    def rotation_matrix(self, g, grid, degree):
        """Matrix of the action of the Mobius map g in the orthonormal
        basis."""
        v, wfac = self.grid_data(grid, degree)
        tv = self.rotate_values(g, grid.z, np.eye(self.dim(degree)), degree)
        return np.einsum("ig,g,jg->ji", tv, wfac, v.conj())

    # -- diagnostics -------------------------------------------------------

    def serre_dims(self):
        dims = cohomology(self.dbar_total)
        return (dims.get(0, 0), dims.get(1, 0))

    def chain_homotopy_residual(self):
        """Spectral norm of dbar H + H dbar - (1 - P): the residual is
        diagonal (dbar and H pair sections with forms one to one), so it
        is the largest entry."""
        return chain_identity_residual(self.dbar, self.hom, self.proj)


def build_model(n, levels):
    return LineBundleModel(n, levels)
