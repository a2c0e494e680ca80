"""Spectral models for the Dolbeault complex of a line bundle on the sphere.

A twist-n model holds an orthonormal basis of sections and (0,1)-forms
organized by rotation level.  Sections at level p span the spin j = |n|/2 + p
representation; their chart functions come from a two-term recursion that
solves the harmonicity condition weight by weight, so no numerical
diagonalization enters the basis.  The d-bar operator is diagonal across
matched (level, weight) pairs with a level constant lambda_p, which makes the
Green operator, the harmonic projector and the standard homotopy H = dbar* G
explicit, and the chain identity {dbar, H} = 1 - P holds to machine precision
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

from .graded import BigradedSpace, GradedMap, cohomology
from .radial import RadialFun, hermitian_inner


def section_inner(f, g, n):
    return hermitian_inner(f, g, n + 2)


def form_inner(a, b, n):
    return 2.0 * hermitian_inner(a, b, n)


def level_sections(n, p):
    """Orthonormal chart functions of the level-p section space of twist n.

    Returns a list of (weight, RadialFun) with weight running from -b to a,
    where (a, b) = (j + n/2, j - n/2) and j = |n|/2 + p.  The numerator
    coefficients solve the harmonicity recursion
        q_{m+1} = -[(m + a0 - a)(m + b0 - b)] / [(m + a0 + 1)(m + b0 + 1)] q_m
    and terminate on their own once the numerator factor hits zero.
    """
    two_j = abs(n) + 2 * p
    a = (two_j + n) // 2
    b = (two_j - n) // 2
    out = []
    for w in range(-b, a + 1):
        a0, b0 = max(w, 0), max(-w, 0)
        mmax = min(a - a0, b - b0)
        q = 1.0
        terms = {}
        for m in range(mmax + 1):
            terms[(a0 + m, b0 + m)] = q
            q *= -((m + a0 - a) * (m + b0 - b)) / ((m + a0 + 1) * (m + b0 + 1))
        f = RadialFun(terms, gamma=b)
        nrm = math.sqrt(section_inner(f, f, n).real)
        out.append((w, f.scale(1.0 / nrm)))
    return out


def harmonic_forms(n):
    """Orthonormal harmonic (0,1)-forms: A = zbar^k D^n, k = 0..-n-2."""
    out = []
    for k in range(max(-n - 1, 0)):
        f = RadialFun({(0, k): 1.0}, gamma=-n)
        nrm = math.sqrt(form_inner(f, f, n).real)
        out.append((-k, f.scale(1.0 / nrm)))
    return out


class LineBundleModel:
    """Truncated spectral Dolbeault complex of O(n), `levels` section levels."""

    def __init__(self, n, levels):
        if levels < 1:
            raise ValueError("need at least one level")
        self.n = int(n)
        self.levels = int(levels)
        self._build_bases()
        self._build_operators()
        self._grid_cache = {}

    # -- construction -----------------------------------------------------

    def _build_bases(self):
        n = self.n
        self.funs0, self.weights0, self.level0 = [], [], []
        self.lambdas = np.zeros(self.levels)
        level_imgs = []
        for p in range(self.levels):
            secs = level_sections(n, p)
            lams, imgs = [], []
            for w, f in secs:
                self.funs0.append(f)
                self.weights0.append(w)
                self.level0.append(p)
                df = f.dbar()
                lam2 = form_inner(df, df, n).real
                lams.append(math.sqrt(max(lam2, 0.0)))
                imgs.append((w, df))
            lams = np.array(lams)
            if lams.max() < 1e-13:
                self.lambdas[p] = 0.0
                level_imgs.append(None)
            else:
                # the d-bar norm must be constant across the level; the
                # closed-form integrals lose ~4x precision per level to
                # cancellation (measured 4e-9 relative at level 13), while a
                # miswired recursion shows up at 1e-3, so the guard sits
                # well above the noise and well below any real defect
                if lams.max() - lams.min() > 3e-8 * lams.max():
                    raise AssertionError("level %d of twist %d is not d-bar "
                                         "isotypic" % (p, n))
                self.lambdas[p] = lams.mean()
                level_imgs.append(imgs)

        # weights1 is the weight of the section a form comes from: for an
        # image form (src_level1 >= 0) that is one less than its
        # coefficient's RadialFun.weight, for a harmonic form it is the
        # coefficient's weight.  Angular selection rules read RadialFun.weight.
        self.funs1, self.weights1, self.src_level1 = [], [], []
        for w, f in harmonic_forms(n):
            self.funs1.append(f)
            self.weights1.append(w)
            self.src_level1.append(-1)
        self.n_harm1 = len(self.funs1)
        for p, imgs in enumerate(level_imgs):
            if imgs is None:
                continue
            lam = self.lambdas[p]
            for w, df in imgs:
                g = df.scale(1.0 / lam).trim()
                if g.boundedness_margin(self.n / 2.0 - 1.0) < -1e-9:
                    raise AssertionError("unbounded normalized form profile")
                self.funs1.append(g)
                self.weights1.append(w)
                self.src_level1.append(p)

        self.weights0 = np.array(self.weights0, dtype=int)
        self.level0 = np.array(self.level0, dtype=int)
        self.weights1 = np.array(self.weights1, dtype=int)
        self.src_level1 = np.array(self.src_level1, dtype=int)
        self.dim0 = len(self.funs0)
        self.dim1 = len(self.funs1)
        self.lam0 = self.lambdas[self.level0]

        # index of the image partner of each section basis vector
        pos = {(p, w): i for i, (p, w) in
               enumerate(zip(self.src_level1, self.weights1)) if p >= 0}
        self.img_index0 = np.array(
            [pos.get((p, w), -1) for p, w in zip(self.level0, self.weights0)],
            dtype=int)

    def _build_operators(self):
        d = np.zeros((self.dim1, self.dim0))
        for i0, i1 in enumerate(self.img_index0):
            if i1 >= 0:
                d[i1, i0] = self.lam0[i0]
        self.dbar_mat = d
        h = np.zeros((self.dim0, self.dim1))
        for i0, i1 in enumerate(self.img_index0):
            if i1 >= 0:
                h[i0, i1] = 1.0 / self.lam0[i0]
        self.hom_mat = h
        self.proj0_mat = np.diag((self.lam0 == 0.0).astype(float))
        harm = np.zeros(self.dim1)
        harm[:self.n_harm1] = 1.0
        self.proj1_mat = np.diag(harm)

        labels = (["s[p=%d,w=%d]" % (p, w) for p, w in zip(self.level0, self.weights0)]
                  + ["h[w=%d]" % w for w in self.weights1[:self.n_harm1]]
                  + ["f[p=%d,w=%d]" % (p, w) for p, w in
                     zip(self.src_level1[self.n_harm1:], self.weights1[self.n_harm1:])])
        degrees = [(0, 0)] * self.dim0 + [(1, 0)] * self.dim1
        self.space0 = BigradedSpace(labels[:self.dim0], degrees[:self.dim0])
        self.space1 = BigradedSpace(labels[self.dim0:], degrees[self.dim0:])
        self.total_space = BigradedSpace(labels, degrees)

        dim = self.dim0 + self.dim1
        dt = np.zeros((dim, dim))
        dt[self.dim0:, :self.dim0] = self.dbar_mat
        self.dbar_total = GradedMap(self.total_space, self.total_space, (1, 0), dt)
        ht = np.zeros((dim, dim))
        ht[:self.dim0, self.dim0:] = self.hom_mat
        self.homotopy_total = GradedMap(self.total_space, self.total_space, (-1, 0), ht)
        pt = np.zeros((dim, dim))
        pt[:self.dim0, :self.dim0] = self.proj0_mat
        pt[self.dim0:, self.dim0:] = self.proj1_mat
        self.projector_total = GradedMap(self.total_space, self.total_space, (0, 0), pt)

    # -- spectral operators -----------------------------------------------

    def laplacian_mat(self, degree):
        if degree == 0:
            return self.dbar_mat.T @ self.dbar_mat
        return self.dbar_mat @ self.dbar_mat.T

    def green_mat(self, degree):
        lap = self.laplacian_mat(degree)
        diag = np.diag(lap)
        inv = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 0.0)
        return np.diag(inv)

    def projector_mat(self, degree):
        return self.proj0_mat if degree == 0 else self.proj1_mat

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

    def basis_values(self, z, degree, normalized=True):
        """Matrix of basis chart values, shape (dim, len(z))."""
        z = np.asarray(z, dtype=complex)
        extra = self.normalized_extra(degree) if normalized else 0.0
        fs = self.funs(degree)
        out = np.empty((len(fs), z.size), dtype=complex)
        for i, f in enumerate(fs):
            out[i] = f.eval(z.ravel(), extra=extra)
        return out.reshape((len(fs),) + z.shape)

    def values(self, coeffs, z, degree, normalized=True):
        return np.tensordot(np.asarray(coeffs), self.basis_values(z, degree, normalized), axes=(0, 0))

    def grid_data(self, grid, degree):
        """Cached (basis values, projection weights) on a SphereGrid or a
        RadialGrid."""
        # keyed on the grid object, not id(): holding the reference keeps
        # a dead grid's id from being recycled into a stale cache hit
        key = (grid, degree)
        if key not in self._grid_cache:
            v = self.basis_values(grid.z, degree)
            wfac = grid.w / grid.D ** 2 * (2.0 if degree == 1 else 1.0)
            self._grid_cache[key] = (v, wfac)
        return self._grid_cache[key]

    def grid_project(self, values, grid, degree):
        """Coefficients of normalized chart values given on grid points."""
        v, wfac = self.grid_data(grid, degree)
        return v.conj() @ (wfac * values)

    def grid_inner(self, va, vb, grid, degree):
        _, wfac = self.grid_data(grid, degree)
        return np.sum(wfac * va * np.conj(vb))

    # -- group action ------------------------------------------------------

    def rotate_values(self, g, z, coeffs, degree):
        """Normalized chart values of the g-transformed section or form.

        With P = conj(a) - conj(b) z and f(z) = (a z + b) / P, the bounded
        profile transforms by the pure phase (P/|P|)^n for sections and
        (P/|P|)^(n+2) for (0,1)-forms, so nothing blows up near the pole.
        """
        a, b = g[0, 0], g[0, 1]
        z = np.asarray(z, dtype=complex)
        p = np.conj(a) - np.conj(b) * z
        absp = np.abs(p)
        safe = np.where(absp > 0, absp, 1.0)
        phase = (p / safe) ** (self.n if degree == 0 else self.n + 2)
        fz = (a * z + b) / np.where(absp > 0, p, 1e-300)
        return phase * self.values(coeffs, fz, degree)

    def rotation_matrix(self, g, grid, degree):
        """Matrix of the g-action in the orthonormal basis."""
        v, wfac = self.grid_data(grid, degree)
        tv = self.rotate_values(g, grid.z, np.eye(self.dim(degree)), degree)
        return np.einsum("ig,g,jg->ji", tv, wfac, v.conj())

    # -- diagnostics -------------------------------------------------------

    def serre_dims(self):
        out = cohomology(self.dbar_total)
        return (out["dims"].get(0, 0), out["dims"].get(1, 0))

    def chain_homotopy_residual(self):
        """Spectral norm of dbar H + H dbar - (1 - P)."""
        dim = self.dim0 + self.dim1
        lhs = (self.dbar_total.matrix @ self.homotopy_total.matrix
               + self.homotopy_total.matrix @ self.dbar_total.matrix)
        rhs = np.eye(dim) - self.projector_total.matrix
        return float(np.linalg.norm(lhs - rhs, 2))


def build_model(n, levels):
    return LineBundleModel(n, levels)
