"""Bigraded vector spaces, graded maps and Koszul sign bookkeeping.

Every space here carries an integer bidegree (k, l) per basis vector; the
reduced degree k - l drives all sign rules.  Maps are dense complex matrices
together with a bidegree shift, and the helpers below (anticommutators,
bicomplex checks, cohomology of a differential) are the workhorses for the
sphere complexes and the homotopy transfer machinery built on top.
"""

from __future__ import annotations

import numpy as np


class BiDegree(tuple):
    """Integer pair (k, l); reduced degree is k - l."""

    def __new__(cls, k, l):
        return super().__new__(cls, (int(k), int(l)))

    @property
    def k(self):
        return self[0]

    @property
    def l(self):
        return self[1]

    @property
    def reduced(self):
        return self[0] - self[1]

    def __add__(self, other):
        return BiDegree(self[0] + other[0], self[1] + other[1])


def koszul_sign(deg_a, deg_b):
    """Sign picked up when a moves past b, from reduced degree parity."""
    ra = deg_a.reduced if isinstance(deg_a, BiDegree) else int(deg_a)
    rb = deg_b.reduced if isinstance(deg_b, BiDegree) else int(deg_b)
    return -1 if (ra % 2) and (rb % 2) else 1


def koszul_sign_permutation(perm, degrees):
    """Sign of permuting homogeneous elements x_0..x_{n-1} into x_perm.

    perm[i] is the index (into the original tuple) of the element landing in
    slot i.  Combines the plain permutation sign with the Koszul sign from
    odd elements crossing each other; this is the chi(sigma) of antisymmetric
    multilinear calculus.
    """
    perm = list(perm)
    degs = [d.reduced if isinstance(d, BiDegree) else int(d) for d in degrees]
    sign = 1
    # bubble to identity, tracking both the transposition sign and the
    # Koszul factor of the two swapped neighbours
    arr = perm[:]
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                da, db = degs[arr[j]], degs[arr[j + 1]]
                sign *= -1
                if (da % 2) and (db % 2):
                    sign *= -1
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return sign


class BigradedSpace:
    """Finite ordered basis, each vector labelled and carrying a BiDegree."""

    def __init__(self, labels, degrees):
        if len(labels) != len(degrees):
            raise ValueError("labels and degrees must align")
        self.labels = list(labels)
        self.degrees = [BiDegree(*d) for d in degrees]

    @property
    def dim(self):
        return len(self.labels)

    def reduced_degrees(self):
        return np.array([d.reduced for d in self.degrees], dtype=int)

    def __repr__(self):
        return "BigradedSpace(dim=%d)" % self.dim


class GradedMap:
    """Dense matrix between bigraded spaces, homogeneous of a fixed shift."""

    def __init__(self, source, target, shift, matrix, check=True, tol=1e-12):
        self.source = source
        self.target = target
        self.shift = BiDegree(*shift)
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (target.dim, source.dim):
            raise ValueError("matrix shape %s does not match spaces (%d, %d)"
                             % (self.matrix.shape, target.dim, source.dim))
        if check:
            bad = self.degree_violation()
            if bad > tol:
                raise ValueError("entries off the declared bidegree shift "
                                 "(max %.3e)" % bad)

    def degree_violation(self):
        """Largest |entry| sitting at an incompatible bidegree pair."""
        tdeg = np.array(self.target.degrees, dtype=int).reshape(-1, 2)
        want = np.array(self.source.degrees, dtype=int).reshape(-1, 2)
        want += self.shift
        bad = ((tdeg[:, 0, None] != want[None, :, 0])
               | (tdeg[:, 1, None] != want[None, :, 1]))
        return float(np.abs(self.matrix[bad]).max(initial=0.0))

    def __call__(self, vec):
        return self.matrix @ vec

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise ValueError("non-composable maps")
        return GradedMap(other.source, self.target, self.shift + other.shift,
                         self.matrix @ other.matrix, check=False)


def anticommutator(f, g):
    """fg + gf for two endomorphism-type maps with composable shifts."""
    return GradedMap(f.source, f.target, f.shift + g.shift,
                     f.matrix @ g.matrix + g.matrix @ f.matrix, check=False)


def check_bicomplex(d1, d2=None):
    """Residual norms of d1^2, d2^2 and {d1, d2}.

    Returns a dict of spectral norms; all should vanish for a bicomplex.
    """
    out = {"d1_squared": np.linalg.norm(d1.matrix @ d1.matrix, 2)}
    if d2 is not None:
        out["d2_squared"] = np.linalg.norm(d2.matrix @ d2.matrix, 2)
        out["anticommutator"] = np.linalg.norm(
            d1.matrix @ d2.matrix + d2.matrix @ d1.matrix, 2)
    return out


def _rank(mat, tol=1e-10):
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


def cohomology(d, gram=None, tol=1e-10):
    """Graded dimensions of ker d / im d, by reduced degree.

    d must shift reduced degree by +1.  Returns {reduced_degree: dim}.  When
    gram is given (Hermitian inner product on the total space) the result
    also carries orthonormal harmonic representatives per degree under key
    ``representatives``: vectors in ker d orthogonal to im d.
    """
    if d.source is not d.target:
        raise ValueError("cohomology needs an endomorphism-type differential")
    space = d.source
    reduced = space.reduced_degrees()
    dims = {}
    reps = {}
    for r in sorted(set(reduced.tolist())):
        idx = np.nonzero(reduced == r)[0]
        idx_prev = np.nonzero(reduced == r - 1)[0]
        blk = d.matrix[:, idx]
        # d restricted to degree r, mapping anywhere
        rank_out = _rank(blk, tol)
        dim_ker = len(idx) - rank_out
        rank_in = _rank(d.matrix[np.ix_(idx, idx_prev)], tol) if len(idx_prev) else 0
        dims[r] = dim_ker - rank_in
        if gram is not None and dims[r] > 0:
            reps[r] = _harmonic_reps(d.matrix, reduced, r, gram, tol)
    out = {"dims": dims}
    if gram is not None:
        out["representatives"] = reps
    return out


def _harmonic_reps(dmat, reduced, r, gram, tol):
    idx = np.nonzero(reduced == r)[0]
    idx_prev = np.nonzero(reduced == r - 1)[0]
    blk_out = dmat[:, idx]
    # kernel basis
    if blk_out.size:
        u, s, vh = np.linalg.svd(blk_out)
        smax = s[0] if s.size else 0.0
        ker = vh[np.sum(s > tol * max(smax, 1e-300)):].conj().T
    else:
        ker = np.eye(len(idx))
    if len(idx_prev):
        img = dmat[np.ix_(idx, idx_prev)]
    else:
        img = np.zeros((len(idx), 0))
    g = gram[np.ix_(idx, idx)]
    # orthogonal complement of im d inside ker d, w.r.t. gram
    if img.shape[1] and ker.shape[1]:
        proj = ker.conj().T @ g @ img
        u2, s2, _ = np.linalg.svd(proj, full_matrices=True)
        rank = int(np.sum(s2 > tol * s2[0])) if s2.size and s2[0] > 0 else 0
        basis = ker @ u2[:, rank:] if rank < ker.shape[1] else np.zeros((len(idx), 0))
    else:
        basis = ker
    # orthonormalize w.r.t. gram
    if basis.shape[1]:
        m = basis.conj().T @ g @ basis
        w, v = np.linalg.eigh(m)
        keep = w > tol * max(w.max(), 1e-300)
        basis = basis @ v[:, keep] / np.sqrt(w[keep])
    full = np.zeros((dmat.shape[0], basis.shape[1]), dtype=complex)
    full[idx, :] = basis
    return full


class Pairing:
    """Bilinear pairing on a bigraded space, given by a dense matrix.

    value(x, y) = x^T M y (no conjugation: this is the trace-type bilinear
    form, not the Hermitian metric).  parity is the reduced degree the
    pairing is supported in: M[i, j] may be nonzero only when the reduced
    degrees of i and j sum to it.
    """

    def __init__(self, space, matrix, parity):
        self.space = space
        self.matrix = np.asarray(matrix, dtype=complex)
        self.parity = int(parity)

    def value(self, x, y):
        return x @ self.matrix @ y

    def parity_violation(self):
        red = self.space.reduced_degrees()
        mask = (red[:, None] + red[None, :]) != self.parity
        bad = np.abs(self.matrix)[mask]
        return float(bad.max()) if bad.size else 0.0

    def graded_symmetry_residual(self):
        """How far the pairing is from <x,y> = (-1)^(xy) <y,x>."""
        red = self.space.reduced_degrees()
        sgn = np.where((red[:, None] % 2) & (red[None, :] % 2), -1.0, 1.0)
        return float(np.abs(self.matrix - sgn * self.matrix.T).max())

    def nondegeneracy(self):
        """Smallest singular value over the largest (0 means degenerate)."""
        s = np.linalg.svd(self.matrix, compute_uv=False)
        return float(s[-1] / s[0]) if s.size and s[0] > 0 else 0.0
