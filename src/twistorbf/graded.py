"""Bigraded vector spaces, graded maps and Koszul sign bookkeeping.

Every space here is graded by one integer array of bidegrees (k, l),
shaped (n, 2), a row per basis vector; the reduced degree k - l drives
all sign rules, which take reduced degrees as plain integers.  Maps are
dense complex matrices together with an integer bidegree shift, or a
`Gather` when they have one nonzero per row (d-bar, H, P and the trace
pairing).  Ranks, those of `cohomology` included, are counted by one
routine, over the connected components of a matrix's nonzero pattern.
The sphere complexes and the homotopy transfer machinery build on these.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np


def koszul_sign(deg_a, deg_b):
    """Sign picked up when a moves past b, from reduced degree parity."""
    return -1 if (int(deg_a) % 2) and (int(deg_b) % 2) else 1


def merge_sign(s, t):
    """Sign of sorting the product of odd generators e_s e_t into e_{s|t},
    for bit masks s and t: (-1) to the number of pairs (a in s, b in t)
    with a > b, or 0 when the masks overlap."""
    if s & t:
        return 0
    n = sum(bin(s >> (b + 1)).count("1") for b in range(t.bit_length())
            if t >> b & 1)
    return -1 if n % 2 else 1


def exterior_algebra(n):
    """Exterior algebra on n odd generators: the subset masks, ordered by
    degree and then lexicographically, and the int8 structure tensor
    C[i, j, k] = merge_sign(masks[i], masks[j]) for masks[k] their union."""
    masks = [sum(1 << b for b in c) for k in range(n + 1)
             for c in itertools.combinations(range(n), k)]
    index = {m: i for i, m in enumerate(masks)}
    C = np.zeros((len(masks),) * 3, dtype=np.int8)
    for i, s in enumerate(masks):
        for j, t in enumerate(masks):
            if not s & t:
                C[i, j, index[s | t]] = merge_sign(s, t)
    return masks, C


def koszul_sign_permutation(perm, degrees):
    """Sign of permuting homogeneous elements x_0..x_{n-1} into x_perm.

    perm[i] is the index (into the original tuple) of the element landing in
    slot i.  Combines the plain permutation sign with the Koszul sign from
    odd elements crossing each other; this is the chi(sigma) of antisymmetric
    multilinear calculus.
    """
    perm = list(perm)
    degs = [int(d) for d in degrees]
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
    """Finite ordered basis graded by an integer array of bidegrees (k, l),
    shaped (n, 2), one row per basis vector."""

    def __init__(self, degrees):
        self.degrees = np.asarray(degrees, dtype=int)
        if self.degrees.ndim != 2 or self.degrees.shape[1] != 2:
            raise ValueError("degrees must be shaped (n, 2), not %s"
                             % (self.degrees.shape,))

    @property
    def dim(self):
        return len(self.degrees)

    def reduced_degrees(self):
        return self.degrees[:, 0] - self.degrees[:, 1]

    def __repr__(self):
        return "BigradedSpace(dim=%d)" % self.dim


class GradedMap:
    """Dense matrix between bigraded spaces, homogeneous of a fixed integer
    shift (k, l); with check, an entry above 1e-12 off that shift raises."""

    def __init__(self, source, target, shift, matrix, check=True):
        self.source = source
        self.target = target
        self.shift = np.asarray(shift, dtype=int)
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (target.dim, source.dim):
            raise ValueError("matrix shape %s does not match spaces (%d, %d)"
                             % (self.matrix.shape, target.dim, source.dim))
        if check:
            bad = self.degree_violation()
            if bad > 1e-12:
                raise ValueError("entries off the declared bidegree shift "
                                 "(max %.3e)" % bad)

    def degree_violation(self):
        """Largest |entry| sitting at an incompatible bidegree pair."""
        tdeg, want = self.target.degrees, self.source.degrees + self.shift
        bad = ((tdeg[:, 0, None] != want[None, :, 0])
               | (tdeg[:, 1, None] != want[None, :, 1]))
        return float(np.abs(self.matrix[bad]).max(initial=0.0))


class Gather:
    """n x n operator with at most one nonzero per row, val[i] in column
    col[i] (val 0: an empty row), the shape of d-bar, H and P.  Each entry
    of a product with it is one term, so it equals the dense one bitwise."""

    __array_ufunc__ = None      # ndarray @ Gather defers to __rmatmul__

    def __init__(self, n, rows, cols, vals):
        self.shape = (n, n)
        self.col = np.zeros(n, dtype=int)
        self.val = np.zeros(n, dtype=np.result_type(np.asarray(vals), float))
        self.col[rows], self.val[rows] = cols, vals

    def __matmul__(self, x):
        if isinstance(x, Gather):
            return Gather(self.shape[0], slice(None), x.col[self.col],
                          self.val * x.val[self.col])
        x = np.asarray(x)
        return self.val.reshape((-1,) + (1,) * (x.ndim - 1)) * x[self.col]

    def __rmatmul__(self, x):
        x, nz = np.asarray(x), np.nonzero(self.val)[0]
        out = np.zeros(x.shape[:-1] + self.shape[:1],
                       dtype=np.result_type(x, self.val))
        np.add.at(out.T, self.col[nz], (x[..., nz] * self.val[nz]).T)
        return out

    @property
    def T(self):
        """Transpose, for a gather with at most one nonzero per column."""
        nz = np.nonzero(self.val)[0]
        if np.bincount(self.col[nz], minlength=1).max() > 1:
            raise ValueError("two nonzeros share a column: no transpose")
        return Gather(self.shape[0], self.col[nz], nz, self.val[nz])

    def dense(self):
        out = np.zeros(self.shape, dtype=self.val.dtype)
        out[np.arange(self.shape[0]), self.col] = self.val
        return out


class Stack(NamedTuple):
    """Rows of vectors held on a set of their columns: `vals` shaped
    (..., k) and the k ascending column indices `cols`; every other column
    is zero.  The products and the homotopy transfer pass stacks around."""

    vals: np.ndarray
    cols: np.ndarray

    @classmethod
    def of(cls, X):
        """A dense stack (..., n) on its columns with a nonzero entry."""
        X = np.asarray(X)
        cols = np.flatnonzero(np.any(X.reshape(-1, X.shape[-1]), axis=0))
        return cls(X[..., cols], cols)

    def flat(self):
        """The same stack with its rows in one axis."""
        return Stack(self.vals.reshape(math.prod(self.vals.shape[:-1]),
                                       len(self.cols)), self.cols)

    def dense(self, n):
        out = np.zeros(self.vals.shape[:-1] + (n,), dtype=self.vals.dtype)
        out[..., self.cols] = self.vals
        return out


def class_runs(keys):
    """Stable argsort of integer keys and the (key, start, stop) of each
    run of equal keys in that order (indices ascending within a run)."""
    order = np.argsort(keys, kind="stable")
    k = np.asarray(keys)[order]
    if not len(k):
        return order, []
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    stops = np.r_[starts[1:], len(k)]
    return order, list(zip(k[starts].tolist(), starts.tolist(),
                           stops.tolist()))


def _components(a, b, n):
    """Component label of each of n nodes joined by the edges (a[i], b[i]):
    the smallest node of its component.  Each round hooks both ends of
    every edge, and their current labels, onto the smaller label, then
    jumps pointers until every label is its own."""
    lab = np.arange(n)
    while True:
        lo = np.minimum(lab[a], lab[b])
        new = lab.copy()
        for ends in (a, b, lab[a], lab[b]):
            np.minimum.at(new, ends, lo)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def rank_by_components(A, tol):
    """Rank of A at the absolute tol (singular values > tol count, as in
    np.linalg.matrix_rank), the smallest singular value kept and the
    largest dropped (0.0 where there is none).

    The SVDs run on the connected components of A's exact nonzero pattern,
    rows and columns the two sides of a bipartite graph.  Permuted to
    block-diagonal form, A's singular values are its blocks' together with
    exact zeros, so the rank is the whole matrix's."""
    A = np.asarray(A)
    m, n = A.shape
    rows, cols = np.nonzero(A)
    order, runs = class_runs(_components(rows, m + cols, m + n))
    rank, kept, dropped = 0, np.inf, 0.0
    for _, start, stop in runs:
        nodes = order[start:stop]
        r, c = nodes[nodes < m], nodes[nodes >= m] - m
        if len(r) and len(c):
            s = np.linalg.svd(A[np.ix_(r, c)], compute_uv=False)
            big = s > tol
            rank += int(big.sum())
            kept = min(kept, s[big].min(initial=np.inf))
            dropped = max(dropped, s[~big].max(initial=0.0))
    return rank, (float(kept) if rank else 0.0), float(dropped)


def support_max(fn, *ops):
    """Largest |fn(a, b, ...)| over the entries of equal-size gathers,
    taken where one of them is nonzero (fn(0, 0, ...) must be 0); an entry
    met twice is just taken twice."""
    rows, cols = np.hstack([
        [np.nonzero(op.val)[0], op.col[op.val != 0]] for op in ops])
    vals = [np.where(op.col[rows] == cols, op.val[rows], 0) for op in ops]
    return float(np.abs(fn(*vals)).max(initial=0.0))


def chain_identity_residual(d, H, P):
    """Largest |entry| of d H + H d - (1 - P), for n x n gathers."""
    eye = Gather(d.shape[0], slice(None), np.arange(d.shape[0]), 1.0)
    return support_max(lambda a, b, e, p: a + b - (e - p),
                       d @ H, H @ d, eye, P)


def cohomology(d):
    """Graded dimensions {reduced degree: dim} of ker d / im d.

    d must shift reduced degree by +1.  Ranks count the singular values
    above 1e-10 (`rank_by_components`); a d-bar's nonzero ones are its
    level constants, at least sqrt(2)."""
    if d.source is not d.target:
        raise ValueError("cohomology needs an endomorphism-type differential")
    reduced = d.source.reduced_degrees()
    dims = {}
    for r in sorted(set(reduced.tolist())):
        idx = np.nonzero(reduced == r)[0]
        idx_prev = np.nonzero(reduced == r - 1)[0]
        # d restricted to degree r, mapping anywhere; and into degree r
        rank_out = rank_by_components(d.matrix[:, idx], 1e-10)[0]
        rank_in = rank_by_components(d.matrix[np.ix_(idx, idx_prev)],
                                     1e-10)[0]
        dims[r] = len(idx) - rank_out - rank_in
    return dims


class Pairing:
    """Bilinear pairing on a bigraded space, held as a `Gather` (every
    pairing here pairs each basis vector with one other).

    value(x, y) = x^T M y (no conjugation: this is the trace-type bilinear
    form, not the Hermitian metric).  parity is the reduced degree the
    pairing is supported in: M[i, j] may be nonzero only when the reduced
    degrees of i and j sum to it.  dropped is the largest entry its builder
    left out of the gather.
    """

    def __init__(self, space, matrix, parity, dropped=0.0):
        self.space, self.matrix = space, matrix
        self.parity, self.dropped = int(parity), float(dropped)

    def value(self, x, y):
        return x @ (self.matrix @ y)

    def parity_violation(self):
        M, red = self.matrix, self.space.reduced_degrees()
        bad = red + red[M.col] != self.parity
        return float(np.abs(M.val[bad]).max(initial=0.0))

    def graded_symmetry_residual(self):
        """How far the pairing is from <x,y> = (-1)^(xy) <y,x>.  Each entry
        of M - sgn M^T has a mirror of the same modulus at some (i, col[i])."""
        M, red = self.matrix, self.space.reduced_degrees()
        back = np.where(M.col[M.col] == np.arange(M.shape[0]), M.val[M.col], 0)
        sgn = np.where((red % 2) & (red[M.col] % 2), -1.0, 1.0)
        return float(np.abs(M.val - sgn * back).max(initial=0.0))

    def singular_values(self):
        """Largest first.  Each row of a gather feeds one column, so M^H M
        is diagonal, with the per-column sums of |val|^2."""
        M = self.matrix
        return np.sort(np.sqrt(np.bincount(M.col, np.abs(M.val) ** 2,
                                           minlength=M.shape[1])))[::-1]

    def nondegeneracy(self):
        """Smallest singular value over the largest (0 means degenerate)."""
        s = self.singular_values()
        return float(s[-1] / s[0]) if s.size and s[0] > 0 else 0.0
