"""Exterior algebra of R^4, its anti-self-dual quotient, and the cyclic hull.

Everything in this module is exact finite-dimensional linear algebra: the
wedge structure constants are integers, the Hodge star is a signed
permutation of the subset basis, and the quotient / dual constructions keep
real rational coefficients.  Tests therefore compare against hand values and
exhaustive basis loops instead of loose tolerances.

Conventions fixed here once and used everywhere downstream:
  * basis e_I indexed by subsets I of {1,2,3,4}, degree-major order;
  * orientation vol = e1^e2^e3^e4, euclidean inner product making the e_I
    orthonormal (bilinear, extended complex-bilinearly);
  * star defined by a ^ star(b) = (a, b) vol, so star^2 = (-1)^k on k-forms
    (+id on even degrees, which is the only place it is used);
  * the quotient algebra keeps 1, the four e_mu and the anti-self-dual
    2-forms; its cyclic hull adjoins the dual with square-zero product.
"""

from __future__ import annotations

import numpy as np

from .graded import (BigradedSpace, Gather, Pairing, exterior_algebra,
                     koszul_sign)
from .radial import hermitian_inner, monomial

_MASKS, _WEDGE = exterior_algebra(4)
SUBSETS = tuple(tuple(b + 1 for b in range(4) if m >> b & 1) for m in _MASKS)
SUB_INDEX = {s: i for i, s in enumerate(SUBSETS)}
VOL_INDEX = SUB_INDEX[(1, 2, 3, 4)]


class ExteriorAlgebra4:
    """Lambda^*(R^4) on the subset basis, with wedge, metric and star."""

    def __init__(self):
        self.dim = len(SUBSETS)
        self.form_degree = np.array([len(s) for s in SUBSETS], dtype=int)
        self.wedge_tensor = _WEDGE
        # e_I ^ star(e_I) = vol: star(e_I) = s e_Ic, s the sign of the
        # wedge e_I ^ e_Ic = s vol
        self.star_matrix = _WEDGE[:, :, VOL_INDEX].T.copy()

    def basis_vector(self, I):
        v = np.zeros(self.dim)
        v[SUB_INDEX[tuple(sorted(I))]] = 1.0
        return v

    def wedge(self, x, y):
        return np.einsum("i,j,ijk->k", np.asarray(x), np.asarray(y),
                         self.wedge_tensor)

    def inner(self, x, y):
        # bilinear, not hermitian: pairs with the star identity below
        return np.asarray(x) @ np.asarray(y)

    def star(self, x):
        return self.star_matrix @ np.asarray(x)


EXT4 = ExteriorAlgebra4()


def _pm_basis(sign):
    out = []
    for j in (2, 3, 4):
        v = EXT4.basis_vector((1, j)).astype(complex)
        out.append(v + sign * EXT4.star(v))
    return out

LAMBDA2_PLUS = _pm_basis(+1)    # e12+e34, e13-e24, e14+e23
LAMBDA2_MINUS = _pm_basis(-1)   # e12-e34, e13+e24, e14-e23


class AAlgebra:
    """Quotient of Lambda^*(R^4) by the ideal (Lambda^2_+ + Lambda^3 + Lambda^4).

    Underlying space R + Lambda^1 + Lambda^2_-, dims 1+4+3, with bidegrees
    (0,0), (3,2), (6,4).  The product is wedge followed by the quotient
    projection; in particular two 1-forms multiply to the anti-self-dual part
    of their wedge, and everything of reduced degree > 2 dies.
    """

    def __init__(self):
        self.dim = 8
        self.space = BigradedSpace([(0, 0)] + [(3, 2)] * 4 + [(6, 4)] * 3)
        emb = np.zeros((16, 8), dtype=complex)
        emb[SUB_INDEX[()], 0] = 1.0
        for mu in range(4):
            emb[SUB_INDEX[(mu + 1,)], 1 + mu] = 1.0
        for i, f in enumerate(LAMBDA2_MINUS):
            emb[:, 5 + i] = f
        proj = np.zeros((8, 16), dtype=complex)
        proj[0, SUB_INDEX[()]] = 1.0
        for mu in range(4):
            proj[1 + mu, SUB_INDEX[(mu + 1,)]] = 1.0
        for i, f in enumerate(LAMBDA2_MINUS):
            # f_i are orthogonal of squared norm 2; (1-*)/2 is built into
            # pairing against f_i since (B, f_i) kills the self-dual part
            proj[5 + i] = f / 2.0
        self.projection = proj
        c = np.zeros((8, 8, 8), dtype=complex)
        for i in range(8):
            for j in range(8):
                c[i, j] = proj @ EXT4.wedge(emb[:, i], emb[:, j])
        assert np.abs(c.imag).max() == 0.0
        self.structure = c.real
        self.unit = np.zeros(8)
        self.unit[0] = 1.0

    def multiply(self, x, y):
        return np.einsum("i,j,ijk->k", np.asarray(x), np.asarray(y),
                         self.structure)


A_ALG = AAlgebra()


class UAlgebra:
    """Cyclic hull: the quotient algebra plus its dual as a square-zero ideal.

    Basis = the 8 quotient basis vectors followed by their duals.  The dual
    of a bidegree-(k,l) vector sits in bidegree (11-k, 8-l), so reduced
    degrees run 0..3 with dims (1,7,7,1).  The algebra part acts on the dual
    part by the transpose of its own multiplication, twisted by the Koszul
    sign on the left; duals multiply to zero.  The trace reads off the
    coefficient of the dual of the unit, and the induced pairing
    tr(x y) is the canonical duality, graded symmetric and nondegenerate.
    """

    def __init__(self):
        self.a = A_ALG
        na = self.a.dim
        self.dim = 2 * na
        degs = self.a.space.degrees
        self.space = BigradedSpace(np.vstack([degs, (11, 8) - degs]))
        red = self.space.reduced_degrees()
        c = np.zeros((self.dim, self.dim, self.dim))
        ca = self.a.structure
        c[:na, :na, :na] = ca
        for m in range(na):
            for j in range(na):
                for i in range(na):
                    if ca[j, i, m] == 0.0:
                        continue
                    # right action: (xi^m . a_j)(a_i) = xi^m(a_j a_i)
                    c[na + m, j, na + i] = ca[j, i, m]
                    sgn = koszul_sign(red[j], red[na + m])
                    c[j, na + m, na + i] = sgn * ca[j, i, m]
        self.structure = c
        self.unit = np.zeros(self.dim)
        self.unit[0] = 1.0
        self.trace_index = na  # dual of the unit

    def multiply(self, x, y):
        return np.einsum("i,j,ijk->k", np.asarray(x), np.asarray(y),
                         self.structure)

    def trace(self, x):
        return np.asarray(x)[self.trace_index]

    def pairing(self):
        """The duality tr(x y): each basis vector pairs with its dual."""
        mat = self.structure[:, :, self.trace_index]
        col = np.abs(mat).argmax(axis=1)
        val = mat[np.arange(self.dim), col]
        return Pairing(self.space, Gather(self.dim, slice(None), col, val), 3)


U_ALG = UAlgebra()


# ---------------------------------------------------------------------------
# spinor model: W+ and W- are copies of C^2 with the standard symplectic
# form; a euclidean vector becomes the 2x2 matrix x4 Id + i x.sigma, whose
# determinant is |x|^2.  Contracting a pair of such matrices over one factor
# with the symplectic form lands in Sym^2 of the other factor, and the two
# contractions see exactly one of the star eigenspaces each: the column
# contraction the self-dual one, the row contraction the anti-self-dual.

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

EPS = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def spinor_matrix(x):
    """2x2 matrix of a euclidean 4-vector; det = |x|^2."""
    x = np.asarray(x, dtype=complex)
    m = x[3] * np.eye(2, dtype=complex)
    for i in range(3):
        m = m + 1.0j * x[i] * PAULI[i]
    return m


_SPIN1 = [spinor_matrix(np.eye(4)[mu]) for mu in range(4)]


def _contract_rows(mu, nu):
    # contract the W+ (row) indices with eps: lands in Sym^2 W-
    a, b = _SPIN1[mu], _SPIN1[nu]
    return a.T @ EPS @ b - b.T @ EPS @ a


def _contract_cols(mu, nu):
    # contract the W- (column) indices with eps: lands in Sym^2 W+
    a, b = _SPIN1[mu], _SPIN1[nu]
    return a @ EPS @ b.T - b @ EPS @ a.T


def _two_form_map(contract, omega):
    out = np.zeros((2, 2), dtype=complex)
    x = np.asarray(omega, dtype=complex)
    for idx, I in enumerate(SUBSETS):
        if len(I) != 2 or x[idx] == 0.0:
            continue
        out = out + x[idx] * contract(I[0] - 1, I[1] - 1)
    return out


class SpinorSpaces:
    """Fixed spinor identifications for 1-forms and the 2-form eigenspaces.

    psi1 sends a complexified 1-form to its 2x2 matrix (rows = W+, columns =
    W-).  Of the two symplectic contractions of a matrix pair, the one over
    the columns kills the anti-self-dual 2-forms and is psi_plus; the one
    over the rows kills the self-dual ones and is psi_minus.  Each is
    invertible on its own eigenspace, onto the symmetric 2x2 matrices.
    """

    def psi1(self, one_form):
        x = np.asarray(one_form, dtype=complex)
        return sum(x[SUB_INDEX[(mu,)]] * m
                   for mu, m in zip((1, 2, 3, 4), _SPIN1))

    def psi_plus(self, two_form):
        return _two_form_map(_contract_cols, two_form)

    def psi_minus(self, two_form):
        return _two_form_map(_contract_rows, two_form)


SPIN = SpinorSpaces()


def lambda2_minus_action(b_coords, v_coords):
    """Action of an anti-self-dual 2-form on a 1-form, via the metric.

    Defined as the adjoint of wedging: (B o v, w) = (B, v ^ w) for all w.
    This is the finite-dimensional shadow of the 'rotation acts on vectors'
    picture and is what the spinor contraction must reproduce.
    """
    B = sum(c * f for c, f in zip(np.asarray(b_coords, dtype=complex),
                                  LAMBDA2_MINUS))
    v = np.zeros(16, dtype=complex)
    for mu in range(4):
        v[SUB_INDEX[(mu + 1,)]] = np.asarray(v_coords, dtype=complex)[mu]
    out = np.zeros(4, dtype=complex)
    for mu in range(4):
        w = EXT4.basis_vector((mu + 1,))
        out[mu] = EXT4.inner(B, EXT4.wedge(v, w))
    return out


# ---------------------------------------------------------------------------
# identification of the cyclic hull with the cohomology of the sphere
# complex, read off its minimal model: the harmonics of the contraction
# carry the cohomology, and the transferred m2 on them is the cohomology
# product (Loday-Vallette, Algebraic Operads, 2012, section 10.3).


def _counts(degrees):
    return {int(r): int(k)
            for r, k in zip(*np.unique(degrees, return_counts=True))}


# the hull's dimensions per reduced degree: the quotient algebra's (1,4,3)
# on the holomorphic ("o") blocks, its dual's (3,4,1) on the dual-twist ("w")
HULL_DIMS = dict(zip("ow", map(_counts, np.split(
    U_ALG.space.reduced_degrees(), 2))))


def _harmonic_blocks(con):
    """The block that each harmonic lies on: one stretch of the layout per
    block, its sections then its forms."""
    g = con.algebra
    starts = [g.offsets[(bi, 0)] for bi in range(len(g.blocks))]
    return np.searchsorted(starts, con.harm_index, side="right") - 1


def graded_dims(tb):
    """Harmonics of tb per reduced degree on the "o" and "w" blocks, as in
    HULL_DIMS; a mismatch means a wiring bug, not a numerical issue."""
    con = tb.con
    part = np.array([con.algebra.blocks[bi].part
                     for bi in _harmonic_blocks(con)])
    return {p: _counts(con.harm_degrees[part == p]) for p in "ow"}


def check_u_cohomology_iso(tb):
    """Product match between the cyclic hull and cohomology.

    tb is the `Transferred` structure of the plain complex's contraction,
    whose `graded_dims` must be HULL_DIMS.  Compares the transferred product
    of two degree-one classes with the quotient-algebra product of 1-forms
    up to an invertible change of basis, fitted to 1e-9 of the products'
    size.
    """
    g, blocks = tb.con.algebra, _harmonic_blocks(tb.con)
    # product side: degree-one classes form W+ (x) H0(O(1)), the harmonics
    # of the ("o", ext 1) doublet block, index (alpha, section); m2 takes
    # two of them to the ("o", ext 2) block's harmonics
    d, t = (np.flatnonzero(blocks == g._find_block(ext, 0, "o"))
            for ext in (1, 2))
    model = g.blocks[g._find_block(1, 0, "o")].model

    # spinor route into the doublet: 1-form -> matrix rows W+, columns W-;
    # W- basis maps to sections -z, 1, expanded exactly in the model basis
    s_funs = [model.funs0[i] for i in range(model.dim0)
              if model.level0[i] == 0]
    sig = np.array([[-hermitian_inner(monomial(1, 0), f, model.n + 2),
                     hermitian_inner(monomial(0, 0), f, model.n + 2)]
                    for f in s_funs])
    S = np.stack([m @ sig.T for m in _SPIN1], axis=-1).reshape(len(d), 4)

    b_pairs = np.einsum("pm,qn,pqc->mnc", S, S,
                        tb.dense(2)[np.ix_(d, d, t)])
    # the quotient algebra's products of the 1-forms e_mu, in Lambda^2_-
    a_pairs = A_ALG.structure[1:5, 1:5, 5:]

    flatA = a_pairs.reshape(16, 3)
    flatB = b_pairs.reshape(16, len(t))
    rank = int(np.linalg.matrix_rank(flatB, tol=1e-9))
    Tt, _, _, _ = np.linalg.lstsq(flatA, flatB, rcond=None)
    resid = float(np.abs(flatA @ Tt - flatB).max())
    scale = float(np.abs(flatB).max())
    svals = np.linalg.svd(Tt.T, compute_uv=False)
    report = {
        "product_rank": rank,
        "basis_change_residual": resid / scale if scale > 0 else resid,
        "basis_change_condition": float(svals[0] / svals[-1]),
        "basis_change_min_singular": float(svals[-1]),
        "pass": rank == 3 and resid <= 1e-9 * max(scale, 1.0)
                and svals[-1] > 1e-9,
    }
    return report
