"""Homotopy transfer of the graded algebra structure onto harmonics.

Given a deformation retraction (inclusion i, projection p, degree -1
homotopy H) of a dg algebra, the higher transferred operations come from
the planar side recursion

    lam_2 = mu,
    lam_n = sum_{s+t=n} (-1)**(s+1) mu((H lam_s) x (H lam_t)),

with H lam_1 replaced by -id on singleton factors, and m_n = p lam_n i^n.
Evaluating a tensor product of operators costs the Koszul sign of the
right factor's degree against everything it jumps over; deg(H lam_t) is
1 - t, so only even t contributes, against the sum of the first s input
degrees.

One loop over n builds every arity.  The leaves, the root rows and each
H lam_s are `graded.Stack`s on the columns the products reach and, for
H lam_s, on its nonzero rows, each named by its flat id (the base-nh
number of its index tuple).  H is a `Gather`, so on a stack it is a column
remap; the plain root picks the harmonic coordinates.  Each m_n, n >= 2,
is held as its support: its nonzero entries' index tuples, in `np.nonzero`
order, and values.  The top arity is contracted against the root rows and
each split cut to its nonzero entries at once.  The splits are summed in
the order s = 1, n - 1, 2 .. n - 2 of the dense reference in the tests,
so that both round alike.  Brackets are graded antisymmetrizations summed
over the support; matrix coefficients ride along as ordered products.

A second differential of homological type can be switched on; the
homotopy then corrects leaves and root by the usual geometric series,
which is summed until it terminates (nilpotency is checked, not assumed).
"""

import numpy as np
from functools import reduce
from itertools import combinations, permutations

from .graded import (Gather, Stack, chain_identity_residual,
                     exterior_algebra, koszul_sign_permutation,
                     rank_by_components, support_max)

__all__ = [
    "DenseAlgebra", "heisenberg_dga", "Contraction", "build_contraction",
    "transfer", "Transferred", "lambda_oracle", "check_ainfinity",
    "check_linfty_relations", "quasi_iso_linear", "check_cyclic",
    "random_homogeneous",
]

# below this largest |entry| the transferred differential counts as zero,
# and the relation checks drop the terms it would enter
_M1_ZERO = 1e-10


def _amax(arr):
    arr = np.asarray(arr)
    return float(np.abs(arr).max()) if arr.size else 0.0


class DenseAlgebra:
    """Graded algebra with explicit structure constants.

    structure[i, j, k] is the coefficient of basis vector k in e_i e_j.
    Exposes the same product interface as the sheaf complex so the
    transfer engine also runs on small hand-built examples.
    """

    def __init__(self, structure, degrees):
        self.structure = np.asarray(structure, dtype=complex)
        self.degrees = np.asarray(degrees, dtype=int)
        self.dim = self.structure.shape[0]

    def product_apply(self, x, y):
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        if x.ndim == 1 and y.ndim == 1:
            return np.einsum("ijk,i,j->k", self.structure, x, y)
        # matrix coefficients multiply in argument order
        return np.einsum("ijk,ipq,jqr->kpr", self.structure, x, y,
                         optimize=True)

    def product_batch(self, X, Y):
        """Products of all row pairs of two `Stack`s, on the columns their
        slice of the structure tensor reaches."""
        S = self.structure[np.ix_(X.cols, Y.cols)]
        cols = np.flatnonzero(np.any(S, axis=(0, 1)))
        return Stack(np.einsum("ijk,mi,nj->mnk", S[:, :, cols], X.vals,
                               Y.vals, optimize=True), cols)

    def product_contract(self, X, Y, R):
        return np.einsum("ijk,mi,nj,rk->mnr",
                         self.structure[np.ix_(X.cols, Y.cols, R.cols)],
                         X.vals, Y.vals, R.vals, optimize=True)


def heisenberg_dga():
    """Eight dimensional exterior toy whose homotopy has rank one.

    Three odd generators with d(e3) = e1 e2 and H(e1 e2) = e3.  The
    product of the two surviving degree-1 classes is exact, so the
    arity-3 transferred operation is visible by hand.

    Returns (algebra, d, H, proj, degrees), with d, H and proj gathers.
    """
    masks, C = exterior_algebra(3)
    index = {m: i for i, m in enumerate(masks)}
    dim = 8
    degrees = np.array([bin(m).count("1") for m in masks])
    e3, e12 = index[0b100], index[0b011]
    d = Gather(dim, [e12], [e3], 1.0)      # d e3 = e1 e2
    H = Gather(dim, [e3], [e12], 1.0)
    keep = [i for i in range(dim) if i not in (e3, e12)]
    proj = Gather(dim, keep, keep, 1.0)
    return DenseAlgebra(C, degrees), d, H, proj, degrees


class Contraction:
    """Validated (i, p, H) retraction data over a product-bearing complex.

    d, H and the projector are `Gather`s, so the side conditions are
    checked entry by entry.  The projector must be diagonal with entries 0
    and 1 (every one built here is), so the inclusion picks basis vectors
    and p is its transpose.  Violated side conditions raise with the
    offending residual; pass the pairing's `Gather` to also check isotropy
    and graded self-adjointness of H, entry by entry through H's transpose
    (H has one nonzero per column).
    """

    def __init__(self, algebra, d, homotopy, proj, degrees, pairing=None,
                 tol=1e-8, label=""):
        self.algebra = algebra
        self.d, self.H, self.proj = d, homotopy, proj
        self.degrees = np.asarray(degrees, dtype=int)
        self.pairing = pairing
        self.label = label
        self.dim = self.d.shape[0]
        # the basis vectors the projector keeps; it must be diagonal 0/1
        P = self.proj
        diag = np.where(P.col == np.arange(self.dim), P.val.real, 0.0)
        off, idem = _amax(P.val - diag), _amax(diag * (1.0 - diag))
        if not (off < 1e-12 and idem < 1e-12):
            raise ValueError("projector is not a diagonal 0/1 matrix: "
                             "off-diagonal residual %.3e, idempotence "
                             "residual %.3e" % (off, idem))
        idx = self.harm_index = np.nonzero(diag > 0.5)[0]
        self.i_mat = np.zeros((self.dim, len(idx)))
        self.i_mat[idx, np.arange(len(idx))] = 1.0
        self.p_mat = self.i_mat.T.copy()
        self.nharm = len(idx)
        self.harm_degrees = self.degrees[idx]
        self._validate(tol)

    def _validate(self, tol):
        d, H, P = self.d, self.H, self.proj
        checks = {}
        checks["projector idempotent"] = support_max(
            lambda a, b: a - b, P @ P, P)
        checks["chain identity"] = chain_identity_residual(d, H, P)
        checks["homotopy squares to zero"] = support_max(abs, H @ H)
        checks["homotopy annihilates harmonics"] = support_max(abs, H @ P)
        checks["projector kills homotopy range"] = support_max(abs, P @ H)
        checks["inclusion splits projection"] = _amax(
            self.p_mat @ self.i_mat - np.eye(self.nharm))
        if self.pairing is not None:
            HtM, MH = H.T @ self.pairing, self.pairing @ H
            sgn = np.where(self.degrees % 2, -1.0, 1.0)
            checks["homotopy range isotropic"] = support_max(abs, HtM @ P)
            checks["homotopy self-adjoint"] = support_max(
                lambda a, b: a - b, HtM,
                Gather(self.dim, slice(None), MH.col, sgn * MH.val))
        self.side_conditions = checks
        for name, val in checks.items():
            if not val < tol:
                raise ValueError("side condition failed: %s residual %.3e"
                                 % (name, val))

    def perturbed(self, d2=None):
        """Leaf and root corrections for a second differential d2.

        In this chain-identity convention the homotopy enters the
        geometric series with a minus: psi = sum (-H d2)^k i and
        phi = sum p (-d2 H)^k, with m1 = phi (d + d2) psi.  The series
        must terminate within 8 terms, the next one below 1e-12;
        nilpotency is checked, not assumed.  Without d2 this is
        (i, p, p d i).
        """
        psi = self.i_mat.astype(complex)
        phi = self.p_mat.astype(complex)
        if d2 is None:
            return psi, phi, phi @ self.d @ psi
        d2 = np.asarray(d2, dtype=complex)
        def series(out, step, name):
            term = out
            for _ in range(8):
                term = step(term)
                if np.abs(term).max() < 1e-12:
                    return out
                out = out + term
            raise ValueError("%s series did not terminate" % name)
        psi = series(psi, lambda t: -(self.H @ (d2 @ t)), "homotopy-d2")
        phi = series(phi, lambda t: -((t @ d2) @ self.H), "d2-homotopy")
        m1 = (phi @ self.d + phi @ d2) @ psi
        return psi, phi, m1


def build_contraction(source, tol=1e-8):
    """Contraction of the sheaf complex onto its harmonics."""
    pairing = None if source.extended else source.pairing_matrix().matrix
    return Contraction(source, source.dbar, source.hom, source.proj,
                       source.space.reduced_degrees(),
                       pairing=pairing, tol=tol,
                       label="sheaf L=%d%s" % (
                           source.truncation,
                           " ext" if source.extended else ""))


# -- planar recursion -------------------------------------------------------

def lambda_oracle(algebra, H, vectors, degrees):
    """Recursive reference evaluation of lam_n on explicit vectors.

    Slow and direct; exists to cross-check the batched tensor build.
    degrees are those of the raw inputs (reduced parities suffice).
    """
    n = len(vectors)
    if n < 2:
        raise ValueError("arity at least 2")
    total = np.zeros(vectors[0].shape[0], dtype=complex)
    for s in range(1, n):
        t = n - s
        if s == 1:
            wl = -vectors[0]
        else:
            wl = H @ lambda_oracle(algebra, H, vectors[:s], degrees[:s])
        if t == 1:
            wr = -vectors[-1]
        else:
            wr = H @ lambda_oracle(algebra, H, vectors[s:], degrees[s:])
        kap = 1.0
        if t % 2 == 0 and sum(degrees[:s]) % 2:
            kap = -1.0
        total = total + ((-1.0) ** (s + 1)) * kap * algebra.product_apply(
            wl, wr)
    return total


class Transferred:
    """Transferred operations over the harmonic basis.

    m1 is the matrix of the transferred differential (output index first).
    Each m_n, n >= 2, is held as its support: support[n] is the pair
    (index tuple, values), the exact nonzero entries of the tensor with
    axes (a_1 .. a_n, out) in `np.nonzero` (C) order.  bracket() is the
    graded antisymmetrization over that support, accepting scalar vectors
    (nh,) or matrix valued elements (nh, k, k), each homogeneous; dense(n)
    assembles the whole tensor for the checks that contract it.
    """

    def __init__(self, m1, support, degrees, con):
        self.m1 = m1
        self.support = support
        self.degrees = np.asarray(degrees, dtype=int)
        self.con = con
        self.nharm = len(self.degrees)

    @property
    def max_arity(self):
        return max(self.support)

    def dense(self, n):
        """m_n assembled dense from its support, kept by no one."""
        if n == 1:
            return self.m1
        out = np.zeros((self.nharm,) * (n + 1), dtype=complex)
        out[self.support[n][0]] = self.support[n][1]
        return out

    def element_degree(self, x):
        sup = np.nonzero(np.abs(np.asarray(x).reshape(self.nharm, -1)
                                ).max(axis=1) > 0)[0]
        if len(sup) == 0:
            return 0
        degs = set(self.degrees[sup].tolist())
        if len(degs) > 1:
            raise ValueError("inhomogeneous element, degrees %s"
                             % sorted(degs))
        return degs.pop()

    def bracket(self, xs):
        xs = [np.asarray(x, dtype=complex) for x in xs]
        n = len(xs)
        if n == 1:
            return np.einsum("ba,a...->b...", self.m1, xs[0])
        if n not in self.support:
            raise ValueError("no arity %d operation built" % n)
        degs = [self.element_degree(x) for x in xs]
        idx, vals = self.support[n]
        # a scalar argument is a multiple of the k x k identity (k = 1
        # when every argument is scalar); matrix coefficients multiply
        # left to right in argument order
        matrix = [x for x in xs if x.ndim > 1]
        k = matrix[0].shape[1] if matrix else 1
        mats = [x if x.ndim > 1 else x[:, None, None] * np.eye(k)
                for x in xs]
        total = 0
        for perm in permutations(range(n)):
            total = total + koszul_sign_permutation(perm, degs) * reduce(
                np.matmul, [mats[t][idx[a]] for a, t in enumerate(perm)])
        out = np.zeros((self.nharm, k, k), dtype=complex)
        np.add.at(out, idx[n], vals[:, None, None] * total)
        return out if matrix else out[:, 0, 0]


def transfer(con, max_arity=4, d2=None):
    """Transferred operations m_1 .. m_max on the harmonic space.

    With d2 set, leaves and root use the corrected inclusion and
    projection; the interior recursion is untouched.
    """
    if not 2 <= max_arity <= 4:
        raise ValueError("tensor build supports arities 2..4")
    alg = con.algebra
    if alg is None:
        raise ValueError("contraction carries no product")
    nh, dim = con.nharm, con.dim
    psi, P, m1 = con.perturbed(d2)            # leaf columns, root rows
    H, kap1 = con.H, np.where(con.harm_degrees % 2, -1.0, 1.0)
    R = Stack.of(P)

    def at(cols, S):
        # position of each column in the stack S, -1 where S has none
        pos = np.full(dim, -1)
        pos[S.cols] = np.arange(len(S.cols))
        return pos[cols]

    def hom(ids, S):
        # H on each row of a stack: column H.col[e] moves to e, times H.val;
        # the rows it sends to zero are dropped
        src = at(H.col, S)
        e = np.flatnonzero((src >= 0) & (H.val != 0))
        vals = S.vals[:, src[e]] * H.val[e]
        keep = np.any(vals, axis=1)
        return ids[keep], Stack(vals[keep], e)

    def root(S):
        # the root rows on the stack's columns; the plain root is the pick
        # of the harmonic coordinates
        pos = at(S.cols, R)
        return S.vals[..., pos >= 0] @ R.vals[:, pos[pos >= 0]].T

    def entries(ids, block):
        # an (rows, out) block's nonzero entries by flat id, in one column
        r, o = np.nonzero(block)
        return ids[r] * nh + o, Stack(block[r, o][:, None], np.zeros(1, int))

    def total(parts):
        # the splits summed in order on the union of their rows and columns;
        # a split without a row adds nothing, as its exact zero would
        ids = reduce(np.union1d, [i for i, _ in parts])
        cols = reduce(np.union1d, [S.cols for _, S in parts])
        out = np.zeros((len(ids), len(cols)), dtype=complex)
        for i, S in parts:
            out[np.ix_(np.searchsorted(ids, i),
                       np.searchsorted(cols, S.cols))] += S.vals
        return ids, Stack(out, cols)

    # H lam_s on its nonzero rows, by flat row id; the leaves at s = 1
    W = {1: (np.arange(nh), Stack.of(-psi.T))}
    support = {}
    for n in range(2, max_arity + 1):
        parts = []
        # the order the dense reference sums in: s = 1, n - 1, 2 .. n - 2
        for s in dict.fromkeys([1, n - 1, *range(2, n - 1)]):
            t = n - s
            (ids, X), (jds, Y) = W[s], W[t]
            # (-1)**(s+1) mu(H lam_s, H lam_t), with the Koszul sign of an
            # even H lam_t past the first s inputs; +-1 on the rows is exact
            f = np.full(len(ids), (-1.0) ** (s + 1))
            if t % 2 == 0:
                for a in np.unravel_index(ids, (nh,) * s):
                    f *= kap1[a]
            X = X._replace(vals=X.vals * f[:, None])
            rows = (ids[:, None] * nh ** t + jds).ravel()
            if n < max_arity:
                parts.append((rows, alg.product_batch(X, Y).flat()))
            else:
                # each split cut to its nonzero entries before the next
                parts.append(entries(rows, alg.product_contract(
                    X, Y, R).reshape(len(rows), nh)))
        ids, lam = total(parts)
        if n < max_arity:
            W[n] = hom(ids, lam)
            ids, lam = entries(ids, root(lam))
        keep = lam.vals[:, 0] != 0        # the top arity's splits may cancel
        support[n] = (np.unravel_index(ids[keep], (nh,) * (n + 1)),
                      lam.vals[keep, 0])
    return Transferred(m1, support, con.harm_degrees, con)


# -- consistency checks -----------------------------------------------------

def _pair_value(P, x, y):
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        return np.einsum("ab,a,b->", P, x, y)
    return np.einsum("ab,aij,bji->", P, x, y)


def harmonic_pairing(con):
    """Pairing matrix restricted to the harmonic basis."""
    if con.pairing is None:
        raise ValueError("contraction carries no pairing")
    return con.p_mat @ (con.pairing @ con.i_mat)


def random_homogeneous(degrees, rng, r, rank=None):
    """Random element supported on the degree-r part of the basis."""
    degrees = np.asarray(degrees)
    sel = degrees == r
    if rank is None:
        x = np.zeros(len(degrees), dtype=complex)
        x[sel] = rng.standard_normal(sel.sum())
        return x
    x = np.zeros((len(degrees), rank, rank), dtype=complex)
    x[sel] = rng.standard_normal((sel.sum(), rank, rank))
    return x


def check_ainfinity(tb, through_arity=4):
    """Residuals of the associativity-tower identities on the tensors,
    each assembled dense once from its support.

    Relation at arity n sums (-1)**(r + s*t) times the inner operation in
    slots r+1..r+s, with the evaluation sign (-1)**(s * sum of the first r
    degrees).  Arity 5 is available when the transferred differential
    vanishes, which kills the terms that would need the arity-5 tensor.
    """
    nh, kap = tb.nharm, np.where(tb.degrees % 2, -1.0, 1.0)
    m1_norm = float(np.abs(tb.m1).max())
    built = tb.max_arity
    # m_1 with its input axis first, like the others
    m = {s: tb.dense(s) for s in range(2, built + 1)} | {1: tb.m1.T}
    out = {}
    letters = "abcdefg"
    for n in range(1, through_arity + 1):
        if n == 1:
            out[1] = m1_norm if m1_norm < _M1_ZERO else float(
                np.abs(tb.m1 @ tb.m1).max())
            continue
        acc, scale, skipped = None, 0.0, False
        for s in range(1, n + 1):
            outer_ar = n - s + 1
            if s > built or outer_ar > built:
                if m1_norm < _M1_ZERO and (s == 1 or outer_ar == 1):
                    continue        # term vanishes with m_1
                skipped = True
                break
            for r in range(0, n - s + 1):
                # outer over (head, u, tail, out), inner over (middle, u)
                term = np.einsum("%su%sz,%su->%sz" % (
                    letters[:r], letters[r + s:n], letters[r:r + s],
                    letters[:n]), m[outer_ar], m[s], optimize=True)
                sgn = (-1.0) ** (r + s * (n - s - r))
                if r > 0 and s % 2:
                    sgn = sgn * reduce(np.multiply.outer, [kap] * r).reshape(
                        (nh,) * r + (1,) * (n + 1 - r))
                term = sgn * term
                scale = max(scale, float(np.abs(term).max()))
                acc = term if acc is None else acc + term
        if skipped:
            out[n] = None
        elif acc is None:
            out[n] = 0.0
        else:
            out[n] = float(np.abs(acc).max()) / max(scale, 1e-30)
    return out


def check_linfty_relations(tb, rng, max_arity=4, samples=2, rank=None,
                           degrees=None):
    """Generalized Jacobi residuals on random homogeneous probes.

    Relation at arity n:
      sum over i+j = n+1 and (i, n-i) unshuffles of
        chi(sigma) (-1)**(i (j-1)) l_j(l_i(x_sig(1..i)), x_sig(i+1..n)).

    Arities above the built tensors are allowed only when the transferred
    differential vanishes, which removes the terms that would need them.
    Probe degrees are drawn at random unless a fixed tuple is supplied.
    Returns per-arity relative residuals (worst over samples).
    """
    degs_avail = sorted(set(tb.degrees.tolist()))
    m1_norm = float(np.abs(tb.m1).max())
    out = {}
    for n in range(2, max_arity + 1):
        worst = 0.0
        for _ in range(samples):
            if degrees is not None:
                rs = [degrees[t % len(degrees)] for t in range(n)]
            else:
                rs = [degs_avail[rng.integers(len(degs_avail))]
                      for _ in range(n)]
            xs = [random_homogeneous(tb.degrees, rng, r, rank) for r in rs]
            acc, scale = None, 0.0
            for i in range(1, n + 1):
                j = n + 1 - i
                if i > tb.max_arity or j > tb.max_arity:
                    if m1_norm < _M1_ZERO and (i == 1 or j == 1):
                        continue
                    raise ValueError(
                        "arity %d relation needs unbuilt operations" % n)
                for comb in combinations(range(n), i):
                    rest = [t for t in range(n) if t not in comb]
                    perm = tuple(comb) + tuple(rest)
                    chi = koszul_sign_permutation(perm, rs)
                    if (i * (j - 1)) % 2:
                        chi = -chi
                    inner = tb.bracket([xs[t] for t in comb])
                    term = chi * tb.bracket([inner] + [xs[t] for t in rest])
                    scale = max(scale, float(np.abs(term).max()))
                    acc = term if acc is None else acc + term
            if acc is not None:
                worst = max(worst, float(np.abs(acc).max())
                            / max(scale, 1e-30))
        out[n] = worst
    return out


def quasi_iso_linear(con, d2=None):
    """Linear piece of the quasi-isomorphism onto harmonics.

    Returns the corrected inclusion, its cochain residual against the
    transferred differential, and the rank bookkeeping showing the induced
    map on cohomology is an isomorphism.
    """
    psi, _, m1 = con.perturbed(d2)
    # the rank counts need d dense; they run over its nonzero components
    dtot = con.d.dense() + (0 if d2 is None else np.asarray(d2))
    cochain = _amax(dtot @ psi - psi @ m1)
    rk_d = rank_by_components(dtot, 1e-8)[0]
    rk_1 = induced = 0
    if con.nharm:
        # rank and null space of m1 at one cut, 1e-10 of the largest
        # singular value (scipy's rule)
        _, s, vh = np.linalg.svd(m1)
        rk_1 = int(np.sum(s > 1e-10 * s.max()))
        ker = vh[rk_1:].conj().T
        stacked = np.hstack([dtot, psi @ ker])
        induced = rank_by_components(stacked, 1e-8)[0] - rk_d
    dim_h_target = con.dim - 2 * rk_d
    dim_h_source = con.nharm - 2 * rk_1
    return {
        "psi": psi, "m1": m1, "cochain_residual": cochain,
        "dim_h_source": int(dim_h_source),
        "dim_h_target": int(dim_h_target),
        "induced_rank": int(induced),
        "isomorphism": bool(induced == dim_h_source == dim_h_target),
    }


def check_cyclic(tb, pairing_h, rng, arities=(2, 3, 4), samples=3,
                 rank=None):
    """Rotation invariance of omega(x0, l_n(x1..xn)) with Koszul signs.

    Rotating the last argument to the front multiplies the value by
    (-1)**n times the Koszul sign of that move.  Returns the worst
    relative mismatch per arity.
    """
    degs_avail = sorted(set(tb.degrees.tolist()))
    out = {}
    for n in arities:
        worst = 0.0
        for _ in range(samples):
            rs = [degs_avail[rng.integers(len(degs_avail))]
                  for _ in range(n + 1)]
            xs = [random_homogeneous(tb.degrees, rng, r, rank) for r in rs]
            base = _pair_value(pairing_h, xs[0], tb.bracket(xs[1:]))
            rot = _pair_value(pairing_h, xs[-1],
                              tb.bracket([xs[0]] + xs[1:-1]))
            expo = n + rs[-1] * sum(rs[:-1])
            pred = rot if expo % 2 == 0 else -rot
            scale = max(abs(base), abs(rot), 1e-30)
            worst = max(worst, abs(base - pred) / scale)
        out[n] = worst
    return out
