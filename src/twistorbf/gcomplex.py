"""Truncated Dolbeault complex of the structured bundle family.

The complex is generated by an odd doublet of twist-1 sections over the
structure sheaf plus the same shape tensored by the degree -4 ideal line:
eight spectral blocks with twists (-4, -3, -3, -2, 0, 1, 1, 2), the
multiplicity-2 blocks carrying a doublet index.  The extended variant
replaces each odd generator column by its two-term tautological resolution
(a twist -1 block mapping into a doublet-of-sections block), adding a
homological differential d_iota and a quotient map eps back onto the plain
complex.

Truncation rule: on the plain complex a block keeps L spectral levels,
minus one on the ideal side; that offset is forced by nondegeneracy of the
trace pairing.  On the extended complex the resolution columns instead
keep (L-1, L) levels over the structure sheaf and (L-2-h, L-2) resp.
(L-3-h, L-3) levels on the ideal side (h = 1 in homological index -1).
These offsets are the unique choice for which the tautological inclusion
stays inside the truncation (its components occupy neighbouring spectral
spins) while each short sequence remains exact level by level.

Every chart function is a radial profile times e^{i w theta}, with w its
torus weight (`RadialFun.weight`).  Integrated over the angle, a product
of chart functions therefore vanishes unless the weights balance, and
otherwise leaves one radial Gauss sum.  Every integral the complex takes
(structure constants of the product, the projections of the tautological
maps, the trace and the pairing) is computed that way, by `_radial_sum`
on a radial rule that is exact for the closed radial family, so they carry
only roundoff error.  The 2-D quadrature grid (`GComplex.grid`) is kept
for the bv module, which multiplies fields pointwise on it.

The product wiring table (`GComplex.wiring`, built once per complex) is
the one place that decides which pairs of block pieces multiply, into
which piece, with what Koszul sign and what multiplicity tensor.  Every
product path reads it: single, batched and contracted coefficient
products, left multiplication operators, the trace pairing, and the grid
products of the bv module.

Linear operators are stored as their nonzero blocks, keyed by (target
piece, source piece): dbar, the homotopy H and the harmonic projector P as
one kron(I_mult, model operator) block per block piece, the insertion
d_iota and the quotient map eps as the dense blocks of the tautological
sequences.  The dense n x n forms (`dbar_full`, `hom_full`, `proj_full`,
`d_iota_full`, `d_iota_signed`, `eps_matrix`) are assembled on first
access and then cached.

All caches are per-instance, the line bundle models included (an extended
complex shares its models with its quotient), and filled lazily; instances
are immutable after construction.
"""

from __future__ import annotations

import functools

import numpy as np

from .graded import BiDegree, BigradedSpace, Pairing
from .radial import RadialGrid, SphereGrid
from .sphere import build_model

EPS_PLUS = np.array([[0.0, 1.0], [-1.0, 0.0]])

# E_a v E_b in the basis (S11, S12, S22) of the symmetric square
VEE = np.zeros((2, 2, 3))
VEE[0, 0, 0] = 1.0
VEE[0, 1, 1] = 1.0
VEE[1, 0, 1] = 1.0
VEE[1, 1, 2] = 1.0

_O_BASE = (BiDegree(0, 0), BiDegree(3, 2), BiDegree(6, 4))


class GBlock:
    """One spectral block: a line bundle model with a multiplicity factor."""

    def __init__(self, part, ext, hom, model, mult, mult_label):
        self.part = part            # "o" or "w" (the ideal side)
        self.ext = ext              # exterior degree 0, 1, 2
        self.hom = hom              # homological index 0 or -1
        self.twist = model.n
        self.mult = mult
        self.mult_label = mult_label
        self.levels = model.levels
        self.model = model
        self.zero_multiplication = part == "w"
        bid = _O_BASE[ext]
        if part == "w":
            bid = bid + BiDegree(4, 4)
        if hom == -1:
            bid = bid + BiDegree(-1, 0)
        self.bidegree = bid

    def dim(self, degree):
        return self.mult * self.model.dim(degree)

    def __repr__(self):
        return ("GBlock(%s, ext=%d, hom=%d, twist=%d, mult=%d, levels=%d)"
                % (self.part, self.ext, self.hom, self.twist, self.mult,
                   self.levels))


def _block_specs(extended):
    # (ext, hom, twist offset from the part base, mult, label)
    if not extended:
        return [(0, 0, 0, 1, "scalar"),
                (1, 0, 1, 2, "wplus"),
                (2, 0, 2, 1, "scalar")]
    return [(0, 0, 0, 1, "scalar"),
            (1, -1, -1, 2, "wplus"),
            (1, 0, 0, 4, "wpw"),
            (2, -1, -1, 2, "wminus"),
            (2, 0, 0, 3, "sym2")]


# The maps of the tautological sequences, one entry per resolution column:
# (map, ext, pattern).  "iota" sends the column (ext, hom -1) into
# (ext, hom 0); "eps" sends (ext, hom 0) onto the quotient's ext block.  A
# pattern entry (target mult, source mult, factor, negate) places the
# projection of the source values times a radial factor; factor None is the
# exact identity of a marker.  iota lands inside the truncation, so its
# projections are checked for leakage; eps truncates by design.
#   iota, ext 1:  f w -> (f, zf) w, the doublet index riding along
#   iota, ext 2:  f E1 -> f S11 + zf S12, f E2 -> f S12 + zf S22, with the
#                 top-degree column sign that makes the insertion a left
#                 derivation for the product
_RESOLUTION = (
    ("iota", 1, [(2 * al + a, al, ("1", "z")[a], False)
                 for al in range(2) for a in range(2)]),
    ("iota", 2, [(0, 0, "1", True), (1, 0, "z", True),
                 (1, 1, "1", True), (2, 1, "z", True)]),
    ("eps", 0, [(0, 0, None, False)]),
    ("eps", 1, [(al, 2 * al + a, ("-z", "1")[a], False)
                for al in range(2) for a in range(2)]),
    ("eps", 2, [(0, 0, "zz", False), (0, 1, "-z/D", False),
                (0, 2, "1/D", False)]),
)


def _mult_tensor(lx, ly):
    """Multiplicity contraction for a block pair, or None if no product.

    Conventions: the doublet wedge contracts with the symplectic EPS_PLUS;
    a doublet-of-sections pair symmetrizes its second indices; a resolution
    block keeps its own index and eats the symplectic contraction.  Index
    (alpha, a) of the 4-dimensional label is flattened as 2*alpha + a.
    """
    def scalar_left(m):
        t = np.zeros((1, m, m))
        t[0] = np.eye(m)
        return t

    def scalar_right(m):
        t = np.zeros((m, 1, m))
        t[:, 0] = np.eye(m)
        return t

    dims = {"scalar": 1, "wplus": 2, "wpw": 4, "wminus": 2, "sym2": 3}
    if lx == "scalar":
        return scalar_left(dims[ly])
    if ly == "scalar":
        return scalar_right(dims[lx])
    if (lx, ly) == ("wplus", "wplus"):
        return EPS_PLUS[:, :, None].copy()
    if (lx, ly) == ("wpw", "wpw"):
        t = np.zeros((4, 4, 3))
        for al in range(2):
            for a in range(2):
                for be in range(2):
                    for b in range(2):
                        t[2 * al + a, 2 * be + b] = (EPS_PLUS[al, be]
                                                     * VEE[a, b])
        return t
    if (lx, ly) == ("wplus", "wpw"):
        t = np.zeros((2, 4, 2))
        for al in range(2):
            for be in range(2):
                for b in range(2):
                    t[al, 2 * be + b, b] = EPS_PLUS[al, be]
        return t
    if (lx, ly) == ("wpw", "wplus"):
        t = np.zeros((4, 2, 2))
        for al in range(2):
            for a in range(2):
                for be in range(2):
                    t[2 * al + a, be, a] = EPS_PLUS[al, be]
        return t
    return None


def _weight_classes(weights):
    return {w: np.nonzero(weights == w)[0] for w in np.unique(weights)}


def _radial_sum(x, y, t, wfac):
    """Integrals of x_i y_j conj(t_k) over the plane: shape (nx, ny, nt).

    x, y and t are (profiles, torus weights) pairs, profiles shaped
    (nfun, nodes) on a radial rule whose dx dy weights (times any metric
    factor) are wfac.  The angular integral of e^{i (w_i + w_j - w_k)
    theta} is 2 pi, already in wfac, when w_i + w_j = w_k and 0 otherwise,
    so only the index triples that obey this weight rule are summed.
    """
    (vx, wx), (vy, wy), (vt, wt) = x, y, t
    tc = np.conj(vt) * wfac
    out = np.zeros((len(wx), len(wy), len(wt)), dtype=complex)
    cls_t = _weight_classes(wt)
    for a, ix in _weight_classes(wx).items():
        for b, iy in _weight_classes(wy).items():
            it = cls_t.get(a + b)
            if it is None:
                continue
            p = (vx[ix, None, :] * vy[None, iy, :]).reshape(-1, tc.shape[1])
            out[np.ix_(ix, iy, it)] = (p @ tc[it].T).reshape(
                len(ix), len(iy), len(it))
    return out


class GComplex:
    """The truncated complex with its differentials, trace and products."""

    def __init__(self, truncation=12, extended=False, grid=None):
        if truncation < 2:
            raise ValueError("truncation too small")
        self.truncation = int(truncation)
        self.extended = bool(extended)
        self.grid = grid if grid is not None else SphereGrid(48, 96)
        if extended and truncation < 5:
            raise ValueError("the extended complex needs truncation >= 5")
        # line bundle models by (twist, levels); the extended complex
        # shares them and the radial rule with its quotient, which sees the
        # same grid, so the models' value caches serve both
        if extended:
            self.quotient = GComplex(truncation, extended=False,
                                     grid=self.grid)
            self.models = self.quotient.models
            self.radial = self.quotient.radial
        else:
            self.models = {}
            self.radial = RadialGrid(self.grid.n_radial)
        # the constant function of weight 0, the y or t factor of the
        # integrals that multiply fewer than three chart functions
        self._unit = (np.ones((1, self.radial.n_nodes)), np.zeros(1, int))
        self.blocks = []
        for part in ("w", "o"):
            base = -4 if part == "w" else 0
            for ext, hom, dt, mult, label in _block_specs(extended):
                model = self._model(base + dt, self._levels(part, ext, hom))
                self.blocks.append(GBlock(part, ext, hom, model, mult, label))
        self._layout()
        self.trace_block = self._find_block(ext=2, hom=0, part="w")
        self.trace_weights = 2.0j * self.grid.w / self.grid.D ** 2
        self._radial_trace = 2.0j * self.radial.w / self.radial.D ** 2
        self._build_linear_maps()
        self._check_layout()
        self._build_wiring()
        self._fun_cache = {}
        self._pairing = None
        if extended:
            self._build_resolution_maps()

    def _model(self, n, levels):
        key = (n, levels)
        if key not in self.models:
            self.models[key] = build_model(n, levels)
        return self.models[key]

    def _levels(self, part, ext, hom):
        L = self.truncation
        h = 1 if hom == -1 else 0
        if part == "o":
            return L - h if self.extended else L
        if not self.extended or ext == 0:
            return L - 1
        return L - 1 - ext - h

    def _check_layout(self):
        for b in self.blocks:
            if b.levels < 1:
                raise RuntimeError("empty block %r" % b)

    # -- layout -----------------------------------------------------------

    def _layout(self):
        labels, degrees = [], []
        self.offsets = {}
        pos = 0
        for bi, b in enumerate(self.blocks):
            for q in (0, 1):
                self.offsets[(bi, q)] = pos
                sub = b.model.space0 if q == 0 else b.model.space1
                for m in range(b.mult):
                    for lab in sub.labels:
                        labels.append("b%d.q%d.m%d.%s" % (bi, q, m, lab))
                        degrees.append(b.bidegree + BiDegree(q, 0))
                pos += b.dim(q)
        self.dim = pos
        self.space = BigradedSpace(labels, degrees)

    def block_slice(self, bi, q):
        start = self.offsets[(bi, q)]
        return slice(start, start + self.blocks[bi].dim(q))

    def piece(self, x, bi, q):
        """View of a full vector on one block piece, shaped (mult, nfun, ...)."""
        b = self.blocks[bi]
        seg = x[self.block_slice(bi, q)]
        return seg.reshape((b.mult, b.model.dim(q)) + x.shape[1:])

    # -- linear structure -------------------------------------------------

    def _build_linear_maps(self):
        self.dbar_blocks, self.hom_blocks, self.proj_blocks = {}, {}, {}
        harm = []
        for bi, b in enumerate(self.blocks):
            eye = np.eye(b.mult)
            p0, p1 = (bi, 0), (bi, 1)
            self.dbar_blocks[(p1, p0)] = np.kron(eye, b.model.dbar_mat)
            self.hom_blocks[(p0, p1)] = np.kron(eye, b.model.hom_mat)
            self.proj_blocks[(p0, p0)] = np.kron(eye, b.model.proj0_mat)
            self.proj_blocks[(p1, p1)] = np.kron(eye, b.model.proj1_mat)
            for q in (0, 1):
                diag = np.tile(np.diag(b.model.projector_mat(q)), b.mult)
                harm.append(self.offsets[(bi, q)] + np.nonzero(diag > 0.5)[0])
        self.harmonic_indices = np.concatenate(harm).astype(int)
        self.n_harmonic = len(self.harmonic_indices)
        # trace: integral of the ideal-side top form component
        self.trace_vector = np.zeros(self.dim, dtype=complex)
        b = self.blocks[self.trace_block]
        prof, _ = self._profiles(b.model, 1)
        weights = _radial_sum(prof, self._unit, self._unit,
                              self._radial_trace)[:, 0, 0]
        self.trace_vector[self.block_slice(self.trace_block, 1)] = np.tile(
            weights, b.mult)

    def _profiles(self, model, q):
        """(profiles, torus weights) of a model's degree-q basis on the
        radial rule, and the rule's projection weights for degree q."""
        vals, wfac = model.grid_data(self.radial, q)
        weights = np.array([f.weight for f in model.funs(q)], dtype=int)
        return (vals, weights), wfac

    def _dense(self, blocks, rows=None):
        """Dense matrix of a block operator; rows index the layout of
        `rows` (default: this complex), columns this complex."""
        rows = self if rows is None else rows
        out = np.zeros((rows.dim, self.dim),
                       dtype=np.result_type(*blocks.values()))
        for ((bt, qt), (bs, qs)), blk in blocks.items():
            out[rows.block_slice(bt, qt), self.block_slice(bs, qs)] = blk
        return out

    @functools.cached_property
    def dbar_full(self):
        return self._dense(self.dbar_blocks)

    @functools.cached_property
    def hom_full(self):
        return self._dense(self.hom_blocks)

    @functools.cached_property
    def proj_full(self):
        return self._dense(self.proj_blocks)

    @functools.cached_property
    def d_iota_full(self):
        return self._dense(self.iota_blocks)

    @functools.cached_property
    def d_iota_signed(self):
        # the sign twist by form degree makes d_iota anticommute with dbar
        return self._dense({(t, s): -blk if s[1] == 1 else blk
                            for (t, s), blk in self.iota_blocks.items()})

    @functools.cached_property
    def eps_matrix(self):
        return self._dense(self.eps_blocks, rows=self.quotient)

    def _find_block(self, ext, hom, part):
        for bi, b in enumerate(self.blocks):
            if (b.ext, b.hom, b.part) == (ext, hom, part):
                return bi
        raise KeyError((ext, hom, part))

    def trace(self, x):
        return self.trace_vector @ np.asarray(x)

    # -- products ---------------------------------------------------------

    def _build_wiring(self):
        """The product wiring table: which block pieces multiply, and how.

        One term (bx, qx, by, qy, bt, qt, sign, mt) for every pair of
        pieces with a nonzero product: piece (bx, qx) times piece (by, qy)
        lands in piece (bt, qt) with the Koszul sign and the multiplicity
        tensor mt of shape (mult_x, mult_y, mult_t).  Function tensors are
        not held here; _fun_tensor builds them on first use.
        """
        self.wiring = []
        for bx, x in enumerate(self.blocks):
            for qx in (0, 1):
                for by, y in enumerate(self.blocks):
                    if x.part == "w" and y.part == "w":
                        continue
                    part = "w" if "w" in (x.part, y.part) else "o"
                    try:
                        bt = self._find_block(x.ext + y.ext, x.hom + y.hom,
                                              part)
                    except KeyError:
                        continue
                    mt = _mult_tensor(x.mult_label, y.mult_label)
                    if mt is None:
                        continue
                    if mt.shape[2] != self.blocks[bt].mult:
                        raise RuntimeError("multiplicity wiring error")
                    # Koszul factor from moving the second factor's
                    # antiholomorphic frame past the first factor's
                    # generator content, plus the first factor's suspension
                    # crossing the second factor; together with the column
                    # sign inside d_iota this is the convention under which
                    # the product is graded commutative and both
                    # differentials are left derivations (fitted once
                    # against direct expansions, then frozen).
                    hx = 1 if x.hom == -1 else 0
                    for qy in range(2 - qx):    # two (0,1)-forms: zero
                        expo = hx * (y.ext + qy) + qy * x.ext
                        sign = -1.0 if expo % 2 else 1.0
                        self.wiring.append((bx, qx, by, qy, bt, qx + qy,
                                            sign, mt))

    def _fun_tensor(self, term):
        """Products of a term's basis functions, projected onto the target
        basis: shape (nfun_x, nfun_y, nfun_t)."""
        bx, qx, by, qy, bt, qt = term[:6]
        mx = self.blocks[bx].model
        my = self.blocks[by].model
        mt = self.blocks[bt].model
        key = (mx.n, mx.levels, qx, my.n, my.levels, qy, mt.n, mt.levels, qt)
        if key in self._fun_cache:
            return self._fun_cache[key]
        px, _ = self._profiles(mx, qx)
        py, _ = self._profiles(my, qy)
        pt, wfac = self._profiles(mt, qt)
        out = _radial_sum(px, py, pt, wfac)
        self._fun_cache[key] = out
        return out

    def _rows(self, X, bi, q):
        """Rows of a stack on one block piece, shaped (rows, mult, nfun)."""
        return X[:, self.block_slice(bi, q)].reshape(
            X.shape[0], self.blocks[bi].mult, -1)

    def product_apply(self, x, y):
        """Pointwise product of two full vectors, projected to the complex.

        Accepts plain vectors (dim,) or matrix-valued ones (dim, k, k); for
        the latter the coefficients are multiplied as matrices in order.
        """
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        if x.ndim == 1:
            return self.product_batch(x[None], y[None])[0, 0]
        # (x y)[:, p, r] sums, over the inner index q, the batch of rows
        # x[:, p, q] times rows y[:, q, r]
        out = np.zeros(x.shape, dtype=complex)
        for q in range(x.shape[-1]):
            z = self.product_batch(x[:, :, q].T, y[:, q, :].T)
            out += np.moveaxis(z, 2, 0)
        return out

    def product_batch(self, X, Y):
        """Products of all row pairs: (m, dim) x (n, dim) -> (m, n, dim)."""
        X = np.asarray(X, dtype=complex)
        Y = np.asarray(Y, dtype=complex)
        out = np.zeros((X.shape[0], Y.shape[0], self.dim), dtype=complex)
        for term in self.wiring:
            bx, qx, by, qy, bt, qt, sgn, mt = term
            xs = self._rows(X, bx, qx)
            ys = self._rows(Y, by, qy)
            if not np.any(xs) or not np.any(ys):
                continue
            z = np.einsum("xyt,amx,bny,mnc->abct", self._fun_tensor(term),
                          xs, ys, mt, optimize=True)
            seg = out[:, :, self.block_slice(bt, qt)]
            seg += sgn * z.reshape(z.shape[0], z.shape[1], -1)
        return out

    def left_mult_operator(self, x):
        """Matrix of y -> x * y for a matrix-valued element x of shape
        (dim, k, k).

        Returns W of shape (dim, k, dim, k); the product is
        (x * y)[c, p, r] = sum_{n, q} W[c, p, n, q] y[n, q, r], so after
        reshaping W to (dim * k, dim * k) products become plain matmuls.
        Much cheaper than product_apply when one factor multiplies many
        partners.
        """
        x = np.asarray(x, dtype=complex)
        k = x.shape[-1]
        W = np.zeros((self.dim, k, self.dim, k), dtype=complex)
        for term in self.wiring:
            bx, qx, by, qy, bt, qt, sgn, mt = term
            xs = self.piece(x, bx, qx)
            if not np.any(xs):
                continue
            F = self._fun_tensor(term)
            nx, ny, nt = F.shape
            mlt = xs.shape[0]
            # contract the function tensor by matmul, then wire
            # multiplicities with a small einsum
            w1 = (xs.transpose(0, 2, 3, 1).reshape(-1, nx)
                  @ F.reshape(nx, ny * nt))
            w1 = w1.reshape(mlt, k, k, ny, nt)
            w = np.einsum("mnc,mpqyt->ctpnyq", mt, w1, optimize=True)
            st = self.block_slice(bt, qt)
            sy = self.block_slice(by, qy)
            W[st, :, sy] += sgn * w.reshape(st.stop - st.start, k,
                                            sy.stop - sy.start, k)
        return W

    def product_contract(self, X, Y, R):
        """R-projected pair products: einsum("mi,nj,ri->...") style.

        Returns (m, n, r) with entries R[r] . (X[m] * Y[n]) without ever
        materializing the full product vectors.
        """
        X = np.asarray(X, dtype=complex)
        Y = np.asarray(Y, dtype=complex)
        R = np.asarray(R, dtype=complex)
        out = np.zeros((X.shape[0], Y.shape[0], R.shape[0]), dtype=complex)
        for term in self.wiring:
            bx, qx, by, qy, bt, qt, sgn, mt = term
            xs = self._rows(X, bx, qx)
            ys = self._rows(Y, by, qy)
            rs = self._rows(R, bt, qt)
            if not (np.any(xs) and np.any(ys) and np.any(rs)):
                continue
            out += sgn * np.einsum("xyt,amx,bny,mnc,pct->abp",
                                   self._fun_tensor(term), xs, ys, mt, rs,
                                   optimize=True)
        return out

    def pairing_matrix(self):
        """Trace of the product on basis pairs; parity-3 odd pairing."""
        if self._pairing is not None:
            return self._pairing
        P = np.zeros((self.dim, self.dim), dtype=complex)
        for bx, qx, by, qy, bt, qt, sgn, mt in self.wiring:
            if bt != self.trace_block or qt != 1:
                continue
            px, _ = self._profiles(self.blocks[bx].model, qx)
            py, _ = self._profiles(self.blocks[by].model, qy)
            fp = _radial_sum(px, py, self._unit, self._radial_trace)[:, :, 0]
            P[self.block_slice(bx, qx),
              self.block_slice(by, qy)] += sgn * np.kron(mt.sum(axis=2), fp)
        self._pairing = Pairing(self.space, P, parity=3)
        return self._pairing

    # -- extended structure ----------------------------------------------

    @staticmethod
    def _project_values(src, factor, tgt, wfac, check):
        """Coefficients (n_tgt, n_src) of the source profiles times a
        factor, projected onto the target basis.  With check, raise if the
        products leave the target's span; the angular factor is unimodular,
        so the profiles' leak is the leak on the whole plane."""
        coeffs = _radial_sum(src, factor, tgt, wfac)[:, 0, :].T
        if check:
            values = src[0] * factor[0]
            rec = coeffs.T @ tgt[0]
            err = np.abs(rec - values).max()
            scale = max(np.abs(values).max(), 1.0)
            if err > 1e-9 * scale:
                raise RuntimeError("projection leaked: %.2e" % (err / scale))
        return coeffs

    def _build_resolution_maps(self):
        """Blocks of d_iota and eps, built from the _RESOLUTION table."""
        z, D = self.radial.z, self.radial.D
        rD = 1.0 / np.sqrt(D)
        # each factor as a (profile, torus weight) pair: z has weight 1
        factors = {f: (v[None], np.array([k])) for f, v, k in (
            ("1", rD, 0), ("z", z * rD, 1), ("-z", -z * rD, 1),
            ("zz", z * z / D, 2), ("-z/D", -z / D, 1), ("1/D", 1.0 / D, 0))}
        self.iota_blocks, self.eps_blocks = {}, {}
        for name, ext, pattern in _RESOLUTION:
            iota = name == "iota"
            target = self if iota else self.quotient
            out = self.iota_blocks if iota else self.eps_blocks
            for part in ("w", "o"):
                bs = self._find_block(ext, -1 if iota else 0, part)
                bt = target._find_block(ext, 0, part)
                src, tgt = self.blocks[bs], target.blocks[bt]
                for q in (0, 1):
                    ps, _ = self._profiles(src.model, q)
                    pt, wfac = self._profiles(tgt.model, q)
                    ds, dt = src.model.dim(q), tgt.model.dim(q)
                    coef = {f: self._project_values(ps, factors[f], pt, wfac,
                                                    iota)
                            for f in {e[2] for e in pattern} - {None}}
                    blk = np.zeros((tgt.mult, dt, src.mult, ds),
                                   dtype=complex)
                    for mt, ms, f, negate in pattern:
                        m = np.eye(ds) if f is None else coef[f]
                        blk[mt, :, ms, :] = -m if negate else m
                    out[((bt, q), (bs, q))] = blk.reshape(tgt.mult * dt,
                                                          src.mult * ds)

    # -- reports ----------------------------------------------------------

    def component_dims(self):
        """Dimensions per part and reduced degree of the full complex."""
        out = {"o": {}, "w": {}}
        for bi, b in enumerate(self.blocks):
            for q in (0, 1):
                r = (b.bidegree + BiDegree(q, 0)).reduced
                out[b.part][r] = out[b.part].get(r, 0) + b.dim(q)
        return out

    def exactness_report(self):
        """Rank identities of the tautological sequences, per column."""
        if not self.extended:
            raise RuntimeError("exactness needs the extended complex")
        rows = []
        for part in ("w", "o"):
            for ext in (1, 2):
                bs = self._find_block(ext, -1, part)
                bm = self._find_block(ext, 0, part)
                bq = self.quotient._find_block(ext, 0, part)
                for q in (0, 1):
                    i_blk = self.iota_blocks[((bm, q), (bs, q))]
                    e_blk = self.eps_blocks[((bq, q), (bm, q))]
                    ri = np.linalg.matrix_rank(i_blk, tol=1e-9)
                    re = np.linalg.matrix_rank(e_blk, tol=1e-9)
                    comp = np.abs(e_blk @ i_blk).max() if i_blk.size else 0.0
                    rows.append({
                        "part": part, "ext": ext, "degree": q,
                        "dim_source": i_blk.shape[1],
                        "dim_middle": i_blk.shape[0],
                        "dim_target": e_blk.shape[0],
                        "rank_iota": int(ri),
                        "rank_eps": int(re),
                        "compose_residual": float(comp),
                        "exact": bool(ri == i_blk.shape[1]
                                      and re == e_blk.shape[0]
                                      and ri + re == i_blk.shape[0]),
                    })
        return rows

    def random_vector(self, rng, max_level=None, matrix_rank=None):
        """Gaussian vector, optionally restricted to low spectral levels."""
        shape = (self.dim,) if matrix_rank is None else \
            (self.dim, matrix_rank, matrix_rank)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if max_level is not None:
            mask = np.zeros(self.dim)
            for bi, b in enumerate(self.blocks):
                lv0 = np.repeat(b.model.level0[None, :], b.mult, axis=0)
                lv1 = np.repeat(b.model.src_level1[None, :], b.mult, axis=0)
                mask[self.block_slice(bi, 0)] = (lv0 <= max_level).ravel()
                mask[self.block_slice(bi, 1)] = (lv1 <= max_level).ravel()
            x = (x.T * mask).T
        return x
