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
only roundoff error.  The rule's nodes lie on the positive real axis, where
every phase is 1, so the profiles are real arrays and so is every integral
but the trace's, whose weights are imaginary.  The rule has `N_RADIAL`
nodes; the bv module multiplies fields pointwise on a product rule of its
own, sized from the integrands it takes.

The product wiring table (`GComplex.wiring`, built once per complex) is
the one place that decides which pairs of block pieces multiply, into
which piece, with what Koszul sign and what multiplicity tensor.  Every
product path reads it: single, batched and contracted coefficient
products, the trace pairing, and the grid products of the bv module.  The
coefficient products run through one core (`_products`), on the support
of their inputs: batches of vectors travel as `graded.Stack`s (values on
a set of columns), and each wiring term contracts only the rows and basis
functions where its input pieces are nonzero, with a function tensor
built for exactly those functions and the target functions the weight
rule lets them reach.  No function tensor outlives the call that builds
it.

Linear operators are stored in the shape they have: dbar, the homotopy H
and the harmonic projector P as one `graded.Gather` each (`dbar`, `hom`,
`proj`: the models' gathers on every multiplicity copy) and the trace
pairing (Serre duality pairs each basis vector with one other), the
insertion d_iota and the quotient map eps as the dense blocks of the
tautological sequences, keyed by (target piece, source piece): real
float64 arrays, like the dense `d_iota_signed` and `eps_matrix` assembled
from them.  The d_iota blocks carry the form-degree sign that makes d_iota
anticommute with dbar, and `insertion` applies them block by block.
`exactness_report` ranks each block over the connected components of its
nonzero pattern, whose zeros the weight rule makes exact, not by one SVD
of the whole block.  The dense n x n forms
(`dbar_full`, `hom_full`, `proj_full`, `d_iota_signed`, `eps_matrix`) are
assembled on first access and then cached; the suites read none of them.

All caches are per-instance and filled lazily: the line bundle models,
which cache nothing, and their radial profiles (an extended complex
shares both with its quotient); instances are immutable after construction.
"""

from __future__ import annotations

import functools

import numpy as np

from .graded import (BigradedSpace, Gather, Pairing, Stack, class_runs,
                     rank_by_components)
from .radial import RadialGrid
from .sphere import build_model

EPS_PLUS = np.array([[0.0, 1.0], [-1.0, 0.0]])

# E_a v E_b in the basis (S11, S12, S22) of the symmetric square
VEE = np.zeros((2, 2, 3))
VEE[0, 0, 0] = 1.0
VEE[0, 1, 1] = 1.0
VEE[1, 0, 1] = 1.0
VEE[1, 1, 2] = 1.0

_O_BASE = ((0, 0), (3, 2), (6, 4))

# nodes of the radial rule every integral of the complex is summed on
N_RADIAL = 48


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
        # integer bidegree (k, l): the ideal side shifts by (4, 4), the
        # homological index by (hom, 0)
        k, l = _O_BASE[ext]
        w = 4 if part == "w" else 0
        self.bidegree = (k + w + hom, l + w)

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


# each part with its ext-0 twist (the ideal side is twisted by -4), and the
# (twist, multiplicity) of the plain complex's six blocks in layout order
_PARTS = (("w", -4), ("o", 0))
PLAIN_BLOCKS = tuple((base + dt, mult) for _, base in _PARTS
                     for _, _, dt, mult, _ in _block_specs(False))


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


def trace_weights(grid):
    """Weights of the trace on a SphereGrid or RadialGrid: the normalized
    value A D^2 of an ideal-side top form times 2i / D^2 integrates to
    2i int A dx dy."""
    return 2.0j * grid.w / grid.D ** 2


def _radial_sum(x, y, t, wfac):
    """Integrals of x_i y_j conj(t_k) over the plane: shape (nx, ny, nt).

    x, y and t are (profiles, torus weights) pairs, profiles shaped
    (nfun, nodes) on a radial rule whose dx dy weights (times any metric
    factor) are wfac.  The angular integral of e^{i (w_i + w_j - w_k)
    theta} is 2 pi, already in wfac, when w_i + w_j = w_k and 0 otherwise,
    so only the index triples that obey this weight rule are summed.  Each
    argument's weight classes are contiguous runs of one stable argsort;
    the output is real unless an input is complex.
    """
    (vx, wx), (vy, wy), (vt, wt) = x, y, t
    tc = np.conj(vt) * wfac
    out = np.zeros((len(wx), len(wy), len(wt)),
                   dtype=np.result_type(vx, vy, tc))
    (ox, rx), (oy, ry), (ot, rt) = (class_runs(w) for w in (wx, wy, wt))
    vx, vy, tc = vx[ox], vy[oy], tc[ot]
    runs_t = {w: (s, e) for w, s, e in rt}
    for a, sx, ex in rx:
        for b, sy, ey in ry:
            if a + b not in runs_t:
                continue
            st, et = runs_t[a + b]
            p = (vx[sx:ex, None, :] * vy[None, sy:ey, :]).reshape(
                -1, tc.shape[1])
            out[ox[sx:ex, None, None], oy[None, sy:ey, None], ot[st:et]] = (
                p @ tc[st:et].T).reshape(ex - sx, ey - sy, et - st)
    return out


# contraction orders of the product core: the function tensor meets the
# small operands first, the (possibly many) rows last
_BATCH_PATH = ["einsum_path", (0, 1), (0, 2), (0, 1)]
_CONTRACT_PATH = ["einsum_path", (0, 4), (2, 3), (0, 2), (0, 1)]


class GComplex:
    """The truncated complex with its differentials, trace and products."""

    def __init__(self, truncation=12, extended=False):
        if truncation < 2:
            raise ValueError("truncation too small")
        self.truncation = int(truncation)
        self.extended = bool(extended)
        if extended and truncation < 5:
            raise ValueError("the extended complex needs truncation >= 5")
        # line bundle models by (twist, levels) and their radial profiles;
        # the extended complex shares them and the radial rule with its
        # quotient, so each profile is evaluated once for both
        if extended:
            self.quotient = GComplex(truncation, extended=False)
            self.models = self.quotient.models
            self.radial = self.quotient.radial
            self._profile_cache = self.quotient._profile_cache
        else:
            self.models = {}
            self.radial = RadialGrid(N_RADIAL)
            self._profile_cache = {}
        # the constant function of weight 0, the y or t factor of the
        # integrals that multiply fewer than three chart functions
        self._unit = (np.ones((1, self.radial.n_nodes)), np.zeros(1, int))
        self.blocks = []
        for part, base in _PARTS:
            for ext, hom, dt, mult, label in _block_specs(extended):
                model = self._model(base + dt, self._levels(part, ext, hom))
                self.blocks.append(GBlock(part, ext, hom, model, mult, label))
        self._layout()
        self.trace_block = self._find_block(ext=2, hom=0, part="w")
        self._radial_trace = trace_weights(self.radial)
        self._build_linear_maps()
        self._check_layout()
        self._build_wiring()
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
        self.offsets, bids, sizes = {}, [], []
        for bi, b in enumerate(self.blocks):
            for q in (0, 1):
                self.offsets[(bi, q)] = sum(sizes)
                bids.append((b.bidegree[0] + q, b.bidegree[1]))
                sizes.append(b.dim(q))
        self.dim = sum(sizes)
        self.space = BigradedSpace(np.repeat(bids, sizes, axis=0))

    def block_slice(self, bi, q):
        start = self.offsets[(bi, q)]
        return slice(start, start + self.blocks[bi].dim(q))

    # -- linear structure -------------------------------------------------

    def _build_linear_maps(self):
        # the models' dbar, H and P gathers on this layout, one copy per
        # multiplicity index
        ops = [Gather(self.dim, [], [], []) for _ in range(3)]
        self.dbar, self.hom, self.proj = ops
        for bi, b in enumerate(self.blocks):
            # layout position of each model index (sections, then forms)
            pos = np.hstack([self.offsets[(bi, q)] + np.arange(b.dim(q))
                             .reshape(b.mult, b.model.dim(q)) for q in (0, 1)])
            for op, mop in zip(ops, (b.model.dbar, b.model.hom, b.model.proj)):
                op.col[pos], op.val[pos] = pos[:, mop.col], mop.val
        self.harmonic_indices = np.nonzero(self.proj.val)[0]
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
        radial rule, and the rule's projection weights for degree q.  The
        values are the model's `grid_data`, one array pass over its
        coefficient table, taken once per (twist, levels, degree).  The
        nodes lie on the positive real axis, where every phase is 1, so the
        profiles are kept as real arrays; raises if one is not real."""
        key = (model.n, model.levels, q)
        if key not in self._profile_cache:
            vals, wfac = model.grid_data(self.radial, q)
            scale = max(np.abs(vals).max(initial=0.0), 1.0)
            imag = np.abs(vals.imag).max(initial=0.0) / scale
            if imag > 1e-13:
                raise ValueError("radial profile is not real: largest "
                                 "|imag| %.2e" % imag)
            self._profile_cache[key] = (
                (np.ascontiguousarray(vals.real), model.weights(q)), wfac)
        return self._profile_cache[key]

    def _dense(self, blocks, rows=None):
        """Dense matrix of a block operator; rows index the layout of
        `rows` (default: this complex), columns this complex."""
        rows = self if rows is None else rows
        out = np.zeros((rows.dim, self.dim),
                       dtype=np.result_type(*blocks.values()))
        for ((bt, qt), (bs, qs)), blk in blocks.items():
            out[rows.block_slice(bt, qt), self.block_slice(bs, qs)] = blk
        return out

    dbar_full = functools.cached_property(lambda self: self.dbar.dense())
    hom_full = functools.cached_property(lambda self: self.hom.dense())
    proj_full = functools.cached_property(lambda self: self.proj.dense())

    d_iota_signed = functools.cached_property(
        lambda self: self._dense(self.iota_blocks))
    eps_matrix = functools.cached_property(
        lambda self: self._dense(self.eps_blocks, rows=self.quotient))

    def insertion(self, x):
        """d_iota x, block by block; x is shaped (dim, ...)."""
        x, out = np.asarray(x), np.zeros(np.shape(x), dtype=complex)
        for ((bt, qt), (bs, qs)), blk in self.iota_blocks.items():
            out[self.block_slice(bt, qt)] += np.tensordot(
                blk, x[self.block_slice(bs, qs)], axes=1)
        return out

    def _find_block(self, ext, hom, part):
        for bi, b in enumerate(self.blocks):
            if (b.ext, b.hom, b.part) == (ext, hom, part):
                return bi
        raise KeyError((ext, hom, part))

    # -- products ---------------------------------------------------------

    def _build_wiring(self):
        """The product wiring table: which block pieces multiply, and how.

        One term (bx, qx, by, qy, bt, qt, sign, mt) for every pair of
        pieces with a nonzero product: piece (bx, qx) times piece (by, qy)
        lands in piece (bt, qt) with the Koszul sign and the multiplicity
        tensor mt of shape (mult_x, mult_y, mult_t).  Function tensors are
        not held here; each product builds the slices it contracts.
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

    def _fun_tensor(self, term, fx=slice(None), fy=slice(None),
                    ft=slice(None)):
        """Products of a term's basis functions fx and fy projected onto its
        target functions ft, shape (len fx, len fy, len ft), by a radial sum
        over those functions' cached profiles; all of them by default."""
        args = []
        for (bi, q), f in zip((term[0:2], term[2:4], term[4:6]), (fx, fy, ft)):
            (vals, weights), wfac = self._profiles(self.blocks[bi].model, q)
            args.append((vals[f], weights[f]))
        return _radial_sum(*args, wfac)

    def _on_piece(self, S, bi, q):
        """A stack's entries on one block piece: the rows and the piece's
        basis functions with a nonzero entry, and the values there shaped
        (rows, mult, functions); None if the piece holds no nonzero."""
        b, lo = self.blocks[bi], self.offsets[(bi, q)]
        i0, i1 = np.searchsorted(S.cols, (lo, lo + b.dim(q)))
        vals = S.vals[:, i0:i1]
        rows = np.flatnonzero(np.any(vals, axis=1))
        if not len(rows):
            return None
        vals = vals[rows]
        keep = np.any(vals, axis=0)
        mult, fun = np.divmod(S.cols[i0:i1][keep] - lo, b.model.dim(q))
        funs = np.zeros(b.model.dim(q), dtype=bool)
        funs[fun] = True
        out = np.zeros((len(rows), b.mult, funs.sum()), dtype=complex)
        out[:, mult, (np.cumsum(funs) - 1)[fun]] = vals[:, keep]
        return rows, np.flatnonzero(funs), out

    def _products(self, X, Y, R=None):
        """The product core: every product method runs through it.

        X and Y are `Stack`s of rows.  Each wiring term contracts only the
        rows and basis functions where its two input pieces are nonzero,
        with the function tensor of exactly those functions, onto the
        target functions the torus-weight rule lets them reach.  Without R,
        returns the products of all row pairs as a Stack with values
        (m, n, k), on the columns so reached; with R, a Stack of rows, the
        (m, n, r) array of R[r] . (X[m] * Y[n]).
        """
        X, Y, R = (S if S is None else S.flat() for S in (X, Y, R))
        # each stack on each block piece, read once
        on_x, on_y, on_r = (None if S is None else {
            key: self._on_piece(S, *key) for key in self.offsets}
            for S in (X, Y, R))
        plans = []
        for term in self.wiring:
            bx, qx, by, qy, bt, qt, sgn, mt = term
            if on_x[(bx, qx)] is None or on_y[(by, qy)] is None:
                continue
            (ax, fx, xs), (ay, fy, ys) = on_x[(bx, qx)], on_y[(by, qy)]
            wx, wy, wt = (self._profiles(self.blocks[bi].model, q)[0][1]
                          for bi, q in ((bx, qx), (by, qy), (bt, qt)))
            # the target functions whose weight some input pair sums to
            reach = np.isin(wt, np.add.outer(wx[fx], wy[fy]))
            if R is None:
                # the target multiplicity copies the inputs' copies reach
                ct = np.flatnonzero(np.any(mt[np.any(xs, axis=(0, 2))][
                    :, np.any(ys, axis=(0, 2))], axis=(0, 1)))
                ft, rest = np.flatnonzero(reach), (ct,)
            else:
                if on_r[(bt, qt)] is None:
                    continue
                ar, fr, rs = on_r[(bt, qt)]
                ft, rest = fr[reach[fr]], (ar, rs[:, :, reach[fr]])
            if len(ft) and len(rest[0]):    # a target function and copy
                plans.append((term, ax, fx, xs, ay, fy, ys, ft) + rest)
        shape = (len(X.vals), len(Y.vals))
        if R is not None:
            out = np.zeros(shape + (len(R.vals),), dtype=complex)
            for term, ax, fx, xs, ay, fy, ys, ft, ar, rs in plans:
                out[np.ix_(ax, ay, ar)] += term[6] * np.einsum(
                    "xyt,amx,bny,mnc,pct->abp",
                    self._fun_tensor(term, fx, fy, ft), xs, ys, term[7], rs,
                    optimize=_CONTRACT_PATH)
            return out
        # the output columns: each plan's target copies of its functions
        targets = [self.offsets[term[4:6]] + (
            ct[:, None] * self.blocks[term[4]].model.dim(term[5])
            + ft).ravel() for term, *_, ft, ct in plans]
        reached = np.zeros(self.dim, dtype=bool)
        for t in targets:
            reached[t] = True
        cols = np.flatnonzero(reached)
        out = np.zeros(shape + (len(cols),), dtype=complex)
        for (term, ax, fx, xs, ay, fy, ys, ft, ct), t in zip(plans, targets):
            z = np.einsum("xyt,amx,bny,mnc->abct",
                          self._fun_tensor(term, fx, fy, ft), xs, ys,
                          term[7][:, :, ct], optimize=_BATCH_PATH)
            out[np.ix_(ax, ay, np.searchsorted(cols, t))] += term[6] * (
                z.reshape(len(ax), len(ay), -1))
        return Stack(out, cols)

    def product_apply(self, x, y):
        """Pointwise product of two full vectors, projected to the complex.

        Accepts plain vectors (dim,) or matrix-valued ones (dim, k, k); for
        the latter the coefficients are multiplied as matrices in order.
        """
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        k = 1 if x.ndim == 1 else x.shape[-1]
        # rows x[:, p, q] times rows y[:, q', r]; the product keeps q = q'
        Z = self._products(Stack.of(x.reshape(self.dim, -1).T),
                           Stack.of(y.reshape(self.dim, -1).T))
        out = np.zeros((self.dim, k, k), dtype=complex)
        out[Z.cols] = np.einsum("pqqrc->cpr",
                                Z.vals.reshape(k, k, k, k, len(Z.cols)))
        return out.reshape(x.shape)

    def product_batch(self, X, Y):
        """Products of all row pairs of two `Stack`s: a Stack with values
        shaped (m, n, k), on the columns the products reach."""
        return self._products(X, Y)

    def product_contract(self, X, Y, R):
        """R-projected pair products of three `Stack`s of rows: the
        (m, n, r) array of R[r] . (X[m] * Y[n]), without materializing the
        product vectors."""
        return self._products(X, Y, R)

    def pairing_matrix(self):
        """Trace of the product on basis pairs; parity-3 odd pairing.  Each
        row keeps its largest entry, in a Gather; raises if the largest one
        dropped reaches the 1e-9 relative leak bound of `_project_values`
        (on the extended complex, resolution columns pair with several)."""
        if self._pairing is not None:
            return self._pairing
        M, dropped = Gather(self.dim, [], [], 0j), 0.0
        # the trace piece fixes the partner's (part, ext, hom, degree), so
        # each row piece meets one column piece
        for bx, qx, by, qy, bt, qt, sgn, mt in self.wiring:
            if bt != self.trace_block or qt != 1:
                continue
            px, _ = self._profiles(self.blocks[bx].model, qx)
            py, _ = self._profiles(self.blocks[by].model, qy)
            fp = _radial_sum(px, py, self._unit, self._radial_trace)[:, :, 0]
            blk = sgn * np.kron(mt.sum(axis=2), fp)
            i, j = np.arange(len(blk)), np.abs(blk).argmax(axis=1)
            M.col[self.block_slice(bx, qx)] = self.offsets[(by, qy)] + j
            M.val[self.block_slice(bx, qx)], blk[i, j] = blk[i, j], 0.0
            dropped = max(dropped, np.abs(blk).max(initial=0.0))
        scale = max(np.abs(M.val).max(initial=0.0), 1.0)
        if dropped >= 1e-9 * scale:
            raise RuntimeError("pairing is not one entry per row: dropped "
                               "entry %.2e" % (dropped / scale))
        self._pairing = Pairing(self.space, M, parity=3, dropped=dropped)
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
        """Blocks of d_iota (signed) and eps, from the _RESOLUTION table."""
        z, D = np.sqrt(self.radial.u), self.radial.D
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
                    blk = np.zeros((tgt.mult, dt, src.mult, ds))
                    for mt, ms, f, negate in pattern:
                        m = np.eye(ds) if f is None else coef[f]
                        blk[mt, :, ms, :] = -m if negate else m
                    if iota and q:  # form-degree sign: anticommute with dbar
                        blk = -blk
                    out[((bt, q), (bs, q))] = blk.reshape(tgt.mult * dt,
                                                          src.mult * ds)

    # -- reports ----------------------------------------------------------

    def exactness_report(self):
        """Rank identities of the tautological sequences, per column.

        Ranks count the singular values above 1e-9, taken component by
        component of each block's nonzero pattern (`rank_by_components`);
        each row keeps the smallest value kept and the largest dropped over
        both maps (0.0 where there is none)."""
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
                    ri, ki, di = rank_by_components(i_blk, 1e-9)
                    re, ke, de = rank_by_components(e_blk, 1e-9)
                    comp = np.abs(e_blk @ i_blk).max() if i_blk.size else 0.0
                    rows.append({
                        "part": part, "ext": ext, "degree": q,
                        "dim_source": i_blk.shape[1],
                        "dim_middle": i_blk.shape[0],
                        "dim_target": e_blk.shape[0],
                        "rank_iota": int(ri),
                        "rank_eps": int(re),
                        "compose_residual": float(comp),
                        "sv_kept_min": min([k for k in (ki, ke) if k],
                                           default=0.0),
                        "sv_dropped_max": max(di, de),
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
