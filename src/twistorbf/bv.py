"""Cubic matrix action on the truncated sheaf complex and its master
equation.

The action is S(a) = (1/2) <a, d a> + (1/6) <a a a>, where <.> is the
trace functional of the complex extended to matrix coefficients by the
matrix trace, d is the antiholomorphic differential, and a is an odd
field.  Odd means odd total degree: components of even cohomological
degree enter multiplied by auxiliary odd generators, so a generic field
point lives in the tensor product with a finite Grassmann algebra and
touches every degree.

Fields are truncation coefficients, but the integrals are evaluated on
a quadrature grid, where multiplication is honest pointwise
multiplication of sections.  The basis-projected product of the complex
is not associative (projecting an intermediate product cuts its upper
levels), and the quartic term of {S, S} feels exactly that: evaluated
through projected intermediates it misses zero by the coupling of two
cut tails.  On the grid the product is associative and the quadrature is
exact for the quartic integrands, so the identities the master equation
rests on (the trace kills d-exact elements, the pairing is graded
symmetric, the trace of a product is cyclic) hold to roundoff.

The grid is a product rule (radial Gauss x uniform angle) sized from the
integrands by `product_rule`.  Every chart function is z^a zbar^b D^-gamma
with torus weight a - b, so a trace integrand is a sum of such terms: the
angular rule is exact once it has more points than the largest total
weight, and the radial rule once its degree reaches the total D power.
Both are read off the models' `RadialFun.weight` and `gamma` through the
wiring table; on the plain complex of truncation L they come out to 2L
radial nodes and 4L - 1 angular points.  `BFData` samples on that rule.

The variation of S pairs against the curvature Q(a) = d a + (1/2) a a
with constant one (fitted on a random direction and reported, never
used), and {S, S} contracts the variation with Q again, so the reported
residual is the trace pairing <Q Q> against the unsigned size of the
terms that have to cancel.

Grid products read the complex's product wiring table
(`GComplex.wiring`) and its trace block, and weigh the trace on their own
rule with `gcomplex.trace_weights`, so the grid and the coefficient
products agree on which pieces multiply, with what sign and multiplicity;
only the contraction differs (pointwise on the grid instead of through
projected function tensors).

Auxiliary generators are kept as bit masks; moving a generator past a
coefficient of odd internal parity costs a sign, and merging two masks
costs the usual interleaving sign.

Grid samples keep the grid axis last, so every product is elementwise
over the grid.  `gmult` multiplies two pieces as k broadcast
multiply-adds over the (masks x masks) pairs of one pair of internal
parities, and folds the mask pairs into their merged masks with one
matrix product against a signed merge table C[target, (a, b)]: the
interleaving and Koszul signs above, zero where the masks overlap.
`pair` contracts tr(X Y) as one matrix product per multiplicity entry
and merges masks with the same table.
"""

import numpy as np

from .gcomplex import GComplex, trace_weights
from .graded import merge_sign
from .radial import SphereGrid

__all__ = [
    "BFData", "SuperField", "bv_action", "master_equation_residual",
    "trace_cyclicity_residual", "piece_bounds", "product_rule",
]


def piece_bounds(funs, extra):
    """(lowest torus weight, highest torus weight, doubled D exponents) of
    the normalized chart values f D^-extra of one block piece: the set of
    2 (gamma + extra) over its chart functions."""
    weights = [f.weight for f in funs]
    return (min(weights), max(weights),
            frozenset(2 * f.gamma + int(2 * extra) for f in funs))


def _joined(*tables):
    """Piece-wise union of bounds tables."""
    out = {}
    for table in tables:
        for piece, (lo, hi, e) in table.items():
            if piece in out:
                lo0, hi0, e0 = out[piece]
                lo, hi, e = min(lo, lo0), max(hi, hi0), e | e0
            out[piece] = (lo, hi, e)
    return out


def _wired(left, right, wiring):
    """Bounds of the products x y, x from a left piece and y from a right
    one, on the target pieces the wiring sends them to."""
    return _joined(*(
        {(bt, qt): (left[(bx, qx)][0] + right[(by, qy)][0],
                    left[(bx, qx)][1] + right[(by, qy)][1],
                    frozenset(a + b for a in left[(bx, qx)][2]
                              for b in right[(by, qy)][2]))}
        for bx, qx, by, qy, bt, qt, _, _ in wiring))


def product_rule(bounds, wiring, trace_piece):
    """(radial nodes, angular points) of the smallest product rule that
    integrates every trace integrand of the bv module exactly.

    bounds maps each block piece (bi, q) to its `piece_bounds`.  The
    integrands are traces of products of at most four fields: the action
    pairs a product of two with a third, the master equation pairs two
    products of two, tr((x y)(z t)), and its variation a product of three
    with a fourth, tr((x (y z)) t).  The bounds are carried through the
    wiring table to every such product on the trace piece; its chart
    terms multiply to c z^a zbar^b D^-G, with G the sum of the factors'
    D exponents plus the 2 of the trace weight.  The uniform angular rule
    of N points kills e^{i (a - b) theta} exactly when N > |a - b|, the
    total torus weight.  What survives is u^a D^-G, which the radial
    rule's variable t turns into a polynomial of degree G - 2, so n Gauss
    nodes are exact once 2 n - 1 >= G - 2.  G must be an integer for
    that; the half-integer powers of odd twists have to cancel, which is
    asserted.
    """
    two = _joined(bounds, _wired(bounds, bounds, wiring))
    three = _joined(two, _wired(two, bounds, wiring),
                    _wired(bounds, two, wiring))
    lo, hi, doubled = _joined(
        _wired(two, two, wiring), _wired(three, bounds, wiring),
        _wired(bounds, three, wiring))[trace_piece]
    if any(d % 2 for d in doubled):
        raise AssertionError("half-integer D power in a trace integrand")
    return max(doubled) // 4 + 1, max(-lo, hi) + 1


def _popcount(mask):
    return bin(mask).count("1")


def _term_sign(s, t, parity_y):
    """Sign of (c_s theta_s)(c_t theta_t) -> (c_s c_t) theta_{s|t}."""
    sign = merge_sign(s, t)
    if _popcount(s) % 2 and (parity_y + _popcount(t)) % 2:
        sign = -sign
    return sign


def _by_parity(f):
    """Sorted masks of a field, split by the internal parity of their
    coefficients."""
    out = ([], [])
    for s in sorted(f.terms):
        out[(f.parity + _popcount(s)) % 2].append(s)
    return out


def _merge_tables(x, y):
    """Signed merge tables of the mask pairs of two fields.

    Keyed by the internal parities (px, py) of the coefficients, each
    entry is (mx, my, targets, C): the masks of x and of y with those
    parities, the masks their disjoint pairs merge into, and
    C[r, a * len(my) + b], the sign with which the product of masks
    (mx[a], my[b]) enters targets[r] (zero when the masks overlap).
    """
    xs, ys = _by_parity(x), _by_parity(y)
    tables = {}
    for px in (0, 1):
        for py in (0, 1):
            mx, my = xs[px], ys[py]
            rows, entries = {}, []
            for a, s in enumerate(mx):
                for b, t in enumerate(my):
                    if not s & t:
                        r = rows.setdefault(s | t, len(rows))
                        entries.append((r, a * len(my) + b,
                                        _term_sign(s, t, y.parity)))
            merge = np.zeros((len(rows), len(mx) * len(my)))
            for r, col, sg in entries:
                merge[r, col] = sg
            tables[(px, py)] = (mx, my, list(rows), merge)
    return tables


class SuperField(object):
    """Element of the complex with odd auxiliary coefficients.

    terms maps a bit mask of generators to a coefficient array; parity is
    the total degree mod 2, so the coefficient at mask S carries internal
    parity (parity + |S|) mod 2.  The same container holds truncation
    coefficients of shape (dim, k, k) and grid samples of shape
    (k, k, gdim).  The grid axis of the samples comes last and runs over
    the block pieces in layout order, each piece laid out (mult, grid),
    so a piece of a stack of masks is a view shaped
    (masks, k, k, mult, grid).
    """

    __slots__ = ("terms", "parity")

    def __init__(self, terms, parity):
        self.terms = {s: np.asarray(c, dtype=complex)
                      for s, c in terms.items() if np.any(c)}
        self.parity = int(parity) % 2

    def scaled(self, factor):
        return SuperField({s: factor * c for s, c in self.terms.items()},
                          self.parity)

    def plus(self, other):
        if other.parity != self.parity:
            raise ValueError("parity mismatch in field sum")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out[s] + c if s in out else c
        return SuperField(out, self.parity)


class BFData(object):
    """Truncated complex with matrix coefficients, trace pairing and
    differential, ready for action and master equation evaluation.

    The pairing must be nondegenerate, its smallest singular value above
    1e-8 of the largest; the extended complex is refused for that reason
    (its resolution columns pair with several forms or with none).  Fields
    are sampled on `grid`, the product rule `rule` that `product_rule`
    sizes for this complex.
    """

    def __init__(self, source, rank=2, cubic=True, n_aux=6, dbar=None):
        if not isinstance(source, GComplex):
            raise TypeError("source must be a GComplex")
        if source.extended:
            raise ValueError(
                "trace pairing is degenerate on the extended complex; "
                "build the data on the plain one")
        self.g = source
        self.rank = int(rank)
        self.cubic = bool(cubic)
        self.n_aux = int(n_aux)
        self.dim = source.dim
        pairing = source.pairing_matrix()
        ratio = pairing.nondegeneracy()
        if not ratio > 1e-8:
            raise ValueError("degenerate trace pairing: smallest singular "
                             "value %.3e of the largest" % ratio)
        self.pairing = pairing.matrix
        self.pairing_norm = pairing.singular_values()[0]
        self.dbar = source.dbar if dbar is None else dbar
        red = source.space.reduced_degrees()
        self.parity_mask = (np.asarray(red) % 2).astype(bool)
        self.rule = product_rule(
            {(bi, q): piece_bounds(b.model.funs(q),
                                   b.model.normalized_extra(q))
             for bi, b in enumerate(source.blocks) for q in (0, 1)},
            source.wiring, (source.trace_block, 1))
        self.grid = SphereGrid(*self.rule)
        self._build_grid_tables()

    def _build_grid_tables(self):
        g = self.g
        grid = self.grid
        self._gvals = {}
        self._goffsets = {}
        pos = 0
        for bi, b in enumerate(g.blocks):
            for q in (0, 1):
                vals, _ = b.model.grid_data(grid, q)
                self._gvals[(bi, q)] = vals
                self._goffsets[(bi, q)] = pos
                pos += b.mult * grid.w.size
        self.gdim = pos
        self._ngrid = grid.w.size
        red = np.asarray(g.space.reduced_degrees())
        parity = {(bi, q): int(red[g.block_slice(bi, q).start]) % 2
                  for bi in range(len(g.blocks)) for q in (0, 1)}
        # gmult terms grouped by (piece parities, target piece, target
        # multiplicity index): a group shares one merge table and one slot
        self._gmult_groups = {}
        for bx, qx, by, qy, bt, qt, sgn, mt in g.wiring:
            cls = (parity[(bx, qx)], parity[(by, qy)])
            for m, n, c in zip(*np.nonzero(mt)):
                self._gmult_groups.setdefault((cls, bt, qt, c), []).append(
                    (bx, qx, m, by, qy, n, sgn * mt[m, n, c]))
        self._trace_terms = [
            (parity[(bx, qx)], parity[(by, qy)], bx, qx, by, qy,
             sgn * mt.sum(axis=2))
            for bx, qx, by, qy, bt, qt, sgn, mt in g.wiring
            if bt == g.trace_block and qt == 1]

    # -- field sampling ---------------------------------------------------

    def _component(self, rng, odd_part):
        k = self.rank
        c = rng.standard_normal((self.dim, k, k)) \
            + 1j * rng.standard_normal((self.dim, k, k))
        c[self.parity_mask != bool(odd_part)] = 0.0
        return c

    def random_field(self, rng):
        """Generic odd field point: odd-degree components with plain
        coefficients, even-degree ones riding single odd generators."""
        terms = {0: self._component(rng, True)}
        for m in range(self.n_aux):
            terms[1 << m] = self._component(rng, False)
        return SuperField(terms, 1)

    def matrix_element(self, rng, parity):
        """Plain matrix-valued element of fixed internal parity."""
        return self._component(rng, bool(parity))

    # -- coefficient-space operations -------------------------------------

    def apply_dbar(self, x):
        """Differential applied coefficientwise; flips total parity."""
        out = {s: (self.dbar @ c.reshape(self.dim, -1)).reshape(c.shape)
               for s, c in x.terms.items()}
        return SuperField(out, x.parity + 1)

    # -- grid representation ----------------------------------------------

    def _piece(self, samples, bi, q):
        """View of grid samples (..., gdim) on one block piece, shaped
        (..., mult, grid)."""
        st = self._goffsets[(bi, q)]
        mult = self.g.blocks[bi].mult
        return samples[..., st:st + mult * self._ngrid].reshape(
            samples.shape[:-1] + (mult, self._ngrid))

    def _stack_to_grid(self, cs):
        """(A, dim, k, k) coefficient stack -> (A, k, k, gdim) samples."""
        a, k = cs.shape[0], cs.shape[-1]
        out = np.empty((a, k, k, self.gdim), dtype=complex)
        for bi, b in enumerate(self.g.blocks):
            for q in (0, 1):
                vals = self._gvals[(bi, q)]
                seg = cs[:, self.g.block_slice(bi, q)].reshape(
                    a, b.mult, vals.shape[0], k, k)
                z = seg.transpose(0, 3, 4, 1, 2).reshape(-1, vals.shape[0]) \
                    @ vals
                self._piece(out, bi, q)[...] = z.reshape(
                    a, k, k, b.mult, self._ngrid)
        return out

    def field_to_grid(self, x):
        masks = sorted(x.terms)
        gs = self._stack_to_grid(np.stack([x.terms[s] for s in masks]))
        return SuperField(dict(zip(masks, gs)), x.parity)

    def gmult(self, x, y):
        """Pointwise product of grid fields; exact, associative."""
        tables = _merge_tables(x, y)
        targets = sorted({s for _, _, ts, _ in tables.values() for s in ts})
        row = {s: r for r, s in enumerate(targets)}
        k, ng = self.rank, self._ngrid
        # each field once, stacked by internal parity of its coefficients
        xs = {p: np.stack([x.terms[s] for s in ms])
              for p, ms in enumerate(_by_parity(x)) if ms}
        ys = {p: np.stack([y.terms[t] for t in ms])
              for p, ms in enumerate(_by_parity(y)) if ms}
        acc = np.zeros((len(targets), k, k, self.gdim), dtype=complex)
        for ((px, py), bt, qt, c), terms in self._gmult_groups.items():
            mx, my, ts, merge = tables[(px, py)]
            if not ts:
                continue
            # prod[a, b, i, l, :] = sum_j x[a, i, j, :] y[b, j, l, :]
            prod = np.zeros((len(mx), len(my), k, k, ng), dtype=complex)
            for bx, qx, m, by, qy, n, w in terms:
                xp = self._piece(xs[px], bx, qx)[..., m, :]
                yp = self._piece(ys[py], by, qy)[..., n, :]
                for j in range(k):
                    prod += (w * xp[:, None, :, j, None]) \
                        * yp[None, :, None, j]
            merged = merge @ prod.reshape(merge.shape[1], -1)
            slot = self._piece(acc, bt, qt)[..., c, :]
            slot[[row[s] for s in ts]] += merged.reshape(len(ts), k, k, ng)
        return SuperField(dict(zip(targets, acc)), x.parity + y.parity)

    def pair(self, x, y):
        """Trace of the product of two grid fields, by generator mask.

        Returns (values, scale); scale accumulates, per mask, the
        unsigned size of the grid contributions, so residuals of
        quantities that vanish by cancellation divide by its maximum.
        """
        tables = _merge_tables(x, y)
        tw = trace_weights(self.grid)
        pairs = {}
        for px, py, bx, qx, by, qy, w in self._trace_terms:
            mx, my, ts, _ = tables[(px, py)]
            if not ts:
                continue
            # tr(X Y) contracts X[i, j] with Y[j, i]: both are laid out
            # (mult, i, j, grid), Y transposed while it is stacked
            xf = (np.stack([self._piece(x.terms[s], bx, qx).transpose(
                2, 0, 1, 3) for s in mx]) * tw).reshape(len(mx), len(w), -1)
            yf = np.stack([self._piece(y.terms[t], by, qy).transpose(
                2, 1, 0, 3) for t in my]).reshape(len(my), w.shape[1], -1)
            xa, ya = np.abs(xf), np.abs(yf)
            v, u = pairs.setdefault((px, py), (
                np.zeros((len(mx), len(my)), complex),
                np.zeros((len(mx), len(my)))))
            for m, n in zip(*np.nonzero(w)):
                v += w[m, n] * (xf[:, m] @ yf[:, n].T)
                u += abs(w[m, n]) * (xa[:, m] @ ya[:, n].T)
        vals = {s: 0.0 for _, _, ts, _ in tables.values() for s in ts}
        scale = dict(vals)
        for cls, (v, u) in pairs.items():
            _, _, ts, merge = tables[cls]
            for s, vs, us in zip(ts, merge @ v.ravel(),
                                 np.abs(merge) @ u.ravel()):
                vals[s] += vs
                scale[s] += us
        return vals, scale


def _gs_max(vals):
    return max((abs(v) for v in vals.values()), default=0.0)


def _plain_pair(data, u, v):
    u2 = u.reshape(data.dim, -1)
    v2 = np.swapaxes(v, 1, 2).reshape(data.dim, -1)
    return np.sum(u2 * (data.pairing @ v2))


def bv_action(data, a):
    """Action S(a) = (1/2) <a, d a> + (1/6) <a a a>.

    For a SuperField of truncation coefficients the value is a dictionary
    over generator masks; for a plain (dim, k, k) array it is a complex
    number.  The cubic term is dropped when the data was built with
    cubic=False.
    """
    if isinstance(a, SuperField):
        ag = data.field_to_grid(a)
        dg = data.field_to_grid(data.apply_dbar(a))
        quad, _ = data.pair(ag, dg)
        out = {s: 0.5 * v for s, v in quad.items()}
        if data.cubic:
            cub, _ = data.pair(data.gmult(ag, ag), ag)
            for s, v in cub.items():
                out[s] = out.get(s, 0.0) + v / 6.0
        return out
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(data.dim, 1, 1)
    da = (data.dbar @ a.reshape(data.dim, -1)).reshape(a.shape)
    val = 0.5 * _plain_pair(data, a, da)
    if data.cubic:
        aa = data.g.product_apply(a, a)
        val = val + _plain_pair(data, aa, a) / 6.0
    return val


def _variation(data, ag, dg, aag, vg, dvg=None):
    """Linear term of S(a + t v) in t, from grid fields of a, da, aa.

    When the direction exists only on the grid (no truncation
    coefficients, so no dv) the <a, d v> piece is traded for <d a, v>
    through the closedness of the trace, which holds for a odd.
    """
    p1, s1 = data.pair(vg, dg)
    if dvg is not None:
        p2, s2 = data.pair(ag, dvg)
    else:
        p2, s2 = data.pair(dg, vg)
    pieces = [(0.5, p1, s1), (0.5, p2, s2)]
    if data.cubic:
        av = data.gmult(ag, vg)
        p3, s3 = data.pair(vg, aag)
        p4, s4 = data.pair(av, ag)
        p5, s5 = data.pair(aag, vg)
        pieces += [(1 / 6.0, p3, s3), (1 / 6.0, p4, s4), (1 / 6.0, p5, s5)]
    vals, scale = {}, 0.0
    for w, p, s in pieces:
        for key, v_ in p.items():
            vals[key] = vals.get(key, 0.0) + w * v_
        scale = max(scale, max(s.values(), default=0.0))
    return vals, scale


def master_equation_residual(data, probes=20, seed=0, check_variation=2):
    """Residual of {S, S} = 0 at seeded random odd field points.

    At each point the curvature Q = d a + (1/2) a a is paired with itself
    on the grid; the reported residual is the largest signed coefficient
    against the unsigned size of the contributions.  For the first
    check_variation probes the linear variation of S is also contracted
    with Q directly, and the proportionality between the variation and
    <Q, .> is fitted on an independent random direction; both come back
    in the result for inspection.
    """
    rng = np.random.default_rng(seed)
    per_probe = []
    variation_vals = []
    fits = []
    for p in range(int(probes)):
        a = data.random_field(rng)
        ag = data.field_to_grid(a)
        dg = data.field_to_grid(data.apply_dbar(a))
        if data.cubic:
            aag = data.gmult(ag, ag)
            q = dg.plus(aag.scaled(0.5))
        else:
            aag = SuperField({}, 0)
            q = dg
        vals, scale = data.pair(q, q)
        top = max(scale.values(), default=0.0)
        per_probe.append(_gs_max(vals) / top if top > 0 else 0.0)
        if p < check_variation:
            dvals, dscale = _variation(data, ag, dg, aag, q)
            ref = max(dscale, top)
            variation_vals.append(_gs_max(dvals) / ref if ref > 0 else 0.0)
            v = data.random_field(rng)
            vg = data.field_to_grid(v)
            dvg = data.field_to_grid(data.apply_dbar(v))
            lvals, _ = _variation(data, ag, dg, aag, vg, dvg)
            rvals, _ = data.pair(q, vg)
            key = max(rvals, key=lambda s: abs(rvals[s]))
            kappa = lvals.get(key, 0.0) / rvals[key]
            mism = 0.0
            ref = max(_gs_max(lvals), 1e-300)
            for s in set(lvals) | set(rvals):
                mism = max(mism, abs(lvals.get(s, 0.0)
                                     - kappa * rvals.get(s, 0.0)) / ref)
            fits.append((kappa, mism))
    return {
        "residual": max(per_probe, default=0.0),
        "per_probe": per_probe,
        "variation_residual": max(variation_vals, default=0.0),
        "eom_fits": fits,
    }


def trace_cyclicity_residual(data, samples=20, seed=0):
    """Worst relative defect of <x y> = (-1)^{xy} <y x> over random plain
    matrix elements of fixed internal parities."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(samples)):
        px, py = rng.integers(0, 2, size=2)
        x = data.matrix_element(rng, px)
        y = data.matrix_element(rng, py)
        lhs = _plain_pair(data, x, y)
        rhs = _plain_pair(data, y, x)
        sgn = -1.0 if (px * py) % 2 else 1.0
        scale = data.pairing_norm * np.linalg.norm(x) * np.linalg.norm(y)
        worst = max(worst, abs(lhs - sgn * rhs) / scale)
    return worst
