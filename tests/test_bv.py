import numpy as np
import pytest

from twistorbf.gcomplex import GComplex, trace_weights
from twistorbf import bv
from twistorbf.graded import Stack
from twistorbf.sphere import harmonic_forms, level_sections

G = GComplex(6)
DATA = bv.BFData(G, rank=2)


def omega_only(rng, odd=1):
    """Random plain field supported on the ideal part."""
    a = DATA._component(rng, odd)
    keep = np.zeros(G.dim, dtype=bool)
    for bi, b in enumerate(G.blocks):
        if b.part == "w":
            for q in (0, 1):
                keep[G.block_slice(bi, q)] = True
    a[~keep] = 0.0
    return a


def test_zero_field_action():
    z = np.zeros((G.dim, 2, 2), dtype=complex)
    assert bv.bv_action(DATA, z) == 0.0


def action_expansion_oracle(data, indices, coeffs):
    """Independent evaluation of S on a = sum_I e_I x A_I by assembling
    the quadratic and cubic structure constants over the given support.

    indices is an ascending list of basis positions, coeffs the matching
    (k, k) matrices.  A cross check of bv_action on small supports: the
    cubic constants pair the products of basis vectors, taken in one
    product_batch, not the products of the field that bv_action forms.
    """
    idx = list(indices)
    n = len(idx)
    pairing = data.pairing.dense()
    quad = pairing @ data.dbar
    val = 0.0
    for i in range(n):
        for j in range(n):
            val += 0.5 * quad[idx[i], idx[j]] * np.trace(
                coeffs[i] @ coeffs[j])
    if data.cubic:
        basis = Stack(np.eye(n), np.array(idx))
        prods = data.g.product_batch(basis, basis).dense(data.dim)
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    c = pairing[:, idx[l]] @ prods[i, j]
                    if c == 0.0:
                        continue
                    val += c / 6.0 * np.trace(
                        coeffs[i] @ coeffs[j] @ coeffs[l])
    return val


def test_action_matches_structure_constant_expansion():
    # support chosen to hit nonzero quadratic and cubic constants
    rng = np.random.default_rng(3)
    quad = (DATA.pairing @ DATA.dbar).dense()
    rows = np.where(np.abs(quad).max(axis=1) > 1e-8)[0]
    support = set()
    for i in rng.choice(rows, size=4, replace=False):
        support.add(int(i))
        support.add(int(np.argmax(np.abs(quad[i]))))
    i0 = sorted(support)[0]
    # W[c, n]: entry c of the product of basis vectors i0 and n
    W = G.product_batch(Stack(np.ones((1, 1)), np.array([i0])),
                        Stack(np.eye(G.dim), np.arange(G.dim))).dense(
                            G.dim)[0].T
    j0 = int(np.argmax(np.abs(W).sum(axis=0)))
    l0 = int(np.argmax(np.abs(W[:, j0] @ DATA.pairing)))
    support.update((j0, l0))
    idxs = sorted(support)
    mats = rng.standard_normal((len(idxs), 2, 2)) \
        + 1j * rng.standard_normal((len(idxs), 2, 2))
    a = np.zeros((G.dim, 2, 2), dtype=complex)
    for i, j in enumerate(idxs):
        a[j] = mats[i]
    direct = bv.bv_action(DATA, a)
    oracle = action_expansion_oracle(DATA, idxs, mats)
    assert abs(oracle) > 1.0          # the check must see both terms
    assert abs(direct - oracle) < 1e-10 * abs(oracle)


def test_ideal_sector_has_no_cubic_term():
    rng = np.random.default_rng(5)
    a = omega_only(rng)
    quad_only = bv.BFData(G, rank=2, cubic=False)
    assert bv.bv_action(DATA, a) == bv.bv_action(quad_only, a)


def test_rank_one_odd_square_vanishes():
    rng = np.random.default_rng(7)
    d1 = bv.BFData(G, rank=1)
    a = d1._component(rng, 1)
    assert np.abs(G.product_apply(a, a)).max() < 1e-12


def test_differential_is_a_derivation():
    rng = np.random.default_rng(9)
    x = DATA._component(rng, 1)
    y = DATA._component(rng, 0)

    def d(v):
        return (DATA.dbar @ v.reshape(G.dim, -1)).reshape(v.shape)

    lhs = d(G.product_apply(x, y))
    rhs = G.product_apply(d(x), y) - G.product_apply(x, d(y))
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() < 1e-11 * scale


def test_trace_kills_exact_terms():
    rng = np.random.default_rng(13)
    x = DATA._component(rng, 0)
    dx = (DATA.dbar @ x.reshape(G.dim, -1)).reshape(x.shape)
    scale = max(np.abs(x).max(), 1.0) * DATA.pairing_norm
    assert abs(np.einsum("a,app->", G.trace_vector, dx)) < 1e-12 * scale


def test_pair_matches_coefficient_pairing():
    rng = np.random.default_rng(17)
    x = DATA._component(rng, 1)
    y = DATA._component(rng, 0)
    want = bv._plain_pair(DATA, x, y)
    xg = DATA.field_to_grid(bv.SuperField({0: x}, 1))
    yg = DATA.field_to_grid(bv.SuperField({0: y}, 0))
    vals, _ = DATA.pair(xg, yg)
    assert abs(vals[0] - want) < 1e-10 * max(abs(want), 1.0)


def test_pair_graded_symmetry():
    rng = np.random.default_rng(19)
    a = DATA.field_to_grid(DATA.random_field(rng))
    b = DATA.field_to_grid(DATA.random_field(rng))
    vab, _ = DATA.pair(a, b)
    vba, _ = DATA.pair(b, a)
    ref = max(bv._gs_max(vab), 1.0)
    # both arguments odd, so the pairing flips sign
    worst = max(abs(vab[s] + vba.get(s, 0.0)) for s in vab)
    assert worst < 1e-11 * ref
    ab = DATA.gmult(a, b)
    v1, _ = DATA.pair(ab, a)
    v2, _ = DATA.pair(a, ab)
    ref = max(bv._gs_max(v1), 1.0)
    worst = max(abs(v1[s] - v2.get(s, 0.0)) for s in v1)
    assert worst < 1e-11 * ref


def test_grid_product_associative():
    rng = np.random.default_rng(23)
    fs = [DATA.field_to_grid(DATA.random_field(rng)) for _ in range(3)]
    lhs = DATA.gmult(DATA.gmult(fs[0], fs[1]), fs[2])
    rhs = DATA.gmult(fs[0], DATA.gmult(fs[1], fs[2]))
    worst, ref = 0.0, 0.0
    for s in set(lhs.terms) | set(rhs.terms):
        u = np.asarray(lhs.terms.get(s, 0.0))
        v = np.asarray(rhs.terms.get(s, 0.0))
        worst = max(worst, np.abs(u - v).max())
        ref = max(ref, np.abs(u).max())
    assert worst < 1e-11 * max(ref, 1.0)


def test_master_equation_residual_small():
    out = bv.master_equation_residual(DATA, probes=3, seed=0,
                                      check_variation=0)
    assert out["residual"] < 1e-11
    assert len(out["per_probe"]) == 3


def test_quadratic_only_master_equation_exact():
    quad_only = bv.BFData(G, rank=2, cubic=False)
    out = bv.master_equation_residual(quad_only, probes=3, seed=1,
                                      check_variation=0)
    assert out["residual"] == 0.0


def test_variation_reproduces_field_equation():
    out = bv.master_equation_residual(DATA, probes=1, seed=4,
                                      check_variation=1)
    assert out["variation_residual"] < 1e-10
    (kappa, mismatch), = out["eom_fits"]
    assert abs(kappa - 1.0) < 1e-10
    assert mismatch < 1e-10


def test_trace_cyclicity():
    assert bv.trace_cyclicity_residual(DATA, samples=20, seed=0) < 1e-12


def test_degenerate_pairing_rejected():
    # one basis vector that pairs with nothing
    g = GComplex(3)
    g.pairing_matrix().matrix.val[0] = 0.0
    with pytest.raises(ValueError, match="degenerate trace pairing"):
        bv.BFData(g, rank=2)


def test_extended_complex_rejected():
    with pytest.raises(ValueError):
        bv.BFData(GComplex(6, extended=True), rank=2)


def test_corrupted_differential_detected():
    bad = G.dbar_full.copy()
    i, j = np.argwhere(np.abs(bad) > 0.1)[5]
    bad[i, j] *= 1.37
    out = bv.master_equation_residual(bv.BFData(G, rank=2, dbar=bad),
                                      probes=2, seed=0, check_variation=0)
    assert out["residual"] > 1e-8


def _max_rel(got, want):
    keys = set(got.terms) | set(want.terms)
    ref = max(np.abs(c).max() for c in want.terms.values())
    return max(np.abs(got.terms.get(s, 0.0) - want.terms.get(s, 0.0)).max()
               for s in keys) / ref


@pytest.mark.parametrize("px,py", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_gmult_matches_product_apply_on_level_zero(px, py):
    # level-0 products stay inside the truncation, so projecting them
    # loses nothing and both product paths must agree
    rng = np.random.default_rng(29 + 2 * px + py)

    def field(parity):
        c = G.random_vector(rng, max_level=0, matrix_rank=2)
        c[DATA.parity_mask != bool(parity)] = 0.0
        return c

    x, y = field(px), field(py)
    got = DATA.gmult(DATA.field_to_grid(bv.SuperField({0: x}, px)),
                     DATA.field_to_grid(bv.SuperField({0: y}, py)))
    want = bv.SuperField({0: DATA._stack_to_grid(
        G.product_apply(x, y)[None])[0]}, px + py)
    assert _max_rel(got, want) < 1e-12


def test_gmult_adds_up_over_single_masks():
    rng = np.random.default_rng(31)
    data = bv.BFData(G, rank=2, n_aux=2)
    a = data.field_to_grid(data.random_field(rng))
    b = data.field_to_grid(data.random_field(rng))
    total = bv.SuperField({}, a.parity + b.parity)
    for s, c in a.terms.items():
        for t, e in b.terms.items():
            total = total.plus(data.gmult(bv.SuperField({s: c}, a.parity),
                                          bv.SuperField({t: e}, b.parity)))
    assert _max_rel(data.gmult(a, b), total) < 1e-12


def test_plus_adds_termwise_and_leaves_operands():
    rng = np.random.default_rng(32)
    data = bv.BFData(G, rank=2, n_aux=2)
    a, b = data.random_field(rng), data.random_field(rng)
    b = bv.SuperField({0b100: b.terms[0], 0b1: b.terms[0b1]}, 1)
    copies = [{s: c.copy() for s, c in f.terms.items()} for f in (a, b)]
    for ab in (a.plus(b), b.plus(a)):
        assert ab.terms.keys() == a.terms.keys() | b.terms.keys()
        for s, c in ab.terms.items():
            assert np.array_equal(c, a.terms.get(s, 0) + b.terms.get(s, 0))
    for f, saved in zip((a, b), copies):
        assert all(np.array_equal(f.terms[s], c) for s, c in saved.items())


G3 = GComplex(3)


def _piece_parity(data, bi, q):
    red = data.g.space.reduced_degrees()
    return int(red[data.g.block_slice(bi, q).start]) % 2


def _mask_pairs(data, x, y, bx, qx, by, qy):
    """Disjoint mask pairs whose coefficient parities match the pieces."""
    for s, cx in x.terms.items():
        if (x.parity + bv._popcount(s)) % 2 != _piece_parity(data, bx, qx):
            continue
        for t, cy in y.terms.items():
            if not s & t and (y.parity + bv._popcount(t)) % 2 \
                    == _piece_parity(data, by, qy):
                yield s, cx, t, cy


def gmult_oracle(data, x, y):
    """Grid product one mask pair and one grid point at a time."""
    out = {}
    for bx, qx, by, qy, bt, qt, sgn, mt in data.g.wiring:
        for s, cx, t, cy in _mask_pairs(data, x, y, bx, qx, by, qy):
            if s | t not in out:
                out[s | t] = np.zeros_like(cx)
            # pieces as (mult, grid, k, k): one k x k product per point
            xp = np.moveaxis(data._piece(cx, bx, qx), (0, 1), (2, 3))
            yp = np.moveaxis(data._piece(cy, by, qy), (0, 1), (2, 3))
            tp = data._piece(out[s | t], bt, qt)
            sg = sgn * bv._term_sign(s, t, y.parity)
            for m, n, c in zip(*np.nonzero(mt)):
                prod = np.matmul(xp[m], yp[n])
                tp[:, :, c] += sg * mt[m, n, c] * np.moveaxis(prod, 0, -1)
    return bv.SuperField(out, x.parity + y.parity)


def pair_oracle(data, x, y):
    """Trace pairing one mask pair at a time, with its unsigned scale."""
    g = data.g
    vals = {s | t: 0.0 for s in x.terms for t in y.terms if not s & t}
    scale = dict(vals)
    for bx, qx, by, qy, bt, qt, sgn, mt in g.wiring:
        if bt != g.trace_block or qt != 1:
            continue
        for s, cx, t, cy in _mask_pairs(data, x, y, bx, qx, by, qy):
            xp = data._piece(cx, bx, qx) * trace_weights(data.grid)
            yp = data._piece(cy, by, qy)
            sg = sgn * bv._term_sign(s, t, y.parity)
            for (m, n), w in np.ndenumerate(mt.sum(axis=2)):
                # tr(X Y) = sum_ij X[i, j] Y[j, i]
                vals[s | t] += sg * w * np.einsum(
                    "ijg,jig->", xp[:, :, m], yp[:, :, n])
                scale[s | t] += abs(w) * np.einsum(
                    "ijg,jig->", np.abs(xp[:, :, m]), np.abs(yp[:, :, n]))
    return vals, scale


def multi_mask_field(data, rng, parity):
    """Grid field of the given parity over masks of 0, 1 and 2 generators."""
    terms = {s: data._component(rng, (parity + bv._popcount(s)) % 2)
             for s in (0, 1, 2, 4, 3, 6)}
    return data.field_to_grid(bv.SuperField(terms, parity))


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("px,py", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_gmult_matches_pointwise_oracle(rank, px, py):
    rng = np.random.default_rng(37 + 4 * rank + 2 * px + py)
    data = bv.BFData(G3, rank=rank)
    x = multi_mask_field(data, rng, px)
    y = multi_mask_field(data, rng, py)
    got, want = data.gmult(x, y), gmult_oracle(data, x, y)
    assert got.parity == want.parity
    assert set(got.terms) == set(want.terms)
    assert _max_rel(got, want) < 1e-13


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("px,py", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_pair_matches_mask_pair_oracle(rank, px, py):
    rng = np.random.default_rng(41 + 4 * rank + 2 * px + py)
    data = bv.BFData(G3, rank=rank)
    x = multi_mask_field(data, rng, px)
    y = multi_mask_field(data, rng, py)
    (vals, scale), (wv, ws) = data.pair(x, y), pair_oracle(data, x, y)
    assert set(vals) == set(wv) and set(scale) == set(ws)
    ref = max(abs(v) for v in wv.values())
    assert max(abs(vals[s] - wv[s]) for s in wv) < 1e-13 * ref
    ref = max(ws.values())
    assert max(abs(scale[s] - ws[s]) for s in ws) < 1e-13 * ref


# -- the product rule ---------------------------------------------------------

def quartic_integrals(data, fields):
    """The two shapes of quartic trace integrand the module takes, for
    three coefficient fields: pair(gmult(a, b), gmult(c, a)) and
    pair(gmult(a, gmult(b, c)), a)."""
    a, b, c = (data.field_to_grid(f) for f in fields)
    two, _ = data.pair(data.gmult(a, b), data.gmult(c, a))
    three, _ = data.pair(data.gmult(a, data.gmult(b, c)), a)
    return two, three


def _rel_dev(got, want):
    ref = max(abs(v) for v in want.values())
    return max(abs(got.get(s, 0.0) - v) for s, v in want.items()) / ref


def _data_on_rule(g, rule, monkeypatch):
    """BFData of g sampled on the given product rule instead of its own."""
    with monkeypatch.context() as m:
        m.setattr(bv, "product_rule", lambda *args: rule)
        return bv.BFData(g, rank=2)


def test_rule_sized_from_the_models():
    assert DATA.rule == (12, 23)
    assert (DATA.grid.n_radial, DATA.grid.n_theta) == DATA.rule
    assert bv.BFData(G3, rank=2).rule == (6, 11)


@pytest.mark.parametrize("L", [3, 6])
def test_sized_rule_matches_fine_grid(L, monkeypatch):
    g = G3 if L == 3 else G
    data = bv.BFData(g, rank=2)
    fine = _data_on_rule(g, (48, 96), monkeypatch)
    rng = np.random.default_rng(43 + L)
    fields = [data.random_field(rng) for _ in range(3)]
    for got, want in zip(quartic_integrals(data, fields),
                         quartic_integrals(fine, fields)):
        assert _rel_dev(got, want) < 1e-13
    a = data.random_field(rng)
    assert _rel_dev(bv.bv_action(data, a), bv.bv_action(fine, a)) < 1e-13


@pytest.mark.parametrize("L", [3, 6])
def test_rule_is_tight(L, monkeypatch):
    # one node or one angular point fewer than the rule gives must show in
    # the quartic integrals
    g = G3 if L == 3 else G
    data = bv.BFData(g, rank=2)
    rng = np.random.default_rng(47 + L)
    fields = [data.random_field(rng) for _ in range(3)]
    want = quartic_integrals(data, fields)
    nr, nt = data.rule
    for rule in ((nr - 1, nt), (nr, nt - 1)):
        coarse = _data_on_rule(g, rule, monkeypatch)
        for got, ref in zip(quartic_integrals(coarse, fields), want):
            assert _rel_dev(got, ref) > 1e-6


def _bounds_at(g, L):
    """Piece bounds of the plain complex at truncation L, from the chart
    functions alone: every block of g gains L - g.truncation levels."""
    out = {}
    for bi, b in enumerate(g.blocks):
        n = b.twist
        sections = [f for p in range(b.levels + L - g.truncation)
                    for _, f in level_sections(n, p)]
        forms = [f for _, f in harmonic_forms(n)] + [
            f.dbar() for f in sections if f.gamma > 0]
        out[(bi, 0)] = bv.piece_bounds(sections, n / 2.0)
        out[(bi, 1)] = bv.piece_bounds(forms, n / 2.0 - 1.0)
    return out


def test_rule_outgrows_the_fixed_grid_past_truncation_24():
    wiring, trace = G3.wiring, (G3.trace_block, 1)
    assert _bounds_at(G3, 3) == {
        (bi, q): bv.piece_bounds(b.model.funs(q), b.model.normalized_extra(q))
        for bi, b in enumerate(G3.blocks) for q in (0, 1)}
    assert bv.product_rule(_bounds_at(G3, 24), wiring, trace) == (48, 95)
    for L in (25, 26):
        nr, nt = bv.product_rule(_bounds_at(G3, L), wiring, trace)
        assert (nr, nt) == (2 * L, 4 * L - 1) and nt > 96


def test_half_integer_trace_power_rejected():
    bounds = _bounds_at(G3, 3)
    lo, hi, exps = bounds[(0, 0)]
    bounds[(0, 0)] = (lo, hi, exps | {max(exps) + 1})
    with pytest.raises(AssertionError, match="half-integer D power"):
        bv.product_rule(bounds, G3.wiring, (G3.trace_block, 1))
