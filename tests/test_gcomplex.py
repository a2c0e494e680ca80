import os
import subprocess
import sys

import numpy as np
import pytest

from twistorbf import gcomplex
from twistorbf.gcomplex import (_RESOLUTION, GComplex, _radial_sum,
                                trace_weights)
from twistorbf.graded import Stack, rank_by_components
from twistorbf.radial import SphereGrid
from twistorbf.sphere import LineBundleModel, build_model
from twistorbf.suites import (SuiteConfig, _block_product, _blocks_max,
                              exactness_rung, htt_exactness,
                              htt_side_conditions)

L = 6
G = GComplex(L, extended=False)
GE = GComplex(L, extended=True)


def low_level(g, rng, cap=0):
    return g.random_vector(rng, max_level=cap)


def signs(g):
    return np.where(g.space.reduced_degrees() % 2, -1.0, 1.0)


def test_block_table():
    twists = [b.twist for b in G.blocks]
    assert twists == [-4, -3, -2, 0, 1, 2]
    mults = [b.mult for b in G.blocks]
    assert mults == [1, 2, 1, 1, 2, 1]
    # ideal side keeps one level fewer
    assert [b.levels for b in G.blocks] == [L - 1] * 3 + [L] * 3
    assert all(b.zero_multiplication == (b.part == "w") for b in G.blocks)


def component_dims(g):
    """Dimensions per part and reduced degree of the full complex."""
    out = {"o": {}, "w": {}}
    for bi, b in enumerate(g.blocks):
        for q in (0, 1):
            r = b.bidegree[0] + q - b.bidegree[1]
            out[b.part][r] = out[b.part].get(r, 0) + b.dim(q)
    return out


def test_component_dims_match_closed_formulas():
    for trunc in (4, 7):
        g = GComplex(trunc, extended=False)
        dims = component_dims(g)
        # structure side: sections of twists 0,1,2 plus the forms one
        # reduced degree down; closed dimension count L(|n|+L) per degree
        def sec(n, lv):
            return lv * (abs(n) + lv)

        def frm(n, lv):
            # image of the sections plus the harmonic excess
            return sec(n, lv) - max(n + 1, 0) + max(-n - 1, 0)

        Lv = trunc
        o = {0: sec(0, Lv),
             1: frm(0, Lv) + 2 * sec(1, Lv),
             2: 2 * frm(1, Lv) + sec(2, Lv),
             3: frm(2, Lv)}
        w = {0: sec(-4, Lv - 1),
             1: frm(-4, Lv - 1) + 2 * sec(-3, Lv - 1),
             2: 2 * frm(-3, Lv - 1) + sec(-2, Lv - 1),
             3: frm(-2, Lv - 1)}
        assert dims["o"] == o
        assert dims["w"] == w


def test_harmonic_counts():
    assert G.n_harmonic == 16
    assert GE.n_harmonic == 48
    red = G.space.reduced_degrees()
    per_degree = [int((red[G.harmonic_indices] == r).sum()) for r in range(4)]
    assert per_degree == [1, 7, 7, 1]


def test_unit_section():
    rng = np.random.default_rng(0)
    unit = np.zeros(G.dim, dtype=complex)
    bo = G._find_block(0, 0, "o")
    unit[G.offsets[(bo, 0)]] = np.sqrt(np.pi)
    y = G.random_vector(rng)
    assert np.abs(G.product_apply(unit, y) - y).max() < 1e-12
    assert np.abs(G.product_apply(y, unit) - y).max() < 1e-12


def test_ideal_square_vanishes():
    rng = np.random.default_rng(1)
    x = G.random_vector(rng)
    y = G.random_vector(rng)
    for v in (x, y):
        for bi, b in enumerate(G.blocks):
            if b.part == "o":
                v[G.block_slice(bi, 0)] = 0
                v[G.block_slice(bi, 1)] = 0
    assert np.abs(G.product_apply(x, y)).max() == 0.0


def test_product_graded_commutative():
    rng = np.random.default_rng(2)
    red = GE.space.reduced_degrees()
    x = low_level(GE, rng)
    y = low_level(GE, rng)
    worst = 0.0
    for rx in range(-1, 4):
        for ry in range(-1, 4):
            a = x.copy(); a[red != rx] = 0
            b = y.copy(); b[red != ry] = 0
            if not np.any(a) or not np.any(b):
                continue
            s = -1.0 if (rx % 2) and (ry % 2) else 1.0
            r = np.abs(GE.product_apply(a, b)
                       - s * GE.product_apply(b, a)).max()
            worst = max(worst, r)
    assert worst < 1e-12


def test_product_associative_on_interior_sections():
    rng = np.random.default_rng(3)
    x, y, z = (low_level(GE, rng) for _ in range(3))
    lhs = GE.product_apply(GE.product_apply(x, y), z)
    rhs = GE.product_apply(x, GE.product_apply(y, z))
    assert np.abs(lhs - rhs).max() < 1e-11


def test_dbar_left_leibniz_full_vectors():
    rng = np.random.default_rng(4)
    x = G.random_vector(rng)
    y = G.random_vector(rng)
    s = signs(G)
    lhs = G.dbar_full @ G.product_apply(x, y)
    rhs = (G.product_apply(G.dbar_full @ x, y)
           + G.product_apply(s * x, G.dbar_full @ y))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_insertion_left_leibniz():
    rng = np.random.default_rng(5)
    x = low_level(GE, rng)
    y = low_level(GE, rng)
    s = signs(GE)
    D = GE.d_iota_signed
    lhs = D @ GE.product_apply(x, y)
    rhs = GE.product_apply(D @ x, y) + GE.product_apply(s * x, D @ y)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_total_differential_squares_to_zero():
    dt = GE.dbar_full + GE.d_iota_signed
    assert np.abs(dt @ dt).max() < 1e-12
    assert np.abs(GE.d_iota_signed @ GE.d_iota_signed).max() == 0.0


def test_trace_kills_image_and_pairing_matches_product():
    rng = np.random.default_rng(6)
    x = G.random_vector(rng)
    assert abs(G.trace_vector @ (G.dbar_full @ x)) < 1e-12
    y = G.random_vector(rng)
    P = G.pairing_matrix()
    v1 = P.value(x, y)
    v2 = G.trace_vector @ G.product_apply(x, y)
    assert abs(v1 - v2) < 1e-12 * abs(v1)


def test_pairing_parity_symmetry_nondegeneracy():
    P = G.pairing_matrix()
    assert P.parity_violation() == 0.0
    assert P.graded_symmetry_residual() < 1e-13
    assert P.nondegeneracy() > 0.99


def dense_pairing_loop(g):
    """The trace pairing as the dense sum of its radial blocks."""
    P = np.zeros((g.dim, g.dim), dtype=complex)
    for bx, qx, by, qy, bt, qt, sgn, mt in g.wiring:
        if bt != g.trace_block or qt != 1:
            continue
        px, _ = g._profiles(g.blocks[bx].model, qx)
        py, _ = g._profiles(g.blocks[by].model, qy)
        fp = _radial_sum(px, py, g._unit, g._radial_trace)[:, :, 0]
        P[g.block_slice(bx, qx),
          g.block_slice(by, qy)] += sgn * np.kron(mt.sum(axis=2), fp)
    return P


@pytest.mark.parametrize("trunc", range(3, 13))
def test_pairing_gather_matches_dense_loop(trunc):
    g = GComplex(trunc)
    pr = g.pairing_matrix()
    M, P = pr.matrix, dense_pairing_loop(g)
    rows = np.arange(g.dim)
    # one matched entry per row and per column, taken as the loop has it
    assert np.array_equal(np.sort(M.col), rows)
    assert np.array_equal(M.val, P[rows, M.col])
    assert np.allclose(np.abs(M.val), np.sqrt(2.0), rtol=1e-13, atol=0)
    P[rows, M.col] = 0.0
    assert np.abs(P).max() == pr.dropped < 1e-12


def test_extended_pairing_is_refused():
    # the resolution columns pair with several forms each
    with pytest.raises(RuntimeError, match="not one entry per row: dropped "
                       "entry [0-9.]+e[-+][0-9]+"):
        GComplex(5, extended=True).pairing_matrix()


def test_side_conditions():
    H, Pr = G.hom_full, G.proj_full
    M = G.pairing_matrix().matrix
    s = signs(G)
    assert np.abs(H @ H).max() == 0.0
    assert np.abs(H.T @ M @ Pr).max() < 1e-12
    assert np.abs(H.T @ M - s[:, None] * (M @ H)).max() < 1e-12
    chain = H @ G.dbar_full + G.dbar_full @ H - (np.eye(G.dim) - Pr)
    assert np.abs(chain).max() < 1e-12
    HD = GE.hom_full @ GE.d_iota_signed
    assert np.abs(HD @ HD).max() == 0.0


def test_quotient_map_structure():
    E = GE.eps_matrix
    assert np.abs(E @ GE.d_iota_signed).max() < 1e-12
    assert np.abs(E @ GE.dbar_full - GE.quotient.dbar_full @ E).max() < 1e-11
    rng = np.random.default_rng(7)
    x = low_level(GE, rng)
    y = low_level(GE, rng)
    lhs = E @ GE.product_apply(x, y)
    rhs = GE.quotient.product_apply(E @ x, E @ y)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_short_sequences_exact_per_truncation():
    for trunc in (5, 6, 8):
        g = GE if trunc == L else GComplex(trunc, extended=True)
        for row in g.exactness_report():
            assert row["exact"], row
            assert row["compose_residual"] < 1e-12
            assert row["rank_iota"] + row["rank_eps"] == row["dim_middle"]


def test_total_cohomology_dims():
    # the resolved complex has the same cohomology as the quotient
    dt = GE.dbar_full + GE.d_iota_signed
    red = GE.space.reduced_degrees()
    dims = []
    for r in range(4):
        cur = np.nonzero(red == r)[0]
        prv = np.nonzero(red == r - 1)[0]
        d_out = dt[:, cur]
        rank_out = np.linalg.matrix_rank(d_out, tol=1e-8)
        rank_in = (np.linalg.matrix_rank(dt[:, prv], tol=1e-8)
                   if len(prv) else 0)
        dims.append(len(cur) - rank_out - rank_in)
    assert dims == [1, 7, 7, 1]


def test_bidegrees_of_blocks():
    b = {("o", 0): (0, 0), ("o", 1): (3, 2), ("o", 2): (6, 4),
         ("w", 0): (4, 4), ("w", 1): (7, 6), ("w", 2): (10, 8)}
    for blk in G.blocks:
        assert blk.bidegree == b[(blk.part, blk.ext)]
    for blk in GE.blocks:
        k, l = b[(blk.part, blk.ext)]
        assert blk.bidegree == ((k - 1, l) if blk.hom == -1 else (k, l))


@pytest.mark.parametrize("trunc,extended", [(4, False), (5, True),
                                             (8, True)])
def test_space_degrees_follow_the_block_pieces(trunc, extended):
    g = GComplex(trunc, extended=extended)
    degs = g.space.degrees
    assert isinstance(degs, np.ndarray) and degs.dtype.kind == "i"
    assert degs.shape == (g.dim, 2)
    seen = 0
    for bi, b in enumerate(g.blocks):
        for q in (0, 1):
            sl = g.block_slice(bi, q)
            assert (degs[sl] == (b.bidegree[0] + q, b.bidegree[1])).all()
            seen += sl.stop - sl.start
    assert seen == g.dim


def test_extended_needs_depth():
    with pytest.raises(ValueError):
        GComplex(4, extended=True)


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("g", [G, GE], ids=["plain", "extended"])
def test_batch_and_contract_match_product_apply(g):
    rng = np.random.default_rng(8)
    X = np.stack([low_level(g, rng, 1) for _ in range(3)])
    Y = np.stack([low_level(g, rng, 1) for _ in range(2)])
    R = np.stack([g.random_vector(rng) for _ in range(4)])
    batch = g.product_batch(Stack.of(X), Stack.of(Y))
    assert batch.vals.shape == (3, 2, len(batch.cols)) < (3, 2, g.dim)
    want = np.array([[g.product_apply(x, y) for y in Y] for x in X])
    assert _rel(batch.dense(g.dim), want) < 1e-12
    assert _rel(g.product_contract(Stack.of(X), Stack.of(Y), Stack.of(R)),
                np.einsum("abi,ri->abr", want, R)) < 1e-12


def dense_products(g, X, Y, tensors):
    """Products of all row pairs of two dense stacks, (m, n, dim), by the
    whole function tensor of every wiring term (kept in `tensors`)."""
    out = np.zeros((len(X), len(Y), g.dim), dtype=complex)
    for i, term in enumerate(g.wiring):
        bx, qx, by, qy, bt, qt, sgn, mt = term
        if i not in tensors:
            tensors[i] = g._fun_tensor(term)
        xs = X[:, g.block_slice(bx, qx)].reshape(len(X), mt.shape[0], -1)
        ys = Y[:, g.block_slice(by, qy)].reshape(len(Y), mt.shape[1], -1)
        z = np.einsum("xyt,amx,bny,mnc->abct", tensors[i], xs, ys, mt,
                      optimize=True)
        out[:, :, g.block_slice(bt, qt)] += sgn * z.reshape(len(X), len(Y),
                                                            -1)
    return out


def sparse_stack(g, rng, rows, kind):
    """Random rows with zero rows among them, on one of three supports:
    the lowest levels, the top level only, or a few random block pieces
    (so that some wiring terms meet an empty piece)."""
    X = np.stack([g.random_vector(rng) for _ in range(rows)])
    X[rng.random(rows) < 0.3] = 0.0
    if kind == "low":
        return X * (low_level(g, rng, 1) != 0)
    keep = np.zeros(g.dim, dtype=bool)
    for bi, b in enumerate(g.blocks):
        for q, lv in ((0, b.model.level0), (1, b.model.src_level1)):
            if kind == "top":
                on = np.tile(lv == b.levels - 1, b.mult)
            else:
                on = np.full(len(lv) * b.mult, rng.random() < 0.4)
            keep[g.block_slice(bi, q)] = on
    return X * keep


@pytest.mark.parametrize("trunc,ext", [(4, False), (5, True), (8, True)],
                         ids=["plain4", "extended5", "extended8"])
def test_product_core_matches_whole_function_tensors(trunc, ext):
    g, tensors = GComplex(trunc, extended=ext), {}
    rng = np.random.default_rng(trunc)
    for kx, ky in [("low", "top"), ("top", "top"), ("pieces", "low"),
                   ("pieces", "pieces")]:
        X, Y = sparse_stack(g, rng, 5, kx), sparse_stack(g, rng, 4, ky)
        R = np.stack([g.random_vector(rng) for _ in range(3)])
        want = dense_products(g, X, Y, tensors)
        got = g.product_batch(Stack.of(X), Stack.of(Y))
        # the columns the weight rule lets the products reach hold every
        # nonzero entry
        assert not want[..., np.setdiff1d(np.arange(g.dim), got.cols)].any()
        assert _rel(got.dense(g.dim), want) < 1e-13
        assert _rel(g.product_contract(Stack.of(X), Stack.of(Y),
                                       Stack.of(R)),
                    np.einsum("abi,ri->abr", want, R)) < 1e-13
    # matrix-valued factors multiply their coefficients in order
    x, y = (g.random_vector(rng, max_level=2, matrix_rank=2)
            for _ in range(2))
    want = sum(np.moveaxis(dense_products(g, x[:, :, q].T, y[:, q, :].T,
                                          tensors), 2, 0) for q in range(2))
    assert _rel(g.product_apply(x, y), want) < 1e-13


DENSE = ("dbar_full", "hom_full", "proj_full", "d_iota_signed",
         "eps_matrix")


def test_dense_maps_are_the_report_blocks():
    # the dense forms hold exactly the blocks exactness_report reads
    for blocks, dense, rows in ((GE.iota_blocks, GE.d_iota_signed, GE),
                                (GE.eps_blocks, GE.eps_matrix, GE.quotient)):
        rest = dense.copy()
        for ((bt, qt), (bs, qs)), blk in blocks.items():
            r, c = rows.block_slice(bt, qt), GE.block_slice(bs, qs)
            assert np.array_equal(dense[r, c], blk)
            rest[r, c] = 0.0
        assert not np.any(rest)


def _kron_oracle(g):
    """dbar, H, P and the harmonic indices as kron(I_mult, model matrix)
    blocks, the construction the gathers replaced."""
    ops, harm = ({}, {}, {}), []
    for bi, b in enumerate(g.blocks):
        eye, m, d0 = np.eye(b.mult), b.model, b.model.dim0
        dt, ht, pt = m.dbar.dense(), m.hom.dense(), m.proj.dense()
        proj0, proj1 = pt[:d0, :d0], pt[d0:, d0:]
        p0, p1 = (bi, 0), (bi, 1)
        ops[0][(p1, p0)] = np.kron(eye, dt[d0:, :d0])
        ops[1][(p0, p1)] = np.kron(eye, ht[:d0, d0:])
        ops[2][(p0, p0)] = np.kron(eye, proj0)
        ops[2][(p1, p1)] = np.kron(eye, proj1)
        for q, pm in ((0, proj0), (1, proj1)):
            diag = np.tile(np.diag(pm), b.mult)
            harm.append(g.offsets[(bi, q)] + np.nonzero(diag > 0.5)[0])
    return [g._dense(o) for o in ops] + [np.concatenate(harm).astype(int)]


@pytest.mark.parametrize("trunc,ext", [(5, False), (5, True), (8, True)])
def test_gathers_match_kron_blocks(trunc, ext):
    g = GE if (trunc, ext) == (L, True) else GComplex(trunc, extended=ext)
    got = (g.dbar_full, g.hom_full, g.proj_full, g.harmonic_indices)
    for a, b in zip(got, _kron_oracle(g)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_signed_insertion_negates_form_columns():
    # the grid oracle's unsigned blocks, negated on the form columns
    g = GComplex(5, extended=True)
    raw = grid_resolution_blocks(g, oracle_grid(g), {}, signed=False)["iota"]
    assert raw.keys() == g.iota_blocks.keys()
    for ((bt, qt), (bs, qs)), blk in raw.items():
        assert qt == qs and np.any(blk)
        want = -blk if qs == 1 else blk
        assert _rel(g.iota_blocks[((bt, qt), (bs, qs))], want) < 1e-13


@pytest.mark.parametrize("trunc", [5, 8])
def test_insertion_matches_dense(trunc):
    g = GE if trunc == L else GComplex(trunc, extended=True)
    rng = np.random.default_rng(11)
    for x in (g.random_vector(rng), g.random_vector(rng, matrix_rank=2)):
        want = np.tensordot(g.d_iota_signed, x, axes=1)
        assert _rel(g.insertion(x), want) < 1e-15


def test_block_product_matches_dense_products():
    D = GE.iota_blocks
    H = {((bi, 0), (bi, 1)): GE.hom_full[GE.block_slice(bi, 0),
                                         GE.block_slice(bi, 1)]
         for bi in range(len(GE.blocks))}
    HD = _block_product(H, D)
    assert np.array_equal(GE._dense(HD), GE.hom @ GE.d_iota_signed)
    for a, b in ((D, D), (HD, HD)):
        prod = _block_product(a, b)
        assert not prod     # no source piece of d_iota is a target piece
        dense = np.abs(GE._dense(a) @ GE._dense(b)).max()
        assert _blocks_max(prod) == dense == 0.0


def test_block_product_gives_compose_residual():
    # eps after iota, block by block, is exactness_report's composition
    for g in (GE, GComplex(5, extended=True)):
        EI = _block_product(g.eps_blocks, g.iota_blocks)
        want = max(r["compose_residual"] for r in g.exactness_report())
        assert 0.0 < _blocks_max(EI) == want


def test_dense_maps_are_cached():
    for name in DENSE:
        assert getattr(GE, name) is getattr(GE, name)


def test_exactness_report_builds_no_dense_map():
    g = GComplex(6, extended=True)
    g.exactness_report()
    assert not set(DENSE) & set(vars(g))
    assert not set(DENSE) & set(vars(g.quotient))


# -- the radial weight rule against the 2-D grid -----------------------------
#
# The oracles below are the 2-D grid formulas the complex used before its
# integrals became radial sums: every integral is summed over all points of
# a SphereGrid on the complex's radial nodes (48 x 96 by default), with no
# selection rule.

def oracle_grid(g):
    return SphereGrid(g.radial.n_nodes)


def _grid_values(model, q, grid, cache):
    key = (id(model), q)
    if key not in cache:
        wfac = grid.w / grid.D ** 2 * (2.0 if q == 1 else 1.0)
        cache[key] = (model.basis_values(grid.z, q), wfac)
    return cache[key]


def grid_fun_tensor(g, grid, term, cache):
    bx, qx, by, qy, bt, qt = term[:6]
    vx, _ = _grid_values(g.blocks[bx].model, qx, grid, cache)
    vy, _ = _grid_values(g.blocks[by].model, qy, grid, cache)
    vt, wfac = _grid_values(g.blocks[bt].model, qt, grid, cache)
    wt = np.conj(vt) * wfac
    out = np.empty((len(vx), len(vy), len(vt)), dtype=complex)
    for t in range(len(vt)):
        out[:, :, t] = (vx * wt[t]) @ vy.T
    return out


def grid_trace_vector(g, grid, cache):
    out = np.zeros(g.dim, dtype=complex)
    b = g.blocks[g.trace_block]
    vals, _ = _grid_values(b.model, 1, grid, cache)
    out[g.block_slice(g.trace_block, 1)] = np.tile(
        (vals * trace_weights(grid)).sum(axis=1), b.mult)
    return out


def grid_pairing_matrix(g, grid, cache):
    P = np.zeros((g.dim, g.dim), dtype=complex)
    for bx, qx, by, qy, bt, qt, sgn, mt in g.wiring:
        if bt != g.trace_block or qt != 1:
            continue
        vx, _ = _grid_values(g.blocks[bx].model, qx, grid, cache)
        vy, _ = _grid_values(g.blocks[by].model, qy, grid, cache)
        fp = (vx * trace_weights(grid)) @ vy.T
        P[g.block_slice(bx, qx),
          g.block_slice(by, qy)] += sgn * np.kron(mt.sum(axis=2), fp)
    return P


def grid_resolution_blocks(g, grid, cache, signed=True):
    z, D = grid.z, grid.D
    rD = 1.0 / np.sqrt(D)
    factors = {"1": rD, "z": z * rD, "-z": -z * rD, "zz": z * z / D,
               "-z/D": -z / D, "1/D": 1.0 / D}
    out = {"iota": {}, "eps": {}}
    for name, ext, pattern in _RESOLUTION:
        target = g if name == "iota" else g.quotient
        for part in ("w", "o"):
            bs = g._find_block(ext, -1 if name == "iota" else 0, part)
            bt = target._find_block(ext, 0, part)
            src, tgt = g.blocks[bs], target.blocks[bt]
            for q in (0, 1):
                vs, _ = _grid_values(src.model, q, grid, cache)
                vt, wfac = _grid_values(tgt.model, q, grid, cache)
                ds, dt = len(vs), len(vt)
                blk = np.zeros((tgt.mult, dt, src.mult, ds), dtype=complex)
                for mt, ms, f, negate in pattern:
                    m = (np.eye(ds) if f is None
                         else (np.conj(vt) * wfac) @ (vs * factors[f]).T)
                    blk[mt, :, ms, :] = -m if negate else m
                if signed and name == "iota" and q == 1:
                    blk = -blk      # the form-degree sign
                out[name][((bt, q), (bs, q))] = blk.reshape(tgt.mult * dt,
                                                            src.mult * ds)
    return out


def _fun_key(g, term):
    bx, qx, by, qy, bt, qt = term[:6]
    return tuple((g.blocks[b].model.n, g.blocks[b].model.levels, q)
                 for b, q in ((bx, qx), (by, qy), (bt, qt)))


def _integrals(g):
    """Every integral the complex takes, by name (the trace pairing, one
    entry per row, on the plain complex only)."""
    out = {"trace_vector": g.trace_vector}
    if not g.extended:
        out["pairing"] = g.pairing_matrix().matrix.dense()
    for term in g.wiring:
        out[("fun",) + _fun_key(g, term)] = g._fun_tensor(term)
    if g.extended:
        for name, blocks in (("iota", g.iota_blocks), ("eps", g.eps_blocks)):
            for key, blk in blocks.items():
                out[(name, key)] = blk
    return out


@pytest.mark.parametrize("trunc,ext", [(5, False), (5, True), (8, True)],
                         ids=["plain5", "extended5", "extended8"])
def test_radial_integrals_match_grid_formulas(trunc, ext):
    g = GComplex(trunc, extended=ext)
    grid, cache = oracle_grid(g), {}
    want = {"trace_vector": grid_trace_vector(g, grid, cache)}
    if not ext:
        want["pairing"] = grid_pairing_matrix(g, grid, cache)
    for term in g.wiring:
        key = ("fun",) + _fun_key(g, term)
        if key not in want:
            want[key] = grid_fun_tensor(g, grid, term, cache)
    if ext:
        for name, blocks in grid_resolution_blocks(g, grid, cache).items():
            for key, blk in blocks.items():
                want[(name, key)] = blk
    got = _integrals(g)
    assert got.keys() == want.keys()
    worst = max(((_rel(got[k], want[k]), k) for k in got),
                key=lambda rk: rk[0])
    assert worst[0] < 1e-13, worst


def test_radial_rule_is_exact_for_the_integrands(monkeypatch):
    # a finer rule changes nothing beyond roundoff
    base = _integrals(GComplex(8, extended=True))
    monkeypatch.setattr(gcomplex, "N_RADIAL", 64)
    fine = GComplex(8, extended=True)
    assert fine.radial.n_nodes == 64
    fine = _integrals(fine)
    assert base.keys() == fine.keys()
    assert max(_rel(fine[k], base[k]) for k in base) < 1e-12


def test_iota_projection_guard_reports_leak():
    # z times the top-level sections of twist -1 need one more level of
    # twist 0 than the source has; with the same number of levels the
    # projection leaks, and the guard names the leak's size
    g = GComplex(5, extended=True)
    ms, mt = build_model(-1, 5), build_model(0, 5)
    src, _ = g._profiles(ms, 0)
    z, D = g.radial.z, g.radial.D
    factor = ((z / np.sqrt(D))[None], np.array([1]))
    wide, wfac = g._profiles(build_model(0, 6), 0)
    g._project_values(src, factor, wide, wfac, True)
    tgt, wfac = g._profiles(mt, 0)
    with pytest.raises(RuntimeError, match="projection leaked") as err:
        g._project_values(src, factor, tgt, wfac, True)
    reported = float(str(err.value).split(":")[1])
    # the same leak measured on the 2-D grid
    grid, cache = oracle_grid(g), {}
    vs, _ = _grid_values(ms, 0, grid, cache)
    vt, wt = _grid_values(mt, 0, grid, cache)
    values = vs * grid.z / np.sqrt(grid.D)
    rec = ((np.conj(vt) * wt) @ values.T).T @ vt
    leak = np.abs(rec - values).max() / max(np.abs(values).max(), 1.0)
    assert leak > 1e-3
    assert reported == pytest.approx(leak, rel=1e-2)


def test_complex_reads_no_values_on_its_grid(monkeypatch):
    seen = []
    grid_data = LineBundleModel.grid_data

    def spy(self, grid, degree):
        seen.append(type(grid).__name__)
        return grid_data(self, grid, degree)

    monkeypatch.setattr(LineBundleModel, "grid_data", spy)
    g = GComplex(5, extended=True)
    g.exactness_report()
    g.quotient.pairing_matrix()
    rng = np.random.default_rng(10)
    g.product_apply(g.random_vector(rng), g.random_vector(rng))
    assert seen and set(seen) == {"RadialGrid"}


def test_htt_checks_read_no_dense_insertion(monkeypatch):
    def refuse(self):
        raise AssertionError("dense d_iota read")

    monkeypatch.setattr(GComplex, "d_iota_signed", property(refuse))
    with pytest.raises(AssertionError, match="dense d_iota read"):
        GComplex(5, extended=True).d_iota_signed
    cfg = SuiteConfig(suite="htt", truncation=5)
    ge = GComplex(5, extended=True)
    assert all(c["pass"] for c in htt_side_conditions(ge)
               + htt_exactness(cfg, exactness_rung(cfg, ge)))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from procfs")
def test_side_conditions_stay_small_at_truncation_12():
    # the dense 6464 x 6464 d_iota alone is 668 MB.  A child's ru_maxrss
    # starts at its parent's peak (Linux keeps the high-water mark across
    # fork and exec), so the child reads its own address space's peak,
    # VmHWM; one BLAS thread keeps thread buffers out of it
    code = ("from twistorbf.gcomplex import GComplex\n"
            "from twistorbf.suites import htt_side_conditions\n"
            "checks = htt_side_conditions(GComplex(12, extended=True))\n"
            "assert all(c['pass'] for c in checks)\n"
            "print(open('/proc/self/status').read())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    peak = [ln.split()[1] for ln in out.stdout.splitlines()
            if ln.startswith("VmHWM:")]
    assert int(peak[0]) < 1024 ** 2     # kB: 1 GB


def test_exactness_ladder_stays_small():
    # the sheaf ladder 5, 11, 12, one complex at a time; each model held
    # its dbar, H and P three times over (gather, dense blocks, dense
    # graded map) and kept its basis values on every grid it saw, which
    # took this child to 119 MB.  VmHWM and one BLAS thread as above
    code = ("from twistorbf.gcomplex import GComplex\n"
            "for L in (5, 11, 12):\n"
            "    GComplex(L, extended=True).exactness_report()\n"
            "print(open('/proc/self/status').read())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    peak = [ln.split()[1] for ln in out.stdout.splitlines()
            if ln.startswith("VmHWM:")]
    assert int(peak[0]) < 100 * 1024    # kB: 100 MB


# -- ranks by components and the real resolution maps ------------------------

@pytest.fixture(scope="module")
def extended():
    made = {}

    def get(trunc):
        if trunc == L:
            return GE
        if trunc not in made:
            made[trunc] = GComplex(trunc, extended=True)
        return made[trunc]
    return get


@pytest.mark.parametrize("trunc", [5, 8, 12])
def test_rank_by_components_matches_matrix_rank_on_blocks(trunc, extended):
    g = extended(trunc)
    for blocks in (g.iota_blocks, g.eps_blocks):
        for blk in blocks.values():
            assert (rank_by_components(blk, 1e-9)[0]
                    == np.linalg.matrix_rank(blk, tol=1e-9))


@pytest.mark.parametrize("trunc", [4, 6])
def test_rank_by_components_matches_matrix_rank_on_dbar(trunc):
    d = GComplex(trunc).dbar_full
    assert (rank_by_components(d, 1e-8)[0]
            == np.linalg.matrix_rank(d, tol=1e-8))


def test_exactness_report_reads_no_whole_block_rank(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matrix_rank called")

    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    assert all(r["exact"] for r in GComplex(5, extended=True)
               .exactness_report())


@pytest.mark.parametrize("trunc", [6, 12])
def test_exactness_report_rank_margin(trunc, extended):
    # the kept and dropped singular values over the components are those
    # of the whole blocks
    g = extended(trunc)
    rows = g.exactness_report()
    assert len(rows) == 8
    for row in rows:
        bs = g._find_block(row["ext"], -1, row["part"])
        bm = g._find_block(row["ext"], 0, row["part"])
        bq = g.quotient._find_block(row["ext"], 0, row["part"])
        q = row["degree"]
        s = np.concatenate([np.linalg.svd(blk, compute_uv=False) for blk in (
            g.iota_blocks[((bm, q), (bs, q))],
            g.eps_blocks[((bq, q), (bm, q))])])
        assert row["sv_kept_min"] == pytest.approx(s[s > 1e-9].min(),
                                                   rel=1e-12)
        assert row["sv_dropped_max"] == s[s <= 1e-9].max(initial=0.0) == 0.0
        assert row["sv_kept_min"] > 0.2


def test_resolution_maps_are_real():
    for blocks in (GE.iota_blocks, GE.eps_blocks):
        assert {blk.dtype for blk in blocks.values()} == {np.dtype(float)}
    assert GE.d_iota_signed.dtype == GE.eps_matrix.dtype == np.float64
    assert GE.trace_vector.dtype == complex


def test_complex_profile_is_refused(monkeypatch):
    grid_data = LineBundleModel.grid_data

    def turned(self, grid, degree):
        vals, wfac = grid_data(self, grid, degree)
        return vals * np.exp(0.25j), wfac

    monkeypatch.setattr(LineBundleModel, "grid_data", turned)
    with pytest.raises(ValueError, match="radial profile is not real: "
                       "largest [|]imag[|] ") as err:
        GComplex(3)
    # the residual is the imaginary part relative to max(|profile|, 1):
    # sin(1/4) times the largest |profile| when that is below 1
    reported = float(str(err.value).rsplit(" ", 1)[1])
    assert 0.1 < reported < np.sin(0.25) * 1.01


def weight_class_loop(x, y, t, wfac):
    """The radial sum as a loop over np.unique weight classes, scattered
    with np.ix_: the form `_radial_sum` had before its classes became the
    runs of one argsort."""
    (vx, wx), (vy, wy), (vt, wt) = x, y, t
    tc = np.conj(vt) * wfac
    out = np.zeros((len(wx), len(wy), len(wt)),
                   dtype=np.result_type(vx, vy, tc))

    def classes(w):
        return {k: np.nonzero(w == k)[0] for k in np.unique(w)}
    cls_t = classes(wt)
    for a, ix in classes(wx).items():
        for b, iy in classes(wy).items():
            it = cls_t.get(a + b)
            if it is None:
                continue
            p = (vx[ix, None, :] * vy[None, iy, :]).reshape(-1, tc.shape[1])
            out[np.ix_(ix, iy, it)] = (p @ tc[it].T).reshape(
                len(ix), len(iy), len(it))
    return out


@pytest.mark.parametrize("trunc,ext", [(5, True), (8, True), (12, True),
                                       (6, False)])
def test_radial_sum_equals_weight_class_loop(trunc, ext, monkeypatch):
    calls = []

    def spy(*args):
        out = _radial_sum(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(gcomplex, "_radial_sum", spy)
    g = GComplex(trunc, extended=ext)
    if not ext:
        g.pairing_matrix()
        for term in g.wiring:
            g._fun_tensor(term)
    assert calls
    for (x, y, t, wfac), out in calls:
        assert np.array_equal(out, weight_class_loop(x, y, t, wfac))
        # the complex path too
        cx, cy, ct = ((v + 0j, w) for v, w in (x, y, t))
        assert np.array_equal(_radial_sum(cx, cy, ct, wfac),
                              weight_class_loop(cx, cy, ct, wfac))
