import numpy as np
import pytest

from twistorbf.gcomplex import GComplex
from twistorbf.graded import BiDegree

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


def test_component_dims_match_closed_formulas():
    for trunc in (4, 7):
        g = GComplex(trunc, extended=False)
        dims = g.component_dims()
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
    assert np.abs(GE.d_iota_full @ GE.d_iota_full).max() == 0.0


def test_trace_kills_image_and_pairing_matches_product():
    rng = np.random.default_rng(6)
    x = G.random_vector(rng)
    assert abs(G.trace(G.dbar_full @ x)) < 1e-12
    y = G.random_vector(rng)
    P = G.pairing_matrix()
    v1 = P.value(x, y)
    v2 = G.trace(G.product_apply(x, y))
    assert abs(v1 - v2) < 1e-12 * abs(v1)


def test_pairing_parity_symmetry_nondegeneracy():
    P = G.pairing_matrix()
    assert P.parity_violation() == 0.0
    assert P.graded_symmetry_residual() < 1e-13
    assert P.nondegeneracy() > 0.99


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
    assert np.abs(E @ GE.d_iota_full).max() < 1e-12
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
    b = {( "o", 0): BiDegree(0, 0), ("o", 1): BiDegree(3, 2),
         ("o", 2): BiDegree(6, 4), ("w", 0): BiDegree(4, 4),
         ("w", 1): BiDegree(7, 6), ("w", 2): BiDegree(10, 8)}
    for blk in G.blocks:
        assert blk.bidegree == b[(blk.part, blk.ext)]
    for blk in GE.blocks:
        expect = b[(blk.part, blk.ext)]
        if blk.hom == -1:
            expect = expect + BiDegree(-1, 0)
        assert blk.bidegree == expect


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
    batch = g.product_batch(X, Y)
    want = np.array([[g.product_apply(x, y) for y in Y] for x in X])
    assert _rel(batch, want) < 1e-12
    assert _rel(g.product_contract(X, Y, R),
                np.einsum("abi,ri->abr", batch, R)) < 1e-12


@pytest.mark.parametrize("g", [G, GE], ids=["plain", "extended"])
def test_left_mult_operator_matches_product_apply(g):
    rng = np.random.default_rng(9)
    x, y = (g.random_vector(rng, max_level=1, matrix_rank=2)
            for _ in range(2))
    W = g.left_mult_operator(x).reshape(2 * g.dim, 2 * g.dim)
    got = (W @ y.reshape(2 * g.dim, 2)).reshape(y.shape)
    assert _rel(got, g.product_apply(x, y)) < 1e-12


DENSE = ("dbar_full", "hom_full", "proj_full", "d_iota_full",
         "d_iota_signed", "eps_matrix")


def test_dense_maps_are_the_report_blocks():
    # the dense forms hold exactly the blocks exactness_report reads
    for blocks, dense, rows in ((GE.iota_blocks, GE.d_iota_full, GE),
                                (GE.eps_blocks, GE.eps_matrix, GE.quotient)):
        rest = dense.copy()
        for ((bt, qt), (bs, qs)), blk in blocks.items():
            r, c = rows.block_slice(bt, qt), GE.block_slice(bs, qs)
            assert np.array_equal(dense[r, c], blk)
            rest[r, c] = 0.0
        assert not np.any(rest)


def test_signed_insertion_negates_form_columns():
    s = np.ones(GE.dim)
    for bi in range(len(GE.blocks)):
        s[GE.block_slice(bi, 1)] = -1.0
    assert np.array_equal(GE.d_iota_signed, GE.d_iota_full * s)


def test_dense_maps_are_cached():
    for name in DENSE:
        assert getattr(GE, name) is getattr(GE, name)


def test_exactness_report_builds_no_dense_map():
    g = GComplex(6, extended=True)
    g.exactness_report()
    assert not set(DENSE) & set(vars(g))
    assert not set(DENSE) & set(vars(g.quotient))
