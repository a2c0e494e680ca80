import numpy as np
import pytest

from twistorbf.gcomplex import GComplex
from twistorbf import bv

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


def test_action_matches_structure_constant_expansion():
    # support chosen to hit nonzero quadratic and cubic constants
    rng = np.random.default_rng(3)
    quad = DATA.pairing @ DATA.dbar
    rows = np.where(np.abs(quad).max(axis=1) > 1e-8)[0]
    support = set()
    for i in rng.choice(rows, size=4, replace=False):
        support.add(int(i))
        support.add(int(np.argmax(np.abs(quad[i]))))
    e = np.zeros((G.dim, 1, 1), dtype=complex)
    i0 = sorted(support)[0]
    e[i0, 0, 0] = 1.0
    W = G.left_mult_operator(e).reshape(G.dim, G.dim)
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
    oracle = bv.action_expansion_oracle(DATA, idxs, mats)
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
    assert abs(DATA.trace_value(dx)) < 1e-12 * scale


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
    P = DATA.pairing.copy()
    P[:, 0] = 0.0
    with pytest.raises(ValueError):
        bv.BFData(G, rank=2, pairing=P)


def test_extended_complex_rejected():
    with pytest.raises(ValueError):
        bv.BFData(GComplex(6, extended=True), rank=2)


def test_corrupted_differential_detected():
    bad = DATA.dbar.copy()
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
    want = bv.SuperField({0: DATA.to_grid(G.product_apply(x, y))}, px + py)
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
