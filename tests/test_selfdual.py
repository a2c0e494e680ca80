"""Exhaustive checks of the exterior algebra quotient and its cyclic hull.

Everything here is exact arithmetic, so the assertions are equalities (or
1e-12 where a sqrt or lstsq is involved), not tolerances.  The hull's
cohomology match reads the transfer of GComplex(6); its degree-one product
is checked against the closed-form section products to 1e-13.
"""

import copy
import math

import numpy as np
import pytest

from twistorbf import selfdual
from twistorbf.gcomplex import GComplex
from twistorbf.graded import exterior_algebra, koszul_sign, merge_sign
from twistorbf.radial import hermitian_inner
from twistorbf.selfdual import (
    A_ALG, EPS, EXT4, LAMBDA2_MINUS, LAMBDA2_PLUS, SPIN, SUB_INDEX, SUBSETS,
    HULL_DIMS, U_ALG, VOL_INDEX, check_u_cohomology_iso, graded_dims,
    lambda2_minus_action, spinor_matrix,
)
from twistorbf.sphere import build_model
from twistorbf.suites import htt_hull
from twistorbf.transfer import build_contraction, transfer


def _e(*I):
    return EXT4.basis_vector(I)


def test_star_basics():
    vol = np.zeros(16)
    vol[VOL_INDEX] = 1.0
    assert np.array_equal(EXT4.star(_e()), vol)
    assert np.array_equal(EXT4.star(_e(1, 2)), _e(3, 4))
    assert np.array_equal(EXT4.star(_e(1, 3)), -_e(2, 4))
    assert np.array_equal(EXT4.star(_e(1, 4)), _e(2, 3))


def test_star_squares_to_parity_of_degree():
    s2 = EXT4.star_matrix @ EXT4.star_matrix
    for i in range(16):
        k = EXT4.form_degree[i]
        assert s2[i, i] == (1 if k % 2 == 0 else -1)
        assert np.count_nonzero(s2[i]) == 1


def test_wedge_star_reproduces_inner_product():
    for i in range(16):
        for j in range(16):
            x, y = np.eye(16)[i], np.eye(16)[j]
            lhs = EXT4.wedge(x, EXT4.star(y))[VOL_INDEX]
            assert lhs == EXT4.inner(x, y)


def _merge_sign(I, J):
    """Tuple oracle: sign of sorting the concatenation I+J, 0 if they meet."""
    if set(I) & set(J):
        return 0
    inv = sum(1 for a in I for b in J if a > b)
    return -1 if inv % 2 else 1


def _bits(m):
    return tuple(b for b in range(m.bit_length()) if m >> b & 1)


def test_merge_sign_matches_tuple_rule():
    for s in range(64):
        for t in range(64):
            assert merge_sign(s, t) == _merge_sign(_bits(s), _bits(t))
    for I in SUBSETS:
        for J in SUBSETS:
            mask = sum(1 << (a - 1) for a in I), sum(1 << (b - 1) for b in J)
            assert merge_sign(*mask) == _merge_sign(I, J)


def test_wedge_and_star_match_subset_loops():
    # the subset-tuple construction the mask rule replaced
    n = len(SUBSETS)
    wedge = np.zeros((n, n, n), dtype=np.int8)
    star = np.zeros((n, n), dtype=np.int8)
    for i, I in enumerate(SUBSETS):
        for j, J in enumerate(SUBSETS):
            if _merge_sign(I, J):
                wedge[i, j, SUB_INDEX[tuple(sorted(I + J))]] = \
                    _merge_sign(I, J)
        Ic = tuple(sorted(set((1, 2, 3, 4)) - set(I)))
        star[SUB_INDEX[Ic], i] = _merge_sign(I, Ic)
    for got, want in ((EXT4.wedge_tensor, wedge), (EXT4.star_matrix, star)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert SUBSETS[:6] == ((), (1,), (2,), (3,), (4,), (1, 2))
    assert np.array_equal(exterior_algebra(4)[1], wedge)


def test_wedge_graded_commutative():
    for i, I in enumerate(SUBSETS):
        for j, J in enumerate(SUBSETS):
            x, y = np.eye(16)[i], np.eye(16)[j]
            sgn = (-1) ** (len(I) * len(J))
            assert np.array_equal(EXT4.wedge(x, y), sgn * EXT4.wedge(y, x))


def _sd_asd_split(x):
    # the +1 and -1 star eigencomponents of a 2-form
    sx = EXT4.star(x)
    return (x + sx) / 2.0, (x - sx) / 2.0


def test_sd_asd_split():
    plus, minus = _sd_asd_split(_e(1, 2))
    assert np.array_equal(plus, (_e(1, 2) + _e(3, 4)) / 2)
    assert np.array_equal(minus, (_e(1, 2) - _e(3, 4)) / 2)
    for v in LAMBDA2_PLUS:
        p, m = _sd_asd_split(v)
        assert np.array_equal(p, v) and not m.any()
        assert np.array_equal(EXT4.star(v), v)
    for v in LAMBDA2_MINUS:
        p, m = _sd_asd_split(v)
        assert np.array_equal(m, v) and not p.any()
        assert np.array_equal(EXT4.star(v), -v)
    assert np.linalg.matrix_rank(np.array(LAMBDA2_PLUS)) == 3
    assert np.linalg.matrix_rank(np.array(LAMBDA2_MINUS)) == 3


def test_quotient_algebra_products():
    I8 = np.eye(8)
    assert np.array_equal(A_ALG.multiply(A_ALG.unit, I8[3]), I8[3])
    # e1 e2 = anti-self-dual part of e1^e2, read through the projection
    oracle = A_ALG.projection @ _sd_asd_split(_e(1, 2))[1]
    assert np.allclose(A_ALG.multiply(I8[1], I8[2]), oracle, atol=0)
    for mu in range(4):
        assert not A_ALG.multiply(I8[1 + mu], I8[1 + mu]).any()
    # everything above the anti-self-dual part dies
    for i in range(5, 8):
        for j in range(1, 8):
            assert not A_ALG.multiply(I8[i], I8[j]).any()


def test_quotient_algebra_associative_and_graded_commutative():
    I8 = np.eye(8)
    red = A_ALG.space.reduced_degrees()
    for i in range(8):
        for j in range(8):
            xy = A_ALG.multiply(I8[i], I8[j])
            sgn = koszul_sign(red[i], red[j])
            assert np.array_equal(xy, sgn * A_ALG.multiply(I8[j], I8[i]))
            for k in range(8):
                lhs = A_ALG.multiply(xy, I8[k])
                rhs = A_ALG.multiply(I8[i], A_ALG.multiply(I8[j], I8[k]))
                assert np.array_equal(lhs, rhs)


def test_hull_dimensions_and_bidegrees():
    assert np.bincount(U_ALG.space.reduced_degrees()).tolist() == [1, 7, 7, 1]
    for i in range(8):
        k, l = U_ALG.space.degrees[i]
        kd, ld = U_ALG.space.degrees[8 + i]
        assert (kd, ld) == (11 - k, 8 - l)


def test_hull_dual_ideal_squares_to_zero():
    IU = np.eye(16)
    for i in range(8, 16):
        for j in range(8, 16):
            assert not U_ALG.multiply(IU[i], IU[j]).any()


def test_hull_module_action_is_dual_of_multiplication():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = np.zeros(16)
        w = np.zeros(16)
        x[:8] = rng.standard_normal(8)
        w[:8] = rng.standard_normal(8)
        m = rng.integers(0, 8)
        xi = np.eye(16)[8 + m]
        lhs = U_ALG.multiply(xi, x)[8:] @ w[:8]
        rhs = U_ALG.multiply(x, w)[m]
        assert abs(lhs - rhs) < 1e-12


def test_hull_associative():
    IU = np.eye(16)
    for i in range(16):
        for j in range(16):
            xy = U_ALG.multiply(IU[i], IU[j])
            for k in range(16):
                lhs = U_ALG.multiply(xy, IU[k])
                rhs = U_ALG.multiply(IU[i], U_ALG.multiply(IU[j], IU[k]))
                assert np.array_equal(lhs, rhs)


def test_hull_trace_and_pairing():
    IU = np.eye(16)
    assert U_ALG.trace(U_ALG.multiply(U_ALG.unit, IU[8])) == 1.0
    pr = U_ALG.pairing()
    # the gather holds every entry of tr(x y): one per row
    assert np.array_equal(pr.matrix.dense(),
                          U_ALG.structure[:, :, U_ALG.trace_index])
    assert pr.parity_violation() == 0.0
    assert pr.graded_symmetry_residual() == 0.0
    assert pr.nondegeneracy() > 0.5
    # cyclicity with the Koszul sign, basis pair by basis pair
    red = U_ALG.space.reduced_degrees()
    for i in range(16):
        for j in range(16):
            lhs = U_ALG.trace(U_ALG.multiply(IU[i], IU[j]))
            rhs = U_ALG.trace(U_ALG.multiply(IU[j], IU[i]))
            assert lhs == koszul_sign(red[i], red[j]) * rhs


def test_corrupted_structure_breaks_associativity():
    c = U_ALG.structure.copy()
    c[1, 9, 9] += 0.5
    IU = np.eye(16)
    worst = 0.0
    for i in range(16):
        for j in range(16):
            xy = np.einsum("i,j,ijk->k", IU[i], IU[j], c)
            for k in range(16):
                lhs = np.einsum("i,j,ijk->k", xy, IU[k], c)
                yz = np.einsum("i,j,ijk->k", IU[j], IU[k], c)
                rhs = np.einsum("i,j,ijk->k", IU[i], yz, c)
                worst = max(worst, np.abs(lhs - rhs).max())
    assert worst > 0.1


def test_spinor_matrix_determinant():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.standard_normal(4)
        assert abs(np.linalg.det(spinor_matrix(x)) - x @ x) < 1e-12
    m = spinor_matrix([1.0, 0, 0, 0])
    assert np.allclose(m, 1.0j * np.array([[0, 1], [1, 0]]), atol=0)


def test_spinor_one_form_map_invertible():
    mats = np.array([spinor_matrix(np.eye(4)[mu]).ravel() for mu in range(4)])
    assert np.linalg.matrix_rank(mats) == 4


def _sym_coords(m):
    return np.array([m[0, 0], m[0, 1] + m[1, 0], m[1, 1]])


def test_spinor_contractions_split_the_eigenspaces():
    # psi_plus is the column contraction and psi_minus the row one; each
    # kills the other eigenspace and is invertible on its own
    for basis, psi in ((LAMBDA2_PLUS, SPIN.psi_plus),
                       (LAMBDA2_MINUS, SPIN.psi_minus)):
        mats = np.array([_sym_coords(psi(v)) for v in basis])
        assert np.linalg.matrix_rank(mats, tol=1e-9) == 3
    for v in LAMBDA2_MINUS:
        assert np.abs(SPIN.psi_plus(v)).max() == 0.0
        s = SPIN.psi_minus(v)
        assert np.abs(s - s.T).max() == 0.0
        assert np.abs(s).max() > 0.5
    for v in LAMBDA2_PLUS:
        assert np.abs(SPIN.psi_minus(v)).max() == 0.0
        s = SPIN.psi_plus(v)
        assert np.abs(s - s.T).max() == 0.0
        assert np.abs(s).max() > 0.5


def test_spinor_action_matches_metric_action():
    # for every basis pair (B in Lambda^2_-, e_mu): psi1(B o e_mu) is
    # -1/4 psi1(e_mu) EPS psi_minus(B); with EPS on the other side of
    # psi_minus(B) no one scalar fits
    worst, other = 0.0, []
    for b in np.eye(3):
        S = SPIN.psi_minus(sum(c * f for c, f in zip(b, LAMBDA2_MINUS)))
        for mu in range(4):
            e = np.eye(4)[mu]
            acted = SPIN.psi1(np.r_[0.0, lambda2_minus_action(b, e),
                                    np.zeros(11)])
            M = SPIN.psi1(np.r_[0.0, e, np.zeros(11)])
            worst = max(worst, np.abs(acted + 0.25 * M @ EPS @ S).max())
            other.append((acted.ravel(), (M @ S @ EPS).ravel()))
    assert worst < 1e-13
    t, c = (np.concatenate(x) for x in zip(*other))
    fit = np.vdot(c, t) / np.vdot(c, c)
    assert np.abs(t - fit * c).max() > 0.1


def test_metric_action_antisymmetric():
    # B o v is the infinitesimal-rotation picture: (B o v, v) = 0
    rng = np.random.default_rng(11)
    for _ in range(20):
        b = rng.standard_normal(3)
        v = rng.standard_normal(4)
        out = lambda2_minus_action(b, v)
        assert abs((out @ v).real) < 1e-12


@pytest.fixture(scope="module")
def tb():
    # the transfer the htt suite's hull records read at its default
    # truncation, min(12, 6)
    return transfer(build_contraction(GComplex(6)), max_arity=2)


def test_u_cohomology_identification(tb):
    assert HULL_DIMS == {"o": {0: 1, 1: 4, 2: 3}, "w": {1: 3, 2: 4, 3: 1}}
    assert graded_dims(tb) == HULL_DIMS
    rep = check_u_cohomology_iso(tb)
    assert rep["pass"]
    assert rep["product_rank"] == 3
    assert rep["basis_change_residual"] < 1e-10
    assert rep["basis_change_condition"] < 1e3


def section_product_coeffs(model1, model2):
    """Exact expansion of products of twist-1 holomorphic sections in twist 2.

    Returns P[a, b, c] with s_a s_b = sum_c P[a,b,c] t_c, computed with the
    closed-form integrals (no grids), where s runs over the level-0 basis of
    the twist-1 model and t over the level-0 basis of the twist-2 model.
    """
    s_funs = [model1.funs0[i] for i in range(model1.dim0)
              if model1.level0[i] == 0]
    t_funs = [model2.funs0[i] for i in range(model2.dim0)
              if model2.level0[i] == 0]
    P = np.zeros((len(s_funs), len(s_funs), len(t_funs)), dtype=complex)
    for a, fa in enumerate(s_funs):
        for b, fb in enumerate(s_funs):
            prod = fa.mul(fb)
            for c, tc in enumerate(t_funs):
                P[a, b, c] = hermitian_inner(prod, tc, model2.n + 2)
            # products of level-0 sections must stay in the level-0 sector
            norm2 = hermitian_inner(prod, prod, model2.n + 2).real
            assert abs(norm2 - np.abs(P[a, b]).dot(np.abs(P[a, b]))) < 1e-12
    return P


def test_transferred_degree_one_product_matches_section_products(tb):
    # the doublet harmonics, index (alpha, section), multiply by the
    # symplectic form on alpha times the product of the sections
    g, con = tb.con.algebra, tb.con
    d, t = (np.flatnonzero(np.isin(con.harm_index, np.arange(g.dim)[
        g.block_slice(g._find_block(ext, 0, "o"), 0)])) for ext in (1, 2))
    assert (len(d), len(t)) == (4, 3)
    P = section_product_coeffs(build_model(1, 12), build_model(2, 12))
    want = np.einsum("ab,ijc->aibjc", EPS, P).reshape(4, 4, 3)
    block = tb.dense(2)[np.ix_(d, d)]
    assert np.abs(block[:, :, t] - want).max() <= 1e-13 * np.abs(want).max()
    assert not np.delete(block, t, axis=2).any()


def test_hull_product_match_sees_a_flipped_product_entry(tb, monkeypatch):
    named = {c["name"]: c for c in htt_hull(tb)}
    assert named["hull-product-match"]["pass"]
    # e1 e2 -> its anti-self-dual part: breaks the antisymmetry that the
    # transferred product of two degree-one classes has
    bad = copy.copy(A_ALG)
    bad.structure = A_ALG.structure.copy()
    assert bad.structure[1, 2, 5] == 0.5
    bad.structure[1, 2, 5] = -0.5
    monkeypatch.setattr(selfdual, "A_ALG", bad)
    named = {c["name"]: c for c in htt_hull(tb)}
    assert not named["hull-product-match"]["pass"]
    assert not named["hull-basis-change-invertible"]["pass"]


def test_wrong_harmonic_degree_fails_the_hull_records():
    # a wiring fault that moves one harmonic to the wrong degree must give
    # failing records, not an exception that ends the suite without them
    tb5 = transfer(build_contraction(GComplex(5)), max_arity=2)
    assert all(c["pass"] for c in htt_hull(tb5))
    con = copy.copy(tb5.con)
    con.harm_degrees = con.harm_degrees.copy()
    con.harm_degrees[np.flatnonzero(con.harm_degrees == 1)[0]] += 1
    bad = copy.copy(tb5)
    bad.con = con
    named = {c["name"]: c for c in htt_hull(bad)}
    assert named["hull-graded-dimensions"]["w_dims"] == {1: 2, 2: 5, 3: 1}
    assert not any(c["pass"] for c in named.values())
    # the product records are not computed on the wrong dimensions
    assert named["hull-product-rank"]["residual"] == math.inf
    assert named["hull-product-match"]["residual"] == math.inf
