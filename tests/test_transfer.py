import os
import subprocess
import sys
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from twistorbf.gcomplex import GComplex
from twistorbf.graded import Gather, Stack, koszul_sign_permutation
from twistorbf.sphere import build_model
from twistorbf.transfer import (
    Contraction, DenseAlgebra, Transferred, build_contraction,
    check_ainfinity, check_cyclic, check_linfty_relations, harmonic_pairing, heisenberg_dga, lambda_oracle, quasi_iso_linear,
    random_homogeneous, transfer)

G = GComplex(6)
CON = build_contraction(G)
TB = transfer(CON, max_arity=4)


def hidx(con, k):
    return int(np.nonzero(con.i_mat[:, k])[0][0])


def _dense(tb):
    """Every transferred operation as a dense array, keyed by arity."""
    return {n: tb.dense(n) for n in range(1, tb.max_arity + 1)}


def _support(T):
    """The support form (index tuple, values) of a dense tensor."""
    idx = np.nonzero(T)
    return idx, T[idx]


class TestToy:
    def setup_method(self):
        self.alg, self.d, self.H, self.proj, self.degs = heisenberg_dga()
        self.con = Contraction(self.alg, self.d, self.H, self.proj,
                               self.degs, label="toy")

    def test_algebra_identities(self):
        rng = np.random.default_rng(1)
        alg, d, degs = self.alg, self.d, self.degs

        def hom(r):
            v = np.zeros(8)
            sel = degs == r
            v[sel] = rng.standard_normal(sel.sum())
            return v

        for ra in range(4):
            for rb in range(4):
                a, b = hom(ra), hom(rb)
                ab = alg.product_apply(a, b)
                ba = alg.product_apply(b, a)
                assert np.abs(ab - (-1.0) ** (ra * rb) * ba).max() < 1e-14
                leib = d @ ab - alg.product_apply(d @ a, b) \
                    - (-1.0) ** ra * alg.product_apply(a, d @ b)
                assert np.abs(leib).max() < 1e-14
                c = hom(1)
                assoc = alg.product_apply(ab, c) \
                    - alg.product_apply(a, alg.product_apply(b, c))
                assert np.abs(assoc).max() < 1e-14

    def test_hand_values(self):
        # basis order: 1, e1, e2, e3, e12, e13, e23, e123; harmonics keep
        # 1, e1, e2, e13, e23, e123; the only exact product is e1 e2
        tb = transfer(self.con, max_arity=4)
        a = {n: k for k, n in enumerate(["one", "e1", "e2", "e13",
                                         "e23", "e123"])}
        m2, m3, m4 = tb.dense(2), tb.dense(3), tb.dense(4)
        assert np.abs(tb.m1).max() == 0.0
        assert m2[a["e1"], a["e23"], a["e123"]] == 1.0
        assert np.abs(m2[a["e1"], a["e2"]]).max() == 0.0
        assert m3[a["e1"], a["e2"], a["e2"], a["e23"]] == -1.0
        assert m3[a["e2"], a["e1"], a["e2"], a["e23"]] == 2.0
        assert m3[a["e2"], a["e2"], a["e1"], a["e23"]] == -1.0
        assert m3[a["e1"], a["e1"], a["e2"], a["e13"]] == 1.0
        assert np.abs(m4).max() == 0.0

    def test_oracle_agrees(self):
        tb = transfer(self.con, max_arity=3)
        m3 = tb.dense(3)
        rng = np.random.default_rng(7)
        for _ in range(25):
            idx = rng.integers(6, size=3)
            vecs = [self.con.i_mat[:, t].astype(complex) for t in idx]
            dd = [int(self.con.harm_degrees[t]) for t in idx]
            ref = self.con.p_mat @ lambda_oracle(self.alg, self.H, vecs, dd)
            assert np.abs(ref - m3[tuple(idx)]).max() < 1e-14

    def test_relations_exact(self):
        tb = transfer(self.con, max_arity=4)
        ai = check_ainfinity(tb, through_arity=5)
        assert all(v < 1e-13 for v in ai.values())
        rng = np.random.default_rng(3)
        lr = check_linfty_relations(tb, rng, max_arity=4, samples=4)
        assert all(v < 1e-13 for v in lr.values())
        rng = np.random.default_rng(4)
        lr2 = check_linfty_relations(tb, rng, max_arity=4, samples=3,
                                     rank=2)
        assert all(v < 1e-13 for v in lr2.values())

    @pytest.mark.parametrize("rank", [None, 2])
    def test_bracket_matches_einsum_on_nonzero_m3(self, rank):
        # the toy's m3 is nonzero, so arity 3 sums over a real support
        tb = transfer(self.con, max_arity=3)
        m = _dense(tb)
        assert np.abs(m[3]).max() > 0.5
        rng = np.random.default_rng(13)
        nonzero = 0
        for degs in [(a, b) for a in range(4) for b in range(4)] + [
                (1, 1, 1), (1, 1, 2), (0, 1, 1), (1, 2, 1)]:
            xs = [random_homogeneous(tb.degrees, rng, r, rank)
                  for r in degs]
            want, scale = _bracket_oracle(m[len(degs)], xs, degs)
            got = tb.bracket(xs)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * scale
            nonzero += len(degs) == 3 and scale > 0.1
        assert nonzero > 0

    def test_corrupted_bracket_fails(self):
        tb = transfer(self.con, max_arity=3)
        bad = tb.dense(2)
        bad[1, 2, 4] += 0.3
        tbad = Transferred(tb.m1, tb.support | {2: _support(bad)},
                           tb.degrees, self.con)
        rng = np.random.default_rng(5)
        # the corrupted entry feeds degree (1,1) inputs, so pin the probes
        lr = check_linfty_relations(tbad, rng, max_arity=3, samples=4,
                                    rank=2, degrees=(1, 1, 1))
        assert max(lr.values()) > 1e-3

    def test_violated_side_condition_raises(self):
        col, val = self.H.col.copy(), self.H.val.copy()
        col[0], val[0] = 4, 0.2   # homotopy now leaks onto a harmonic
        with pytest.raises(ValueError, match="residual"):
            Contraction(self.alg, self.d, Gather(8, np.arange(8), col, val),
                        self.proj, self.degs)

    def test_non_coordinate_projector_raises(self):
        # the inclusion is read off a diagonal 0/1 projector; one with an
        # off-diagonal entry or a non-idempotent diagonal is refused,
        # naming its residual
        c, s = np.cos(0.3), np.sin(0.3)
        col, val = self.proj.col.copy(), self.proj.val.copy()
        col[3], val[3] = 2, c * s     # e3 picks up part of e2
        with pytest.raises(ValueError, match="off-diagonal residual 2.82"):
            Contraction(self.alg, self.d, self.H,
                        Gather(8, np.arange(8), col, val), self.degs)
        val = self.proj.val.copy()
        val[0] = 0.5
        with pytest.raises(ValueError, match="idempotence residual 2.5"):
            Contraction(self.alg, self.d, self.H,
                        Gather(8, np.arange(8), self.proj.col, val),
                        self.degs)


def _line_bundle_contraction(n, levels):
    m = build_model(n, levels)
    return Contraction(None, m.dbar, m.hom, m.proj,
                       m.total_space.reduced_degrees())


class TestLineBundles:
    def test_negative_twist_has_no_harmonics(self):
        con = _line_bundle_contraction(-1, 5)
        assert con.nharm == 0
        r = quasi_iso_linear(con)
        assert r["dim_h_source"] == r["dim_h_target"] == 0
        assert r["isomorphism"]

    def test_twist_minus_three(self):
        con = _line_bundle_contraction(-3, 6)
        assert con.nharm == 2
        assert (con.harm_degrees == 1).all()


@pytest.mark.parametrize("n", [-3, 0, 2])
def test_chain_identity_residual_sees_a_planted_error(n):
    m = build_model(n, 6)
    assert m.chain_homotopy_residual() < 1e-14
    Contraction(None, m.dbar, m.hom, m.proj,
                m.total_space.reduced_degrees())
    i = np.flatnonzero(m.hom.val)[0]
    m.hom.val[i] *= 1 + 1e-6
    assert m.chain_homotopy_residual() == pytest.approx(1e-6, rel=1e-6)
    with pytest.raises(ValueError, match="chain identity residual 1.0"):
        Contraction(None, m.dbar, m.hom, m.proj,
                    m.total_space.reduced_degrees())


class TestSheafComplex:
    def test_side_conditions(self):
        assert all(v < 1e-10 for v in CON.side_conditions.values())
        counts = np.bincount(CON.harm_degrees)
        assert counts.tolist() == [1, 7, 7, 1]

    def test_transferred_differential_vanishes(self):
        assert np.abs(TB.m1).max() == 0.0

    def test_higher_operations_vanish(self):
        # the binary product survives; the arity 3 and 4 operations are
        # exactly zero on this harmonic space
        assert np.abs(TB.dense(2)).max() > 0.1
        assert np.abs(TB.dense(3)).max() < 1e-13
        assert np.abs(TB.dense(4)).max() < 1e-13

    def test_oracle_spot_checks(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            idx = rng.integers(CON.nharm, size=3)
            vecs = [CON.i_mat[:, t].astype(complex) for t in idx]
            dd = [int(CON.harm_degrees[t]) for t in idx]
            ref = CON.p_mat @ lambda_oracle(G, G.hom_full, vecs, dd)
            assert np.abs(ref - TB.dense(3)[tuple(idx)]).max() < 1e-12

    def test_ainfinity_relations(self):
        ai = check_ainfinity(TB, through_arity=5)
        assert all(v < 1e-12 for v in ai.values())

    def test_linfty_relations_matrix_coefficients(self):
        rng = np.random.default_rng(11)
        lr = check_linfty_relations(TB, rng, max_arity=4, samples=2,
                                    rank=2)
        assert all(v < 1e-10 for v in lr.values())

    def test_cyclic_compatibility(self):
        P = harmonic_pairing(CON)
        sv = np.linalg.svd(P, compute_uv=False)
        assert sv[-1] > 0.5
        rng = np.random.default_rng(21)
        cy = check_cyclic(TB, P, rng, arities=(2, 3, 4), samples=5, rank=2)
        assert all(v < 1e-10 for v in cy.values())

    def test_quasi_iso_plain(self):
        r = quasi_iso_linear(CON)
        assert np.abs(r["psi"] - CON.i_mat).max() == 0.0
        assert r["cochain_residual"] == 0.0
        assert r["isomorphism"]
        assert r["dim_h_source"] == 16


def test_quasi_iso_ranks_m1_at_one_cut(monkeypatch):
    # a nilpotent m1 with singular values 1e3 and 5e-8: at 1e-10 of the
    # largest the second counts as zero for m1's rank as for its null space
    alg, d, H, proj, degs = heisenberg_dga()
    con = Contraction(alg, d, H, proj, degs)
    m1 = np.zeros((con.nharm, con.nharm), dtype=complex)
    m1[0, 1], m1[2, 3] = 1e3, 5e-8
    assert np.abs(m1 @ m1).max() == 0.0
    psi, phi = con.i_mat.astype(complex), con.p_mat.astype(complex)
    monkeypatch.setattr(con, "perturbed", lambda d2=None: (psi, phi, m1))
    r = quasi_iso_linear(con)
    # psi carries the null space of m1 off d's image, so induced_rank is
    # its dimension: the source cohomology is what it leaves over m1's image
    assert r["induced_rank"] == con.nharm - 1
    assert r["dim_h_source"] == con.nharm - 2 * (con.nharm - r["induced_rank"])


class TestExtendedComplex:
    def setup_method(self):
        self.ge = GComplex(6, extended=True)
        self.con = build_contraction(self.ge)

    def test_quasi_iso(self):
        r = quasi_iso_linear(self.con, d2=self.ge.d_iota_signed)
        assert r["cochain_residual"] < 1e-10
        assert r["isomorphism"]
        assert r["dim_h_source"] == r["dim_h_target"] == 16
        m1 = r["m1"]
        assert np.linalg.matrix_rank(m1, tol=1e-10) == 16
        assert np.abs(m1 @ m1).max() < 1e-12
        # the correction genuinely moves the inclusion
        assert np.abs(r["psi"] - self.con.i_mat).max() > 0.1

    def test_quasi_iso_reads_no_whole_operator_rank(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("matrix_rank called")

        monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
        for con, d2 in ((CON, None), (self.con, self.ge.d_iota_signed)):
            r = quasi_iso_linear(con, d2=d2)
            assert r["isomorphism"] and r["induced_rank"] == 16

    def test_leibniz_of_transferred_differential(self):
        tb = transfer(self.con, max_arity=2, d2=self.ge.d_iota_signed)
        rng = np.random.default_rng(9)
        lr = check_linfty_relations(tb, rng, max_arity=2, samples=3,
                                    rank=2)
        assert lr[2] < 1e-10

    def test_arity_four_builds_with_d2(self):
        # 48 harmonics, whose dense m4 would take 4 GB; m3 and m4 have empty
        # support, and the relations through arity 4 hold with m1 and m2
        tb = transfer(self.con, max_arity=4, d2=self.ge.d_iota_signed)
        assert tb.nharm == 48
        assert len(tb.support[3][1]) == len(tb.support[4][1]) == 0
        rng = np.random.default_rng(9)
        lr = check_linfty_relations(tb, rng, max_arity=4, samples=3,
                                    rank=2)
        assert lr[3] < 1e-12 and lr[4] < 1e-12, lr


def test_random_homogeneous_support():
    rng = np.random.default_rng(0)
    x = random_homogeneous(TB.degrees, rng, 2, rank=2)
    assert x.shape == (16, 2, 2)
    assert TB.element_degree(x) == 2
    mixed = x.copy()
    mixed[np.nonzero(TB.degrees == 1)[0][0]] = 1.0
    with pytest.raises(ValueError, match="inhomogeneous"):
        TB.element_degree(mixed)


def _ordered_apply_oracle(T, xs):
    """np.einsum chain: tensor axes in argument order, matrix coefficients
    multiplied left to right, scalar arguments as multiples of 1."""
    letters = "abcd"[:len(xs)]
    if all(x.ndim == 1 for x in xs):
        return np.einsum("%so,%s->o" % (letters, ",".join(letters)), T, *xs)
    k = next(x.shape[1] for x in xs if x.ndim > 1)
    mats = [x if x.ndim > 1 else np.einsum("a,pq->apq", x, np.eye(k))
            for x in xs]
    rows = "pqrst"[:len(xs) + 1]
    ops = ",".join("%s%s%s" % (a, rows[i], rows[i + 1])
                   for i, a in enumerate(letters))
    return np.einsum("%so,%s->o%s%s" % (letters, ops, rows[0], rows[-1]),
                     T, *mats)


def _bracket_oracle(T, xs, degs):
    """Koszul-signed sum over argument orders of the einsum chain, and the
    largest entry of its terms (the sum may cancel to roundoff)."""
    terms = [koszul_sign_permutation(perm, degs)
             * _ordered_apply_oracle(T, [xs[t] for t in perm])
             for perm in permutations(range(len(xs)))]
    return sum(terms), max(np.abs(t).max() for t in terms)


@pytest.mark.parametrize("arity", [2, 3, 4])
@pytest.mark.parametrize("kinds", ["scalar", "matrix", "mixed"])
def test_bracket_matches_einsum(arity, kinds):
    rng = np.random.default_rng(7 * arity + len(kinds))
    nh, k = 6, 3
    degrees = np.array([0, 0, 1, 1, 2, 3])

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # exact zeros on about half the entries, so the support is partial
    shape = (nh,) * (arity + 1)
    T = cplx(*shape) * (rng.random(shape) < 0.5)
    tb = Transferred(np.zeros((nh, nh)), {
        arity: _support(T), arity + 1: _support(np.zeros(shape + (nh,)))},
        degrees, None)
    assert 0 < len(tb.support[arity][1]) == np.count_nonzero(T) < T.size
    matrix = {"scalar": [False] * arity, "matrix": [True] * arity,
              "mixed": [i % 2 == 1 for i in range(arity)]}[kinds]
    # even, odd and mixed argument degrees
    for degs in ([0, 2, 2, 0], [1, 3, 1, 1], [1, 2, 3, 0]):
        degs = degs[:arity]
        xs = [random_homogeneous(degrees, rng, r, k if m else None)
              + 1j * random_homogeneous(degrees, rng, r, k if m else None)
              for r, m in zip(degs, matrix)]
        got = tb.bracket(xs)
        want, scale = _bracket_oracle(T, xs, degs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-13 * scale
        # an all-zero tensor has empty support and gives exact zeros
        zero = tb.bracket([xs[0]] + xs)
        assert zero.shape == ((nh,) if kinds == "scalar" else (nh, k, k))
        assert not zero.any()


def _dense_transfer(con):
    """m_1 .. m_4 with the dense H and P applied by matrix products, the
    path the gathers and the column remaps replaced (one chunk, no second
    differential).  Every stack is dense between the products, which take
    it on its nonzero columns."""
    alg, nh, dim = con.algebra, con.nharm, con.dim
    H = con.H.dense().astype(complex)
    P = con.p_mat.astype(complex)
    psi = con.i_mat.astype(complex)
    kap1 = np.where(con.harm_degrees % 2, -1.0, 1.0)

    def batch(X, Y):
        return alg.product_batch(Stack.of(X), Stack.of(Y)).dense(dim)

    def contract(X, Y):
        return alg.product_contract(Stack.of(X), Stack.of(Y), Stack.of(P))

    W1 = -psi.T
    Lam2 = batch(W1, W1)
    m = {1: P @ con.d.dense().astype(complex) @ psi, 2: Lam2 @ P.T}
    W2 = (Lam2 @ H.T).reshape(nh * nh, dim)
    T1 = batch(W1, W2).reshape(nh, nh, nh, dim)
    T1 *= kap1[:, None, None, None]
    block = T1 - batch(W2, W1).reshape(nh, nh, nh, dim)
    m[3] = block @ P.T
    W3 = (block @ H.T).reshape(nh ** 3, dim)
    m4 = contract(W3, W1).reshape((nh,) * 5)
    m4 += contract(W1, W3).reshape((nh,) * 5)
    kap2 = np.einsum("a,b->ab", kap1, kap1).reshape(-1)
    m4 -= contract(W2 * kap2[:, None], W2).reshape((nh,) * 5)
    m[4] = m4
    return m


def spin_cutoff_contraction(g, two_j):
    """Contraction of g onto every basis vector of spin j <= two_j / 2.

    For twist n a level-p section and its image form have 2j = |n| + 2p,
    a harmonic form 2j = |n| - 2.  P is the 0/1 diagonal on the kept
    vectors and H the model homotopy with the kept rows zeroed; d-bar
    keeps the spin, so the chain identity holds exactly, and the pairing
    pairs equal spins, so isotropy and self-adjointness hold as well.
    """
    spin = np.zeros(g.dim, dtype=int)
    for bi, b in enumerate(g.blocks):
        n, m = abs(b.twist), b.model
        spin[g.block_slice(bi, 0)] = np.tile(n + 2 * m.level0, b.mult)
        spin[g.block_slice(bi, 1)] = np.tile(np.where(
            m.src_level1 >= 0, n + 2 * m.src_level1, n - 2), b.mult)
    keep = np.flatnonzero(spin <= two_j)
    H = Gather(g.dim, slice(None), g.hom.col, g.hom.val)
    H.val[keep] = 0.0
    return Contraction(g, g.dbar, H, Gather(g.dim, keep, keep, 1.0),
                       g.space.reduced_degrees(),
                       pairing=g.pairing_matrix().matrix, label="spin cutoff")


@pytest.fixture(scope="module")
def cutoff():
    # at 2j <= 2 on GComplex(4): 28 kept vectors, m3 and m4 nonzero (at
    # 2j <= 4 the top spins' products leave the truncation and the
    # arity-3 relation fails, so that cutoff is not used)
    con = spin_cutoff_contraction(GComplex(4), 2)
    return con, transfer(con, max_arity=4)


def test_spin_cutoff_brackets_match_the_oracle(cutoff):
    con, tb = cutoff
    assert con.nharm == 28
    assert np.count_nonzero(tb.dense(3)) > 2000
    assert np.count_nonzero(tb.dense(4)) > 15000
    rng = np.random.default_rng(17)
    # the arity-3 build contracts m3 against the root rows
    for m in (tb.dense(3), tb.dense(4),
              transfer(con, max_arity=3).dense(3)):
        n = m.ndim - 1
        support = np.transpose(np.nonzero(m))[:, :n]
        picks = [support[rng.integers(len(support))] for _ in range(10)]
        picks += [rng.integers(con.nharm, size=n) for _ in range(10)]
        for idx in picks:
            vecs = [con.i_mat[:, t].astype(complex) for t in idx]
            dd = [int(con.harm_degrees[t]) for t in idx]
            ref = con.p_mat @ lambda_oracle(con.algebra, con.H, vecs, dd)
            assert np.abs(ref - m[tuple(idx)]).max() < 1e-13, idx


@pytest.mark.parametrize("which", ["toy", "sheaf4", "cutoff"])
def test_top_arity_contracted_against_the_root(which, cutoff):
    # below the top arity a lower build is the arity-4 build bitwise; its
    # top arity skips the stack and the root pick, so it moves by roundoff
    if which == "toy":
        con = Contraction(*heisenberg_dga())
        full = _dense(transfer(con, max_arity=4))
    elif which == "cutoff":
        con, tb = cutoff
        full = _dense(tb)
    else:
        con = build_contraction(GComplex(4))
        full = _dense(transfer(con, max_arity=4))
    for k in (2, 3):
        got = _dense(transfer(con, max_arity=k))
        assert sorted(got) == list(range(1, k + 1))
        for j in range(1, k):
            assert np.array_equal(got[j], full[j]), (k, j)
        scale = np.abs(full[k]).max()
        assert np.abs(got[k] - full[k]).max() <= 1e-15 * scale, k


def test_cutoff_arity_four_build_holds_no_dense_tensor(cutoff):
    # the dense m4 of the 2j <= 2 cutoff, 28**5 complex entries, is 275 MB:
    # the build peaks below it and keeps under a tenth of it
    con, _ = cutoff
    dense = 16 * con.nharm ** 5
    tracemalloc.start()
    try:
        tb = transfer(con, max_arity=4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tb.support[4][1]) > 15000
    assert peak < dense and held < dense / 10, (peak, held)


def test_spin_cutoff_relations(cutoff):
    _, tb = cutoff
    # degree-1 probes with 2 x 2 coefficients: the brackets of scalar
    # probes cancel to roundoff, and other degrees mostly vanish
    rng = np.random.default_rng(19)
    lr = check_linfty_relations(tb, rng, max_arity=4, samples=2, rank=2,
                                degrees=(1,))
    assert lr[3] < 1e-12 and lr[4] < 1e-12, lr


@pytest.mark.parametrize("which", ["sheaf4", "toy", "cutoff"])
def test_transfer_matches_dense_einsum_path(which, cutoff):
    if which == "toy":
        alg, d, H, proj, degs = heisenberg_dga()
        con = Contraction(alg, d, H, proj, degs)
        got = _dense(transfer(con, max_arity=4))
    elif which == "cutoff":
        con, tb = cutoff
        got = _dense(tb)
    else:
        con = build_contraction(GComplex(4))
        got = _dense(transfer(con, max_arity=4))
    want = _dense_transfer(con)
    for n in range(1, 5):
        assert np.array_equal(got[n], want[n]), n


def test_heisenberg_structure_matches_generator_loop():
    # the construction loop the exterior algebra rule replaced
    masks = [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    index = {m: i for i, m in enumerate(masks)}
    C = np.zeros((8, 8, 8))
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if mi & mj:
                continue
            sign = 1
            for b in range(3):
                if mj >> b & 1 and bin(mi >> (b + 1)).count("1") % 2:
                    sign = -sign
            C[i, j, index[mi | mj]] = sign
    alg, _, _, _, degrees = heisenberg_dga()
    want = np.asarray(C, dtype=complex)
    assert alg.structure.dtype == want.dtype
    assert np.array_equal(alg.structure, want)
    assert list(degrees) == [bin(m).count("1") for m in masks]


def test_check_path_leaves_scipy_unloaded():
    code = ("import sys\n"
            "from twistorbf.gcomplex import GComplex\n"
            "from twistorbf.transfer import (build_contraction,\n"
            "    quasi_iso_linear, transfer)\n"
            "con = build_contraction(GComplex(3))\n"
            "transfer(con, max_arity=4)\n"
            "assert quasi_iso_linear(con)['isomorphism']\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
