import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistorbf.graded import (
    BigradedSpace,
    Gather,
    GradedMap,
    Pairing,
    class_runs,
    cohomology,
    exterior_algebra,
    koszul_sign,
    koszul_sign_permutation,
    rank_by_components,
    support_max,
)


def koszul_sign_by_inversions(perm, degrees):
    # independent oracle: one factor per inverted pair
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign *= -1
                if (degrees[perm[i]] % 2) and (degrees[perm[j]] % 2):
                    sign *= -1
    return sign


def test_koszul_sign_parity():
    assert koszul_sign(3 - 2, 5 - 4) == -1
    assert koszul_sign(2 - 2, 5 - 4) == 1
    assert koszul_sign(1, 1) == -1
    assert koszul_sign(2, 1) == 1


def test_permutation_sign_matches_inversion_count():
    rng = np.random.default_rng(0)
    for n in range(1, 6):
        degs = [int(d) for d in rng.integers(0, 4, size=n)]
        for perm in itertools.permutations(range(n)):
            assert koszul_sign_permutation(perm, degs) == \
                koszul_sign_by_inversions(perm, degs)


def test_permutation_sign_special_cases():
    assert koszul_sign_permutation([0, 1, 2], [1, 1, 1]) == 1
    # swapping two odds: transposition sign * koszul sign = +1
    assert koszul_sign_permutation([1, 0], [1, 1]) == 1
    # swapping odd past even: just the transposition
    assert koszul_sign_permutation([1, 0], [1, 2]) == -1


def _two_by_two_square():
    # basis x^eps y^eta, eps/eta in {0,1}; degrees (eps + eta, 0)
    space = BigradedSpace([(0, 0), (1, 0), (0, 1), (1, 1)])
    d1 = np.zeros((4, 4))
    d1[1, 0] = 1.0  # 1 -> x
    d1[3, 2] = 1.0  # y -> xy
    return space, GradedMap(space, space, (1, 0), d1)


def test_graded_map_degree_violation():
    space, m1 = _two_by_two_square()
    with pytest.raises(ValueError):
        GradedMap(space, space, (0, 1), m1.matrix)  # wrong declared shift
    dirty = m1.matrix.copy()
    dirty[0, 3] = 1e-3  # xy -> 1 is not a (1,0) shift
    assert GradedMap(space, space, (1, 0), dirty, check=False).degree_violation() == pytest.approx(1e-3)


def degree_violation_by_columns(m):
    # oracle: the column loop over degree rows compared as tuples
    worst = 0.0
    for j, (k, l) in enumerate(m.source.degrees.tolist()):
        want = (k + m.shift[0], l + m.shift[1])
        col = m.matrix[:, j]
        for i in np.nonzero(np.abs(col) > 0)[0]:
            if tuple(m.target.degrees[i].tolist()) != want:
                worst = max(worst, abs(col[i]))
    return worst


@pytest.mark.parametrize("seed", range(4))
def test_degree_violation_matches_column_loop(seed):
    rng = np.random.default_rng(seed)

    def space(n):
        return BigradedSpace(rng.integers(-1, 3, size=(n, 2)))

    src, tgt = space(9), space(7)
    shift = (1, 0)
    tk = np.array(tgt.degrees)
    want = np.array(src.degrees) + shift
    k_ok = tk[:, None, 0] == want[None, :, 0]
    l_ok = tk[:, None, 1] == want[None, :, 1]
    mat = (rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9)))
    mat *= k_ok & l_ok
    m = GradedMap(src, tgt, shift, mat)
    assert m.degree_violation() == degree_violation_by_columns(m) == 0.0
    # plant one entry whose k matches and l does not, one the other way
    for off in (k_ok & ~l_ok, ~k_ok & l_ok):
        if not off.any():
            continue
        i, j = np.argwhere(off)[rng.integers(off.sum())]
        planted = mat.copy()
        planted[i, j] = 0.37 - 0.2j
        bad = GradedMap(src, tgt, shift, planted, check=False)
        assert bad.degree_violation() == degree_violation_by_columns(bad)
        assert bad.degree_violation() == pytest.approx(abs(0.37 - 0.2j))
        with pytest.raises(ValueError, match="off the declared bidegree"):
            GradedMap(src, tgt, shift, planted)


@pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 2, 2), (0,)])
def test_bigraded_space_rejects_misshaped_degrees(shape):
    with pytest.raises(ValueError, match=r"shaped \(n, 2\)"):
        BigradedSpace(np.zeros(shape, dtype=int))


def test_bigraded_space_holds_one_degree_array():
    space = BigradedSpace([(3, 2), (6, 4), (1, 0)])
    assert space.dim == 3
    assert space.degrees.dtype.kind == "i" and space.degrees.shape == (3, 2)
    assert space.reduced_degrees().tolist() == [1, 2, 1]
    assert BigradedSpace(np.zeros((0, 2))).dim == 0


def test_cohomology_dims_of_rank_one_differential():
    # 0 -> C^2 -> C^2 -> 0 with rank-one differential
    space = BigradedSpace([(0, 0), (0, 0), (1, 0), (1, 0)])
    d = np.zeros((4, 4))
    d[2, 0] = 2.0  # a0 -> 2 b0
    assert cohomology(GradedMap(space, space, (1, 0), d)) == {0: 1, 1: 1}


def test_cohomology_of_acyclic_complex():
    space = BigradedSpace([(0, 0), (1, 0)])
    d = np.zeros((2, 2))
    d[1, 0] = 3.0
    assert cohomology(GradedMap(space, space, (1, 0), d)) == {0: 0, 1: 0}


def test_pairing_checks():
    space = BigradedSpace([(0, 0), (1, 0), (2, 1)])
    # odd-odd pairing, graded-symmetric means antisymmetric
    m = Gather(3, [1, 2], [2, 1], [1.0, -1.0])
    p = Pairing(space, m, parity=2)
    assert p.parity_violation() == 0.0
    assert p.graded_symmetry_residual() < 1e-14
    m_bad = Gather(3, [1, 2], [2, 1], [1.0, 1.0])
    assert Pairing(space, m_bad, parity=2).graded_symmetry_residual() > 1.0
    # degenerate direction: e pairs with nothing
    assert p.nondegeneracy() == 0.0
    m_full = Gather(3, slice(None), np.arange(3), 1.0)
    sp0 = BigradedSpace([(0, 0), (0, 0), (0, 0)])
    assert Pairing(sp0, m_full, parity=0).nondegeneracy() == pytest.approx(1.0)


# -- the one-nonzero-per-row gather -------------------------------------------

def _gather(draw, n, cplx):
    col = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n,
                                 max_size=n)), dtype=int)
    # some rows empty, values of either sign, complex on request
    val = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 0.3]),
                                 min_size=n, max_size=n)))
    if cplx:
        val = val * np.exp(1j * np.array(draw(st.lists(
            st.floats(-3.0, 3.0), min_size=n, max_size=n))))
    return Gather(n, np.arange(n), col, val)


@st.composite
def _gather_case(draw):
    n = draw(st.integers(1, 7))
    cplx = draw(st.booleans())
    a, b = _gather(draw, n, cplx), _gather(draw, n, draw(st.booleans()))
    seed = draw(st.integers(0, 2 ** 16))
    return a, b, np.random.default_rng(seed)


@given(case=_gather_case())
@settings(max_examples=60, deadline=None)
def test_gather_matches_its_dense_form(case):
    a, b, rng = case
    n = a.shape[0]
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    da, db = a.dense(), b.dense()
    assert da.shape == (n, n)
    assert np.all(np.count_nonzero(da, axis=1) <= 1)
    np.testing.assert_allclose(a @ x, da @ x, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(a @ x[:, 0], da @ x[:, 0], rtol=1e-14,
                               atol=1e-14)
    np.testing.assert_allclose(x.T @ a, x.T @ da, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(x[:, 0] @ a, x[:, 0] @ da, rtol=1e-14,
                               atol=1e-14)
    np.testing.assert_allclose((a @ b).dense(), da @ db, rtol=1e-14,
                               atol=1e-14)
    # an empty gather row gives an empty row of every product
    empty = a.val == 0
    assert not np.any((a @ x)[empty])
    assert not np.any((a @ b).dense()[empty])
    # the transpose exists when no two nonzeros share a column
    if len(np.unique(a.col[~empty])) == np.count_nonzero(~empty):
        assert np.array_equal(a.T.dense(), da.T)
    else:
        with pytest.raises(ValueError, match="share a column"):
            a.T


@st.composite
def _pairing_case(draw):
    n = draw(st.integers(1, 7))
    m = _gather(draw, n, draw(st.booleans()))
    if n > 1 and draw(st.booleans()):
        m.col[1] = m.col[0]     # two rows share a column
    red = np.array(draw(st.lists(st.integers(-2, 3), min_size=n,
                                 max_size=n)))
    return m, red, draw(st.integers(-2, 4))


@given(case=_pairing_case())
@settings(max_examples=80, deadline=None)
def test_pairing_methods_match_dense_forms(case):
    m, red, parity = case
    space = BigradedSpace([(r, 0) for r in red])
    p, d = Pairing(space, m, parity), m.dense()
    s = np.linalg.svd(d, compute_uv=False)
    np.testing.assert_allclose(p.singular_values(), s, rtol=1e-13,
                               atol=1e-14)
    ratio = s[-1] / s[0] if s[0] > 0 else 0.0
    assert p.nondegeneracy() == pytest.approx(ratio, rel=1e-12, abs=1e-14)
    sgn = np.where((red[:, None] % 2) & (red[None, :] % 2), -1.0, 1.0)
    assert p.graded_symmetry_residual() == np.abs(d - sgn * d.T).max()
    bad = red[:, None] + red[None, :] != parity
    assert p.parity_violation() == np.abs(d[bad]).max(initial=0.0)
    x, y = np.arange(1.0, len(red) + 1), np.cos(np.arange(len(red)))
    assert p.value(x, y) == pytest.approx(x @ d @ y, rel=1e-14, abs=1e-14)


def test_pairing_with_a_shared_column_is_degenerate():
    # rows 0 and 1 both pair with vector 2, so vectors 0 and 1 are missed
    space = BigradedSpace([(0, 0), (0, 0), (1, 0)])
    m = Gather(3, [0, 1, 2], [2, 2, 0], [1.0, 2.0, 1.0])
    p = Pairing(space, m, parity=1)
    np.testing.assert_allclose(p.singular_values(),
                               np.linalg.svd(m.dense(), compute_uv=False),
                               atol=1e-15)
    assert p.nondegeneracy() == 0.0
    assert p.graded_symmetry_residual() == 2.0


def test_gather_constructor_and_support_max():
    a = Gather(4, [0, 2], [3, 1], [2.0, -1.0])
    want = np.zeros((4, 4))
    want[0, 3], want[2, 1] = 2.0, -1.0
    assert np.array_equal(a.dense(), want)
    b = Gather(4, [0, 3], [3, 3], [0.5, 4.0])
    # evaluated where either is nonzero, as the dense difference
    assert support_max(lambda u, v: u - v, a, b) == np.abs(
        want - b.dense()).max()
    assert support_max(abs, Gather(3, [], [], [])) == 0.0


def test_exterior_algebra_order_and_structure():
    for n in range(6):
        masks, C = exterior_algebra(n)
        bits = [tuple(b for b in range(n) if m >> b & 1) for m in masks]
        assert bits == sorted(bits, key=lambda I: (len(I), I))
        assert sorted(masks) == list(range(2 ** n)) and C.dtype == np.int8
        for i, s in enumerate(masks):
            for j, t in enumerate(masks):
                row = C[i, j]
                if s & t:
                    assert not row.any()
                    continue
                # e_s e_t = +-e_{s|t}, and graded commutative
                assert np.count_nonzero(row) == 1
                assert row[masks.index(s | t)] == (-1) ** (
                    len(bits[i]) * len(bits[j])) * C[j, i, masks.index(s | t)]


def test_class_runs():
    order, runs = class_runs(np.array([2, -1, 2, 0, -1, 2]))
    assert order.tolist() == [1, 4, 3, 0, 2, 5]
    assert runs == [(-1, 0, 2), (0, 2, 3), (2, 3, 6)]
    order, runs = class_runs(np.zeros(0, dtype=int))
    assert len(order) == 0 and runs == []


def _full_margin(A, tol):
    s = np.linalg.svd(A, compute_uv=False) if A.size else np.zeros(0)
    kept, dropped = s[s > tol], s[s <= tol]
    return (len(kept), kept.min(initial=np.inf) if len(kept) else 0.0,
            dropped.max(initial=0.0))


def _planted_block_diagonal(rng, cplx):
    """Four dense blocks, one of rank 2 in 5 x 4 and one of singular
    values 1 and 1e-12, scattered by row and column permutations."""
    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if cplx else x

    shapes = [(3, 3), (5, 4), (1, 2), (2, 2)]
    blocks = [draw(*sh) for sh in shapes]
    blocks[1] = draw(5, 2) @ draw(2, 4)
    q, _ = np.linalg.qr(draw(2, 2))
    blocks[3] = q @ np.diag([1.0, 1e-12]) @ q.conj().T
    m, n = (sum(sh[k] for sh in shapes) + 2 for k in (0, 1))
    A = np.zeros((m, n), dtype=complex if cplx else float)
    r = c = 0
    for b in blocks:
        A[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    # two zero rows and columns are left at the end
    return A[rng.permutation(m)][:, rng.permutation(n)]


@pytest.mark.parametrize("cplx", [False, True])
def test_rank_by_components_on_planted_blocks(cplx):
    rng = np.random.default_rng(3)
    A = _planted_block_diagonal(rng, cplx)
    rank, kept, dropped = rank_by_components(A, 1e-9)
    assert rank == np.linalg.matrix_rank(A, tol=1e-9) == 3 + 2 + 1 + 1
    want = _full_margin(A, 1e-9)
    assert kept == pytest.approx(want[1], rel=1e-12)
    # the dropped value: 1e-12 planted, the rank-2 block's zeros roundoff
    assert dropped == pytest.approx(want[2], abs=1e-14)
    assert 0.9e-12 < dropped < 1.1e-12


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0), (4, 6)])
def test_rank_by_components_of_empty_and_zero(shape):
    assert rank_by_components(np.zeros(shape), 1e-9) == (0, 0.0, 0.0)


def test_rank_by_components_on_one_dense_block():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 9))
    rank, kept, dropped = rank_by_components(A, 1e-9)
    assert rank == np.linalg.matrix_rank(A, tol=1e-9) == 3
    want = _full_margin(A, 1e-9)
    assert kept == pytest.approx(want[1], rel=1e-12)
    assert dropped == pytest.approx(want[2], abs=1e-13)


def test_rank_by_components_on_a_chain():
    # a bidiagonal pattern is one component reached only edge by edge
    n = 200
    A = np.eye(n) + np.diag(np.full(n - 1, 0.5), 1)
    assert rank_by_components(A, 1e-9)[0] == n
    A[n // 2, n // 2] = 0.0
    A[n // 2, n // 2 + 1] = 0.0     # splits the chain, drops one rank
    assert rank_by_components(A, 1e-9)[0] == np.linalg.matrix_rank(A) == n - 1
