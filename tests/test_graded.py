import itertools

import numpy as np
import pytest

from twistorbf.graded import (
    BiDegree,
    BigradedSpace,
    GradedMap,
    Pairing,
    anticommutator,
    check_bicomplex,
    cohomology,
    koszul_sign,
    koszul_sign_permutation,
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


def test_bidegree_arithmetic():
    d = BiDegree(3, 2)
    assert d.k == 3 and d.l == 2 and d.reduced == 1
    assert (d + BiDegree(1, 1)) == BiDegree(4, 3)
    assert BiDegree(5, 4).reduced % 2 == 1


def test_koszul_sign_parity():
    assert koszul_sign(BiDegree(3, 2), BiDegree(5, 4)) == -1
    assert koszul_sign(BiDegree(2, 2), BiDegree(5, 4)) == 1
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
    labels = ["1", "x", "y", "xy"]
    degrees = [(0, 0), (1, 0), (0, 1), (1, 1)]
    space = BigradedSpace(labels, degrees)
    d1 = np.zeros((4, 4))
    d1[1, 0] = 1.0  # 1 -> x
    d1[3, 2] = 1.0  # y -> xy
    d2 = np.zeros((4, 4))
    d2[2, 0] = 1.0   # 1 -> y
    d2[3, 1] = -1.0  # x -> -xy, makes the two directions anticommute
    m1 = GradedMap(space, space, (1, 0), d1)
    m2 = GradedMap(space, space, (0, 1), d2)
    return space, m1, m2


def test_bicomplex_checks_pass_and_fail():
    space, m1, m2 = _two_by_two_square()
    res = check_bicomplex(m1, m2)
    assert res["d1_squared"] < 1e-14
    assert res["d2_squared"] < 1e-14
    assert res["anticommutator"] < 1e-14
    # flip the compensating sign: anticommutator must light up
    bad = GradedMap(space, space, (0, 1), np.abs(m2.matrix), check=False)
    res_bad = check_bicomplex(m1, bad)
    assert res_bad["anticommutator"] > 0.5


def test_graded_map_degree_violation():
    space, m1, _ = _two_by_two_square()
    with pytest.raises(ValueError):
        GradedMap(space, space, (0, 1), m1.matrix)  # wrong declared shift
    dirty = m1.matrix.copy()
    dirty[0, 3] = 1e-3  # xy -> 1 is not a (1,0) shift
    assert GradedMap(space, space, (1, 0), dirty, check=False).degree_violation() == pytest.approx(1e-3)


def degree_violation_by_columns(m):
    # oracle: the column loop over BiDegree objects
    worst = 0.0
    for j, ds in enumerate(m.source.degrees):
        want = ds + m.shift
        col = m.matrix[:, j]
        for i in np.nonzero(np.abs(col) > 0)[0]:
            if m.target.degrees[i] != want:
                worst = max(worst, abs(col[i]))
    return worst


@pytest.mark.parametrize("seed", range(4))
def test_degree_violation_matches_column_loop(seed):
    rng = np.random.default_rng(seed)

    def space(n):
        degs = [tuple(d) for d in rng.integers(-1, 3, size=(n, 2))]
        return BigradedSpace(["v%d" % i for i in range(n)], degs)

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


def test_compose_and_anticommutator_shifts():
    space, m1, m2 = _two_by_two_square()
    c = m1.compose(m2)
    assert c.shift == BiDegree(1, 1)
    assert c.degree_violation() < 1e-14
    ac = anticommutator(m1, m2)
    assert np.abs(ac.matrix).max() < 1e-14


def test_cohomology_dims_and_representatives():
    # 0 -> C^2 -> C^2 -> 0 with rank-one differential
    labels = ["a0", "a1", "b0", "b1"]
    degrees = [(0, 0), (0, 0), (1, 0), (1, 0)]
    space = BigradedSpace(labels, degrees)
    d = np.zeros((4, 4))
    d[2, 0] = 2.0  # a0 -> 2 b0
    dm = GradedMap(space, space, (1, 0), d)
    gram = np.eye(4)
    out = cohomology(dm, gram=gram)
    assert out["dims"] == {0: 1, 1: 1}
    reps = out["representatives"]
    # degree-0 rep spans ker d = a1
    v0 = reps[0][:, 0]
    assert abs(abs(v0[1]) - 1.0) < 1e-12
    assert np.linalg.norm(dm.matrix @ v0) < 1e-12
    # degree-1 rep orthogonal to im d = b0
    v1 = reps[1][:, 0]
    assert abs(v1[2]) < 1e-12
    assert abs(abs(v1[3]) - 1.0) < 1e-12


def test_cohomology_of_acyclic_complex():
    labels = ["a", "b"]
    degrees = [(0, 0), (1, 0)]
    space = BigradedSpace(labels, degrees)
    d = np.zeros((2, 2))
    d[1, 0] = 3.0
    out = cohomology(GradedMap(space, space, (1, 0), d))
    assert out["dims"] == {0: 0, 1: 0}


def test_pairing_checks():
    labels = ["e", "o1", "o2"]
    degrees = [(0, 0), (1, 0), (2, 1)]
    space = BigradedSpace(labels, degrees)
    m = np.zeros((3, 3))
    m[1, 2] = 1.0
    m[2, 1] = -1.0  # odd-odd pairing, graded-symmetric means antisymmetric
    p = Pairing(space, m, parity=2)
    assert p.parity_violation() == 0.0
    assert p.graded_symmetry_residual() < 1e-14
    m_bad = m.copy()
    m_bad[2, 1] = 1.0
    assert Pairing(space, m_bad, parity=2).graded_symmetry_residual() > 1.0
    # degenerate direction: e pairs with nothing
    assert p.nondegeneracy() == 0.0
    m_full = np.eye(3)
    sp0 = BigradedSpace(["u", "v", "w"], [(0, 0), (0, 0), (0, 0)])
    assert Pairing(sp0, m_full, parity=0).nondegeneracy() == pytest.approx(1.0)
