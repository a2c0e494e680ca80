import numpy as np
import pytest

from twistorbf.kernels import Mobius
from twistorbf.radial import SphereGrid
from twistorbf.sphere import (
    LineBundleModel,
    build_model,
    form_inner,
    harmonic_forms,
    level_sections,
    section_inner,
)

GRID = SphereGrid(n_radial=48, n_theta=96)


def test_level_dimensions():
    # level p of twist n carries spin |n|/2 + p: dimension |n| + 2p + 1
    for n in (-3, 0, 2):
        for p in range(3):
            assert len(level_sections(n, p)) == abs(n) + 2 * p + 1


def test_sections_orthonormal_across_levels():
    # same-weight functions from different levels must be orthogonal; this
    # is exactly the harmonicity of the recursion solutions
    for n in (-4, -1, 0, 3):
        funs = []
        for p in range(4):
            funs.extend(level_sections(n, p))
        g = np.array([[section_inner(f, h, n) for _, h in funs] for _, f in funs])
        assert np.abs(g - np.eye(len(funs))).max() < 1e-12


def test_harmonic_form_norm_formula():
    # ||zbar^k D^n||^2 = 2 pi k! (-n-k-2)! / (-n-1)! before normalization
    import math
    for n in (-2, -3, -5):
        for k in range(-n - 1):
            from twistorbf.radial import RadialFun
            f = RadialFun({(0, k): 1.0}, gamma=-n)
            got = form_inner(f, f, n).real
            want = 2 * math.pi * math.factorial(k) * math.factorial(-n - k - 2) / math.factorial(-n - 1)
            assert got == pytest.approx(want, rel=1e-13)


def test_serre_dimensions_full_range():
    for n in range(-8, 9):
        h0, h1 = build_model(n, levels=3).serre_dims()
        assert h0 == max(n + 1, 0)
        assert h1 == max(-n - 1, 0)


def test_dbar_matches_finite_differences():
    rng = np.random.default_rng(7)
    zs = np.array([0.4 + 0.2j, -0.9 + 1.1j, 0.1 - 0.6j])
    h = 1e-6
    for n in (-3, 0, 2):
        m = build_model(n, levels=4)
        c = rng.standard_normal(m.dim0) + 1j * rng.standard_normal(m.dim0)
        fx = (m.values(c, zs + h, 0, normalized=False)
              - m.values(c, zs - h, 0, normalized=False)) / (2 * h)
        fy = (m.values(c, zs + 1j * h, 0, normalized=False)
              - m.values(c, zs - 1j * h, 0, normalized=False)) / (2 * h)
        want = 0.5 * (fx + 1j * fy)
        got = m.values(m.dbar_mat @ c, zs, 1, normalized=False)
        assert np.abs(want - got).max() < 1e-6 * max(1.0, np.abs(want).max())


def test_chain_homotopy_identity():
    for n in (-6, -2, -1, 0, 1, 4):
        m = build_model(n, levels=6)
        assert m.chain_homotopy_residual() < 1e-13


def test_grid_projection_recovers_coefficients():
    rng = np.random.default_rng(3)
    for n in (-4, 0, 2):
        m = build_model(n, levels=5)
        for degree in (0, 1):
            d = m.dim(degree)
            if d == 0:
                continue
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vals = m.values(c, GRID.z, degree)
            back = m.grid_project(vals, GRID, degree)
            assert np.abs(back - c).max() < 1e-11 * np.abs(c).max()


def test_harmonics_are_cohomology_representatives():
    from twistorbf.graded import cohomology
    m = build_model(-4, levels=4)
    out = cohomology(m.dbar_total, gram=np.eye(m.dim0 + m.dim1))
    reps = out["representatives"][1]
    assert reps.shape[1] == 3
    # representatives live purely in the harmonic slots
    tail = reps[m.dim0 + m.n_harm1:, :]
    assert np.abs(tail).max() < 1e-10


def test_rotation_preserves_inner_products():
    rng = np.random.default_rng(11)
    for n in (-3, 0, 2):
        m = build_model(n, levels=4)
        for degree in (0, 1):
            d = m.dim(degree)
            if d == 0:
                continue
            c1 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            c2 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            g = Mobius.random(rng).matrix()
            v1 = m.rotate_values(g, GRID.z, c1, degree)
            v2 = m.rotate_values(g, GRID.z, c2, degree)
            before = m.grid_inner(m.values(c1, GRID.z, degree),
                                  m.values(c2, GRID.z, degree), GRID, degree)
            after = m.grid_inner(v1, v2, GRID, degree)
            assert abs(after - before) < 1e-11 * max(1.0, abs(before))


def test_rotation_matrix_is_unitary_and_respects_identity():
    rng = np.random.default_rng(5)
    m = build_model(-2, levels=3)
    g = Mobius.random(rng).matrix()
    for degree in (0, 1):
        u = m.rotation_matrix(g, GRID, degree)
        d = m.dim(degree)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-11
    eye = m.rotation_matrix(np.eye(2, dtype=complex), GRID, 0)
    assert np.abs(eye - np.eye(m.dim0)).max() < 1e-12


def test_green_and_projector_relations():
    for n in (-3, 1):
        m = build_model(n, levels=4)
        for degree in (0, 1):
            lap = m.laplacian_mat(degree)
            g = m.green_mat(degree)
            p = m.projector_mat(degree)
            d = m.dim(degree)
            assert np.abs(lap @ g + p - np.eye(d)).max() < 1e-12
            assert np.abs(lap @ p).max() < 1e-12


def test_section_space_matches_monomial_family():
    # independent characterization of the truncated section space: for
    # twist -3 at 3 levels the normalized sections span exactly the
    # monomials z^a zbar^b / D^5 with a <= 2, b <= 5 (dims 3*6 = 18)
    m = build_model(-3, levels=3)
    assert m.dim0 == 18
    grid = SphereGrid(24, 48)
    basis = m.basis_values(grid.z, 0)
    mono = np.array([grid.z ** a * np.conj(grid.z) ** b * grid.D ** (1.5 - 5)
                     for a in range(3) for b in range(6)])
    w = np.sqrt(grid.w)
    rk_basis = np.linalg.matrix_rank(basis * w, tol=1e-8)
    rk_mono = np.linalg.matrix_rank(mono * w, tol=1e-8)
    rk_both = np.linalg.matrix_rank(np.vstack([basis, mono]) * w, tol=1e-8)
    assert rk_basis == 18
    assert rk_mono == 18
    assert rk_both == 18


def test_hodge_decomposition():
    rng = np.random.default_rng(23)
    for n in (-4, 0, 3):
        m = build_model(n, levels=5)
        dbar = m.dbar_mat
        h = m.hom_mat
        for _ in range(5):
            f = rng.standard_normal(m.dim0) + 1j * rng.standard_normal(m.dim0)
            resid = f - m.proj0_mat @ f - h @ (dbar @ f)
            assert np.abs(resid).max() < 1e-9
            if m.dim1 == 0:
                continue
            a = rng.standard_normal(m.dim1) + 1j * rng.standard_normal(m.dim1)
            resid = a - m.proj1_mat @ a - dbar @ (h @ a)
            assert np.abs(resid).max() < 1e-9


def test_rotation_matrix_block_diagonal_per_level():
    # the group action commutes with the laplacian, so it cannot mix
    # spectral levels; check the matrix entries directly
    rng = np.random.default_rng(31)
    for n in (-3, 2):
        m = build_model(n, levels=4)
        g = Mobius.random(rng).matrix()
        u0 = m.rotation_matrix(g, GRID, 0)
        lv = m.level0
        off = u0[lv[:, None] != lv[None, :]]
        assert np.abs(off).max() < 1e-10
        u1 = m.rotation_matrix(g, GRID, 1)
        lv1 = m.src_level1
        off1 = u1[lv1[:, None] != lv1[None, :]]
        assert np.abs(off1).max() < 1e-10
        lap = m.laplacian_mat(0)
        comm = lap @ u0 - u0 @ lap
        assert np.abs(comm).max() < 1e-9


def test_grid_cache_survives_grid_turnover():
    # the cache is keyed on the grid object itself; keying on id() let a
    # freed grid's address alias a fresh grid of a different size, which
    # handed back stale basis values
    m = build_model(0, levels=6)
    for order in (8, 12, 16, 12):
        g = SphereGrid(order, 2 * order)
        v, wfac = m.grid_data(g, 1)
        assert v.shape[1] == g.z.size
        assert wfac.shape == g.z.shape
        del g, v, wfac


@pytest.mark.parametrize("n", [-4, 0, 3])
def test_weight_bookkeeping(n):
    # weights1 records the source section's weight: an image form's
    # coefficient (d/dzbar of the section) carries one more
    m = build_model(n, levels=4)
    assert [f.weight for f in m.funs0] == list(m.weights0)
    assert ([f.weight for f in m.funs1]
            == list(m.weights1 + (m.src_level1 >= 0)))
