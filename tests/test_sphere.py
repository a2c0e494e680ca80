import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twistorbf import sphere
from twistorbf.radial import RadialFun, RadialGrid, SphereGrid, hermitian_inner
from twistorbf.sphere import (
    LineBundleModel,
    Mobius,
    build_model,
    harmonic_forms,
    level_sections,
)

GRID = SphereGrid(n_radial=48, n_theta=96)


def _blocks(m):
    """dbar (forms x sections), H (sections x forms), P on sections and P
    on forms: slices of the model's gathers on its total space."""
    d0 = m.dim0
    d, h, p = m.dbar.dense(), m.hom.dense(), m.proj.dense()
    return d[d0:, :d0], h[:d0, d0:], p[:d0, :d0], p[d0:, d0:]


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
        g = np.array([[hermitian_inner(f, h, n + 2) for _, h in funs]
                      for _, f in funs])
        assert np.abs(g - np.eye(len(funs))).max() < 1e-12


def test_harmonic_form_norm_formula():
    # ||zbar^k D^n||^2 = 2 pi k! (-n-k-2)! / (-n-1)! before normalization
    for n in (-2, -3, -5):
        for k in range(-n - 1):
            f = RadialFun({(0, k): 1.0}, gamma=-n)
            got = 2.0 * hermitian_inner(f, f, n).real
            want = 2 * math.pi * math.factorial(k) * math.factorial(-n - k - 2) / math.factorial(-n - 1)
            assert got == pytest.approx(want, rel=1e-13)
    for n in (-2, -3, -5):
        for _, f in harmonic_forms(n):
            assert 2.0 * hermitian_inner(f, f, n).real == pytest.approx(
                1.0, rel=1e-13)


def _exact_section_norm2(n, p, w):
    """Squared norm / pi of the q_0 = 1 recursion solution, in rationals.

    Runs the harmonicity recursion in Fractions and integrates f conj(f)
    D^-(n+2) term by term with the Beta value pi / ((g-1) C(g-2, a)) of
    z^a zbar^a D^-g (radial.integral_exact).
    """
    two_j = abs(n) + 2 * p
    a, b = (two_j + n) // 2, (two_j - n) // 2
    a0, b0 = max(w, 0), max(-w, 0)
    q, coeffs = Fraction(1), []
    for m in range(min(a - a0, b - b0) + 1):
        coeffs.append(q)
        q *= Fraction(-(m + a0 - a) * (m + b0 - b),
                      (m + a0 + 1) * (m + b0 + 1))
    g = 2 * b + n + 2
    total = Fraction(0)
    for m1, c1 in enumerate(coeffs):
        for m2, c2 in enumerate(coeffs):
            # z^(a0+m1) zbar^(b0+m1) times its conjugate partner of index m2
            e = a0 + b0 + m1 + m2
            total += c1 * c2 / ((g - 1) * math.comb(g - 2, e))
    return total


def test_section_norm_formula_exact():
    # closed form pi / ((a+b+1) C(a+b0, k) C(b+a0, k)) against the exact
    # rational Beta sum, for every function with |n| <= 8 and p <= 10
    count = 0
    for n in range(-8, 9):
        for p in range(11):
            two_j = abs(n) + 2 * p
            a, b = (two_j + n) // 2, (two_j - n) // 2
            for w, f in level_sections(n, p):
                a0, b0, k = max(w, 0), max(-w, 0), abs(w)
                want = Fraction(1, (a + b + 1) * math.comb(a + b0, k)
                                * math.comb(b + a0, k))
                assert _exact_section_norm2(n, p, w) == want
                lead = f.terms[(a0, b0)].real
                assert lead ** 2 * math.pi * float(want) == pytest.approx(
                    1.0, rel=1e-14)
                count += 1
    assert count == 2849


@pytest.mark.parametrize("n", range(-8, 9))
def test_lambdas_match_measured_dbar_norms(n):
    # lambda_p^2 = 2 b (a+1) against |dbar f|^2 measured with the closed-form
    # integrals, which lose precision with the level: 1e-13 on levels 0-3,
    # 1e-10 on levels 4-7
    m = build_model(n, 8)
    for p in range(8):
        lam2 = m.lambdas[p] ** 2
        tol = 1e-13 if p < 4 else 1e-10
        for _, f in level_sections(n, p):
            df = f.dbar()
            got = 2.0 * hermitian_inner(df, df, n).real
            if lam2 == 0.0:
                assert not df.terms
            else:
                assert abs(got - lam2) <= tol * lam2


def test_builds_sixteen_levels():
    for n in range(-8, 9):
        m = build_model(n, 16)
        assert m.dim0 == 16 * (abs(n) + 16)


@pytest.mark.parametrize("n", range(-4, 5))
def test_radial_gram_at_fourteen_levels(n):
    # the radial Gauss rule is exact for every same-weight product, so the
    # Gram error measures basis-value precision alone
    m = build_model(n, 14)
    grid = RadialGrid(64)
    for degree in (0, 1):
        v, wfac = m.grid_data(grid, degree)
        w = np.array([f.weight for f in m.funs(degree)])
        gram = np.where(w[:, None] == w[None, :], (v * wfac) @ v.conj().T, 0.0)
        assert np.abs(gram - np.eye(len(w))).max() <= 1e-12


def test_normalization_guard_names_its_residual(monkeypatch):
    # a section basis off by 0.1% must stop the build on its first level
    def off(n, p):
        return [(w, f.scale(1.001)) for w, f in level_sections(n, p)]

    monkeypatch.setattr(sphere, "level_sections", off)
    with pytest.raises(AssertionError, match=r"twist -2 level 0: .* = 0\.002"):
        build_model(-2, 3)


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

        def raw(coeffs, z, degree):
            # chart values without the bounding factor D^-extra
            return m.values(coeffs, z, degree) * (1.0 + np.abs(z) ** 2) ** (
                m.normalized_extra(degree))

        fx = (raw(c, zs + h, 0) - raw(c, zs - h, 0)) / (2 * h)
        fy = (raw(c, zs + 1j * h, 0) - raw(c, zs - 1j * h, 0)) / (2 * h)
        want = 0.5 * (fx + 1j * fy)
        got = raw(_blocks(m)[0] @ c, zs, 1)
        assert np.abs(want - got).max() < 1e-6 * max(1.0, np.abs(want).max())


def test_chain_homotopy_identity():
    for n in (-6, -2, -1, 0, 1, 4):
        m = build_model(n, levels=6)
        assert m.chain_homotopy_residual() < 1e-13


@pytest.mark.parametrize("n", range(-6, 5))
def test_chain_residual_equals_the_dense_spectral_norm(n):
    m = build_model(n, max(abs(n) + 4, 8))
    d, h, p = m.dbar.dense(), m.hom.dense(), m.proj.dense()
    dense = np.linalg.norm(d @ h + h @ d - np.eye(len(d)) + p, 2)
    assert m.chain_homotopy_residual() == pytest.approx(dense, abs=1e-16)


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
            v, wfac = m.grid_data(GRID, degree)
            back = v.conj() @ (wfac * vals)
            assert np.abs(back - c).max() < 1e-11 * np.abs(c).max()


def test_harmonics_are_cohomology_representatives():
    m = build_model(-4, levels=4)
    forms = np.arange(m.dim0, m.dim0 + m.dim1)
    harm, img = forms[:m.n_harm1], forms[m.n_harm1:]
    assert len(harm) == m.serre_dims()[1] == 3
    # no section maps onto a harmonic slot, so the harmonic forms are not
    # exact, and P keeps exactly them; every other form is an image
    assert not m.dbar.val[harm].any() and m.dbar.val[img].all()
    assert np.array_equal(m.proj.col[harm], harm)
    assert np.all(m.proj.val[harm] == 1.0) and not m.proj.val[img].any()


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
            g = Mobius.random(rng)
            v1 = m.rotate_values(g, GRID.z, c1, degree)
            v2 = m.rotate_values(g, GRID.z, c2, degree)
            wfac = m.grid_weights(GRID, degree)
            before = np.sum(wfac * m.values(c1, GRID.z, degree)
                            * np.conj(m.values(c2, GRID.z, degree)))
            after = np.sum(wfac * v1 * np.conj(v2))
            assert abs(after - before) < 1e-11 * max(1.0, abs(before))


def test_rotation_matrix_is_unitary_and_respects_identity():
    rng = np.random.default_rng(5)
    m = build_model(-2, levels=3)
    g = Mobius.random(rng)
    for degree in (0, 1):
        u = m.rotation_matrix(g, GRID, degree)
        d = m.dim(degree)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-11
    eye = m.rotation_matrix(Mobius.identity(), GRID, 0)
    assert np.abs(eye - np.eye(m.dim0)).max() < 1e-12


def _inline_rotate_values(m, a, b, z, coeffs, degree):
    # oracle: the automorphy factor and image point rotate_values inlined
    # before it read them off Mobius
    p = np.conj(a) - np.conj(b) * z
    absp = np.abs(p)
    safe = np.where(absp > 0, absp, 1.0)
    phase = (p / safe) ** (m.n if degree == 0 else m.n + 2)
    fz = (a * z + b) / np.where(absp > 0, p, 1e-300)
    return phase * m.values(coeffs, fz, degree)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(-4, 4), degree=st.sampled_from([0, 1]),
       row=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_rotation_matches_inline_formula(n, degree, row):
    v = np.array(row)
    assume(np.linalg.norm(v) > 0.1)
    v /= np.linalg.norm(v)
    g = Mobius(v[0] + 1j * v[1], v[2] + 1j * v[3])
    m = build_model(n, levels=3)
    if m.dim(degree) == 0:
        return
    eye = np.eye(m.dim(degree))
    want = _inline_rotate_values(m, g.a, g.b, GRID.z, eye, degree)
    np.testing.assert_array_equal(m.rotate_values(g, GRID.z, eye, degree),
                                  want)
    vals, wfac = m.grid_data(GRID, degree)
    np.testing.assert_array_equal(
        m.rotation_matrix(g, GRID, degree),
        np.einsum("ig,g,jg->ji", want, wfac, vals.conj()))


def test_operators_match_level_weight_pairing():
    # oracle: the dense dbar, H and P built from the image form of each
    # section found by its (level, weight), as before the gathers
    for n in range(-8, 9):
        m = build_model(n, abs(n) + 4)
        pos = {(p, w): i for i, (p, w) in
               enumerate(zip(m.src_level1, m.weights1 - 1)) if p >= 0}
        d = np.zeros((m.dim1, m.dim0))
        h = np.zeros((m.dim0, m.dim1))
        for i0, (p, w) in enumerate(zip(m.level0, m.weights0)):
            if (p, w) in pos:
                d[pos[(p, w)], i0] = m.lam0[i0]
                h[i0, pos[(p, w)]] = 1.0 / m.lam0[i0]
        harm = np.zeros(m.dim1)
        harm[:m.n_harm1] = 1.0
        wants = (d, h, np.diag((m.lam0 == 0.0) * 1.0), np.diag(harm))
        for got, want in zip(_blocks(m), wants):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(m.dbar.dense(), m.dbar_total.matrix)


def test_projector_annihilated_by_laplacian():
    for n in (-3, 1):
        m = build_model(n, levels=4)
        d, _, p0, p1 = _blocks(m)
        for lap, p in ((d.T @ d, p0), (d @ d.T, p1)):
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
        dbar, h, p0, p1 = _blocks(m)
        for _ in range(5):
            f = rng.standard_normal(m.dim0) + 1j * rng.standard_normal(m.dim0)
            resid = f - p0 @ f - h @ (dbar @ f)
            assert np.abs(resid).max() < 1e-9
            if m.dim1 == 0:
                continue
            a = rng.standard_normal(m.dim1) + 1j * rng.standard_normal(m.dim1)
            resid = a - p1 @ a - dbar @ (h @ a)
            assert np.abs(resid).max() < 1e-9


def test_rotation_matrix_block_diagonal_per_level():
    # the group action commutes with the laplacian, so it cannot mix
    # spectral levels; check the matrix entries directly
    rng = np.random.default_rng(31)
    for n in (-3, 2):
        m = build_model(n, levels=4)
        g = Mobius.random(rng)
        u0 = m.rotation_matrix(g, GRID, 0)
        lv = m.level0
        off = u0[lv[:, None] != lv[None, :]]
        assert np.abs(off).max() < 1e-10
        u1 = m.rotation_matrix(g, GRID, 1)
        lv1 = m.src_level1
        off1 = u1[lv1[:, None] != lv1[None, :]]
        assert np.abs(off1).max() < 1e-10
        d = _blocks(m)[0]
        lap = d.T @ d
        comm = lap @ u0 - u0 @ lap
        assert np.abs(comm).max() < 1e-9


def test_grid_cache_survives_grid_turnover():
    # grid_data evaluates on each call and keeps nothing; an earlier cache
    # keyed on id() let a freed grid's address alias a fresh grid of a
    # different size, which handed back stale basis values
    m = build_model(0, levels=6)
    for order in (8, 12, 16, 12):
        g = SphereGrid(order, 2 * order)
        v, wfac = m.grid_data(g, 1)
        assert v.shape[1] == g.z.size
        assert wfac.shape == g.z.shape
        del g, v, wfac


@pytest.mark.parametrize("n", [-4, 0, 3])
def test_weight_bookkeeping(n):
    # weights0 and weights1 hold RadialFun.weight; an image form's
    # coefficient (d/dzbar of its section) carries one more than the section
    m = build_model(n, levels=4)
    assert [f.weight for f in m.funs0] == list(m.weights0)
    assert [f.weight for f in m.funs1] == list(m.weights1)
    for i0, i1 in m._image_pairs:
        assert m.weights1[i1] == m.weights0[i0] + 1
