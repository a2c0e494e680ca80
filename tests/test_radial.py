import math
import warnings

import numpy as np
import pytest

from twistorbf.radial import (
    RadialFun,
    RadialGrid,
    SphereGrid,
    gauss_legendre,
    hermitian_inner,
    integral_exact,
    monomial,
)
from twistorbf.sphere import build_model


def fd_dbar(f, z, h=1e-6):
    # (d/dx + i d/dy) / 2 on chart values
    fx = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
    fy = (f.eval(z + 1j * h) - f.eval(z - 1j * h)) / (2 * h)
    return 0.5 * (fx + 1j * fy)


def bilinear_integral(f, g):
    """Closed-form integral of f g dx dy (no conjugation)."""
    if f.weight + g.weight != 0:
        return 0.0 + 0.0j
    return integral_exact(f.mul(g))


SAMPLE_Z = np.array([0.3 + 0.1j, -1.2 + 0.8j, 0.05 - 2.3j, 1.0 + 1.0j])


def test_dbar_matches_finite_differences():
    cases = [
        monomial(2, 3, gamma=4),
        monomial(0, 0, gamma=1),
        RadialFun({(1, 0): 2.0, (2, 1): -1.5j}, gamma=3),
    ]
    for f in cases:
        g = f.dbar()
        assert g.weight == f.weight + 1 or not g.terms
        want = fd_dbar(f, SAMPLE_Z)
        got = g.eval(SAMPLE_Z)
        assert np.abs(want - got).max() < 1e-8


def test_dbar_kills_holomorphic():
    assert not monomial(3, 0).dbar().terms
    assert not monomial(0, 0).dbar().terms


def test_product_matches_pointwise():
    f = monomial(2, 1, gamma=2, coeff=1.5)
    g = RadialFun({(0, 2): 1.0, (1, 3): 2.0}, gamma=1)
    fg = f.mul(g)
    assert fg.weight == f.weight + g.weight
    assert np.abs(fg.eval(SAMPLE_Z) - f.eval(SAMPLE_Z) * g.eval(SAMPLE_Z)).max() < 1e-12


def test_conj_and_pad_preserve_values():
    f = RadialFun({(2, 0): 1.0 + 2.0j, (3, 1): -0.5}, gamma=3)
    assert np.abs(f.conj().eval(SAMPLE_Z) - np.conj(f.eval(SAMPLE_Z))).max() < 1e-12
    g = f.pad_gamma(6)
    assert g.gamma == 6
    assert np.abs(g.eval(SAMPLE_Z) - f.eval(SAMPLE_Z)).max() < 1e-12


def test_add_aligns_denominators():
    f = monomial(1, 1, gamma=2)
    g = monomial(0, 0, gamma=4)
    s = f.add(g)
    assert np.abs(s.eval(SAMPLE_Z) - (f.eval(SAMPLE_Z) + g.eval(SAMPLE_Z))).max() < 1e-12


def test_exact_integral_values():
    # int z^a zbar^a D^-g dx dy = pi a! (g-a-2)! / (g-1)!
    assert integral_exact(monomial(0, 0, gamma=2)) == pytest.approx(math.pi)
    assert integral_exact(monomial(1, 1, gamma=4)) == pytest.approx(math.pi * 1 * 1 / 6)
    assert integral_exact(monomial(0, 0, gamma=3)) == pytest.approx(math.pi / 2)
    # off-diagonal terms integrate to zero by symmetry
    assert integral_exact(RadialFun({(2, 1): 7.0}, gamma=5)) == 0.0
    with pytest.raises(ValueError):
        integral_exact(monomial(1, 1, gamma=2))


def test_gauss_legendre_moments_exact():
    # numpy's own weights miss these moments by up to 3.8e-13
    for n in (24, 32, 48, 64, 96):
        t, w = gauss_legendre(n)
        np.testing.assert_array_equal(t, np.polynomial.legendre.leggauss(n)[0])
        for k in range(0, 2 * n, 2):
            assert abs(np.sum(w * t ** k) * (k + 1) / 2 - 1) < 1e-14


def test_radial_grid_is_exact_on_the_family():
    # every integrable diagonal monomial with gamma <= 96, the range the
    # 48-node rule is exact on; numpy's weights miss by up to 1.7e-13.
    # abs=0: the integrals fall to 2e-29, far under approx's default abs=1e-12
    grid = RadialGrid(48)
    for g in range(2, 97):
        for a in range(g - 1):
            f = monomial(a, a, gamma=g)
            # pi int profile du: the dx dy integral of a weight-0 profile
            numeric = np.sum(f.profile(grid.u) * grid.w)
            assert numeric == pytest.approx(integral_exact(f).real, rel=1e-14,
                                          abs=0.0)


def test_sphere_grid_integrates_mixed_terms():
    grid = SphereGrid(n_radial=24, n_theta=16)
    f = RadialFun({(1, 1): 2.0, (0, 0): 1.0}, gamma=4)
    val = np.sum(f.eval(grid.z) * grid.w)
    assert val == pytest.approx(integral_exact(f), rel=1e-12)
    # pure phase integrates to zero over the angle
    g = monomial(3, 1, gamma=6)
    assert abs(np.sum(g.eval(grid.z) * grid.w)) < 1e-13


def test_hermitian_and_bilinear_integrals():
    f = monomial(2, 0, gamma=0)
    g = monomial(2, 0, gamma=0)
    # <z^2, z^2> against D^-6: diagonal a=2, gamma=6
    val = hermitian_inner(f, g, 6)
    assert val == pytest.approx(integral_exact(monomial(2, 2, gamma=6)))
    # different weights are orthogonal
    assert hermitian_inner(monomial(1, 0, gamma=2), monomial(2, 0, gamma=2), 2) == 0.0
    h1 = monomial(2, 0, gamma=3)
    h2 = monomial(0, 2, gamma=3)
    assert bilinear_integral(h1, h2) == pytest.approx(integral_exact(monomial(2, 2, gamma=6)))
    assert bilinear_integral(h1, h1) == 0.0


def test_eval_stable_at_large_radius():
    # normalized combination: bounded at infinity once extra carries gamma
    f = RadialFun({(3, 0): 1.0, (4, 1): -2.0}, gamma=0)
    vals = f.eval(np.array([1e6 + 0j, -1e8 + 3e7j]), extra=4.0)
    assert np.all(np.isfinite(vals))
    assert np.abs(vals).max() < 10.0
    # continuity across the chart switch at |z| = 1
    eps = 1e-9
    lo = f.eval(np.array([(1 - eps) * np.exp(0.7j)]), extra=4.0)
    hi = f.eval(np.array([(1 + eps) * np.exp(0.7j)]), extra=4.0)
    assert abs(lo - hi)[0] < 1e-7


@pytest.mark.parametrize("n", range(-6, 5))
def test_basis_values_at_the_origin_raise_no_warning(n):
    # a negative weight took 0 ** w before the origin was masked, which
    # warned "invalid value encountered in power" and failed under -W error
    m = build_model(n, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for degree in (0, 1):
            got = m.basis_values(np.zeros(1), degree)[:, 0]
            # at z = 0 only the (0,0) term of a weight-0 function survives
            want = [f.terms.get((0, 0), 0.0) for f in m.funs(degree)]
            np.testing.assert_array_equal(got, want)


def test_boundedness_margin():
    f = monomial(3, 0, gamma=0)
    assert f.boundedness_margin() == pytest.approx(-1.5)
    assert f.boundedness_margin(extra=4.0) == pytest.approx(2.5)


def test_weight_mixing_rejected():
    with pytest.raises(ValueError):
        RadialFun({(1, 0): 1.0, (0, 1): 1.0})
