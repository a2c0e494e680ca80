import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twistorbf.gcomplex import PLAIN_BLOCKS
from twistorbf.kernels import (
    D_CUT,
    KernelHomotopy,
    Mobius,
    bump,
    chain_identity_quadrature,
    check_holomorphy,
    check_invariance,
    chordal,
    fd_wirtinger,
    kernel_h,
    kernel_hG,
    kernel_weighted,
    operator_agreement,
    reduction_residual,
    separated_pairs,
    spectral_levels_mask,
)
from twistorbf.sphere import LineBundleModel, build_model

from test_radial import bilinear_integral


def test_regression_value():
    # independent hand evaluation of the n = -4 branch at (1, 2i)
    got = kernel_h(-4, 1.0, 2.0j)
    assert got == pytest.approx(0.005092958178940651 - 0.0038197186342054886j, abs=1e-17)


def test_branches_agree_at_minus_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = kernel_h(-1, z1, z2)
        want = 1.0 / (2j * math.pi * (z2 - z1))
        assert abs(v - want) < 1e-14 * abs(want)


def test_pole_residue_structure():
    # (z2 - z1) h -> 1/(2 pi i) on the diagonal for every twist
    rng = np.random.default_rng(2)
    for n in (-4, -2, -1, 0, 1, 2):
        z1 = rng.standard_normal() + 1j * rng.standard_normal()
        for eps in (1e-4, 1e-5):
            z2 = z1 + eps * np.exp(0.3j)
            val = (z2 - z1) * kernel_h(n, z1, z2)
            assert abs(val - 1.0 / (2j * math.pi)) < 1e-3 * eps / 1e-5


def test_mobius_identity_and_composition():
    rng = np.random.default_rng(3)
    assert Mobius.identity().apply(0.7 - 0.2j) == 0.7 - 0.2j
    for _ in range(100):
        g1, g2 = Mobius.random(rng), Mobius.random(rng)
        z = rng.standard_normal() + 1j * rng.standard_normal()
        lhs = g1.apply(g2.apply(z))
        rhs = g1.compose(g2).apply(z)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_mobius_metric_invariance():
    # density 1/D^2 transforms with the |f'|^2 factor cancelling exactly
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = Mobius.random(rng)
        z = rng.standard_normal() + 1j * rng.standard_normal()
        fz = g.apply(z)
        p = -np.conj(g.b) * z + np.conj(g.a)
        fprime2 = 1.0 / abs(p) ** 4
        lhs = fprime2 / (1.0 + abs(fz) ** 2) ** 2
        rhs = 1.0 / (1.0 + abs(z) ** 2) ** 2
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_mobius_poles_and_infinity():
    r = 1.0 / math.sqrt(2.0)
    g = Mobius(r, r)  # pole at z = 1 exactly, even in floats
    assert np.isinf(g.apply(1.0))
    far = g.apply(np.inf)
    assert far == pytest.approx(g.a / (-np.conj(g.b)))


def test_invariance_law():
    rng = np.random.default_rng(5)
    for n in range(-4, 3):
        worst = 0.0
        for z1, z2 in separated_pairs(rng, 100, min_chordal=0.05):
            g = Mobius.random(rng)
            worst = max(worst, float(check_invariance(n, g, z1, z2)))
        assert worst < 1e-10
        assert check_invariance(n, Mobius.identity(), 0.4 + 0.1j, -0.3 + 0.9j) == 0.0


def test_reduction_to_origin():
    rng = np.random.default_rng(6)
    for n in (-1, 0, 1, 2):
        for z1, z2 in separated_pairs(rng, 20, min_chordal=0.05):
            theta = rng.uniform()
            assert reduction_residual(n, z1, z2, theta) < 1e-12


def test_holomorphy_by_finite_differences():
    rng = np.random.default_rng(7)
    for n in range(-4, 3):
        worst = 0.0
        for z1, z2 in separated_pairs(rng, 20, min_chordal=0.45, max_chordal=0.9):
            worst = max(worst, float(check_holomorphy(n, z1, z2, step=1e-4)))
        assert worst < 1e-7


def _inline_holomorphy(n, z1, z2, step):
    # oracle: the stencil check_holomorphy inlined before it shared
    # fd_wirtinger with check_offdiag_dbar
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if n >= -1:
        fun = lambda w: kernel_h(n, z1, w)
        z = z2
    else:
        fun = lambda w: kernel_h(n, w, z2)
        z = z1
    fx = (fun(z + step) - fun(z - step)) / (2 * step)
    fy = (fun(z + 1j * step) - fun(z - 1j * step)) / (2 * step)
    dbar = 0.5 * (fx + 1j * fy)
    dhol = 0.5 * (fx - 1j * fy)
    scale = np.maximum(np.abs(dhol), np.abs(fun(z)))
    return np.abs(dbar) / scale


_POINTS = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                             allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(-4, 2), z1=_POINTS, z2=_POINTS,
       step=st.floats(1e-6, 1e-2))
def test_shared_stencil_matches_inline_formula(n, z1, z2, step):
    assume(chordal(z1, z2) > 0.05)
    np.testing.assert_array_equal(check_holomorphy(n, z1, z2, step=step),
                                  _inline_holomorphy(n, z1, z2, step))


def test_g_kernel_blocks():
    z1, z2 = 0.3 + 0.4j, -0.7 + 0.1j
    blocks = kernel_hG(z1, z2)
    assert [b[0] for b in blocks] == [-4, -3, -2, 0, 1, 2]
    assert [b[1] for b in blocks] == [1, 2, 1, 1, 2, 1]
    for n, _, val in blocks:
        assert val == kernel_h(n, z1, z2)


def harmonic_pair_bases(n, levels=3):
    """Dual pair (t^a, s_a) entering the off-diagonal dbar identity at
    twist n >= -1: holomorphic sections s_a of O(n) and harmonic
    (0,1)-forms of O(-2-n) normalized against them by the bilinear pairing
    int A s dzbar^dz = 2i int A s dx dy."""
    if n < -1:
        raise ValueError("dual pair bases are indexed by the n >= -1 branch")
    if n == -1:
        return [], []
    msec = LineBundleModel(n, 1)
    sections = list(msec.funs0)
    mform = LineBundleModel(-2 - n, max(levels, 1))
    forms = [mform.funs1[i] for i in range(mform.n_harm1)]
    pair = np.array([[2j * bilinear_integral(a, s) for s in sections] for a in forms])
    inv = np.linalg.inv(pair)
    duals = []
    for alpha in range(len(sections)):
        f = None
        for beta, a in enumerate(forms):
            g = a.scale(inv[alpha, beta])
            f = g if f is None else f.add(g)
        duals.append(f)
    return duals, sections


def check_offdiag_dbar(n, z1, z2, step=1e-5):
    """Residual of the off-diagonal identity: the dbar of h in its
    non-holomorphic argument equals the bidiagonal sum of dual harmonic
    pairs.  Relative to the larger of |h| and the predicted value."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if n >= -1:
        _, got = fd_wirtinger(lambda w: kernel_h(n, w, z2), z1, step)
        duals, sections = harmonic_pair_bases(n)
        pred = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        for t, s in zip(duals, sections):
            pred = pred + t.eval(z1) * s.eval(z2)
    else:
        # h_n(z1, z2) = -h_{-2-n}(z2, z1) reduces this to the other branch
        _, got = fd_wirtinger(lambda w: kernel_h(n, z1, w), z2, step)
        duals, sections = harmonic_pair_bases(-2 - n)
        pred = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        for t, s in zip(duals, sections):
            pred = pred - t.eval(z2) * s.eval(z1)
    scale = np.maximum(np.abs(kernel_h(n, z1, z2)), np.abs(pred))
    return np.abs(got - pred) / np.maximum(scale, 1e-30)


def test_offdiag_dbar_identity():
    rng = np.random.default_rng(8)
    for n, tol in ((-1, 1e-8), (0, 1e-6), (2, 1e-6), (-4, 1e-6)):
        pairs = separated_pairs(rng, 10)
        z1 = np.array([p[0] for p in pairs])
        z2 = np.array([p[1] for p in pairs])
        assert check_offdiag_dbar(n, z1, z2).max() < tol


# quadrature operators are slow to assemble; share one per twist
_CACHE = {}


def _hq(n):
    if n not in _CACHE:
        m = build_model(n, 6)
        _CACHE[n] = (m, KernelHomotopy(m, order=32, target_order=24))
    return _CACHE[n]


def test_quadrature_agrees_with_spectral_homotopy():
    for n in (-4, 0, 2):
        m, hq = _hq(n)
        err, sign = operator_agreement(m, hq, 5)
        assert sign == 1.0
        assert err < 5e-5


def test_quadrature_kills_harmonic_forms():
    m, hq = _hq(-4)
    out = hq.matrix()[:, :m.n_harm1]
    assert np.abs(out).max() < 5e-5


def test_quadrature_chain_identity():
    rng = np.random.default_rng(9)
    for n in (-4, 0):
        m, hq = _hq(n)
        assert chain_identity_quadrature(m, hq, rng, samples=10) < 5e-5


def _dense_block_checks(model, hquad, rng, n_levels=5, samples=10):
    """oracle: operator_agreement and chain_identity_quadrature as they were
    written on the model's dense dbar, H and P blocks, here sliced out of
    the dense gathers"""
    d0 = model.dim0
    dt, ht, pt = model.dbar.dense(), model.hom.dense(), model.proj.dense()
    dbar, hom, proj0, proj1 = (dt[d0:, :d0], ht[:d0, d0:], pt[:d0, :d0],
                               pt[d0:, d0:])
    mask = spectral_levels_mask(model, 1, n_levels)
    hq = hquad.matrix()[:, mask]
    hs = hom[:, mask]
    sign = 1.0 if np.vdot(hq, hs).real >= 0 else -1.0
    agreement = (float(np.linalg.norm(hq - sign * hs, 2)
                       / np.linalg.norm(hs, 2)), sign)
    hq = hquad.matrix()
    worst = 0.0
    for _ in range(samples):
        s = rng.standard_normal(d0) + 1j * rng.standard_normal(d0)
        lhs = hq @ (dbar @ s)
        rhs = s - proj0 @ s
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(s))
        a = rng.standard_normal(model.dim1) + 1j * rng.standard_normal(
            model.dim1)
        lhs1 = dbar @ (hq @ a)
        rhs1 = a - proj1 @ a
        worst = max(worst, np.linalg.norm(lhs1 - rhs1) / np.linalg.norm(a))
    return agreement, float(worst)


@pytest.mark.parametrize("n", (-4, 0, 2))
def test_kernel_checks_match_dense_blocks_bitwise(n):
    m, hq = _hq(n)
    want_agreement, want_chain = _dense_block_checks(
        m, hq, np.random.default_rng(17))
    assert operator_agreement(m, hq, 5) == want_agreement
    assert chain_identity_quadrature(m, hq, np.random.default_rng(17),
                                     samples=10) == want_chain


def test_quadrature_zero_in_zero_out():
    m, hq = _hq(0)
    assert np.abs(hq.matrix() @ np.zeros(m.dim1)).max() == 0.0


def _center_mobius(z2):
    """The SU(2) map sending 0 to z2."""
    d = math.sqrt(1.0 + abs(z2) ** 2)
    return Mobius(1.0 / d, z2 / d)


def _per_target_near_block(m, zt, n_rho, n_phi):
    # oracle: the near block as the n_rho x n_phi polar rule turned onto
    # each target by _center_mobius, every form evaluated on it, as it was
    # before Schur's lemma reduced it to one centred rule per model
    rho_max = D_CUT / math.sqrt(1.0 - D_CUT ** 2)
    x, wx = np.polynomial.legendre.leggauss(n_rho)
    rho = 0.5 * rho_max * (x + 1.0)
    wrho = 0.5 * rho_max * wx
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    zeta = rho[:, None] * np.exp(1j * phi)[None, :]
    chi = bump(rho / np.sqrt(1.0 + rho ** 2))
    wzeta = (wrho * rho * chi)[:, None] * (2.0 * math.pi / n_phi)
    out = np.empty((len(zt), m.dim1), dtype=complex)
    for i, z2 in enumerate(zt):
        g = _center_mobius(z2)
        p = g.factor(zeta)
        z1 = (g.a * zeta + g.b) / p
        # kernel_weighted divides by the computed z2 - z1; trade it for
        # -zeta / (conj(a) p), the same difference without cancellation
        dz = -zeta / (np.conj(g.a) * p)
        k = kernel_weighted(m.n, z1, z2) * ((z2 - z1) / dz)
        jac = 1.0 / np.abs(p) ** 4
        vals = m.basis_values(z1.ravel(), 1)
        out[i] = vals @ (k * jac * wzeta).ravel()
    return out


def _per_target_matrix(hq):
    # oracle: far and near blocks evaluated at every target in chunks of
    # 256, as matrix() did before it rotated the far block around the
    # target rings and read the near block off the centred rule
    m = hq.model
    zt = hq.targets.z
    outvals = np.empty((len(zt), m.dim1), dtype=complex)
    for i0 in range(0, len(zt), 256):
        sl = slice(i0, i0 + 256)
        outvals[sl] = hq._far_block(zt[sl]) + _per_target_near_block(
            m, zt[sl], hq.n_rho, hq.n_phi)
    v0, wfac = m.grid_data(hq.targets, 0)
    return v0.conj() @ (wfac[:, None] * outvals)


@functools.lru_cache(maxsize=None)
def _small_model(n):
    return build_model(n, 3)


@pytest.mark.parametrize("n", (-4, 0, 1))
@pytest.mark.parametrize("target_order", (12, 32, 7))
def test_ring_rotation_matches_per_target_quadrature(n, target_order):
    # with n_phi = 48 and far.n_theta = 32, the (near, far) q per ring is
    # (1, 3) at 24 targets a ring, (4, 2) at 64 and (7, 7) at 14
    hq = KernelHomotopy(_small_model(n), order=16, target_order=target_order)
    want = _per_target_matrix(hq)
    got = hq.matrix()
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


# a few targets at every scale of the chart, the origin and a far one
# off the axes among them
_NEAR_TARGETS = np.array([0.0, 1e-3j, 0.3 + 0.1j, -0.8 - 0.6j, -1.2 + 0.7j,
                          2.5j, 7.5 - 3j, -40.0 + 25.0j])


@pytest.mark.parametrize("n, levels, n_rho, n_phi", [
    # the kernel suite's models on the default near grid
    *((n, max(abs(n) + 4, 8), 24, 48) for n in range(-6, 5)),
    # the demo's coarsest grid
    (0, 8, 6, 12),
])
def test_near_block_matches_per_target_quadrature(n, levels, n_rho, n_phi):
    m = build_model(n, levels)
    hq = KernelHomotopy(m, order=8, n_rho=n_rho, n_phi=n_phi)
    want = _per_target_near_block(m, _NEAR_TARGETS, n_rho, n_phi)
    got = hq._near_block(m.basis_values(_NEAR_TARGETS, 0))
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    # Schur: the harmonic forms have no section partner
    assert not got[:, :m.n_harm1].any()
    assert (np.abs(want[:, :m.n_harm1]).max(initial=0.0)
            <= 1e-13 * np.abs(want).max())


def test_near_block_aliasing_guard_is_sharp():
    # at n = -6, L = 10 the form weights run from -14 to 10, so the
    # largest |w - 1| is 15: fifteen angles alias weight -14 onto 1
    m = build_model(-6, 10)
    assert np.abs(m.weights1 - 1).max() == 15
    with pytest.raises(ValueError, match=r"twist -6: form weight -14 .*"
                                         r"n_phi = 15 "):
        KernelHomotopy(m, n_phi=15)
    got = KernelHomotopy(m, order=8, n_phi=16)._near_block(
        m.basis_values(_NEAR_TARGETS, 0))
    want = _per_target_near_block(m, _NEAR_TARGETS, 24, 16)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    aliased = _per_target_near_block(m, _NEAR_TARGETS, 24, 15)
    assert np.linalg.norm(got - aliased) > 1e-6 * np.linalg.norm(aliased)


def _direct_far_block(hq, zt):
    # oracle: the far block as the direct sum over every far grid point,
    # with the forms evaluated on the whole grid, as it was before the
    # angular FFT
    m = hq.model
    v1, _ = m.grid_data(hq.far, 1)
    wv1 = hq.far.w[:, None] * v1.T
    out = np.empty((len(zt), m.dim1), dtype=complex)
    for i0 in range(0, len(zt), 256):
        z = zt[i0:i0 + 256, None]
        k = kernel_weighted(m.n, hq.far.z[None, :], z)
        d = chordal(hq.far.z[None, :], z)
        cut = 1.0 - bump(d)
        out[i0:i0 + 256] = (np.where(d < 1e-14, 0.0, k) * cut) @ wv1
    return out


@pytest.mark.parametrize("n, levels, order, target_order", [
    (-4, 3, 16, 12), (0, 3, 16, 12), (1, 3, 16, 12),
    # 8 angles, fewer than the span of the form weights: aliased
    (0, 6, 4, 12),
    # targets on the far nodes, where the pole mask drops the kernel
    (1, 3, 16, 16),
])
def test_far_block_matches_direct_sum(n, levels, order, target_order):
    m = build_model(n, levels)
    hq = KernelHomotopy(m, order=order, target_order=target_order)
    if order == 4:
        assert np.ptp(m.weights1) >= hq.far.n_theta
    if order == target_order:
        assert np.array_equal(hq.targets.z, hq.far.z)
    zt = hq.targets.z
    want = _direct_far_block(hq, zt)
    got = hq._far_block(zt)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from procfs")
def test_kernel_matrix_stays_small():
    # kernel-quadrature's operator.  The far block held the forms on all
    # 8,192 far points twice (63 x 8,192 complex each), which took this
    # child to 68 MB.  VmHWM of a child with one BLAS thread, as in
    # test_gcomplex.py::test_exactness_ladder_stays_small
    code = ("from twistorbf.kernels import KernelHomotopy\n"
            "from twistorbf.sphere import build_model\n"
            "KernelHomotopy(build_model(0, 8), order=64,\n"
            "               target_order=12).matrix()\n"
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
    assert int(peak[0]) < 55 * 1024     # kB: 55 MB


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([n for n, _ in PLAIN_BLOCKS]),
       r=st.floats(0.05, 20.0), theta=st.floats(0.0, 2 * math.pi),
       s=st.integers(-100, 100))
def test_ring_rotation_phase_rule(n, r, theta, s):
    # rotating the target by a step of the block's angular grid permutes
    # that grid; the kernel turns by e^(-i alpha), form f by e^(i w_f alpha)
    m = _small_model(n)
    hq = KernelHomotopy(m, order=16)
    w = m.weights1
    z = np.array([r * np.exp(1j * theta)])
    near = functools.partial(_per_target_near_block, m, n_rho=hq.n_rho,
                             n_phi=hq.n_phi)
    for block, period in ((near, hq.n_phi), (hq._far_block, hq.far.n_theta)):
        alpha = 2 * math.pi * s / period
        want = np.exp(1j * (w - 1) * alpha) * block(z)
        got = block(np.exp(1j * alpha) * z)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_chordal_distance_range():
    assert chordal(0.0, np.array([1e8])) == pytest.approx(1.0, abs=1e-6)
    assert chordal(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
