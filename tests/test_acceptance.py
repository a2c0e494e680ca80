"""Acceptance gate: the ten headline properties at their stated tolerances.

Each criterion asserts on the check records of the suites behind the
command line driver (`twistorbf.suites`), so the gate and the CLI run one
copy of each check.  Each test prints one summary line; the order-64
kernel quadratures, the objects the htt parts read and the 20-probe master
equation run are module-scoped fixtures.
"""

import time

import pytest

from twistorbf.gcomplex import GComplex
from twistorbf.suites import (
    SuiteConfig,
    exactness_rung,
    htt_exactness,
    htt_hull,
    htt_side_conditions,
    htt_transfer,
    suite_bv,
    suite_cohomology,
    suite_invariance,
    suite_kernel,
)
from twistorbf.transfer import build_contraction, transfer


def _line(num, label, ok, detail=""):
    print("criterion %2d %-28s %s  %s"
          % (num, label, "PASS" if ok else "FAIL", detail))


def _by_prefix(checks, prefix):
    return [c for c in checks if c["name"].startswith(prefix)]


def _named(checks):
    return {c["name"]: c for c in checks}


def _failing(checks, bound):
    """Names of the records whose residual is not below bound."""
    return [c["name"] for c in checks if not c["residual"] < bound]


@pytest.fixture(scope="module")
def kernel_checks():
    return suite_kernel(SuiteConfig(suite="kernel"))


@pytest.fixture(scope="module")
def htt():
    """The objects the htt suite's parts read at its default truncation
    12: the extended complex, the transfer of the plain complex's
    contraction at min(12, 6), and the seconds the transfer took to build,
    which criterion 08's time bound covers."""
    cfg = SuiteConfig(suite="htt")
    ge = GComplex(12, extended=True)
    start = time.time()
    tb = transfer(build_contraction(GComplex(6)), max_arity=cfg.max_arity)
    return cfg, ge, tb, time.time() - start


@pytest.fixture(scope="module")
def bv_checks():
    return suite_bv(SuiteConfig(suite="bv"))


def test_criterion_01_serre_dimensions():
    start = time.time()
    checks = suite_cohomology(SuiteConfig(suite="cohomology"))
    elapsed = time.time() - start
    ok = len(checks) == 17 and all(c["pass"] for c in checks)
    ok = ok and elapsed < 5.0
    _line(1, "serre dimensions", ok, "17 twists, %.2fs" % elapsed)
    assert all(c["residual"] == 0.0 for c in checks)
    assert len(checks) == 17
    assert elapsed < 5.0


def test_criterion_02_chain_homotopy(kernel_checks):
    spectral = _by_prefix(kernel_checks, "chain-identity-spectral")
    quad = _by_prefix(kernel_checks, "chain-identity-quadrature")
    ws = max(c["residual"] for c in spectral)
    wq = max(c["residual"] for c in quad)
    ok = len(spectral) == 11 and ws < 1e-10 and wq < 1e-5
    _line(2, "chain homotopy identity", ok,
          "spectral %.1e, quadrature %.1e" % (ws, wq))
    assert len(spectral) == 11 and len(quad) == 11
    assert ws < 1e-10
    assert wq < 1e-5


def test_criterion_03_closed_form_kernel(kernel_checks):
    agree = [c for c in _by_prefix(kernel_checks, "kernel-vs-spectral")
             if -4 <= int(c["name"].rsplit("n", 1)[1]) <= 2]
    blocks = _by_prefix(kernel_checks, "six-block-kernel-assembly")
    worst = max(c["residual"] for c in agree + blocks)
    ok = len(agree) == 7 and len(blocks) == 1 and worst < 1e-5
    _line(3, "closed-form vs spectral", ok, "worst %.1e" % worst)
    assert len(agree) == 7 and len(blocks) == 1
    assert worst < 1e-5
    assert all(c["fitted_sign"] == 1.0 for c in agree)


def test_criterion_04_invariance():
    checks = suite_invariance(SuiteConfig(suite="invariance"))
    random = [c for c in checks if "identity" not in c["name"]]
    ident = [c for c in checks if "identity" in c["name"]]
    worst = max(c["residual"] for c in random)
    ok = (len(random) == 7 and worst < 1e-10
          and all(c["residual"] == 0.0 for c in ident))
    _line(4, "unitary mobius invariance", ok,
          "worst %.1e over 100 samples/twist" % worst)
    assert len(random) == 7 and len(ident) == 7
    assert worst < 1e-10
    assert all(c["residual"] == 0.0 for c in ident)


def test_criterion_05_holomorphy(kernel_checks):
    holo = _by_prefix(kernel_checks, "kernel-holomorphy")
    worst = max(c["residual"] for c in holo)
    ok = len(holo) == 7 and worst < 1e-7
    _line(5, "kernel holomorphy", ok, "worst fd residual %.1e" % worst)
    assert len(holo) == 7
    assert worst < 1e-7


def test_criterion_06_side_conditions(htt):
    named = _named(htt_side_conditions(htt[1]))
    r_sq = named["homotopy-squares-to-zero"]["residual"]
    r_orth = named["homotopy-orthogonal-to-harmonics"]["residual"]
    r_adj = named["homotopy-pairing-adjointness"]["residual"]
    r_nil = named["insertion-homotopy-nilpotent"]["residual"]
    r_one = named["pairing-one-entry-per-row"]["residual"]
    worst = max(r_sq, r_orth, r_adj, r_nil, r_one)
    _line(6, "contraction side conditions", worst < 1e-12,
          "H2 %.1e, orth %.1e, adj %.1e, (Hd)2 %.1e, pairing off %.1e"
          % (r_sq, r_orth, r_adj, r_nil, r_one))
    assert r_sq < 1e-12
    assert r_orth < 1e-12
    assert r_adj < 1e-12
    assert r_nil < 1e-12
    assert r_one < 1e-12


def test_criterion_07_hull_cohomology_match(htt):
    named = _named(htt_hull(htt[2]))
    dims = named["hull-graded-dimensions"]
    rank = named["hull-product-rank"]["product_rank"]
    match = named["hull-product-match"]["residual"]
    verdict = named["hull-basis-change-invertible"]["residual"]
    ok = (dims["o_dims"] == {0: 1, 1: 4, 2: 3}
          and dims["w_dims"] == {1: 3, 2: 4, 3: 1}
          and rank == 3 and verdict == 0)
    _line(7, "hull vs sheaf cohomology", ok,
          "dims (1,4,3|3,4,1), rank %d, match %.1e" % (rank, match))
    assert dims["o_dims"] == {0: 1, 1: 4, 2: 3}
    assert dims["w_dims"] == {1: 3, 2: 4, 3: 1}
    assert rank == 3
    assert verdict == 0


def test_criterion_08_homotopy_transfer(htt):
    cfg, _, tb, build = htt
    start = time.time()
    named = _named(htt_transfer(cfg, tb))
    elapsed = build + time.time() - start
    nharm_miss = named["harmonic-count"]["residual"]
    r_rel = named["transfer-jacobi-relations"]["residual"]
    r_co = named["transfer-cochain-map"]["residual"]
    iso_miss = named["transfer-cohomology-iso"]["residual"]
    r_cy = named["transfer-cyclic-compatibility"]["residual"]
    ok = (nharm_miss == 0 and r_rel < 1e-10 and r_co < 1e-10
          and iso_miss == 0 and r_cy < 1e-10 and elapsed < 60.0)
    _line(8, "homotopy transfer", ok,
          "relations %.1e, cochain %.1e, cyclic %.1e, %.1fs"
          % (r_rel, r_co, r_cy, elapsed))
    assert nharm_miss == 0          # 16 k^2 degrees of freedom at k = 2
    assert r_rel < 1e-10
    assert r_co < 1e-10
    assert iso_miss == 0
    assert r_cy < 1e-10
    assert elapsed < 60.0


def test_criterion_09_master_equation(bv_checks):
    named = {c["name"]: c for c in bv_checks}
    r_me = named["master-equation"]["residual"]
    r_cyc = named["trace-cyclicity"]["residual"]
    ok = r_me < 1e-11 and r_cyc < 1e-12
    _line(9, "classical master equation", ok,
          "{S,S} %.1e over 20 probes, cyclicity %.1e" % (r_me, r_cyc))
    assert r_me < 1e-11
    assert r_cyc < 1e-12


def test_criterion_10_exactness_and_insertion(htt):
    checks = htt_exactness(htt[0], exactness_rung(htt[0], htt[1]))
    ranks = _by_prefix(checks, "short-sequence-ranks")
    comp = _by_prefix(checks, "short-sequence-composition")
    dd = _by_prefix(checks, "insertion-squares-to-zero")
    leib = _by_prefix(checks, "insertion-leibniz")
    worst_comp = max(c["residual"] for c in comp)
    worst_leib = max(c["residual"] for c in leib)
    ok = (all(c["residual"] == 0 for c in ranks + dd)
          and worst_comp < 1e-12 and worst_leib < 1e-12)
    _line(10, "short sequence exactness", ok,
          "ranks exact, compose %.1e, leibniz %.1e"
          % (worst_comp, worst_leib))
    assert [c["name"] for c in ranks] == [
        "short-sequence-ranks-L%d" % t for t in (5, 6, 7, 8, 12)]
    assert not [c["name"] for c in ranks + dd if c["residual"] != 0]
    assert not _failing(comp, 1e-12)
    assert not _failing(leib, 1e-12)
