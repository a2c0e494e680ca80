import json
import weakref

import pytest

from twistorbf.cli import main
from twistorbf.gcomplex import GComplex
from twistorbf.sphere import LineBundleModel
from twistorbf.suites import (SuiteConfig, exactness_rung, htt_exactness,
                              htt_hull, htt_side_conditions, htt_transfer,
                              run_suite, suite_htt)
from twistorbf.transfer import build_contraction, transfer


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cohomology_full_range(capsys):
    code, rep = run_cli(capsys, "--suite", "cohomology")
    assert code == 0
    assert rep["schema"] == 1
    assert len(rep["checks"]) == 17
    assert rep["pass"] is True
    assert all(c["pass"] for c in rep["checks"])


def test_kernel_single_twist(capsys):
    # quadrature order 64; invariance, holomorphy and operator agreement
    code, rep = run_cli(capsys, "--suite", "kernel", "--n-range=-4..-4")
    assert code == 0
    names = {c["name"].rsplit("-n", 1)[0] for c in rep["checks"]}
    assert {"kernel-invariance", "kernel-holomorphy",
            "kernel-vs-spectral"} <= names
    agree = [c for c in rep["checks"]
             if c["name"].startswith("kernel-vs-spectral")]
    assert agree[0]["fitted_sign"] == 1.0


def test_invariance_identity_exact(capsys):
    code, rep = run_cli(capsys, "--suite", "invariance", "--n-range=0..1")
    assert code == 0
    idents = [c for c in rep["checks"] if "identity" in c["name"]]
    assert len(idents) == 2
    assert all(c["residual"] == 0.0 and c["exact"] for c in idents)


def test_failure_exit_code_and_report(capsys):
    # an absurd tolerance forces failures but the report is still emitted
    code, rep = run_cli(capsys, "--suite", "invariance", "--n-range=0..0",
                        "--tol", "1e-30")
    assert code == 1
    assert rep["pass"] is False
    assert any(not c["pass"] for c in rep["checks"])
    # exact checks are not subject to the override
    assert all(c["pass"] for c in rep["checks"] if c.get("exact"))


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "nonsense"])
    assert exc.value.code == 2


def test_bad_n_range_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "cohomology", "--n-range", "3..x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "cohomology", "--n-range=4..1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["cohomology", "kernel", "all"])
@pytest.mark.parametrize("n_range,twist", [("-18..-18", -18),
                                           ("-23..4", -23), ("0..100", 98)])
def test_n_range_past_the_basis_guard_is_usage_error(suite, n_range, twist,
                                                     capsys):
    # the suites died on the level 0-3 normalization guard with exit 1 and
    # no report; the usage error carries that guard's message
    with pytest.raises(SystemExit) as exc:
        main(["--suite", suite, "--n-range=" + n_range])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("n-range %s: twist %d level 3: |dbar f / lambda|^2 - 1 = "
            % (n_range, twist)) in err


def test_n_range_guard_spares_what_builds():
    SuiteConfig(suite="cohomology", n_range=(-17, 97)).validate()
    # the invariance suite builds no model at any twist
    SuiteConfig(suite="invariance", n_range=(-30, -18)).validate()


def test_negative_config_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "cohomology", "--truncation", "-3"])
    assert exc.value.code == 2
    for arity in ("1", "5"):
        with pytest.raises(SystemExit) as exc:
            main(["--suite", "htt", "--truncation", "5",
                  "--max-arity", arity])
        assert exc.value.code == 2


@pytest.mark.parametrize("args,message", [
    # numpy refuses a negative seed: each suite died with exit 1 and no
    # report, though exit 1 promises one
    (["--suite", "invariance", "--seed", "-5000"], "seed must be"),
    (["--suite", "htt", "--seed", "-1"], "seed must be"),
    (["--suite", "bv", "--seed", "-1"], "seed must be"),
    # nan <= 0 is False: every non-exact record got threshold NaN and the
    # report held a bare NaN, which is not JSON
    (["--suite", "invariance", "--tol", "nan"], "tol must be"),
    (["--tol", "nan"], "tol must be"),
    (["--suite", "invariance", "--tol", "inf"], "tol must be"),
])
def test_negative_seed_and_non_finite_tol_are_usage_errors(args, message,
                                                           capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("suite,low,need", [
    ("htt", 4, 5), ("htt", 1, 5), ("all", 4, 5), ("bv", 1, 2)])
def test_truncation_below_the_suite_is_usage_error(suite, low, need, capsys):
    # the htt suite builds the extended complex (5 levels at least), the
    # bv suite the plain one (2)
    with pytest.raises(SystemExit) as exc:
        main(["--suite", suite, "--truncation", str(low)])
    assert exc.value.code == 2
    assert "needs truncation >= %d" % need in capsys.readouterr().err
    SuiteConfig(suite=suite, truncation=need).validate()


@pytest.mark.parametrize("suite", ["htt", "bv", "all"])
def test_rank_one_is_usage_error_where_rank_is_read(suite, capsys):
    # with scalar or rank-1 coefficients the graded-commutative brackets
    # and a.a cancel to roundoff: htt failed transfer-cyclic-compatibility
    # at 1.0 and bv master-equation at 0.1, each with exit 1
    with pytest.raises(SystemExit) as exc:
        main(["--suite", suite, "--rank", "1"])
    assert exc.value.code == 2
    assert "needs rank >= 2" in capsys.readouterr().err
    SuiteConfig(suite=suite, rank=2).validate()
    SuiteConfig(suite="cohomology", rank=1).validate()


def test_reports_identical_across_runs(capsys):
    _, rep1 = run_cli(capsys, "--suite", "cohomology", "--n-range=-3..3")
    _, rep2 = run_cli(capsys, "--suite", "cohomology", "--n-range=-3..3")
    for rep in (rep1, rep2):
        del rep["wall_time"]
    assert rep1 == rep2


def test_parallel_matches_serial(capsys):
    _, serial = run_cli(capsys, "--suite", "invariance", "--n-range=-1..1")
    _, par = run_cli(capsys, "--suite", "invariance", "--n-range=-1..1",
                     "--parallel")
    assert serial["checks"] == par["checks"]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["--suite", "cohomology", "--n-range=0..2",
                 "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(path.read_text())
    assert rep["pass"] is True
    assert rep["config"]["n_range"] == [0, 2]


def test_run_suite_rejects_bad_config():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suite="bogus"))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suite="bv", rank=0))
    for arity in (0, 1, 5):
        with pytest.raises(ValueError, match="max_arity must be 2, 3 or 4"):
            run_suite(SuiteConfig(suite="htt", max_arity=arity))


@pytest.mark.parametrize("arity", [2, 3])
def test_htt_suite_below_arity_four(capsys, arity):
    # the relation and cyclicity checks run over the arities built
    code, rep = run_cli(capsys, "--suite", "htt", "--max-arity", str(arity))
    assert code == 0
    assert rep["pass"] is True
    names = {"harmonic-count", "transfer-jacobi-relations",
             "transfer-cochain-map", "transfer-cohomology-iso",
             "transfer-cyclic-compatibility"}
    got = {c["name"]: c for c in rep["checks"] if c["name"] in names}
    assert set(got) == names
    assert all(c["pass"] for c in got.values())
    assert sorted(got["transfer-jacobi-relations"]["per_arity"]) == [
        str(n) for n in range(2, arity + 1)]


def test_htt_suite_matches_its_parts(capsys):
    # the acceptance gate reads these records from the four parts; the
    # CLI suite is their concatenation
    code, rep = run_cli(capsys, "--suite", "htt", "--truncation", "5")
    assert code == 0
    names = {c["name"] for c in rep["checks"]}
    assert {
        "homotopy-squares-to-zero", "homotopy-orthogonal-to-harmonics",
        "homotopy-pairing-adjointness", "pairing-one-entry-per-row",
        "insertion-homotopy-nilpotent",
        "short-sequence-ranks-L5", "short-sequence-composition-L5",
        "insertion-squares-to-zero-L5", "insertion-leibniz-L5",
        "hull-graded-dimensions", "hull-product-rank", "hull-product-match",
        "hull-basis-change-invertible", "harmonic-count",
        "transfer-jacobi-relations", "transfer-cochain-map",
        "transfer-cohomology-iso", "transfer-cyclic-compatibility",
    } <= names
    cfg = SuiteConfig(suite="htt", truncation=5)
    ge = GComplex(5, extended=True)
    tb = transfer(build_contraction(GComplex(5)), max_arity=cfg.max_arity)
    parts = (htt_side_conditions(ge)
             + htt_exactness(cfg, exactness_rung(cfg, ge)) + htt_hull(tb)
             + htt_transfer(cfg, tb))
    assert rep["checks"] == json.loads(json.dumps(parts))


def test_htt_suite_builds_each_object_once(monkeypatch):
    # one extended complex at the suite truncation, shared by the side
    # conditions and the exactness ladder and freed before the ladder's
    # smaller rungs are built, and every line bundle model built by a
    # complex: the hull check reads the transfer's harmonics
    built, inside, outside = [], [0], [0]
    live, alive_at_build = weakref.WeakSet(), []
    init, model, lb_init = (GComplex.__init__, GComplex._model,
                            LineBundleModel.__init__)

    def counting_init(self, truncation=12, extended=False):
        built.append((truncation, extended))
        if extended:
            alive_at_build.append(len(live))
            live.add(self)
        init(self, truncation, extended)

    def counting_model(self, n, levels):
        inside[0] += 1
        try:
            return model(self, n, levels)
        finally:
            inside[0] -= 1

    def counting_lb_init(self, *args, **kwargs):
        outside[0] += not inside[0]
        lb_init(self, *args, **kwargs)

    monkeypatch.setattr(GComplex, "__init__", counting_init)
    monkeypatch.setattr(GComplex, "_model", counting_model)
    monkeypatch.setattr(LineBundleModel, "__init__", counting_lb_init)
    checks = suite_htt(SuiteConfig(suite="htt"))
    assert all(c["pass"] for c in checks)
    assert built.count((12, True)) == 1
    assert outside[0] == 0
    # one extended complex alive at a time: rungs 12, 5, 6, 7, 8
    assert alive_at_build == [0] * 5
