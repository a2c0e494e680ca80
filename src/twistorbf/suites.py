"""Verification suites behind the command line driver.

Each suite assembles a list of check records {name, anchor, residual,
threshold, pass}.  Anchors are stable slugs naming the verified statement,
so reports can be audited and diffed across runs.  Integer identities
(dimension counts, ranks) are reported as mismatch counts with an `exact`
marker; a tolerance override from the command line leaves those alone.

Per-suite defaults follow the modules: spectral truncation 12, quadrature
order 64, transfer and field-theory checks at truncation 6, matrix rank 2.
A config field left at None means "use the suite default".

The htt suite builds each object its parts read once, the extended complex
at the suite truncation L (freed before the smaller exactness rungs) and the
transfer of the plain complex's contraction at min(L, 6); the acceptance gate
builds the same objects and asserts on each part's records.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import bv
from .gcomplex import PLAIN_BLOCKS, GComplex
from .kernels import (
    KernelHomotopy,
    Mobius,
    chain_identity_quadrature,
    check_holomorphy,
    check_invariance,
    operator_agreement,
    separated_pairs,
)
from .selfdual import HULL_DIMS, check_u_cohomology_iso, graded_dims
from .sphere import build_model
from .transfer import (
    build_contraction,
    check_cyclic,
    check_linfty_relations,
    harmonic_pairing,
    quasi_iso_linear,
    transfer,
)

SUITE_NAMES = ("cohomology", "kernel", "invariance", "htt", "bv", "all")

# the smallest truncation each suite builds: the htt suite builds the
# extended complex, the bv suite the plain one
MIN_TRUNCATION = {"htt": 5, "bv": 2}


class SuiteConfig:
    """Flat bundle of driver options; None fields take suite defaults."""

    def __init__(self, suite="all", truncation=None, quadrature=None,
                 tol=None, seed=0, n_range=None, rank=2, max_arity=4,
                 parallel=False):
        self.suite = suite
        self.truncation = truncation
        self.quadrature = quadrature
        self.tol = tol
        self.seed = seed
        self.n_range = n_range
        self.rank = rank
        self.max_arity = max_arity
        self.parallel = parallel

    def validate(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError("unknown suite %r" % (self.suite,))
        for name in ("truncation", "quadrature", "rank"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError("%s must be positive" % name)
        # at rank 1 the graded-commutative brackets and a.a cancel to
        # roundoff, and the transfer and master-equation checks divide
        # roundoff by roundoff
        if self.suite in ("htt", "bv", "all") and self.rank < 2:
            raise ValueError("the %s suite needs rank >= 2, not %d: with "
                             "scalar or rank-1 coefficients the brackets "
                             "and a.a cancel to roundoff"
                             % (self.suite, self.rank))
        need = max(MIN_TRUNCATION.get(s, 1) for s in (
            SUITE_NAMES if self.suite == "all" else (self.suite,)))
        if self.truncation is not None and self.truncation < need:
            raise ValueError("the %s suite needs truncation >= %d, not %d"
                             % (self.suite, need, self.truncation))
        if not 2 <= self.max_arity <= 4:
            raise ValueError("max_arity must be 2, 3 or 4 (the arities "
                             "transfer builds), not %d" % self.max_arity)
        if self.tol is not None and not (math.isfinite(self.tol)
                                         and self.tol > 0):
            raise ValueError("tol must be positive and finite, not %r"
                             % self.tol)
        # every suite seeds numpy generators with seed + a nonnegative
        # offset, and numpy refuses negative seeds
        if self.seed < 0:
            raise ValueError("seed must be nonnegative, not %d" % self.seed)
        if self.n_range is not None:
            lo, hi = self.n_range
            if lo > hi:
                raise ValueError("empty n-range %d..%d" % (lo, hi))
            # the cohomology and kernel suites build each twist's model at
            # 4 levels or more, and its level 0-3 normalization guard fails
            # for n <= -18 and for some n >= 98
            try:
                if self.suite in ("cohomology", "kernel", "all"):
                    for n in range(lo, hi + 1):
                        build_model(n, 4)
            except AssertionError as e:
                raise ValueError("n-range %d..%d: %s" % (lo, hi, e))

    def trunc(self, default):
        return default if self.truncation is None else self.truncation

    def order(self):
        return 64 if self.quadrature is None else self.quadrature

    def ns(self, lo, hi):
        if self.n_range is None:
            return list(range(lo, hi + 1))
        return list(range(self.n_range[0], self.n_range[1] + 1))

    def echo(self):
        return {
            "suite": self.suite,
            "truncation": self.truncation,
            "quadrature": self.quadrature,
            "tol": self.tol,
            "seed": self.seed,
            "n_range": list(self.n_range) if self.n_range else None,
            "rank": self.rank,
            "max_arity": self.max_arity,
            "parallel": self.parallel,
        }


def _check(name, anchor, residual, threshold, exact=False, **extra):
    residual = float(residual)
    out = {
        "name": name,
        "anchor": anchor,
        "residual": residual,
        "threshold": float(threshold),
        "pass": bool(residual <= threshold if exact else residual < threshold),
    }
    if exact:
        out["exact"] = True
    out.update(extra)
    return out


def _map_ordered(fn, items, parallel):
    if parallel:
        with ThreadPoolExecutor() as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


def suite_cohomology(cfg):
    def one(n):
        levels = max(cfg.trunc(12), abs(n) + 4)
        h0, h1 = build_model(n, levels).serre_dims()
        miss = abs(h0 - max(n + 1, 0)) + abs(h1 - max(-n - 1, 0))
        return _check("serre-dims-n%+d" % n, "line-bundle-cohomology",
                      miss, 0.0, exact=True, dims=[int(h0), int(h1)])

    return _map_ordered(one, cfg.ns(-8, 8), cfg.parallel)


def suite_kernel(cfg):
    order = cfg.order()
    ns = cfg.ns(-6, 4)

    def one(n):
        rng = np.random.default_rng(cfg.seed + 1000 + n)
        m = build_model(n, max(abs(n) + 4, 8))
        out = [_check("chain-identity-spectral-n%+d" % n,
                      "homotopy-chain-identity",
                      m.chain_homotopy_residual(), 1e-10)]
        hq = KernelHomotopy(m, order=order)
        err, sign = operator_agreement(m, hq, 5)
        out.append(_check("kernel-vs-spectral-n%+d" % n,
                          "closed-form-kernel-agreement", err, 1e-5,
                          fitted_sign=sign))
        out.append(_check("chain-identity-quadrature-n%+d" % n,
                          "homotopy-chain-identity",
                          chain_identity_quadrature(m, hq, rng, 50),
                          1e-5))
        if -4 <= n <= 2:
            worst = 0.0
            # keep pairs off the antipodal locus too: the finite
            # difference stencil loses accuracy where the kernel factor
            # degenerates, not the holomorphy itself
            for z1, z2 in separated_pairs(rng, 20, min_chordal=0.45,
                                          max_chordal=0.9):
                worst = max(worst, float(check_holomorphy(n, z1, z2,
                                                          step=1e-4)))
            out.append(_check("kernel-holomorphy-n%+d" % n,
                              "kernel-holomorphic-argument", worst, 1e-7))
            worst = 0.0
            for z1, z2 in separated_pairs(rng, 20):
                g = Mobius.random(rng)
                worst = max(worst, float(check_invariance(n, g, z1, z2)))
            out.append(_check("kernel-invariance-n%+d" % n,
                              "mobius-transformation-law", worst, 1e-10))
        return out, (n, out[1]["residual"])

    results = _map_ordered(one, ns, cfg.parallel)
    checks = [c for out, _ in results for c in out]
    agreements = {n: r for _, (n, r) in results}
    twists, mults = zip(*PLAIN_BLOCKS)
    if all(t in agreements for t in twists):
        worst = max(agreements[t] for t in twists)
        checks.append(_check(
            "six-block-kernel-assembly", "closed-form-kernel-agreement",
            worst, 1e-5, twists=list(twists), multiplicities=list(mults)))
    return checks


def suite_invariance(cfg):
    def one(n):
        rng = np.random.default_rng(cfg.seed + 2000 + n)
        worst = 0.0
        for z1, z2 in separated_pairs(rng, 100):
            g = Mobius.random(rng)
            worst = max(worst, float(check_invariance(n, g, z1, z2)))
        ident = float(check_invariance(n, Mobius.identity(),
                                       0.4 + 0.1j, -0.3 + 0.9j))
        return [
            _check("kernel-invariance-n%+d" % n,
                   "mobius-transformation-law", worst, 1e-10),
            _check("kernel-invariance-identity-n%+d" % n,
                   "mobius-transformation-law", ident, 0.0, exact=True),
        ]

    return [c for out in _map_ordered(one, cfg.ns(-4, 2), cfg.parallel)
            for c in out]


def _block_product(a, b):
    """a @ b for operators held as blocks keyed by (target piece, source
    piece): sums over matching inner pieces."""
    out = {}
    for (t, m), x in a.items():
        for (n, s), y in b.items():
            if m == n:
                out[(t, s)] = out.get((t, s), 0) + x @ y
    return out


def _blocks_max(blocks):
    return max((np.abs(b).max(initial=0.0) for b in blocks.values()),
               default=0.0)


def htt_side_conditions(ge):
    """Side conditions of the contraction: the plain complex's homotopy
    and the entries its trace pairing drops, and the homotopy against the
    insertion differential, composed block by block with the models'
    homotopy on each multiplicity copy.  ge is the extended complex."""
    side = build_contraction(ge.quotient, tol=np.inf).side_conditions
    checks = [_check(name, "contraction-side-conditions", side[key], 1e-12)
              for name, key in (
                  ("homotopy-squares-to-zero", "homotopy squares to zero"),
                  ("homotopy-orthogonal-to-harmonics",
                   "homotopy range isotropic"),
                  ("homotopy-pairing-adjointness", "homotopy self-adjoint"))]
    checks.append(_check("pairing-one-entry-per-row",
                         "contraction-side-conditions",
                         ge.quotient.pairing_matrix().dropped, 1e-12))
    H = {((bi, 0), (bi, 1)): np.kron(
             np.eye(b.mult), b.model.hom.dense()[:b.model.dim0, b.model.dim0:])
         for bi, b in enumerate(ge.blocks)}
    HD = _block_product(H, ge.iota_blocks)
    checks.append(_check("insertion-homotopy-nilpotent",
                         "contraction-side-conditions",
                         _blocks_max(_block_product(HD, HD)), 1e-12))
    return checks


def exactness_rung(cfg, gt):
    """Exactness of the tautological sequences and the insertion
    differential on one rung of the ladder, the extended complex gt."""
    trunc = gt.truncation
    rows = gt.exactness_report()
    bad = sum(1 for r in rows if not r["exact"])
    comp = max(r["compose_residual"] for r in rows)
    D, ins = gt.iota_blocks, gt.insertion
    checks = [
        _check("short-sequence-ranks-L%d" % trunc,
               "ideal-quotient-exactness", bad, 0.0, exact=True),
        _check("short-sequence-composition-L%d" % trunc,
               "ideal-quotient-exactness", comp, 1e-12),
        _check("insertion-squares-to-zero-L%d" % trunc,
               "insertion-differential", _blocks_max(_block_product(D, D)),
               0.0, exact=True)]
    rng = np.random.default_rng(cfg.seed + trunc)
    x = gt.random_vector(rng, max_level=0)
    y = gt.random_vector(rng, max_level=0)
    s = np.where(gt.space.reduced_degrees() % 2, -1.0, 1.0)
    lhs = ins(gt.product_apply(x, y))
    rhs = gt.product_apply(ins(x), y) + gt.product_apply(s * x, ins(y))
    checks.append(_check("insertion-leibniz-L%d" % trunc,
                         "insertion-differential",
                         np.abs(lhs - rhs).max(), 1e-12))
    return checks


def htt_exactness(cfg, top):
    """The exactness rungs 5..8 below the suite truncation, each built and
    freed in turn, then its own rung's records top (`exactness_rung`)."""
    return [c for trunc in range(5, min(cfg.trunc(12) - 1, 8) + 1)
            for c in exactness_rung(cfg, GComplex(trunc, extended=True))
            ] + top


def htt_hull(tb):
    """Cohomology of the cyclic hull against the sheaf cohomology, read
    off the transferred structure tb."""
    dims = graded_dims(tb)
    # on other dimensions than the hull's the product records fail uncomputed
    rep = check_u_cohomology_iso(tb) if dims == HULL_DIMS else {
        "product_rank": math.inf, "basis_change_residual": math.inf,
        "basis_change_min_singular": math.nan, "pass": False}
    return [
        _check("hull-graded-dimensions", "cyclic-hull-cohomology",
               int(dims != HULL_DIMS), 0.0, exact=True, o_dims=dims["o"],
               w_dims=dims["w"]),
        _check("hull-product-rank", "cyclic-hull-cohomology",
               abs(rep["product_rank"] - 3), 0.0, exact=True,
               product_rank=rep["product_rank"]),
        _check("hull-product-match", "cyclic-hull-cohomology",
               rep["basis_change_residual"], 1e-9),
        # the report's own verdict adds an invertible basis change and the
        # absolute match bound to the three records above
        _check("hull-basis-change-invertible", "cyclic-hull-cohomology",
               0 if rep["pass"] else 1, 0.0, exact=True,
               min_singular_value=rep["basis_change_min_singular"]),
    ]


def htt_transfer(cfg, tb):
    """Homotopy transfer onto the harmonics: tb is the transfer of the
    plain complex's contraction."""
    con = tb.con
    checks = [_check("harmonic-count", "homotopy-transfer-relations",
                     abs(con.nharm - 16), 0.0, exact=True)]
    rng = np.random.default_rng(cfg.seed)
    lr = check_linfty_relations(tb, rng, max_arity=cfg.max_arity,
                                samples=2, rank=cfg.rank)
    checks.append(_check("transfer-jacobi-relations",
                         "homotopy-transfer-relations",
                         max(v for v in lr.values() if v is not None),
                         1e-10, per_arity={str(k): v
                                           for k, v in lr.items()}))
    qi = quasi_iso_linear(con)
    checks.append(_check("transfer-cochain-map", "quasi-isomorphism",
                         qi["cochain_residual"], 1e-10))
    checks.append(_check("transfer-cohomology-iso", "quasi-isomorphism",
                         0 if qi["isomorphism"] else 1, 0.0, exact=True,
                         induced_rank=qi["induced_rank"]))
    cy = check_cyclic(tb, harmonic_pairing(con), rng,
                      arities=range(2, cfg.max_arity + 1),
                      samples=5, rank=cfg.rank)
    checks.append(_check("transfer-cyclic-compatibility",
                         "cyclic-pairing-compatibility",
                         max(cy.values()), 1e-10))
    return checks


def suite_htt(cfg):
    L = cfg.trunc(12)
    ge = GComplex(L, extended=True)
    checks, top = htt_side_conditions(ge), exactness_rung(cfg, ge)
    # free it before the smaller rungs and the transfer's tensors are built
    del ge
    checks += htt_exactness(cfg, top)
    tb = transfer(build_contraction(GComplex(min(L, 6))),
                  max_arity=cfg.max_arity)
    return checks + htt_hull(tb) + htt_transfer(cfg, tb)


def suite_bv(cfg):
    g = GComplex(cfg.trunc(6))
    data = bv.BFData(g, rank=cfg.rank)
    out = bv.master_equation_residual(data, probes=20, seed=cfg.seed,
                                      check_variation=2)
    fits = max(max(abs(k - 1.0), m) for k, m in out["eom_fits"])
    return [
        _check("master-equation", "classical-master-equation",
               out["residual"], 1e-11),
        _check("action-variation", "field-equation-pairing",
               out["variation_residual"], 1e-10),
        _check("variation-normalization", "field-equation-pairing",
               fits, 1e-10),
        _check("trace-cyclicity", "graded-trace-cyclicity",
               bv.trace_cyclicity_residual(data, samples=20, seed=cfg.seed),
               1e-12),
    ]


_SUITES = {
    "cohomology": suite_cohomology,
    "kernel": suite_kernel,
    "invariance": suite_invariance,
    "htt": suite_htt,
    "bv": suite_bv,
}


def run_suite(cfg):
    """Run the configured suite(s) and return the report dictionary."""
    cfg.validate()
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    checks = []
    for name in names:
        checks.extend(_SUITES[name](cfg))
    if cfg.tol is not None:
        for c in checks:
            if not c.get("exact"):
                c["threshold"] = float(cfg.tol)
                c["pass"] = bool(c["residual"] < cfg.tol)
    return {
        "schema": 1,
        "suite": cfg.suite,
        "config": cfg.echo(),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
