"""The four benchmark workloads: seeded batches of twistorbf checks.

Each workload has a set-up phase (cold construction of the objects its
checks run on) and a check phase.  Every check compares a residual against
the threshold the acceptance gate (tests/test_acceptance.py) or the CLI
suites use for it.  Only public functions and attributes that the tier-1
tests also use are called, so a change that breaks this file breaks tier-1
as well.

The program receives only generated inputs: every `default_rng` is created
here from the workload seed and passed in, or the seed is passed as
`seed=`.

Calls go through module attributes (`kernels.operator_agreement`, not a
by-name import), so the traced run sees them.
"""

import time

import numpy as np

from twistorbf import bv, gcomplex, kernels, sphere, transfer

# Sizes.  "full" is what a benchmark run measures; "smoke" is the smallest size
# that still runs every check, for the benchmark's own smoke test.
SIZES = {
    "kernel-quadrature": {
        # suite_kernel's twist-0 model (8 levels, order 64); 12 target
        # nodes instead of 32 keep one repetition near 3 s
        "full": {"twist": 0, "levels": 8, "order": 64, "target_order": 12,
                 "samples": 50, "pairs": 20},
        "smoke": {"twist": 0, "levels": 3, "order": 32, "target_order": 8,
                  "samples": 5, "pairs": 3},
    },
    "sheaf-exactness": {
        # L = 11 and 12 carry the known compose-residual failures; the
        # middle rungs and the L = 8 side checks are left out for run length
        "full": {"ladder": (5, 11, 12), "middle": 5},
        "smoke": {"ladder": (5, 6), "middle": 5},
    },
    "transfer-arity4": {
        # truncation 4 rather than criterion 08's 6: the harmonic space
        # (16) and so every bracket is the same, the tensor build is cheaper
        "full": {"truncation": 4, "relation_samples": 1,
                 "cyclic_samples": 1},
        "smoke": {"truncation": 3, "relation_samples": 1,
                  "cyclic_samples": 1},
    },
    "bv-master": {
        "full": {"truncation": 6, "probes": 2, "cyclicity_samples": 20},
        "smoke": {"truncation": 3, "probes": 1, "cyclicity_samples": 2},
    },
}


class Checks:
    """Collects check records and the time spent constructing objects."""

    def __init__(self):
        self.records = []
        self.construct_s = 0.0

    def build(self, fn, *args, **kwargs):
        """Construct an object; its time counts as set-up."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.construct_s += time.perf_counter() - t0
        return out

    def add(self, name, residual, threshold, exact=False):
        residual = float(residual)
        ok = residual <= threshold if exact else residual < threshold
        self.records.append({"name": name, "residual": residual,
                             "threshold": float(threshold),
                             "exact": bool(exact),
                             "pass": bool(ok and np.isfinite(residual))})


def kernel_quadrature(chk, seed, size):
    """Kernel suite for one twist of the six-block set (criteria 02-05)."""
    n = size["twist"]
    rng = np.random.default_rng(seed)
    m = chk.build(sphere.build_model, n, size["levels"])
    hq = chk.build(kernels.KernelHomotopy, m, order=size["order"],
                   target_order=size["target_order"])
    chk.add("chain-identity-spectral", m.chain_homotopy_residual(), 1e-10)
    err, sign = kernels.operator_agreement(m, hq, 5)
    chk.add("kernel-vs-spectral", err, 1e-5)
    chk.add("kernel-fitted-sign", abs(sign - 1.0), 0.0, exact=True)
    chk.add("chain-identity-quadrature",
            kernels.chain_identity_quadrature(m, hq, rng, size["samples"]),
            1e-5)
    worst = 0.0
    for z1, z2 in kernels.separated_pairs(rng, size["pairs"],
                                          min_chordal=0.45,
                                          max_chordal=0.9):
        worst = max(worst, float(kernels.check_holomorphy(n, z1, z2,
                                                          step=1e-4)))
    chk.add("kernel-holomorphy", worst, 1e-7)
    worst = 0.0
    for z1, z2 in kernels.separated_pairs(rng, size["pairs"]):
        g = kernels.Mobius.random(rng)
        worst = max(worst, float(kernels.check_invariance(n, g, z1, z2)))
    chk.add("kernel-invariance", worst, 1e-10)
    ident = kernels.check_invariance(n, kernels.Mobius.identity(),
                                     0.4 + 0.1j, -0.3 + 0.9j)
    chk.add("kernel-invariance-identity", ident, 0.0, exact=True)


def sheaf_exactness(chk, seed, size):
    """Criteria 10 and 06 as a ladder over truncations.

    One extended complex lives at a time: at L = 12 a single one holds
    about 3 GB of dense operators.
    """
    rng = np.random.default_rng(seed)
    mid = size["middle"]
    for L in size["ladder"]:
        ge = chk.build(gcomplex.GComplex, L, extended=True)
        rows = ge.exactness_report()
        comp = max(r["compose_residual"] for r in rows)
        chk.add("short-sequence-ranks-L%d" % L,
                sum(1 for r in rows if not r["exact"]), 0.0, exact=True)
        chk.add("short-sequence-composition-L%d" % L, comp, 1e-12)
        if L == mid:
            _insertion_and_side_conditions(chk, ge, rng, L)
        del ge


def _insertion_and_side_conditions(chk, ge, rng, L):
    D = ge.d_iota_signed
    chk.add("insertion-squares-to-zero-L%d" % L, np.abs(D @ D).max(), 0.0,
            exact=True)
    x = ge.random_vector(rng, max_level=0)
    y = ge.random_vector(rng, max_level=0)
    s = np.where(ge.space.reduced_degrees() % 2, -1.0, 1.0)
    lhs = D @ ge.product_apply(x, y)
    rhs = ge.product_apply(D @ x, y) + ge.product_apply(s * x, D @ y)
    chk.add("insertion-leibniz-L%d" % L, np.abs(lhs - rhs).max(), 1e-12)
    HD = ge.hom_full @ D
    chk.add("insertion-homotopy-nilpotent-L%d" % L, np.abs(HD @ HD).max(),
            1e-12)
    del HD
    g = chk.build(gcomplex.GComplex, L)
    H, Pr = g.hom_full, g.proj_full
    M = g.pairing_matrix().matrix
    sg = np.where(g.space.reduced_degrees() % 2, -1.0, 1.0)
    chk.add("homotopy-squares-to-zero-L%d" % L, np.abs(H @ H).max(), 1e-12)
    chk.add("homotopy-orthogonal-to-harmonics-L%d" % L,
            np.abs(H.T @ M @ Pr).max(), 1e-12)
    chk.add("homotopy-pairing-adjointness-L%d" % L,
            np.abs(H.T @ M - sg[:, None] * (M @ H)).max(), 1e-12)


def transfer_arity4(chk, seed, size):
    """Criterion 08: transfer to arity 4 and its relation checks."""
    rng = np.random.default_rng(seed)
    g = chk.build(gcomplex.GComplex, size["truncation"])
    con = chk.build(transfer.build_contraction, g)
    chk.add("harmonic-count", abs(con.nharm - 16), 0.0, exact=True)
    tb = transfer.transfer(con, max_arity=4)
    lr = transfer.check_linfty_relations(
        tb, rng, max_arity=4, samples=size["relation_samples"], rank=2)
    for n, r in sorted(lr.items()):
        if r is not None:
            chk.add("transfer-relations-arity%d" % n, r, 1e-10)
    qi = transfer.quasi_iso_linear(con)
    chk.add("transfer-cochain-map", qi["cochain_residual"], 1e-10)
    chk.add("transfer-cohomology-iso", 0 if qi["isomorphism"] else 1, 0.0,
            exact=True)
    cy = transfer.check_cyclic(tb, transfer.harmonic_pairing(con), rng,
                               arities=(2, 3, 4),
                               samples=size["cyclic_samples"], rank=2)
    for n, r in sorted(cy.items()):
        chk.add("transfer-cyclic-arity%d" % n, r, 1e-10)


def bv_master(chk, seed, size):
    """Criterion 09: the master equation over Grassmann-valued probes."""
    g = chk.build(gcomplex.GComplex, size["truncation"])
    data = chk.build(bv.BFData, g, rank=2)
    out = bv.master_equation_residual(data, probes=size["probes"],
                                      seed=seed, check_variation=0)
    chk.add("master-equation", out["residual"], 1e-11)
    chk.add("trace-cyclicity",
            bv.trace_cyclicity_residual(
                data, samples=size["cyclicity_samples"], seed=seed),
            1e-12)


WORKLOADS = {
    "kernel-quadrature": kernel_quadrature,
    "sheaf-exactness": sheaf_exactness,
    "transfer-arity4": transfer_arity4,
    "bv-master": bv_master,
}

# Spans that must record calls on each workload (the "does the work" column
# of the prediction table).  The traced run fails if one records none.
EXPECTED_SPANS = {
    "kernel-quadrature": ("radial.eval", "sphere.build",
                          "sphere.basis_values", "sphere.grid_data",
                          "kernels.matrix", "kernels.kernel_weighted"),
    "sheaf-exactness": ("sphere.build", "sphere.grid_data",
                        "sphere.basis_values", "graded.gradedmap",
                        "gcomplex.build", "gcomplex.exactness_report",
                        "gcomplex.product_apply", "gcomplex.pairing_matrix"),
    "transfer-arity4": ("gcomplex.build", "gcomplex.pairing_matrix",
                        "gcomplex.product_batch",
                        "gcomplex.product_contract",
                        "transfer.contraction", "transfer.transfer",
                        "transfer.bracket"),
    "bv-master": ("gcomplex.build", "gcomplex.pairing_matrix",
                  "sphere.grid_data", "bv.setup", "bv.field_to_grid",
                  "bv.gmult", "bv.pair"),
}

