"""Benchmark of the twistorbf verification engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from source
(`src/`), nothing is installed.  Each repetition runs in a fresh
interpreter (worker.py), one at a time, with one BLAS thread: on a shared
2-core, 8 GB x86-64 VM a second BLAS thread bought no wall time on any
workload, doubled the CPU time, and made runs depend on what else used the
other core.  Repetitions continue while one more of average length still
fits in the requested seconds, with at least two per run.

With --trace 0 every repetition is untraced and the end-to-end metrics are
reported.  With --trace 1 repetitions alternate untraced and traced, the
per-layer metrics come from the traced ones, and trace.overhead_s is the
traced minus the untraced median wall time.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  `attempted` and `failed`
count checks over all repetitions; a check fails when its residual misses
the threshold of the acceptance gate or suite.  `correct` requires every
exact (integer) identity to hold, every residual to be finite and every
repetition to give the same check outcomes.  Known tolerance failures are
counted in `failed` and named on standard output; they do not clear
`correct`.  A record with the environment, every repetition and every check
is written to perfbench/out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("kernel-quadrature", "sheaf-exactness", "transfer-arity4",
             "bv-master")
SOURCES = ("radial", "sphere", "graded", "kernels", "gcomplex", "transfer",
           "bv")
EPS = sys.float_info.epsilon
# roundoff-level residuals of seeded probes reach about 25 eps (transfer
# relations); 100 eps sits above that noise
FLOOR = 100 * EPS
MIN_REPS = 2
# a run must end within 180 s; no repetition may outlive this
DEADLINE_S = 170.0


def _die(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def _worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_rep(args, traced, index, env, budget):
    run_id = "%s-s%d-r%d%s" % (args.workload, args.seed, index,
                               "t" if traced else "")
    spans_path = os.path.join(OUT, "spans-%s.jsonl" % run_id) if traced \
        else ""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), args.size, "1" if traced else "0", run_id,
           spans_path]
    t_spawn = time.time()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        _die("repetition %s exceeded the run deadline" % run_id, 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        _die("repetition %s exited with %d" % (run_id, proc.returncode), 1)
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    rep["wall_s"] = rep["t_done"] - t_spawn
    rep["startup_s"] = rep["t_imports"] - t_spawn
    rep["setup_s"] = rep["startup_s"] + rep["construct_s"]
    return rep


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def _end_to_end(reps):
    records = [c for r in reps for c in r["checks"]]
    passed = sum(1 for c in records if c["pass"])
    return {
        "wall_s": (_median(reps, "wall_s"), "s"),
        "setup_s": (_median(reps, "setup_s"), "s"),
        "peak_rss_mb": (_median(reps, "peak_rss_mb"), "MB"),
        "check_pass_ratio": (passed / len(records), "ratio"),
        "residual_digits_min": (_median(reps, "digits"), "dec"),
    }


def _span_metric(reps, name, field):
    return statistics.median(r["spans"].get(name, {}).get(field, 0)
                             for r in reps)


def _per_layer(traced, untraced):
    def s(name):
        return _span_metric(traced, name, "s")

    def calls(name):
        return _span_metric(traced, name, "calls")

    def self_s(layer):
        return statistics.median(r["self_s"][layer] for r in traced)

    def hit_ratio():
        vals = []
        for r in traced:
            rec = r["spans"].get("sphere.grid_data")
            vals.append(rec["leaf_calls"] / rec["calls"] if rec else 0.0)
        return statistics.median(vals)

    brackets = [d for r in traced for d in r["bracket_s"]]
    tail_pct, tail_s = _tail(brackets)
    wall_t = _median(traced, "wall_s")
    m = {
        "radial.eval_calls": (calls("radial.eval"), "count"),
        "radial.eval_s": (s("radial.eval"), "s"),
        "radial.self_s": (self_s("radial"), "s"),
        "sphere.basis_values_s": (s("sphere.basis_values"), "s"),
        "sphere.basis_evals": (_span_metric(traced, "sphere.basis_values",
                                            "count"), "count"),
        "sphere.grid_data_hit_ratio": (hit_ratio(), "ratio"),
        "sphere.build_calls": (calls("sphere.build"), "count"),
        "sphere.build_s": (s("sphere.build"), "s"),
        "sphere.self_s": (self_s("sphere"), "s"),
        "graded.gradedmap_s": (s("graded.gradedmap"), "s"),
        "graded.self_s": (self_s("graded"), "s"),
        "kernels.matrix_s": (s("kernels.matrix"), "s"),
        "kernels.kernel_weighted_s": (s("kernels.kernel_weighted"), "s"),
        "kernels.kernel_points": (_span_metric(
            traced, "kernels.kernel_weighted", "count"), "count"),
        "kernels.self_s": (self_s("kernels"), "s"),
        "gcomplex.build_calls": (calls("gcomplex.build"), "count"),
        "gcomplex.build_s": (s("gcomplex.build"), "s"),
        "gcomplex.exactness_report_s": (s("gcomplex.exactness_report"), "s"),
        "gcomplex.product_apply_calls": (calls("gcomplex.product_apply"),
                                         "count"),
        "gcomplex.product_apply_s": (s("gcomplex.product_apply"), "s"),
        "gcomplex.product_batch_s": (s("gcomplex.product_batch"), "s"),
        "gcomplex.product_contract_s": (s("gcomplex.product_contract"), "s"),
        "gcomplex.pairing_matrix_s": (s("gcomplex.pairing_matrix"), "s"),
        "gcomplex.self_s": (self_s("gcomplex"), "s"),
        "gcomplex.compose_residual_max": (max(
            (c["residual"] for r in traced for c in r["checks"]
             if c["name"].startswith("short-sequence-composition")),
            default=0.0), "residual"),
        "transfer.contraction_s": (s("transfer.contraction"), "s"),
        "transfer.transfer_s": (s("transfer.transfer"), "s"),
        "transfer.bracket_calls": (calls("transfer.bracket"), "count"),
        "transfer.bracket_s": (s("transfer.bracket"), "s"),
        "transfer.bracket_p50_ms": (
            1e3 * statistics.median(brackets) if brackets else 0.0, "ms"),
        "transfer.bracket_tail_ms": (1e3 * tail_s, "ms"),
        "transfer.bracket_tail_pct": (tail_pct, "%"),
        "transfer.bracket_samples": (len(brackets), "count"),
        "transfer.self_s": (self_s("transfer"), "s"),
        "bv.setup_s": (s("bv.setup"), "s"),
        "bv.field_to_grid_s": (s("bv.field_to_grid"), "s"),
        "bv.gmult_calls": (calls("bv.gmult"), "count"),
        "bv.gmult_s": (s("bv.gmult"), "s"),
        "bv.pair_calls": (calls("bv.pair"), "count"),
        "bv.pair_s": (s("bv.pair"), "s"),
        "bv.self_s": (self_s("bv"), "s"),
        "checks.self_s": (self_s("checks"), "s"),
        "process.startup_s": (_median(traced, "startup_s"), "s"),
        "process.cpu_s": (_median(traced, "cpu_s"), "s"),
        "trace.wall_s": (wall_t, "s"),
        "trace.overhead_s": (wall_t - _median(untraced, "wall_s"), "s"),
        "trace.unaccounted_s": (statistics.median(
            r["wall_s"] - r["startup_s"] - sum(r["self_s"].values())
            for r in traced), "s"),
        "trace.spans": (statistics.median(r["n_spans"] for r in traced),
                        "count"),
    }
    return m


def residual_digits(records):
    """Minimum over non-exact checks of -log10(residual).

    Residuals below FLOOR count as FLOOR: below it the value depends on
    which probes the seed draws, not on the code.
    """
    return min((-math.log10(max(c["residual"], FLOOR))
                for c in records if not c["exact"]),
               default=-math.log10(FLOOR))


def headroom(records):
    """Minimum over passing non-exact checks of log10(threshold/residual)."""
    return min((math.log10(c["threshold"] / max(c["residual"], EPS))
                for c in records if not c["exact"] and c["pass"]),
               default=-math.log10(EPS))


def _tail(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return 0, 0.0
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100,
                                     method="inclusive")[pct - 1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: smallest inputs, for the self-test")
    args = ap.parse_args()

    missing = [m for m in SOURCES if not os.path.isfile(
        os.path.join(ROOT, "src", "twistorbf", m + ".py"))]
    if missing:
        _die("no twistorbf sources under %s (missing %s)"
             % (os.path.join(ROOT, "src"), ", ".join(missing)))
    os.makedirs(OUT, exist_ok=True)
    env = _worker_env()

    t0 = time.monotonic()
    reps = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = _run_rep(args, traced, len(reps), env,
                       DEADLINE_S - (time.monotonic() - t0))
        reps.append(rep)
        elapsed = time.monotonic() - t0
        if len(reps) >= MIN_REPS and \
                elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break

    for r in reps:
        r["digits"] = residual_digits(r["checks"])
        r["headroom"] = headroom(r["checks"])
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = _end_to_end(untraced) if not args.trace \
        else _per_layer(traced, untraced)

    records = [c for r in reps for c in r["checks"]]
    outcomes = {tuple((c["name"], c["pass"]) for c in r["checks"])
                for r in reps}
    correct = (len(outcomes) == 1
               and all(c["pass"] for c in records if c["exact"])
               and all(math.isfinite(c["residual"]) for c in records))
    failed = sum(1 for c in records if not c["pass"])
    failing = sorted({c["name"] for c in records if not c["pass"]})

    metrics_json = {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "env": reps[0]["env"],
              "metrics": metrics_json,
              "attempted": len(records), "failed": failed,
              "failing_checks": failing, "repetitions": reps}
    with open(os.path.join(OUT, "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)

    print("env: %s" % json.dumps(reps[0]["env"], sort_keys=True))
    print("repetitions: %d (%d traced)" % (len(reps), len(traced)))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print("check_fail_ratio = %d/%d = %.4g%s" % (
        failed, len(records), failed / len(records),
        "  (failing: %s)" % ", ".join(failing) if failing else ""))
    print("residual_headroom_dec = %.4g  (passing checks)"
          % statistics.median(r["headroom"] for r in reps))
    print(json.dumps({"correct": bool(correct), "attempted": len(records),
                      "failed": failed, "metrics": metrics_json}))


if __name__ == "__main__":
    main()
