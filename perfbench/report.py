"""Run every workload once and print every metric by name, with its unit.

    python3 perfbench/report.py [--size full|smoke]

For each workload this runs run.py with --trace 0 and --trace 1 (seed 1,
run_seconds from BENCHMARK.json, or 1 s at smoke size), prints the
end-to-end and per-layer metrics, the failure ratio and the failing checks,
and checks the output against BENCHMARK.json: the result line has exactly
the contract keys, and every metric listed there appears with its unit.
With --size smoke every workload runs at its smallest size; that is the
benchmark's own smoke test (about a minute).  Exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def _run(spec, workload, size, seconds, trace):
    cmd = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s --trace %d exited with %d"
                         % (workload, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _problems(result, listed):
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append("result keys %s" % sorted(result))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        out.append("attempted %r" % result.get("attempted"))
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in listed}
    if set(got) != set(want):
        out.append("metric names differ: missing %s, extra %s"
                   % (sorted(set(want) - set(got)),
                      sorted(set(got) - set(want))))
    for name, unit in want.items():
        rec = got.get(name, {})
        if rec.get("unit") != unit:
            out.append("%s: unit %r, want %r" % (name, rec.get("unit"), unit))
        if not isinstance(rec.get("value"), (int, float)):
            out.append("%s: value %r" % (name, rec.get("value")))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = 1 if args.size == "smoke" else spec["run_seconds"]

    bad = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = _run(spec, w, args.size, seconds, trace)
            print("== %s --trace %d: correct=%s attempted=%d failed=%d"
                  % (w, trace, result["correct"], result["attempted"],
                     result["failed"]))
            for line in lines:
                if not line.startswith(("env:", "repetitions:")):
                    print("   " + line)
            bad += ["%s --trace %d: %s" % (w, trace, p)
                    for p in _problems(result, spec[key])]
            if not result["correct"]:
                bad.append("%s --trace %d: correct is false" % (w, trace))
    for p in bad:
        print("MISMATCH " + p)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
