"""Summarise benchmark records into a dated BENCH_<yyyymmdd>.json.

    python3 tools/bench_record.py --label LABEL [--checkout DIR] [--output FILE]

Reads the untraced records DIR/perfbench/out/<workload>-s<seed>-t0.json
that `perfbench/run.py --trace 0` wrote in the checkout DIR (default: this
one).  Under LABEL it stores DIR's git revision, the benchmark environment
and, per workload, the median over those records (one per seed) of each
end-to-end metric named in BENCHMARK.json.  Traced records (`--trace 1`,
...-t1.json), where present, add the medians of the per-layer metrics under
"traced", one summary per workload.  FILE defaults to
BENCH_<yyyymmdd>.json (today, UTC) at the root of this checkout; entries it
already holds under other labels are kept, so one file can carry the
numbers of a parent commit and of a change.
"""

import argparse
import datetime
import glob
import json
import os
import re
import statistics
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = re.compile(r"(?P<workload>.+)-s(?P<seed>-?\d+)-t[01]\.json$")


def revision(checkout):
    """HEAD of the checkout, with '+dirty' when tracked files differ."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout] + list(args),
                              capture_output=True, text=True, check=True)
    rev = git("rev-parse", "HEAD").stdout.strip()
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    return rev + ("+dirty" if dirty.strip() else "")


def summarise(checkout, metric_names, trace=0):
    """(env, {workload: summary}) from the checkout's records traced or
    not as TRACE says; the untraced ones must exist."""
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(checkout, "perfbench", "out",
                                              "*-t%d.json" % trace))):
        match = RECORD.match(os.path.basename(path))
        if match:
            with open(path) as fh:
                by_workload.setdefault(match["workload"], []).append(
                    json.load(fh))
    if not by_workload and not trace:
        raise SystemExit("bench_record: no untraced records under %s"
                         % os.path.join(checkout, "perfbench", "out"))
    env = None
    out = {}
    for workload, records in sorted(by_workload.items()):
        env = env or {k: v for k, v in records[0]["env"].items()
                      if k != "seed"}
        summary = {"seeds": [r["seed"] for r in records],
                   "seconds": sorted({r["seconds"] for r in records}),
                   "repetitions": sum(len(r["repetitions"])
                                      for r in records)}
        for name in metric_names:
            summary[name] = {
                "value": statistics.median(r["metrics"][name]["value"]
                                           for r in records),
                "unit": records[0]["metrics"][name]["unit"]}
        out[workload] = summary
    return env, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", default=ROOT)
    ap.add_argument("--output")
    args = ap.parse_args()
    output = args.output or os.path.join(ROOT, "BENCH_%s.json" % (
        datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%d")))

    with open(os.path.join(args.checkout, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    env, workloads = summarise(
        args.checkout, [m["name"] for m in declared["end_to_end"]])
    _, traced = summarise(
        args.checkout, [m["name"] for m in declared.get("per_layer", [])],
        trace=1)
    bench = {"command": "perfbench/run.py --trace 0", "entries": {}}
    if os.path.exists(output):
        with open(output) as fh:
            bench = json.load(fh)
    entry = {"revision": revision(args.checkout), "env": env,
             "workloads": workloads}
    if traced:
        entry["traced"] = traced
    bench["entries"][args.label] = entry
    with open(output, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%s: %s (%s)" % (output, args.label, ", ".join(workloads)))


if __name__ == "__main__":
    main()
