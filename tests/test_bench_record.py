import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_record.py")


def _record(workload, seed, wall_s):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "peak_rss_mb": {"value": 50.0 + seed, "unit": "MB"}}
    return {"workload": workload, "seed": seed, "seconds": 30.0,
            "env": {"nproc": 2, "seed": seed}, "metrics": metrics,
            "repetitions": [{}, {}, {}]}


def test_medians_over_seeds_and_labels_merge(tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t",
           "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s"}, {"name": "peak_rss_mb"}],
         "per_layer": [{"name": "transfer.bracket_s"}]}))
    subprocess.run(git + ["add", "BENCHMARK.json"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "x"], check=True)
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    for seed, wall in ((1, 3.0), (2, 1.0), (3, 2.0)):
        (out / ("kq-s%d-t0.json" % seed)).write_text(
            json.dumps(_record("kq", seed, wall)))
    bench = tmp_path / "BENCH.json"

    def record(label):
        subprocess.run([sys.executable, TOOL, "--label", label,
                        "--checkout", str(tmp_path), "--output", str(bench)],
                       check=True, capture_output=True)

    record("parent")
    # traced records carry per-layer metrics; they go under "traced" and
    # leave the end-to-end medians alone
    traced = _record("kq", 1, 99.0)
    traced["metrics"] = {"transfer.bracket_s": {"value": 0.5, "unit": "s"}}
    (out / "kq-s1-t1.json").write_text(json.dumps(traced))
    record("change")
    got = json.loads(bench.read_text())["entries"]
    assert "traced" not in got["parent"]
    assert got["change"]["traced"]["kq"]["transfer.bracket_s"] == {
        "value": 0.5, "unit": "s"}
    assert sorted(got) == ["change", "parent"]
    entry = got["change"]
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert entry["revision"] == head
    assert entry["env"] == {"nproc": 2}
    kq = entry["workloads"]["kq"]
    assert kq["seeds"] == [1, 2, 3] and kq["repetitions"] == 9
    assert kq["wall_s"] == {"value": 2.0, "unit": "s"}
    assert kq["peak_rss_mb"]["value"] == 52.0
