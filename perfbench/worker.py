"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE RUN_ID SPANS_PATH

Run by run.py, which starts a new interpreter for every repetition: the
model cache in `twistorbf.gcomplex` and each model's grid cache live as long
as the process, and a command-line user pays the cold cost every time.

Prints one JSON line: wall-clock stamps (epoch seconds, so the parent can
measure from the moment it started this process), the check records, peak
RSS, CPU time, the environment, and with tracing the span summary.
"""

import json
import os
import resource
import sys
import time


def _blas_threads():
    """OpenBLAS thread count, read from the loaded library if possible."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(seed):
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(argv):
    workload, seed, size_name, trace, run_id, spans_path = argv
    seed, trace = int(seed), int(trace)
    import tracing
    import workloads as wl
    t_imports = time.time()

    size = wl.SIZES[workload][size_name]
    fn = wl.WORKLOADS[workload]
    chk = wl.Checks()
    tracer = None
    if trace:
        tracer = tracing.Tracer(run_id)
        tracer.install()
        tracer.root(lambda: fn(chk, seed, size))
    else:
        fn(chk, seed, size)
    t_done = time.time()

    ru = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "t_imports": t_imports,
        "t_done": t_done,
        "construct_s": chk.construct_s,
        "checks": chk.records,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "env": _environment(seed),
    }
    if tracer is not None:
        by_name, self_s = tracing.summarize(tracer.spans, tracer.counts)
        missing = [n for n in wl.EXPECTED_SPANS[workload]
                   if by_name.get(n, {}).get("calls", 0) == 0]
        if missing:
            sys.stderr.write("span coverage: no calls recorded for %s on %s\n"
                             % (", ".join(missing), workload))
            return 3
        out["spans"] = by_name
        out["bracket_s"] = [end - start for name, start, end, _
                            in tracer.spans if name == "transfer.bracket"]
        out["self_s"] = self_s
        out["n_spans"] = len(tracer.spans)
        if spans_path:
            tracer.dump(spans_path)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
