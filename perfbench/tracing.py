"""Spans around the public entry points of the twistorbf modules.

The benchmark wraps functions and class methods from its own files; the
program itself carries no instrumentation.  A wrapped call records one span
(name, start, end, parent span, run id).  Spans are kept in memory and
written out when the repetition ends.

The layers are the package modules.  The benchmark's own code (the root
span) is billed to `checks`.  A layer's self time is the time of its spans
minus the time covered by their child spans.
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute or Class.method, span name, computed count)
#
# A count of "size" adds up the sizes of the returned arrays: basis
# functions times points for basis_values, kernel points for
# kernel_weighted.  It is computed from shapes, not measured in the program.
TARGETS = (
    ("radial", "RadialFun.eval", "radial.eval", None),
    ("radial", "hermitian_inner", "radial.hermitian_inner", None),
    ("sphere", "LineBundleModel.__init__", "sphere.build", None),
    ("sphere", "LineBundleModel.basis_values", "sphere.basis_values",
     "size"),
    ("sphere", "LineBundleModel.grid_data", "sphere.grid_data", None),
    ("sphere", "LineBundleModel.chain_homotopy_residual",
     "sphere.chain_residual", None),
    ("graded", "GradedMap.__init__", "graded.gradedmap", None),
    ("graded", "cohomology", "graded.cohomology", None),
    ("kernels", "KernelHomotopy.matrix", "kernels.matrix", None),
    ("kernels", "kernel_weighted", "kernels.kernel_weighted", "size"),
    ("kernels", "operator_agreement", "kernels.operator_agreement", None),
    ("kernels", "chain_identity_quadrature", "kernels.chain_identity", None),
    ("kernels", "check_holomorphy", "kernels.check_holomorphy", None),
    ("kernels", "check_invariance", "kernels.check_invariance", None),
    ("gcomplex", "GComplex.__init__", "gcomplex.build", None),
    ("gcomplex", "GComplex.exactness_report", "gcomplex.exactness_report",
     None),
    ("gcomplex", "GComplex.product_apply", "gcomplex.product_apply", None),
    ("gcomplex", "GComplex.product_batch", "gcomplex.product_batch", None),
    ("gcomplex", "GComplex.product_contract", "gcomplex.product_contract",
     None),
    ("gcomplex", "GComplex.pairing_matrix", "gcomplex.pairing_matrix", None),
    ("gcomplex", "GComplex.random_vector", "gcomplex.random_vector", None),
    ("transfer", "build_contraction", "transfer.contraction", None),
    ("transfer", "transfer", "transfer.transfer", None),
    ("transfer", "Transferred.bracket", "transfer.bracket", None),
    ("transfer", "check_linfty_relations", "transfer.linfty_relations", None),
    ("transfer", "quasi_iso_linear", "transfer.quasi_iso", None),
    ("transfer", "harmonic_pairing", "transfer.harmonic_pairing", None),
    ("transfer", "check_cyclic", "transfer.cyclic", None),
    ("bv", "BFData.__init__", "bv.setup", None),
    ("bv", "BFData.field_to_grid", "bv.field_to_grid", None),
    ("bv", "BFData.apply_dbar", "bv.apply_dbar", None),
    ("bv", "BFData.gmult", "bv.gmult", None),
    ("bv", "BFData.pair", "bv.pair", None),
    ("bv", "master_equation_residual", "bv.master_equation", None),
    ("bv", "trace_cyclicity_residual", "bv.trace_cyclicity", None),
)

LAYERS = ("radial", "sphere", "graded", "kernels", "gcomplex", "transfer",
          "bv", "checks")

ROOT = "checks.run"


class Tracer:
    """In-memory span recorder; one instance per repetition."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []       # [name, start, end, parent index]
        self.counts = {}      # span name -> computed work count
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if count is not None:
                counts[name] = counts.get(name, 0) + int(out.size)
            return out

        return traced

    def install(self):
        """Wrap every target, on its class or at every by-name binding."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "twistorbf" or n.startswith("twistorbf.")]
        for modname, attr, span, count in TARGETS:
            mod = importlib.import_module("twistorbf." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                # a rename raises here, so a layer cannot go quiet
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(span, orig, count))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(span, orig, count)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def root(self, fn):
        """Run fn() inside the root span that bills benchmark code."""
        return self.wrap(ROOT, fn)()

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": start - t0, "end": end - t0,
                    "parent": parent}) + "\n")


def summarize(spans, counts):
    """Per-span-name calls, total time and count, and per-layer self time.

    Total time counts only outermost spans of a name, so a constructor that
    builds a nested instance of its own class is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        rec = by_name.setdefault(name, {"calls": 0, "s": 0.0,
                                        "leaf_calls": 0})
        rec["calls"] += 1
        if not _inside_same_name(spans, i):
            rec["s"] += dur
        if child_time[i] == 0.0:
            rec["leaf_calls"] += 1
        self_by_layer[name.split(".")[0]] += dur - child_time[i]
    for name, n in counts.items():
        by_name[name]["count"] = n
    return by_name, self_by_layer


def _inside_same_name(spans, i):
    name = spans[i][0]
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False

