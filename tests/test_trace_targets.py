"""Every entry point the traced benchmark run wraps must still exist.

perfbench/tracing.py lists (module, attribute) targets; its install step
reads methods from the class __dict__ and functions from the module, and a
missing one stops the traced run.  Resolving them here the same way turns a
rename or a fold into a fast test failure instead.
"""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("modname,attr", [t[:2] for t in _targets()])
def test_trace_target_resolves(modname, attr):
    mod = importlib.import_module("twistorbf." + modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name))[meth])
    else:
        assert callable(getattr(mod, attr))
