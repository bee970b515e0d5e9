"""The benchmark's tracer wraps library functions by name from outside the
library (perfbench/tracing.py), so renaming or deleting one of them breaks
only a traced benchmark run.  This test installs every trace point on the
library, then uninstalls them, and checks that each original is back."""

import inspect
import sys
from pathlib import Path

import homhopf.cli  # noqa: F401  (loads every library module)

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
import tracing  # noqa: E402

sys.path.remove(PERFBENCH)  # keep the benchmark's module names off the test path


def _bindings():
    """Every name bound in a library module or in a class it defines."""
    out = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "homhopf" or key.startswith("homhopf.")):
            continue
        for name, value in vars(module).items():
            out[(key, name)] = value
            if inspect.isclass(value) and value.__module__ == key:
                for attr, member in vars(value).items():
                    out[(key, name, attr)] = member
    return out


def test_every_trace_point_installs_and_uninstalls():
    from homhopf import textfmt

    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        for group in ("parse_document", "realize", "run_checks", "catalog_document"):
            assert getattr(textfmt, group).__wrapped__ is before[("homhopf.textfmt", group)]
        for renderer in tracing.RENDERERS:
            assert getattr(textfmt, renderer).__wrapped__ is before[("homhopf.textfmt", renderer)]
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
