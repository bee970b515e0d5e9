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


def test_the_tracer_sees_each_call_through_a_module_name(tmp_path, capsys):
    """A checker or printer held in a table of function objects would escape
    the wrappers on the module names, and these counts would fall."""
    from homhopf import QQ, cli
    from homhopf.textfmt import catalog_document

    path = tmp_path / "taft.hh"
    path.write_text(catalog_document("taft-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    checkers = ("check_hom_algebra", "check_hom_coalgebra", "check_hom_bialgebra", "check_antipode")
    counted = [f"structures.{name}" for name in checkers] + ["textfmt.render"]
    seen = []
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        for argv in (["check", str(path)], ["catalog", "show", "taft-bundle"]):
            tracer.reset()
            assert cli.main(argv) == 0
            seen.append([tracer.calls[name] for name in counted])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # `check` runs every checker from run_checks; `catalog show` builds the
    # bundle unchecked but for yau_twist's checks of the twisted Taft
    # algebra, then prints its five blocks and the document with one printer
    # call each
    assert seen == [[2, 2, 1, 1, 0], [1, 1, 1, 1, 6]]
