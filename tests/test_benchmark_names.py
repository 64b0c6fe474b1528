"""Every sectionlab name the benchmark in ``perfbench/`` binds resolves.

The benchmark's files are read, never imported or run: its tracer wraps
the functions listed in ``TRACED`` by looking them up in each module's
namespace, and its output checks import names from sectionlab modules.
A name that moves without a re-export left behind breaks a benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_entries():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return [(e.elts[0].value, e.elts[1].value,
                     getattr(e.elts[2], "id", None))
                    for e in node.value.elts]
    raise AssertionError("TRACED not found in perfbench/tracing.py")


def _imported_names():
    names = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "sectionlab"):
                names += [(path.name, node.module, a.name) for a in node.names]
    return names


@pytest.mark.parametrize("module,attr,hook", _traced_entries())
def test_traced_name_resolves(module, attr, hook):
    namespace = importlib.import_module(f"sectionlab.{module}")
    owner_name, _, key = attr.rpartition(".")
    owner = getattr(namespace, owner_name) if owner_name else namespace
    # the tracer looks the name up in the owner's own namespace
    assert key in vars(owner), f"sectionlab.{module}.{attr}"
    if hook == "_file_counters":  # reads the call's ``path`` argument
        assert "path" in inspect.signature(getattr(owner, key)).parameters


def test_imports_resolve():
    names = _imported_names()
    assert names
    for filename, module, name in names:
        if not hasattr(importlib.import_module(module), name):
            # ``from sectionlab import cli`` names a submodule
            importlib.import_module(f"{module}.{name}")
