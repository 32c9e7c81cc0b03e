"""The benchmark tracer's targets and the program's names agree.

``bench/tracer.py`` replaces each ``(module, attribute)`` of its ``TARGETS``
with a timing wrapper; a rename in the program would otherwise surface only
when the traced benchmark runs.  In the other direction, a name that a
module binds on a ``# noqa: F401`` import and never uses is there only for
the tracer to wrap; once the tracer drops it, the binding is dead and the
second test names it.  The tracer is loaded from its file, and only read: it
imports nothing from the program.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TARGETS)


@pytest.mark.parametrize("module,attr", tracer_targets())
def test_traced_name_is_bound(module, attr):
    fn = getattr(importlib.import_module(f"algotune.{module}"), attr, None)
    assert callable(fn), f"algotune.{module}.{attr} is gone; bench/tracer.py wraps it"


def tracer_only_bindings(source: str) -> list[str]:
    """Names bound on a ``# noqa: F401`` module-level import and used nowhere else."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_tracer_only_bindings_are_traced():
    targets = set(tracer_targets())
    for path in sorted((ROOT / "src" / "algotune").glob("*.py")):
        for name in tracer_only_bindings(path.read_text()):
            assert (path.stem, name) in targets, (
                f"algotune.{path.stem} binds {name} only for bench/tracer.py, which no longer "
                f"wraps it; delete the binding")


def test_the_check_finds_a_tracer_only_binding():
    source = "from .a import (  # noqa: F401\n    f,\n    g,\n)\nfrom .b import h\n\n" \
             "def k():\n    return g(h)\n"
    assert tracer_only_bindings(source) == ["f"]
