"""Every module-level import and private definition under ``src/algotune`` is used.

A name bound by a top-level ``import`` must be referenced somewhere in its
module.  Names listed in ``__all__`` are exempt, and so are imports on a
``# noqa: F401`` line (names bound only for an outside tool to find).

A module-level ``_name`` (a function, a class or an assigned name) must be
read somewhere in ``src/``, ``tests/``, ``bench/`` or ``demos/`` outside its
own definition: as a name, an attribute or an imported name.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "algotune"
SCANNED = ("src", "tests", "bench", "demos")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    exported, bound = set(), {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as -> "np.ndarray"
            try:
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = "import csv\nimport io\nimport json  # noqa: F401\nfrom typing import Callable, Sequence\n" \
             "__all__ = ['io']\n\ndef f(x: Sequence) -> 'Callable':\n    return x\n"
    assert unused_imports(source) == ["csv (line 1)"]


def private_definitions(source: str) -> dict[str, tuple[int, int]]:
    """Module-level ``_name`` functions, classes and assignments, with their line spans."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defs[name] = (node.lineno, node.end_lineno)
    return defs


@functools.cache  # each scanned file is read once for all the modules
def references(source: str) -> list[tuple[str, int]]:
    """Every name the source reads, as a name, an attribute or an import, with its line."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rpartition(".")[2], node.lineno))
    return out


def dead_private_definitions(module: str, sources: dict[str, str]) -> list[str]:
    """Private definitions of ``sources[module]`` that no source reads beyond the definition."""
    defs = private_definitions(sources[module])
    used = {
        name
        for where, text in sources.items()
        for name, line in references(text)
        if name in defs and not (where == module and defs[name][0] <= line <= defs[name][1])
    }
    return [f"{name} (line {span[0]})" for name, span in defs.items() if name not in used]


@functools.cache
def scanned_sources() -> dict[str, str]:
    return {str(p.relative_to(ROOT)): p.read_text()
            for top in SCANNED for p in sorted((ROOT / top).rglob("*.py"))}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_level_private_definitions_are_used(path):
    assert dead_private_definitions(str(path.relative_to(ROOT)), scanned_sources()) == []


def test_the_check_finds_a_dead_private_definition():
    module = "import json\n_LIMIT = 3\n_dead_table = {}\n\n" \
             "def _helper(x):\n    return _helper(x - 1) if x else json.dumps(_LIMIT)\n\n" \
             "def _dead(x):\n    return _dead(x)\n\nclass _Used:\n    pass\n\n" \
             "class _Self:\n    def f(self):\n        return _Self()\n"
    other = "from mod import _helper\nimport mod\n\nmod._Used()\n_dead = 1\n"
    assert dead_private_definitions("mod.py", {"mod.py": module, "other.py": other}) == [
        "_dead_table (line 3)", "_dead (line 8)", "_Self (line 14)"]
