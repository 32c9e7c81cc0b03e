"""Every function the benchmark tracer wraps by name is still bound in ``algotune``.

``bench/tracer.py`` replaces each ``(module, attribute)`` of its ``TARGETS``
with a timing wrapper; a rename in the program would otherwise surface only
when the traced benchmark runs.  The tracer is loaded from its file, and only
read: it imports nothing from the program.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TARGETS)


@pytest.mark.parametrize("module,attr", tracer_targets())
def test_traced_name_is_bound(module, attr):
    fn = getattr(importlib.import_module(f"algotune.{module}"), attr, None)
    assert callable(fn), f"algotune.{module}.{attr} is gone; bench/tracer.py wraps it"
