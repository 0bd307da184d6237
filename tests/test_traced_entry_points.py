"""The benchmark's tracer wraps module-level functions of bmoblo by name.

Renaming or removing one of them breaks the traced benchmark run, so the
names are checked here, before the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.skipif(not TRACING.exists(), reason="no perfbench/ in this checkout")
def test_traced_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"bmoblo.{layer}.{attr}"
        for layer, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"bmoblo.{layer}"), attr, None))
    ]
    assert not missing
