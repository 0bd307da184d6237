"""The benchmark's tracer wraps module-level functions of bmoblo by name.

Renaming or removing one of them breaks the traced benchmark run, so the
names are checked here, before the benchmark runs.  The tracer does not
catch an exception a post-processor raises, so the post-processors are
run here too, on the objects they read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bmoblo.geometry import make_context
from bmoblo.optimizers import build_psi, psi_stats
from bmoblo.trees import random_tree, verify_all_nodes

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

needs_tracing = pytest.mark.skipif(not TRACING.exists(), reason="no perfbench/ in this checkout")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@needs_tracing
def test_traced_targets_exist():
    missing = [
        f"bmoblo.{layer}.{attr}"
        for layer, attr, _ in _tracing().TARGETS
        if not callable(getattr(importlib.import_module(f"bmoblo.{layer}"), attr, None))
    ]
    assert not missing


@needs_tracing
def test_optimizer_post_processors_run():
    tracing = _tracing()
    psi = build_psi(12, 24)
    info = tracing._post_build_psi((12, 24), {}, psi)
    assert info == {"leaves": 49153, "budget_hit": False}
    stats = psi_stats(psi)
    info = tracing._post_psi_stats((psi,), {}, stats)
    assert info == {"j": 12, "meanN_width": stats.mean_N.width}


@needs_tracing
def test_tree_post_processor_runs():
    tree = random_tree(0.25, np.random.default_rng(1))
    out = verify_all_nodes(tree, make_context(0.25))
    info = _tracing()._post_verify_all_nodes((tree,), {}, out)
    assert info == {"nodes": len(tree), "skipped": 0}
