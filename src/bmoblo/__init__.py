"""Sharp BMO-to-BLO bounds for maximal operators on weighted trees.

The package evaluates the explicit extremal (Bellman-type) function that
governs how dyadic-type maximal operators act from BMO into BLO, verifies
its restricted concavity numerically, runs the induction argument on
finite alpha-trees, and reproduces the norm-optimizing sequence showing
that the operator-norm constant is exactly 1.

The exported names resolve on first use (PEP 562), so `import bmoblo`
loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, under the submodule that defines it.
_EXPORTS = {
    "bellman": (
        "BellmanValue", "Foliation", "eval_A", "eval_b", "eval_B", "eval_b_prime",
        "eval_f", "eval_F", "eval_majorant", "solve_s",
    ),
    "concavity": ("ChordSample", "SweepReport", "check_C2", "chord_H", "chord_margin", "sweep"),
    "errors": ("BmobloError", "ConvergenceError", "DomainError", "StructureError"),
    "geometry": ("AlphaContext", "OmegaPoint", "RegionId", "classify", "make_context", "shift"),
    "optimizers": (
        "Enclosure", "PsiFunction", "PsiParams", "PsiStats", "build_psi", "m_norm_report",
        "psi_params", "psi_stats",
    ),
    "trees": (
        "AlphaTree", "blo_norm", "bmo_norm", "maximal", "random_tree", "tree_from_json",
        "tree_to_json", "validate", "verify_main_theorem",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached here: bmoblo.X is always the defining module's current
    # binding, so a wrapper swapped in there and later removed leaves no trace.
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
