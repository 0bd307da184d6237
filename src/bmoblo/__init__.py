"""Sharp BMO-to-BLO bounds for maximal operators on weighted trees.

The package evaluates the explicit extremal (Bellman-type) function that
governs how dyadic-type maximal operators act from BMO into BLO, verifies
its restricted concavity numerically, runs the induction argument on
finite alpha-trees, and reproduces the norm-optimizing sequence showing
that the operator-norm constant is exactly 1.
"""

__version__ = "0.1.0"

from .bellman import (
    BellmanValue,
    Foliation,
    eval_A,
    eval_b,
    eval_B,
    eval_b_prime,
    eval_f,
    eval_F,
    eval_majorant,
    solve_s,
)
from .concavity import ChordSample, SweepReport, check_C2, chord_H, chord_margin, sweep
from .errors import (
    BmobloError,
    ConvergenceError,
    DomainError,
    StructureError,
)
from .geometry import (
    AlphaContext,
    OmegaPoint,
    RegionId,
    classify,
    make_context,
    shift,
)
from .optimizers import (
    Enclosure,
    PsiFunction,
    PsiParams,
    PsiStats,
    build_psi,
    m_norm_report,
    psi_params,
    psi_stats,
)
from .trees import (
    AlphaTree,
    blo_norm,
    bmo_norm,
    maximal,
    random_tree,
    tree_from_json,
    tree_to_json,
    validate,
    verify_main_theorem,
)

__all__ = [
    "AlphaContext",
    "AlphaTree",
    "BellmanValue",
    "BmobloError",
    "ChordSample",
    "ConvergenceError",
    "DomainError",
    "Enclosure",
    "Foliation",
    "OmegaPoint",
    "PsiFunction",
    "PsiParams",
    "PsiStats",
    "RegionId",
    "StructureError",
    "SweepReport",
    "blo_norm",
    "bmo_norm",
    "build_psi",
    "check_C2",
    "chord_H",
    "chord_margin",
    "classify",
    "eval_A",
    "eval_B",
    "eval_F",
    "eval_b",
    "eval_b_prime",
    "eval_f",
    "eval_majorant",
    "m_norm_report",
    "make_context",
    "maximal",
    "psi_params",
    "psi_stats",
    "random_tree",
    "shift",
    "solve_s",
    "sweep",
    "tree_from_json",
    "tree_to_json",
    "validate",
    "verify_main_theorem",
]
