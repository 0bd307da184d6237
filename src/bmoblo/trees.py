"""Finite weighted trees, maximal operators, and the induction inequality.

An alpha-tree here is a finite rooted tree of measurable "cells": every
internal node's measure is the sum of its children's measures and no child
is smaller than alpha times its parent.  A step function lives on the
leaves.  All the quantities of interest -- cell averages, BMO/BLO norms,
the natural maximal operator N (sup of plain averages over the cells
containing a point) and the classical one M (averages of |phi|) -- are
then exact finite computations.

Two executable facts drive the verification:

  * the ancestor supremum of averages at a node equals the infimum of the
    maximal function over the node (checked, not assumed);
  * running the restricted concavity of the shifted family A(.; L) down
    the tree bounds the average of the maximal function:
    <N phi>_K <= A(<phi>_K, <phi^2>_K; inf_K N phi) whenever the step
    function has BMO norm at most 1 on the subtree.

A tree is held as preorder arrays, in which the subtree of node i is the
slice [i, i + size[i]).  TreeNode objects exist only at the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bellman import eval_A_arrays, eval_F
from .errors import DomainError, PreconditionError, StructureError
from .geometry import AlphaContext

_REL_TOL = 1e-12


class TreeNode:
    """One cell: positive measure plus either children or a leaf value."""

    __slots__ = ("measure", "children", "value")

    def __init__(self, measure, children=None, value=None):
        self.measure = float(measure)
        self.children = list(children) if children is not None else None
        self.value = float(value) if value is not None else None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def __repr__(self):
        if self.is_leaf:
            return f"TreeNode(measure={self.measure}, value={self.value})"
        return f"TreeNode(measure={self.measure}, children=[{len(self.children)}])"


class AlphaTree:
    """A finite alpha-tree with a step function on its leaves.

    Preorder arrays, index 0 the root: `parent` (-1 at the root), `measure`,
    leaf `value` (NaN at internal nodes), subtree `size`, `depth`, the
    leaves `leaf_idx`, and per-node aggregates: the averages `mean`,
    `mean_sq`, `abs_mean` of phi, phi^2, |phi|; `min_leaf`; the sups
    `anc_max`, `abs_anc_max` of mean, abs_mean over ancestors-or-self; the
    sup `sub_bmo_sq` of the cell variance over the subtree.
    AlphaTree(alpha, root) flattens and validates a TreeNode graph.
    """

    def __init__(self, alpha: float, root: TreeNode):
        arrays = _walk(root, lambda node: (node.measure, node.value, node.children))
        self._setup(alpha, *arrays, check=True)

    def _setup(self, alpha, parent, measure, value, depth, check):
        self.alpha = float(alpha)
        self.parent, self.measure, self.value, self.depth = parent, measure, value, depth
        # Levels deepest first, each in descending preorder, so that a fold
        # meets the children of a parent last to first: sums then come out
        # in the order of a reverse-preorder accumulation, bit for bit.
        by_level = np.split(np.argsort(depth, kind="stable"), np.cumsum(np.bincount(depth))[:-1])
        self._levels = [(sel[::-1], parent[sel[::-1]]) for sel in reversed(by_level[1:])]
        self.size = _fold_up(self, np.ones(len(parent), dtype=np.int64), np.add)
        self.leaf_idx = np.flatnonzero(self.size == 1)
        self._nodes = None
        if check:
            validate(self)
        self._aggregate()

    def _aggregate(self):
        m, leaf = self.measure, self.leaf_idx
        v = self.value[leaf]
        integ = m[leaf] * v
        self.mean = _subtree_sum(self, integ) / m
        self.mean_sq = _subtree_sum(self, integ * v) / m
        self.abs_mean = _subtree_sum(self, m[leaf] * np.abs(v)) / m
        self.min_leaf = _subtree_min(self, v)
        self.anc_max = _fold_down(self, self.mean.copy())
        self.abs_anc_max = _fold_down(self, self.abs_mean.copy())
        var = np.maximum(self.mean_sq - self.mean**2, 0.0)
        self.sub_bmo_sq = _fold_up(self, var, np.maximum)

    def __len__(self):
        return len(self.parent)

    @property
    def root(self) -> TreeNode:
        """The tree as TreeNode objects, rebuilt from the arrays on first use."""
        return self._node_list()[0]

    def _node_list(self) -> list[TreeNode]:
        if self._nodes is None:
            nodes = []
            for p, m, v, s in zip(
                self.parent.tolist(), self.measure.tolist(),
                self.value.tolist(), self.size.tolist(),
            ):
                node = TreeNode(m, value=v) if s == 1 else TreeNode(m, children=())
                if p >= 0:
                    nodes[p].children.append(node)
                nodes.append(node)
            self._nodes = nodes
        return self._nodes


def _from_arrays(alpha, parent, measure, value, depth, check=False) -> AlphaTree:
    tree = AlphaTree.__new__(AlphaTree)
    tree._setup(alpha, parent, measure, value, depth, check)
    return tree


def _fold_up(tree: AlphaTree, x, ufunc):
    """Fold x from children into parents, deepest level first (in place)."""
    for sel, psel in tree._levels:
        ufunc.at(x, psel, x[sel])
    return x


def _fold_down(tree: AlphaTree, x):
    """Running maximum of x from the root down (in place)."""
    for sel, psel in reversed(tree._levels):
        x[sel] = np.maximum(x[psel], x[sel])
    return x


def _subtree_sum(tree: AlphaTree, leaf_terms):
    x = np.zeros(len(tree))
    x[tree.leaf_idx] = leaf_terms
    return _fold_up(tree, x, np.add)


def _subtree_mean(tree: AlphaTree, leaf_values):
    """Per-node average of the step function with these leaf values."""
    return _subtree_sum(tree, tree.measure[tree.leaf_idx] * leaf_values) / tree.measure


def _subtree_min(tree: AlphaTree, leaf_terms):
    x = np.full(len(tree), np.inf)
    x[tree.leaf_idx] = leaf_terms
    return _fold_up(tree, x, np.minimum)


def _path(parent, i: int) -> str:
    """The address root/k/... of node i; k counts the earlier siblings."""
    parts = []
    while i > 0:
        p = parent[i]
        parts.append(str(np.count_nonzero(parent[:i] == p)))
        i = p
    return "/".join(["root", *reversed(parts)])


@dataclass(frozen=True)
class NodeStats:
    """Per-node averages and the running ancestor supremum of averages."""

    mean: float
    mean_sq: float
    ancestor_max: float


def validate(tree: AlphaTree) -> None:
    """Check the alpha-tree axioms; raises StructureError naming the first
    offending node in preorder."""
    if not (0.0 < tree.alpha <= 0.5):
        raise StructureError("root", f"alpha={tree.alpha} outside (0, 1/2]")
    m, par = tree.measure, tree.parent
    leaf = tree.size == 1
    total = np.zeros(len(m))
    np.add.at(total, par[1:], m[1:])
    with np.errstate(invalid="ignore", over="ignore"):
        bad_measure = ~((m > 0.0) & np.isfinite(m))
        bad_value = leaf & ~np.isfinite(tree.value)
        bad_sum = ~leaf & (np.abs(total - m) > _REL_TOL * np.maximum(np.abs(m), 1.0))
        small = 1 + np.flatnonzero(m[1:] < tree.alpha * m[par[1:]] * (1.0 - _REL_TOL))
    # A child's alpha bound is checked while visiting its parent, after the
    # parent's own checks.
    visits = np.concatenate([np.flatnonzero(bad_measure | bad_value | bad_sum), par[small]])
    if not visits.size:
        return
    v = int(visits.min())
    if bad_measure[v]:
        raise StructureError(_path(par, v), f"measure {float(m[v])} is not positive")
    if bad_value[v]:
        raise StructureError(_path(par, v), "leaf carries no finite value")
    if bad_sum[v]:
        raise StructureError(
            _path(par, v),
            f"children measures sum to {float(total[v])}, parent has {float(m[v])}",
        )
    c = int(small[par[small] == v][0])
    raise StructureError(
        _path(par, c),
        f"child measure {float(m[c])} below alpha * parent = {tree.alpha * float(m[v])}",
    )


def _node_index(tree: AlphaTree, node) -> int:
    """Preorder index of a node given as None (the root), an index, or a
    TreeNode of `tree.root`."""
    if node is None:
        return 0
    if isinstance(node, (int, np.integer)):
        i = int(node)
    else:
        i = next((k for k, nd in enumerate(tree._node_list()) if nd is node), -1)
    if not 0 <= i < len(tree):
        raise DomainError("node does not belong to this tree")
    return i


def stats(tree: AlphaTree) -> list[NodeStats]:
    """Per-node averages in preorder (index 0 = root)."""
    return [
        NodeStats(*row)
        for row in zip(tree.mean.tolist(), tree.mean_sq.tolist(), tree.anc_max.tolist())
    ]


def bmo_norm(tree: AlphaTree, node=None) -> float:
    """sup over cells of (<phi^2> - <phi>^2)^(1/2), exact finite maximum."""
    return float(math.sqrt(tree.sub_bmo_sq[_node_index(tree, node)]))


def blo_norm(tree: AlphaTree) -> float:
    """sup over cells of <phi> - (min leaf value under the cell)."""
    return float(np.max(tree.mean - tree.min_leaf))


def maximal(tree: AlphaTree, kind: str = "natural", outside: float | None = None):
    """Per-leaf values of the maximal operator, in leaf preorder.

    kind "natural" takes plain averages, "classical" averages of |phi|.
    `outside` optionally seeds the chain maximum (e.g. 0.0 when the ambient
    function vanishes outside the root cell); by default only the tree's
    own cells compete.  Exact for step functions: averages over sub-leaf
    sets equal the leaf value, so the supremum is a finite maximum over the
    ancestor chain including the leaf itself.
    """
    if kind == "natural":
        chain = tree.anc_max
    elif kind == "classical":
        chain = tree.abs_anc_max
    else:
        raise DomainError(f"unknown maximal operator kind {kind!r}")
    vals = chain[tree.leaf_idx]
    if outside is not None:
        vals = np.maximum(vals, outside)
    return vals


def leaf_measures(tree: AlphaTree):
    return tree.measure[tree.leaf_idx]


def inf_maximal(tree: AlphaTree, node=None, kind: str = "natural") -> float:
    """inf over the node of the maximal function.

    Computed as the supremum of averages over the node's ancestors-or-self;
    the equality of the two descriptions is a testable fact (see
    tests), not an assumption of this routine's callers.
    """
    i = _node_index(tree, node)
    return float(tree.anc_max[i] if kind == "natural" else tree.abs_anc_max[i])


def _mean_maximal_under(tree: AlphaTree, i: int, chain) -> float:
    """Measure-weighted average over node i of the maximal function whose
    per-node chain maxima are `chain`; node i's leaves are contiguous."""
    lo, hi = np.searchsorted(tree.leaf_idx, [i, i + tree.size[i]])
    leaves = tree.leaf_idx[lo:hi]
    return float(np.dot(tree.measure[leaves], chain[leaves]) / tree.measure[i])


def verify_induction(tree: AlphaTree, node, ctx: AlphaContext) -> float:
    """Margin A(<phi>_K, <phi^2>_K; inf_K N phi) - <N phi>_K (>= 0).

    Requires the step function to have BMO norm at most 1 on the subtree
    at K (the caller rescales otherwise).
    """
    i = _node_index(tree, node)
    norm_sq = tree.sub_bmo_sq[i]
    if norm_sq > (1.0 + 1e-12) ** 2:
        raise PreconditionError(
            f"subtree BMO norm {math.sqrt(norm_sq)} exceeds 1; rescale first"
        )
    L = float(tree.anc_max[i])
    # Rounding can leave the cell point a few ulps above the strip when the
    # norm sits exactly at 1; the clamp is within the precondition slack.
    x2 = min(float(tree.mean_sq[i]), float(tree.mean[i]) ** 2 + 1.0)
    rhs = float(eval_A_arrays(tree.mean[i], x2, L, ctx)[0])
    return rhs - _mean_maximal_under(tree, i, tree.anc_max)


@dataclass(frozen=True)
class TheoremMargins:
    """Margins of the decay inequality and its norm corollary at one node.

    margin_n / margin_m : L + F_alpha(t) * ||phi||_BMO - <(N|M) phi>_K,
    with t measured against <phi>_K for N and <|phi|>_K for M (the
    classical operator reduces through |phi|, whose BMO norm is no larger).
    blo_margin_n / blo_margin_m : ||phi||_BMO(subtree) minus the BLO norm
    of the maximal function treated as a new step function on the subtree.
    """

    margin_n: float
    margin_m: float
    blo_margin_n: float
    blo_margin_m: float
    L: float
    t: float
    norm: float

    @property
    def min_margin(self) -> float:
        return min(self.margin_n, self.margin_m, self.blo_margin_n, self.blo_margin_m)


def subtree(tree: AlphaTree, node) -> AlphaTree:
    """The subtree at a node as a tree of its own (slices of the arrays)."""
    i = _node_index(tree, node)
    s = slice(i, i + int(tree.size[i]))
    parent = tree.parent[s] - i
    parent[0] = -1
    return _from_arrays(
        tree.alpha, parent, tree.measure[s], tree.value[s], tree.depth[s] - tree.depth[i]
    )


def with_leaf_values(tree: AlphaTree, values) -> AlphaTree:
    """The tree carrying new leaf values (leaf preorder); the copy shares
    the structural arrays and recomputes the aggregates."""
    values = np.asarray(values, dtype=float)
    if values.shape != tree.leaf_idx.shape:
        raise DomainError("value count does not match leaf count")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise StructureError(
            _path(tree.parent, int(tree.leaf_idx[bad[0]])), "leaf carries no finite value"
        )
    out = AlphaTree.__new__(AlphaTree)
    vars(out).update(vars(tree))
    out.value = np.full(len(tree), np.nan)
    out.value[tree.leaf_idx] = values
    out._nodes = None
    out._aggregate()
    return out


def verify_main_theorem(tree: AlphaTree, node, ctx: AlphaContext) -> TheoremMargins:
    """Decay-inequality and norm-corollary margins at one node."""
    i = _node_index(tree, node)
    norm = math.sqrt(tree.sub_bmo_sq[i])
    under = slice(i, i + int(tree.size[i]))
    out = []
    for chain, mean in ((tree.anc_max, tree.mean), (tree.abs_anc_max, tree.abs_mean)):
        L = float(chain[i])
        t = max(L - float(mean[i]), 0.0)
        margin = L + float(eval_F(t, ctx)) * norm - _mean_maximal_under(tree, i, chain)
        # The BLO norm over the subtree is the largest spread mean - min of
        # the maximal function over the slice of nodes under i.
        vals = chain[tree.leaf_idx]
        spread = _subtree_mean(tree, vals) - _subtree_min(tree, vals)
        out.append((margin, norm - float(np.max(spread[under])), L, t))
    (margin_n, blo_n, L_n, t_n), (margin_m, blo_m, _, _) = out
    return TheoremMargins(margin_n, margin_m, blo_n, blo_m, L=L_n, t=t_n, norm=norm)


def verify_all_nodes(tree: AlphaTree, ctx: AlphaContext):
    """Vectorized per-node margins for whole-tree verification.

    Returns dict with arrays over preorder nodes: induction margin (where
    the subtree BMO norm is at most 1; NaN elsewhere), the N/M decay
    margins, and the key-observation residual
    |ancestor max - min over leaves below of N phi|.
    """
    # Mean of N phi and M phi and min of N phi over each node.
    chain_n = tree.anc_max[tree.leaf_idx]
    mean_n = _subtree_mean(tree, chain_n)
    mean_m = _subtree_mean(tree, tree.abs_anc_max[tree.leaf_idx])
    min_n = _subtree_min(tree, chain_n)

    ind_ok = tree.sub_bmo_sq <= (1.0 + 1e-12) ** 2
    x2 = np.minimum(tree.mean_sq, tree.mean**2 + 1.0)
    rhs = eval_A_arrays(tree.mean, x2, tree.anc_max, ctx)
    induction = np.where(ind_ok, rhs - mean_n, np.nan)

    norm = np.sqrt(tree.sub_bmo_sq)
    t_n = np.maximum(tree.anc_max - tree.mean, 0.0)
    t_m = np.maximum(tree.abs_anc_max - tree.abs_mean, 0.0)
    main_n = tree.anc_max + eval_F(t_n, ctx) * norm - mean_n
    main_m = tree.abs_anc_max + eval_F(t_m, ctx) * norm - mean_m

    key_obs = np.abs(tree.anc_max - min_n)
    return {
        "induction": induction,
        "main_n": main_n,
        "main_m": main_m,
        "key_obs": key_obs,
        "mean_N": mean_n,
        "mean_M": mean_m,
    }


def truncate(tree: AlphaTree, depth: int) -> AlphaTree:
    """Conditional expectation at a generation: depth-m cells become leaves
    carrying their averages."""
    if depth < 0:
        raise DomainError(f"truncation depth {depth} is negative")
    kept = tree.depth <= depth
    keep = np.flatnonzero(kept)
    parent = (np.cumsum(kept) - 1)[tree.parent[keep]]
    parent[0] = -1
    leaf = (tree.size[keep] == 1) | (tree.depth[keep] == depth)
    value = np.where(leaf, tree.mean[keep], np.nan)
    return _from_arrays(tree.alpha, parent, tree.measure[keep], value, tree.depth[keep])


def shift_values(tree: AlphaTree, c: float) -> AlphaTree:
    """The tree carrying phi + c."""
    return with_leaf_values(tree, tree.value[tree.leaf_idx] + c)


def random_tree(
    alpha: float,
    rng: np.random.Generator,
    max_depth: int = 6,
    leaf_prob: float = 0.35,
    target_bmo: float = 1.0,
) -> AlphaTree:
    """Random alpha-tree with a normalized step function.

    Arity 2..min(4, floor(1/alpha)); child fractions alpha + (1 - a*alpha)
    times a Dirichlet sample, which keeps every fraction >= alpha (plain
    rejection never terminates at alpha = 1/2, where the only valid split
    is exactly even).  Leaf values are standard normal, then affinely
    rescaled about the root mean so the BMO norm equals target_bmo.
    """
    max_arity = min(4, int(1.0 / alpha + 1e-9))
    parent, measure, value, depth = [], [], [], []

    def build(p: int, path: list) -> None:
        i, d = len(parent), len(path)
        parent.append(p)
        # The fractions on the path multiply from the cell itself upwards.
        measure.append(math.prod(reversed(path), start=1.0))
        depth.append(d)
        if d >= max_depth or (d > 0 and rng.uniform() < leaf_prob):
            value.append(float(rng.normal()))
            return
        value.append(math.nan)
        a = int(rng.integers(2, max_arity + 1)) if max_arity > 2 else 2
        for f in alpha + (1.0 - a * alpha) * rng.dirichlet(np.ones(a)):
            build(i, path + [f])

    build(-1, [])
    tree = _from_arrays(alpha, *map(np.array, (parent, measure, value, depth)), check=True)
    if target_bmo is None:
        return tree
    for _ in range(64):
        if bmo_norm(tree) >= 1e-6:
            break
        vals = rng.normal(size=len(tree.leaf_idx))
        tree = with_leaf_values(tree, vals)
    # Two exact rescales about the root mean, then a hair of shrinkage so
    # accumulated rounding cannot push any cell's variance above the target
    # (the induction step feeds cell points to the strip evaluator).
    for shrink in (1.0, 1.0 - 1e-11):
        norm = bmo_norm(tree)
        mean = tree.mean[0]
        lam = shrink * target_bmo / norm
        vals = tree.value[tree.leaf_idx]
        tree = with_leaf_values(tree, mean + lam * (vals - mean))
    return tree


# ---------------------------------------------------------------------------
# Nested input: TreeNode graphs and the JSON wire format {"alpha": a, "root":
# node}, node {"measure": m, "children": [...]} or {"measure": m, "value": v}.
# ---------------------------------------------------------------------------


class _BadNode(Exception):
    """A node that cannot be read; the walk adds its path."""


def _walk(root, read):
    """(parent, measure, value, depth) preorder arrays of a nested tree.

    read(node) gives (measure, value, children), children None at a leaf,
    or raises _BadNode.
    """
    parent, depth, measure, value = [], [], [], []
    stack = [(root, -1)]
    try:
        while stack:
            node, p = stack.pop()
            i = len(parent)
            parent.append(p)
            depth.append(depth[p] + 1 if i else 0)
            m, v, kids = read(node)
            measure.append(m)
            if kids is None:
                value.append(math.nan if v is None else v)
            elif kids:
                value.append(math.nan)
                stack.extend(zip(reversed(kids), [i] * len(kids)))
            else:
                raise _BadNode("internal node has no children")
    except _BadNode as exc:
        raise StructureError(_path(np.array(parent), len(parent) - 1), str(exc)) from None
    return (
        np.array(parent, dtype=np.int64),
        np.array(measure, dtype=float),
        np.array(value, dtype=float),
        np.array(depth, dtype=np.int64),
    )


def _number(x, what: str) -> float:
    # bool subclasses int, but JSON true/false are not numbers.
    if type(x) is not float and type(x) is not int:
        raise _BadNode(f"{what} must be a number")
    try:
        return float(x)
    except OverflowError:  # an integer literal beyond the float range
        return math.copysign(math.inf, x)


def _read_json_node(obj):
    if not isinstance(obj, dict):
        raise _BadNode("node must be a JSON object")
    if "measure" not in obj:
        raise _BadNode("node lacks a measure")
    measure = _number(obj["measure"], "measure")
    if ("children" in obj) == ("value" in obj):
        raise _BadNode("node must have exactly one of children/value")
    if "value" in obj:
        return measure, _number(obj["value"], "leaf value"), None
    children = obj["children"]
    if not isinstance(children, list) or not children:
        raise _BadNode("children must be a non-empty list")
    return measure, None, children


def tree_from_json(obj) -> AlphaTree:
    """Parse and validate the JSON tree format."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "alpha" not in obj or "root" not in obj:
        raise StructureError("root", "top level must carry alpha and root")
    try:
        alpha = _number(obj["alpha"], "alpha")
    except _BadNode as exc:
        raise StructureError("root", str(exc)) from None
    return _from_arrays(alpha, *_walk(obj["root"], _read_json_node), check=True)


def tree_to_json(tree: AlphaTree) -> dict:
    """The JSON document of the tree, built from its preorder arrays without
    recursion, so that any depth can be written."""
    docs = []
    for p, m, v, s in zip(
        tree.parent.tolist(), tree.measure.tolist(), tree.value.tolist(), tree.size.tolist()
    ):
        doc = {"measure": m, "value": v} if s == 1 else {"measure": m, "children": []}
        if p >= 0:
            docs[p]["children"].append(doc)
        docs.append(doc)
    return {"alpha": tree.alpha, "root": docs[0]}
