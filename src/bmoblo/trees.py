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
slice [i, i + size[i]).  It enters only as a JSON document (tree_from_json)
or from another tree's arrays.
"""

from __future__ import annotations

import gc
import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .bellman import eval_A_arrays, eval_F
from .errors import DomainError, PreconditionError, StructureError
from .geometry import AlphaContext

_REL_TOL = 1e-12
# The induction step needs subtree BMO norm at most 1, up to rounding.
_UNIT_NORM_SQ = (1.0 + 1e-12) ** 2


class AlphaTree:
    """A finite alpha-tree with a step function on its leaves.

    Preorder arrays, index 0 the root: `parent` (-1 at the root), `measure`,
    leaf `value` (NaN at internal nodes), subtree `size`, `depth`, the
    leaves `leaf_idx`, and per-node aggregates: the averages `mean`,
    `mean_sq`, `abs_mean` of phi, phi^2, |phi|; `min_leaf`; the sups
    `anc_max`, `abs_anc_max` of mean, abs_mean over ancestors-or-self; the
    sup `sub_bmo_sq` of the cell variance over the subtree.
    """

    def _aggregate(self):
        m, leaf = self.measure, self.leaf_idx
        v = self.value[leaf]
        with np.errstate(over="ignore", invalid="ignore"):
            integ = m[leaf] * v
            self.mean = _subtree_sum(self, integ) / m
            self.mean_sq = _subtree_sum(self, integ * v) / m
            self.abs_mean = _subtree_sum(self, m[leaf] * np.abs(v)) / m
        bad = ~(np.isfinite(self.mean) & np.isfinite(self.mean_sq) & np.isfinite(self.abs_mean))
        if bad.any():
            # Name where the overflow starts: the first bad cell with no bad child.
            bad[self.parent[1:][bad[1:]]] = False
            i = int(np.argmax(bad))
            raise StructureError(_path(self.parent, i), "cell moments leave the float range")
        self.min_leaf = _subtree_min(self, v)
        self.anc_max = _fold_down(self, self.mean.copy())
        self.abs_anc_max = _fold_down(self, self.abs_mean.copy())
        var = np.maximum(self.mean_sq - self.mean**2, 0.0)
        self.sub_bmo_sq = _fold_up(self, var, np.maximum)

    def __len__(self):
        return len(self.parent)


def _from_arrays(alpha, parent, measure, value, depth, check=False) -> AlphaTree:
    """The tree on trusted preorder arrays; check=True validates the axioms."""
    tree = AlphaTree()
    tree.alpha = float(alpha)
    tree.parent, tree.measure, tree.value, tree.depth = parent, measure, value, depth
    # Levels deepest first, each in descending preorder, so that a fold
    # meets the children of a parent last to first: sums then come out
    # in the order of a reverse-preorder accumulation, bit for bit.
    by_level = np.split(np.argsort(depth, kind="stable"), np.cumsum(np.bincount(depth))[:-1])
    tree._levels = [(sel[::-1], parent[sel[::-1]]) for sel in reversed(by_level[1:])]
    tree.size = _fold_up(tree, np.ones(len(parent), dtype=np.int64), np.add)
    tree.leaf_idx = np.flatnonzero(tree.size == 1)
    if check:
        validate(tree)
    tree._aggregate()
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
    """Preorder index of a node given as None (the root) or an index; a bool
    is not an index."""
    if node is None:
        return 0
    if type(node) is bool or not isinstance(node, (int, np.integer)) or not 0 <= node < len(tree):
        raise DomainError("node does not belong to this tree")
    return int(node)


def bmo_norm(tree: AlphaTree, node=None) -> float:
    """sup over cells of (<phi^2> - <phi>^2)^(1/2), exact finite maximum."""
    return float(math.sqrt(tree.sub_bmo_sq[_node_index(tree, node)]))


def blo_norm(tree: AlphaTree) -> float:
    """sup over cells of <phi> - (min leaf value under the cell)."""
    return float(np.max(tree.mean - tree.min_leaf))


def _chain_max(tree: AlphaTree, kind: str):
    """Per-node sup over ancestors-or-self of the averages N (or M) takes."""
    if kind == "natural":
        return tree.anc_max
    if kind == "classical":
        return tree.abs_anc_max
    raise DomainError(f"unknown maximal operator kind {kind!r}")


def maximal(tree: AlphaTree, kind: str = "natural", outside: float | None = None):
    """Per-leaf values of the maximal operator, in leaf preorder.

    kind "natural" takes plain averages, "classical" averages of |phi|.
    `outside` optionally seeds the chain maximum (e.g. 0.0 when the ambient
    function vanishes outside the root cell); by default only the tree's
    own cells compete.  Exact for step functions: averages over sub-leaf
    sets equal the leaf value, so the supremum is a finite maximum over the
    ancestor chain including the leaf itself.
    """
    vals = _chain_max(tree, kind)[tree.leaf_idx]
    if outside is not None:
        vals = np.maximum(vals, outside)
    return vals


def inf_maximal(tree: AlphaTree, node=None, kind: str = "natural") -> float:
    """inf over the node of the maximal function.

    Computed as the supremum of averages over the node's ancestors-or-self;
    the equality of the two descriptions is a testable fact (see
    tests), not an assumption of this routine's callers.
    """
    i = _node_index(tree, node)
    return float(_chain_max(tree, kind)[i])


def verify_induction(tree: AlphaTree, node, ctx: AlphaContext) -> float:
    """Margin A(<phi>_K, <phi^2>_K; inf_K N phi) - <N phi>_K (>= 0).

    Requires the step function to have BMO norm at most 1 on the subtree
    at K (the caller rescales otherwise).
    """
    i = _node_index(tree, node)
    norm_sq = tree.sub_bmo_sq[i]
    if norm_sq > _UNIT_NORM_SQ:
        raise PreconditionError(
            f"subtree BMO norm {math.sqrt(norm_sq)} exceeds 1; rescale first"
        )
    mean_n = _subtree_mean(tree, tree.anc_max[tree.leaf_idx])
    return float(_induction(tree, i, mean_n, ctx)[0])


def _induction(tree: AlphaTree, sel, mean_n, ctx: AlphaContext):
    """Induction margins A(<phi>_K, <phi^2>_K; inf_K N phi) - <N phi>_K at
    the nodes `sel` (an index or a slice), given <N phi> at every node."""
    mean = tree.mean[sel]
    # Rounding can leave the cell point a few ulps above the strip when the
    # norm sits exactly at 1; the clamp is within the precondition slack.
    x2 = np.minimum(tree.mean_sq[sel], mean**2 + 1.0)
    return eval_A_arrays(mean, x2, tree.anc_max[sel], ctx) - mean_n[sel]


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
    out = AlphaTree()
    vars(out).update(vars(tree))
    out.value = np.full(len(tree), np.nan)
    out.value[tree.leaf_idx] = values
    out._aggregate()
    return out


def _margins(tree: AlphaTree, ctx: AlphaContext) -> dict:
    """Every per-node margin but the induction one; evaluates no A."""
    norm = np.sqrt(tree.sub_bmo_sq)
    out = {}
    for k, chain, mean in (("n", tree.anc_max, tree.mean), ("m", tree.abs_anc_max, tree.abs_mean)):
        vals = chain[tree.leaf_idx]
        out[f"mean_{k.upper()}"] = mean_max = _subtree_mean(tree, vals)
        min_max = _subtree_min(tree, vals)
        t = np.maximum(chain - mean, 0.0)
        if k == "n":
            out["t_n"], out["key_obs"] = t, np.abs(chain - min_max)
        out[f"main_{k}"] = chain + eval_F(t, ctx) * norm - mean_max
        # BLO norm of the maximal function on a subtree: its largest mean - min.
        out[f"blo_{k}"] = norm - _fold_up(tree, mean_max - min_max, np.maximum)
    return out


def verify_main_theorem(tree: AlphaTree, node, ctx: AlphaContext) -> TheoremMargins:
    """Decay-inequality and norm-corollary margins at one node."""
    i = _node_index(tree, node)
    m = _margins(tree, ctx)
    return TheoremMargins(
        *(float(m[key][i]) for key in ("main_n", "main_m", "blo_n", "blo_m")),
        L=float(tree.anc_max[i]),
        t=float(m["t_n"][i]),
        norm=bmo_norm(tree, i),
    )


def verify_all_nodes(tree: AlphaTree, ctx: AlphaContext) -> dict:
    """Every per-node margin in one pass, as arrays over preorder nodes.

    `induction` (NaN where the subtree BMO norm exceeds 1), the decay
    margins `main_n`/`main_m` (for N at t = `t_n`), the BLO corollary
    margins `blo_n`/`blo_m`, the means `mean_N`/`mean_M` of N phi/M phi,
    and the key-observation residual `key_obs` = |ancestor max - min over
    leaves below of N phi|.
    """
    out = _margins(tree, ctx)
    ok = tree.sub_bmo_sq <= _UNIT_NORM_SQ
    out["induction"] = np.where(ok, _induction(tree, slice(None), out["mean_N"], ctx), np.nan)
    return out


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


def random_tree(alpha: float, rng: np.random.Generator, max_depth: int = 6) -> AlphaTree:
    """Random alpha-tree with a step function of BMO norm 1.

    Arity 2..min(4, floor(1/alpha)); child fractions alpha + (1 - a*alpha)
    times a Dirichlet sample, which keeps every fraction >= alpha (plain
    rejection never terminates at alpha = 1/2, where the only valid split
    is exactly even).  A node below the root is a leaf with probability
    0.35.  Leaf values are standard normal, then affinely rescaled about
    the root mean so the BMO norm equals 1.
    """
    max_arity = min(4, int(1.0 / alpha + 1e-9))
    parent, measure, value, depth = [], [], [], []

    def build(p: int, path: list) -> None:
        i, d = len(parent), len(path)
        parent.append(p)
        # The fractions on the path multiply from the cell itself upwards.
        measure.append(math.prod(reversed(path), start=1.0))
        depth.append(d)
        if d >= max_depth or (d > 0 and rng.uniform() < 0.35):
            value.append(float(rng.normal()))
            return
        value.append(math.nan)
        a = int(rng.integers(2, max_arity + 1)) if max_arity > 2 else 2
        for f in alpha + (1.0 - a * alpha) * rng.dirichlet(np.ones(a)):
            build(i, path + [f])

    build(-1, [])
    tree = _from_arrays(alpha, *map(np.array, (parent, measure, value, depth)), check=True)
    for _ in range(64):
        if bmo_norm(tree) >= 1e-6:
            break
        vals = rng.normal(size=len(tree.leaf_idx))
        tree = with_leaf_values(tree, vals)
    # Two exact rescales about the root mean, then a hair of shrinkage so
    # accumulated rounding cannot push any cell's variance above 1 (the
    # induction step feeds cell points to the strip evaluator).
    for shrink in (1.0, 1.0 - 1e-11):
        norm = bmo_norm(tree)
        mean = tree.mean[0]
        vals = tree.value[tree.leaf_idx]
        tree = with_leaf_values(tree, mean + shrink / norm * (vals - mean))
    return tree


# ---------------------------------------------------------------------------
# The JSON wire format {"alpha": a, "root": node}, node {"measure": m,
# "children": [...]} or {"measure": m, "value": v}.
# ---------------------------------------------------------------------------


class _BadNode(Exception):
    """A node that cannot be read; the walk adds its path."""


def _walk(root):
    """(parent, measure, value, depth) preorder arrays of a parsed JSON tree;
    _read_json_node reads every node, so it raises its own errors, among
    them for integers beyond the float range."""
    parent, depth, measure, value = [], [], [], []
    stack = [(root, -1, 0)]
    try:
        while stack:
            node, p, d = stack.pop()
            parent.append(p)
            depth.append(d)
            m, v, kids = _read_json_node(node)
            measure.append(m)
            if kids is None:
                value.append(v)
            else:
                value.append(math.nan)
                i = len(parent) - 1
                stack.extend([(kid, i, d + 1) for kid in reversed(kids)])
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
        raise _BadNode(f"{what} is beyond the float range") from None


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


def _read_document(doc):
    """alpha and the preorder arrays of a parsed document; the one reader
    that reports errors."""
    if not isinstance(doc, dict) or "alpha" not in doc or "root" not in doc:
        raise StructureError("root", "top level must carry alpha and root")
    try:
        alpha = _number(doc["alpha"], "alpha")
    except _BadNode as exc:
        raise StructureError("root", str(exc)) from None
    return alpha, _walk(doc["root"])


class _OffShape(Exception):
    """A text document off the common shape, left to _read_document."""


def _read_text(text):
    """alpha and the preorder arrays of a text document of the common shape,
    or None for any other text.

    The common shape is a top level of exactly a float alpha and the root,
    and nodes of exactly a float measure and one of a float value or a
    non-empty children list.  json calls the hook on each object as soon as
    it is parsed, innermost first, so nodes arrive in postorder.  The hook
    stores a node's measure, value and subtree size, sets its children's
    parent, and returns the token (i,) in place of the dict, which no JSON
    value can be; so the document's object graph is never held.
    """
    measure, value, size, parent = array("d"), array("d"), array("q"), array("q")
    add_measure, add_value, add_size, add_parent = (
        measure.append, value.append, size.append, parent.append
    )
    nan = math.nan

    def hook(obj):
        if len(obj) != 2:
            raise _OffShape
        m = obj.get("measure")
        if type(m) is not float:
            if "alpha" in obj and "root" in obj:
                return obj  # the top level, checked below
            raise _OffShape
        i, s, v = len(size), 1, obj.get("value")
        if type(v) is not float:
            kids = obj.get("children")
            if type(kids) is not list or not kids:
                raise _OffShape
            for kid in kids:
                if type(kid) is not tuple:
                    raise _OffShape
                j = kid[0]
                parent[j] = i
                s += size[j]
            v = nan
        add_measure(m)
        add_value(v)
        add_size(s)
        add_parent(-1)
        return (i,)

    try:
        doc = json.loads(text, object_hook=hook)
    except (_OffShape, RecursionError, ValueError):
        return None
    # A duplicate key drops an object the hook has already stored, so the
    # root's subtree must hold every stored node; then the root is also
    # last in postorder.
    if type(doc) is not dict or type(doc["root"]) is not tuple or size[doc["root"][0]] != len(size):
        return None
    alpha = doc["alpha"]
    if type(alpha) is not float:
        return None
    n = len(size)
    # Postorder node v ends the slice [start(v), v] of its subtree.  Its
    # ancestors are the nodes after v whose slices start at or before v, so
    # depth(v) = #{u : start(u) <= v} - v - 1; in preorder v comes after
    # them and after the start(v) nodes of earlier subtrees.
    post = np.arange(n)
    start = post - np.frombuffer(size, dtype=np.int64) + 1
    depth = np.cumsum(np.bincount(start, minlength=n)) - post - 1
    pre = start + depth
    up = pre[np.frombuffer(parent, dtype=np.int64)]
    up[-1] = -1  # the root, last in postorder
    arrays = []
    for post_order in (up, np.frombuffer(measure), np.frombuffer(value), depth):
        a = np.empty_like(post_order)
        a[pre] = post_order
        arrays.append(a)
    return alpha, tuple(arrays)


def tree_from_json(obj) -> AlphaTree:
    """Parse and validate the JSON tree format.

    `obj` is the document, as text (str or bytes) or already parsed.  Text
    of the common shape is read as it is parsed (_read_text).  Any other
    text is parsed into dicts and read, like a parsed document, by
    _read_document, so every error text comes from there.

    The cyclic garbage collector is paused while such text is parsed and
    read, and left as it was found: parsing builds one dict per node and no
    reference cycles, and a running collector would rescan all of them
    again and again as they pile up, which more than doubles the time
    json.loads takes on a large tree.
    """
    text = isinstance(obj, (str, bytes))
    read = _read_text(obj) if text else None
    if read is None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            # json.loads runs in this frame, as a helper frame would lower
            # its nesting limit; the document it builds is freed before the
            # collector resumes.
            read = _read_document(json.loads(obj) if text else obj)
        finally:
            if enabled:
                gc.enable()
    alpha, arrays = read
    return _from_arrays(alpha, *arrays, check=True)


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
