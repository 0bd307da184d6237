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
slice [i, i + size[i]).  It enters only as a JSON document or from another
tree's arrays.  tree_from_json reads a document in one json.loads pass,
with an object hook that turns each node into array rows as it is parsed
and names the first bad node in preorder.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .bellman import eval_arrays, eval_F
from .errors import DomainError, StructureError
from .geometry import TOL, AlphaContext

_REL_TOL = 1e-12
# The induction step needs subtree BMO norm at most 1, up to the strip's own
# tolerance: a cell point whose variance is at most 1 + TOL is clamp_gap's.
_UNIT_NORM_SQ = 1.0 + TOL


class AlphaTree:
    """A finite alpha-tree with a step function on its leaves.

    Preorder arrays, index 0 the root: `parent` (-1 at the root), `measure`,
    leaf `value` (NaN at internal nodes), subtree `size`, `depth`, the
    leaves `leaf_idx`, and per-node aggregates: the averages `mean`,
    `mean_sq`, `abs_mean` of phi, phi^2, |phi|; `min_leaf`; the sups
    `anc_max`, `abs_anc_max` of mean, abs_mean over ancestors-or-self; the
    cell variance `var`, and its sup `sub_bmo_sq` over the subtree.
    """

    def _aggregate(self):
        m, leaf = self.measure, self.leaf_idx
        v = self.value[leaf]
        with np.errstate(over="ignore", invalid="ignore"):
            integ = m[leaf] * v
            self.mean = _subtree_sum(self, integ) / m
            self.mean_sq = _subtree_sum(self, integ * v) / m
            self.abs_mean = _subtree_sum(self, m[leaf] * np.abs(v)) / m
            # Centred second moments, combined pairwise up the levels (Chan,
            # Golub and LeVeque 1979): M2_K = sum of w_D (c_D - c_parent(D))^2
            # over the cells D below K, w the measure as the sum of the leaves'.
            # The centre c = mean + corr is carried in two parts, a parent's
            # corr being its children's weighted mean offset d, taken about one
            # child's d: so a constant subtree gives exactly 0, and the rounding
            # of means far from 0 cancels out of d.
            w = _subtree_sum(self, m[leaf])
            corr, acc, m2 = (np.zeros(len(m)) for _ in range(3))
            corr[leaf] = v - self.mean[leaf]
            for sel, psel in self._levels:
                d = self.mean[sel] - self.mean[psel] + corr[sel]
                corr[psel] = d
                d -= corr[psel]
                np.add.at(acc, psel, w[sel] * d)
                shift = acc[psel] / w[psel]
                corr[psel] += shift
                d -= shift
                np.add.at(m2, psel, m2[sel] + w[sel] * d * d)
            self.var = m2 / w
        bad = ~np.isfinite([self.mean, self.mean_sq, self.abs_mean, self.var]).all(axis=0)
        if bad.any():
            # Name where the overflow starts: the first bad cell with no bad child.
            bad[self.parent[1:][bad[1:]]] = False
            i = int(np.argmax(bad))
            raise StructureError(_path(self.parent, i), "cell moments leave the float range")
        self.min_leaf = _subtree_min(self, v)
        self.anc_max = _fold_down(self, self.mean.copy())
        self.abs_anc_max = _fold_down(self, self.abs_mean.copy())
        self.sub_bmo_sq = _fold_up(self, self.var.copy(), np.maximum)

    def __len__(self):
        return len(self.parent)


def _from_arrays(alpha, parent, measure, value, depth) -> AlphaTree:
    """The validated tree on preorder arrays."""
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


def _induction(tree: AlphaTree, sel, mean_n, ctx: AlphaContext):
    """Induction margins A(<phi>_K, <phi^2>_K; inf_K N phi) - <N phi>_K at
    the nodes `sel` (an index or a mask), given <N phi> at every node.
    A(x; L) = L + B(T_L x) depends on x only through x1 - L and the gap
    x2 - x1^2, the variance; so B is taken at (y1, y1^2 + var), y1 = x1 - L."""
    L = tree.anc_max[sel]
    y1 = tree.mean[sel] - L
    return L + eval_arrays(y1, y1 * y1 + tree.var[sel], ctx)["value"] - mean_n[sel]


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


def with_unit_norm(tree: AlphaTree) -> AlphaTree:
    """The tree rescaled about its root mean by exactly 1/norm, if its BMO
    norm exceeds 1.  The leaf values round the rescaled function to floats,
    which far from 0 can leave them where they were; so the variances are
    the original's over norm^2, as the rescaled function has them."""
    norm = bmo_norm(tree)
    if norm <= 1.0:
        return tree
    mean = tree.mean[0]
    out = with_leaf_values(tree, mean + (tree.value[tree.leaf_idx] - mean) / norm)
    out.var, out.sub_bmo_sq = tree.var / norm**2, tree.sub_bmo_sq / norm**2
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

    `induction` (NaN where a cell variance in the subtree exceeds 1 + TOL),
    the decay margins `main_n`/`main_m` (for N at t = `t_n`), the BLO corollary
    margins `blo_n`/`blo_m`, the means `mean_N`/`mean_M` of N phi/M phi,
    and the key-observation residual `key_obs` = |ancestor max - min over
    leaves below of N phi|.
    """
    out = _margins(tree, ctx)
    ok = tree.sub_bmo_sq <= _UNIT_NORM_SQ
    out["induction"] = np.full(len(tree), np.nan)
    out["induction"][ok] = _induction(tree, ok, out["mean_N"], ctx)
    return out


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
    tree = _from_arrays(alpha, *map(np.array, (parent, measure, value, depth)))
    for _ in range(64):
        if bmo_norm(tree) >= 1e-6:
            break
        vals = rng.normal(size=len(tree.leaf_idx))
        tree = with_leaf_values(tree, vals)
    # Two rescales about the root mean, then a hair of shrinkage, so that
    # every cell variance is at most 1 with no tolerance at all; the seeded
    # data of the tests are drawn with it.
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
    """A node that cannot be read; the reader adds its path."""


def _number(x, what: str) -> float:
    # bool subclasses int, but JSON true/false are not numbers.
    if type(x) is not float and type(x) is not int:
        raise _BadNode(f"{what} must be a number")
    try:
        return float(x)
    except OverflowError:  # an integer literal beyond the float range
        raise _BadNode(f"{what} is beyond the float range") from None


def tree_from_json(obj) -> AlphaTree:
    """Parse and validate the JSON tree format.

    `obj` is the document as text (str or bytes); a parsed document is
    written back to text with json.dumps and read the same way, so one
    nested too deeply for json raises RecursionError as its text does, and
    one that JSON cannot represent is a StructureError.
    json calls the hook on each object as soon as it is parsed, innermost
    first, so objects arrive in postorder.  The hook stores each one as a
    row (measure, value, subtree size, parent), sets its children's parent
    and returns the token (i,) in place of the dict, which no JSON value
    can be; so the document's object graph is never held.  An error names
    the first bad node in preorder.
    """
    if not isinstance(obj, (str, bytes)):
        try:
            obj = json.dumps(obj)
        except (TypeError, ValueError) as exc:  # an unknown type, a circular reference
            raise StructureError("root", f"document is not JSON: {exc}") from None
    measure, value, size, parent = array("d"), array("d"), array("q"), array("q")
    add_measure, add_value, add_size, add_parent = (
        measure.append, value.append, size.append, parent.append
    )
    nan = math.nan
    top = None  # (row, alpha, root) of the last object holding alpha and root
    bad = []  # (row, child slot or None, message) of every unreadable object

    def hook(obj):
        # The common shape: exactly a float measure and one of a float value
        # or a non-empty list of child tokens.
        m = obj.get("measure")
        if len(obj) != 2 or type(m) is not float:
            return irregular(obj)
        i, s, v = len(size), 1, obj.get("value")
        if type(v) is not float:
            kids = obj.get("children")
            if type(kids) is not list or not kids:
                return irregular(obj)
            for kid in kids:
                if type(kid) is not tuple:
                    return irregular(obj)
                j = kid[0]
                parent[j] = i
                s += size[j]
            v = nan
        add_measure(m)
        add_value(v)
        add_size(s)
        add_parent(-1)
        return (i,)

    def irregular(obj):
        # Any other object, checked in the order below: integers are read
        # and extra keys ignored.  A bad node links no children, or only
        # those before a child that is not an object.
        nonlocal top
        i, m, v, s = len(size), nan, nan, 1
        if "alpha" in obj and "root" in obj:
            top = i, obj["alpha"], obj["root"]
        try:
            if "measure" not in obj:
                raise _BadNode("node lacks a measure")
            m = _number(obj["measure"], "measure")
            if ("children" in obj) == ("value" in obj):
                raise _BadNode("node must have exactly one of children/value")
            if "value" in obj:
                v = _number(obj["value"], "leaf value")
            else:
                kids = obj["children"]
                if type(kids) is not list or not kids:
                    raise _BadNode("children must be a non-empty list")
                for k, kid in enumerate(kids):
                    if type(kid) is not tuple:
                        bad.append((i, k, "node must be a JSON object"))
                        break
                    parent[kid[0]] = i
                    s += size[kid[0]]
        except _BadNode as exc:
            bad.append((i, None, str(exc)))
        add_measure(m)
        add_value(v)
        add_size(s)
        add_parent(-1)
        return (i,)

    # json.loads runs in this frame, as a helper frame would lower its
    # nesting limit.
    doc = json.loads(obj, object_hook=hook)
    # The top level is the outermost object, so the last one stored.
    if top is None or doc != (top[0],):
        raise StructureError("root", "top level must carry alpha and root")
    _, alpha, root = top
    try:
        alpha = _number(alpha, "alpha")
    except _BadNode as exc:
        raise StructureError("root", str(exc)) from None
    if type(root) is not tuple:
        raise StructureError("root", "node must be a JSON object")
    n, r = len(size), root[0]
    sizes, ups = np.frombuffer(size, dtype=np.int64), np.frombuffer(parent, dtype=np.int64)
    if sizes[r] == n - 1:
        rows = slice(n - 1)  # every row but the top level's
    else:
        # The top level, objects under extra keys or dropped by a repeated
        # key, and the children a bad node leaves unlinked each head a whole
        # block of rows; keep the rows whose topmost ancestor is the root.
        head = np.where(ups < 0, np.arange(n), ups)
        for _ in range(n.bit_length()):  # pointer jumping past any depth
            head = head[head]
        rows = np.flatnonzero(head == r)
    # Postorder row v ends the slice [start(v), v] of its subtree.  Its
    # ancestors are the rows after v whose slices start at or before v, so
    # depth(v) = #{u : start(u) <= v} - v - 1; in preorder v comes after
    # them and after the start(v) rows of earlier subtrees.
    kept = sizes[rows]
    post = np.arange(len(kept))
    start = post - kept + 1
    depth = np.cumsum(np.bincount(start, minlength=len(kept))) - post - 1
    pre = start + depth
    slot = np.full(n, -1, dtype=np.int64)
    slot[rows] = pre
    up = slot[ups[rows]]
    up[-1] = -1  # the root, last in postorder
    arrays = []
    for post_order in (up, np.frombuffer(measure)[rows], np.frombuffer(value)[rows], depth):
        a = np.empty_like(post_order)
        a[pre] = post_order
        arrays.append(a)
    if bad:

        def reached(entry):
            # Read in preorder, a bad node comes at its slot and a bad child
            # right after the subtrees linked before it; of the faults at one
            # slot, the deepest bad child comes first, then the node.
            i, k, _ = entry
            return (slot[i], 1) if k is None else (slot[i] + size[i], -slot[i])

        first = min((e for e in bad if slot[e[0]] >= 0), key=reached, default=None)
        if first is not None:
            i, k, message = first
            path = _path(arrays[0], int(slot[i]))
            raise StructureError(path if k is None else f"{path}/{k}", message)
    return _from_arrays(alpha, *arrays)


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
