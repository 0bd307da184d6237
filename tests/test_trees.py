import json
import math

import numpy as np
import pytest

from bmoblo.errors import DomainError, PreconditionError, StructureError
from bmoblo.geometry import make_context
from bmoblo.trees import (
    AlphaTree,
    TreeNode,
    blo_norm,
    bmo_norm,
    inf_maximal,
    leaf_measures,
    maximal,
    random_tree,
    shift_values,
    stats,
    subtree,
    tree_from_json,
    tree_to_json,
    truncate,
    validate,
    verify_all_nodes,
    verify_induction,
    verify_main_theorem,
    with_leaf_values,
    _from_arrays,
)


def two_leaf_tree(a=1.0, b=-1.0, alpha=0.5):
    return AlphaTree(
        alpha=alpha,
        root=TreeNode(1.0, children=[TreeNode(0.5, value=a), TreeNode(0.5, value=b)]),
    )


def dyadic_tree(values, alpha=0.5, measure=1.0):
    """Balanced binary tree over a power-of-two list of leaf values."""
    n = len(values)
    if n == 1:
        return TreeNode(measure, value=values[0])
    left = dyadic_tree(values[: n // 2], alpha, measure / 2)
    right = dyadic_tree(values[n // 2 :], alpha, measure / 2)
    return TreeNode(measure, children=[left, right])


class TestValidate:
    def test_dyadic_is_half_tree(self):
        validate(two_leaf_tree())

    def test_quarter_tree_four_children(self):
        root = TreeNode(1.0, children=[TreeNode(0.25, value=float(i)) for i in range(4)])
        validate(AlphaTree(alpha=0.25, root=root))

    def test_small_child_rejected(self):
        root = TreeNode(
            1.0, children=[TreeNode(0.2, value=0.0), TreeNode(0.8, value=1.0)]
        )
        with pytest.raises(StructureError) as exc:
            validate(AlphaTree(alpha=0.25, root=root))
        assert "root/0" in str(exc.value)

    def test_measure_sum_mismatch(self):
        root = TreeNode(
            1.0, children=[TreeNode(0.5, value=0.0), TreeNode(0.6, value=1.0)]
        )
        with pytest.raises(StructureError):
            validate(AlphaTree(alpha=0.5, root=root))


class TestStats:
    def test_two_leaf(self):
        tree = two_leaf_tree()
        st = stats(tree)
        assert st[0].mean == 0.0
        assert st[0].mean_sq == 1.0

    def test_constant(self):
        tree = two_leaf_tree(3.0, 3.0)
        for s in stats(tree):
            assert s.mean == 3.0
            assert s.mean_sq == 9.0
        assert bmo_norm(tree) == 0.0
        assert blo_norm(tree) == 0.0

    def test_leaf_stats_are_values(self):
        tree = two_leaf_tree(2.0, -1.0)
        st = stats(tree)
        leaves = [st[i] for i in tree.leaf_idx]
        assert {(s.mean, s.mean_sq) for s in leaves} == {(2.0, 4.0), (-1.0, 1.0)}

    def test_norms_two_leaf(self):
        tree = two_leaf_tree()
        assert bmo_norm(tree) == pytest.approx(1.0, abs=1e-15)
        assert blo_norm(tree) == pytest.approx(1.0, abs=1e-15)


class TestMaximal:
    def test_indicator_left_half(self):
        # phi = indicator of [0, 1/2) on a depth-2 dyadic tree
        tree = AlphaTree(alpha=0.5, root=dyadic_tree([1.0, 1.0, 0.0, 0.0]))
        n_vals = maximal(tree)
        # leaves in preorder: [0,1/4): ancestors have means 1/2, 1, 1
        assert n_vals[0] == 1.0
        assert n_vals[-1] == 0.5

    def test_nonnegative_N_equals_M(self, rng):
        tree = random_tree(0.25, rng)
        vals = np.abs(tree.value[tree.leaf_idx])
        tree = with_leaf_values(tree, vals)
        assert np.array_equal(maximal(tree, "natural"), maximal(tree, "classical"))

    def test_classical_is_natural_of_abs(self, rng):
        tree = random_tree(0.25, rng)
        vals = tree.value[tree.leaf_idx]
        abs_tree = with_leaf_values(tree, np.abs(vals))
        assert np.array_equal(maximal(tree, "classical"), maximal(abs_tree, "natural"))

    def test_constant(self):
        tree = two_leaf_tree(2.0, 2.0)
        assert np.all(maximal(tree) == 2.0)


class TestKeyObservation:
    def test_indicator(self):
        tree = AlphaTree(alpha=0.5, root=dyadic_tree([1.0, 1.0, 0.0, 0.0]))
        # node [0, 1/4): ancestor sup = 1; min of N over its leaves = 1
        i = tree.leaf_idx[0]
        assert inf_maximal(tree, int(i)) == 1.0

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_random_trees_equality(self, alpha, rng):
        ctx = make_context(alpha)
        for _ in range(100):
            tree = random_tree(alpha, rng, max_depth=5)
            out = verify_all_nodes(tree, ctx)
            assert np.max(out["key_obs"]) <= 1e-12


class TestInduction:
    def test_constant_margin_zero(self, ctx_half):
        tree = two_leaf_tree(1.5, 1.5)
        assert verify_induction(tree, None, ctx_half) == pytest.approx(0.0, abs=1e-12)

    def test_two_leaf_explicit(self, ctx_half):
        # A((0,1); 0) = 1 and <N phi> = 1/2: margin exactly 1/2
        tree = two_leaf_tree()
        assert verify_induction(tree, None, ctx_half) == pytest.approx(0.5, abs=1e-12)

    def test_constant_subtree_equality_exhibit(self, ctx_half):
        # A node whose subtree is constant sits on the lower parabola after
        # the shift: margin exactly 0 even with a nontrivial carried L.
        root = TreeNode(
            1.0,
            children=[
                TreeNode(0.5, value=2.0),
                TreeNode(
                    0.5,
                    children=[TreeNode(0.25, value=-1.0), TreeNode(0.25, value=-1.0)],
                ),
            ],
        )
        tree = AlphaTree(alpha=0.5, root=root)
        scale = bmo_norm(tree)
        vals = np.array([2.0, -1.0, -1.0]) / scale
        tree = with_leaf_values(tree, vals)
        margin = verify_induction(tree, tree.root.children[1], ctx_half)
        assert abs(margin) < 1e-12

    def test_precondition(self, ctx_half):
        tree = two_leaf_tree(3.0, -3.0)
        with pytest.raises(PreconditionError):
            verify_induction(tree, None, ctx_half)

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_random_margins_nonnegative(self, alpha, rng):
        ctx = make_context(alpha)
        for _ in range(100):
            tree = random_tree(alpha, rng)
            out = verify_all_nodes(tree, ctx)
            assert np.nanmin(out["induction"]) >= -1e-9


class TestMainTheorem:
    def test_constant(self, ctx_half):
        tree = two_leaf_tree(2.0, 2.0)
        rep = verify_main_theorem(tree, None, ctx_half)
        assert rep.margin_n == pytest.approx(0.0, abs=1e-12)
        assert rep.t == 0.0

    def test_two_leaf_explicit(self, ctx_half):
        tree = two_leaf_tree()
        rep = verify_main_theorem(tree, None, ctx_half)
        # L = 0, t = 0, rhs = F(0) * 1 = 1, <N phi> = 1/2
        assert rep.L == 0.0
        assert rep.t == 0.0
        assert rep.margin_n == pytest.approx(0.5, abs=1e-12)
        assert rep.min_margin >= -1e-9

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_random_margins(self, alpha, rng):
        ctx = make_context(alpha)
        for _ in range(60):
            tree = random_tree(alpha, rng)
            rep = verify_main_theorem(tree, None, ctx)
            assert rep.min_margin >= -1e-9


class TestCovariance:
    def test_additive_shift(self, ctx_quarter, rng):
        tree = random_tree(0.25, rng)
        c = 3.7
        shifted = shift_values(tree, c)
        # N shifts by c, L shifts by c; t, norms, and the margins are fixed
        assert np.allclose(
            maximal(shifted), maximal(tree) + c, rtol=0, atol=1e-12
        )
        assert bmo_norm(shifted) == pytest.approx(bmo_norm(tree), abs=1e-11)
        a = verify_main_theorem(tree, None, ctx_quarter)
        b = verify_main_theorem(shifted, None, ctx_quarter)
        assert b.L == pytest.approx(a.L + c, abs=1e-12)
        assert b.t == pytest.approx(a.t, abs=1e-11)
        assert b.margin_n == pytest.approx(a.margin_n, abs=1e-9)
        ia = verify_induction(tree, None, ctx_quarter)
        ib = verify_induction(shifted, None, ctx_quarter)
        assert ib == pytest.approx(ia, abs=1e-9)

    def test_truncation_monotone(self, ctx_quarter, rng):
        for _ in range(20):
            tree = random_tree(0.25, rng, max_depth=5)
            means = [
                verify_all_nodes(truncate(tree, m), ctx_quarter)["mean_N"][0]
                for m in range(6)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
            # full depth reproduces the untruncated average
            full = verify_all_nodes(tree, ctx_quarter)["mean_N"][0]
            assert means[-1] == pytest.approx(full, abs=1e-12)


class TestJson:
    def test_round_trip(self, rng):
        tree = random_tree(0.25, rng)
        again = tree_from_json(json.dumps(tree_to_json(tree)))
        assert bmo_norm(again) == pytest.approx(bmo_norm(tree), abs=1e-15)
        assert np.array_equal(leaf_measures(again), leaf_measures(tree))

    def test_matches_recursive_encoding(self, rng):
        def enc(node):
            if node.is_leaf:
                return {"measure": node.measure, "value": node.value}
            return {"measure": node.measure, "children": [enc(c) for c in node.children]}

        trees = [random_tree(alpha, rng) for alpha in (0.5, 0.25, 0.1) for _ in range(5)]
        for tree in [*trees, deep_unbalanced_tree(rng), two_leaf_tree()]:
            assert tree_to_json(tree) == {"alpha": tree.alpha, "root": enc(tree.root)}

    def test_deep_comb_round_trip(self):
        # 600 levels: node 2d has a leaf child 2d+1 and carries on to 2d+2.
        depth = 600
        parent = np.repeat(np.arange(0, 2 * depth, 2), 2)
        parent = np.concatenate([[-1], parent])
        measure = np.concatenate([[1.0], np.repeat(0.5 ** np.arange(1.0, depth + 1.0), 2)])
        value = np.full(parent.size, np.nan)
        value[1::2] = 1.0
        value[-1] = -1.0
        levels = np.concatenate([[0], np.repeat(np.arange(1, depth + 1), 2)])
        tree = _from_arrays(0.5, parent, measure, value, levels, check=True)
        assert tree.depth.max() == depth
        again = tree_from_json(tree_to_json(tree))
        for key in ("parent", "measure", "value", "depth"):
            assert np.array_equal(getattr(again, key), getattr(tree, key), equal_nan=True), key

    def test_two_leaf_document(self):
        doc = {
            "alpha": 0.5,
            "root": {
                "measure": 2.0,
                "children": [
                    {"measure": 1.0, "value": 1.0},
                    {"measure": 1.0, "value": -1.0},
                ],
            },
        }
        tree = tree_from_json(doc)
        assert bmo_norm(tree) == pytest.approx(1.0, abs=1e-15)

    def test_malformed_documents(self):
        with pytest.raises(StructureError):
            tree_from_json({"alpha": 0.5})
        with pytest.raises(StructureError):
            tree_from_json(
                {"alpha": 0.5, "root": {"measure": 1.0}}
            )
        with pytest.raises(StructureError) as exc:
            tree_from_json(
                {
                    "alpha": 0.5,
                    "root": {
                        "measure": 1.0,
                        "children": [
                            {"measure": 0.5, "value": 0.0},
                            {"measure": 0.6, "value": 1.0},
                        ],
                    },
                }
            )
        assert "root" in str(exc.value)


class TestGenerator:
    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_valid_and_normalized(self, alpha, rng):
        for _ in range(50):
            tree = random_tree(alpha, rng)
            validate(tree)
            norm = bmo_norm(tree)
            assert norm == pytest.approx(1.0, abs=1e-9)
            assert norm <= 1.0
            # sup-cell variance stays a hair inside the strip
            assert np.max(tree.mean_sq - tree.mean**2) <= 1.0


def reference_aggregates(root):
    """The per-node aggregates by plain recursion over TreeNode, in preorder.

    A parent adds its children's integrals last child first, so the sums
    must agree with the tree's arrays bit for bit.
    """
    rows = []

    def up(node):
        row = {}
        rows.append(row)
        if node.is_leaf:
            integ = node.measure * node.value
            sums = [integ, integ * node.value, node.measure * abs(node.value)]
            row["min_leaf"] = node.value
            kids = []
        else:
            kids = [up(c) for c in node.children]
            sums = [0.0, 0.0, 0.0]
            for kid in reversed(kids):
                sums = [a + b for a, b in zip(sums, kid["sums"])]
            row["min_leaf"] = min(kid["min_leaf"] for kid in kids)
        row["sums"] = sums
        row["mean"], row["mean_sq"], row["abs_mean"] = (s / node.measure for s in sums)
        var = max(row["mean_sq"] - row["mean"] * row["mean"], 0.0)
        row["sub_bmo_sq"] = max([var] + [kid["sub_bmo_sq"] for kid in kids])
        return row

    up(root)
    order = iter(rows)

    def down(node, anc, abs_anc):
        row = next(order)
        row["anc_max"] = anc = max(anc, row["mean"])
        row["abs_anc_max"] = abs_anc = max(abs_anc, row["abs_mean"])
        for c in node.children or ():
            down(c, anc, abs_anc)

    down(root, -math.inf, -math.inf)
    return rows


def deep_unbalanced_tree(rng, depth=300, alpha=0.25):
    """A comb: at every level one child carries on, its siblings are leaves."""
    node = TreeNode(1.0, value=float(rng.normal()))
    for _ in range(depth):
        a = int(rng.integers(2, 5))
        fracs = alpha + (1.0 - a * alpha) * rng.dirichlet(np.ones(a))
        kids = [TreeNode(f, value=float(rng.normal())) for f in fracs[1:]]
        _scale(node, fracs[0])
        node = TreeNode(1.0, children=[*kids[:1], node, *kids[1:]])
    return AlphaTree(alpha=alpha, root=node)


def _scale(node, factor):
    stack = [node]
    while stack:
        nd = stack.pop()
        nd.measure *= factor
        stack.extend(nd.children or ())


AGGREGATES = (
    "mean", "mean_sq", "abs_mean", "anc_max", "abs_anc_max", "min_leaf", "sub_bmo_sq"
)


class TestArraysAgainstRecursion:
    def _check(self, tree):
        rows = reference_aggregates(tree.root)
        assert len(rows) == len(tree)
        for key in AGGREGATES:
            assert np.array_equal(getattr(tree, key), [r[key] for r in rows]), key
        # The JSON parse builds the same arrays.
        again = tree_from_json(json.dumps(tree_to_json(tree)))
        for key in AGGREGATES:
            assert np.array_equal(getattr(again, key), getattr(tree, key)), key

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_random_trees(self, alpha, rng):
        for _ in range(20):
            self._check(random_tree(alpha, rng, max_depth=7))

    def test_deep_unbalanced_tree(self, rng):
        tree = deep_unbalanced_tree(rng)
        assert tree.depth.max() == 300
        self._check(tree)


def _leaf(m, v):
    return TreeNode(m, value=v)


def _node(m, *children):
    return TreeNode(m, children=children)


class TestValidatePaths:
    """Malformed trees at depth 2 and more name the offending node."""

    @pytest.mark.parametrize(
        "alpha,root,message",
        [
            (
                0.25,
                _node(1.0, _leaf(0.5, 1.0), _node(0.5, _leaf(0.3, 0.0), _node(0.2, _leaf(0.1, 1.0), _leaf(0.11, 2.0)))),
                "root/1/1: children measures sum to 0.21000000000000002, parent has 0.2",
            ),
            (
                0.25,
                _node(1.0, _leaf(0.5, 1.0), _node(0.5, _leaf(0.3, 0.0), _node(0.2, _leaf(0.19, 1.0), _leaf(0.01, 2.0)))),
                "root/1/1/1: child measure 0.01 below alpha * parent = 0.05",
            ),
            (
                0.25,
                _node(1.0, _leaf(0.5, 1.0), _node(0.5, _leaf(-0.1, 0.0), _leaf(0.6, 2.0))),
                "root/1/0: child measure -0.1 below alpha * parent = 0.125",
            ),
            (
                0.25,
                _node(1.0, _leaf(0.5, 1.0), _node(0.5, _leaf(0.25, 0.0), _leaf(math.nan, 2.0))),
                "root/1/1: measure nan is not positive",
            ),
            (
                0.25,
                _node(1.0, _node(0.5, _leaf(0.25, 1.0), _leaf(0.25, 3.0)), _node(0.5, _leaf(0.25, 0.0), _leaf(0.25, math.inf))),
                "root/1/1: leaf carries no finite value",
            ),
            (
                0.5,
                _node(1.0, _node(0.5, _leaf(0.25, 1.0), _leaf(0.25, 3.0)), _node(0.5, _leaf(0.25, 0.0), TreeNode(0.25))),
                "root/1/1: leaf carries no finite value",
            ),
            (
                0.5,
                _node(1.0, _node(0.5, _leaf(0.25, 1.0), _leaf(0.25, 3.0)), _node(0.5, _node(0.25), _leaf(0.25, 0.0))),
                "root/1/0: internal node has no children",
            ),
            (
                0.5,
                _node(1.0, _leaf(0.5, 1.0), _node(0.5, _node(0.5, _node(0.4, _leaf(0.4, 1.0))))),
                "root/1/0: children measures sum to 0.4, parent has 0.5",
            ),
        ],
    )
    def test_tree_nodes(self, alpha, root, message):
        with pytest.raises(StructureError) as exc:
            validate(AlphaTree(alpha=alpha, root=root))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "root,message",
        [
            (
                {"measure": 1.0, "children": [{"measure": 0.5, "value": 1.0}, {"measure": 0.5, "children": [{"measure": 0.25, "value": 0.0}, 7]}]},
                "root/1/1: node must be a JSON object",
            ),
            (
                {"measure": 1.0, "children": [{"measure": 0.5, "children": [{"value": 0.0}, {"measure": 0.25, "value": 0.0}]}, {"measure": 0.5, "value": 1.0}]},
                "root/0/0: node lacks a measure",
            ),
        ],
    )
    def test_json_documents(self, root, message):
        with pytest.raises(StructureError) as exc:
            tree_from_json({"alpha": 0.5, "root": root})
        assert str(exc.value) == message
