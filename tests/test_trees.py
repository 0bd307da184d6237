import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bmoblo.errors import DomainError, StructureError
from bmoblo.geometry import TOL, make_context
from bmoblo.trees import (
    blo_norm,
    bmo_norm,
    maximal,
    random_tree,
    tree_from_json,
    tree_to_json,
    validate,
    verify_all_nodes,
    verify_main_theorem,
    with_leaf_values,
    with_unit_norm,
    _BadNode,
    _from_arrays,
    _number,
    _path,
)

from conftest import comb_text
from oracles import (
    PreconditionError,
    cube_tree,
    dyadic_square_bmo_sq,
    exact_variances,
    inf_maximal,
    reference_induction,
    reference_main_theorem,
    truncate,
    verify_induction,
)


def _leaf(m, v):
    return {"measure": m, "value": v}


def _node(m, *children):
    return {"measure": m, "children": list(children)}


def two_leaf_tree(a=1.0, b=-1.0, alpha=0.5):
    return tree_from_json({"alpha": alpha, "root": _node(1.0, _leaf(0.5, a), _leaf(0.5, b))})


def comb_tree(depth):
    """A comb of `depth` levels: node 2d has a leaf child 2d+1 and carries
    on to 2d+2."""
    parent = np.concatenate([[-1], np.repeat(np.arange(0, 2 * depth, 2), 2)])
    measure = np.concatenate([[1.0], np.repeat(0.5 ** np.arange(1.0, depth + 1.0), 2)])
    value = np.full(parent.size, np.nan)
    value[1::2] = 1.0
    value[-1] = -1.0
    levels = np.concatenate([[0], np.repeat(np.arange(1, depth + 1), 2)])
    return _from_arrays(0.5, parent, measure, value, levels)


def dyadic_tree(values, alpha=0.5):
    """Balanced binary tree over a power-of-two list of leaf values."""

    def node(values, measure):
        n = len(values)
        if n == 1:
            return _leaf(measure, values[0])
        return _node(measure, node(values[: n // 2], measure / 2), node(values[n // 2 :], measure / 2))

    return tree_from_json({"alpha": alpha, "root": node(values, 1.0)})


class TestValidate:
    def test_dyadic_is_half_tree(self):
        validate(two_leaf_tree())

    def test_quarter_tree_four_children(self):
        root = _node(1.0, *[_leaf(0.25, float(i)) for i in range(4)])
        validate(tree_from_json({"alpha": 0.25, "root": root}))

    def test_small_child_rejected(self):
        root = _node(1.0, _leaf(0.2, 0.0), _leaf(0.8, 1.0))
        with pytest.raises(StructureError) as exc:
            validate(tree_from_json({"alpha": 0.25, "root": root}))
        assert "root/0" in str(exc.value)

    def test_measure_sum_mismatch(self):
        root = _node(1.0, _leaf(0.5, 0.0), _leaf(0.6, 1.0))
        with pytest.raises(StructureError):
            validate(tree_from_json({"alpha": 0.5, "root": root}))


class TestStats:
    def test_two_leaf(self):
        tree = two_leaf_tree()
        assert tree.mean[0] == 0.0
        assert tree.mean_sq[0] == 1.0

    def test_constant(self):
        tree = two_leaf_tree(3.0, 3.0)
        for mean, mean_sq in zip(tree.mean, tree.mean_sq):
            assert mean == 3.0
            assert mean_sq == 9.0
        assert bmo_norm(tree) == 0.0
        assert blo_norm(tree) == 0.0

    def test_leaf_stats_are_values(self):
        tree = two_leaf_tree(2.0, -1.0)
        leaves = zip(tree.mean[tree.leaf_idx].tolist(), tree.mean_sq[tree.leaf_idx].tolist())
        assert set(leaves) == {(2.0, 4.0), (-1.0, 1.0)}

    def test_norms_two_leaf(self):
        tree = two_leaf_tree()
        assert bmo_norm(tree) == pytest.approx(1.0, abs=1e-15)
        assert blo_norm(tree) == pytest.approx(1.0, abs=1e-15)


class TestMaximal:
    def test_indicator_left_half(self):
        # phi = indicator of [0, 1/2) on a depth-2 dyadic tree
        tree = dyadic_tree([1.0, 1.0, 0.0, 0.0])
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
        for call in (maximal, inf_maximal):
            with pytest.raises(DomainError, match="unknown maximal operator kind 'bogus'"):
                call(tree, kind="bogus")


class TestKeyObservation:
    def test_indicator(self):
        tree = dyadic_tree([1.0, 1.0, 0.0, 0.0])
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
        root = _node(1.0, _leaf(0.5, 2.0), _node(0.5, _leaf(0.25, -1.0), _leaf(0.25, -1.0)))
        tree = tree_from_json({"alpha": 0.5, "root": root})
        scale = bmo_norm(tree)
        vals = np.array([2.0, -1.0, -1.0]) / scale
        tree = with_leaf_values(tree, vals)
        # Node 2 in preorder is the root's second child.
        margin = verify_induction(tree, 2, ctx_half)
        assert abs(margin) < 1e-12

    def test_precondition(self, ctx_half):
        tree = two_leaf_tree(3.0, -3.0)
        with pytest.raises(PreconditionError):
            verify_induction(tree, None, ctx_half)

    def test_precondition_matches_the_strip(self, ctx_half):
        # A cell variance up to 1 + TOL passes the precondition: the cell
        # point is then within TOL of the strip, where clamp_gap takes it.
        # A larger one is skipped (NaN) and never reaches the kernel.
        edge = math.sqrt(1.0 + TOL)
        seen = set()
        near_edge = (edge + k * math.ulp(edge) for k in range(-8, 9))
        for a in (1.0, math.nextafter(1.0, 2.0), *near_edge):
            tree = two_leaf_tree(a, -a)
            var = tree.sub_bmo_sq[0]
            admitted = var <= 1.0 + TOL
            assert np.isnan(verify_all_nodes(tree, ctx_half)["induction"][0]) != admitted
            seen.add((admitted, var > 1.0))
        assert seen == {(True, False), (True, True), (False, True)}

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_random_margins_nonnegative(self, alpha, rng):
        ctx = make_context(alpha)
        for _ in range(100):
            tree = random_tree(alpha, rng)
            out = verify_all_nodes(tree, ctx)
            assert np.nanmin(out["induction"]) >= -1e-9


class TestNodeArguments:
    """A node is None (the root) or a preorder index, nothing else."""

    @pytest.mark.parametrize("node", [1.5, "0", {"measure": 0.5, "value": 1.0}, True, -1, 3])
    def test_bad_node_is_a_domain_error(self, ctx_half, node):
        tree = two_leaf_tree(0.5, -0.5)
        calls = (bmo_norm, inf_maximal, lambda t, n: verify_induction(t, n, ctx_half))
        for call in calls:
            with pytest.raises(DomainError, match="node does not belong to this tree"):
                call(tree, node)

    def test_indices(self, ctx_half):
        tree = two_leaf_tree(0.5, -0.5)
        assert bmo_norm(tree, np.int64(1)) == 0.0
        assert inf_maximal(tree, 2) == 0.0
        assert verify_induction(tree, None, ctx_half) == verify_induction(tree, 0, ctx_half)


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


class TestMarginsAgainstReference:
    """The one-pass margins against the per-node references, which take
    <N phi>_K as a dot product over the node's leaves and the BLO spread as
    a maximum over the slice of nodes under K."""

    def _check(self, tree, ctx):
        out = verify_all_nodes(tree, ctx)
        for i in range(len(tree)):
            ref = reference_main_theorem(tree, i, ctx)
            rep = verify_main_theorem(tree, i, ctx)
            # Maxima, differences and square roots of the same arrays: exact.
            assert rep.blo_margin_n == out["blo_n"][i] == ref.blo_margin_n
            assert rep.blo_margin_m == out["blo_m"][i] == ref.blo_margin_m
            assert (rep.L, rep.t, rep.norm) == (ref.L, ref.t, ref.norm)
            # The means are sums in another order than the dot product.
            for got in (rep.margin_n, out["main_n"][i]):
                assert got == pytest.approx(ref.margin_n, abs=1e-12)
            for got in (rep.margin_m, out["main_m"][i]):
                assert got == pytest.approx(ref.margin_m, abs=1e-12)
            if tree.sub_bmo_sq[i] <= 1.0 + TOL:
                want = reference_induction(tree, i, ctx)
                for got in (verify_induction(tree, i, ctx), out["induction"][i]):
                    assert got == pytest.approx(want, abs=1e-12)
            else:
                assert np.isnan(out["induction"][i])

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_random_trees(self, alpha, rng):
        ctx = make_context(alpha)
        for k in range(26):
            tree = random_tree(alpha, rng, max_depth=4)
            if k % 2:
                # Norm 2.5, checked as it is and then rescaled the way the
                # tree command rescales before the induction check.
                vals, mean = tree.value[tree.leaf_idx], tree.mean[0]
                tree = with_leaf_values(tree, mean + 2.5 * (vals - mean))
                self._check(tree, ctx)
                tree = with_unit_norm(tree)
            self._check(tree, ctx)

    @pytest.mark.parametrize("c", [1e6, 1e8])
    def test_offset_trees_verify(self, c, ctx_half):
        # phi + c, rounded to floats, against the same function shifted back
        # exactly, fl(v + c) - c: every margin is invariant under the shift,
        # so the two differ only by the rounding of the means near c.  The
        # offset function is positive, so M phi = N phi on it.
        for s in range(3, 12):
            base = random_tree(0.5, np.random.default_rng(s))
            up = base.value[base.leaf_idx] + c
            got = verify_all_nodes(with_unit_norm(with_leaf_values(base, up)), ctx_half)
            want = verify_all_nodes(with_unit_norm(with_leaf_values(base, up - c)), ctx_half)
            for key in ("induction", "main_n", "main_m", "blo_n", "blo_m"):
                diff = np.abs(got[key] - want[key.replace("_m", "_n")])
                assert np.max(diff) <= 8 * math.ulp(c), (s, key)


class TestCovariance:
    def test_additive_shift(self, ctx_quarter, rng):
        tree = random_tree(0.25, rng)
        c = 3.7
        shifted = with_leaf_values(tree, tree.value[tree.leaf_idx] + c)
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
        assert np.array_equal(again.measure[again.leaf_idx], tree.measure[tree.leaf_idx])

    def test_matches_recursive_encoding(self, rng):
        def enc(tree, i):
            m = float(tree.measure[i])
            if tree.size[i] == 1:
                return {"measure": m, "value": float(tree.value[i])}
            kids = np.flatnonzero(tree.parent == i)
            return {"measure": m, "children": [enc(tree, int(k)) for k in kids]}

        trees = [random_tree(alpha, rng) for alpha in (0.5, 0.25, 0.1) for _ in range(5)]
        for tree in [*trees, deep_unbalanced_tree(rng), two_leaf_tree()]:
            assert tree_to_json(tree) == {"alpha": tree.alpha, "root": enc(tree, 0)}

    def test_deep_comb_round_trip(self):
        # tree_to_json writes 600 levels; a parsed document is read through
        # its json.dumps text, which recurses, so 300 levels make the trip.
        tree = comb_tree(600)
        assert tree.depth.max() == 600
        doc = tree_to_json(tree)
        with pytest.raises(RecursionError):
            tree_from_json(doc)
        tree = comb_tree(300)
        again = tree_from_json(tree_to_json(tree))
        for key in ("parent", "measure", "value", "depth"):
            assert np.array_equal(getattr(again, key), getattr(tree, key), equal_nan=True), key

    def test_document_json_cannot_write(self):
        # A parsed document is read through its json.dumps text.
        cyclic = {"alpha": 0.5}
        cyclic["root"] = cyclic
        cases = [
            (
                {"alpha": 0.5, "root": {"measure": np.int64(1), "value": 0.0}},
                "Object of type int64 is not JSON serializable",
            ),
            (cyclic, "Circular reference detected"),
        ]
        for doc, cause in cases:
            with pytest.raises(StructureError) as exc:
                tree_from_json(doc)
            assert str(exc.value) == f"root: document is not JSON: {cause}"

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

    def test_overflowing_moments_name_the_cell(self):
        # Leaf moments beyond the float range name the first such leaf;
        # finite leaves whose sums overflow name the cell the sum overflows in.
        big = 0.85e308
        cases = [
            (_node(2.0, _leaf(1.0, 1e200), _leaf(1.0, -1e200)), "root/0"),
            (_node(2e300, _leaf(1e300, 1e200), _leaf(1e300, 1.0)), "root/0"),
            (_node(1.0, _leaf(0.5, 1.0), _node(0.5, _leaf(0.25, 1.0), _leaf(0.25, 1e160))), "root/1/1"),
            (_node(2 * big, _node(big, _leaf(big / 2, 1.06), _leaf(big / 2, 1.06)), _leaf(big, 1.06)), "root"),
        ]
        for root, path in cases:
            message = f"{path}: cell moments leave the float range"
            with pytest.raises(StructureError) as exc:
                tree_from_json({"alpha": 0.5, "root": root})
            assert str(exc.value) == message
        tree = two_leaf_tree()
        with pytest.raises(StructureError) as exc:
            with_leaf_values(tree, [1.0, 1e200])
        assert str(exc.value) == "root/1: cell moments leave the float range"

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
            # The 1 - 1e-11 shrink keeps every cell variance at most 1,
            # with no tolerance; an exact rescale alone leaves some a few
            # ulps above it.
            assert tree.sub_bmo_sq[0] <= 1.0


# (n, D): the cubes of side down to 2^-D in dimension n, at alpha = 2^-n.
_CUBE_SIZES = [(1, 10), (2, 5), (3, 3)]


class TestCubeTrees:
    """The dyadic cubes of R^n as alpha-trees at alpha = 2^-n."""

    @pytest.mark.parametrize("n,D", _CUBE_SIZES)
    def test_margins_on_random_grids(self, n, D, rng):
        tree = cube_tree(rng.normal(size=(1 << D,) * n))
        # Rescaled about the root mean to norm 1, less a hair, as random_tree is.
        vals, mean = tree.value[tree.leaf_idx], tree.mean[0]
        tree = with_leaf_values(tree, mean + (vals - mean) * ((1.0 - 1e-11) / bmo_norm(tree)))
        out = verify_all_nodes(tree, make_context(tree.alpha))
        for key in ("induction", "main_n", "main_m", "blo_n", "blo_m"):
            assert not np.any(np.isnan(out[key])), key
            assert out[key].min() >= -1e-9, key

    @pytest.mark.parametrize("n,D", _CUBE_SIZES)
    def test_first_coordinate_grid_matches_its_interval_tree(self, n, D, rng):
        # phi(t_1, .., t_n) = v(t_1): a cube's average is that of v over its
        # first side, so the norms and maximal averages are the 1-D ones.
        v = rng.normal(size=1 << D)
        line = cube_tree(v)
        cube = cube_tree(np.broadcast_to(v.reshape((-1,) + (1,) * (n - 1)), (1 << D,) * n))
        want = verify_all_nodes(line, make_context(0.5))
        got = verify_all_nodes(cube, make_context(cube.alpha))
        pairs = [(bmo_norm(cube), bmo_norm(line)), (blo_norm(cube), blo_norm(line))]
        pairs += [(got[k][0], want[k][0]) for k in ("mean_N", "mean_M")]
        for a, b in pairs:
            assert a == pytest.approx(b, rel=1e-15, abs=0.0)
        if n == 2:
            assert bmo_norm(cube) ** 2 == pytest.approx(dyadic_square_bmo_sq(v), rel=1e-14)


def reference_aggregates(root):
    """The per-node aggregates by plain recursion over a JSON root node, in
    preorder.

    A parent adds its children's integrals last child first, so the sums
    must agree with the tree's arrays bit for bit.
    """
    rows = []

    def up(node):
        row = {}
        rows.append(row)
        m = node["measure"]
        if "value" in node:
            v = node["value"]
            integ = m * v
            sums = [integ, integ * v, m * abs(v)]
            row["min_leaf"] = v
            kids = []
        else:
            kids = [up(c) for c in node["children"]]
            sums = [0.0, 0.0, 0.0]
            for kid in reversed(kids):
                sums = [a + b for a, b in zip(sums, kid["sums"])]
            row["min_leaf"] = min(kid["min_leaf"] for kid in kids)
        row["sums"] = sums
        row["mean"], row["mean_sq"], row["abs_mean"] = (s / m for s in sums)
        return row

    up(root)
    order = iter(rows)

    def down(node, anc, abs_anc):
        row = next(order)
        row["anc_max"] = anc = max(anc, row["mean"])
        row["abs_anc_max"] = abs_anc = max(abs_anc, row["abs_mean"])
        for c in node.get("children", ()):
            down(c, anc, abs_anc)

    down(root, -math.inf, -math.inf)
    return rows


def deep_unbalanced_tree(rng, depth=300, alpha=0.25):
    """A comb: at every level one child carries on, its siblings are leaves."""
    node = _leaf(1.0, float(rng.normal()))
    for _ in range(depth):
        a = int(rng.integers(2, 5))
        fracs = (alpha + (1.0 - a * alpha) * rng.dirichlet(np.ones(a))).tolist()
        kids = [_leaf(f, float(rng.normal())) for f in fracs[1:]]
        _scale(node, fracs[0])
        node = _node(1.0, *kids[:1], node, *kids[1:])
    return tree_from_json({"alpha": alpha, "root": node})


def _scale(node, factor):
    stack = [node]
    while stack:
        nd = stack.pop()
        nd["measure"] *= factor
        stack.extend(nd.get("children", ()))


AGGREGATES = ("mean", "mean_sq", "abs_mean", "anc_max", "abs_anc_max", "min_leaf")


def assert_exact_variances(tree):
    """`var` and its running maximum `sub_bmo_sq` within 4 machine epsilons,
    relative, of the exact variances; so a constant subtree gives 0."""
    exact = exact_variances(tree)
    sub = list(exact)
    for i in range(len(tree) - 1, 0, -1):
        p = int(tree.parent[i])
        sub[p] = max(sub[p], sub[i])
    for key, want in (("var", exact), ("sub_bmo_sq", sub)):
        got = getattr(tree, key).tolist()
        err = [abs(Fraction(g) - w) - 4 * Fraction(2.0**-52) * w for g, w in zip(got, want)]
        assert max(err) <= 0, (key, err.index(max(err)))


class TestArraysAgainstRecursion:
    """The six sums, minima and ancestor maxima bit for bit against plain
    recursion; the variances against exact arithmetic."""

    def _check(self, tree):
        rows = reference_aggregates(tree_to_json(tree)["root"])
        assert len(rows) == len(tree)
        for key in AGGREGATES:
            assert np.array_equal(getattr(tree, key), [r[key] for r in rows]), key
        assert_exact_variances(tree)
        # The JSON parse builds the same arrays.
        again = tree_from_json(json.dumps(tree_to_json(tree)))
        for key in (*AGGREGATES, "var", "sub_bmo_sq"):
            assert np.array_equal(getattr(again, key), getattr(tree, key)), key

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_random_trees(self, alpha, rng):
        for _ in range(20):
            self._check(random_tree(alpha, rng, max_depth=7))

    def test_deep_unbalanced_tree(self, rng):
        tree = deep_unbalanced_tree(rng)
        assert tree.depth.max() == 300
        self._check(tree)

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    @pytest.mark.parametrize("offset", [0.0, 3.3, 1e6])
    def test_constant_subtrees(self, alpha, offset, rng):
        # Leaf values on a coarse grid make many internal cells constant; below
        # alpha = 1/2 the child measures do not sum to the parent's exactly.
        constant = 0
        for _ in range(10):
            tree = random_tree(alpha, rng, max_depth=6)
            tree = with_leaf_values(tree, np.round(2 * tree.value[tree.leaf_idx]) / 3 + offset)
            assert_exact_variances(tree)
            constant += np.count_nonzero((tree.size > 1) & (tree.var == 0))
        assert constant >= 10


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
                _node(1.0, _leaf(0.5, 1.0), _node(0.5, _node(0.5, _node(0.4, _leaf(0.4, 1.0))))),
                "root/1/0: children measures sum to 0.4, parent has 0.5",
            ),
        ],
    )
    def test_tree_nodes(self, alpha, root, message):
        with pytest.raises(StructureError) as exc:
            validate(tree_from_json({"alpha": alpha, "root": root}))
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


# ---------------------------------------------------------------------------
# JSON ingest against the plain walk: one reader call per node, depths looked
# up from the parent.  The object-hook reader must give the same arrays bit
# for bit and the same error text.
# ---------------------------------------------------------------------------


def _reference_walk(root, read):
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


def _reference_read_json_node(obj):
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


def _reference_tree_from_json(obj):
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "alpha" not in obj or "root" not in obj:
        raise StructureError("root", "top level must carry alpha and root")
    try:
        alpha = _number(obj["alpha"], "alpha")
    except _BadNode as exc:
        raise StructureError("root", str(exc)) from None
    arrays = _reference_walk(obj["root"], _reference_read_json_node)
    return _from_arrays(alpha, *arrays)


def _ingest(read, doc):
    """The arrays as (dtype, bytes) pairs, or the StructureError text."""
    try:
        tree = read(doc)
    except StructureError as exc:
        return str(exc)
    return [(a.dtype, a.tobytes()) for a in (tree.parent, tree.measure, tree.value, tree.depth)]


def _assert_same_ingest(doc):
    got = _ingest(tree_from_json, doc)
    assert got == _ingest(_reference_tree_from_json, doc)
    return got


def _two(second, first='{"measure": 0.5, "value": 1.0}', root='"measure": 1.0'):
    return '{"alpha": 0.5, "root": {%s, "children": [%s, %s]}}' % (root, first, second)


_BIG = "1" + "0" * 400

# Documents the reader rejects, and where it rejects them.
_MALFORMED = {
    "no root": ('{"alpha": 0.5}', "root: top level must carry alpha and root"),
    "top level list": ("[0.5, 1.0]", "root: top level must carry alpha and root"),
    "root without children": ('{"alpha": 0.5, "root": {"measure": 1.0}}', "root: node must have exactly one of children/value"),
    "root not an object": ('{"alpha": 0.5, "root": [1.0]}', "root: node must be a JSON object"),
    "root null": ('{"alpha": 0.5, "root": null}', "root: node must be a JSON object"),
    "alpha true": ('{"alpha": true, "root": {"measure": 1.0, "value": 1.0}}', "root: alpha must be a number"),
    "alpha beyond float range": ('{"alpha": %s, "root": {"measure": 1.0, "value": 1.0}}' % _BIG, "root: alpha is beyond the float range"),
    "measure sum": (_two('{"measure": 0.6, "value": 0.0}'), "root: children measures sum to 1.1, parent has 1.0"),
    "non-object in children": (_two('{"measure": 0.5, "children": [{"measure": 0.25, "value": 0.0}, 7]}'), "root/1/1: node must be a JSON object"),
    "null in children": (_two("null"), "root/1: node must be a JSON object"),
    "string in children": (_two('"leaf"'), "root/1: node must be a JSON object"),
    "list in children": (_two("[0.5, 1.0]"), "root/1: node must be a JSON object"),
    "no measure": (_two('{"measure": 0.5, "value": 1.0}', first='{"measure": 0.5, "children": [{"value": 0.0}, {"measure": 0.25, "value": 0.0}]}'), "root/0/0: node lacks a measure"),
    "empty object": (_two("{}"), "root/1: node lacks a measure"),
    "measure beyond float range": (_two('{"measure": %s, "value": 1.0}' % _BIG), "root/1: measure is beyond the float range"),
    "value beyond float range": (_two('{"measure": 0.5, "value": -%s}' % _BIG), "root/1: leaf value is beyond the float range"),
    "measure true": (_two('{"measure": true, "value": 1.0}'), "root/1: measure must be a number"),
    "measure string": (_two('{"measure": "0.5", "value": 1.0}'), "root/1: measure must be a number"),
    "measure NaN": (_two('{"measure": NaN, "value": 1.0}'), "root/1: measure nan is not positive"),
    "value null": (_two('{"measure": 0.5, "value": null}'), "root/1: leaf value must be a number"),
    "value object": (_two('{"measure": 0.5, "value": {"x": 1.0}}'), "root/1: leaf value must be a number"),
    "value false": (_two('{"measure": 0.5, "value": false}'), "root/1: leaf value must be a number"),
    "value Infinity": (_two('{"measure": 0.5, "value": Infinity}'), "root/1: leaf carries no finite value"),
    "children empty": (_two('{"measure": 0.5, "children": []}'), "root/1: children must be a non-empty list"),
    "children object": (_two('{"measure": 0.5, "children": {"a": 1}}'), "root/1: children must be a non-empty list"),
    "children null": (_two('{"measure": 0.5, "children": null}'), "root/1: children must be a non-empty list"),
    "root children empty": ('{"alpha": 0.5, "root": {"measure": 1.0, "children": []}}', "root: children must be a non-empty list"),
    "children and value": (_two('{"measure": 0.5, "value": 1.0, "children": [{"measure": 0.5, "value": 1.0}]}'), "root/1: node must have exactly one of children/value"),
    "neither": (_two('{"measure": 0.5, "values": 1.0}'), "root/1: node must have exactly one of children/value"),
    "extra key on a bad leaf": (_two('{"measure": 0.6, "value": -1.0, "note": null}'), "root: children measures sum to 1.1, parent has 1.0"),
    "duplicate key, last bad": (_two('{"measure": 0.5, "measure": null, "value": 1.0}'), "root/1: measure must be a number"),
    # The hook meets objects in postorder, the walk in preorder.
    "bad node after a deeper irregular object": (_two('{"measure": 0.5, "value": null}', first='{"measure": 0.5, "children": [{"measure": 0.25, "value": 1, "note": {"x": [{"y": 2}]}}, {"measure": 0.25, "value": 1.0}]}'), "root/1: leaf value must be a number"),
    "bad parent of an irregular leaf": (_two('{"measure": 0.5, "value": 1.0, "children": [{"measure": 0.5, "value": 1}]}'), "root/1: node must have exactly one of children/value"),
    "node with a root key": (_two('{"measure": 0.5, "root": {"measure": 0.5, "value": 1.0}}'), "root/1: node must have exactly one of children/value"),
    "nested alpha and root": (_two('{"alpha": 0.5, "root": {"measure": 0.5, "value": 1.0}}'), "root/1: node lacks a measure"),
    "alpha and root as the root": ('{"alpha": 0.5, "root": {"alpha": 0.5, "root": {"measure": 1.0, "value": 1.0}}}', "root: node lacks a measure"),
    "top level of two other keys": ('{"alpha": 0.5, "tree": {"measure": 1.0, "value": 1.0}}', "root: top level must carry alpha and root"),
    "node-shaped top level": ('{"measure": 1.0, "value": 1.0}', "root: top level must carry alpha and root"),
    "internal-node-shaped top level": ('{"measure": 1.0, "children": [{"measure": 1.0, "value": 1.0}]}', "root: top level must carry alpha and root"),
    "top level in a list": ('[{"alpha": 0.5, "root": {"measure": 1.0, "value": 1.0}}]', "root: top level must carry alpha and root"),
    "alpha a node": ('{"alpha": {"measure": 1.0, "value": 1.0}, "root": {"measure": 1.0, "value": 1.0}}', "root: alpha must be a number"),
    "node in a list in children": (_two('[{"measure": 0.5, "value": 1.0}]'), "root/1: node must be a JSON object"),
    "integer alpha": ('{"alpha": 0, "root": {"measure": 1.0, "value": 2.0}}', "root: alpha=0.0 outside (0, 1/2]"),
}

# Documents off the common shape that the reader accepts.
_ACCEPTED = {
    "integer measures and values": '{"alpha": 0.5, "root": {"measure": 2, "children": [{"measure": 1, "value": 3}, {"measure": 1.0, "value": -1}]}}',
    "extra key on a leaf": _two('{"measure": 0.5, "value": -1.0, "note": "x"}'),
    "extra key on an internal node": '{"alpha": 0.5, "root": {"measure": 1.0, "id": 3, "children": [{"measure": 0.5, "value": 1.0}, {"measure": 0.5, "value": 2.0}]}}',
    "duplicate key, last good": _two('{"measure": 0.7, "measure": 0.5, "value": "x", "value": -1.0}'),
    "duplicate children": '{"alpha": 0.5, "root": {"measure": 1.0, "children": [], "children": [{"measure": 0.5, "value": 1.0}, {"measure": 0.5, "value": 2.0}]}}',
    "root leaf": '{"alpha": 0.5, "root": {"measure": 1.0, "value": 2.0}}',
    "leaf with a root key": _two('{"measure": 0.5, "value": -1.0, "root": {"measure": 0.5, "value": 1.0}}'),
    "top level with an extra key": '{"alpha": 0.5, "root": {"measure": 1.0, "value": 2.0}, "note": {"measure": 1.0, "value": 2.0}}',
    # A repeated key drops a node the hook has already met.
    "duplicate root": '{"alpha": 0.5, "root": {"measure": 1.0, "value": 1.0}, "root": {"measure": 1.0, "value": 2.0}}',
    "duplicate non-empty children": '{"alpha": 0.5, "root": {"measure": 1.0, "children": [{"measure": 1.0, "value": 3.0}], "children": [{"measure": 0.5, "value": 1.0}, {"measure": 0.5, "value": 2.0}]}}',
    "duplicate value, first a node": _two('{"measure": 0.5, "value": {"measure": 0.5, "value": 3.0}, "value": -1.0}'),
    "duplicate alpha, first a node": '{"alpha": {"measure": 1.0, "value": 3.0}, "alpha": 0.5, "root": {"measure": 1.0, "value": 2.0}}',
}

# Documents of the common shape, which the hook's first branch reads.
_COMMON = {
    "value before measure": _two('{"value": -1.0, "measure": 0.5}'),
    "children before measure": '{"alpha": 0.5, "root": {"children": [{"measure": 0.5, "value": 1.0}, {"measure": 0.5, "value": 2.0}], "measure": 1.0}}',
    "root before alpha": '{"root": {"measure": 1.0, "value": 2.0}, "alpha": 0.5}',
    "duplicate key, last good": _ACCEPTED["duplicate key, last good"],
    "root leaf": _ACCEPTED["root leaf"],
    "measure NaN": _MALFORMED["measure NaN"][0],
    "measure sum": _MALFORMED["measure sum"][0],
}


@functools.cache
def _balanced_text():
    """The balanced binary tree of 2^17 - 1 nodes at alpha = 1/2, as text."""
    rng = np.random.default_rng(17)
    n = 2**17 - 1
    idx = np.arange(n)
    depth = np.floor(np.log2(idx + 1)).astype(np.int64)
    value = np.full(n, np.nan)
    value[n // 2 :] = rng.normal(size=n - n // 2)
    # (0 - 1) // 2 == -1 marks the root.
    tree = _from_arrays(0.5, (idx - 1) // 2, np.ldexp(1.0, -depth), value, depth)
    return json.dumps(tree_to_json(tree))


class TestIngestReference:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_random_trees(self, alpha, rng):
        for _ in range(20):
            tree = random_tree(alpha, rng, max_depth=8)
            got = _assert_same_ingest(json.dumps(tree_to_json(tree)))
            assert got == _ingest(lambda t: t, tree)

    def test_balanced_depth_16(self):
        _assert_same_ingest(_balanced_text())

    def test_deep_comb(self):
        # 600 levels are too deep for json text, and so for a parsed
        # document, which is read through its text; 300 levels are not.
        doc = tree_to_json(comb_tree(600))
        with pytest.raises(RecursionError):
            tree_from_json(doc)
        tree = comb_tree(300)
        got = _assert_same_ingest(tree_to_json(tree))
        assert got == _ingest(lambda t: t, tree)

    @pytest.mark.parametrize("text,message", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_malformed_documents(self, text, message):
        assert _assert_same_ingest(text) == message

    @pytest.mark.parametrize("text", list(_ACCEPTED.values()), ids=list(_ACCEPTED))
    def test_accepted_documents(self, text):
        assert not isinstance(_assert_same_ingest(text), str)

    def test_common_shape_text_is_read_without_the_walk(self, rng):
        docs = [json.dumps(tree_to_json(random_tree(a, rng, max_depth=8))) for a in (0.5, 0.25, 0.1)]
        docs += [*_COMMON.values(), comb_text(300), _balanced_text()]
        want = [_ingest(_reference_tree_from_json, doc) for doc in docs]
        assert [_ingest(tree_from_json, doc) for doc in docs] == want
        # Bytes are read alike.
        assert _ingest(tree_from_json, docs[0].encode()) == want[0]

    def test_off_shape_balanced_text(self):
        # An integer root measure and an extra key on the last leaf take the
        # hook's second branch; the arrays stay bit for bit the reference's.
        text = _balanced_text().replace('"measure": 1.0', '"measure": 1', 1)
        end = text.index("}", text.rindex('"value"'))
        text = text[:end] + ', "note": [1, {"id": 2}]' + text[end:]
        got = _assert_same_ingest(text)
        assert not isinstance(got, str)
        assert got == _ingest(tree_from_json, _balanced_text())

    @pytest.mark.parametrize(
        "text",
        [_COMMON["value before measure"], _ACCEPTED["extra key on a leaf"], _MALFORMED["value null"][0], _MALFORMED["no root"][0]],
        ids=["common", "off-shape", "malformed", "malformed top level"],
    )
    def test_text_is_parsed_once(self, monkeypatch, text):
        calls = []
        loads = json.loads

        def counted(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counted)
        try:
            tree_from_json(text)
        except StructureError:
            pass
        assert len(calls) == 1

    def test_combs_at_the_nesting_limit(self):
        # The deepest comb json.loads reads from here depends on the
        # interpreter and the stack.  The hook's own frame costs the reader
        # one level, so at the reference's last level it may stop too.
        def read(reader, levels):
            try:
                return _ingest(reader, comb_text(levels))
            except RecursionError:
                return None

        lo, hi = 1, 64
        while read(_reference_tree_from_json, hi) is not None:
            lo, hi = hi, 2 * hi
            if hi > 8192:
                pytest.skip("json.loads reads combs of 8192 levels")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if read(_reference_tree_from_json, mid) is not None else (lo, mid)
        assert read(tree_from_json, lo - 1) == read(_reference_tree_from_json, lo - 1)
        assert read(tree_from_json, lo) in (read(_reference_tree_from_json, lo), None)
        assert read(tree_from_json, hi) is None

    @pytest.mark.parametrize(
        "text",
        [
            '{"alpha": 0.5, "root": {"measure": 1.0, "value": 1.0}',
            '{"alpha": 0.5, "root": {"measure": 1.0, "value": 1.0}} x',
            '{"alpha": 0.5, "root": {"measure": 1.0, "value": %s}}' % ("1" * 5000),
            "",
        ],
        ids=["truncated", "trailing text", "too many digits", "empty"],
    )
    def test_invalid_json_raises_as_json_does(self, text):
        with pytest.raises(ValueError) as want:
            _reference_tree_from_json(text)
        with pytest.raises(ValueError) as got:
            tree_from_json(text)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
