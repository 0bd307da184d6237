import math
from collections import Counter, deque
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from bmoblo.errors import DomainError
from bmoblo.optimizers import (
    build_psi,
    m_norm_report,
    psi_params,
    psi_stats,
    report_to_csv,
)
from bmoblo.trees import maximal, validate
from oracles import (
    as_alpha_tree,
    dyadic_interval_bmo_sq,
    dyadic_square_bmo_sq,
    exact_moments,
    psi_state_tables,
    row_triples,
    value_grid,
)


class TestParams:
    def test_first_scale(self):
        p = psi_params(1)
        assert p.gamma == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert p.delta == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_limits(self):
        p = psi_params(40)
        assert p.gamma == pytest.approx(1.0, abs=1e-11)
        assert p.delta == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize("j", range(1, 13))
    def test_delta_gamma_ratio(self, j):
        p = psi_params(j)
        assert p.delta == pytest.approx(2.0 ** (1 - j) * p.gamma, abs=1e-16)

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            psi_params(0)
        for j in (False, True, np.True_):  # bools compare equal to 0 and 1
            with pytest.raises(DomainError, match=f"must be an integer, got {j!r}$"):
                psi_params(j)


class TestBuild:
    def test_depth_below_scale_rejected(self):
        with pytest.raises(DomainError):
            build_psi(4, 3)

    @pytest.mark.parametrize("j,depth", [(3.0, 24), (3, 24.0), (np.int64(3), np.float64(24.0))])
    def test_integral_floats_taken_as_ints(self, j, depth):
        psi, ref = build_psi(j, depth), build_psi(3, 24)
        assert (type(psi.j), type(psi.depth)) == (int, int)
        assert psi.rows == ref.rows
        assert psi.leaf_count == ref.leaf_count

    @pytest.mark.parametrize("depth", [24.5, math.nan, math.inf, "24", True])
    def test_non_integral_depth_rejected(self, depth):
        with pytest.raises(DomainError, match="depth must be an integer"):
            build_psi(3, depth)

    def test_leftmost_cell_resolved(self):
        ref, (res_pos, _) = _located_build(3, 12)
        # the cell (0, 2^-j] is resolved at offset 0
        sel = (ref.res_depth == 3) & (res_pos == 0)
        assert sel.sum() == 1
        assert ref.res_offset[sel][0] == 0

    def test_first_scale_values(self):
        # j = 1: value on (1 - 2^-m, 1 - 2^-m-1] is -gamma + m delta;
        # equivalently the offset counts leading one-bits.
        ref, positions = _located_build(1, 10)
        grid = value_grid(ref, positions, "inf")
        g, d = ref.gamma, ref.delta
        n = grid.size
        for m in range(0, 9):
            lo = int((1 - 2.0**-m) * n)
            assert grid[lo] == pytest.approx(-g + m * d, abs=1e-15)
        # exact mean 0 / second moment 1 of the untruncated function:
        # sum m 2^-m-1 = 1 and sum m^2 2^-m-1 = 3 make both normalizations
        assert sum(m * 2.0 ** (-m - 1) for m in range(60)) == pytest.approx(1.0)
        assert sum(m * m * 2.0 ** (-m - 1) for m in range(60)) == pytest.approx(3.0)
        # at j = 1, delta = 2^0 gamma = gamma exactly
        assert -g + d == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("j,depth", [(1, 20), (2, 12), (2, 20), (3, 21), (12, 24)])
    def test_mass_decay_bound(self, j, depth):
        # the unresolved measure obeys the per-pass decay bound
        psi = build_psi(j, depth)
        assert psi.unresolved_mass <= (1.0 - 2.0**-j) ** (depth // j) + 1e-15

    def test_mass_example(self):
        psi = build_psi(2, 20)
        assert psi.unresolved_mass <= 0.0564

    def test_self_similarity_right_half(self):
        # leaves in (1/2, 1] of a depth-D build match the depth-(D-1) build
        # shifted one offset up: the recursion's third line, leaf by leaf.
        deep, (deep_pos, _) = _located_build(2, 14)
        shallow, (shallow_pos, _) = _located_build(2, 13)
        half_width = 1 << (deep.res_depth - 1)
        half = deep_pos >= half_width
        mapped = set(
            zip(
                (deep.res_depth[half] - 1).tolist(),
                (deep.res_offset[half] - 1).tolist(),
                (deep_pos[half] - half_width[half]).tolist(),
            )
        )
        expected = set(
            zip(
                shallow.res_depth.tolist(),
                shallow.res_offset.tolist(),
                shallow_pos.tolist(),
            )
        )
        assert mapped == expected


def _reference_build(j, depth):
    """The one-state-at-a-time breadth-first build, as the reference.

    Returns the reference, which lists its leaves as int64 arrays in the
    order the loop makes them, and the int64 positions (res_pos,
    unres_pos) of those leaves: leaf i of depth d is the cell
    (pos * 2^-d, (pos+1) * 2^-d].
    """
    res_d, res_c, res_p = [], [], []
    unres_d, unres_c, unres_p = [], [], []
    queue = deque([(0, 0, 0)])
    leaves = 1
    while queue:
        d, c, pos = queue.popleft()
        if d + j > depth:
            unres_d.append(d)
            unres_c.append(c)
            unres_p.append(pos)
            continue
        leaves += j
        queue.append((d + 1, c + 1, 2 * pos + 1))
        for i in range(2, j + 1):
            queue.append((d + i, c, (pos << i) + 1))
        res_d.append(d + j)
        res_c.append(c)
        res_p.append(pos << j)
    params = psi_params(j)
    ref = SimpleNamespace(
        j=j,
        depth=depth,
        gamma=params.gamma,
        delta=params.delta,
        leaf_count=leaves,
        res_depth=np.array(res_d, dtype=np.int64),
        res_offset=np.array(res_c, dtype=np.int64),
        unres_depth=np.array(unres_d, dtype=np.int64),
        unres_offset=np.array(unres_c, dtype=np.int64),
    )
    positions = tuple(np.array(x, dtype=np.int64) for x in (res_p, unres_p))
    return ref, positions


def _state_triples(ref):
    """The per-depth triples (sum n, sum n*c, sum n*c^2) of the reference's
    states, n states at offset c: the expanded states, at their resolved
    leaves' depths less j, and the unresolved leaves."""
    depths = np.concatenate((ref.res_depth - ref.j, ref.unres_depth))
    offsets = np.concatenate((ref.res_offset, ref.unres_offset))
    n = ref.depth + 1
    return row_triples(np.bincount(depths * n + offsets, minlength=n * n).reshape(n, n))


def _fraction_sums(ref):
    """The sums of m, m*c and m*c^2 over the reference's resolved and
    unresolved leaves, each of mass m = 2^-d, in Fractions."""
    sums = []
    for depths, offsets in ((ref.res_depth, ref.res_offset), (ref.unres_depth, ref.unres_offset)):
        cells = Counter(zip(depths.tolist(), offsets.tolist()))
        sums.append(tuple(
            sum(Fraction(n * c**k, 1 << d) for (d, c), n in cells.items()) for k in range(3)
        ))
    return sums


def _assert_rows(psi, ref):
    case = (ref.j, ref.depth)
    assert psi.rows == _state_triples(ref), case
    assert ref.res_depth.max() - ref.j < psi.unres_depth, case
    deep = np.arange(psi.unres_depth, ref.depth + 1)
    assert np.array_equal(np.unique(ref.unres_depth), deep), case
    assert psi.leaf_count == ref.leaf_count, case


def _located_build(j, depth):
    """The reference and its leaves' positions, after checking that
    build_psi's row triples tally the reference's states."""
    ref, positions = _reference_build(j, depth)
    _assert_rows(build_psi(j, depth), ref)
    return ref, positions


def _assert_same_build(j, depth):
    psi = build_psi(j, depth)
    ref, _ = _reference_build(j, depth)
    _assert_rows(psi, ref)
    res, unres = _fraction_sums(ref)
    assert res[0] + unres[0] == 1, (j, depth)
    scale = 1 << depth
    assert psi.res_sums == tuple(x * scale for x in res), (j, depth)
    assert psi.unres_sums == tuple(x * scale for x in unres), (j, depth)
    assert psi.unresolved_mass.hex() == float(unres[0]).hex(), (j, depth)


def _leaf_counts(j):
    """The leaf counts of the depth-D builds, D = 0..63: the depth-D build
    has 1 + (the leaves of the depth-(D-i) builds, i = 1..j) leaves, and
    only the root below depth j."""
    leaves = [1] * j
    for _ in range(j, 64):
        leaves.append(1 + sum(leaves[-j:]))
    return leaves


def _two_step_states(d, c):
    """The states of psi_2 at depth d and offset c, expansion unbounded: the
    orderings of c first children (one level) and (d - c)/2 second
    children (two levels)."""
    k, odd = divmod(d - c, 2)
    return math.comb(c + k, c) if k >= 0 and not odd else 0


class TestBuildReference:
    """build_psi against the breadth-first loop at every depth whose build
    has at most 5000 leaves; TestStateTables covers the larger ones."""

    @pytest.mark.parametrize("j", range(1, 15))
    def test_bitwise_equal_to_breadth_first_loop(self, j):
        for depth, leaves in enumerate(_leaf_counts(j)):
            if leaves > 5000:
                break
            if depth >= j:
                _assert_same_build(j, depth)

    # Depth and offset 63, the edges of the former int8 leaf arrays, in a
    # build far past the breadth-first loop's reach, against the binomial
    # count of its states.
    @pytest.mark.parametrize("j", [2])
    def test_bitwise_equal_at_int8_edges(self, j):
        depth, n = 63, 64
        states = np.array(
            [[_two_step_states(d, c) for c in range(n)] for d in range(n)], dtype=object
        )
        res = np.zeros((n, n), dtype=object)
        res[j:] = states[: n - j]
        unres = np.zeros((n, n), dtype=object)
        unres[depth - 1] = states[depth - 1]
        # a state at depth 63 only comes from an expanded one at depth 61
        unres[depth] = states[depth - 2]
        psi = build_psi(j, depth)
        assert unres[depth, depth] == 0 and unres[depth - 1, depth - 1] == 1
        # state row d is resolved row d + j while d <= depth - j, then unresolved
        top = depth - j
        assert psi.rows[: top + 1] == row_triples(res[j:])
        assert not res[:j].any() and not unres[: top + 1].any()
        assert psi.rows[top + 1 :] == row_triples(unres[top + 1 :])
        assert psi.unres_depth == depth - 1
        assert psi.leaf_count == 1 + j * int(states[: depth - j + 1].sum()) == _leaf_counts(j)[depth]
        offsets = np.arange(n, dtype=object)
        scale = np.array([1 << (depth - d) for d in range(n)], dtype=object)[:, None]
        for sums, table in ((psi.res_sums, res), (psi.unres_sums, unres)):
            assert sums == tuple(int((table * offsets**k * scale).sum()) for k in range(3))
        mass = Fraction(int((unres * scale).sum()), 1 << depth)
        assert psi.unresolved_mass.hex() == float(mass).hex()


def _unresolved_measures(j):
    """U_j(D) for D = 0..63, in Fractions: the root's children take 2^-i of
    the mass each and see depth D - i, and nothing expands below depth j."""
    u = [Fraction(1)] * j
    for depth in range(j, 64):
        u.append(sum(u[depth - i] / (1 << i) for i in range(1, j + 1)))
    return u


class TestStateTables:
    """build_psi's row triples against the oracle count tables, summed by
    the first child taken, at every 1 <= j <= depth <= 63."""

    @pytest.mark.parametrize("j", range(1, 64))
    def test_tables_match_first_child_oracle(self, j):
        tables, measures = psi_state_tables(j), _unresolved_measures(j)
        for depth in range(j, 64):
            case, top, n = (j, depth), depth - j, depth + 1
            states = tables[top + 1]
            assert not states[n:].any() and not states[:, n:].any(), case
            rows = row_triples(states[:n, :n])
            psi = build_psi(j, depth)
            assert psi.rows == rows, case
            # every row from top + 1 on holds unresolved states
            assert all(count > 0 for count, _, _ in rows[top + 1 :]), case
            assert psi.unres_depth == top + 1, case
            # state row d <= top is the resolved row d + j; the rest are unresolved
            res = [(row, d + j) for d, row in enumerate(rows) if d <= top]
            unres = [(row, d) for d, row in enumerate(rows) if d > top]
            for sums, cells in ((psi.res_sums, res), (psi.unres_sums, unres)):
                weighted = (sum(row[k] << (depth - d) for row, d in cells) for k in range(3))
                assert sums == tuple(weighted), case
            assert psi.leaf_count == 1 + j * int(states[: top + 1].sum()), case
            assert Fraction(psi.unres_sums[0], 1 << depth) == measures[depth], case
            assert psi.unresolved_mass == float(measures[depth]), case


class TestDepthLimit:
    def test_depth_above_63_rejected(self):
        with pytest.raises(DomainError, match="depth 64"):
            build_psi(1, 64)

    def test_depth_63_positions_fit(self):
        ref, (res_pos, unres_pos) = _located_build(1, 63)
        for deps, poss in ((ref.res_depth, res_pos), (ref.unres_depth, unres_pos)):
            assert all(0 <= p < 2**d for d, p in zip(deps.tolist(), poss.tolist()))
        # the rightmost cell at depth 63
        assert int(unres_pos.max()) == 2**63 - 1


class TestUnresolvedMassLimit:
    """1 - 2^-j rounds to 1 for j >= 54, and so at some depths does the
    whole unresolved mass; the fixed point is solved over the exact
    resolved mass, so those rows are solved like any other."""

    @pytest.mark.parametrize("j,depth", [(54, 54), (57, 63), (63, 63)])
    def test_mass_of_one_is_solved(self, j, depth):
        psi = build_psi(j, depth)
        assert psi.unresolved_mass == 1.0
        assert psi_stats(psi).targets_enclosed

    def test_mass_is_correctly_rounded_at_depth_63(self):
        # The resolved mass at j = 55, depth 63 is 1.25 * 2^-53, so the
        # unresolved mass rounds to 1 - 2^-53; a float sum of the leaf
        # masses once rounded it to 1.
        psi = build_psi(55, 63)
        assert Fraction(psi.res_sums[0], 1 << 63) == Fraction(5, 1 << 55)
        assert psi.unresolved_mass == 1.0 - 2.0**-53
        assert psi_stats(psi).targets_enclosed

    @pytest.mark.parametrize("j,depth", [(53, 53), (54, 56)])
    def test_mass_below_one_accepted(self, j, depth):
        st = psi_stats(build_psi(j, depth))
        assert st.unresolved_mass < 1.0
        assert all(
            math.isfinite(x)
            for e in (st.mean, st.mean_sq, st.bmo, st.mean_N)
            for x in (e.lo, e.hi)
        )


def _within_ulps(enc, n):
    return enc.hi - enc.lo <= n * math.ulp(max(abs(enc.lo), abs(enc.hi)))


def _checked_depths(j, leaves):
    """Depths j, 24 and 53..63 of psi_j, and the two depths between which
    its build outgrows the given number of leaves."""
    counts = _leaf_counts(j)
    over = next((d for d in range(j, 64) if counts[d] > leaves), 64)
    return sorted(d for d in {j, 24, 53, 54, 56, 60, 63, over - 1, over} if j <= d <= 63)


class TestEnclosuresAcrossRange:
    """Every row's enclosures contain the exact values, a few ulps wide, at
    each scale index, at shallow and deep builds and at the depths where a
    build outgrows 2000 and 2^17 leaves."""

    @pytest.mark.parametrize("leaves", [1 << 17, 2000])
    def test_targets_enclosed(self, leaves):
        missed = []
        for j in range(1, 64):
            e = 1 << (j - 1)
            for depth in _checked_depths(j, leaves):
                st = psi_stats(build_psi(j, depth))
                # lo^2 <= gamma^2 = e/(e+1) <= hi^2, in integers.
                (a, b), (c, d) = (x.as_integer_ratio() for x in (st.mean_N.lo, st.mean_N.hi))
                ok = (
                    st.targets_enclosed
                    and a * a * (e + 1) <= e * b * b
                    and e * d * d <= c * c * (e + 1)
                    and all(_within_ulps(x, 16) for x in (st.mean, st.mean_sq, st.bmo, st.mean_N))
                )
                if not ok:
                    missed.append((j, depth))
        assert not missed

    def test_fixed_point_divides_by_the_resolved_mass(self):
        # A float mU keeps no bit below 2^-53, so 1 - mU is off by a third
        # of the resolved mass here: the fixed point must divide by the
        # exact resolved mass.
        psi = build_psi(53, 54)
        res_mass = psi.res_sums[0] / (1 << psi.depth)
        assert abs((1.0 - psi.unresolved_mass) / res_mass - 1.0) > 1e-9
        assert psi_stats(psi).mean_sq.contains(1.0)


class TestExactFixedPoint:
    """The fixed point solved exactly from build_psi's count tables: at
    every depth checked, shallow, deep and where a build outgrows 2000 and
    2^17 leaves, the moments are those of the untruncated function, X = 0
    and Y = 1, and the copy is the largest BMO candidate, so the BMO norm
    is 1."""

    @pytest.mark.parametrize("leaves", [1 << 17, 2000])
    def test_moments_do_not_depend_on_truncation(self, leaves):
        for j in range(1, 64):
            for depth in _checked_depths(j, leaves):
                x, y, candidates, total = exact_moments(build_psi(j, depth))
                case = (j, depth)
                assert total == 1, case
                assert x == 0, case
                assert y == 1 + Fraction(1, 1 << (j - 1)), case
                assert candidates[0] == y, case
                assert max(candidates) == candidates[0], case


class TestMaximalIdentity:
    @pytest.mark.parametrize("j,depth", [(1, 10), (2, 12), (3, 12)])
    def test_identity_on_resolved_leaves(self, j, depth):
        # N psi = psi + gamma on every resolved cell, with the ambient
        # function zero outside (0, 1]: ancestor-chain maxima computed by
        # the tree machinery on exact cell averages.
        ref, positions = _located_build(j, depth)
        tree = as_alpha_tree(ref, positions, "mean")
        validate(tree)
        n_vals = np.maximum(maximal(tree, "natural"), 0.0)
        table = {}
        for dep, pos, off in zip(ref.res_depth, positions[0], ref.res_offset):
            table[(int(dep), int(pos))] = int(off)
        # leaves in preorder: recover (depth,pos) from the parent array; in
        # preorder a parent's first child comes before its second
        pos = [0] * len(tree)
        seen = set()
        for i, p in enumerate(tree.parent.tolist()[1:], start=1):
            pos[i] = 2 * pos[p] + (p in seen)
            seen.add(p)
        located = [(int(tree.depth[i]), pos[i], float(tree.value[i])) for i in tree.leaf_idx]
        assert len(located) == len(n_vals)
        g, dlt = ref.gamma, ref.delta
        errs = []
        for (d, pos, val), nv in zip(located, n_vals):
            if (d, pos) in table:
                off = table[(d, pos)]
                assert val == pytest.approx(-g + off * dlt, abs=1e-15)
                errs.append(abs(nv - (val + g)))
        assert max(errs) <= 2 * math.ulp(1.0)

    def test_inf_of_maximal_is_zero(self):
        ref, positions = _located_build(2, 12)
        tree = as_alpha_tree(ref, positions, "mean")
        n_vals = np.maximum(maximal(tree, "natural"), 0.0)
        assert min(n_vals) == 0.0


class TestStats:
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_targets_enclosed(self, j):
        st = psi_stats(build_psi(j, 24))
        assert st.mean.contains(0.0)
        assert st.mean_sq.contains(1.0)
        assert st.bmo.contains(1.0)
        assert st.mean_N.contains(st.gamma)

    def test_mean_N_identity_value(self):
        st = psi_stats(build_psi(10, 24))
        gamma10 = 1.0 / math.sqrt(1.0 + 2.0**-9)
        assert st.mean_N.contains(gamma10)
        assert gamma10 == pytest.approx(0.999024, abs=1e-6)

    def test_enclosures_shrink_with_depth(self):
        for j in (1, 2, 3):
            widths = []
            for depth in (max(j, 6), 12, 18, 24):
                st = psi_stats(build_psi(j, depth))
                widths.append(
                    (
                        st.mean.width,
                        st.mean_sq.width,
                        st.bmo.width,
                        st.mean_N.width,
                    )
                )
                # targets stay inside along the way
                assert st.mean.contains(0.0)
                assert st.mean_sq.contains(1.0)
                assert st.mean_N.contains(st.gamma)
            # the statistics are exact at every depth, so the widths, a
            # few ulps, do not grow with it
            for a, b in zip(widths, widths[1:]):
                assert all(x2 <= x1 + 2e-13 for x1, x2 in zip(a, b))

    def test_two_dimensional_brute_force(self):
        # depth-6 grid: BMO over all dyadic squares equals BMO over dyadic
        # intervals for the tensor extension, by literal enumeration
        for j in (1, 2):
            ref, positions = _located_build(j, 6)
            grid = value_grid(ref, positions, "inf")
            assert dyadic_square_bmo_sq(grid) == pytest.approx(
                dyadic_interval_bmo_sq(grid), abs=1e-12
            )


class TestReport:
    def test_rows_and_csv(self):
        rows = m_norm_report([1, 2, 3], 12)
        assert [r.j for r in rows] == [1, 2, 3]
        assert all(r.targets_enclosed for r in rows)
        csv = report_to_csv(rows)
        header = csv.splitlines()[0].split(",")
        assert header == [
            "j",
            "gamma_j",
            "delta_j",
            "mean_lo",
            "mean_hi",
            "meansq_lo",
            "meansq_hi",
            "bmo_lo",
            "bmo_hi",
            "meanN_lo",
            "meanN_hi",
            "unresolved_mass",
        ]
        assert len(csv.splitlines()) == 4

    def test_gamma_strictly_increasing(self):
        rows = m_norm_report(range(1, 13), 13)
        gammas = [r.gamma for r in rows]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))

    def test_blo_difference_converges(self):
        # lower enclosure ends exceed 1 - 2^-j minus the enclosure width
        rows = m_norm_report(range(1, 13), 24)
        for st in rows:
            assert st.mean_N.lo >= 1.0 - 2.0**-st.j - st.mean_N.width
        los = [r.mean_N.lo for r in rows]
        assert all(a < b for a, b in zip(los, los[1:]))
