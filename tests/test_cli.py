import gc
import hashlib
import json
import math
import time
import warnings

import numpy as np
import pytest

from bmoblo import bellman, cli, trees
from bmoblo.bellman import eval_A, eval_arrays, eval_b, eval_F
from bmoblo.cli import main
from bmoblo.geometry import OmegaPoint, make_context
from bmoblo.trees import random_tree, tree_to_json, with_leaf_values

from conftest import comb_text


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_basic_zero_region(self, capsys):
        code, out, _ = run(capsys, ["eval", "--n", "2", "--x", "0", "1"])
        assert code == 0
        assert "B = 1" in out
        assert "region = Omega_plus" in out

    def test_boundary_trace_point(self, capsys):
        code, out, _ = run(capsys, ["eval", "--n", "2", "--x", "-1.5", "3.25"])
        assert code == 0
        assert "B = 0.25" in out
        assert "region = Omega_2" in out
        assert "s = 0.25" in out

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run(capsys, ["eval", "--alpha", "0.7", "--x", "0", "1"])
        assert code == 2
        assert "alpha" in err

    def test_point_outside_names_inequality(self, capsys):
        code, _, err = run(capsys, ["eval", "--n", "2", "--x", "0", "2.5"])
        assert code == 2
        assert "x1^2 + 1" in err

    @pytest.mark.parametrize("x", [("inf", "inf"), ("nan", "1"), ("-1", "nan"), ("-2", "inf")])
    def test_non_finite_point_is_a_domain_error(self, capsys, x):
        code, out, err = run(capsys, ["eval", "--alpha", "0.5", "--x", *x])
        assert code == 2
        assert out == ""
        assert f"point ({float(x[0])}, {float(x[1])}) is not finite" in err

    def test_tangency_corner_evaluates(self, capsys):
        # Within 1e-13 of the even cells' tangency corner (-tau, tau^2 + 1).
        code, out, _ = run(
            capsys, ["eval", "--alpha", "0.5", "--x", "-0.7071067811866473", "1.500000000000141"]
        )
        assert code == 0
        record = dict(line.split(" = ") for line in out.splitlines())
        assert record["region"] == "Omega_2"
        assert abs(float(record["B"]) - 0.5) <= 1e-12

    @pytest.mark.parametrize("n", ["-2000", "0", "1075", "2000"])
    def test_n_out_of_range_is_a_domain_error(self, capsys, n):
        # 2^2000 overflows and 2^-1075 rounds to 0: --n is named, not alpha.
        code, out, err = run(capsys, ["eval", "--n", n, "--x", "-1", "1.5"])
        assert code == 2
        assert out == ""
        assert err == f"error: --n must lie in 1..1074, got {n}\n"

    def test_least_alpha_evaluates(self, capsys):
        code, out, _ = run(capsys, ["eval", "--n", "1074", "--x", "0", "1"])
        assert code == 0
        assert "B = 1" in out

    @pytest.mark.parametrize("n", ["1024", "1074"])
    def test_overflowing_tau_squared_is_a_domain_error(self, capsys, n):
        # From alpha = 2^-1024 on tau^2 overflows: chain cells exit 2 naming
        # alpha, and Omega_0 still evaluates.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["eval", "--n", n, "--x", "-3", "9.5"])
            assert (code, out) == (2, "")
            assert err == f"error: alpha={2.0 ** -int(n)}: tau^2 overflows, so no chain cell can be evaluated\n"
            code, out, _ = run(capsys, ["eval", "--n", n, "--x", "-0.5", "0.5"])
        assert code == 0
        assert "region = Omega_0\n" in out

    def test_largest_finite_tau_squared_evaluates(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, ["eval", "--n", "1023", "--x", "-3", "9.5"])
        assert code == 0
        assert "region = Omega_1\n" in out

    def test_overflowing_point_is_a_domain_error_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["eval", "--alpha", "0.25", "--x", "1e200", "1e300"])
        assert code == 2
        assert out == ""
        assert err == "error: point (1e+200, 1e+300) violates x2 >= x1^2 by more than tol=1e-12\n"

    def test_chain_s_is_twice_grad2(self, capsys):
        # s and grad2 = s/2 come from one evaluation, so they agree exactly.
        code, out, _ = run(
            capsys, ["eval", "--alpha", "0.1", "--x", "-5.632834", "32.261592964859"]
        )
        assert code == 0
        rec = dict(line.split(" = ") for line in out.splitlines())
        assert rec["region"] == "Omega_4"
        assert float(rec["s"]) == 2.0 * float(rec["grad2"])

    def test_json_format_with_L(self, capsys):
        code, out, _ = run(
            capsys, ["eval", "--n", "2", "--x", "0", "1", "--L", "0", "--format", "json"]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["A"] == pytest.approx(1.0)
        assert rec["B"] == pytest.approx(1.0)


class TestTable:
    def test_phi_knots(self, capsys):
        tau = 2.0**0.5 - 2.0**-0.5
        code, out, _ = run(
            capsys,
            ["table", "--n", "1", "--kind", "phi", "--grid", f"0:{2.2 * tau}:{tau}"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,phi"
        rows = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in lines[1:]]
        # a knot row with the exact value is present at every multiple of tau
        for k, target in ((0, 1.0), (1, 0.5), (2, 0.25)):
            assert any(abs(t - k * tau) < 1e-9 and v == target for t, v in rows)

    @pytest.mark.parametrize("alpha", ["0.49", "0.3"])
    def test_far_left_trace_row_is_zero(self, capsys, alpha):
        # alpha^k underflows long before p = -1e300, and b <= alpha^k.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, ["table", "--alpha", alpha, "--kind", "b", "--grid=-1e300:-1e300:1"]
            )
        assert (code, err) == (0, "")
        assert out == "p,b\n-1.0000000000000001e+300,0\n0,1\n"

    def test_b_table_contains_origin(self, capsys):
        code, out, _ = run(
            capsys, ["table", "--alpha", "0.25", "--kind", "b", "--grid=-1:1:0.4"]
        )
        assert code == 0
        rows = {float(r.split(",")[0]): float(r.split(",")[1]) for r in out.strip().splitlines()[1:]}
        assert rows[0.0] == 1.0

    def test_region_knots(self, capsys):
        code, out, _ = run(capsys, ["regions", "--alpha", "0.25", "--kmax", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,p_k,tangency,alpha_pow_k"
        first = lines[1].split(",")
        assert float(first[1]) == -1.25
        assert float(first[2]) == -1.5

    @pytest.mark.parametrize("command", [["regions"], ["table", "--kind", "boundary-regions"]])
    @pytest.mark.parametrize("kmax", ["100000000", "-3", "0"])
    def test_kmax_out_of_range_is_a_domain_error(self, capsys, command, kmax):
        code, out, err = run(capsys, [*command, "--alpha", "0.25", "--kmax", kmax])
        assert code == 2
        assert out == ""
        assert err == f"error: --kmax must lie in 1..1000000, got {kmax}\n"

    def test_bad_grid(self, capsys):
        code, _, err = run(
            capsys, ["table", "--n", "2", "--kind", "phi", "--grid", "3:1:0.5"]
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["phi", "b"])
    @pytest.mark.parametrize("grid", ["0:1:nan", "0:inf:1", "-1:nan:0.5"])
    def test_non_finite_grid_is_a_domain_error(self, capsys, kind, grid):
        code, out, err = run(
            capsys, ["table", "--alpha", "0.5", "--kind", kind, f"--grid={grid}"]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: grid spec {grid!r} is not finite\n"

    @pytest.mark.parametrize("grid", ["0:1e12:1", "-1e308:1e308:1", "0:1000000:1"])
    def test_too_many_grid_points_is_a_domain_error(self, capsys, grid):
        # Rejected before any list is built: 1e12 floats, or a span that
        # overflows to inf.
        code, out, err = run(capsys, ["table", "--alpha", "0.5", "--kind", "b", f"--grid={grid}"])
        assert code == 2
        assert out == ""
        assert err == f"error: grid spec {grid!r} has more than 1000000 points\n"

    # phi lives on t >= 0; a grid with no point there has no row to print.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid", ["-3:-1:0.5", "-3:0.2:0.7", "-1e-3:-1e-3:1"])
    def test_phi_grid_below_zero_is_a_domain_error(self, capsys, grid, fmt):
        argv = ["table", "--n", "2", "--kind", "phi", f"--grid={grid}", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --grid {grid!r} lies wholly below t = 0, where phi is undefined\n"

    def test_phi_grid_ending_at_zero_prints_the_knot(self, capsys):
        code, out, _ = run(capsys, ["table", "--n", "2", "--kind", "phi", "--grid=-3:0:0.5"])
        assert code == 0
        assert out == "t,phi\n0,1\n"

    def test_phi_grid_far_past_the_knots_is_a_domain_error(self, capsys):
        # 11 grid points, but about 7e299 knot rows k*tau below the last.
        grid = "0:1e300:1e299"
        code, out, err = run(capsys, ["table", "--n", "2", "--kind", "phi", f"--grid={grid}"])
        assert code == 2
        assert out == ""
        assert err == f"error: --grid {grid!r} spans more than 1000000 knots k*tau\n"


SPELLINGS = [("--n", "1"), ("--alpha", "0.5"), ("--n", "2"), ("--alpha", "0.25"),
             ("--alpha", "0.1"), ("--alpha", "0.3")]


def spelled_context(spelling):
    flag, value = spelling
    return make_context(2.0 ** -int(value) if flag == "--n" else float(value))


def table_rows(out, fmt):
    if fmt == "json":
        return [tuple(row.values()) for row in json.loads(out)]
    return [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]


def reference_abscissas(kind, ctx, grid):
    """The rows a table lists, built one Python float at a time."""
    if grid:
        lo, hi, step = map(float, grid.split(":"))
        pts = [lo + i * step for i in range(int(math.floor((hi - lo) / step + 1e-9)) + 1)]
    if kind == "phi":
        ts = pts if grid else [i * ctx.tau / 20 for i in range(101)]
        knots = [k * ctx.tau for k in range(int(math.floor(max(ts) / ctx.tau + 1e-9)) + 1)]
        return [t for t in sorted(set(ts) | set(knots)) if t >= 0]
    ps = pts if grid else [-5 * ctx.tau + i * ctx.tau / 20 for i in range(141)]
    return ps if any(abs(p) < 1e-15 for p in ps) else sorted(set(ps) | {0.0})


class TestTableRows:
    """A table is one array call; every row must still be bit-equal to the
    scalar trace at its abscissa, whatever the table's length (numpy's
    array loops may round differently at different lengths)."""

    def check(self, capsys, spelling, kind, grid, fmt):
        argv = ["table", *spelling, "--kind", kind, "--format", fmt]
        code, out, err = run(capsys, argv + ([f"--grid={grid}"] if grid else []))
        assert (code, err) == (0, "")
        ctx = spelled_context(spelling)
        rows = table_rows(out, fmt)
        assert [r[0] for r in rows] == reference_abscissas(kind, ctx, grid)
        scalar = eval_F if kind == "phi" else eval_b
        bad = [(x, y) for x, y in rows if y != scalar(x, ctx)]
        assert not bad
        return rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "kind, grid",
        [("phi", None), ("phi", "0:3:0.1"), ("phi", "-1:7.3:0.0173"),
         ("b", None), ("b", "-7:2:0.05"), ("b", "-3.3:-0.1:0.0371")],
    )
    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_rows_match_scalar_trace(self, capsys, spelling, kind, grid, fmt):
        self.check(capsys, spelling, kind, grid, fmt)

    @pytest.mark.parametrize(
        "spelling, kind, grid",
        [(("--alpha", "0.1"), "b", "-40:2:0.004"), (("--alpha", "0.3"), "phi", "0:60:0.005")],
    )
    def test_long_table_matches_scalar_trace(self, capsys, spelling, kind, grid):
        assert len(self.check(capsys, spelling, kind, grid, "csv")) >= 10**4

    @pytest.mark.parametrize("kind, fn", [("phi", "eval_F"), ("b", "eval_b")])
    def test_one_trace_call(self, capsys, monkeypatch, kind, fn):
        calls = []
        orig = getattr(cli, fn)
        monkeypatch.setattr(cli, fn, lambda *a: calls.append(a) or orig(*a))
        code, _, _ = run(capsys, ["table", "--alpha", "0.25", "--kind", kind])
        assert code == 0
        assert len(calls) == 1


class TestEvalWithL:
    """eval --L evaluates x and T_L x in one call; it prints what evaluating
    x, then A(x; L), in turn prints, and fails the same way."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("L", ["0", "0.25", "-3", "1000", "x1"])
    @pytest.mark.parametrize(
        "x",
        [
            ("0.5", "0.5"),  # Omega_plus
            ("-0.5", "0.75"),  # Omega_0
            ("-1.5", "2.25"),  # Gamma_0
            ("-1.5", "3.25"),  # Gamma_1
            ("-1000", "1000000.5"),  # far-left chain cell
            ("-31622.5", "999982507"),  # farther left, gap 0.75
        ],
    )
    @pytest.mark.parametrize("spelling", [("--n", "1"), ("--alpha", "0.25"), ("--alpha", "0.1")])
    def test_matches_two_call_path(self, capsys, spelling, x, L, fmt):
        L = x[0] if L == "x1" else L
        base = ["eval", *spelling, "--x", *x, "--format", fmt]
        code, out, err = run(capsys, base + ["--L", L])
        code_x, out_x, _ = run(capsys, base)
        assert (code, err, code_x) == (0, "", 0)
        ctx = spelled_context(spelling)
        A = eval_A(OmegaPoint(float(x[0]), float(x[1])), float(L), ctx)
        if fmt == "json":
            assert json.loads(out) == {**json.loads(out_x), "A": A, "L": float(L)}
        else:
            assert out == out_x + f"A = {A:.17g}\nL = {float(L):.17g}\n"

    def test_one_eval_arrays_call(self, capsys, monkeypatch):
        calls = []
        for module in (cli, bellman):
            monkeypatch.setattr(module, "eval_arrays", lambda *a: calls.append(a) or eval_arrays(*a))
        code, _, _ = run(capsys, ["eval", "--alpha", "0.25", "--x", "-1.5", "3.25", "--L", "1"])
        assert code == 0
        assert len(calls) == 1

    GAMMA1 = ["--alpha", "0.1", "--x", "-793.9095916748047", "630293.4397532551"]
    GAMMA1_ERR = ("error: foliation solve residual -1.376e-11 exceeds 1e-11 at folded "
                  "point (-2.707721100676281, 8.331753559061326)\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            # x off the strip, and T_L x not finite: x's fault comes first.
            (["--alpha", "0.25", "--x", "0", "2.5", "--L", "1e200"],
             "error: point (0.0, 2.5) violates x2 <= x1^2 + 1 by more than tol=1e-12\n"),
            (["--alpha", "0.25", "--x", "-1.5", "3.25", "--L", "1e200"],
             "error: point (-1e+200, inf) is not finite\n"),
            # The Gamma_1 defect of ROADMAP item 1: the solve fails at x
            # itself, with or without --L.
            (GAMMA1, GAMMA1_ERR),
            (GAMMA1 + ["--L", "1"], GAMMA1_ERR),
            (GAMMA1 + ["--L", "1e200"], GAMMA1_ERR),
        ],
    )
    def test_errors_name_x_first(self, capsys, argv, err):
        assert run(capsys, ["eval", *argv]) == (2, "", err)


class TestConcavity:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, ["concavity", "--n", "2", "--samples", "2000", "--seed", "7"]
        )
        assert code == 0
        assert "min_margin" in out

    def test_deterministic_output(self, capsys):
        args = ["concavity", "--alpha", "0.5", "--samples", "1500", "--seed", "11"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2

    def test_zero_samples_usage_error(self, capsys):
        code, _, err = run(capsys, ["concavity", "--n", "2", "--samples", "0"])
        assert code == 2

    @pytest.mark.parametrize("n", [1019, 1024])
    def test_overflowing_sampling_window_is_a_domain_error(self, capsys, n):
        # From alpha = 2^-1019 on, x1^2 overflows for |x1| <= 6 tau: the
        # sweep drew into overflow warnings and then ran for minutes.
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["concavity", "--n", str(n), "--samples", "2000"])
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: alpha={2.0 ** -n}: x1^2 overflows on the sampling window |x1| <= 6 tau\n"
        )

    @pytest.mark.parametrize(
        "n, message",
        [
            (60, "error: point (-2966275606.153428, 8.798790971660889e+18) violates x2 <= x1^2 + 1"),
            (1018, "error: point (6.3004007960466416e+153, 3.969505019082516e+307) violates x2 <= x1^2 + 1"),
        ],
    )
    def test_tiny_alpha_ends_in_bounded_time(self, capsys, n, message):
        # The chords are built inside the strip, so no draw is thrown away
        # however large tau is; a rejection loop ran for minutes here.  The
        # midpoint of a drawn chord then leaves the strip by rounding, as
        # x1^2 keeps no digit of the gap.
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["concavity", "--n", str(n), "--samples", "2000"])
        assert time.perf_counter() - t0 < 5.0
        assert (code, out) == (2, "")
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "--seed must be at least 0, got -1"),
            (["--samples", "1000000000"], "--samples must lie in 1..1000000, got 1000000000"),
        ],
    )
    def test_out_of_range_integers_are_domain_errors(self, capsys, monkeypatch, flags, message):
        # Rejected before the sweep draws a single sample.
        monkeypatch.setattr("bmoblo.cli.sweep", lambda *a: pytest.fail("sweep ran"))
        code, out, err = run(capsys, ["concavity", "--n", "2", *flags])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestTree:
    def _write(self, tmp_path, doc):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_two_leaf_passes(self, capsys, tmp_path):
        doc = {
            "alpha": 0.5,
            "root": {
                "measure": 1.0,
                "children": [
                    {"measure": 0.5, "value": 1.0},
                    {"measure": 0.5, "value": -1.0},
                ],
            },
        }
        code, out, _ = run(capsys, ["tree", self._write(tmp_path, doc)])
        assert code == 0
        assert "bmo_norm = 1" in out
        assert "min_margin.induction" in out

    def test_json_format(self, capsys, tmp_path):
        doc = {
            "alpha": 0.25,
            "root": {
                "measure": 1.0,
                "children": [
                    {"measure": 0.3, "value": 2.0},
                    {"measure": 0.7, "value": -1.0},
                ],
            },
        }
        path = self._write(tmp_path, doc)
        code, text, _ = run(capsys, ["tree", path])
        code_json, out, _ = run(capsys, ["tree", path, "--format", "json"])
        assert code == code_json == 0
        rec = json.loads(out)
        lines = dict(line.split(" = ") for line in text.splitlines())
        assert list(rec) == list(lines)
        assert rec["nodes"] == 3
        assert all(float(v) == rec[k] for k, v in lines.items())

    def test_bad_measure_sum(self, capsys, tmp_path):
        doc = {
            "alpha": 0.5,
            "root": {
                "measure": 1.0,
                "children": [
                    {"measure": 0.5, "value": 1.0},
                    {"measure": 0.6, "value": -1.0},
                ],
            },
        }
        code, _, err = run(capsys, ["tree", self._write(tmp_path, doc)])
        assert code == 2
        assert "root" in err

    def test_alpha_violation_names_path(self, capsys, tmp_path):
        doc = {
            "alpha": 0.25,
            "root": {
                "measure": 1.0,
                "children": [
                    {"measure": 0.2, "value": 1.0},
                    {"measure": 0.8, "value": -1.0},
                ],
            },
        }
        code, _, err = run(capsys, ["tree", self._write(tmp_path, doc)])
        assert code == 2
        assert "root/0" in err

    def test_large_norm_rescaled(self, capsys, tmp_path):
        doc = {
            "alpha": 0.5,
            "root": {
                "measure": 4.0,
                "children": [
                    {"measure": 2.0, "value": 5.0},
                    {"measure": 2.0, "value": -5.0},
                ],
            },
        }
        code, out, _ = run(capsys, ["tree", self._write(tmp_path, doc)])
        assert code == 0
        assert "bmo_norm = 5" in out

    @pytest.mark.parametrize(
        "alpha,measure,value",
        [
            (0.5, True, 1.0),
            (0.5, 1.0, False),
            ("half", 1.0, 1.0),
            (None, 1.0, 1.0),
            (True, 1.0, 1.0),
            (float("nan"), 1.0, 1.0),
            (float("inf"), 1.0, 1.0),
            # integer literals beyond the float range read as +-inf
            pytest.param(10**400, 1.0, 1.0, id="alpha-1e400"),
            pytest.param(0.5, 10**400, 1.0, id="measure-1e400"),
            pytest.param(0.5, 1.0, -(10**400), id="value--1e400"),
        ],
    )
    def test_non_numbers_rejected(self, capsys, tmp_path, alpha, measure, value):
        doc = {
            "alpha": alpha,
            "root": {
                "measure": 2.0,
                "children": [
                    {"measure": measure, "value": 1.0},
                    {"measure": 1.0, "value": value},
                ],
            },
        }
        code, out, err = run(capsys, ["tree", self._write(tmp_path, doc)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: root")

    @pytest.mark.parametrize(
        "measure,values",
        [(1.0, (1e200, -1e200)), (1e300, (1e200, 1.0))],
        ids=["values-1e200", "measure-1e300"],
    )
    def test_overflowing_moments_are_named(self, capsys, tmp_path, measure, values):
        doc = {
            "alpha": 0.5,
            "root": {
                "measure": 2 * measure,
                "children": [{"measure": measure, "value": v} for v in values],
            },
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["tree", self._write(tmp_path, doc)])
        assert code == 2
        assert out == ""
        assert err == "error: root/0: cell moments leave the float range\n"

    def test_deep_nesting_is_a_structure_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(comb_text(600))
        code, out, err = run(capsys, ["tree", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "doc",
        [
            '{"alpha": 0.5, "root": {"measure": %s, "value": 1.0}}',
            '{"alpha": %s, "root": {"measure": 1.0, "value": 1.0}}',
        ],
    )
    def test_huge_integer_literal_is_a_structure_error(self, capsys, tmp_path, doc):
        # Past the interpreter's 4300-digit limit json.loads raises a plain
        # ValueError; the limit itself is left as it is.
        path = tmp_path / "huge.json"
        path.write_text(doc % ("1" + "0" * 5000))
        code, out, err = run(capsys, ["tree", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: an integer literal has too many digits\n"

    def test_root_measure_beyond_float_range_is_named(self, capsys, tmp_path):
        # Below the 4300-digit limit json.loads reads the integer, which no
        # float can hold.
        path = tmp_path / "big.json"
        path.write_text('{"alpha": 0.5, "root": {"measure": %s, "value": 1.0}}' % ("1" + "0" * 400))
        code, out, err = run(capsys, ["tree", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: root: measure is beyond the float range\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["tree", "/nonexistent/tree.json"])
        assert code == 2

    @pytest.mark.parametrize("c", [1e6, 1e8])
    def test_offset_document_verifies(self, capsys, tmp_path, c):
        # Values near c put the BMO norm a few ulps of c above 1, which a
        # rescale of the values cannot remove at that offset.
        base = random_tree(0.5, np.random.default_rng(4))
        doc = tree_to_json(with_leaf_values(base, base.value[base.leaf_idx] + c))
        code, out, err = run(capsys, ["tree", self._write(tmp_path, doc)])
        assert (code, err) == (0, "")
        rec = dict(line.split(" = ") for line in out.splitlines())
        assert float(rec["bmo_norm"]) > 1.0
        assert float(rec["min_margin.induction"]) >= 0.0

    def _two_leaf_path(self, tmp_path):
        root = {"measure": 1.0, "children": [{"measure": 0.5, "value": v} for v in (1.0, -1.0)]}
        return self._write(tmp_path, {"alpha": 0.5, "root": root})

    def test_skipped_node_fails_the_run(self, capsys, tmp_path, monkeypatch):
        real = trees.verify_all_nodes

        def skipping(tree, ctx):
            out = real(tree, ctx)
            out["induction"][1] = np.nan
            return out

        monkeypatch.setattr(trees, "verify_all_nodes", skipping)
        code, out, _ = run(capsys, ["tree", self._two_leaf_path(tmp_path)])
        assert code == 1
        assert "min_margin.induction = nan\n" in out

    @pytest.mark.parametrize("key", ["blo_n", "blo_m"])
    def test_blo_margin_below_the_root_fails_the_run(self, capsys, tmp_path, monkeypatch, key):
        # The root's margin is printed; a failing one at another node still
        # fails the run.
        real = trees.verify_all_nodes

        def failing(tree, ctx):
            out = real(tree, ctx)
            out[key][1] = -1.0
            return out

        path = self._two_leaf_path(tmp_path)
        code, before, _ = run(capsys, ["tree", path])
        monkeypatch.setattr(trees, "verify_all_nodes", failing)
        code_after, after, _ = run(capsys, ["tree", path])
        assert (code, code_after) == (0, 1)
        assert after == before

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff\xfe{}",
            '{"alpha": 0.5, "root": {"measure": 1.0, "value": 1.0}}'.encode("utf-16"),
            '{"alpha": 0.5, "root": {"measure": 1.0, "value": 1.0, "\xe9": 0}}'.encode("latin-1"),
        ],
    )
    def test_non_utf8_is_a_structure_error(self, capsys, tmp_path, data):
        path = tmp_path / "tree.json"
        path.write_bytes(data)
        code, out, err = run(capsys, ["tree", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: document is not UTF-8 text\n"


class TestTreeCollectorState:
    """Reading a tree leaves the cyclic collector as it was."""

    DOCS = {
        "valid": ('{"alpha": 0.5, "root": {"measure": 1.0, "children": '
                  '[{"measure": 0.5, "value": 1.0}, {"measure": 0.5, "value": -1.0}]}}', 0),
        "malformed": ('{"alpha": 0.5, "root": {"measure": 1.0, "children": '
                      '[{"measure": 0.5, "value": 1.0}, 7]}}', 2),
        "deep": (comb_text(600), 2),
        "missing": (None, 2),
    }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("kind", list(DOCS))
    def test_state_restored(self, capsys, tmp_path, kind, enabled):
        text, want = self.DOCS[kind]
        path = tmp_path / "tree.json"
        if text is not None:
            path.write_text(text)
        was = gc.isenabled()
        gc.enable() if enabled else gc.disable()
        try:
            code, _, _ = run(capsys, ["tree", str(path)])
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert code == want


class TestOptimizer:
    def test_small_report(self, capsys):
        code, out, _ = run(capsys, ["optimizer", "--jmax", "3", "--depth", "24"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("j,gamma_j,delta_j")
        assert len(lines) == 4

    def test_depth_below_jmax(self, capsys):
        code, _, err = run(capsys, ["optimizer", "--jmax", "8", "--depth", "5"])
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, ["optimizer", "--jmax", "2", "--depth", "16", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["j"] for r in rows] == [1, 2]
        lo, hi = rows[0]["mean_N"]
        assert lo <= 0.7071067811865475 <= hi

    @pytest.mark.parametrize("tol", ["nan", "1e-12"])
    def test_tol_is_not_an_option(self, capsys, tol):
        # Rejected as an unknown option whatever its value, even one that
        # would not parse as a valid tolerance.
        code, out, err = run(capsys, ["optimizer", "--jmax", "2", f"--tol={tol}"])
        assert code == 2
        assert out == ""
        assert "--tol" in err

    @pytest.mark.parametrize("jmax,depth", [(1, 64), (3, 70)])
    def test_depth_above_63_is_a_domain_error(self, capsys, jmax, depth):
        code, out, err = run(
            capsys, ["optimizer", "--jmax", str(jmax), "--depth", str(depth)]
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: depth {depth} ")
        assert "Traceback" not in err

    # From j = 54 at depth 54 and j = 57 at depth 63 the unresolved mass
    # rounds to 1; the statistics are exact there too, so every row prints.
    @pytest.mark.parametrize("jmax,depth,j", [(54, 54, 54), (60, 63, 57)])
    def test_unresolved_mass_of_one_reports_every_row(self, capsys, jmax, depth, j):
        code, out, err = run(
            capsys, ["optimizer", "--jmax", str(jmax), "--depth", str(depth)]
        )
        assert code == 0
        assert err == ""
        rows = out.strip().splitlines()[1:]
        assert len(rows) == jmax
        assert rows[j - 1].split(",")[-1] == "1"

    def test_jmax_53_runs(self, capsys):
        code, out, _ = run(capsys, ["optimizer", "--jmax", "53", "--depth", "53"])
        assert code == 0
        assert len(out.strip().splitlines()) == 54

    def test_jmax_53_at_depth_63_encloses_every_target(self, capsys):
        code, out, _ = run(capsys, ["optimizer", "--jmax", "53", "--depth", "63"])
        assert code == 0
        assert len(out.strip().splitlines()) == 54

    def test_depth_63_runs(self, capsys):
        code, out, _ = run(capsys, ["optimizer", "--jmax", "1", "--depth", "63"])
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_gamma_column_increasing(self, capsys):
        code, out, _ = run(capsys, ["optimizer", "--jmax", "5", "--depth", "20"])
        gammas = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))

    # The sha256 of the whole report.  Its unresolved_mass column is the only
    # one that depends on how build_psi counts the cells.
    @pytest.mark.parametrize(
        "jmax,depth,fmt,digest",
        [
            (12, 24, "csv", "d93f91f4fa9d4ad8675057537d9b725781550a03e68790d03b9925b9881fe941"),
            (12, 24, "json", "3c8b55ebec6a732f426bfe5f7125af8232fc2a9f898b7d3b355d4fa2920d4da4"),
            (53, 63, "csv", "81d5661b764e2c620efb102e7e805744e06ffa562a9c51716e73fb7defb66f1e"),
        ],
    )
    def test_report_bytes_pinned(self, capsys, jmax, depth, fmt, digest):
        argv = ["optimizer", "--jmax", str(jmax), "--depth", str(depth), "--format", fmt]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "1", "--x", "-1", "0.5"],
            ["table", "--n", "1", "--kind", "phi"],
            ["regions", "--n", "1"],
            ["concavity", "--n", "1", "--samples", "10"],
            ["tree", "tree.json"],
            ["optimizer", "--jmax", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_is_not_an_option(self, capsys, argv):
        # The strip tolerance is a constant; no subcommand takes it.
        code, out, err = run(capsys, [*argv, "--tol=1e-12"])
        assert code == 2
        assert out == ""
        assert "--tol" in err


class TestOutFile:
    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run(
            capsys,
            ["regions", "--alpha", "0.25", "--kmax", "2", "--out", str(path)],
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("k,p_k")
