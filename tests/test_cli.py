import json

import pytest

from bmoblo.cli import main


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

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_usage_error(self, capsys, tol):
        code, _, err = run(
            capsys, ["eval", "--n", "1", "--x", "-1", "0.5", f"--tol={tol}"]
        )
        assert code == 2
        assert "tol must be finite and non-negative" in err

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

    def test_bad_grid(self, capsys):
        code, _, err = run(
            capsys, ["table", "--n", "2", "--kind", "phi", "--grid", "3:1:0.5"]
        )
        assert code == 2


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

    def test_deep_nesting_is_a_structure_error(self, capsys, tmp_path):
        # A 600-level comb, written as a string: json.dumps recurses too.
        depth = 600
        text = '{"alpha": 0.5, "root": '
        for d in range(depth):
            text += '{"measure": %r, "children": [{"measure": %r, "value": 1.0}, ' % (
                2.0**-d,
                2.0 ** -(d + 1),
            )
        text += '{"measure": %r, "value": -1.0}' % 2.0**-depth + "]}" * depth + "}"
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, ["tree", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["tree", "/nonexistent/tree.json"])
        assert code == 2


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
        code, out, err = run(capsys, ["optimizer", "--jmax", "2", f"--tol={tol}"])
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_gamma_column_increasing(self, capsys):
        code, out, _ = run(capsys, ["optimizer", "--jmax", "5", "--depth", "20"])
        gammas = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))


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
