"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a `[criterion N] PASS` line (visible with `pytest -s` or
on failure) and enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from bmoblo.bellman import eval_arrays, eval_b, eval_f
from bmoblo.concavity import FAMILIES, sweep
from bmoblo.geometry import make_context
from bmoblo.optimizers import m_norm_report
from bmoblo.trees import random_tree, verify_all_nodes, verify_main_theorem
from oracles import eval_Phi, gradient_grid, hessian_grid


def _report(n, elapsed, budget, detail):
    print(f"[criterion {n}] PASS ({elapsed:.2f}s < {budget:.0f}s): {detail}")


def test_criterion_1_sharp_knots():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        tau = 2.0 ** (n / 2.0) - 2.0 ** (-n / 2.0)
        for k in range(6):
            got = float(eval_Phi(k * tau, n))
            worst = max(worst, abs(got - 2.0 ** (-n * k)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(1, elapsed, 1, f"decay knots exact, worst |err| = {worst:.2e}")


def test_criterion_2_norm_constant_one():
    t0 = time.perf_counter()
    rows = m_norm_report(range(1, 13), 24)
    elapsed = time.perf_counter() - t0
    lows = [r.stats.mean_N.lo for r in rows]
    # the BLO differences <M(psi_j + gamma_j)> - inf M(psi_j + gamma_j)
    # are the mean_N enclosures; they increase and hug gamma_j from below
    assert all(a < b for a, b in zip(lows, lows[1:]))
    for r in rows:
        assert r.stats.mean_N.lo >= r.stats.gamma - 1e-3
        assert r.targets_enclosed
    g12 = rows[-1].stats.gamma
    assert g12 == pytest.approx(1.0 / math.sqrt(1.0 + 2.0**-11), abs=1e-15)
    assert g12 == pytest.approx(0.999756, abs=1e-6)
    assert lows[-1] >= 1.0 - 1e-3
    assert elapsed < 10.0
    _report(2, elapsed, 10, f"operator norm >= {lows[-1]:.6f} at scale 12")


def test_criterion_3_concavity_sweep():
    t0 = time.perf_counter()
    details = []
    for alpha in (0.5, 0.25, 0.1):
        ctx = make_context(alpha)
        rep = sweep(ctx, 100_000, seed=7)
        assert rep.min_margin >= -1e-9, f"alpha={alpha}: {rep.min_margins}"
        for fam in FAMILIES:
            assert abs(rep.probes[fam]) < 1e-6, f"alpha={alpha} family={fam}"
        probes = ",".join(f"{abs(rep.probes[f]):.0e}" for f in FAMILIES)
        details.append(f"alpha={alpha}: min={rep.min_margin:.2e} |probes|=({probes})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, elapsed, 30, "; ".join(details))


def test_criterion_4_monge_ampere_gradients():
    t0 = time.perf_counter()
    ctx = make_context(0.25)
    xs, gaps = np.meshgrid(
        np.linspace(-4.2, -0.12, 100), np.linspace(0.05, 0.95, 100)
    )
    x1 = xs.ravel()
    x2 = x1 * x1 + gaps.ravel()
    out = eval_arrays(x1, x2, ctx)
    assert set(range(6)).issubset(set(out["region"].tolist()))

    g1, g2, ok_g = gradient_grid(x1, x2, ctx)
    rel1 = np.abs(g1[ok_g] - out["grad1"][ok_g]) / np.maximum(np.abs(out["grad1"][ok_g]), 1e-12)
    rel2 = np.abs(g2[ok_g] - out["grad2"][ok_g]) / np.maximum(np.abs(out["grad2"][ok_g]), 1e-12)
    assert float(np.max(rel1)) <= 1e-5
    assert float(np.max(rel2)) <= 1e-5

    b11, b22, b12, ok_h = hessian_grid(x1, x2, ctx)
    res = np.abs(b11[ok_h] * b22[ok_h] - b12[ok_h] ** 2)
    tol = 1e-4 * (np.abs(b11[ok_h] * b22[ok_h]) + 1e-8)
    assert np.all(res <= tol)
    assert np.all(b11[ok_h] <= 1e-6)
    assert np.all(b22[ok_h] <= 1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        4,
        elapsed,
        5,
        f"grad rel err <= {max(float(np.max(rel1)), float(np.max(rel2))):.1e}, "
        f"det residual within tolerance on {int(ok_h.sum())} stencils",
    )


def test_criterion_5_tree_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(515151)
    ctxs = {0.5: make_context(0.5), 0.25: make_context(0.25)}
    worst = {"key": 0.0, "induction": np.inf, "main_n": np.inf, "main_m": np.inf}
    worst_blo = np.inf
    for i in range(1000):
        alpha = 0.5 if i % 2 == 0 else 0.25
        tree = random_tree(alpha, rng, max_depth=6)
        out = verify_all_nodes(tree, ctxs[alpha])
        worst["key"] = max(worst["key"], float(np.max(out["key_obs"])))
        worst["induction"] = min(worst["induction"], float(np.nanmin(out["induction"])))
        worst["main_n"] = min(worst["main_n"], float(np.min(out["main_n"])))
        worst["main_m"] = min(worst["main_m"], float(np.min(out["main_m"])))
        if i % 10 == 0:
            rep = verify_main_theorem(tree, None, ctxs[alpha])
            worst_blo = min(worst_blo, rep.blo_margin_n, rep.blo_margin_m)
    elapsed = time.perf_counter() - t0
    assert worst["key"] <= 1e-12
    assert worst["induction"] >= -1e-9
    assert worst["main_n"] >= -1e-9
    assert worst["main_m"] >= -1e-9
    assert worst_blo >= -1e-9
    assert elapsed < 10.0
    _report(
        5,
        elapsed,
        10,
        f"1000 trees: key-obs residual {worst['key']:.1e}, "
        f"min margins {worst['induction']:.1e}/{worst['main_n']:.1e}/"
        f"{worst['main_m']:.1e}, blo corollary {worst_blo:.2e}",
    )


def test_criterion_6_boundary_consistency():
    t0 = time.perf_counter()
    ctx = make_context(0.25)
    ps = np.linspace(-5.0 * ctx.tau, 2.0, 401)
    trace = eval_b(ps, ctx)
    via_strip = eval_arrays(ps, ps * ps + 1.0, ctx)["value"]
    err_trace = float(np.max(np.abs(trace - via_strip)))
    assert err_trace <= 1e-10

    ss = np.linspace(ctx.sqrt_alpha, 1.0, 100)
    vs = 0.5 * (3.0 * ss - 1.0 / ss) - 1.0
    err_f = float(np.max(np.abs(eval_f(vs + 1.0) - 0.5 * ss * (1.0 + ss * ss))))
    assert err_f <= 1e-10

    v = np.linspace(ctx.p(1) - 4.0 * ctx.tau, ctx.p(1), 100)
    err_rec = float(np.max(np.abs(eval_b(v, ctx) - ctx.alpha * eval_b(v + ctx.tau, ctx))))
    assert err_rec <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        6,
        elapsed,
        1,
        f"trace {err_trace:.1e}, cubic identity {err_f:.1e}, recursion {err_rec:.1e}",
    )


def test_criterion_7_sharpness_by_proxy():
    # Full sharpness (optimizing sequences for every state, equality of the
    # extremal function with the candidate) is not reproducible in finite
    # arithmetic; it is replaced by the norm lower bound of criterion 2 and
    # the attained near-zero margins of criterion 3.  This test pins the
    # replacement evidence.
    t0 = time.perf_counter()
    rows = m_norm_report([12], 24)
    assert rows[0].stats.mean_N.lo >= 1.0 - 1e-3
    ctx = make_context(0.25)
    rep = sweep(ctx, 5000, seed=7)
    for fam in FAMILIES:
        assert abs(rep.probes[fam]) < 1e-6
    elapsed = time.perf_counter() - t0
    _report(
        7,
        elapsed,
        30,
        "sharpness evidenced by norm lower bound and attained equality margins",
    )
