import math

import numpy as np
import pytest

from bmoblo.bellman import _SOLVE_CHUNK, eval_arrays, eval_b
from bmoblo.concavity import (
    FAMILIES,
    ChordSample,
    SweepReport,
    _chord_H_vec,
    _dirder_margins_vec,
    _sample_omega,
    check_C2,
    chord_H,
    chord_margin,
    equality_probes,
    sweep,
)
from bmoblo.errors import DomainError
from bmoblo.geometry import OmegaPoint, make_context

from oracles import w_surface


class TestChordMargin:
    def test_degenerate_chord(self, ctx_quarter):
        x = OmegaPoint(-0.7, 1.2)
        for beta in (0.25, 0.4, 0.5):
            assert chord_margin(x, x, beta, ctx_quarter) == pytest.approx(0.0, abs=1e-14)

    def test_extremal_equality_case(self, ctx_quarter):
        # chord through (u, u^2), (v, v^2+1), (vplus, vplus^2+1) of one
        # extended extremal: the candidate is affine there, margin 0.
        s = 0.8
        v = 0.5 * (3.0 * s - 1.0 / s) - 1.0
        u = v - s
        vplus = 0.5 * (s + 1.0 / s) - 1.0
        margin = chord_margin(
            OmegaPoint(vplus, vplus * vplus + 1.0),
            OmegaPoint(u, u * u),
            1.0 - s * s,
            ctx_quarter,
        )
        assert abs(margin) < 1e-9

    def test_subchord_equality_along_segments(self, ctx_quarter, rng):
        # B is affine along every extremal segment, so any admissible
        # sub-chord of a single segment has vanishing margin.
        ctx = ctx_quarter
        from bmoblo.bellman import solve_s

        for _ in range(100):
            x1 = float(rng.uniform(-4.0, -0.2))
            x = OmegaPoint(x1, x1 * x1 + float(rng.uniform(0.05, 0.95)))
            try:
                fol = solve_s(x, ctx)
            except DomainError:
                continue
            t0, t1 = sorted(rng.uniform(0.0, 1.0, 2))
            if t1 - t0 < 1e-3:
                continue
            pts = []
            for t in (t0, t1):
                p1 = (1 - t) * fol.u + t * fol.v
                p2 = (1 - t) * fol.u * fol.u + t * (fol.v * fol.v + 1.0)
                pts.append(OmegaPoint(p1, p2))
            beta = float(rng.uniform(ctx.alpha, 0.5))
            assert abs(chord_margin(pts[0], pts[1], beta, ctx)) < 1e-9

    def test_nonnegative_on_random_chords(self, ctx_quarter, rng):
        ctx = ctx_quarter
        count = 0
        while count < 400:
            x1m = float(rng.uniform(-4, 4))
            x1p = float(rng.uniform(-4, 4))
            xm = OmegaPoint(x1m, x1m * x1m + float(rng.uniform(0, 1)))
            xp = OmegaPoint(x1p, x1p * x1p + float(rng.uniform(0, 1)))
            beta = float(rng.uniform(ctx.alpha, 0.5))
            m1 = (1 - beta) * xm.x1 + beta * xp.x1
            m2 = (1 - beta) * xm.x2 + beta * xp.x2
            if m2 - m1 * m1 > 1.0:
                continue
            count += 1
            assert chord_margin(xm, xp, beta, ctx) >= -1e-9

    def test_rejects_exiting_chord(self, ctx_quarter):
        xm = OmegaPoint(-3.0, 9.9)
        xp = OmegaPoint(3.0, 9.9)
        with pytest.raises(DomainError):
            chord_margin(xm, xp, 0.5, ctx_quarter)

    def test_rejects_bad_beta(self, ctx_quarter):
        x = OmegaPoint(0.0, 0.5)
        with pytest.raises(DomainError):
            chord_margin(x, x, 0.1, ctx_quarter)


class TestDirectional:
    def test_same_point(self, ctx_quarter):
        assert check_C2(-0.9, -0.9, ctx_quarter) == 0.0

    def test_right_of_axis(self, ctx_quarter):
        assert check_C2(0.1, 0.5, ctx_quarter) >= 0.0

    def test_symmetric_in_swap(self, ctx_quarter, rng):
        for _ in range(200):
            p = float(rng.uniform(-6, 1))
            q = p + float(rng.uniform(-ctx_quarter.tau, ctx_quarter.tau))
            assert check_C2(p, q, ctx_quarter) == pytest.approx(
                check_C2(q, p, ctx_quarter), abs=1e-14
            )
            assert check_C2(p, q, ctx_quarter) >= -1e-9

    def test_separation_limit(self, ctx_quarter):
        with pytest.raises(DomainError):
            check_C2(0.0, ctx_quarter.tau + 0.01, ctx_quarter)

    def test_third_cell_pairs(self, ctx_quarter):
        # pairs with p on the third cell's upper arc and q = p + tau
        ctx = ctx_quarter
        for p in np.linspace(ctx.p(2) + 1e-6, -ctx.tau - 1e-6, 25):
            assert check_C2(float(p), float(p) + ctx.tau, ctx) >= -1e-9


class TestChordH:
    def test_diagonal_zero(self, ctx_quarter):
        for p in (-3.3, -1.0, 0.4):
            assert chord_H(p, p, ctx_quarter) == pytest.approx(0.0, abs=1e-12)

    def test_full_step_equality_below_p1(self, ctx_quarter):
        ctx = ctx_quarter
        for p in np.linspace(ctx.p(1) - 3 * ctx.tau, ctx.p(1), 40):
            assert chord_H(float(p), float(p) + ctx.tau, ctx) == pytest.approx(
                0.0, abs=1e-10
            )

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_nonnegative_random(self, alpha, rng):
        ctx = make_context(alpha)
        p = rng.uniform(-6 * ctx.tau, 2.0, 3000)
        d = rng.uniform(-ctx.tau, ctx.tau, 3000)
        for pi, di in zip(p[:500], d[:500]):
            assert chord_H(float(pi), float(pi + di), ctx) >= -1e-9

    def test_separation_limit(self, ctx_quarter):
        with pytest.raises(DomainError):
            chord_H(0.0, ctx_quarter.tau + 0.01, ctx_quarter)


class TestWSurface:
    def test_theta_one_vanishes(self, ctx_quarter):
        ctx = ctx_quarter
        for xi in np.linspace(ctx.sqrt_alpha, 1.0, 11):
            for region in (1, 2):
                assert w_surface(float(xi), 1.0, ctx, region) == pytest.approx(
                    0.0, abs=1e-10
                )

    def test_theta_zero_vanishes_for_even_cell(self, ctx_quarter):
        # With the trajectory's upper endpoint in the second cell the lower
        # endpoint hits the bottom parabola and the trace recursion gives
        # exact equality; for the first cell this edge is strictly positive.
        ctx = ctx_quarter
        for xi in np.linspace(ctx.sqrt_alpha, 1.0, 11):
            assert w_surface(float(xi), 0.0, ctx, 2) == pytest.approx(0.0, abs=1e-10)
        assert w_surface(1.0, 0.0, ctx, 1) > 1e-3

    def test_nonnegative_inside(self, ctx_quarter, rng):
        ctx = ctx_quarter
        for _ in range(300):
            xi = float(rng.uniform(ctx.sqrt_alpha, 1.0))
            theta = float(rng.uniform(0.0, 1.0))
            region = int(rng.integers(1, 3))
            assert w_surface(xi, theta, ctx, region) >= -1e-9


class TestSweep:
    def test_requires_samples(self, ctx_quarter):
        with pytest.raises(DomainError):
            sweep(ctx_quarter, 0, seed=1)

    def test_deterministic(self, ctx_quarter):
        a = sweep(ctx_quarter, 2000, seed=42)
        b = sweep(ctx_quarter, 2000, seed=42)
        assert a.to_text() == b.to_text()
        assert a.to_json() == b.to_json()

    def test_seed_changes_argmin(self, ctx_quarter):
        a = sweep(ctx_quarter, 2000, seed=1)
        b = sweep(ctx_quarter, 2000, seed=2)
        assert a.to_text() != b.to_text()

    def test_margins_and_probes(self, ctx_quarter):
        rep = sweep(ctx_quarter, 20_000, seed=7)
        assert set(rep.min_margins) == set(FAMILIES)
        assert rep.min_margin >= -1e-9
        for fam in FAMILIES:
            assert abs(rep.probes[fam]) < 1e-6

    def test_report_text_fields(self, ctx_quarter):
        rep = sweep(ctx_quarter, 1000, seed=3)
        text = rep.to_text()
        for key in ("alpha =", "seed =", "samples =", "min_margin ="):
            assert key in text
        for fam in FAMILIES:
            assert f"min_margin.{fam}" in text
            assert f"probe_abs_margin.{fam}" in text


def _reference_sweep(ctx, n_samples, seed):
    """sweep as it was before the chords were drawn first: each rejection
    round evaluates its accepted chords at once, with one eval_arrays call
    for each of x-, x+ and the midpoint."""
    rng = np.random.default_rng(seed)
    window = 6.0 * ctx.tau
    report = SweepReport(alpha=ctx.alpha, seed=seed, samples=n_samples)
    got = 0
    margins = np.empty(n_samples)
    arg = np.empty((n_samples, 5))
    while got < n_samples:
        want = n_samples - got
        draw = max(2048, int(1.5 * want))
        xm1, xm2 = _sample_omega(rng, draw, window, ctx)
        xp1, xp2 = _sample_omega(rng, draw, window, ctx)
        beta = rng.uniform(ctx.alpha, 0.5, draw)
        m1 = (1.0 - beta) * xm1 + beta * xp1
        m2 = (1.0 - beta) * xm2 + beta * xp2
        ok = (m2 - m1 * m1) <= 1.0
        take = min(int(np.count_nonzero(ok)), want)
        if take == 0:
            continue
        idx = np.flatnonzero(ok)[:take]
        sl = slice(got, got + take)
        bm = eval_arrays(xm1[idx], xm2[idx], ctx)["value"]
        bp = eval_arrays(xp1[idx], xp2[idx], ctx)["value"]
        bmid = eval_arrays(m1[idx], m2[idx], ctx)["value"]
        margins[sl] = bmid - (1.0 - beta[idx]) * bm - beta[idx] * bp
        arg[sl] = np.column_stack([xm1[idx], xm2[idx], xp1[idx], xp2[idx], beta[idx]])
        got += take
    i = int(np.argmin(margins))
    report.min_margins["chords"] = float(margins[i])
    report.argmins["chords"] = ChordSample(
        (arg[i, 0], arg[i, 1]), (arg[i, 2], arg[i, 3]), arg[i, 4], float(margins[i])
    )
    p = rng.uniform(-window, 2.0, n_samples)
    q = p + rng.uniform(0.0, ctx.tau, n_samples)
    margins = _dirder_margins_vec(p, q, ctx)
    i = int(np.argmin(margins))
    report.min_margins["dirder"] = float(margins[i])
    report.argmins["dirder"] = ChordSample(
        (p[i], p[i] ** 2 + 1.0), (q[i], q[i] ** 2 + 1.0), 0.5, float(margins[i])
    )
    p = rng.uniform(-window, 2.0, n_samples)
    q = p + rng.uniform(-ctx.tau, ctx.tau, n_samples)
    margins = _chord_H_vec(p, q, ctx)
    i = int(np.argmin(margins))
    report.min_margins["chord_H"] = float(margins[i])
    report.argmins["chord_H"] = ChordSample(
        (p[i], p[i] ** 2 + 1.0), (q[i], q[i] ** 2 + 1.0), ctx.alpha, float(margins[i])
    )
    report.probes = equality_probes(ctx)
    return report


class TestSweepReference:
    """Drawing every chord first and evaluating them in blocks reports what
    the round-by-round loop reported."""

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    @pytest.mark.parametrize("samples", [1, _SOLVE_CHUNK // 3, _SOLVE_CHUNK // 3 + 1, 20_000])
    def test_same_report(self, alpha, samples):
        ctx = make_context(alpha)
        got = sweep(ctx, samples, seed=19)
        assert got.to_json() == _reference_sweep(ctx, samples, 19).to_json()


class TestEqualityProbes:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_probe_margins_small_and_nondegenerate(self, alpha):
        ctx = make_context(alpha)
        probes = equality_probes(ctx)
        for fam in FAMILIES:
            assert abs(probes[fam]) < 1e-6

    def test_recursion_feeds_h_probe(self, ctx_quarter):
        # the chord_H probe equality is the trace recursion in disguise
        ctx = ctx_quarter
        p = ctx.p(1) - 0.2
        assert eval_b(p, ctx) == pytest.approx(
            ctx.alpha * eval_b(p + ctx.tau, ctx), abs=1e-12
        )
