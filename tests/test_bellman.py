import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmoblo import bellman
from bmoblo.bellman import (
    eval_A,
    eval_arrays,
    eval_b,
    eval_B,
    eval_b_prime,
    eval_f,
    eval_F,
    eval_majorant,
    eval_Phi,
    fd_gradient,
    gamma1_foliation,
    solve_s,
)
from bmoblo.errors import ConvergenceError, DomainError
from bmoblo.geometry import OmegaPoint, RegionId, classify, make_context, shift

from conftest import boundary_points, sample_strip


class TestSolveS:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_matches_eval_arrays_bitwise(self, alpha, rng):
        ctx = make_context(alpha)
        x1, x2 = sample_strip(rng, 6000, 9.5 * ctx.tau, ctx)
        out = eval_arrays(x1, x2, ctx)
        codes = out["region"]
        picked = [np.flatnonzero(codes == m)[:6] for m in range(1, 19)]
        assert all(idx.size for idx in picked)
        for i in np.concatenate(picked):
            f = solve_s(OmegaPoint(float(x1[i]), float(x2[i])), ctx)
            assert f.region.index == codes[i]
            for name in ("s", "z", "u", "v"):
                assert getattr(f, name) == out[name][i], name

    def test_corner_of_ell1(self, ctx_quarter):
        f = solve_s(OmegaPoint(0.0, 1.0), ctx_quarter)
        assert f.s == pytest.approx(1.0, abs=1e-12)
        assert f.u == pytest.approx(-1.0, abs=1e-12)
        assert f.v == pytest.approx(0.0, abs=1e-12)
        assert f.vplus == pytest.approx(0.0, abs=1e-12)

    def test_gamma0_endpoint(self, ctx_quarter):
        f = solve_s(OmegaPoint(-1.0, 1.0), ctx_quarter)
        assert f.s == pytest.approx(1.0, abs=1e-12)

    def test_root_formula_on_gamma1(self, ctx_quarter):
        # on the first cell's upper arc, s = (eta + sqrt(eta^2+3))/3
        for v in np.linspace(ctx_quarter.p(1) + 1e-9, -1e-3, 37):
            f = solve_s(OmegaPoint(float(v), float(v * v + 1.0)), ctx_quarter)
            eta = 1.0 + v
            s_exact = (eta + math.sqrt(eta * eta + 3.0)) / 3.0
            assert f.s == pytest.approx(s_exact, abs=1e-11)

    def test_rejects_plus_region(self, ctx_quarter):
        with pytest.raises(DomainError):
            solve_s(OmegaPoint(0.5, 0.5), ctx_quarter)

    def test_point_on_segment_and_brackets(self, ctx_quarter, rng):
        ctx = ctx_quarter
        x1, x2 = sample_strip(rng, 4000, 6.0 * ctx.tau, ctx)
        codes = eval_arrays(x1, x2, ctx)["region"]
        sel = codes >= 1
        for a, b, m in list(zip(x1[sel], x2[sel], codes[sel]))[:400]:
            f = solve_s(OmegaPoint(float(a), float(b)), ctx)
            k = int(m) // 2
            if m % 2 == 1:
                # odd cell 2k+1: s in alpha^k * [sqrt(alpha), 1]
                lo, hi = ctx.alpha ** (k + 0.5), ctx.alpha**k
            else:
                # even cell 2k+2: s in [alpha^(k+1), alpha^(k+1/2)]
                # = [alpha^(m/2), alpha^(m/2 - 1/2)]
                lo, hi = ctx.alpha**k, ctx.alpha ** (k - 0.5)
            assert lo - 1e-12 <= f.s <= hi + 1e-12
            assert f.z == pytest.approx(f.s / ctx.alpha**f.k, rel=1e-12)
            # the point lies on the segment from (u,u^2) to (v,v^2+1)
            t = (a - f.u) / (f.v - f.u)
            assert -1e-9 <= t <= 1.0 + 1e-9
            x2_seg = (1.0 - t) * f.u * f.u + t * (f.v * f.v + 1.0)
            assert x2_seg == pytest.approx(b, abs=1e-9)


class TestEvalB:
    def test_point_zero_one(self, ctx_quarter, ctx_half):
        for ctx in (ctx_quarter, ctx_half):
            assert eval_B(OmegaPoint(0.0, 1.0), ctx).value == pytest.approx(1.0, abs=1e-14)

    def test_zero_on_lower_parabola(self, ctx_quarter):
        for u in (-0.3, -1.0, -2.7, -4.4):
            assert eval_B(OmegaPoint(u, u * u), ctx_quarter).value == 0.0

    def test_ell1_matching_and_gradient(self, ctx_quarter):
        x = OmegaPoint(-0.5, 1.0)
        bv = eval_B(x, ctx_quarter)
        assert bv.value == pytest.approx(0.5, abs=1e-12)
        # both branches give the same value: Omega_0 closed form...
        assert x.x1 + math.sqrt(x.x2) == pytest.approx(0.5, abs=1e-15)
        # ...and the first-cell segment form (s=1, u=-1)
        assert 0.5 * (1 + 1) * (x.x1 - (-1.0)) == pytest.approx(0.5, abs=1e-15)
        assert bv.grad1 == pytest.approx(1.0, abs=1e-10)
        assert bv.grad2 == pytest.approx(0.5, abs=1e-10)

    def test_linear_interpolation_oracle(self, ctx_quarter, rng):
        # B is linear along each extremal segment: B = t * b(v) with
        # t the position of the point between (u,u^2) and (v,v^2+1).
        ctx = ctx_quarter
        x1, x2 = sample_strip(rng, 20_000, 6.0 * ctx.tau, ctx)
        out = eval_arrays(x1, x2, ctx)
        sel = out["region"] >= 1
        t = (x1[sel] - out["u"][sel]) / (out["v"][sel] - out["u"][sel])
        interp = t * eval_b(out["v"][sel], ctx)
        assert np.max(np.abs(interp - out["value"][sel])) < 1e-9

    def test_gradient_against_central_differences(self, ctx_quarter, rng):
        ctx = ctx_quarter
        pts = []
        while len(pts) < 300:
            x1 = float(rng.uniform(-6.0 * ctx.tau, 2.0))
            gap = float(rng.uniform(0.05, 0.95))
            x = OmegaPoint(x1, x1 * x1 + gap)
            # keep stencils inside one region
            c0 = classify(x, ctx)
            if all(
                classify(OmegaPoint(x.x1 + dx, x.x2 + dy), ctx) == c0
                for dx, dy in ((1e-6, 0), (-1e-6, 0), (0, 1e-6), (0, -1e-6))
            ):
                pts.append(x)
        for x in pts:
            bv = eval_B(x, ctx)
            g1, g2 = fd_gradient(x, ctx)
            assert g1 == pytest.approx(bv.grad1, rel=1e-5, abs=1e-9)
            assert g2 == pytest.approx(bv.grad2, rel=1e-5, abs=1e-9)

    def test_monotone_in_x2(self, ctx_quarter, rng):
        ctx = ctx_quarter
        x1, x2 = sample_strip(rng, 3000, 5.0 * ctx.tau, ctx)
        gap = x2 - x1 * x1
        delta = rng.uniform(0.0, 1.0, x1.size) * (1.0 - gap)
        v0 = eval_arrays(x1, x2, ctx)["value"]
        v1 = eval_arrays(x1, x2 + delta, ctx)["value"]
        assert np.min(v1 - v0) >= -1e-12

    def test_quasi_periodicity(self, ctx_quarter, rng):
        ctx = ctx_quarter
        # points of the first two cells, pushed left k cells: B scales by alpha^k
        x1, x2 = sample_strip(rng, 4000, 4.0 * ctx.tau, ctx)
        out = eval_arrays(x1, x2, ctx)
        sel = (out["region"] == 1) | (out["region"] == 2)
        x1, x2, base = x1[sel][:300], x2[sel][:300], out["value"][sel][:300]
        for k in range(1, 6):
            a = k * ctx.tau
            y1 = x1 - a
            y2 = x2 - 2.0 * a * x1 + a * a
            shifted = eval_arrays(y1, y2, ctx)["value"]
            assert np.max(np.abs(shifted - ctx.alpha**k * base) / np.abs(base)) < 1e-10

    def test_c1_matching_across_interfaces(self, ctx_quarter):
        ctx = ctx_quarter
        eps = 1e-9
        # ell_1 (x2 = 1), the first chord, and the tangent trajectory
        probes = []
        for x1 in (-0.2, -0.6, -0.95):
            probes.append((x1, 1.0))
        for t in (0.25, 0.5, 0.75):
            p1 = ctx.p(1)
            u = p1 - ctx.sqrt_alpha
            x1 = (1 - t) * u + t * p1
            x2 = (1 - t) * u * u + t * (p1 * p1 + 1.0)
            probes.append((x1, x2))
        for t in (0.25, 0.5, 0.75):
            u, v = -ctx.tau - 1.0, -ctx.tau
            x1 = (1 - t) * u + t * v
            x2 = (1 - t) * u * u + t * (v * v + 1.0)
            probes.append((x1, x2))
        for x1, x2 in probes:
            lo = eval_B(OmegaPoint(x1, x2 - eps), ctx)
            hi = eval_B(OmegaPoint(x1, x2 + eps), ctx)
            assert abs(lo.grad1 - hi.grad1) < 1e-7
            assert abs(lo.grad2 - hi.grad2) < 1e-7

    def test_underflow_flag_deep_cells(self):
        ctx = make_context(0.25)
        a = 1300 * ctx.tau
        x = OmegaPoint(0.0 - a, 1.0 + 0.0 + a * a)  # T_a of (0, 1)
        bv = eval_B(shift(a, OmegaPoint(0.0, 1.0)), ctx)
        assert bv.value == 0.0
        assert bv.underflow

    def test_subnormal_scale_counts_as_underflow(self, ctx_half):
        # alpha^(g+k) is subnormal over x1 in [-760, -723]; at the first
        # point B stayed 5e-324 while grad2 = s / 2 rounded to 0.
        x1 = np.concatenate([[-759.3697662353516], np.linspace(-780.0, -700.0, 4001)])
        x2 = x1 * x1 + 0.5
        x2[0] = 576643.4341285415
        out = eval_arrays(x1, x2, ctx_half)
        assert out["region"][0] == 2147 and out["underflow"][0]
        assert 0 < np.count_nonzero(out["underflow"]) < x1.size
        zero = out["value"] == 0.0
        assert np.array_equal(zero, out["underflow"])
        assert np.array_equal(zero, out["grad2"] == 0.0)
        assert np.array_equal(zero, out["s"] == 0.0)
        assert np.all(out["grad1"][zero] == 0.0)


class TestEvalA:
    def test_reduces_to_b(self, ctx_quarter):
        assert eval_A(OmegaPoint(0.0, 1.0), 0.0, ctx_quarter) == pytest.approx(1.0, abs=1e-14)

    def test_top_of_shifted_strip(self, ctx_quarter):
        for L in (-2.0, 0.0, 1.7):
            x = OmegaPoint(L, L * L + 1.0)
            assert eval_A(x, L, ctx_quarter) == pytest.approx(L + 1.0, abs=1e-12)

    def test_plus_collapse(self, ctx_quarter, rng):
        # for x1 >= L the family value is x1 + sqrt(x2 - x1^2)
        for _ in range(200):
            x1 = float(rng.uniform(-2, 2))
            gap = float(rng.uniform(0, 1))
            L = x1 - float(rng.uniform(0, 3))
            x = OmegaPoint(x1, x1 * x1 + gap)
            assert eval_A(x, L, ctx_quarter) == pytest.approx(
                x1 + math.sqrt(gap), abs=1e-12
            )

    def test_lower_bound_L(self, ctx_quarter, rng):
        for _ in range(200):
            x1 = float(rng.uniform(-4, 2))
            gap = float(rng.uniform(0, 1))
            L = x1 + float(rng.uniform(0, 3))
            assert eval_A(OmegaPoint(x1, x1 * x1 + gap), L, ctx_quarter) >= L - 1e-12


class TestTraces:
    def test_b_values(self, ctx_quarter):
        assert eval_b(0.0, ctx_quarter) == pytest.approx(1.0, abs=1e-15)
        assert eval_b(-1.5, ctx_quarter) == pytest.approx(0.25, abs=1e-14)
        assert eval_b(-0.3, ctx_quarter) == pytest.approx(eval_f(0.7), abs=1e-15)

    def test_b_against_strip_evaluation(self, ctx_quarter):
        ctx = ctx_quarter
        ps = np.linspace(-5 * ctx.tau, 2.0, 401)
        direct = eval_b(ps, ctx)
        via_B = eval_arrays(ps, ps * ps + 1.0, ctx)["value"]
        assert np.max(np.abs(direct - via_B)) < 1e-10

    def test_f_values(self):
        assert eval_f(1.0) == pytest.approx(1.0, abs=1e-15)
        assert eval_f(2.0) == pytest.approx((34.0 + 14.0 * math.sqrt(7.0)) / 27.0, abs=1e-14)

    def test_f_parametric_identity(self, ctx_quarter):
        # f(v(s) + 1) = s(1+s^2)/2 on the first cell's parameter range
        for s in np.linspace(ctx_quarter.sqrt_alpha, 1.0, 100):
            v = 0.5 * (3.0 * s - 1.0 / s) - 1.0
            assert eval_f(v + 1.0) == pytest.approx(0.5 * s * (1.0 + s * s), abs=1e-10)

    def test_trace_recursion(self, ctx_quarter):
        ctx = ctx_quarter
        for v in np.linspace(ctx.p(1) - 5 * ctx.tau, ctx.p(1), 100):
            assert eval_b(float(v), ctx) == pytest.approx(
                ctx.alpha * eval_b(float(v) + ctx.tau, ctx), abs=1e-10
            )

    def test_b_monotone_property(self, ctx_quarter):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        ctx = ctx_quarter

        @given(
            p=st.floats(-8.0, 2.0),
            h=st.floats(1e-9, 0.5),
        )
        @settings(max_examples=300, deadline=None)
        def check(p, h):
            lo = eval_b(p, ctx)
            hi = eval_b(p + h, ctx)
            assert lo > 0.0
            assert hi >= lo - 1e-14

        check()

    def test_b_prime_values(self, ctx_quarter):
        assert eval_b_prime(0.5, ctx_quarter) == 1.0
        assert eval_b_prime(-1.3, ctx_quarter) == pytest.approx(0.25, abs=1e-14)

    def test_b_prime_central_difference(self, ctx_quarter, rng):
        ctx = ctx_quarter
        h = 1e-5
        knots = [0.0] + [ctx.p(k) for k in range(1, 6)] + [
            -k * ctx.tau for k in range(1, 6)
        ]
        for _ in range(300):
            v = float(rng.uniform(-5 * ctx.tau, 1.5))
            if min(abs(v - q) for q in knots) < 10 * h:
                continue
            fd = (eval_b(v + h, ctx) - eval_b(v - h, ctx)) / (2 * h)
            assert fd == pytest.approx(eval_b_prime(v, ctx), rel=2e-8, abs=1e-10)

    def test_gamma1_foliation_matches_solver(self, ctx_quarter):
        # away from the corner at the origin, where z is well-conditioned
        ctx = ctx_quarter
        for v in np.linspace(-4 * ctx.tau, -1e-2, 160):
            s, u = gamma1_foliation(float(v), ctx)
            f = solve_s(OmegaPoint(float(v), float(v * v + 1.0)), ctx)
            assert s == pytest.approx(f.s, abs=1e-10)
            assert u == pytest.approx(f.u, abs=1e-9)


class TestDecay:
    def test_knots(self, ctx_quarter, ctx_half):
        assert eval_F(0.0, ctx_quarter) == 1.0
        assert eval_F(ctx_half.tau, ctx_half) == pytest.approx(0.5, abs=1e-14)
        assert eval_Phi(3 * 1.5, 2) == pytest.approx(2.0**-6, abs=1e-14)

    def test_negative_argument_rejected(self, ctx_quarter):
        with pytest.raises(DomainError):
            eval_F(-0.1, ctx_quarter)

    def test_shape_decreasing_convex(self, ctx_quarter):
        ctx = ctx_quarter
        ts = np.arange(0.0, 5.0 * ctx.tau + 1e-12, ctx.tau / 100.0)
        vals = eval_F(ts, ctx)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals[:-2] + vals[2:] - 2.0 * vals[1:-1] >= -1e-12)


class TestMajorants:
    def test_a0_at_top(self, ctx_quarter):
        for L in (-1.0, 0.0, 2.5):
            x = OmegaPoint(L, L * L + 1.0)
            assert eval_majorant(x, L, 0, ctx_quarter) == pytest.approx(L + 1.0, abs=1e-12)

    def test_a0_dominates(self, ctx_quarter, rng):
        from bmoblo.bellman import _majorant_zero, eval_A_arrays
        from bmoblo.geometry import shift_xy

        ctx = ctx_quarter
        x1, x2 = sample_strip(rng, 10_000, 5.0 * ctx.tau, ctx)
        L = x1 + rng.uniform(0.0, 3.0, x1.size)
        a_true = eval_A_arrays(x1, x2, L, ctx)
        y1, y2 = shift_xy(L, x1, x2)
        a0 = L + _majorant_zero(y1, y2)
        assert float(np.min(a0 - a_true)) >= -1e-10
        # spot-check the scalar front end agrees with the array path
        for i in range(0, 10_000, 997):
            assert eval_majorant(
                OmegaPoint(float(x1[i]), float(x2[i])), float(L[i]), 0, ctx
            ) == pytest.approx(float(a0[i]), abs=1e-12)

    def test_cut_equals_true_value_inside(self, ctx_quarter, rng):
        ctx = ctx_quarter
        for _ in range(200):
            x1 = float(rng.uniform(-3.9, 1.5))
            x = OmegaPoint(x1, x1 * x1 + float(rng.uniform(0, 1)))
            code = classify(x, ctx).index
            for k in range(max(code, 1), 7):
                assert eval_majorant(x, 0.0, k, ctx) == pytest.approx(
                    eval_A(x, 0.0, ctx), abs=1e-11
                )

    def test_cut_majorizes_and_converges(self, ctx_quarter):
        ctx = ctx_quarter
        # a point four cells deep: the cut-off majorants decrease towards A
        x1 = -3.4
        x = OmegaPoint(x1, x1 * x1 + 0.6)
        m = classify(x, ctx).index
        a_true = eval_A(x, 0.0, ctx)
        vals = [eval_majorant(x, 0.0, k, ctx) for k in range(0, m + 1)]
        assert all(v >= a_true - 1e-11 for v in vals)
        assert vals[-1] == pytest.approx(a_true, abs=1e-11)
        assert vals[0] >= vals[1] >= vals[-1] - 1e-11

    def test_bad_cut_index(self, ctx_quarter):
        with pytest.raises(DomainError):
            eval_majorant(OmegaPoint(0.0, 1.0), 0.0, -1, ctx_quarter)


def _extension_solve(w1, w2, mu, z_top):
    """Root of the segment equation continued below its regular bracket,
    found by halving z until the residual turns positive, then bisecting."""
    from bmoblo.bellman import _zx_residual

    if _zx_residual(z_top, w1, w2, mu) >= 0.0:
        return float(z_top)
    hi = z_top
    lo = 0.5 * z_top
    for _ in range(4000):
        if _zx_residual(lo, w1, w2, mu) >= 0.0:
            break
        hi = lo
        lo *= 0.5
    else:
        raise AssertionError("no positive-residual bracket endpoint found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _zx_residual(mid, w1, w2, mu) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _majorant_reference(x, L, k, ctx):
    """Cut-off majorant A_k(x; L) by _extension_solve, and the size of its terms.

    Beyond the kept cells the value is L + c (w1 - u) with c > 0; the scale
    |L| + c (|w1| + |u|) bounds what rounding can do to it.
    """
    from bmoblo.bellman import _majorant_zero
    from bmoblo.geometry import clamp_gap, classify_codes, shift_xy

    y1, y2 = shift_xy(L, x.x1, x.x2)
    y2 = float(clamp_gap(y1, y2, ctx))
    if k == 0:
        value = L + float(_majorant_zero(y1, y2))
        return value, abs(value)
    if int(classify_codes(y1, y2, ctx)[0]) <= k:
        value = L + eval_B(OmegaPoint(y1, y2), ctx).value
        return value, abs(value)
    g, odd = (k - 1) // 2, k % 2 == 1
    w1, w2 = shift_xy(-g * ctx.tau, y1, y2)
    mu = 1.0 if odd else ctx.tau + 1.0
    z = _extension_solve(w1, w2, mu, ctx.sqrt_alpha if odd else 1.0)
    u_f = 0.5 * (z - 1.0 / z) - mu
    c = ctx.alpha**g * 0.5 * ctx.alpha ** (0.0 if odd else 1.0) * (1.0 + z * z)
    return L + c * (w1 - u_f), abs(L) + c * (abs(w1) + abs(u_f))


class TestMajorantReference:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_every_cut_matches_reference(self, alpha):
        # Near Gamma0 the value w1 - u cancels, so agreement is measured
        # against the size of the terms rather than of the value.
        ctx = make_context(alpha)
        for x1 in np.linspace(-14.0 * ctx.tau, -0.05, 7):
            for gap in (0.0, 0.05, 0.3, 0.7, 1.0):
                x = OmegaPoint(float(x1), float(x1 * x1 + gap))
                for k in range(classify(x, ctx).index + 1):
                    want, scale = _majorant_reference(x, 0.0, k, ctx)
                    got = eval_majorant(x, 0.0, k, ctx)
                    assert abs(got - want) <= 1e-12 * scale, (float(x1), gap, k)


def _solve_frame_reference(y1, y2, mu, z_lo, z_hi):
    """The frame solver with a fixed 80 bisection steps and np.where
    selects, as it was before the bisection learned to stop at float
    resolution and to run one point on Python floats."""
    from bmoblo.bellman import _zx_derivative, _zx_residual

    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    lo = np.broadcast_to(np.asarray(z_lo, dtype=float), y1.shape).copy()
    hi = np.broadcast_to(np.asarray(z_hi, dtype=float), y1.shape).copy()
    lo_is_root = _zx_residual(lo, y1, y2, mu) <= 0.0
    hi_is_root = _zx_residual(hi, y1, y2, mu) >= 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        take_lo = _zx_residual(mid, y1, y2, mu) >= 0.0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    z = 0.5 * (lo + hi)
    for _ in range(3):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = _zx_residual(z, y1, y2, mu) / _zx_derivative(z, y1, mu)
        step = np.where(np.isfinite(step), step, 0.0)
        z = np.clip(z - step, np.asarray(z_lo, dtype=float), np.asarray(z_hi, dtype=float))
    z = np.where(lo_is_root, np.broadcast_to(z_lo, y1.shape), z)
    z = np.where(hi_is_root & ~lo_is_root, np.broadcast_to(z_hi, y1.shape), z)
    resid = _zx_residual(z, y1, y2, mu)
    if np.any(np.abs(resid) > 1e-11):
        i = int(np.argmax(np.abs(resid)))
        raise ConvergenceError(
            f"foliation solve residual {float(np.ravel(resid)[i]):.3e} exceeds "
            f"1e-11 at folded point ({float(np.ravel(y1)[i])}, {float(np.ravel(y2)[i])})"
        )
    return z


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.fixture()
def frame_calls(monkeypatch):
    """The arguments and the outcome (z or the error) of every frame solve."""
    calls = []
    solve = bellman._solve_frame

    def recording(*args):
        try:
            z = solve(*args)
        except ConvergenceError as exc:
            calls.append((args, str(exc)))
            raise
        calls.append((args, z))
        return z

    monkeypatch.setattr(bellman, "_solve_frame", recording)
    return calls


class TestSolveFrameReference:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 1.0 / 16.0])
    def test_bitwise_equal_to_fixed_80_step_bisection(self, alpha, rng, frame_calls):
        ctx = make_context(alpha)
        x1, x2 = sample_strip(rng, 20_000, 12.0 * ctx.tau, ctx)
        x2[::7] = x1[::7] ** 2
        x2[1::7] = x1[1::7] ** 2 + 1.0
        b1, b2 = boundary_points(ctx)
        x1, x2 = np.concatenate([x1, b1]), np.concatenate([x2, b2])
        codes = np.full(x1.shape, -2)
        # Batched, regular brackets; near the tangency corners some points
        # fail the residual gate, and the reference must fail alike.
        for i in range(0, x1.size, 2048):
            c = slice(i, i + 2048)
            try:
                codes[c] = eval_arrays(x1[c], x2[c], ctx)["region"]
            except ConvergenceError:
                pass
        chain = np.flatnonzero(codes >= 1)
        # One point, regular brackets.
        for i in rng.choice(chain, 150, replace=False):
            eval_B(OmegaPoint(float(x1[i]), float(x2[i])), ctx)
        for k in (1, 2, 3, 4):
            beyond = np.flatnonzero(codes > k)
            # Batched and one-point cut brackets.
            bellman._chain(k, x1[beyond], x2[beyond], ctx, cut=True)
            for i in rng.choice(beyond, 20, replace=False):
                eval_majorant(OmegaPoint(float(x1[i]), float(x2[i])), 0.0, k, ctx)
        sizes = [np.size(args[0]) for args, _ in frame_calls]
        assert min(sizes) == 1 and max(sizes) > 1000
        for args, got in frame_calls:
            try:
                want = _solve_frame_reference(*args)
            except ConvergenceError as exc:
                want = str(exc)
            if isinstance(want, str) or isinstance(got, str):
                assert got == want
            else:
                assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 1.0 / 16.0])
    def test_eval_B_equals_batch_entry(self, alpha, rng):
        ctx = make_context(alpha)
        x1, x2 = sample_strip(rng, 400, 10.0 * ctx.tau, ctx)
        x2[::5] = x1[::5] ** 2
        x2[1::5] = x1[1::5] ** 2 + 1.0
        out = eval_arrays(x1, x2, ctx)
        assert np.count_nonzero(out["region"] >= 1) > 150
        for i in range(x1.size):
            b = eval_B(OmegaPoint(float(x1[i]), float(x2[i])), ctx)
            got = _bits([b.value, b.grad1, b.grad2])
            want = _bits([out["value"][i], out["grad1"][i], out["grad2"][i]])
            assert np.array_equal(got, want), (x1[i], x2[i])
            assert b.underflow == out["underflow"][i]


class TestMongeAmpere:
    def test_degenerate_hessian_interior(self, ctx_quarter, rng):
        from bmoblo.concavity import hessian_grid

        ctx = ctx_quarter
        x1 = rng.uniform(-5.0 * ctx.tau, -0.1, 3000)
        gap = rng.uniform(0.08, 0.92, x1.size)
        x2 = x1 * x1 + gap
        b11, b22, b12, ok = hessian_grid(x1, x2, ctx)
        out = eval_arrays(x1, x2, ctx)
        # The degenerate-Hessian identity is a statement about interior
        # points; near the tangency corners on the upper parabola the higher
        # derivatives blow up and the |x1|-scaled step loses accuracy.
        k = np.round(-x1 / ctx.tau)
        corner = np.hypot(x1 + k * ctx.tau, gap - 1.0) < 0.2
        chain = ok & (out["region"] >= 1) & ~corner
        res = np.abs(b11[chain] * b22[chain] - b12[chain] ** 2)
        tol = 1e-4 * (np.abs(b11[chain] * b22[chain]) + 1e-8)
        assert np.all(res <= tol)
        assert np.all(b11[ok] <= 1e-6)
        assert np.all(b22[ok] <= 1e-6)
