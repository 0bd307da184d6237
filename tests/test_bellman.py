import decimal
import math
import warnings
from decimal import Decimal
from fractions import Fraction

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
    gamma1_foliation,
    solve_s,
)
from bmoblo.errors import ConvergenceError, DomainError
from bmoblo.geometry import TOL, OmegaPoint, RegionId, classify, make_context, shift

from conftest import boundary_points, sample_strip
from oracles import eval_Phi, fd_gradient, hessian_grid


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


def _slope(eta):
    """The cubic arc's z = (eta + r)/3, r = sqrt(eta^2 + 3), taken as the
    equal 1/(r - eta) for eta < 0 (all eta here are at most 1)."""
    r = np.hypot(eta, math.sqrt(3.0))
    return np.where(eta < 0.0, 1.0 / (r - eta), (eta + r) / 3.0)


def _decimal_b(p, ctx):
    """b(p) from the paper's cubic f(y) = (2y^3 + 2y^2 r + 9y + 6r)/27 in
    50-digit decimal arithmetic, on the context's float window constants
    tau and p0 (so this measures the trace, not their rounding) and the
    exact alpha^k."""
    with decimal.localcontext() as dc:
        dc.prec = 50
        P, T, alpha = Decimal(p), Decimal(ctx.tau), Decimal(ctx.alpha)
        if P >= 0:
            return P + 1
        k = int((-P / T).to_integral_value(rounding=decimal.ROUND_FLOOR))
        if P < Decimal(ctx.p0) - (k + 1) * T:
            return alpha ** (k + 1) * (P + (k + 1) * T + 1)
        y = P + k * T + 1
        r = (y * y + 3).sqrt()
        return alpha**k * (2 * y**3 + 2 * y * y * r + 9 * y + 6 * r) / 27


class TestTraces:
    @pytest.mark.parametrize("n", range(1, 31))
    def test_default_b_rows_against_decimal_cubic(self, n):
        # The rows of `table --n N --kind b`; the cubic's own sum cancels
        # for y << 0 and lost all digits by n = 30 in float arithmetic.
        ctx = make_context(2.0**-n)
        ps = np.union1d(-5 * ctx.tau + np.arange(141) * ctx.tau / 20, [0.0])
        for p, got in zip(ps.tolist(), eval_b(ps, ctx).tolist()):
            want = _decimal_b(p, ctx)
            assert abs(Decimal(got) - want) <= Decimal("1e-11") * want, p

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

    @pytest.mark.parametrize("alpha", [0.49, 0.3, 0.25, 0.1])
    def test_far_left_trace_is_zero(self, alpha):
        # b <= alpha^k and b' <= alpha^k; where alpha^k underflows, k tau is
        # inexact and p + k tau + 1 leaves its window, where f overflows.
        ctx = make_context(alpha)
        p = -np.logspace(100.0, 308.0, 200)
        with np.errstate(over="raise", invalid="raise"):
            for got in (eval_b(p, ctx), eval_b_prime(p, ctx), eval_b(-1e300, ctx)):
                assert np.all(got == 0.0) and not np.any(np.signbit(got))

    @pytest.mark.parametrize("alpha", [0.5, 0.49, 0.3, 0.1])
    def test_trace_bits_where_alpha_power_is_positive(self, alpha):
        # The windowed formulas without the underflow mask, at every p whose
        # alpha^k is positive, and a little beyond.
        ctx = make_context(alpha)
        k_last = math.floor(1075 * math.log(2) / -math.log(alpha))
        p = -np.linspace(0.0, 1.2 * (k_last + 1) * ctx.tau, 20001)[1:]
        k = np.maximum(np.floor(-p / ctx.tau), 0.0)
        ak = np.power(alpha, k)
        use_f = p >= ctx.p0 - (k + 1.0) * ctx.tau
        eta = p + k * ctx.tau + 1.0
        b = np.where(use_f, ak * eval_f(eta), ak * alpha * (p + (k + 1.0) * ctx.tau + 1.0))
        z = _slope(eta)
        b_prime = np.where(use_f, ak * z * z, ak * alpha)
        live = ak > 0.0
        assert 0 < live.sum() < p.size
        assert np.array_equal(_bits(eval_b(p, ctx)[live]), _bits(b[live]))
        assert np.array_equal(_bits(eval_b_prime(p, ctx)[live]), _bits(b_prime[live]))
        assert not np.any(eval_b(p, ctx)[~live])

    @pytest.mark.parametrize("alpha", [0.5, 0.49, 0.3])
    def test_far_left_gamma1_foliation(self, alpha):
        # Where alpha^k underflows, the affine arc's c = v + (k+1) tau + 1
        # leaves its window as eta does: c * c overflowed and 1 / z divided
        # by zero.
        ctx = make_context(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in (-1e300, -np.logspace(100.0, 308.0, 200)):
                s, u = gamma1_foliation(v, ctx)
                assert np.all(s == 0.0) and np.all(np.isfinite(u))

    @pytest.mark.parametrize("alpha", [0.5, 0.49, 0.3, 0.1])
    def test_gamma1_foliation_bits_where_alpha_power_is_positive(self, alpha):
        # The closed forms without the underflow mask.
        ctx = make_context(alpha)
        k_last = math.floor(1075 * math.log(2) / -math.log(alpha))
        v = -np.linspace(0.0, 1.2 * (k_last + 1) * ctx.tau, 20001)[1:]
        k = np.maximum(np.floor(-v / ctx.tau), 0.0)
        ak = np.power(alpha, k)
        live = ak > 0.0
        v, k, ak = v[live], k[live], ak[live]
        use_f = v >= ctx.p0 - (k + 1.0) * ctx.tau
        eta = v + k * ctx.tau + 1.0
        z_odd = _slope(eta)
        c = v + ((k + 1.0) * ctx.tau + 1.0)
        z_even = c + np.sqrt(np.maximum(c * c - 1.0, 0.0))
        s, u = gamma1_foliation(v, ctx)
        assert np.array_equal(_bits(s), _bits(np.where(use_f, ak * z_odd, ak * alpha * z_even)))
        assert np.array_equal(_bits(u), _bits(np.where(use_f, v - z_odd, v - 1.0 / z_even)))

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
    y2 = float(clamp_gap(y1, y2))
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


def _tangency_corners(x1, x2, ctx):
    """Mask of the points within 2e-9 of a corner (-j tau, (j tau)^2 + 1), j >= 1."""
    j = np.round(-x1 / ctx.tau)
    gap = x2 - x1 * x1
    return (j >= 1) & (np.abs(x1 + j * ctx.tau) <= 2e-9) & (np.abs(gap - 1.0) <= 2e-9)


def _exact_misses(y1, y2, mu, z_lo, z_hi, z):
    """Indices where z is not within w of a root of the exact residual.

    Multiplied by 4 z^2 the residual is the quartic
    -3 z^4 + 8 (y1 + mu) z^3 + c2 z^2 + 1, c2 = 2 - 4 mu^2 - 8 mu y1 - 4 y2,
    evaluated here in exact rational arithmetic at the float inputs; it must
    change sign across [z - w, z + w].  A z snapped to a bracket end claims
    only that the root lies at or beyond it (the folded inputs can put it
    outside by rounding), so there the exact residual must keep its outer
    sign at z + w (z = z_lo) or z - w (z = z_hi).

    The window is w = 4 ulp(z) + 4 eps sum|terms of r| / |r'(z)|: how far
    rounding the residual lets a float solver stray from a root of that
    conditioning.  Near the tangency corners, where the root is close to
    triple, r'(z) vanishes, and w takes the smallest of the radii at which
    the first, second or third Taylor term of r alone reaches the rounding
    floor (r'' = 1.5 (z^-4 - 1), r''' = -6 z^-5); a first-order window there
    would reach the quartic's other roots.
    """
    terms = (np.abs(2.0 * (z - mu) * y1) + 0.75 * z * z + np.abs(2.0 * mu * z) + 0.5
             + mu * mu + 0.25 / (z * z) + np.abs(y2))
    floor = 4.0 * np.finfo(float).eps * terms
    with np.errstate(divide="ignore"):
        radius = np.minimum.reduce([
            floor / np.abs(2.0 * y1 - 1.5 * z + 2.0 * mu - 0.5 / (z * z * z)),
            np.sqrt(2.0 * floor / np.abs(1.5 / z**4 - 1.5)),
            np.cbrt(floor * z**5),
        ])
    w = 4.0 * np.spacing(z) + radius
    misses = []
    for i in range(z.size):
        p, q, m, c, d = (Fraction(float(v[i])) for v in (y1, y2, mu, z, w))
        c3 = 8 * (p + m)
        c2 = 2 - 4 * m * m - 8 * m * p - 4 * q

        def quartic(t):
            return ((-3 * t + c3) * t + c2) * t * t + 1

        below, above = quartic(c - d), quartic(c + d)
        if not (below * above <= 0 or (z[i] == z_lo[i] and above <= 0)
                or (z[i] == z_hi[i] and below >= 0)):
            misses.append(i)
    return misses


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
    def test_exact_residual_changes_sign_near_z(self, alpha, rng, frame_calls):
        ctx = make_context(alpha)
        x1, x2 = sample_strip(rng, 1500, 12.0 * ctx.tau, ctx)
        x2[::7] = x1[::7] ** 2
        x2[1::7] = x1[1::7] ** 2 + 1.0
        b1, b2 = boundary_points(ctx)
        corner = _tangency_corners(b1, b2, ctx)
        x1, x2 = np.concatenate([x1, b1[corner]]), np.concatenate([x2, b2[corner]])
        # Batched and one-point, regular brackets.
        codes = eval_arrays(x1, x2, ctx)["region"]
        chain = np.flatnonzero(codes >= 1)
        for i in rng.choice(chain, 60, replace=False):
            eval_B(OmegaPoint(float(x1[i]), float(x2[i])), ctx)
        for k in (1, 2, 3, 4):
            beyond = np.flatnonzero(codes > k)
            # Batched and one-point cut brackets.
            bellman._chain(k, x1[beyond], x2[beyond], ctx, cut=True)
            for i in rng.choice(beyond, 10, replace=False):
                eval_majorant(OmegaPoint(float(x1[i]), float(x2[i])), 0.0, k, ctx)
        sizes = [args[0].size for args, _ in frame_calls]
        assert min(sizes) == 1 and max(sizes) > 1000
        solves = 0
        for args, z in frame_calls:
            assert not isinstance(z, str), z
            assert _exact_misses(*args, z) == [], (args, z)
            solves += z.size
        assert solves > 2000

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


class TestBoundaryPoints:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 1.0 / 16.0])
    def test_every_boundary_point_evaluates(self, alpha, rng):
        ctx = make_context(alpha)
        x1, x2 = boundary_points(ctx)
        on_gamma1 = np.abs(x2 - x1 * x1 - 1.0) <= TOL
        value = eval_arrays(x1, x2, ctx)["value"]
        assert np.all(np.isfinite(value))
        assert np.max(np.abs(value[on_gamma1] - eval_b(x1[on_gamma1], ctx))) <= 1e-12
        # One point at a time: every distinct tangency corner point and a
        # seeded sample of the rest.
        _, first = np.unique(np.stack([x1, x2]), axis=1, return_index=True)
        corner = _tangency_corners(x1[first], x2[first], ctx)
        picked = np.concatenate([first[corner], rng.choice(first[~corner], 200, replace=False)])
        for i in picked:
            b = eval_B(OmegaPoint(float(x1[i]), float(x2[i])), ctx)
            assert b.value == value[i]
            if on_gamma1[i]:
                assert abs(b.value - eval_b(float(x1[i]), ctx)) <= 1e-12


class TestMongeAmpere:
    def test_degenerate_hessian_interior(self, ctx_quarter, rng):
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


def _newton_reference(lo, hi, f_lo, f_hi, y1, y2, mu):
    """The full-width safeguarded Newton that _newton replaced: every pass
    runs over the whole chunk until its slowest point retires, and a
    retired point stays frozen."""
    a = 2.0 * (y1 + mu)
    b = 0.5 - mu * mu - 2.0 * mu * y1 - y2
    lo, hi = lo.copy(), hi.copy()
    z = lo + f_lo * (hi - lo) / (f_lo - f_hi)
    step = hi - lo
    active = (f_lo > 0.0) & (f_hi < 0.0)
    for _ in range(bellman._MAX_PASSES):
        t = 0.75 * z
        w = 0.25 / (z * z)
        p = a - t
        r = p * z + w + b
        up = r >= 0.0
        np.copyto(lo, z, where=up)
        np.copyto(hi, z, where=~up)
        newton = r / (p - t - (w + w) / z)
        z_new = z - newton
        keep = (lo <= z_new) & (z_new <= hi) & (np.abs(newton) <= 0.5 * step)
        z_new = np.where(keep, z_new, 0.5 * (lo + hi))
        step = np.abs(z_new - z)
        np.copyto(z, z_new, where=active)
        active &= step > bellman._STEP_RTOL * z
        if not active.any():
            break
    return z


def _eval_arrays_reference(x1, x2, ctx):
    """eval_arrays as it was before each region was gathered once by index
    and the input split into blocks: boolean masks over the whole input,
    with x1[plus] gathered three times and the chain coordinates twice."""
    from bmoblo.geometry import clamp_gap, classify_codes

    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(clamp_gap(x1, x2))
    code = classify_codes(x1, x2, ctx)
    value = np.empty_like(x1)
    grad1 = np.empty_like(x1)
    grad2 = np.empty_like(x1)
    seg = {name: np.full_like(x1, np.nan) for name in ("s", "z", "u", "v")}
    under = np.zeros(x1.shape, dtype=bool)
    plus = code == RegionId.PLUS_INDEX
    if np.any(plus):
        gap = x2[plus] - x1[plus] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            sig = np.sqrt(gap)
            value[plus] = x1[plus] + sig
            grad1[plus] = 1.0 - x1[plus] / sig
            grad2[plus] = 0.5 / sig
    zero = code == RegionId.ZERO_INDEX
    if np.any(zero):
        with np.errstate(divide="ignore"):
            rt = np.sqrt(x2[zero])
            value[zero] = x1[zero] + rt
            grad1[zero] = 1.0
            grad2[zero] = 0.5 / rt
    chain = code >= 1
    if np.any(chain):
        z, s, u, v, val, under[chain] = bellman._chain(code[chain], x1[chain], x2[chain], ctx)
        on_gamma0 = (x2[chain] - x1[chain] ** 2) <= TOL
        value[chain] = np.where(on_gamma0, 0.0, val)
        grad1[chain] = -u * s
        grad2[chain] = 0.5 * s
        for name, arr in zip("szuv", (s, z, u, v)):
            seg[name][chain] = arr
    return {"value": value, "grad1": grad1, "grad2": grad2, "region": code, **seg,
            "underflow": under}


def _same_bits(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _outcome(evaluate, x1, x2, ctx):
    """The fields of evaluate(x1, x2, ctx), or the text of its ConvergenceError."""
    try:
        return evaluate(x1, x2, ctx)
    except ConvergenceError as exc:
        return str(exc)


def _same_outcome(got, want):
    if isinstance(want, str):
        return got == want
    return (not isinstance(got, str) and got.keys() == want.keys()
            and all(_same_bits(got[name], want[name]) for name in want))


class TestEvalArraysReference:
    """The compacting _newton and the index-gathering eval_arrays keep every
    bit of the full-width solve and the mask-gathering body."""

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 1.0 / 16.0, 0.3])
    def test_every_field_bit_equal(self, alpha, rng, monkeypatch):
        ctx = make_context(alpha)
        x1, x2 = sample_strip(rng, 4000, 12.0 * ctx.tau, ctx)
        x2[::7] = x1[::7] ** 2
        x2[1::7] = x1[1::7] ** 2 + 1.0
        b1, b2 = boundary_points(ctx)
        x1, x2 = np.concatenate([x1, b1]), np.concatenate([x2, b2])
        # Far to the left, down to x1 = -1e6, where the deepest cells
        # underflow; on Gamma1 there some points fail the absolute residual
        # gate, and must fail it alike.  As a batch and one at a time.
        f1 = -np.geomspace(1.0, 1e6, 60)
        f2 = f1 * f1 + np.where(np.arange(f1.size) % 4 == 0, 1.0, rng.uniform(0.0, 1.0, f1.size))
        far = [(f1, f2)] + [(f1[i:i + 1], f2[i:i + 1]) for i in range(f1.size)]
        got = [_outcome(eval_arrays, *pts, ctx) for pts in [(x1, x2)] + far]
        # Cut brackets, batched and one point at a time.
        codes = got[0]["region"]
        cut = {k: bellman._chain(k, x1[codes > k], x2[codes > k], ctx, cut=True)
               for k in (1, 2)}
        picked = rng.choice(np.flatnonzero(codes > 3), 15, replace=False)
        majorants = [eval_majorant(OmegaPoint(float(x1[i]), float(x2[i])), 0.3, k, ctx)
                     for i in picked for k in (1, 2, 3)]
        monkeypatch.setattr(bellman, "_newton", _newton_reference)
        want = [_outcome(_eval_arrays_reference, *pts, ctx) for pts in [(x1, x2)] + far]
        assert all(_same_outcome(g, w) for g, w in zip(got, want))
        alone = [w for w in want[2:] if not isinstance(w, str)]
        assert sum(w["underflow"][0] for w in alone) > 5
        assert len(alone) > 30
        for k, arrays in cut.items():
            ref = bellman._chain(k, x1[codes > k], x2[codes > k], ctx, cut=True)
            assert all(_same_bits(g, w) for g, w in zip(arrays, ref)), k
        ref = [eval_majorant(OmegaPoint(float(x1[i]), float(x2[i])), 0.3, k, ctx)
               for i in picked for k in (1, 2, 3)]
        assert _same_bits(np.array(majorants), np.array(ref))

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_slow_corner_roots_in_an_easy_chunk(self, alpha, rng, monkeypatch):
        # The near-triple roots at the tangency corners take 25 and more
        # passes; the easy points around them retire after a handful, so the
        # working arrays are compacted many times around the slow ones.
        ctx = make_context(alpha)
        b1, b2 = np.unique(np.stack(boundary_points(ctx)), axis=1)
        corner = _tangency_corners(b1, b2, ctx)
        n = np.count_nonzero(corner)
        x1 = rng.uniform(-10.0 * ctx.tau, -0.2, bellman._SOLVE_CHUNK - n)
        x2 = x1 * x1 + rng.uniform(0.0, 1.0, x1.size)
        x1, x2 = np.concatenate([b1[corner], x1]), np.concatenate([b2[corner], x2])
        calls = []
        newton = bellman._newton

        def recording(*args):
            calls.append((args, newton(*args)))
            return calls[-1][1]

        monkeypatch.setattr(bellman, "_newton", recording)
        eval_arrays(x1, x2, ctx)
        (args, z), = [c for c in calls if c[0][0].size > 1]
        assert z.size > bellman._SOLVE_CHUNK // 2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            assert _same_bits(z, _newton_reference(*args))
            for i in np.concatenate([np.arange(n), rng.choice(np.arange(n, z.size), 200)]):
                alone = newton(*(a[i:i + 1] for a in args))
                assert _same_bits(alone, z[i:i + 1]), i


class TestEvalArraysBlocks:
    """An input longer than _SOLVE_CHUNK is evaluated one block at a time."""

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_every_field_bit_equal(self, alpha, rng):
        ctx = make_context(alpha)
        chunk = bellman._SOLVE_CHUNK
        n = 2 * chunk + 123
        b1, b2 = boundary_points(ctx)
        pick = rng.choice(b1.size, 3000, replace=False)
        # Far to the left, where the deepest cells underflow.
        f1 = -np.geomspace(1.0, 1e6, 200)
        f2 = f1 * f1 + rng.uniform(0.05, 0.95, f1.size)
        x1, x2 = sample_strip(rng, n - pick.size - f1.size, 12.0 * ctx.tau, ctx)
        x2[::7] = x1[::7] ** 2
        x2[1::7] = x1[1::7] ** 2 + 1.0
        x1 = np.concatenate([x1, b1[pick], f1])
        x2 = np.concatenate([x2, b2[pick], f2])
        order = rng.permutation(n)
        x1, x2 = x1[order], x2[order]
        # Block edges: an underflowing point, a Gamma1 and a Gamma0 chain
        # point, the tangency point -tau on Gamma1 and a point of Omega_0.
        edges = [chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, n - 1]
        x1[edges] = [-1e6, -2.5 * ctx.tau, -3.5 * ctx.tau, -ctx.tau, -0.5]
        x2[edges] = [1e12 + 0.5, x1[chunk] ** 2 + 1.0, x1[2 * chunk - 1] ** 2,
                     ctx.tau ** 2 + 1.0, 0.5]
        got = eval_arrays(x1, x2, ctx)
        assert _same_outcome(got, _eval_arrays_reference(x1, x2, ctx))
        assert set(range(-1, 25)) <= set(got["region"].tolist())
        assert got["underflow"][chunk - 1] and np.count_nonzero(got["underflow"]) > 20
        for i in np.concatenate([edges, rng.choice(n, 150, replace=False)]):
            alone = eval_arrays(x1[i:i + 1], x2[i:i + 1], ctx)
            assert all(_same_bits(alone[name], got[name][i:i + 1]) for name in got), i

    def test_first_failing_block_names_its_worst_point(self, rng):
        ctx = make_context(0.1)
        chunk = bellman._SOLVE_CHUNK
        x1, x2 = sample_strip(rng, 2 * chunk + 123, 12.0 * ctx.tau, ctx)
        # Far-left Gamma1 points whose folded residual misses the gate: the
        # reproducer in block 2 and a worse one in block 3.
        x1[chunk + 5], x2[chunk + 5] = -793.9095916748047, 630293.4397532551
        x1[2 * chunk + 7] = -2356.0280197951406
        x2[2 * chunk + 7] = x1[2 * chunk + 7] ** 2 + 1.0
        with pytest.raises(ConvergenceError) as whole:
            eval_arrays(x1, x2, ctx)
        block = slice(chunk, 2 * chunk)
        with pytest.raises(ConvergenceError) as alone:
            eval_arrays(x1[block], x2[block], ctx)
        assert str(whole.value) == str(alone.value)
        assert "residual -1.376e-11" in str(whole.value)
        with pytest.raises(ConvergenceError, match="residual -3.874e-10"):
            eval_arrays(x1[2 * chunk:], x2[2 * chunk:], ctx)
        # Every point is checked against the strip before any block runs.
        x2[-1] = x1[-1] ** 2 + 1.5
        with pytest.raises(DomainError, match="violates x2 <= x1"):
            eval_arrays(x1, x2, ctx)


def _strip_points(ctx, rng, n):
    """n points of the strip: uniform on |x1| <= 12 tau, far left down to
    x1 = -1e5, on Gamma0 and Gamma1, and boundary_points (on and within
    1e-13 .. 1e-9 of the region boundaries).  Far-left Gamma1 points come
    last, 2,000 of them: about half fail the solver's residual gate."""
    b1, b2 = boundary_points(ctx)
    far = -np.geomspace(1.0, 1e5, n // 5)
    x1, x2 = sample_strip(rng, n - far.size - b1.size - 2000, 12.0 * ctx.tau, ctx)
    x2[::7] = x1[::7] ** 2
    x2[1::7] = x1[1::7] ** 2 + 1.0
    gap = np.where(np.arange(far.size) % 5 == 0, 0.0, rng.uniform(0.0, 1.0, far.size))
    x1 = np.concatenate([x1, far, b1])
    x2 = np.concatenate([x2, far * far + gap, b2])
    order = rng.permutation(x1.size)
    f1 = -np.geomspace(1.0, 1e5, 2000)
    return np.concatenate([x1[order], f1]), np.concatenate([x2[order], f1 * f1 + 1.0])


class TestOneClamp:
    """eval_arrays clamps its input once; the region search takes the
    clamped points as they are."""

    @pytest.mark.parametrize("n", [1, 10_000])
    def test_one_clamp_per_call(self, n, monkeypatch):
        from bmoblo import geometry

        ctx = make_context(0.25)
        x1, x2 = sample_strip(np.random.default_rng(1), n, 6.0 * ctx.tau, ctx)
        x1[0], x2[0] = -3.0, 9.5
        calls = []
        clamp_gap = geometry.clamp_gap

        def counting(*args):
            calls.append(np.size(args[0]))
            return clamp_gap(*args)

        monkeypatch.setattr(geometry, "clamp_gap", counting)
        monkeypatch.setattr(bellman, "clamp_gap", counting)
        out = eval_arrays(x1, x2, ctx)
        assert calls == [n]
        assert out["region"][0] >= 1

    # solve_s, and eval_majorant at k = 0, in a kept cell and beyond the
    # cut, at a point of Omega_3: one clamp each and at most one region search.
    @pytest.mark.parametrize(
        "call,searches",
        [
            (lambda x, ctx: solve_s(x, ctx), 1),
            (lambda x, ctx: eval_majorant(x, 0.0, 0, ctx), 0),
            (lambda x, ctx: eval_majorant(x, 0.0, 5, ctx), 1),
            (lambda x, ctx: eval_majorant(x, 0.0, 1, ctx), 1),
        ],
        ids=["solve_s", "majorant_k0", "majorant_kept", "majorant_cut"],
    )
    def test_one_clamp_per_scalar_call(self, call, searches, monkeypatch):
        from bmoblo import geometry

        ctx = make_context(0.25)
        x = OmegaPoint(-3.0, 9.5)
        assert geometry.classify(x, ctx) == RegionId.omega(3)
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        clamp = counting("clamp", geometry.clamp_gap)
        monkeypatch.setattr(geometry, "clamp_gap", clamp)
        monkeypatch.setattr(bellman, "clamp_gap", clamp)
        monkeypatch.setattr(geometry, "classify_codes",
                            counting("classify_codes", geometry.classify_codes))
        monkeypatch.setattr(bellman, "_classify_clamped",
                            counting("search", geometry._classify_clamped))
        call(x, ctx)
        assert sorted(calls) == ["clamp"] + ["search"] * searches

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 1.0 / 16.0])
    def test_every_field_bit_equal_to_a_second_clamp(self, alpha, monkeypatch):
        # Before, the region search clamped the clamped points again;
        # clamp_gap is idempotent, so no x2 and no output bit moves.
        from bmoblo import geometry

        ctx = make_context(alpha)
        x1, x2 = _strip_points(ctx, np.random.default_rng(29), 250_000)
        chunk, last = bellman._SOLVE_CHUNK, x1.size - 2000
        blocks = ([slice(i, min(i + chunk, last)) for i in range(0, last, chunk)]
                  + [slice(i, i + 50) for i in range(last, x1.size, 50)])
        got = [_outcome(eval_arrays, x1[c], x2[c], ctx) for c in blocks]
        monkeypatch.setattr(bellman, "_classify_clamped", geometry.classify_codes)
        want = [_outcome(eval_arrays, x1[c], x2[c], ctx) for c in blocks]
        assert all(_same_outcome(g, w) for g, w in zip(got, want))
        assert not any(isinstance(w, str) for w in want[:-40])
        assert 0 < sum(isinstance(w, str) for w in want[-40:]) < 40
        once = np.atleast_1d(geometry.clamp_gap(x1, x2))
        assert _same_bits(np.atleast_1d(geometry.clamp_gap(x1, once)), once)
