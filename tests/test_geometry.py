import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmoblo import geometry
from bmoblo.errors import DomainError
from bmoblo.geometry import (
    OmegaPoint,
    RegionId,
    clamp_gap,
    classify,
    classify_codes,
    envelope_point,
    make_context,
    region_inequalities,
    shift,
)

from conftest import boundary_points, sample_strip


class TestContext:
    def test_quarter_constants(self):
        ctx = make_context(0.25)
        assert ctx.tau == pytest.approx(1.5, abs=1e-15)
        assert ctx.p0 == pytest.approx(0.25, abs=1e-15)
        assert ctx.p(1) == pytest.approx(-1.25, abs=1e-15)
        # p_1 also equals (3/2) sqrt(a) - 1/(2 sqrt(a)) - 1
        a = 0.25
        assert ctx.p(1) == pytest.approx(
            1.5 * math.sqrt(a) - 0.5 / math.sqrt(a) - 1.0, abs=1e-15
        )

    def test_half_constants(self):
        ctx = make_context(0.5)
        assert ctx.tau == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.6, 0.0, -1.0, 1.5])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(DomainError):
            make_context(alpha)

    def test_knots_strictly_decreasing(self, ctx_quarter):
        ps = [ctx_quarter.p(k) for k in range(8)]
        assert all(a > b for a, b in zip(ps, ps[1:]))


class TestShift:
    def test_identity(self):
        x = shift(0.0, OmegaPoint(-1.0, 1.5))
        assert (x.x1, x.x2) == (-1.0, 1.5)

    def test_example_maps_gamma1_to_gamma1(self):
        x = shift(2.0, OmegaPoint(0.0, 1.0))
        assert (x.x1, x.x2) == (-2.0, 5.0)
        assert x.x2 == x.x1 * x.x1 + 1.0

    @given(
        a=st.floats(-20, 20),
        x1=st.floats(-10, 10),
        gap=st.floats(0, 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_group_property_and_gap_preservation(self, a, x1, gap):
        x = OmegaPoint(x1, x1 * x1 + gap)
        z = shift(a, x)
        y = shift(-a, z)
        round_scale = max(1.0, abs(z.x2), abs(2.0 * a * z.x1), a * a)
        assert y.x1 == pytest.approx(x.x1, abs=4 * math.ulp(max(1.0, abs(a), abs(x1))))
        assert y.x2 == pytest.approx(x.x2, abs=8 * math.ulp(round_scale))
        # 4 ulps at the scale of the intermediates of the shift formula
        scale = max(1.0, abs(x.x2), abs(2.0 * a * x.x1), a * a, z.x1 * z.x1)
        assert abs((z.x2 - z.x1 * z.x1) - gap) <= 4 * math.ulp(scale)


class TestClassify:
    def test_plus(self, ctx_quarter):
        assert classify(OmegaPoint(0.5, 0.5), ctx_quarter) == RegionId.plus()

    def test_zero(self, ctx_quarter):
        assert classify(OmegaPoint(-0.5, 0.5), ctx_quarter) == RegionId.zero()

    def test_tangency_tie_break(self, ctx_quarter):
        # (-1.5, 3.25) sits on the tangent trajectory separating Omega_2
        # from Omega_3; the smaller index wins.
        assert classify(OmegaPoint(-1.5, 3.25), ctx_quarter) == RegionId.omega(2)

    def test_ell1_tie_break(self, ctx_quarter):
        assert classify(OmegaPoint(-0.5, 1.0), ctx_quarter) == RegionId.zero()

    def test_chord_tie_break(self, ctx_quarter):
        p1 = ctx_quarter.p(1)
        x = OmegaPoint(p1, p1 * p1 + 1.0)
        assert classify(x, ctx_quarter) == RegionId.omega(1)

    def test_outside_raises(self, ctx_quarter):
        with pytest.raises(DomainError):
            classify(OmegaPoint(0.0, 2.5), ctx_quarter)
        with pytest.raises(DomainError):
            classify(OmegaPoint(1.0, 0.5), ctx_quarter)

    def test_corner_sliver_is_omega2(self, ctx_quarter):
        # Above the tangent line but right of the tangency abscissa: the
        # cell is capped by Gamma_1 there, still Omega_2.
        x = OmegaPoint(-1.3, 2.6632)
        assert x.x2 > ctx_quarter.tangent_line(x.x1)
        assert classify(x, ctx_quarter) == RegionId.omega(2)

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_tiling_unique_region(self, alpha, rng):
        ctx = make_context(alpha)
        x1, x2 = sample_strip(rng, 100_000, 6.0 * ctx.tau, ctx)
        codes = classify_codes(x1, x2, ctx)
        assert np.all(codes >= -1)
        # every point within tol of a region boundary satisfies both
        # adjacent regions' inequalities: spot-check chord/tangent knots.
        for k in (1, 2):
            v = ctx.p(k) if k == 1 else -ctx.tau
            x = OmegaPoint(v, v * v + 1.0)
            m = classify(x, ctx).index
            for region in (RegionId.omega(m), RegionId.omega(m + 1)):
                slacks = region_inequalities(x, region, ctx)
                assert min(slacks) >= -1e-9

    def test_quasi_periodicity_of_codes(self, ctx_quarter, rng):
        x1, x2 = sample_strip(rng, 2000, 8.0 * ctx_quarter.tau, ctx_quarter)
        codes = classify_codes(x1, x2, ctx_quarter)
        deep = codes >= 3
        g = (codes[deep] - 1) // 2
        a = -g * ctx_quarter.tau
        y1 = x1[deep] - a
        y2 = x2[deep] - 2.0 * a * x1[deep] + a * a
        folded = classify_codes(y1, y2, ctx_quarter)
        assert np.all((folded == 1) | (folded == 2))
        assert np.array_equal(folded, codes[deep] - 2 * g)


def _classify_reference(x1, x2, ctx):
    """Region codes by the scan over cell pairs from g = 0 that the
    classifier used before it learned to start at a point's own pair."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(clamp_gap(x1, x2, ctx))
    tol = ctx.tol
    code = np.full(x1.shape, -2, dtype=np.int64)
    code[x1 >= -tol] = RegionId.PLUS_INDEX
    code[(code == -2) & (x2 <= 1.0 + tol)] = RegionId.ZERO_INDEX
    remaining = code == -2
    if np.any(remaining):
        g_needed = int(np.ceil(max(0.0, -float(np.min(x1[remaining]))) / ctx.tau)) + 2
        for g in range(min(g_needed, 10**6) + 1):
            idx = np.flatnonzero(remaining)
            if idx.size == 0:
                break
            a = -g * ctx.tau
            y1, y2 = x1[idx] - a, x2[idx] - 2.0 * a * x1[idx] + a * a
            in_omega1 = (y1 <= tol) & (y2 >= 1.0 - tol) & (y2 <= ctx.chord_line(y1) + tol)
            in_omega2 = (
                (~in_omega1)
                & (y1 <= tol)
                & (y2 >= ctx.chord_line(y1) - tol)
                & ((y2 <= ctx.tangent_line(y1) + tol) | (y1 >= -ctx.tau - tol))
            )
            code[idx[in_omega1]] = 2 * g + 1
            code[idx[in_omega2]] = 2 * g + 2
            remaining[idx[in_omega1 | in_omega2]] = False
        assert not np.any(remaining)
    return code


class TestClassifyReference:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 1.0 / 16.0])
    def test_codes_match_scan_from_zero(self, alpha, rng):
        ctx = make_context(alpha)
        x1, x2 = sample_strip(rng, 50_000, 14.0 * ctx.tau, ctx)
        b1, b2 = boundary_points(ctx)
        x1, x2 = np.concatenate([x1, b1]), np.concatenate([x2, b2])
        assert np.array_equal(classify_codes(x1, x2, ctx), _classify_reference(x1, x2, ctx))

    def test_scan_length_does_not_grow_with_distance(self, ctx_half, monkeypatch):
        calls = []
        shift_xy = geometry.shift_xy

        def counting(*args):
            calls.append(1)
            return shift_xy(*args)

        monkeypatch.setattr(geometry, "shift_xy", counting)
        for x1 in (-10.0, -1e3, -1e5):
            calls.clear()
            code = classify_codes(x1, x1 * x1 + 0.5, ctx_half)[0]
            assert 1 <= len(calls) <= 3, (x1, len(calls))
            # The pair 2g+1, 2g+2 lies over [-g tau - tau - 1, -g tau].
            g = (code - 1) // 2
            assert -g * ctx_half.tau - ctx_half.tau - 1.0 <= x1 <= -g * ctx_half.tau

    def test_far_left_point_is_classified(self, ctx_half):
        # Beyond 10^6 pairs: the scan from g = 0 gave up here.
        x1 = -1e6
        code = classify_codes(x1, x1 * x1 + 0.5, ctx_half)[0]
        g = (code - 1) // 2
        assert g > 10**6
        assert -g * ctx_half.tau - ctx_half.tau - 1.0 <= x1 <= -g * ctx_half.tau


class TestClampGap:
    def test_message_names_the_inequality_of_the_named_point(self, ctx_quarter):
        # The first offending point is above the strip, a later one below it.
        x1, x2 = np.array([0.0, -0.5]), np.array([1.5, 0.1])
        with pytest.raises(DomainError, match=r"^point \(0\.0, 1\.5\) violates x2 <= x1\^2 \+ 1"):
            clamp_gap(x1, x2, ctx_quarter)
        with pytest.raises(DomainError, match=r"^point \(-0\.5, 0\.1\) violates x2 >= x1\^2"):
            clamp_gap(x1[::-1], x2[::-1], ctx_quarter)


class TestNonFinite:
    @pytest.mark.parametrize(
        "x1, x2", [(math.inf, math.inf), (math.nan, 1.0), (-1.0, math.nan), (-math.inf, 2.0)]
    )
    def test_clamp_gap_names_the_point(self, ctx_quarter, x1, x2):
        with pytest.raises(DomainError, match=r"is not finite") as exc:
            clamp_gap(np.array([-1.0, x1]), np.array([1.5, x2]), ctx_quarter)
        assert f"({x1}, {x2})" in str(exc.value)
        with pytest.raises(DomainError, match=r"is not finite"):
            classify(OmegaPoint(x1, x2), ctx_quarter)


class TestEnvelope:
    def test_omega1_at_s_equal_one(self, ctx_quarter):
        x = envelope_point(1.0, RegionId.omega(1), ctx_quarter)
        assert x.x1 == pytest.approx(0.0, abs=1e-15)
        assert x.x2 == pytest.approx(1.0, abs=1e-15)

    def test_slope_near_one(self, ctx_quarter):
        # envelope slope is -2(1-s): nearly flat just below s = 1
        s = 1.0 - 1e-4
        a = envelope_point(s, RegionId.omega(1), ctx_quarter)
        b = envelope_point(s + 5e-5, RegionId.omega(1), ctx_quarter)
        slope = (b.x2 - a.x2) / (b.x1 - a.x1)
        # tangent slope is -2(1-s); the secant must sit between the
        # endpoint tangents and vanish as s -> 1
        assert -2.0 * (1.0 - s) <= slope <= -2.0 * (1.0 - s - 5e-5)

    def test_no_envelope_for_plus(self, ctx_quarter):
        with pytest.raises(DomainError):
            envelope_point(0.9, RegionId.plus(), ctx_quarter)

    @staticmethod
    def _segment_line(ctx, s):
        """Slope/intercept of the line carrying the even-cell segment."""
        a, tau = ctx.alpha, ctx.tau
        m = 2.0 * (s / a - tau - 1.0)
        c = (
            -3.0 * s * s / (4.0 * a * a)
            + 2.0 * (tau + 1.0) * s / a
            + 0.5
            - (tau + 1.0) ** 2
            + a * a / (4.0 * s * s)
        )
        return m, c

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_omega2_envelope_external_and_tangent(self, alpha):
        # The envelope of the even-cell family is external to the strip on
        # the upper side (the tangency point sits past the segment's second
        # upper-parabola crossing), touching it only at the corner s = alpha.
        ctx = make_context(alpha)
        for t in np.linspace(0.02, 0.98, 25):
            s = float(alpha + t * (ctx.sqrt_alpha - alpha))
            x = envelope_point(s, RegionId.omega(2), ctx)
            assert x.x2 > x.x1 * x.x1 + 1.0
            # lies on the carrying line ...
            m, c = self._segment_line(ctx, s)
            assert m * x.x1 + c == pytest.approx(x.x2, abs=1e-9)
            # ... and neighboring lines intersect arbitrarily close by
            ds = 1e-7
            m2, c2 = self._segment_line(ctx, s + ds)
            x1_cross = -(c2 - c) / (m2 - m)
            assert x1_cross == pytest.approx(x.x1, abs=1e-5)
