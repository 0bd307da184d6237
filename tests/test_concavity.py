import math
import warnings

import numpy as np
import pytest

from bmoblo.bellman import _arc_slope, _b_window, eval_b, eval_b_prime, gamma1_foliation
from bmoblo.concavity import (
    FAMILIES,
    _draw_chords,
    _dirder_margins_vec,
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


class TestConstructedChords:
    """Chords built inside the strip: checks that hold for any law of them."""

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 2.0**-10])
    def test_every_chord_stays_in_the_strip(self, alpha):
        ctx = make_context(alpha)
        window = 6.0 * ctx.tau
        xm1, xm2, xp1, xp2, beta = _draw_chords(np.random.default_rng(3), 100_000, window, ctx)
        m1 = (1.0 - beta) * xm1 + beta * xp1
        m2 = (1.0 - beta) * xm2 + beta * xp2
        for x1, x2 in ((xm1, xm2), (xp1, xp2), (m1, m2)):
            gap = x2 - x1 * x1
            assert gap.min() >= 0.0 and gap.max() <= 1.0 + 1e-12
        assert np.all(np.abs(xm1) <= window)
        assert np.all((alpha <= beta) & (beta <= 0.5))

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_argmins_reproduce_their_margins(self, alpha):
        ctx = make_context(alpha)
        rep = sweep(ctx, 20_000, seed=5)
        a = rep.argmins
        one_point = {
            "chords": chord_margin(OmegaPoint(*a["chords"].xminus),
                                   OmegaPoint(*a["chords"].xplus), a["chords"].beta, ctx),
            "dirder": check_C2(a["dirder"].xminus[0], a["dirder"].xplus[0], ctx),
            "chord_H": chord_H(a["chord_H"].xminus[0], a["chord_H"].xplus[0], ctx),
        }
        for fam in FAMILIES:
            assert a[fam].margin == rep.min_margins[fam]
            assert abs(one_point[fam] - rep.min_margins[fam]) <= 1e-15, fam


def _eval_b_prime_reference(v, ctx):
    """eval_b_prime with its own window split, as before the trace helpers
    shared one pass."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.ones_like(v)
    neg = ~(v >= 0.0)
    k, use_f, ak, eta = _b_window(v[neg], ctx)
    z = _arc_slope(eta)
    out[neg] = np.where(use_f, ak * z * z, ak * ctx.alpha)
    return out


def _gamma1_foliation_reference(v, ctx):
    """gamma1_foliation with its own window split, as before the trace
    helpers shared one pass."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    pos = v >= 0.0
    z = _arc_slope(v + 1.0)
    s, u = np.where(pos, z, 0.0), np.where(pos, v - z, 0.0)
    vn = v[~pos]
    k, use_f, ak, eta = _b_window(vn, ctx)
    z_odd = _arc_slope(eta)
    c = np.where(ak > 0.0, vn + ((k + 1.0) * ctx.tau + 1.0), 1.0)
    z_even = c + np.sqrt(np.maximum(c * c - 1.0, 0.0))
    s[~pos] = np.where(use_f, ak * z_odd, ak * ctx.alpha * z_even)
    u[~pos] = np.where(use_f, vn - z_odd, vn - 1.0 / z_even)
    return s, u


def _trace_points(ctx, rng, n):
    """n abscissas of the upper parabola: uniform on [-6 tau, 2], far left
    out to where alpha^k underflows, 0, -0.0 and the knots -k tau, p_k."""
    k = np.arange(60.0)
    k_under = 1075.0 * math.log(2.0) / -math.log(ctx.alpha)
    special = np.concatenate([[0.0, -0.0], -k * ctx.tau, ctx.p0 - k * ctx.tau,
                              -(k_under + k) * ctx.tau])
    far = -rng.uniform(0.0, 1.5 * k_under * ctx.tau, n // 4)
    near = rng.uniform(-6.0 * ctx.tau, 2.0, n - far.size - special.size)
    return np.concatenate([special, far, near])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestOneTracePass:
    """The trace functions and the directional margins keep every bit of
    the form that ran the window split once per function."""

    # At 2^-60, tau = 2^30, so the affine arcs take roots of c up to 2^30,
    # where gamma1_foliation doubles c in place of forming c * c.
    ALPHAS = [0.5, 0.25, 0.1, 2.0**-10, 2.0**-20, 2.0**-60]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_trace_functions_bit_equal(self, alpha):
        ctx = make_context(alpha)
        v = _trace_points(ctx, np.random.default_rng(11), 100_000)
        assert np.array_equal(_bits(eval_b_prime(v, ctx)), _bits(_eval_b_prime_reference(v, ctx)))
        for got, want in zip(gamma1_foliation(v, ctx), _gamma1_foliation_reference(v, ctx)):
            assert np.array_equal(_bits(got), _bits(want))
        assert np.count_nonzero(eval_b_prime(v, ctx) == 0.0) > 1000

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_dirder_margins_bit_equal(self, alpha):
        ctx = make_context(alpha)
        rng = np.random.default_rng(13)
        p = _trace_points(ctx, rng, 100_000)
        q = np.concatenate([p[:200], p[200:] + rng.uniform(-ctx.tau, ctx.tau, p.size - 200)])
        q[:100] = p[:100] + ctx.tau
        sp, _ = _gamma1_foliation_reference(np.minimum(p, 0.0), ctx)
        sq, _ = _gamma1_foliation_reference(np.minimum(q, 0.0), ctx)
        bx2_p = 0.5 * np.where(p >= 0.0, 1.0, sp)
        bx2_q = 0.5 * np.where(q >= 0.0, 1.0, sq)
        core = (_eval_b_prime_reference(p, ctx) - _eval_b_prime_reference(q, ctx)
                + (q - p) * (bx2_p + bx2_q))
        assert np.array_equal(_bits(_dirder_margins_vec(p, q, ctx)), _bits((q - p) * core))
        for i in range(0, 200, 7):
            assert _bits(check_C2(p[i], q[i], ctx)) == _bits(((q - p) * core)[i])

    def test_b_prime_at_subnormal_alpha_is_quiet(self):
        # c * c overflows on the affine arcs once alpha < 2^-1022; b' needs
        # no c, and stays what the window formulas give.
        ctx = make_context(2.0**-1060)
        v = np.array([-1.0, -0.5 * ctx.tau, -0.999 * ctx.tau, -1.5 * ctx.tau, -1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            want = _eval_b_prime_reference(v, ctx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_bits(eval_b_prime(v, ctx)), _bits(want))


    def test_gamma1_foliation_at_subnormal_alpha_is_quiet(self):
        # From c = 2^27 on the affine-arc root is c + c, so c * c, which
        # overflows once alpha < 2^-1022, is not formed.
        ctx = make_context(2.0**-1060)
        v = np.array([-1.0, -0.5 * ctx.tau, -1.5 * ctx.tau])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, u = gamma1_foliation(v, ctx)
            assert np.all(np.isfinite(s)) and np.all(np.isfinite(u))
            assert _bits(gamma1_foliation(-1.0, ctx)[0]) == _bits(s[0])

    def test_affine_root_is_twice_c_from_2_to_the_27(self):
        # fl(c^2 - 1) = fl(c^2) and sqrt(fl(c^2)) = c wherever c^2 is finite.
        rng = np.random.default_rng(17)
        c = np.ldexp(rng.uniform(1.0, 2.0, 100_000), rng.integers(27, 512, 100_000))
        edges = [np.ldexp(1.0, np.arange(27, 512)), [np.nextafter(2.0**512, 0.0)]]
        c = np.concatenate([c, *edges])
        assert np.array_equal(_bits(c + np.sqrt(np.maximum(c * c - 1.0, 0.0))), _bits(c + c))


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
