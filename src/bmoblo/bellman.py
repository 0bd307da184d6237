"""The Bellman candidate B, its foliation, boundary traces and majorants.

On the strip the candidate is

    B = x1 + sqrt(x2 - x1^2)          on Omega_plus,
    B = x1 + sqrt(x2)                 on Omega_0,

and on the chain cells it is the minimal locally concave function with
B = 0 on the lower parabola.  Its graph is a ruled surface: each cell is
foliated by straight extremal segments ell_s joining (u, u^2) on Gamma0 to
(v, v^2 + 1) on Gamma1, and B is linear along every ell_s.  Writing, for a
point of Omega_m,

    k = floor(m / 2),    z = s / alpha^k,    mu = k * tau + 1,

the segment data are u = (z - 1/z)/2 - mu and v = u + z (m odd) or
v = u + 1/z (m even), z solves

    x2 = 2 (z - mu) x1 - (3/4) z^2 + 2 mu z + 1/2 - mu^2 + 1/(4 z^2)

uniquely in [sqrt(alpha), 1] (m odd) or [1, 1/sqrt(alpha)] (m even), and

    B = (alpha^k / 2) (1 + z^2) (x1 - u),   B_x1 = -u s,   B_x2 = s / 2.

One routine, `_chain`, does this for every chain-cell evaluation (eval_arrays,
solve_s and the cut-off majorants): it folds a cell back to the (Omega_1,
Omega_2) frame by a parabolic shift, solves there with the one root solver
`_solve_frame`, and rescales by alpha^(fold count), keeping every
intermediate quantity O(1).

The trace b(p) = B(p, p^2 + 1) on the upper parabola has the closed form

    b(p) = p + 1                       p >= 0,
    b(p) = alpha^k f(p + k tau + 1)    p_{k+1} <= p <= -k tau,  k >= 0,
    b(p) = alpha^k (p + k tau + 1)     -k tau <= p <= p_k,      k >= 1,

with f(y) = (2 y^3 + 2 y^2 sqrt(y^2+3) + 9 y + 6 sqrt(y^2+3)) / 27, and the
sharp decay function of the main inequality is F_alpha(t) = b(-t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import (
    TOL,
    AlphaContext,
    OmegaPoint,
    RegionId,
    _classify_clamped,
    clamp_gap,
    shift_xy,
)

# Residual target of the folded-frame foliation equation.
_RESIDUAL_TOL = 1e-11
# Points eval_arrays evaluates together: small enough that the temporaries
# stay in cache.
_SOLVE_CHUNK = 16384
# A point retires once its last step moved z by at most _STEP_RTOL * z;
# _MAX_PASSES is only a safety net.
_STEP_RTOL = 1e-13
_MAX_PASSES = 100
# Smallest normal float: the scale of B below which its digits run out.
_TINY = np.finfo(float).tiny
_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class BellmanValue:
    """Value and closed-form gradient of B at a point."""

    value: float
    grad1: float
    grad2: float
    underflow: bool = False


@dataclass(frozen=True)
class Foliation:
    """Extremal-segment data through a chain-cell point.

    s is the global segment parameter, z = s / alpha^k its unfolded version,
    k = floor(m/2) for the cell index m, u and v the abscissas of the
    segment endpoints on the lower/upper parabola, and vplus the second
    intersection of the extended segment with the upper parabola.
    """

    s: float
    z: float
    k: int
    u: float
    v: float
    vplus: float
    region: RegionId


def _zx_residual(z, y1, y2, mu):
    return (2.0 * (z - mu) * y1 - 0.75 * z * z + 2.0 * mu * z + 0.5 - mu * mu
            + 0.25 / (z * z) - y2)


def _newton(lo, hi, f_lo, f_hi, y1, y2, mu):
    """Safeguarded Newton on the brackets [lo, hi] (rtsafe of Press et al.,
    Numerical Recipes); the residual is f_lo > 0 at lo and f_hi < 0 at hi.

    It starts from the false-position point of the bracket residuals.  Each
    pass moves the bracket end on z's side of the root to z, then takes the
    Newton step, or the bracket midpoint where that step leaves the bracket
    or fails to halve the previous step.  Points whose f_lo, f_hi do not
    bracket keep the start and take no pass.  The passes run on the
    bracketing points only, gathered once, and the working arrays are
    compacted to the points still active whenever at most half of them
    are; a retired point is frozen until then.  Every operation is
    elementwise, so a point's z does not depend on the rest of the batch.
    """
    out = lo + f_lo * (hi - lo) / (f_lo - f_hi)
    idx = np.flatnonzero((f_lo > 0.0) & (f_hi < 0.0))
    lo, hi, z, y1, y2, mu = (v[idx] for v in (lo, hi, out, y1, y2, mu))
    # r = (a - t) z + w + b and r' = (a - t) - t - 2 w / z, with t = 3 z / 4
    # and w = 1 / (4 z^2): _zx_residual regrouped to share terms.
    a = 2.0 * (y1 + mu)
    b = 0.5 - mu * mu - 2.0 * mu * y1 - y2
    step = hi - lo
    active = np.ones(idx.size, dtype=bool)
    for _ in range(_MAX_PASSES):
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
        active &= step > _STEP_RTOL * z
        n = np.count_nonzero(active)
        if 2 * n <= active.size:
            out[idx] = z
            if not n:
                return out
            live = np.flatnonzero(active)
            idx, lo, hi, z, step, a, b = (v[live] for v in (idx, lo, hi, z, step, a, b))
            active = active[live]
    out[idx] = z
    return out


def _solve_frame(y1, y2, mu, z_lo, z_hi):
    """Root of the segment equation in [z_lo, z_hi] (1-d arrays of one size).

    The residual is positive at z_lo and negative at z_hi for interior
    points; a root on or marginally outside an endpoint snaps to it.
    """
    f_lo = _zx_residual(z_lo, y1, y2, mu)
    f_hi = _zx_residual(z_hi, y1, y2, mu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = _newton(z_lo, z_hi, f_lo, f_hi, y1, y2, mu)
    # Roots that sit on a bracket endpoint can fall marginally outside due
    # to rounding of the inputs; snap them back.
    lo_is_root = f_lo <= 0.0
    z = np.where(lo_is_root, z_lo, z)
    z = np.where((f_hi >= 0.0) & ~lo_is_root, z_hi, z)
    resid = _zx_residual(z, y1, y2, mu)
    if np.any(np.abs(resid) > _RESIDUAL_TOL):
        i = int(np.argmax(np.abs(resid)))
        raise ConvergenceError(
            f"foliation solve residual {float(resid[i]):.3e} exceeds "
            f"{_RESIDUAL_TOL} at folded point ({float(y1[i])}, {float(y2[i])})"
        )
    return z


def _chain(m, x1, x2, ctx: AlphaContext, cut: bool = False):
    """Segment data and value of B at points of the chain cells Omega_m.

    The one fold of the module: T_{-g tau}, g = (m - 1) // 2, carries
    Omega_m onto the frame Omega_1 (m odd, mu = 1) or Omega_2 (m even,
    mu = tau + 1), the frame equation is solved there, and the results are
    shifted back and scaled by alpha^g.  m is one cell index or an array of
    them matching x1, x2.

    With cut=True the points lie beyond cell m and the analytic expression
    of that cell is continued below its regular bracket, z in (0, z_top].
    Multiplied by 4 z^2 the residual is the quartic
    -3 z^4 + 8 (y1 + mu) z^3 + c2 z^2 + 1, c2 = 2 - 4 mu^2 - 8 mu y1 - 4 y2,
    which for z <= 1 is at least 1 - z^2 (3 + 8 |y1 + mu| + |c2|); the
    lower end 1/(2 sqrt(3 + 8 |y1 + mu| + |c2|)) therefore has a positive
    residual.

    Returns (z, s, u, v, value, underflow) in global coordinates.
    """
    # Broadcast m so that every alpha power takes numpy's array loop, which
    # rounds differently from its scalar one.
    m = np.broadcast_to(m, np.shape(x1))
    g = (m - 1) // 2
    odd = m % 2 == 1
    a = g * ctx.tau
    y1, y2 = shift_xy(-a, x1, x2)
    sqa = ctx.sqrt_alpha
    mu = np.where(odd, 1.0, ctx.tau + 1.0)
    if cut:
        z_hi = np.where(odd, sqa, 1.0)
        c2 = 2.0 - 4.0 * mu * mu - 8.0 * mu * y1 - 4.0 * y2
        z_lo = np.minimum(z_hi, 0.5 / np.sqrt(3.0 + 8.0 * np.abs(y1 + mu) + np.abs(c2)))
    else:
        # Right of the tangency abscissa -tau an even cell's equation has a
        # spurious second root (the segment's line re-enters the strip beyond
        # its upper endpoint).  The genuine root has v(z) >= y1, so the
        # bracket starts where v = y1: z = c + sqrt(c^2 - 1), c = y1 + tau + 1.
        c = y1 + ctx.tau + 1.0
        z_even = np.where(c > 1.0, c + np.sqrt(np.maximum(c * c - 1.0, 0.0)), 1.0)
        z_lo = np.where(odd, sqa, z_even)
        z_hi = np.where(odd, 1.0, 1.0 / sqa)
    z = _solve_frame(y1, y2, mu, z_lo, z_hi)
    u_f = 0.5 * (z - 1.0 / z) - mu
    v_f = u_f + np.where(odd, z, 1.0 / z)
    kf = np.where(odd, 0.0, 1.0)
    gf = np.asarray(g, dtype=float)
    scale = np.power(ctx.alpha, gf)
    value = scale * (0.5 * np.power(ctx.alpha, kf) * (1.0 + z * z) * (y1 - u_f))
    power = np.power(ctx.alpha, gf + kf)
    s = power * z
    # alpha^(g+k) scales B and its gradient alike.  Below the normal range
    # they keep too few digits to agree (B can stay subnormal while s / 2
    # rounds to 0), so such points count as underflowed, with B = s = 0.
    under = (power < _TINY) & np.isfinite(y1)
    value = np.where(under, 0.0, value)
    s = np.where(under, 0.0, s)
    return z, s, u_f - a, v_f - a, value, under


def eval_arrays(x1, x2, ctx: AlphaContext):
    """Vector evaluation of B over the strip.

    Returns a dict with arrays: value, grad1, grad2, region (codes), and the
    segment data s, z, u, v (NaN outside the chain cells), plus an
    `underflow` mask for cells so deep that alpha^(folds) leaves the normal
    range; B, its gradient and s are 0 there.

    Every point is checked against the strip first; the rest runs on blocks
    of _SOLVE_CHUNK points, small enough that the temporaries stay in cache,
    so a region-search or solver failure names a point of the first block
    that meets one.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(clamp_gap(x1, x2))
    out = _blank_fields(x1)
    for i in range(0, x1.size, _SOLVE_CHUNK):
        c = slice(i, i + _SOLVE_CHUNK)
        _eval_block(x1[c], x2[c], _classify_clamped(x1[c], x2[c], ctx), ctx,
                    {name: a[c] for name, a in out.items()})
    return out


def _blank_fields(x1):
    """eval_arrays' output fields for the points x1, segment data NaN."""
    return {"value": np.empty_like(x1), "grad1": np.empty_like(x1),
            "grad2": np.empty_like(x1), "region": np.empty(x1.shape, dtype=np.int64),
            **{name: np.full_like(x1, np.nan) for name in "szuv"},
            "underflow": np.zeros(x1.shape, dtype=bool)}


def _eval_block(x1, x2, code, ctx: AlphaContext, out):
    """eval_arrays on clamped points of region codes `code`, written into
    the views `out` of its fields (from _blank_fields)."""
    out["region"][...] = code
    value, grad1, grad2 = out["value"], out["grad1"], out["grad2"]

    plus = np.flatnonzero(code == RegionId.PLUS_INDEX)
    if plus.size:
        p1 = x1[plus]
        gap = x2[plus] - p1 ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            sig = np.sqrt(gap)
            value[plus] = p1 + sig
            grad1[plus] = 1.0 - p1 / sig
            grad2[plus] = 0.5 / sig

    zero = np.flatnonzero(code == RegionId.ZERO_INDEX)
    if zero.size:
        with np.errstate(divide="ignore"):
            rt = np.sqrt(x2[zero])
            value[zero] = x1[zero] + rt
            grad1[zero] = 1.0
            grad2[zero] = 0.5 / rt

    chain = np.flatnonzero(code >= 1)
    if chain.size:
        c1, c2 = x1[chain], x2[chain]
        z, s, u, v, val, out["underflow"][chain] = _chain(code[chain], c1, c2, ctx)
        # Points on the lower parabola carry B = 0 exactly; the generic
        # formula only reproduces this up to rounding in u.
        on_gamma0 = (c2 - c1 ** 2) <= TOL
        value[chain] = np.where(on_gamma0, 0.0, val)
        grad1[chain] = -u * s
        grad2[chain] = 0.5 * s
        for name, arr in zip("szuv", (s, z, u, v)):
            out[name][chain] = arr


def eval_B(x: OmegaPoint, ctx: AlphaContext) -> BellmanValue:
    """B and its closed-form gradient at a single point of the strip."""
    out = eval_arrays(x.x1, x.x2, ctx)
    return BellmanValue(
        value=float(out["value"][0]),
        grad1=float(out["grad1"][0]),
        grad2=float(out["grad2"][0]),
        underflow=bool(out["underflow"][0]),
    )


def solve_s(x: OmegaPoint, ctx: AlphaContext) -> Foliation:
    """Extremal-segment data through a point of the chain cells.

    Points on the closed segment x2 = 1, -1 <= x1 <= 0 (the boundary
    between Omega_0 and Omega_1, which classify assigns to the smaller
    region) are accepted and resolved in the Omega_1 frame.
    """
    x1 = np.array([x.x1], dtype=float)
    x2 = np.atleast_1d(clamp_gap(x1, x.x2))
    region = RegionId(int(_classify_clamped(x1, x2, ctx)[0]))
    if not region.is_chain:
        # 2*TOL, not TOL: classify's own boundary comparison rounds, and a
        # point a few ulps above x2 = 1 must not fall through the crack.
        on_ell1 = abs(x.x2 - 1.0) <= 2.0 * TOL and -1.0 - TOL <= x.x1 <= TOL
        if not on_ell1:
            raise DomainError(f"{x} lies in {region}, not in the chain cells")
        region = RegionId.omega(1)
    m = region.index
    z, sv, u, v, _, _ = _chain(m, x1, x2, ctx)
    z, sv, u, v = float(z[0]), float(sv[0]), float(u[0]), float(v[0])
    xi = v - u
    vplus = v + 1.0 / xi - xi
    return Foliation(s=sv, z=z, k=m // 2, u=u, v=v, vplus=vplus, region=region)


def eval_A(x: OmegaPoint, L: float, ctx: AlphaContext) -> float:
    """The shifted family member A(x; L) = L + B(T_L x).

    For x1 >= L this collapses to x1 + sqrt(x2 - x1^2), and A >= L always.
    """
    return float(eval_A_arrays(x.x1, x.x2, L, ctx)[0])


def eval_A_arrays(x1, x2, L, ctx: AlphaContext):
    """Vector form of eval_A; L may be scalar or an array."""
    x1 = np.asarray(x1, dtype=float)
    L = np.asarray(L, dtype=float)
    # A shift that overflows gives a non-finite point, which eval_arrays
    # reports as a domain error.
    with np.errstate(over="ignore", invalid="ignore"):
        y1, y2 = shift_xy(L, x1, np.asarray(x2, dtype=float))
    return L + eval_arrays(y1, y2, ctx)["value"]


def eval_f(y):
    """Cubic-irrational profile of the trace on the first chain cell,
    f(y) = (2y^3 + 2y^2 r + 9y + 6r)/27, r = sqrt(y^2 + 3), formed as
    z(1 + z^2)/2 from the arc slope z, since that sum cancels for y << 0."""
    z = _arc_slope(y)
    out = 0.5 * z * (1.0 + z * z)
    return out if out.ndim else float(out)


def _b_window(p, ctx: AlphaContext):
    """Split negative abscissas into their trace windows.

    Returns (k, use_f, ak, eta) with k the window index (p in
    (-(k+1) tau, -k tau]), use_f true on the cubic arc [p_{k+1}, -k tau],
    false on the affine arc [-(k+1) tau, p_{k+1}), ak = alpha^k, and the
    cubic arc's argument eta = p + k tau + 1.  Where alpha^k underflows, k tau
    is inexact and eta leaves its window (its cube can overflow), so eta is
    0 there.
    """
    p = np.asarray(p, dtype=float)
    k = np.floor(-p / ctx.tau)
    k = np.maximum(k, 0.0)
    p_k1 = ctx.p0 - (k + 1.0) * ctx.tau
    use_f = p >= p_k1
    ak = np.power(ctx.alpha, k)
    eta = np.where(ak > 0.0, p + k * ctx.tau + 1.0, 0.0)
    return k, use_f, ak, eta


def eval_b(p, ctx: AlphaContext):
    """Trace b(p) = B(p, p^2 + 1) on the upper parabola, all real p."""
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    out = np.empty_like(p)
    pos = p >= 0.0
    out[pos] = p[pos] + 1.0
    neg = ~pos
    if np.any(neg):
        pn = p[neg]
        k, use_f, ak, eta = _b_window(pn, ctx)
        val_f = ak * eval_f(eta)
        val_aff = ak * ctx.alpha * (pn + (k + 1.0) * ctx.tau + 1.0)
        # b <= alpha^k, so b is 0 where alpha^k underflows.
        out[neg] = np.where(ak > 0.0, np.where(use_f, val_f, val_aff), 0.0)
    return float(out[0]) if scalar else out


def _arc_slope(eta):
    """Segment parameter z = (eta + r)/3 on a cubic arc, r = sqrt(eta^2 + 3).

    For eta < 0 the sum cancels; there z is the equal 1/(r - eta), as
    (eta + r)(r - eta) = 3, written 1/(r + |eta|) so that the branch not
    taken never divides by zero.  hypot keeps r from overflowing.
    """
    eta = np.asarray(eta, dtype=float)
    r = np.hypot(eta, _SQRT3)
    return np.where(eta < 0.0, 1.0 / (r + np.abs(eta)), (eta + r) / 3.0)


def eval_b_prime(v, ctx: AlphaContext):
    """One-sided-consistent derivative of the trace b.

    Equals 1 for v > 0, s^2/alpha^k on the cubic arcs and alpha^k on the
    affine arcs; the expressions agree at shared knots.
    """
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    out = np.empty_like(v)
    pos = v >= 0.0
    out[pos] = 1.0
    neg = ~pos
    if np.any(neg):
        out[neg] = _gamma1_arcs(v[neg], ctx)[0]
    return float(out[0]) if scalar else out


def _gamma1_arcs(v, ctx: AlphaContext, with_u: bool = False):
    """b'(v) and the segment parameter s through (v, v^2 + 1) for v < 0, and
    with_u its lower end u, from one window split: b' = alpha^k z^2,
    s = alpha^k z, u = v - z on the cubic arcs; b' = alpha^(k+1),
    s = alpha^(k+1) z, u = v - 1/z on the affine ones."""
    k, use_f, ak, eta = _b_window(v, ctx)
    z_odd = _arc_slope(eta)
    # c leaves its window [1, p0 + 1) where alpha^k underflows, as eta does: hold it at 1.
    c = np.where(ak > 0.0, v + ((k + 1.0) * ctx.tau + 1.0), 1.0)
    # From c = 2^27 on, c^2 - 1 rounds to c^2, whose root is c: the root
    # there is c + c, and c^2, which overflows for alpha < 2^-1022, is not formed.
    big = c >= 2.0**27
    c_small = np.where(big, 1.0, c)
    z_even = np.where(big, c + c, c_small + np.sqrt(np.maximum(c_small * c_small - 1.0, 0.0)))
    b_prime = np.where(use_f, ak * z_odd * z_odd, ak * ctx.alpha)
    s = np.where(use_f, ak * z_odd, ak * ctx.alpha * z_even)
    if not with_u:
        return b_prime, s
    return b_prime, s, np.where(use_f, v - z_odd, v - 1.0 / z_even)


def gamma1_foliation(v, ctx: AlphaContext):
    """Closed-form segment data for points (v, v^2+1) of the upper parabola.

    Returns arrays (s, u): the segment parameter and the lower endpoint of
    the extremal through the boundary point.  No root solve is involved:
    on cubic arcs z = (eta + sqrt(eta^2 + 3))/3 with eta = v + k tau + 1,
    on affine arcs z = (v + mu) + sqrt((v + mu)^2 - 1) with mu = (k+1) tau + 1.
    """
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    s = np.empty_like(v)
    u = np.empty_like(v)
    pos = v >= 0.0
    if np.any(pos):
        # Continuation of the first cubic arc: same formula with k = 0.
        z = _arc_slope(v[pos] + 1.0)
        s[pos] = z
        u[pos] = v[pos] - z
    neg = ~pos
    if np.any(neg):
        _, s[neg], u[neg] = _gamma1_arcs(v[neg], ctx, with_u=True)
    if scalar:
        return float(s[0]), float(u[0])
    return s, u


def eval_F(t, ctx: AlphaContext):
    """Sharp decay function F_alpha(t) = b(-t) for t >= 0.

    Satisfies F_alpha(k tau) = alpha^k at the knots and is decreasing and
    convex in between.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise DomainError("the decay function takes arguments t >= 0")
    return eval_b(-t, ctx)


def _majorant_zero(y1, y2):
    """Concave majorant profile: x1 + sqrt(x2) left of the axis, the
    Omega_plus expression to the right."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    with np.errstate(invalid="ignore"):
        left = y1 + np.sqrt(np.maximum(y2, 0.0))
        right = y1 + np.sqrt(np.maximum(y2 - y1 * y1, 0.0))
    return np.where(y1 >= 0.0, right, left)


def eval_majorant(x: OmegaPoint, L: float, k: int, ctx: AlphaContext) -> float:
    """Cut-off majorant A_k(x; L) of the shifted family.

    k = 0 is the alpha-independent concave majorant L + B_0(T_L x) with
    B_0 = x1 + sqrt(x2) left of the axis; it satisfies
    A_0(L, L^2+1; L) = L + 1.  For k >= 1 the true candidate is kept on
    Omega_plus, Omega_0, ..., Omega_k and the analytic expression of the
    k-th cell is continued beyond it (z below the regular bracket).  Every
    A_k majorizes A and agrees with it on the kept cells.
    """
    if k < 0 or k != int(k):
        raise DomainError(f"cut index must be a non-negative integer, got {k!r}")
    y1, y2 = shift_xy(L, x.x1, x.x2)
    y1 = np.array([y1], dtype=float)
    y2 = np.atleast_1d(clamp_gap(y1, y2))
    if k == 0:
        return L + float(_majorant_zero(y1, y2)[0])
    code = _classify_clamped(y1, y2, ctx)
    if code[0] <= k:
        out = _blank_fields(y1)
        _eval_block(y1, y2, code, ctx, out)
        return L + float(out["value"][0])
    return L + float(_chain(int(k), y1, y2, ctx, cut=True)[4][0])
