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
    AlphaContext,
    OmegaPoint,
    RegionId,
    clamp_gap,
    classify,
    classify_codes,
    make_context,
    shift_xy,
)

# Residual target of the folded-frame foliation equation.
_RESIDUAL_TOL = 1e-11
_BISECT_ITERS = 80
# Points bisected together: small enough that the temporaries stay in cache.
_BISECT_CHUNK = 16384
_NEWTON_ITERS = 3
# Smallest normal float: the scale of B below which its digits run out.
_TINY = np.finfo(float).tiny


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
    return (
        2.0 * (z - mu) * y1
        - 0.75 * z * z
        + 2.0 * mu * z
        + 0.5
        - mu * mu
        + 0.25 / (z * z)
        - y2
    )


def _zx_derivative(z, y1, mu):
    return 2.0 * y1 - 1.5 * z + 2.0 * mu - 0.5 / (z * z * z)


def _bisect(lo, hi, y1, y2, mu):
    """Bisect [lo, hi] on the sign of the residual until every midpoint
    equals an endpoint, at most _BISECT_ITERS times; returns the midpoint.

    From that step on the bisection is at a fixed point: a midpoint equal
    to an endpoint recomputes that endpoint's residual sign, so neither
    endpoint moves again (or both collapse onto the midpoint), and running
    out the cap would return the same bits.  lo and hi are updated in place.
    """
    lo_bits, hi_bits = lo.view(np.int64), hi.view(np.int64)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return mid
        # All ones where the residual is non-negative, so the midpoint
        # replaces lo there and hi elsewhere: an exact, branch-free select.
        take_lo = -(_zx_residual(mid, y1, y2, mu) >= 0.0).astype(np.int64)
        mid_bits = mid.view(np.int64)
        lo_bits ^= (lo_bits ^ mid_bits) & take_lo
        hi_bits ^= (hi_bits ^ mid_bits) & ~take_lo
    return 0.5 * (lo + hi)


def _bisect_point(lo, hi, y1, y2, mu):
    """_bisect for one point, on Python floats: the same operations in the
    same order, hence the same bits, without numpy's per-call cost."""
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if _zx_residual(mid, y1, y2, mu) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_frame(y1, y2, mu, z_lo, z_hi):
    """Bracketed root of the segment equation on [z_lo, z_hi] (arrays ok).

    The residual is positive at z_lo and negative at z_hi for interior
    points; bisection to float resolution guarantees convergence and a few
    Newton steps polish the root to machine accuracy.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    lo = np.broadcast_to(np.asarray(z_lo, dtype=float), y1.shape).copy()
    hi = np.broadcast_to(np.asarray(z_hi, dtype=float), y1.shape).copy()
    f_lo = _zx_residual(lo, y1, y2, mu)
    f_hi = _zx_residual(hi, y1, y2, mu)
    # Roots that sit on a bracket endpoint can fall marginally outside due
    # to rounding of the inputs; snap them back.
    lo_is_root = f_lo <= 0.0
    hi_is_root = f_hi >= 0.0
    # Python floats raise on 0.25 / (z * z) == 0.25 / 0 where numpy only
    # warns (they overflow to inf and carry NaN as numpy does), so the
    # one-point loop takes brackets whose z * z stays positive.
    if y1.size == 1 and min(lo.flat[0], hi.flat[0]) > 1e-150:
        point = (float(np.ravel(a)[0]) for a in (lo, hi, y1, y2, mu))
        z = np.full(y1.shape, _bisect_point(*point))
    else:
        # Bisection is elementwise, so splitting the points changes no bit.
        flat = [lo.reshape(-1), hi.reshape(-1)]
        flat += [np.broadcast_to(a, y1.shape).ravel() for a in (y1, y2, mu)]
        z = np.empty(y1.size)
        for i in range(0, y1.size, _BISECT_CHUNK):
            c = slice(i, i + _BISECT_CHUNK)
            z[c] = _bisect(*(a[c] for a in flat))
        z = z.reshape(y1.shape)
    for _ in range(_NEWTON_ITERS):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = _zx_residual(z, y1, y2, mu) / _zx_derivative(z, y1, mu)
        step = np.where(np.isfinite(step), step, 0.0)
        z = np.clip(z - step, np.asarray(z_lo, dtype=float), np.asarray(z_hi, dtype=float))
    z = np.where(lo_is_root, np.broadcast_to(z_lo, y1.shape), z)
    z = np.where(hi_is_root & ~lo_is_root, np.broadcast_to(z_hi, y1.shape), z)
    resid = _zx_residual(z, y1, y2, mu)
    if np.any(np.abs(resid) > _RESIDUAL_TOL):
        i = int(np.argmax(np.abs(resid)))
        raise ConvergenceError(
            f"foliation solve residual {float(np.ravel(resid)[i]):.3e} exceeds "
            f"{_RESIDUAL_TOL} at folded point ({float(np.ravel(y1)[i])}, {float(np.ravel(y2)[i])})"
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
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(clamp_gap(x1, x2, ctx))
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
        z, s, u, v, val, under[chain] = _chain(code[chain], x1[chain], x2[chain], ctx)
        # Points on the lower parabola carry B = 0 exactly; the generic
        # formula only reproduces this up to rounding in u.
        on_gamma0 = (x2[chain] - x1[chain] ** 2) <= ctx.tol
        value[chain] = np.where(on_gamma0, 0.0, val)
        grad1[chain] = -u * s
        grad2[chain] = 0.5 * s
        for name, arr in zip("szuv", (s, z, u, v)):
            seg[name][chain] = arr

    return {"value": value, "grad1": grad1, "grad2": grad2, "region": code, **seg,
            "underflow": under}


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
    region = classify(x, ctx)
    if not region.is_chain:
        # 2*tol, not tol: classify's own boundary comparison rounds, and a
        # point a few ulps above x2 = 1 must not fall through the crack.
        on_ell1 = abs(x.x2 - 1.0) <= 2.0 * ctx.tol and -1.0 - ctx.tol <= x.x1 <= ctx.tol
        if not on_ell1:
            raise DomainError(f"{x} lies in {region}, not in the chain cells")
        region = RegionId.omega(1)
    m = region.index
    # Fold the clamped point, as eval_arrays does.
    x1 = np.array([x.x1], dtype=float)
    z, sv, u, v, _, _ = _chain(m, x1, clamp_gap(x1, x.x2, ctx), ctx)
    z, sv, u, v = float(z[0]), float(sv[0]), float(u[0]), float(v[0])
    xi = v - u
    vplus = v + 1.0 / xi - xi
    return Foliation(s=sv, z=z, k=m // 2, u=u, v=v, vplus=vplus, region=region)


def eval_A(x: OmegaPoint, L: float, ctx: AlphaContext) -> float:
    """The shifted family member A(x; L) = L + B(T_L x).

    For x1 >= L this collapses to x1 + sqrt(x2 - x1^2), and A >= L always.
    """
    y1, y2 = shift_xy(L, x.x1, x.x2)
    return L + eval_B(OmegaPoint(y1, y2), ctx).value


def eval_A_arrays(x1, x2, L, ctx: AlphaContext):
    """Vector form of eval_A; L may be scalar or an array."""
    x1 = np.asarray(x1, dtype=float)
    L = np.asarray(L, dtype=float)
    y1, y2 = shift_xy(L, x1, np.asarray(x2, dtype=float))
    return L + eval_arrays(y1, y2, ctx)["value"]


def eval_f(y):
    """Cubic-irrational profile of the trace on the first chain cell."""
    y = np.asarray(y, dtype=float)
    r = np.sqrt(y * y + 3.0)
    out = (2.0 * y**3 + 2.0 * y * y * r + 9.0 * y + 6.0 * r) / 27.0
    return out if out.ndim else float(out)


def _b_window(p, ctx: AlphaContext):
    """Split negative abscissas into their trace windows.

    Returns (k, use_f) with k the window index (p in (-(k+1) tau, -k tau])
    and use_f true on the cubic arc [p_{k+1}, -k tau], false on the affine
    arc [-(k+1) tau, p_{k+1}).
    """
    p = np.asarray(p, dtype=float)
    k = np.floor(-p / ctx.tau)
    k = np.maximum(k, 0.0)
    p_k1 = ctx.p0 - (k + 1.0) * ctx.tau
    use_f = p >= p_k1
    return k, use_f


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
        k, use_f = _b_window(pn, ctx)
        ak = np.power(ctx.alpha, k)
        val_f = ak * eval_f(pn + k * ctx.tau + 1.0)
        val_aff = ak * ctx.alpha * (pn + (k + 1.0) * ctx.tau + 1.0)
        out[neg] = np.where(use_f, val_f, val_aff)
    return float(out[0]) if scalar else out


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
        vn = v[neg]
        k, use_f = _b_window(vn, ctx)
        ak = np.power(ctx.alpha, k)
        eta = vn + k * ctx.tau + 1.0
        z = (eta + np.sqrt(eta * eta + 3.0)) / 3.0
        out[neg] = np.where(use_f, ak * z * z, ak * ctx.alpha)
    return float(out[0]) if scalar else out


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
        eta = v[pos] + 1.0
        z = (eta + np.sqrt(eta * eta + 3.0)) / 3.0
        s[pos] = z
        u[pos] = v[pos] - z
    neg = ~pos
    if np.any(neg):
        vn = v[neg]
        k, use_f = _b_window(vn, ctx)
        ak = np.power(ctx.alpha, k)
        eta = vn + k * ctx.tau + 1.0
        z_odd = (eta + np.sqrt(eta * eta + 3.0)) / 3.0
        mu = (k + 1.0) * ctx.tau + 1.0
        c = vn + mu
        z_even = c + np.sqrt(np.maximum(c * c - 1.0, 0.0))
        s[neg] = np.where(use_f, ak * z_odd, ak * ctx.alpha * z_even)
        u[neg] = np.where(use_f, vn - z_odd, vn - 1.0 / z_even)
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


def eval_Phi(t, n: int):
    """Dyadic specialization Phi_n = F_alpha with alpha = 2^-n."""
    if n < 1 or n != int(n):
        raise DomainError(f"dimension n must be a positive integer, got {n!r}")
    return eval_F(t, make_context(2.0 ** (-int(n))))


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
    y2 = float(clamp_gap(y1, y2, ctx))
    if k == 0:
        return L + float(_majorant_zero(y1, y2))
    code = int(classify_codes(y1, y2, ctx)[0])
    if code <= k:
        return L + eval_B(OmegaPoint(y1, y2), ctx).value
    value = _chain(int(k), np.array([y1], dtype=float), np.array([y2]), ctx, cut=True)[4]
    return L + float(value[0])


def fd_gradient(x: OmegaPoint, ctx: AlphaContext, h: float = 1e-6) -> tuple[float, float]:
    """Central-difference gradient of B (tests' oracle for the closed form)."""
    f = lambda x1, x2: eval_B(OmegaPoint(x1, x2), ctx).value
    g1 = (f(x.x1 + h, x.x2) - f(x.x1 - h, x.x2)) / (2.0 * h)
    g2 = (f(x.x1, x.x2 + h) - f(x.x1, x.x2 - h)) / (2.0 * h)
    return g1, g2
