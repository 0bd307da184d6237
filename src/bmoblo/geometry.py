"""Geometry of the parabolic strip underlying the maximal-operator bound.

Everything lives in the strip

    Omega = {(x1, x2) : x1^2 <= x2 <= x1^2 + 1}

between the lower parabola Gamma0 (x2 = x1^2) and the upper parabola
Gamma1 (x2 = x1^2 + 1).  For a fixed splitting parameter alpha in (0, 1/2]
the strip decomposes into

    Omega_plus : x1 >= 0,
    Omega_0    : x1 <= 0 and x2 <= 1,
    Omega_m    : a chain of cells marching left, m = 1, 2, ...

The chain is quasi-periodic: with tau = 1/sqrt(alpha) - sqrt(alpha) and the
parabolic shift T_a(x1, x2) = (x1 - a, x2 - 2*a*x1 + a^2) (which preserves
x2 - x1^2), one has Omega_{2k+1} = T_{k tau} Omega_1 and
Omega_{2k+2} = T_{k tau} Omega_2 for k >= 1.  Omega_1 sits between the
horizontal segment x2 = 1 and the chord through (p1, p1^2 + 1) of slope
2 p1 + tau; Omega_2 sits between that chord and the tangent line of slope
-2 tau touching Gamma1 at (-tau, tau^2 + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class AlphaContext:
    """Fixed alpha in (0, 1/2] together with its derived constants.

    tau is the quasi-period of the region chain, p0 the abscissa of the
    rightmost chord knot on Gamma1, p_k = p0 - k*tau the subsequent knots.
    tol is the absolute tolerance used for strip membership and as the
    bracket slack of the foliation root solver.
    """

    alpha: float
    tau: float
    p0: float
    tol: float = 1e-12

    @property
    def sqrt_alpha(self) -> float:
        return math.sqrt(self.alpha)

    def p(self, k: int) -> float:
        """Knot abscissa p_k = p0 - k*tau on the upper parabola."""
        return self.p0 - k * self.tau

    def chord_line(self, x1):
        """x2-value over x1 of the chord separating Omega_1 from Omega_2."""
        p1 = self.p(1)
        return (2.0 * p1 + self.tau) * x1 - p1 * p1 - self.tau * p1 + 1.0

    def tangent_line(self, x1):
        """x2-value over x1 of the tangent trajectory separating Omega_2 from Omega_3."""
        return -2.0 * self.tau * x1 - self.tau * self.tau + 1.0


def make_context(alpha: float, tol: float = 1e-12) -> AlphaContext:
    """Build the constant pack for a splitting parameter alpha in (0, 1/2]."""
    alpha = float(alpha)
    if not (0.0 < alpha <= 0.5) or not math.isfinite(alpha):
        raise DomainError(f"alpha must lie in (0, 1/2], got {alpha!r}")
    tol = float(tol)
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be finite and non-negative, got {tol!r}")
    r = math.sqrt(alpha)
    tau = 1.0 / r - r
    p0 = 0.5 * r + 0.5 / r - 1.0
    return AlphaContext(alpha=alpha, tau=tau, p0=p0, tol=tol)


@dataclass(frozen=True)
class OmegaPoint:
    """A point of the strip; membership is only enforced by consumers."""

    x1: float
    x2: float

    @property
    def gap(self) -> float:
        """Height above the lower parabola, x2 - x1^2 (in [0, 1] on Omega)."""
        return self.x2 - self.x1 * self.x1

    def as_tuple(self) -> tuple[float, float]:
        return (self.x1, self.x2)


@dataclass(frozen=True, order=True)
class RegionId:
    """Region tag: index -1 is Omega_plus, 0 is Omega_0, m >= 1 is Omega_m.

    The ordering of indices matches the boundary tie-break (smallest wins).
    """

    index: int

    PLUS_INDEX = -1
    ZERO_INDEX = 0

    @classmethod
    def plus(cls) -> "RegionId":
        return cls(cls.PLUS_INDEX)

    @classmethod
    def zero(cls) -> "RegionId":
        return cls(cls.ZERO_INDEX)

    @classmethod
    def omega(cls, m: int) -> "RegionId":
        if m < 1:
            raise ValueError("chain regions are indexed from 1")
        return cls(int(m))

    @property
    def is_plus(self) -> bool:
        return self.index == self.PLUS_INDEX

    @property
    def is_zero(self) -> bool:
        return self.index == self.ZERO_INDEX

    @property
    def is_chain(self) -> bool:
        return self.index >= 1

    def __str__(self) -> str:
        if self.is_plus:
            return "Omega_plus"
        if self.is_zero:
            return "Omega_0"
        return f"Omega_{self.index}"


def shift(a: float, x: OmegaPoint) -> OmegaPoint:
    """Parabolic shift T_a(x1, x2) = (x1 - a, x2 - 2 a x1 + a^2).

    Preserves x2 - x1^2 exactly in real arithmetic, hence maps the strip
    bijectively onto itself for every a.
    """
    return OmegaPoint(x.x1 - a, x.x2 - 2.0 * a * x.x1 + a * a)


def shift_xy(a, x1, x2):
    """Array form of the parabolic shift; returns (x1 - a, x2 - 2 a x1 + a^2)."""
    return x1 - a, x2 - 2.0 * a * x1 + a * a


def strip_violation(x1, x2):
    """Signed violations (lower, upper) of the strip inequalities.

    Positive entries mean the corresponding inequality x1^2 <= x2 (lower)
    or x2 <= x1^2 + 1 (upper) fails by that amount.
    """
    gap = x2 - np.asarray(x1) * np.asarray(x1)
    return -gap, gap - 1.0


def in_omega(x1, x2, ctx: AlphaContext):
    low, high = strip_violation(x1, x2)
    return (low <= ctx.tol) & (high <= ctx.tol)


def clamp_gap(x1, x2, ctx: AlphaContext):
    """Clamp x2 onto the strip when within tol of it; raise otherwise.

    Returns the clamped x2 (array or scalar).  Downstream root solvers rely
    on inputs being exactly representable inside their brackets, and the
    region search on x1 being finite.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    finite = np.isfinite(x1) & np.isfinite(x2)
    if not np.all(finite):
        i = int(np.argmin(finite))
        x1b = float(np.ravel(np.broadcast_to(x1, finite.shape))[i])
        x2b = float(np.ravel(np.broadcast_to(x2, finite.shape))[i])
        raise DomainError(f"point ({x1b}, {x2b}) is not finite")
    gap = x2 - x1 * x1
    bad_low = gap < -ctx.tol
    bad_high = gap > 1.0 + ctx.tol
    if np.any(bad_low) or np.any(bad_high):
        i = int(np.argmax(bad_low | bad_high))
        x1b = float(np.ravel(x1)[i] if x1.ndim else x1)
        x2b = float(np.ravel(x2)[i] if x2.ndim else x2)
        if np.ravel(bad_low)[i]:
            raise DomainError(
                f"point ({x1b}, {x2b}) violates x2 >= x1^2 by more than tol={ctx.tol}"
            )
        raise DomainError(
            f"point ({x1b}, {x2b}) violates x2 <= x1^2 + 1 by more than tol={ctx.tol}"
        )
    return x1 * x1 + np.clip(gap, 0.0, 1.0)


def classify_codes(x1, x2, ctx: AlphaContext):
    """Vector region classifier.

    Returns integer codes: -1 for Omega_plus, 0 for Omega_0, m >= 1 for
    Omega_m.  Boundary points (within tol of several regions) receive the
    smallest applicable index.  The pair of cells 2g+1, 2g+2 lies over
    x1 in [-g tau - tau - 1, -g tau], so each chain point's frame tests
    start at the first pair that reaches within tau/4 of it and move right
    by tau; at most three steps settle a point, however far left.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    x2 = np.atleast_1d(clamp_gap(x1, x2, ctx))
    tol = ctx.tol
    code = np.full(x1.shape, -2, dtype=np.int64)

    code[x1 >= -tol] = RegionId.PLUS_INDEX
    zero_mask = (code == -2) & (x2 <= 1.0 + tol)
    code[zero_mask] = RegionId.ZERO_INDEX

    idx = np.flatnonzero(code == -2)
    if idx.size:
        # Pair g holds only points with -g tau - tau - 1 <= x1 <= -g tau (up
        # to tol).  Where x1 + g tau <= -tau - 1 - eta, both frame tests fail
        # by at least 2 eta + eta^2, which with eta = tau/4 + tol exceeds tol
        # and the rounding of the shift (about 1.5e-15 x1^2) for |x1| < 6e6 tau.
        # So the scan starts at the first pair right of that, and its first
        # match is the one a scan from g = 0 finds.  From pair 2^53 on, g tau
        # is not exact and the shift keeps no digit of x2 - x1^2: such points
        # fail the search.
        x1r, x2r = x1[idx], x2[idx]
        eta = 0.25 * ctx.tau + tol
        start = np.floor((-x1r - ctx.tau - 1.0 - eta) / ctx.tau) + 1.0
        reach = start < 2.0**53
        idx, x1r, x2r = idx[reach], x1r[reach], x2r[reach]
        g = np.maximum(start[reach], 0.0).astype(np.int64)
        while idx.size:
            y1, y2 = shift_xy(-g * ctx.tau, x1r, x2r)
            # The chord and tangent lines bound the cells only as segments:
            # the chord line re-enters the strip right of p_1 and the
            # tangent line dips below the upper parabola right of -tau, so
            # the frame tests cap the abscissa (and the strip membership,
            # already guaranteed, caps the corner slivers by Gamma_1).
            left = y1 <= tol
            chord = ctx.chord_line(y1)
            in_omega1 = left & (y2 >= 1.0 - tol) & (y2 <= chord + tol)
            in_omega2 = (
                (~in_omega1)
                & left
                & (y2 >= chord - tol)
                & ((y2 <= ctx.tangent_line(y1) + tol) | (y1 >= -ctx.tau - tol))
            )
            code[idx[in_omega1]] = 2 * g[in_omega1] + 1
            code[idx[in_omega2]] = 2 * g[in_omega2] + 2
            # y1 grows with g and every frame test needs y1 <= tol, so a
            # point right of its frame has no pair left to match.
            keep = left & ~(in_omega1 | in_omega2)
            idx, x1r, x2r, g = idx[keep], x1r[keep], x2r[keep], g[keep] + 1
        if np.any(code == -2):
            i = int(np.argmax(code == -2))
            raise DomainError(
                f"region search failed for point ({float(x1[i])}, {float(x2[i])})"
            )
    return code


def classify(x: OmegaPoint, ctx: AlphaContext) -> RegionId:
    """Classify a single point; raises DomainError outside the strip."""
    code = classify_codes(x.x1, x.x2, ctx)
    return RegionId(int(code[0]))


def region_inequalities(x: OmegaPoint, region: RegionId, ctx: AlphaContext) -> list[float]:
    """Slack of the defining inequalities of `region` at `x` (>= 0 means satisfied).

    Used by tests to confirm that near-boundary points satisfy both adjacent
    regions' constraints within tolerance.
    """
    x1, x2 = x.x1, x.x2
    gap = x2 - x1 * x1
    base = [gap, 1.0 - gap]
    if region.is_plus:
        return base + [x1]
    if region.is_zero:
        return base + [-x1, 1.0 - x2]
    m = region.index
    g = (m - 1) // 2
    y1, y2 = shift_xy(-g * ctx.tau, x1, x2)
    if m % 2 == 1:
        return base + [-y1, y2 - 1.0, ctx.chord_line(y1) - y2]
    return base + [
        -y1,
        y2 - ctx.chord_line(y1),
        max(ctx.tangent_line(y1) - y2, y1 + ctx.tau),
    ]


def envelope_point(s: float, region: RegionId, ctx: AlphaContext) -> OmegaPoint:
    """Tangency point of the extremal segment with parameter s on the envelope.

    Only the first two chain cells carry a primitive envelope (the rest are
    parabolic shifts of these); s must lie in [sqrt(alpha), 1] for Omega_1
    and in [alpha, sqrt(alpha)] for Omega_2.  Diagnostic only: the envelope
    is external to the strip except for the touching point (0, 1).
    """
    a = ctx.alpha
    if region.index == 1:
        if not (ctx.sqrt_alpha - ctx.tol <= s <= 1.0 + ctx.tol):
            raise DomainError(
                f"envelope parameter {s} outside [sqrt(alpha), 1] for Omega_1"
            )
        x1 = 0.25 / s**3 - 1.0 + 0.75 * s
        x2 = -(2.0 - 3.0 * s - 6.0 * s**3 + 6.0 * s**4 - 3.0 * s**5) / (4.0 * s**3)
        return OmegaPoint(x1, x2)
    if region.index == 2:
        if not (a - ctx.tol <= s <= ctx.sqrt_alpha + ctx.tol):
            raise DomainError(
                f"envelope parameter {s} outside [alpha, sqrt(alpha)] for Omega_2"
            )
        # Tangency with the segment family x2 = m(s) x1 + c(s) requires
        # x1 = -c'(s)/m'(s) = 3s/(4a) + a^3/(4 s^3) - tau - 1.
        x1 = 0.75 * s / a + 0.25 * a**3 / s**3 - ctx.tau - 1.0
        x2 = (
            (ctx.tau + 1.0) ** 2
            - (3.0 * s**4 + a**4) / (2.0 * s**3 * a) * (ctx.tau + 1.0)
            + (3.0 * s**4 + 2.0 * s**2 * a**2 + 3.0 * a**4) / (4.0 * s**2 * a**2)
        )
        return OmegaPoint(x1, x2)
    raise DomainError(f"no envelope is defined for {region}")
