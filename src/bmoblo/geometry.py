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
from collections import namedtuple

import numpy as np

from .errors import DomainError


# Absolute rounding guard on strip membership and on the region boundaries.
TOL = 1e-12


class AlphaContext(namedtuple("AlphaContext", "alpha tau p0")):
    """Fixed alpha in (0, 1/2] together with its derived constants.

    tau is the quasi-period of the region chain, p0 the abscissa of the
    rightmost chord knot on Gamma1, p_k = p0 - k*tau the subsequent knots.
    """

    __slots__ = ()

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


def make_context(alpha: float) -> AlphaContext:
    """Build the constant pack for a splitting parameter alpha in (0, 1/2]."""
    alpha = float(alpha)
    if not (0.0 < alpha <= 0.5) or not math.isfinite(alpha):
        raise DomainError(f"alpha must lie in (0, 1/2], got {alpha!r}")
    r = math.sqrt(alpha)
    tau = 1.0 / r - r
    p0 = 0.5 * r + 0.5 / r - 1.0
    return AlphaContext(alpha=alpha, tau=tau, p0=p0)


class OmegaPoint(namedtuple("OmegaPoint", "x1 x2")):
    """A point of the strip; membership is only enforced by consumers."""

    __slots__ = ()

    @property
    def gap(self) -> float:
        """Height above the lower parabola, x2 - x1^2 (in [0, 1] on Omega)."""
        return self.x2 - self.x1 * self.x1


class RegionId(namedtuple("RegionId", "index")):
    """Region tag: index -1 is Omega_plus, 0 is Omega_0, m >= 1 is Omega_m.

    The ordering of indices matches the boundary tie-break (smallest wins).
    The field `index` shadows tuple.index, which nothing here calls.
    """

    __slots__ = ()

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
    return OmegaPoint(*shift_xy(a, x.x1, x.x2))


def shift_xy(a, x1, x2):
    """Array form of the parabolic shift; returns (x1 - a, x2 - 2 a x1 + a^2)."""
    return x1 - a, x2 - 2.0 * a * x1 + a * a


def in_omega(x1, x2):
    """Whether x1^2 <= x2 <= x1^2 + 1 holds up to TOL, elementwise."""
    gap = x2 - np.asarray(x1) * np.asarray(x1)
    return (-gap <= TOL) & (gap - 1.0 <= TOL)


def clamp_gap(x1, x2):
    """Clamp x2 onto the strip when within TOL of it; raise otherwise.

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
    with np.errstate(over="ignore"):  # an overflowing x1^2 fails the test below
        gap = x2 - x1 * x1
    bad_low = gap < -TOL
    bad_high = gap > 1.0 + TOL
    if np.any(bad_low) or np.any(bad_high):
        i = int(np.argmax(bad_low | bad_high))
        x1b = float(np.ravel(x1)[i] if x1.ndim else x1)
        x2b = float(np.ravel(x2)[i] if x2.ndim else x2)
        if np.ravel(bad_low)[i]:
            raise DomainError(
                f"point ({x1b}, {x2b}) violates x2 >= x1^2 by more than tol={TOL}"
            )
        raise DomainError(
            f"point ({x1b}, {x2b}) violates x2 <= x1^2 + 1 by more than tol={TOL}"
        )
    return x1 * x1 + np.clip(gap, 0.0, 1.0)


def classify_codes(x1, x2, ctx: AlphaContext):
    """Vector region classifier.

    Returns integer codes: -1 for Omega_plus, 0 for Omega_0, m >= 1 for
    Omega_m.  Boundary points (within TOL of several regions) receive the
    smallest applicable index.  The pair of cells 2g+1, 2g+2 lies over
    x1 in [-g tau - tau - 1, -g tau], so each chain point's frame tests
    start at the first pair that reaches within tau/4 of it and move right
    by tau; at most three steps settle a point, however far left.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    return _classify_clamped(x1, np.atleast_1d(clamp_gap(x1, x2)), ctx)


def _classify_clamped(x1, x2, ctx: AlphaContext):
    """classify_codes on 1-d points that clamp_gap has already clamped."""
    code = np.full(x1.shape, -2, dtype=np.int64)

    code[x1 >= -TOL] = RegionId.PLUS_INDEX
    zero_mask = (code == -2) & (x2 <= 1.0 + TOL)
    code[zero_mask] = RegionId.ZERO_INDEX

    idx = np.flatnonzero(code == -2)
    if idx.size:
        if math.isinf(ctx.tau * ctx.tau):
            # The frame lines take tau^2: from alpha = 2^-1024 on they overflow.
            raise DomainError(
                f"alpha={ctx.alpha}: tau^2 overflows, so no chain cell can be evaluated"
            )
        # Pair g holds only points with -g tau - tau - 1 <= x1 <= -g tau (up
        # to TOL).  Where x1 + g tau <= -tau - 1 - eta, both frame tests fail
        # by at least 2 eta + eta^2, which with eta = tau/4 + TOL exceeds TOL
        # and the rounding of the shift (about 1.5e-15 x1^2) for |x1| < 6e6 tau.
        # So the scan starts at the first pair right of that, and its first
        # match is the one a scan from g = 0 finds.  From pair 2^53 on, g tau
        # is not exact and the shift keeps no digit of x2 - x1^2: such points
        # fail the search.
        x1r, x2r = x1[idx], x2[idx]
        eta = 0.25 * ctx.tau + TOL
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
            left = y1 <= TOL
            chord = ctx.chord_line(y1)
            in_omega1 = left & (y2 >= 1.0 - TOL) & (y2 <= chord + TOL)
            in_omega2 = (
                (~in_omega1)
                & left
                & (y2 >= chord - TOL)
                & ((y2 <= ctx.tangent_line(y1) + TOL) | (y1 >= -ctx.tau - TOL))
            )
            code[idx[in_omega1]] = 2 * g[in_omega1] + 1
            code[idx[in_omega2]] = 2 * g[in_omega2] + 2
            # y1 grows with g and every frame test needs y1 <= TOL, so a
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
