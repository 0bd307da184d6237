"""Numerical verification that the Bellman candidate is alpha-concave.

Three check families are exercised:

  * chords   : B((1-beta) x- + beta x+) - (1-beta) B(x-) - beta B(x+) >= 0
               for beta in [alpha, 1-alpha] whenever the combination stays
               in the strip (the defining restricted concavity);
  * dirder   : for boundary points P = (p, p^2+1), Q = (q, q^2+1) with
               |p - q| <= tau, the directional derivative along PQ does not
               increase from P to Q;
  * chord_H  : H(p, q) = b(p) - (1-alpha) B(R) - alpha b(q) >= 0 with
               R = ((p - alpha q)/(1-alpha), (p^2 - alpha q^2)/(1-alpha) + 1),
               the extremal three-point configuration.

Margins are reported with their minimizers; equality configurations are
probed deterministically so the tolerance is known to be tight.  All
margins are computed from closed forms plus the foliation solver; nothing
here constitutes a proof, only a tolerance-certified sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bellman import _SOLVE_CHUNK, _gamma1_arcs, eval_arrays, eval_b
from .errors import DomainError
from .geometry import TOL, AlphaContext, OmegaPoint, in_omega

FAMILIES = ("chords", "dirder", "chord_H")


@dataclass(frozen=True)
class ChordSample:
    """One evaluated concavity configuration and its margin."""

    xminus: tuple[float, float]
    xplus: tuple[float, float]
    beta: float
    margin: float


@dataclass
class SweepReport:
    """Result of a seeded randomized concavity sweep."""

    alpha: float
    seed: int
    samples: int
    min_margins: dict = field(default_factory=dict)
    argmins: dict = field(default_factory=dict)
    probes: dict = field(default_factory=dict)

    @property
    def min_margin(self) -> float:
        return min(self.min_margins.values())

    @property
    def argmin(self) -> ChordSample:
        family = min(self.min_margins, key=self.min_margins.get)
        return self.argmins[family]

    def to_text(self) -> str:
        """Flat key/value record, one `key = value` pair per line."""
        lines = [
            f"alpha = {self.alpha:.17g}",
            f"seed = {self.seed}",
            f"samples = {self.samples}",
        ]
        for fam in FAMILIES:
            lines.append(f"min_margin.{fam} = {self.min_margins[fam]:.17g}")
            s = self.argmins[fam]
            lines.append(
                f"argmin.{fam} = xminus=({s.xminus[0]:.17g},{s.xminus[1]:.17g})"
                f" xplus=({s.xplus[0]:.17g},{s.xplus[1]:.17g}) beta={s.beta:.17g}"
            )
        for fam in FAMILIES:
            lines.append(f"probe_abs_margin.{fam} = {abs(self.probes[fam]):.17g}")
        lines.append(f"min_margin = {self.min_margin:.17g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "alpha": self.alpha,
            "seed": self.seed,
            "samples": self.samples,
            "min_margins": self.min_margins,
            "argmins": {
                fam: {
                    "xminus": list(s.xminus),
                    "xplus": list(s.xplus),
                    "beta": s.beta,
                    "margin": s.margin,
                }
                for fam, s in self.argmins.items()
            },
            "probe_abs_margins": {k: abs(v) for k, v in self.probes.items()},
            "min_margin": self.min_margin,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def chord_margin(
    xminus: OmegaPoint, xplus: OmegaPoint, beta: float, ctx: AlphaContext
) -> float:
    """Concavity margin B(mid) - (1-beta) B(x-) - beta B(x+).

    The defining inequality uses beta in [alpha, 1/2]; swapping the
    endpoints maps beta to 1 - beta without changing the margin, so any
    beta in [alpha, 1 - alpha] is accepted.
    """
    if not (ctx.alpha - TOL <= beta <= 1.0 - ctx.alpha + TOL):
        raise DomainError(f"beta={beta} outside [alpha, 1-alpha]")
    m1 = (1.0 - beta) * xminus.x1 + beta * xplus.x1
    m2 = (1.0 - beta) * xminus.x2 + beta * xplus.x2
    for pt in (xminus, xplus, OmegaPoint(m1, m2)):
        if not bool(np.all(in_omega(pt.x1, pt.x2))):
            raise DomainError(f"chord point ({pt.x1}, {pt.x2}) leaves the strip")
    return float(_chord_margins_vec(xminus.x1, xminus.x2, xplus.x1, xplus.x2, beta, ctx)[0])


def _chord_margins_vec(xm1, xm2, xp1, xp2, beta, ctx: AlphaContext):
    m1 = (1.0 - beta) * xm1 + beta * xp1
    m2 = (1.0 - beta) * xm2 + beta * xp2
    # One call on the stacked (x-, x+, mid) points.
    b = eval_arrays(np.stack([xm1, xp1, m1]).ravel(), np.stack([xm2, xp2, m2]).ravel(), ctx)
    bm, bp, bmid = b["value"].reshape(3, -1)
    return bmid - (1.0 - beta) * bm - beta * bp


def _dirder_margins_vec(p, q, ctx: AlphaContext):
    """(D_PQ B)(P) - (D_PQ B)(Q) for boundary points, vectorized.

    With direction (q - p) * (1, p + q) the difference reduces to
    (q - p) * (b'(p) - b'(q) + (q - p) (B_x2(P) + B_x2(Q))), and on the
    upper parabola B_x2 = s/2 (s = 1 to the right of the axis).
    """
    slopes = []
    for v in (np.atleast_1d(p), np.atleast_1d(q)):
        b_prime, bx2 = np.ones_like(v), np.full_like(v, 0.5)
        neg = ~(v >= 0.0)
        b_prime[neg], s = _gamma1_arcs(v[neg], ctx)
        bx2[neg] = 0.5 * s
        slopes.append((b_prime, bx2))
    (bp_p, bx2_p), (bp_q, bx2_q) = slopes
    return (q - p) * (bp_p - bp_q + (q - p) * (bx2_p + bx2_q))


def check_C2(p: float, q: float, ctx: AlphaContext) -> float:
    """Directional-derivative monotonicity margin for a boundary pair.

    Non-negative for all |p - q| <= tau; symmetric in swapping p and q.
    """
    if abs(p - q) > ctx.tau + TOL:
        raise DomainError(f"|p - q| = {abs(p - q)} exceeds tau = {ctx.tau}")
    return float(_dirder_margins_vec(np.float64(p), np.float64(q), ctx)[0])


def _chord_H_vec(p, q, ctx: AlphaContext):
    a = ctx.alpha
    r1 = (p - a * q) / (1.0 - a)
    r2 = (p * p - a * q * q) / (1.0 - a) + 1.0
    br = eval_arrays(r1, r2, ctx)["value"]
    return eval_b(p, ctx) - (1.0 - a) * br - a * eval_b(q, ctx)


def chord_H(p: float, q: float, ctx: AlphaContext) -> float:
    """Three-point margin H(p, q) = b(p) - (1-alpha) B(R) - alpha b(q).

    |q - p| <= tau guarantees R stays in the strip, since
    r2 - r1^2 = 1 - (p - q)^2 / tau^2.
    """
    if abs(p - q) > ctx.tau + TOL:
        raise DomainError(f"|p - q| = {abs(p - q)} exceeds tau = {ctx.tau}")
    return float(np.ravel(_chord_H_vec(np.float64(p), np.float64(q), ctx))[0])


def equality_probes(ctx: AlphaContext) -> dict:
    """Deterministic near-equality configurations, one per check family.

    chords : the extended extremal chord from (vplus, vplus^2+1) through
             (v, v^2+1) to (u, u^2) with beta = 1 - s^2 -- an exact
             equality case of the restricted concavity;
    dirder : an ordered boundary pair at separation 1e-7 (the margin grows
             linearly in the separation, so this lands well under 1e-6);
    chord_H: q = p + tau with p <= p_1, where R lands on the lower parabola
             and the trace recursion gives exact equality.
    """
    a = ctx.alpha
    s_lo = max(ctx.sqrt_alpha, 1.0 / math.sqrt(2.0))
    s_hi = math.sqrt(1.0 - a)
    s = 0.5 * (s_lo + s_hi)
    v = 0.5 * (3.0 * s - 1.0 / s) - 1.0
    u = v - s
    vplus = 0.5 * (s + 1.0 / s) - 1.0
    chord = chord_margin(
        OmegaPoint(vplus, vplus * vplus + 1.0),
        OmegaPoint(u, u * u),
        1.0 - s * s,
        ctx,
    )
    p_c2 = 0.5 * ctx.p(1)
    dirder = check_C2(p_c2, p_c2 + 1e-7, ctx)
    p_h = ctx.p(1) - 0.2
    h = chord_H(p_h, p_h + ctx.tau, ctx)
    return {"chords": chord, "dirder": dirder, "chord_H": h}


def _draw_chords(rng, n, window, ctx: AlphaContext):
    """n chords built inside the strip, as the rows x1-, x2-, x1+, x2+, beta.

    With gaps h = x2 - x1^2 and D = x1+ - x1-, the point (1-beta) x- + beta x+
    has the gap (1-beta) h- + beta h+ + beta (1-beta) D^2.  So x1- is drawn on
    |x1| <= window, h-, h+ on [0, 1], beta on [alpha, 1/2] and D on |D| <= R,
    all uniformly, with R^2 = (1 - (1-beta) h- - beta h+) / (beta (1-beta)):
    that gap is at most 1 without a rejection step.  h- and h+ sit in the
    x2 rows until the abscissas are known.
    """
    chords = np.empty((5, n))
    xm1, xm2, xp1, xp2, beta = chords
    xm1[:] = rng.uniform(-window, window, n)
    xm2[:] = rng.random(n)
    xp2[:] = rng.random(n)
    beta[:] = rng.uniform(ctx.alpha, 0.5, n)
    xp1[:] = rng.uniform(-1.0, 1.0, n)
    xp1 *= np.sqrt((1.0 - (1.0 - beta) * xm2 - beta * xp2) / (beta * (1.0 - beta)))
    xp1 += xm1
    xm2 += xm1 * xm1
    xp2 += xp1 * xp1
    return chords


def sweep(ctx: AlphaContext, n_samples: int, seed: int) -> SweepReport:
    """Seeded randomized sweep of all three families.

    The chords are built inside the strip by `_draw_chords`, with x1- on
    |x1| <= 6 tau (quasi-periodicity repeats everything beyond the first few
    cells up to scaling); the boundary pairs of the other two families are
    drawn over the same window with |p - q| <= tau.  Deterministic for a
    fixed seed.
    """
    if n_samples <= 0:
        raise DomainError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    window = 6.0 * ctx.tau
    if math.isinf(window * window):
        raise DomainError(f"alpha={ctx.alpha}: x1^2 overflows on the sampling window |x1| <= 6 tau")
    report = SweepReport(alpha=ctx.alpha, seed=seed, samples=n_samples)

    # Family 1: restricted-concavity chords, 3 points each in eval_arrays blocks.
    chords = _draw_chords(rng, n_samples, window, ctx)
    margins = np.empty(n_samples)
    block = _SOLVE_CHUNK // 3
    for j in range(0, n_samples, block):
        margins[j:j + block] = _chord_margins_vec(*chords[:, j:j + block], ctx)
    i = int(np.argmin(margins))
    xm1, xm2, xp1, xp2, beta = chords[:, i]
    report.min_margins["chords"] = float(margins[i])
    report.argmins["chords"] = ChordSample((xm1, xm2), (xp1, xp2), beta, float(margins[i]))

    # Family 2: directional derivatives along the upper parabola.
    p = rng.uniform(-window, 2.0, n_samples)
    d = rng.uniform(0.0, ctx.tau, n_samples)
    q = p + d
    margins = _dirder_margins_vec(p, q, ctx)
    i = int(np.argmin(margins))
    report.min_margins["dirder"] = float(margins[i])
    report.argmins["dirder"] = ChordSample(
        (p[i], p[i] ** 2 + 1.0), (q[i], q[i] ** 2 + 1.0), 0.5, float(margins[i])
    )

    # Family 3: the three-point configuration through the strip.
    p = rng.uniform(-window, 2.0, n_samples)
    d = rng.uniform(-ctx.tau, ctx.tau, n_samples)
    q = p + d
    margins = _chord_H_vec(p, q, ctx)
    i = int(np.argmin(margins))
    report.min_margins["chord_H"] = float(margins[i])
    report.argmins["chord_H"] = ChordSample(
        (p[i], p[i] ** 2 + 1.0), (q[i], q[i] ** 2 + 1.0), ctx.alpha, float(margins[i])
    )

    report.probes = equality_probes(ctx)
    return report
