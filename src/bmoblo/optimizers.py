"""The norm-optimizing family: self-similar step functions on (0, 1].

For a scale index j >= 1, the function psi_j solves the recursion

    psi(t) = -gamma                 0 < t <= 2^-j,
    psi(t) = psi(2^k t - 1)         2^-k < t <= 2^-k+1,  1 < k <= j,
    psi(t) = psi(2t - 1) + delta    1/2 < t < 1,

with gamma_j = 1 / sqrt(1 + 2^(1-j)) and delta_j = 2^(1-j) * gamma_j, the
unique choice making <psi> = 0 and <psi^2> = 1.  Its values are
-gamma + m*delta (m = 0, 1, ...), its dyadic BMO norm is 1, and the
one-dimensional natural maximal function satisfies N psi = psi + gamma
pointwise (with psi extended by zero outside (0,1]), so <N psi> = gamma_j
tends to 1: no bounded operator constant below 1 is possible, matching
the upper bound.

The recursion is materialized as an adaptive binary partition: a "state"
cell carries an exact affine copy of psi shifted by offset*delta; one
expansion turns a state at depth d into a resolved constant cell at depth
d+j, same-offset copies at depths d+2..d+j and an offset+1 copy at depth
d+1.  Every state whose resolved piece fits within the depth cap expands.
The statistics read the states of a depth d only through the triple
(sum n, sum n*c, sum n*c^2) over their offsets c, n states at each, so one
pass over the depths builds the triples in Python ints, each depth's by
the last step taken: child 1 of the expanded row above, whose offset
shift maps (a, b, c) to (a, b + a, c + 2b + a), and children 2..j of the
expanded rows j..2 above, a difference of two running sums over depth.
Where a cell lies in (0, 1], and how a row's states spread over its
offsets, is not kept: no statistic depends on either.

Statistics are exact.  Every unresolved cell is an exact affine copy of
the whole function, so the function's moments X = <psi>, Y = <psi^2>
solve the fixed-point relations

    X = a + mU * X,        a = sum_res m*val + delta * Cu,
    Y = b + 2 delta Cu X + mU * Y,
                           b = sum_res m*val^2 + delta^2 * sum_unres m*c^2,

with Cu = sum_unres m*c, mU the unresolved measure and 1 - mU the
resolved mass, positive after the root's expansion.  Every value is
gamma times a rational, so X/gamma and Y/gamma^2 are rationals of the
integer sums over the cells, and so are the squares of every statistic;
only the final roundings to float are inexact, and each is moved
outward by exact integer comparison.  The solution is the untruncated
function's (X = 0, Y = 1): no statistic depends on the depth.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, _integer

# Deepest build.  The triples are exact at any depth; the cap keeps the
# documented report range, and lifting it is a declared change, since the
# rows from j = 57 on then print a real unresolved_mass in place of 1.
_MAX_DEPTH = 63


class PsiParams(namedtuple("PsiParams", "j gamma delta")):
    """Scale index with its two-value normalization constants."""

    __slots__ = ()


def psi_params(j: int) -> PsiParams:
    """Constants gamma_j = 1/sqrt(1 + 2^(1-j)), delta_j = 2^(1-j) gamma_j."""
    j = _integer(j, "scale index j")
    if j < 1:
        raise DomainError(f"scale index j must be a positive integer, got {j!r}")
    gamma = 1.0 / math.sqrt(1.0 + 2.0 ** (1 - j))
    return PsiParams(j=j, gamma=gamma, delta=2.0 ** (1 - j) * gamma)


class Enclosure(namedtuple("Enclosure", "lo hi")):
    """A closed interval certified to contain an exact quantity."""

    __slots__ = ()

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


class PsiFunction:
    """Adaptive-partition representation of one optimizer function.

    rows[d] = (sum n, sum n*c, sum n*c^2) over the states of depth d, n
    states at offset c.  A state of depth d <= depth - j has expanded into
    a resolved cell of depth d+j, on which the function is -gamma + c*delta;
    the deeper ones, at depths unres_depth..depth, are unresolved, each an
    exact copy of the function shifted by c*delta.  res_sums and unres_sums
    are the triples of the resolved and unresolved cells, each weighted by
    2^(depth - d) for a cell of depth d: the mass moments times 2^depth.
    """

    def __init__(self, params, depth, rows):
        self.params = params
        self.j = params.j
        self.depth = depth
        self.rows = rows
        self.unres_depth = depth - self.j + 1
        expanded = rows[: self.unres_depth]
        self.leaf_count = 1 + self.j * sum(next(zip(*expanded)))
        self.res_sums, self.unres_sums = _weighted(expanded), _weighted(rows[self.unres_depth :])
        self.unresolved_mass = self.unres_sums[0] / (1 << depth)

    @property
    def gamma(self) -> float:
        return self.params.gamma

    @property
    def delta(self) -> float:
        return self.params.delta


def _weighted(rows):
    """The sum of rows[i] * 2^(len(rows) - 1 - i), by Horner's rule."""
    a = b = c = 0
    for n, s, q in rows:
        a, b, c = 2 * a + n, 2 * b + s, 2 * c + q
    return a, b, c


def build_psi(j: int, depth: int) -> PsiFunction:
    """Expand the recursion into an adaptive partition.

    Every state whose resolved piece fits within `depth`, which is at most
    63, expands; the others stay unresolved leaves, with exact measure
    accounting.  One pass over the depths m = 1..depth forms the triple of
    the states of depth m: child 1 of the expanded states of depth m-1,
    shifted one offset, plus children 2..j of those of depths m-j..m-2, a
    difference of two running sums over the expanded rows.
    """
    params = psi_params(j)
    j, depth = params.j, _integer(depth, "depth")
    if depth < j:
        raise DomainError(f"depth {depth} is below the scale index {j}")
    if depth > _MAX_DEPTH:
        raise DomainError(f"depth {depth} exceeds the depth cap {_MAX_DEPTH}")
    # A state of depth d expands if d <= top, leaving its resolved piece at d+j.
    top = depth - j
    rows = [(1, 0, 0)]
    # r0[k], r1[k], r2[k] sum the expanded rows 0..k-1, so children 2..j of
    # the expanded rows max(m-j, 0)..min(m-2, top) are a difference of two.
    r0, r1, r2 = [0, 1], [0, 0], [0, 0]
    for m in range(1, depth + 1):
        h, l = min(m - 1, top + 1), max(m - j, 0)
        n, s, q = r0[h] - r0[l], r1[h] - r1[l], r2[h] - r2[l]
        if m <= top + 1:  # child 1 of the expanded row m-1, one offset up
            a, b, c = rows[m - 1]
            n, s, q = n + a, s + b + a, q + c + 2 * b + a
        rows.append((n, s, q))
        if m <= top:
            r0.append(r0[m] + n)
            r1.append(r1[m] + s)
            r2.append(r2[m] + q)
    return PsiFunction(params, depth, tuple(rows))


class PsiStats(
    namedtuple("PsiStats", "j depth gamma delta unresolved_mass mean mean_sq bmo mean_N")
):
    """Certified enclosures for one optimizer function; mean, mean_sq, bmo
    and mean_N are Enclosures."""

    __slots__ = ()

    @property
    def targets_enclosed(self) -> bool:
        """Whether the enclosures hold <psi> = 0, <psi^2> = 1, BMO norm 1
        and <N psi> = gamma."""
        return (
            self.mean.contains(0.0)
            and self.mean_sq.contains(1.0)
            and self.bmo.contains(1.0)
            and self.mean_N.contains(self.gamma)
        )


def _enclose(num: int, den: int, root: bool = False) -> Enclosure:
    """Floats around num/den (den > 0), or around its square root (num >= 0)
    with root set: the rounded value, each end checked against the exact
    rational in integers and moved outward with nextafter where it fails."""
    lo = hi = math.sqrt(num / den) if root else num / den

    def excess(f):  # the sign of f (or f^2) - num/den
        a, b = f.as_integer_ratio()
        return a * a * den - num * b * b if root else a * den - num * b

    while excess(lo) > 0:
        lo = math.nextafter(lo, -math.inf)
    while excess(hi) < 0:
        hi = math.nextafter(hi, math.inf)
    return Enclosure(lo, hi)


def psi_stats(psi: PsiFunction) -> PsiStats:
    """Enclosures of the moments, norms and maximal-function average.

    The fixed point of the module docstring, solved in integers.  With
    e = 2^(j-1), delta = gamma/e and gamma^2 = e/(e+1); from the sums of
    n, n*c and n*c^2 (s0, s1, s2 resolved; u1, u2 unresolved),
    x = X/gamma = xn/q and y = Y/gamma^2 = yn/(e q^2), q = e*s0.  The
    supremum defining the BMO norm runs over every dyadic cell, but each
    cell is one of finitely many affine types (a copy, one of the j-1
    left-chain mixtures inside an expansion, or a constant), and variance
    is shift-invariant, so the supremum is the largest of the closed-form
    candidates in x and y, compared over one common denominator.  <N psi>
    is gamma + X = gamma (1 + x) by the maximal identity.
    """
    g, j = psi.gamma, psi.j
    e = 1 << (j - 1)
    (s0, s1, s2), (_, u1, u2) = psi.res_sums, psi.unres_sums
    q = e * s0
    xn = s1 + u1 - q
    yn = q * (e * e * s0 - 2 * e * s1 + s2 + u2) + 2 * e * u1 * xn
    den = (e + 1) * q * q  # gamma^2 x^2 = e xn^2 / den, gamma^2 y = yn / den
    # The candidates over gamma^2, times e q^2 4^(j-1): the copy y - x^2,
    # then for m = 1/M, M = 2^k, k = 1..j-1, m + (1-m) y - ((1-m) x - m)^2.
    best = (yn - e * xn * xn) << 2 * (j - 1)
    for k in range(1, j):
        M = 1 << k
        mixture = M * e * q * q + (M - 1) * M * yn - e * ((M - 1) * xn - q) ** 2
        best = max(best, mixture << 2 * (j - 1 - k))
    abs_mean = _enclose(e * xn * xn, den, root=True)
    mean = abs_mean if xn >= 0 else Enclosure(-abs_mean.hi, -abs_mean.lo)
    exact_n = _enclose(e * (q + xn) ** 2, den, root=True)
    # The float gamma of psi_params, which the report prints and checks
    # against, lies one ulp above that enclosure at j = 2.
    mean_N = Enclosure(min(exact_n.lo, g), max(exact_n.hi, g))
    return PsiStats(
        j=j,
        depth=psi.depth,
        gamma=g,
        delta=psi.delta,
        unresolved_mass=psi.unresolved_mass,
        mean=mean,
        mean_sq=_enclose(yn, den),
        bmo=_enclose(best, den << 2 * (j - 1), root=True),
        mean_N=mean_N,
    )


_CSV_COLUMNS = (
    "j,gamma_j,delta_j,mean_lo,mean_hi,meansq_lo,meansq_hi,"
    "bmo_lo,bmo_hi,meanN_lo,meanN_hi,unresolved_mass"
)


def m_norm_report(j_list, depth: int):
    """Convergence table for the operator-norm lower bound.

    For each j the shifted function psi_j + gamma_j is non-negative, so the
    natural and classical maximal operators agree on it, its infimum over
    (0,1] is gamma_j, and the BLO difference <M(psi+gamma)> - inf M(psi+gamma)
    equals <N psi> = gamma_j + <psi>: the mean_N enclosure is exactly that
    difference, and its climb towards 1 exhibits the sharp constant.
    One PsiStats row per j.
    """
    return [psi_stats(build_psi(j, depth)) for j in j_list]


def report_to_csv(rows) -> str:
    lines = [_CSV_COLUMNS]
    for st in rows:
        # Each Enclosure is its (lo, hi) pair.
        fields = (
            st.gamma, st.delta, *st.mean, *st.mean_sq, *st.bmo, *st.mean_N, st.unresolved_mass
        )
        lines.append(",".join([str(st.j), *(format(x, ".17g") for x in fields)]))
    return "\n".join(lines) + "\n"
