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
d+1.  States expand in generation order (the root, then its j children,
then theirs, each generation in its parents' order), one generation per
array step.  Expansion stops at a depth cap and a leaf budget: the budget
admits the first floor((budget-1)/j) states in that order whose resolved
piece fits the cap.  Whatever remains unresolved is tracked exactly by
measure and offset.  A cell is kept as its (depth, offset) pair alone, in
int8, so the depth is at most 63; the statistics read nothing else.

Statistics are reported as enclosures.  Truncation alone cannot give tight
two-sided bounds (the unresolved measure decays only like
(1 - 2^-j)^(depth/j)), but every unresolved cell is an exact affine copy
of the whole function, so the first two moments satisfy the fixed-point
relations

    X = a + mU * X,        a  = sum_res m*(val) + delta * sum_unres m*c,
    Y = b + 2 delta Cu X + mU * Y,

with mU the unresolved measure.  Starting from the a priori bounds
X in [-gamma, 0] (pointwise psi >= -gamma; cell averages are at most
inf N psi = 0 by the maximal identity) and Y in [max(0, 1 - 2 gamma^2), 1]
(plugging the X bounds into the one-step moment recursion), iterating the
affine interval maps a fixed N_ITER times contracts the a priori width by
mU^N_ITER while always containing the true values.  Deeper builds shrink
mU, hence every enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

# Interval fixed-point contraction count and the rounding pad added to
# every reported enclosure endpoint.
_N_ITER = 20000
_PAD = 1e-12

# Deepest cell: build_psi keeps depths and offsets in int8, and a depth
# plus the scale index must fit.  The cell masses 2^-depth come from an
# exact table.
_MAX_DEPTH = 63
_CELL_MASS = np.ldexp(1.0, -np.arange(_MAX_DEPTH + 1))


@dataclass(frozen=True)
class PsiParams:
    """Scale index with its two-value normalization constants."""

    j: int
    gamma: float
    delta: float


def psi_params(j: int) -> PsiParams:
    """Constants gamma_j = 1/sqrt(1 + 2^(1-j)), delta_j = 2^(1-j) gamma_j."""
    if j < 1 or j != int(j):
        raise DomainError(f"scale index j must be a positive integer, got {j!r}")
    gamma = 1.0 / math.sqrt(1.0 + 2.0 ** (1 - j))
    return PsiParams(j=int(j), gamma=gamma, delta=2.0 ** (1 - j) * gamma)


@dataclass(frozen=True)
class Enclosure:
    """A closed interval certified to contain an exact quantity."""

    lo: float
    hi: float

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __add__(self, c: float) -> "Enclosure":
        return Enclosure(self.lo + c, self.hi + c)


class PsiFunction:
    """Adaptive-partition representation of one optimizer function.

    Leaves are recorded as (depth, offset) pairs: a leaf is a dyadic
    interval of length 2^-depth, the function on a resolved leaf is the
    constant -gamma + offset*delta, and an unresolved leaf carries an exact
    copy of the whole function shifted by offset*delta (its placeholder
    value is the cell infimum -gamma + offset*delta).  Where each leaf
    lies in (0, 1] is not kept: no statistic depends on it.
    """

    def __init__(self, params, depth, res, unres, leaf_count):
        self.params = params
        self.j = params.j
        self.depth = depth
        self.res_depth, self.res_offset = res
        self.unres_depth, self.unres_offset = unres
        self.leaf_count = leaf_count
        self.res_mass = _CELL_MASS[self.res_depth]
        self.unres_mass = _CELL_MASS[self.unres_depth]
        self.unresolved_mass = float(np.sum(self.unres_mass))

    @property
    def gamma(self) -> float:
        return self.params.gamma

    @property
    def delta(self) -> float:
        return self.params.delta

def build_psi(j: int, depth: int, node_budget: int = 1 << 17) -> PsiFunction:
    """Expand the recursion into an adaptive partition.

    A state expands only if its resolved piece fits within `depth` and the
    resulting leaves fit within `node_budget` (each expansion adds j
    leaves); remaining states stay as unresolved leaves with exact measure
    accounting, so both caps degrade the enclosure widths, never
    correctness.  States are taken in generation order, and the budget
    expands the first floor((node_budget-1)/j) of them whose resolved piece
    fits within `depth`.  Depths and offsets are int8, so `depth` is at
    most 63.
    """
    params = psi_params(j)
    if depth < j:
        raise DomainError(f"depth {depth} is below the scale index {j}")
    if depth > _MAX_DEPTH:
        raise DomainError(
            f"depth {depth} exceeds {_MAX_DEPTH}: a cell depth plus the scale index "
            "must fit in int8"
        )
    if node_budget < j + 1:
        raise ResourceError(
            f"node budget {node_budget} cannot hold a single expansion of scale {j}"
        )
    budget = (node_budget - 1) // j
    left = budget
    # One pass per generation.  Child i = 1..j of a state (d, c) is
    # (d+i, c+[i == 1]): the offset+1 copy on the right half, then the
    # copies on the pieces (2^-i, 2^(1-i)] of the leftmost chain; below
    # them sits the resolved piece (0, 2^-j] at (d+j, c).  Raveling the
    # (parents, j) block row by row keeps the parents' order.  Every state
    # has d <= depth <= 63 and c <= d, so the int8 sum d + j <= 126.
    steps = np.arange(1, j + 1, dtype=np.int8)
    bumps = (steps == 1).astype(np.int8)
    d = c = np.zeros(1, dtype=np.int8)
    res, unres = [], []
    while d.size:
        grow = d + j <= depth
        if left < d.size:
            # Only the first `left` eligible states fit within the budget.
            grow[np.flatnonzero(grow)[left:]] = False
        left -= int(np.count_nonzero(grow))
        stay = ~grow
        unres.append((d[stay], c[stay]))
        d, c = d[grow], c[grow]
        res.append((d + j, c))
        d = (d[:, None] + steps).ravel()
        c = (c[:, None] + bumps).ravel()
    return PsiFunction(
        params,
        depth,
        tuple(np.concatenate(col) for col in zip(*res)),
        tuple(np.concatenate(col) for col in zip(*unres)),
        1 + j * (budget - left),
    )


@dataclass(frozen=True)
class PsiStats:
    """Certified enclosures for one optimizer function."""

    j: int
    depth: int
    gamma: float
    delta: float
    unresolved_mass: float
    mean: Enclosure
    mean_sq: Enclosure
    bmo: Enclosure
    blo: Enclosure
    mean_N: Enclosure
    inf_N: Enclosure


def _interval_var(mean_lo, mean_hi, msq_lo, msq_hi):
    """Interval for msq - mean^2 given intervals of both."""
    if mean_lo <= 0.0 <= mean_hi:
        sq_lo = 0.0
    else:
        sq_lo = min(mean_lo * mean_lo, mean_hi * mean_hi)
    sq_hi = max(mean_lo * mean_lo, mean_hi * mean_hi)
    return msq_lo - sq_hi, msq_hi - sq_lo


def psi_stats(psi: PsiFunction) -> PsiStats:
    """Enclosures of the moments, norms and maximal-function average.

    See the module docstring for the fixed-point construction.  The
    supremum defining the BMO norm runs over every dyadic cell, but each
    cell is one of finitely many affine types (a copy, one of the j-1
    left-chain mixtures inside an expansion, or a constant), and variance
    is shift-invariant, so the supremum reduces to closed-form candidates
    in the root moments X and Y.
    """
    g, dlt, j = psi.gamma, psi.delta, psi.j
    mU = psi.unresolved_mass
    if mU >= 1.0:
        raise DomainError(
            f"scale index {j} at depth {psi.depth}: the unresolved mass rounds to 1, "
            "so the fixed point divides by zero"
        )
    res_val = -g + psi.res_offset * dlt
    # m*c and m*c*c in float64, never c*c in the offsets' int8: with
    # m = 2^-d and c <= 63 both products are exact, so the sums keep their
    # bits whatever the offsets' integer type.
    mc = psi.unres_mass * psi.unres_offset
    cu = float(np.sum(mc))
    cu2 = float(np.sum(mc * psi.unres_offset))
    a = float(np.sum(psi.res_mass * res_val)) + dlt * cu
    bb = float(np.sum(psi.res_mass * res_val**2)) + dlt * dlt * cu2

    w = mU**_N_ITER
    x_star = a / (1.0 - mU)
    x_lo = x_star + w * (-g - x_star) - _PAD
    x_hi = x_star + w * (0.0 - x_star) + _PAD
    mean = Enclosure(x_lo, x_hi)

    y_ap_lo = max(0.0, 1.0 - 2.0 * g * g)
    y_star_lo = (bb + 2.0 * dlt * cu * x_lo) / (1.0 - mU)
    y_star_hi = (bb + 2.0 * dlt * cu * x_hi) / (1.0 - mU)
    y_lo = y_star_lo + w * (y_ap_lo - y_star_lo) - _PAD
    y_hi = y_star_hi + w * (1.0 - y_star_hi) + _PAD
    mean_sq = Enclosure(y_lo, y_hi)

    # Variance candidates over the cell types; the copies dominate.
    var_lo, var_hi = _interval_var(x_lo, x_hi, y_lo, y_hi)
    for i in range(1, j):
        m = 2.0 ** (i - j)
        mlo = -g * m + (1.0 - m) * x_lo
        mhi = -g * m + (1.0 - m) * x_hi
        slo = g * g * m + (1.0 - m) * y_lo
        shi = g * g * m + (1.0 - m) * y_hi
        vlo, vhi = _interval_var(mlo, mhi, slo, shi)
        var_lo = max(var_lo, vlo)
        var_hi = max(var_hi, vhi)
    bmo = Enclosure(math.sqrt(max(var_lo, 0.0)), math.sqrt(max(var_hi, 0.0)))

    return PsiStats(
        j=j,
        depth=psi.depth,
        gamma=g,
        delta=dlt,
        unresolved_mass=mU,
        mean=mean,
        mean_sq=mean_sq,
        bmo=bmo,
        blo=mean + g,
        mean_N=mean + g,
        inf_N=Enclosure(-_PAD, _PAD),
    )


def tensor_stats(psi: PsiFunction, n: int) -> PsiStats:
    """Statistics of the n-variable extension phi(t_1, .., t_n) = psi(t_1).

    Averages of phi over a dyadic cube equal averages of psi over the
    cube's first-coordinate interval, and the maximal function only sees
    those averages, so every statistic coincides with the one-dimensional
    one; nothing n-dimensional is materialized.  (Tests cross-check the
    n = 2 case by literal enumeration of dyadic squares at small depth.)
    """
    if n < 1 or n != int(n):
        raise DomainError(f"dimension n must be a positive integer, got {n!r}")
    return psi_stats(psi)


@dataclass(frozen=True)
class OptimizerRow:
    j: int
    stats: PsiStats

    @property
    def targets_enclosed(self) -> bool:
        return (
            self.stats.mean.contains(0.0)
            and self.stats.mean_sq.contains(1.0)
            and self.stats.bmo.contains(1.0)
            and self.stats.mean_N.contains(self.stats.gamma)
        )


_CSV_COLUMNS = (
    "j,gamma_j,delta_j,mean_lo,mean_hi,meansq_lo,meansq_hi,"
    "bmo_lo,bmo_hi,meanN_lo,meanN_hi,unresolved_mass"
)


def m_norm_report(j_list, depth: int, node_budget: int = 1 << 17):
    """Convergence table for the operator-norm lower bound.

    For each j the shifted function psi_j + gamma_j is non-negative, so the
    natural and classical maximal operators agree on it, its infimum over
    (0,1] is gamma_j, and the BLO difference <M(psi+gamma)> - inf M(psi+gamma)
    equals <N psi> = gamma_j + <psi>: the mean_N enclosure is exactly that
    difference, and its climb towards 1 exhibits the sharp constant.
    """
    rows = []
    for j in j_list:
        psi = build_psi(int(j), depth, node_budget=node_budget)
        rows.append(OptimizerRow(j=int(j), stats=psi_stats(psi)))
    return rows


def report_to_csv(rows) -> str:
    lines = [_CSV_COLUMNS]
    for row in rows:
        st = row.stats
        fields = (
            [str(row.j)]
            + [
                format(x, ".17g")
                for x in (
                    st.gamma,
                    st.delta,
                    st.mean.lo,
                    st.mean.hi,
                    st.mean_sq.lo,
                    st.mean_sq.hi,
                    st.bmo.lo,
                    st.bmo.hi,
                    st.mean_N.lo,
                    st.mean_N.hi,
                    st.unresolved_mass,
                )
            ]
        )
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
