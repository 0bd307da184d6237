"""Test oracles: reference implementations the tests compare against.

Nothing in `bmoblo` calls these.  They are kept apart from the package so
that an oracle cannot share a code path, and so a defect, with the code it
checks.

Optimizer oracles.  `bmoblo.optimizers` keeps psi_j as one triple
(sum n, sum n*c, sum n*c^2) per depth over its states' offsets c, and
never where a leaf lies in (0, 1] or how a depth's states spread over the
offsets.  `exact_moments` reads those triples alone.  The helpers after
`row_triples` need the place, so they take the breadth-first
reference build of `test_optimizers.py` in place of psi: its leaf arrays
(res_depth, res_offset, unres_depth, unres_offset) and the leaves' int64
positions (res_pos, unres_pos), listed in the same order, so that leaf i
of depth d is the dyadic interval (pos * 2^-d, (pos+1) * 2^-d].

Test-only helpers.  `PreconditionError`, `eval_Phi` and the
finite-difference grids `gradient_grid` and `hessian_grid` serve the
tests alone, so they live here and not in the package.
"""

import math
from fractions import Fraction

import numpy as np

from bmoblo.bellman import eval_A_arrays, eval_arrays, eval_B, eval_F
from bmoblo.concavity import chord_H
from bmoblo.errors import BmobloError, DomainError
from bmoblo.geometry import (
    TOL,
    AlphaContext,
    OmegaPoint,
    RegionId,
    in_omega,
    make_context,
    shift_xy,
)
from bmoblo.trees import (
    _UNIT_NORM_SQ,
    AlphaTree,
    TheoremMargins,
    _chain_max,
    _from_arrays,
    _induction,
    _node_index,
    _subtree_mean,
    _subtree_min,
    tree_from_json,
)


class PreconditionError(BmobloError, ValueError):
    """A caller-checkable hypothesis of a verification routine fails."""


def _mass_sums(cells, depth):
    """Sums of m, m*c and m*c^2 over cells of mass m = 2^-d, given as
    (row triple, d) pairs, as Fractions: the triples weighted in integers
    over the common denominator 2^depth."""
    return [
        Fraction(sum(row[k] << (depth - d) for row, d in cells), 1 << depth) for k in range(3)
    ]


def exact_moments(psi):
    """X/gamma, Y/gamma^2 and the BMO candidates over gamma^2 of a built psi_j,
    in Fractions from its row triples alone.

    Every value of psi_j is gamma * r with r = c/e - 1, e = 2^(j-1), on a
    resolved cell of offset c, and an unresolved cell of offset c is a copy
    of psi_j shifted by gamma * c/e, so x = X/gamma and y = Y/gamma^2 solve

        x = sum_res m r + sum_unres m (x + c/e),
        y = sum_res m r^2 + sum_unres m (y + 2 x c/e + c^2/e^2).

    The candidates are the copy, y - x^2, then the left-chain mixtures of
    resolved mass share m = 2^-k, m + (1-m) y - ((1-m) x - m)^2, for
    k = 1..j-1.  Returns (x, y, candidates, total mass).
    """
    j, depth = psi.j, psi.depth
    e = 1 << (j - 1)
    # A state of depth d expands if d + j <= depth, into a resolved cell of
    # depth d + j; a deeper one is an unresolved cell of depth d.
    rows = list(enumerate(psi.rows))
    r0, r1, r2 = _mass_sums([(row, d + j) for d, row in rows if d + j <= depth], depth)
    u0, u1, u2 = _mass_sums([(row, d) for d, row in rows if d + j > depth], depth)
    # sum_res m r = r1/e - r0 and sum_res m r^2 = r2/e^2 - 2 r1/e + r0.
    x = (r1 / e - r0 + u1 / e) / (1 - u0)
    y = (r2 / e**2 - 2 * r1 / e + r0 + 2 * x * u1 / e + u2 / e**2) / (1 - u0)
    mixtures = [Fraction(1, 1 << k) for k in range(1, j)]
    candidates = [y - x * x] + [m + (1 - m) * y - ((1 - m) * x - m) ** 2 for m in mixtures]
    return x, y, candidates, r0 + u0


def psi_state_tables(j):
    """The (depth, offset) count tables of psi_j's states, by the first
    child taken, for every depth the package allows.

    S_t counts the states of the partition whose states expand at depths
    up to t: the root, and if t >= 0 the states of its j children, child
    i = 1..j being a copy of the whole partition one scale down, at depth
    i and offset [i == 1], whose states expand at depths up to t - i.  So

        S_t = e_00 + [t >= 0] * sum_{i=1}^{j} (S_{t-i} shifted by (i, [i == 1])),

    with S_t = e_00 for t < 0.  Entry t + 1 of the result, a 64 x 64 int64
    table, is S_t for t = -1 .. 63 - j; the depth-D build is S_{D-j}.
    """
    n = 64
    tables = np.zeros((65 - j, n, n), dtype=np.int64)
    tables[:, 0, 0] = 1
    for t in range(64 - j):
        for i in range(1, j + 1):
            child = tables[max(t - i, -1) + 1]
            off = int(i == 1)
            tables[t + 1, i:, off:] += child[: n - i, : n - off]
    return tables


def row_triples(table):
    """(sum n, sum n*c, sum n*c^2) over each row of a (depth, offset) count
    table, n being the count at offset c, in Python ints."""
    return tuple(
        (sum(row), sum(c * n for c, n in enumerate(row)), sum(c * c * n for c, n in enumerate(row)))
        for row in np.asarray(table).tolist()
    )


def leaf_values(ref, unresolved_mode: str = "inf"):
    """Values of all leaves (resolved then unresolved).

    unresolved_mode "inf" assigns the placeholder (cell infimum)
    -gamma + c*delta; "mean" assigns the exact cell average c*delta.
    """
    res = -ref.gamma + ref.res_offset * ref.delta
    if unresolved_mode == "inf":
        un = -ref.gamma + ref.unres_offset * ref.delta
    elif unresolved_mode == "mean":
        un = ref.unres_offset * ref.delta
    else:
        raise DomainError(f"unknown unresolved_mode {unresolved_mode!r}")
    return res, un


def _located_values(ref, positions, unresolved_mode):
    """(depth, position, value) of every leaf, resolved then unresolved."""
    res_v, un_v = leaf_values(ref, unresolved_mode)
    res_pos, unres_pos = positions
    for deps, poss, vals in (
        (ref.res_depth, res_pos, res_v),
        (ref.unres_depth, unres_pos, un_v),
    ):
        yield from zip(deps.tolist(), poss.tolist(), vals.tolist())


def value_grid(ref, positions, unresolved_mode: str = "inf"):
    """Step-function values on the uniform grid of 2^depth cells."""
    if ref.depth > 24:
        raise ValueError("value grid limited to depth <= 24")
    grid = np.empty(1 << ref.depth)
    for dep, pos, val in _located_values(ref, positions, unresolved_mode):
        w = 1 << (ref.depth - dep)
        grid[pos * w : (pos + 1) * w] = val
    return grid


def as_alpha_tree(ref, positions, unresolved_mode: str = "mean") -> AlphaTree:
    """The binary partition as a measure-1 half-tree on (0, 1]."""
    if ref.leaf_count > (1 << 16):
        raise ValueError("tree materialization limited to 2^16 leaves")
    table = {(dep, pos): val for dep, pos, val in _located_values(ref, positions, unresolved_mode)}

    def build(d, pos):
        key = (d, pos)
        if key in table:
            return {"measure": math.ldexp(1.0, -d), "value": table[key]}
        return {
            "measure": math.ldexp(1.0, -d),
            "children": [build(d + 1, 2 * pos), build(d + 1, 2 * pos + 1)],
        }

    return tree_from_json({"alpha": 0.5, "root": build(0, 0)})


def dyadic_interval_bmo_sq(values):
    """Max variance over all dyadic subintervals of a 2^d step-function grid."""
    values = np.asarray(values, dtype=float)
    best = 0.0
    s = values.copy()
    s2 = values * values
    width = 1
    while True:
        mean = s / width
        var = np.maximum(s2 / width - mean * mean, 0.0)
        best = max(best, float(var.max()))
        if s.size == 1:
            break
        s = s[0::2] + s[1::2]
        s2 = s2[0::2] + s2[1::2]
        width *= 2
    return best


def dyadic_square_bmo_sq(values):
    """Max variance over all dyadic squares for the two-variable extension.

    `values` is the first-coordinate grid; the extension is constant in
    the second coordinate.  Literal enumeration over every square of the
    grid's depth, via 2D prefix sums.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n > 256:
        raise ValueError("square enumeration limited to grids of depth <= 8")
    grid = np.broadcast_to(v[:, None], (n, n))
    s = np.zeros((n + 1, n + 1))
    s2 = np.zeros((n + 1, n + 1))
    s[1:, 1:] = np.cumsum(np.cumsum(grid, axis=0), axis=1)
    s2[1:, 1:] = np.cumsum(np.cumsum(grid * grid, axis=0), axis=1)

    def box(pref, i0, i1, j0, j1):
        return pref[i1, j1] - pref[i0, j1] - pref[i1, j0] + pref[i0, j0]

    best = 0.0
    size = n
    while size >= 1:
        for i0 in range(0, n, size):
            for j0 in range(0, n, size):
                area = size * size
                m = box(s, i0, i0 + size, j0, j0 + size) / area
                q = box(s2, i0, i0 + size, j0, j0 + size) / area
                best = max(best, q - m * m)
        size //= 2
    return best


def cube_tree(grid) -> AlphaTree:
    """The dyadic cubes of [0, 1)^n as an alpha-tree, alpha = 2^-n.

    `grid` has shape (2^D,) * n; the tree is the complete 2^n-ary tree of
    depth D whose depth-d nodes are the cubes of side 2^-d, with measure
    2^(-n d), and whose leaves carry the grid in Morton order: child c of a
    cube takes bit n-1-k of c as the next binary digit of coordinate k.
    In preorder a depth-d node's children start 1, 1 + S, 1 + 2S, ...
    after it, S = 1 + b + ... + b^(D-d-1) being a child subtree's size.
    """
    grid = np.asarray(grid, dtype=float)
    n, side = grid.ndim, grid.shape[0]
    D = side.bit_length() - 1
    b = 1 << n
    if grid.shape != (1 << D,) * n:
        raise DomainError(f"grid shape {grid.shape} is not (2^D,) * {n}")
    # Digits of each coordinate, most significant first, regrouped by level.
    axes = [k * D + level for level in range(D) for k in range(n)]
    leaves = grid.reshape((2,) * (n * D)).transpose(axes).ravel()
    total = (b ** (D + 1) - 1) // (b - 1)
    parent = np.full(total, -1, dtype=np.int64)
    depth = np.zeros(total, dtype=np.int64)
    level = np.zeros(1, dtype=np.int64)
    for d in range(D):
        size = (b ** (D - d) - 1) // (b - 1)
        kids = (level[:, None] + 1 + size * np.arange(b)).ravel()
        parent[kids] = np.repeat(level, b)
        depth[kids] = d + 1
        level = kids
    value = np.full(total, np.nan)
    value[level] = leaves
    measure = np.ldexp(1.0, -n * depth)
    return _from_arrays(1.0 / b, parent, measure, value, depth)


# ---------------------------------------------------------------------------
# Tree margins one node at a time: <N phi>_K as a dot product over the
# node's leaves and the BLO spread as a maximum over the slice of nodes
# under K.  `trees.verify_all_nodes` folds both up the levels instead.
# ---------------------------------------------------------------------------


def mean_maximal_under(tree: AlphaTree, i: int, chain) -> float:
    """Measure-weighted average over node i of the maximal function whose
    per-node chain maxima are `chain`; node i's leaves are contiguous."""
    lo, hi = np.searchsorted(tree.leaf_idx, [i, i + tree.size[i]])
    leaves = tree.leaf_idx[lo:hi]
    return float(np.dot(tree.measure[leaves], chain[leaves]) / tree.measure[i])


def exact_variances(tree: AlphaTree, node=None) -> list:
    """The variance of the step function over each cell of the subtree at
    `node` (the root by default), in preorder, in exact arithmetic: from the
    sums of m, m v and m v^2 over the cell's leaves, as Fractions.

    A cell is the union of its leaves, so its measure is their sum, which can
    differ from the node's own (rounded) measure in the last bits."""
    lo = _node_index(tree, node)
    hi = lo + int(tree.size[lo])
    sums = {}
    for i in range(hi - 1, lo - 1, -1):  # preorder: children after parents
        if i not in sums:  # a leaf
            m, v = Fraction(float(tree.measure[i])), Fraction(float(tree.value[i]))
            sums[i] = [m, m * v, m * v * v]
        if i > lo:
            up = sums.setdefault(int(tree.parent[i]), [0, 0, 0])
            for k in range(3):
                up[k] += sums[i][k]
    return [s2 / s0 - (s1 / s0) ** 2 for s0, s1, s2 in (sums[i] for i in range(lo, hi))]


def reference_induction(tree: AlphaTree, node, ctx: AlphaContext) -> float:
    """Margin A(<phi>_K, <phi^2>_K; inf_K N phi) - <N phi>_K at one node,
    with A evaluated at the cell point (<phi>_K, <phi>_K^2 + var) of the
    exact variance."""
    i = _node_index(tree, node)
    norm_sq = tree.sub_bmo_sq[i]
    if norm_sq > 1.0 + TOL:
        raise PreconditionError(
            f"subtree BMO norm {math.sqrt(norm_sq)} exceeds 1; rescale first"
        )
    L = float(tree.anc_max[i])
    mean = float(tree.mean[i])
    x2 = mean * mean + float(exact_variances(tree, i)[0])
    rhs = float(eval_A_arrays(mean, x2, L, ctx)[0])
    return rhs - mean_maximal_under(tree, i, tree.anc_max)


def reference_main_theorem(tree: AlphaTree, node, ctx: AlphaContext) -> TheoremMargins:
    """Decay-inequality and norm-corollary margins at one node."""
    i = _node_index(tree, node)
    norm = math.sqrt(tree.sub_bmo_sq[i])
    under = slice(i, i + int(tree.size[i]))
    out = []
    for chain, mean in ((tree.anc_max, tree.mean), (tree.abs_anc_max, tree.abs_mean)):
        L = float(chain[i])
        t = max(L - float(mean[i]), 0.0)
        margin = L + float(eval_F(t, ctx)) * norm - mean_maximal_under(tree, i, chain)
        vals = chain[tree.leaf_idx]
        spread = _subtree_mean(tree, vals) - _subtree_min(tree, vals)
        out.append((margin, norm - float(np.max(spread[under])), L, t))
    (margin_n, blo_n, L_n, t_n), (margin_m, blo_m, _, _) = out
    return TheoremMargins(margin_n, margin_m, blo_n, blo_m, L=L_n, t=t_n, norm=norm)


def inf_maximal(tree: AlphaTree, node=None, kind: str = "natural") -> float:
    """inf over the node of the maximal function.

    Computed as the supremum of averages over the node's ancestors-or-self;
    the tests check that the two descriptions agree.
    """
    return float(_chain_max(tree, kind)[_node_index(tree, node)])


def verify_induction(tree: AlphaTree, node, ctx: AlphaContext) -> float:
    """Margin A(<phi>_K, <phi^2>_K; inf_K N phi) - <N phi>_K (>= 0) from the
    package's own induction step, at one node.

    Requires the step function to have BMO norm at most 1 on the subtree
    at K (the caller rescales otherwise).
    """
    i = _node_index(tree, node)
    norm_sq = tree.sub_bmo_sq[i]
    if norm_sq > _UNIT_NORM_SQ:
        raise PreconditionError(
            f"subtree BMO norm {math.sqrt(norm_sq)} exceeds 1; rescale first"
        )
    mean_n = _subtree_mean(tree, tree.anc_max[tree.leaf_idx])
    return float(_induction(tree, i, mean_n, ctx)[0])


def truncate(tree: AlphaTree, depth: int) -> AlphaTree:
    """Conditional expectation at a generation: depth-m cells become leaves
    carrying their averages."""
    if depth < 0:
        raise DomainError(f"truncation depth {depth} is negative")
    kept = tree.depth <= depth
    keep = np.flatnonzero(kept)
    parent = (np.cumsum(kept) - 1)[tree.parent[keep]]
    parent[0] = -1
    leaf = (tree.size[keep] == 1) | (tree.depth[keep] == depth)
    value = np.where(leaf, tree.mean[keep], np.nan)
    return _from_arrays(tree.alpha, parent, tree.measure[keep], value, tree.depth[keep])


# ---------------------------------------------------------------------------
# Strip and Bellman-function oracles.
# ---------------------------------------------------------------------------


def eval_Phi(t, n: int):
    """Dyadic specialization Phi_n = F_alpha with alpha = 2^-n."""
    if n < 1 or n != int(n):
        raise DomainError(f"dimension n must be a positive integer, got {n!r}")
    return eval_F(t, make_context(2.0 ** (-int(n))))


def _stencil(x1, x2, h, ctx: AlphaContext, fields):
    """eval_arrays `fields` at the stencil (x1 -/+ h, x2), (x1, x2 -/+ h) of
    each point, as (4, n) arrays (NaN where the stencil leaves the strip),
    and the mask of stencils that stay in the strip and in one region
    (differences across the merely-C^1 interfaces are meaningless)."""
    pts1 = np.asarray(x1, dtype=float).ravel() + np.array([-1, 1, 0, 0])[:, None] * h
    pts2 = np.asarray(x2, dtype=float).ravel() + np.array([0, 0, -1, 1])[:, None] * h
    inside = in_omega(pts1, pts2).all(axis=0)
    ok_idx = np.flatnonzero(inside)
    got = {name: np.full(pts1.shape, np.nan) for name in fields}
    got["region"] = np.full(pts1.shape, -99, dtype=np.int64)
    if ok_idx.size:
        out = eval_arrays(pts1[:, ok_idx].ravel(), pts2[:, ok_idx].ravel(), ctx)
        for name, arr in got.items():
            arr[:, ok_idx] = out[name].reshape(4, -1)
    return got, inside & (got["region"] == got["region"][0]).all(axis=0)


def hessian_grid(x1, x2, ctx: AlphaContext, h_scale: float = 1e-4):
    """Finite-difference Hessian of B on a batch of points.

    Central differences of the closed-form gradient with step
    h = h_scale * (1 + |x1|) per axis; the gradient itself is validated
    against value differences elsewhere, so this is an independent probe of
    the degenerate-Hessian structure.  (Second differences of the value
    would carry an eps/h^2 noise floor of about 1e-8, swamping the
    determinant residual wherever the Hessian itself degenerates to zero.)
    The mixed entry is symmetrized over d(grad1)/dx2 and d(grad2)/dx1.

    Returns (B11, B22, B12, ok); ok flags points whose 4-point stencil
    stays inside the strip and inside a single region.
    """
    h = h_scale * (1.0 + np.abs(np.asarray(x1, dtype=float).ravel()))
    got, ok = _stencil(x1, x2, h, ctx, ("grad1", "grad2"))
    g1, g2 = got["grad1"], got["grad2"]
    b11 = (g1[1] - g1[0]) / (2.0 * h)
    b22 = (g2[3] - g2[2]) / (2.0 * h)
    b12 = 0.5 * ((g1[3] - g1[2]) + (g2[1] - g2[0])) / (2.0 * h)
    return b11, b22, b12, ok


def gradient_grid(x1, x2, ctx: AlphaContext, h: float = 1e-6):
    """Central-difference gradient of B on a batch of points.

    Returns (g1, g2, ok); ok flags stencils that stay in the strip and in
    one region.
    """
    got, ok = _stencil(x1, x2, h, ctx, ("value",))
    vals = got["value"]
    return (vals[1] - vals[0]) / (2.0 * h), (vals[3] - vals[2]) / (2.0 * h), ok


def fd_gradient(x: OmegaPoint, ctx: AlphaContext, h: float = 1e-6) -> tuple[float, float]:
    """Central-difference gradient of B, an oracle for the closed form."""
    f = lambda x1, x2: eval_B(OmegaPoint(x1, x2), ctx).value
    g1 = (f(x.x1 + h, x.x2) - f(x.x1 - h, x.x2)) / (2.0 * h)
    g2 = (f(x.x1, x.x2 + h) - f(x.x1, x.x2 - h)) / (2.0 * h)
    return g1, g2


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
        if not (ctx.sqrt_alpha - TOL <= s <= 1.0 + TOL):
            raise DomainError(
                f"envelope parameter {s} outside [sqrt(alpha), 1] for Omega_1"
            )
        x1 = 0.25 / s**3 - 1.0 + 0.75 * s
        x2 = -(2.0 - 3.0 * s - 6.0 * s**3 + 6.0 * s**4 - 3.0 * s**5) / (4.0 * s**3)
        return OmegaPoint(x1, x2)
    if region.index == 2:
        if not (a - TOL <= s <= ctx.sqrt_alpha + TOL):
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


def w_surface(xi: float, theta: float, ctx: AlphaContext, vregion: int = 2) -> float:
    """The margin H re-parametrized by the extremal trajectory through R.

    xi in [sqrt(alpha), 1] is the horizontal extent v - u of the trajectory,
    theta in [0, 1] the position of R on it, and vregion in {1, 2} selects
    which primitive cell the trajectory's upper endpoint lies in.  With
    delta = tau sqrt((1-theta)(1-xi^2 theta)) the boundary pair is

        p = v - (1-theta) xi + alpha delta/(1-alpha),   q = p + delta.

    The surface vanishes on theta = 1 and, for vregion = 2, on theta = 0
    (where R hits the lower parabola and the recursion b(v) = alpha b(v+tau)
    applies); for vregion = 1 the theta = 0 edge is strictly positive.
    """
    if not (ctx.sqrt_alpha - TOL <= xi <= 1.0 + TOL):
        raise DomainError(f"xi={xi} outside [sqrt(alpha), 1]")
    if not (-TOL <= theta <= 1.0 + TOL):
        raise DomainError(f"theta={theta} outside [0, 1]")
    if vregion == 1:
        v = 0.5 * (3.0 * xi - 1.0 / xi) - 1.0
    elif vregion == 2:
        v = 0.5 * (xi + 1.0 / xi) - ctx.tau - 1.0
    else:
        raise DomainError("vregion must be 1 or 2")
    delta = ctx.tau * math.sqrt(max((1.0 - theta) * (1.0 - xi * xi * theta), 0.0))
    p = v - (1.0 - theta) * xi + ctx.alpha * delta / (1.0 - ctx.alpha)
    return chord_H(p, p + delta, ctx)
