"""Test oracles for the optimizer functions.

`bmoblo.optimizers` keeps each leaf of psi_j as a (depth, offset) pair and
never where the leaf lies in (0, 1].  The helpers here need that place:
they take the leaves' int64 positions, (res_pos, unres_pos), listed in the
order of psi's arrays, so that leaf i of depth d is the dyadic interval
(pos * 2^-d, (pos+1) * 2^-d].  The breadth-first reference build in
`test_optimizers.py` yields them.
"""

import math

import numpy as np

from bmoblo.errors import DomainError, ResourceError
from bmoblo.trees import AlphaTree, tree_from_json


def leaf_values(psi, unresolved_mode: str = "inf"):
    """Values of all leaves (resolved then unresolved).

    unresolved_mode "inf" assigns the placeholder (cell infimum)
    -gamma + c*delta; "mean" assigns the exact cell average c*delta.
    """
    res = -psi.gamma + psi.res_offset * psi.delta
    if unresolved_mode == "inf":
        un = -psi.gamma + psi.unres_offset * psi.delta
    elif unresolved_mode == "mean":
        un = psi.unres_offset * psi.delta
    else:
        raise DomainError(f"unknown unresolved_mode {unresolved_mode!r}")
    return res, un


def _located_values(psi, positions, unresolved_mode):
    """(depth, position, value) of every leaf, resolved then unresolved."""
    res_v, un_v = leaf_values(psi, unresolved_mode)
    res_pos, unres_pos = positions
    for deps, poss, vals in (
        (psi.res_depth, res_pos, res_v),
        (psi.unres_depth, unres_pos, un_v),
    ):
        yield from zip(deps.tolist(), poss.tolist(), vals.tolist())


def value_grid(psi, positions, unresolved_mode: str = "inf"):
    """Step-function values on the uniform grid of 2^depth cells."""
    if psi.depth > 24:
        raise ResourceError("value grid limited to depth <= 24")
    grid = np.empty(1 << psi.depth)
    for dep, pos, val in _located_values(psi, positions, unresolved_mode):
        w = 1 << (psi.depth - dep)
        grid[pos * w : (pos + 1) * w] = val
    return grid


def as_alpha_tree(psi, positions, unresolved_mode: str = "mean") -> AlphaTree:
    """The binary partition as a measure-1 half-tree on (0, 1]."""
    if psi.leaf_count > (1 << 16):
        raise ResourceError("tree materialization limited to 2^16 leaves")
    table = {(dep, pos): val for dep, pos, val in _located_values(psi, positions, unresolved_mode)}

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
        raise ResourceError("square enumeration limited to grids of depth <= 8")
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
