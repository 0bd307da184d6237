"""Inputs and oracles of the bmoblo benchmark workloads.

Each workload turns a seed into an endless stream of cycles of CLI ops. An
op carries its argv, the number of work items it completes and an oracle
that checks the captured output. The oracles use closed forms written here from PAPER.md
(with `math` and numpy only) and never call into bmoblo, so they cannot
share a defect with the code path being timed.

Every coordinate is written in plain decimal: argparse takes `-0.5` as a
value but reads `-1e-05` as an unknown option. Coordinates lie on the grid
2^-16 and strip gaps on the grid 2^-32 with |x1| < 2^10, so x1^2, x1^2 + gap
and the shift T_L are exact in binary64 and points on the parabolas lie on
them exactly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Input sizes, and the tiny sizes the self-test uses. `traced_ops` is the
# fixed prefix of the op stream that a traced run covers, so that its
# counts repeat exactly.
SIZES = {
    "queries": {"traced_ops": 336},
    "sweep": {"traced_ops": 9, "samples": 100000},
    "tree": {"traced_ops": 2, "balanced_depth": 16, "random_nodes": 100000},
    "optimizer": {"traced_ops": 8, "jmax": 12, "depth": 24},
}
TINY_SIZES = {
    "queries": {"traced_ops": 112},
    "sweep": {"traced_ops": 3, "samples": 2000},
    "tree": {"traced_ops": 2, "balanced_depth": 5, "random_nodes": 150},
    "optimizer": {"traced_ops": 2, "jmax": 4, "depth": 8},
}

# (argv spelling, alpha) pairs; --n k means alpha = 2^-k.
SPELLINGS = (
    (("--n", "1"), 0.5),
    (("--alpha", "0.5"), 0.5),
    (("--n", "2"), 0.25),
    (("--alpha", "0.25"), 0.25),
    (("--alpha", "0.1"), 0.1),
)

# Points on Gamma_1 stop at x1 = -10^1.5. Farther left the fold's
# cancellation in y2 = x2 + 2 a x1 + a^2 leaves some of them a few ulps
# outside the strip, and the foliation solve raises ConvergenceError
# (`eval --alpha 0.1 --x -793.9095916748047 630293.4397532551` exits 2).
GAMMA1_MAX_DECADE = 1.5
X_GRID = 2.0**-16
GAP_GRID = 2.0**-32


@dataclass
class Op:
    kind: str
    argv: list
    items: float
    check: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> failure or None
    data: str = ""  # contents of an input file the op reads


def plain(x: float) -> str:
    """Shortest round-tripping decimal, never in scientific notation."""
    return np.format_float_positional(float(x), unique=True, trim="-")


def close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * max(abs(got), abs(want))


# ---------------------------------------------------------------------------
# Closed forms (PAPER.md): tau, the knots p_k, the profile f and the trace b.
# ---------------------------------------------------------------------------


def tau_of(alpha: float) -> float:
    r = math.sqrt(alpha)
    return 1.0 / r - r


def p0_of(alpha: float) -> float:
    r = math.sqrt(alpha)
    return 0.5 * r + 0.5 / r - 1.0


def profile_f(y: float) -> float:
    r = math.sqrt(y * y + 3.0)
    return (2.0 * y**3 + 2.0 * y * y * r + 9.0 * y + 6.0 * r) / 27.0


def trace_b(p: float, alpha: float) -> float:
    """b(p) = B(p, p^2 + 1): p + 1 right of the axis; left of it the cubic
    arc alpha^k f(p + k tau + 1) on [p_{k+1}, -k tau] and the affine arc
    alpha^(k+1) (p + (k+1) tau + 1) on [-(k+1) tau, p_{k+1})."""
    if p >= 0.0:
        return p + 1.0
    tau = tau_of(alpha)
    k = max(math.floor(-p / tau), 0)
    if p >= p0_of(alpha) - (k + 1) * tau:
        return alpha**k * profile_f(p + k * tau + 1.0)
    return alpha ** (k + 1) * (p + (k + 1) * tau + 1.0)


# ---------------------------------------------------------------------------
# Output parsing.
# ---------------------------------------------------------------------------


def parse_kv(out: str) -> dict:
    rec = {}
    for line in out.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            rec[key.strip()] = val.strip()
    return rec


def parse_table(out: str, fmt: str) -> list:
    if fmt == "json":
        return [{k: float(v) for k, v in row.items()} for row in json.loads(out)]
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def guarded(check):
    """Turn a parse error inside an oracle into a reported failure."""

    def run(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        try:
            return check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {exc!r}"

    return run


# ---------------------------------------------------------------------------
# queries: short interactive commands, one point or one table per op.
# ---------------------------------------------------------------------------


def _grid_x(x: float) -> float:
    return round(x / X_GRID) * X_GRID


def _grid_gap(g: float) -> float:
    return round(g / GAP_GRID) * GAP_GRID


def _draw_point(rng, cat, u):
    """(x1, gap) of a category at quantile u of its x1 range; x2 = x1^2 + gap
    is exact on the grids. Off the axis x1 is log-uniform from -10^-2."""
    if cat == "plus":
        return _grid_x(0.01 + 9.99 * u), _grid_gap(rng.uniform(1e-3, 1.0))
    if cat == "zero":
        x1 = _grid_x(-0.01 - 0.98 * u)
        return x1, _grid_gap(rng.uniform(0.0, 1.0 - x1 * x1 - 1e-6))
    top = GAMMA1_MAX_DECADE if cat == "gamma1" else 3.0
    x1 = _grid_x(-(10.0 ** (-2.0 + (top + 2.0) * u)))
    if cat == "gamma0":
        return x1, 0.0
    if cat == "gamma1":
        return x1, 1.0
    # A chain point lies above x2 = 1.
    return x1, _grid_gap(rng.uniform(max(1e-3, 1.0 - x1 * x1 + 1e-6), 1.0))


def _expected_B(cat, x1, x2, gap):
    """Closed-form (value, grad1, grad2) where one applies, else None."""
    if cat == "plus":
        r = math.sqrt(gap)
        return x1 + r, 1.0 - x1 / r, 0.5 / r
    if cat == "zero":
        r = math.sqrt(x2)
        return x1 + r, 1.0, 0.5 / r
    return None


def _expected_A(L, y1, gap, alpha):
    """(lo, hi) bracket of A(x; L) = L + B(y), y = T_L x = (y1, y1^2 + gap).

    Exact where B has a closed form at y; in the interior of the chain cells
    the bracket L <= A <= L + y1 + sqrt(y2) of the concave majorant."""
    y2 = y1 * y1 + gap
    if y1 >= 0.0:
        v = L + y1 + math.sqrt(gap)
        return v, v
    if y2 <= 1.0:
        v = L + y1 + math.sqrt(y2)
        return v, v
    if gap == 0.0:
        return L, L
    if gap == 1.0:
        v = L + trace_b(y1, alpha)
        return v, v
    return L, L + y1 + math.sqrt(y2)


def _eval_op(rng, spelling, alpha, cat, u):
    x1, gap = _draw_point(rng, cat, u)
    x2 = x1 * x1 + gap
    fmt = "json" if rng.uniform() < 0.25 else "csv"
    argv = ["eval", *spelling, "--x", plain(x1), plain(x2), "--format", fmt]
    L = None
    if rng.uniform() < 0.5:
        y1 = _grid_x(rng.uniform(-3.0, 3.0))
        L = x1 - y1
        argv += ["--L", plain(L)]

    def check(out):
        if fmt == "json":
            rec = json.loads(out)
        else:
            rec = parse_kv(out)
        if float(rec["x1"]) != x1 or float(rec["x2"]) != x2:
            return "echoed point differs from the input"
        region = str(rec["region"])
        B, g1, g2 = float(rec["B"]), float(rec["grad1"]), float(rec["grad2"])
        want_region = "Omega_plus" if x1 >= 0 else "Omega_0" if x2 <= 1.0 else "chain"
        if want_region == "chain":
            m = re.fullmatch(r"Omega_(\d+)", region)
            if not m or int(m.group(1)) < 1:
                return f"region {region} is not a chain cell"
        elif region != want_region:
            return f"region {region}, expected {want_region}"
        exp = _expected_B(cat, x1, x2, gap)
        if exp is not None:
            for name, got, want in zip(("B", "grad1", "grad2"), (B, g1, g2), exp):
                if not close(got, want, 1e-12, 1e-12):
                    return f"{name} = {got!r}, closed form {want!r}"
        if x1 < 0 and gap == 0.0 and not close(B, 0.0, 0.0, 1e-12):
            return f"B = {B!r} on Gamma_0"
        if x1 < 0 and gap == 1.0 and not close(B, trace_b(x1, alpha), 1e-9, 1e-300):
            return f"B = {B!r} on Gamma_1, trace b = {trace_b(x1, alpha)!r}"
        if want_region == "chain":
            s = float(rec["s"])
            if not close(s, 2.0 * g2, 1e-9, 1e-300):
                return f"s = {s!r} but 2 grad2 = {2 * g2!r}"
            if g2 > 0.0:
                u = -g1 / (2.0 * g2)
                resid = B - g1 * (x1 - u) - g2 * (x2 - u * u)
                if not abs(resid) <= 1e-9:
                    return f"segment identity residual {resid!r}"
            elif B != 0.0:
                return f"B = {B!r} with a vanishing gradient"
            if not -1e-12 <= B <= x1 + math.sqrt(x2) + 1e-9:
                return f"B = {B!r} outside [0, x1 + sqrt(x2)]"
        if L is not None:
            if float(rec["L"]) != L:
                return "echoed L differs from the input"
            A = float(rec["A"])
            lo, hi = _expected_A(L, x1 - L, gap, alpha)
            tol = 1e-12 * (1.0 + abs(L))
            if not lo - tol <= A <= hi + tol:
                return f"A = {A!r} outside [{lo!r}, {hi!r}]"
        return None

    return Op(f"eval.{cat}", argv, 1, guarded(check))


def _phi_op(rng, spelling, alpha):
    tau = tau_of(alpha)
    fmt = "json" if rng.uniform() < 0.5 else "csv"
    argv = ["table", *spelling, "--kind", "phi", "--format", fmt]
    if rng.uniform() < 0.5:
        hi = round(rng.uniform(1.0, 8.0) * tau, 2)
        argv.append("--grid=0:" + plain(hi) + ":" + plain(round(tau / 25.0, 4)))

    def check(out):
        rows = parse_table(out, fmt)
        ts = {row["t"]: row["phi"] for row in rows}
        for t, phi in ts.items():
            if t < 0 or not close(phi, trace_b(-t, alpha), 1e-10, 1e-300):
                return f"phi({t!r}) = {phi!r}, trace gives {trace_b(-t, alpha)!r}"
        kmax = int(math.floor(max(ts) / tau + 1e-9))
        for k in range(kmax + 1):
            got = ts.get(k * tau)
            if got is None or not close(got, alpha**k, 1e-12, 1e-300):
                return f"knot phi({k} tau) = {got!r}, expected alpha^{k}"
        return None

    return Op("table.phi", argv, 1, guarded(check))


def _b_op(rng, spelling, alpha):
    tau = tau_of(alpha)
    fmt = "json" if rng.uniform() < 0.5 else "csv"
    argv = ["table", *spelling, "--kind", "b", "--format", fmt]
    if rng.uniform() < 0.5:
        lo = -round(rng.uniform(1.0, 8.0) * tau, 2)
        argv.append("--grid=" + plain(lo) + ":2:" + plain(round(tau / 20.0, 4)))

    def check(out):
        rows = parse_table(out, fmt)
        if not any(abs(row["p"]) < 1e-15 for row in rows):
            return "row p = 0 missing"
        for row in rows:
            if not close(row["b"], trace_b(row["p"], alpha), 1e-10, 1e-300):
                return f"b({row['p']!r}) = {row['b']!r}, trace gives {trace_b(row['p'], alpha)!r}"
        return None

    return Op("table.b", argv, 1, guarded(check))


def _regions_op(rng, spelling, alpha):
    kmax = int(rng.integers(3, 13))
    fmt = "json" if rng.uniform() < 0.5 else "csv"
    argv = ["regions", *spelling, "--kmax", str(kmax), "--format", fmt]
    tau, p0 = tau_of(alpha), p0_of(alpha)

    def check(out):
        rows = parse_table(out, fmt)
        if [int(r["k"]) for r in rows] != list(range(1, kmax + 1)):
            return "region rows are not k = 1..kmax"
        for r in rows:
            k = int(r["k"])
            want = (p0 - k * tau, -k * tau, alpha**k)
            got = (r["p_k"], r["tangency"], r["alpha_pow_k"])
            if not all(close(g, w, 1e-15) for g, w in zip(got, want)):
                return f"region row {k} = {got!r}, expected {want!r}"
        return None

    return Op("regions", argv, 1, guarded(check))


# Evals per alpha spelling and point category in one block of `queries`.
EVAL_STRATA = (("plus", 2), ("zero", 2), ("gamma0", 2), ("gamma1", 2), ("chain", 12))
TABLES_PER_BLOCK = 4


def queries_cycles(rng, sizes, workdir):
    """Endless stream of shuffled blocks of 112 ops: 100 evals (10 % in each
    of Omega_plus, Omega_0, Gamma_0 and Gamma_1, 60 % in the chain cells,
    20 per alpha spelling, half with --L) and 4 each of the phi table, the
    b table and the region table.

    The x1 quantiles of each spelling and category follow the golden-ratio
    sequence u_k = u_0 + k / phi (mod 1) from a seeded u_0, which spreads
    them evenly over the range in every stretch of the stream. The mix of
    cheap and far-left points, and so the tail, is then the same from run
    to run."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    u = {key: rng.uniform() for key in np.ndindex(len(SPELLINGS), len(EVAL_STRATA))}
    while True:
        ops = []
        for i, (spelling, alpha) in enumerate(SPELLINGS):
            for j, (cat, n) in enumerate(EVAL_STRATA):
                for _ in range(n):
                    u[i, j] = (u[i, j] + golden) % 1.0
                    ops.append(_eval_op(rng, spelling, alpha, cat, u[i, j]))
        for make in (_phi_op, _b_op, _regions_op):
            for _ in range(TABLES_PER_BLOCK):
                spelling, alpha = SPELLINGS[int(rng.integers(len(SPELLINGS)))]
                ops.append(make(rng, spelling, alpha))
        yield [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# sweep: `concavity --samples N`, cycling alpha = 1/2, 1/4, 0.1.
# ---------------------------------------------------------------------------

SWEEP_SPELLINGS = ((("--n", "1"), 0.5), (("--n", "2"), 0.25), (("--alpha", "0.1"), 0.1))


def _sweep_op(spelling, alpha, samples, seed):
    argv = ["concavity", *spelling, "--samples", str(samples), "--seed", str(seed)]

    def check(out):
        rec = parse_kv(out)
        if float(rec["alpha"]) != alpha or int(rec["samples"]) != samples:
            return "echoed alpha or samples differ from the input"
        if int(rec["seed"]) != seed:
            return "echoed seed differs from the input"
        for fam in ("chords", "dirder", "chord_H"):
            probe = float(rec[f"probe_abs_margin.{fam}"])
            if not abs(probe) < 1e-6:
                return f"equality probe {fam} = {probe!r}, not below 1e-6"
        return None

    return Op(f"concavity.{alpha}", argv, 3 * samples, guarded(check))


def sweep_cycles(rng, sizes, workdir):
    """Endless stream of cycles alpha = 1/2, 1/4, 0.1, each op with a new
    sweep seed drawn from the workload seed."""
    while True:
        seeds = rng.integers(0, 2**31, 3)
        yield [_sweep_op(*sp, sizes["samples"], int(s)) for sp, s in zip(SWEEP_SPELLINGS, seeds)]


# ---------------------------------------------------------------------------
# tree: `tree FILE` on alpha-trees written at setup.
# ---------------------------------------------------------------------------


@dataclass
class TreeArrays:
    """A tree as arrays in which parents precede their children."""

    alpha: float
    parent: np.ndarray
    measure: np.ndarray
    value: np.ndarray  # NaN at internal nodes
    children: list  # child index lists, empty at leaves


def balanced_tree(depth: int, rng) -> TreeArrays:
    n = 2 ** (depth + 1) - 1
    idx = np.arange(n)
    parent = (idx - 1) // 2
    level = np.floor(np.log2(idx + 1)).astype(int)
    measure = np.ldexp(1.0, -level)
    n_int = 2**depth - 1
    value = np.full(n, np.nan)
    value[n_int:] = rng.normal(size=n - n_int)
    children = [[2 * i + 1, 2 * i + 2] for i in range(n_int)] + [[] for _ in range(n - n_int)]
    return TreeArrays(0.5, parent, measure, value, children)


def random_tree(alpha: float, target: int, rng) -> TreeArrays:
    """Random alpha-tree with arity 2..4 and uneven child measures.

    A uniformly chosen leaf is split until the next split would pass
    `target` nodes, so the tree always ends within 3 nodes of it, with
    uneven depths. Child fractions are alpha + (1 - a alpha) times a
    Dirichlet draw, so every child keeps at least alpha of its parent."""
    max_arity = min(4, int(1.0 / alpha + 1e-9))
    parent, measure, children = [-1], [1.0], [[]]
    leaves = [0]
    while True:
        a = int(rng.integers(2, max_arity + 1))
        if len(parent) + a > target:
            break
        k = int(rng.integers(len(leaves)))
        i = leaves[k]
        leaves[k] = leaves[-1]
        leaves.pop()
        fracs = alpha + (1.0 - a * alpha) * rng.dirichlet(np.ones(a))
        for frac in fracs:
            children[i].append(len(parent))
            leaves.append(len(parent))
            parent.append(i)
            measure.append(measure[i] * float(frac))
            children.append([])
    value = np.array([np.nan if c else 0.0 for c in children])
    is_leaf = np.isfinite(value)
    value[is_leaf] = rng.normal(size=int(is_leaf.sum()))
    return TreeArrays(alpha, np.array(parent), np.array(measure), value, children)


def tree_json(t: TreeArrays) -> str:
    """The CLI's wire format, written from the arrays without an object graph."""

    def node(i):
        m = repr(float(t.measure[i]))
        kids = t.children[i]
        if not kids:
            return '{"measure": %s, "value": %r}' % (m, float(t.value[i]))
        return '{"measure": %s, "children": [%s]}' % (m, ", ".join(map(node, kids)))

    return '{"alpha": %r, "root": %s}' % (t.alpha, node(0))


def tree_bmo(t: TreeArrays) -> float:
    """sup over cells of (<phi^2> - <phi>^2)^(1/2), summed one generation at
    a time from the deepest up."""
    leaf = np.isfinite(t.value)
    v = np.where(leaf, t.value, 0.0)
    integ = t.measure * v
    integ_sq = t.measure * v * v
    depth = np.zeros(len(t.parent), dtype=np.int64)
    for i in range(1, len(t.parent)):
        depth[i] = depth[t.parent[i]] + 1
    for d in range(int(depth.max()), 0, -1):
        sel = np.flatnonzero(depth == d)
        np.add.at(integ, t.parent[sel], integ[sel])
        np.add.at(integ_sq, t.parent[sel], integ_sq[sel])
    mean = integ / t.measure
    var = np.maximum(integ_sq / t.measure - mean * mean, 0.0)
    return float(math.sqrt(var.max()))


def _tree_op(t: TreeArrays, path) -> Op:
    nodes = len(t.parent)
    text = tree_json(t)
    path = path.with_name(path.name.format(nodes))
    path.write_text(text)
    bmo = tree_bmo(t)

    def check(out):
        rec = parse_kv(out)
        if float(rec["alpha"]) != t.alpha or int(rec["nodes"]) != nodes:
            return f"alpha/nodes = {rec['alpha']}/{rec['nodes']}, expected {t.alpha!r}/{nodes}"
        if not close(float(rec["bmo_norm"]), bmo, 1e-9):
            return f"bmo_norm = {rec['bmo_norm']}, recomputed {bmo!r}"
        return None

    return Op(f"tree.{t.alpha}", ["tree", str(path)], nodes, guarded(check), text)


def tree_cycles(rng, sizes, workdir):
    """The same two files in every cycle: the balanced binary tree at
    alpha = 1/2 and the random tree at alpha = 1/4."""
    cycle = [
        _tree_op(balanced_tree(sizes["balanced_depth"], rng), workdir / "balanced-{}.json"),
        _tree_op(random_tree(0.25, sizes["random_nodes"], rng), workdir / "random-{}.json"),
    ]
    while True:
        yield cycle


# ---------------------------------------------------------------------------
# optimizer: `optimizer --jmax J --depth D`, alternating csv and json.
# ---------------------------------------------------------------------------


def _optimizer_op(jmax, depth, fmt):
    argv = ["optimizer", "--jmax", str(jmax), "--depth", str(depth), "--format", fmt]

    def check(out):
        if fmt == "json":
            rows = [(r["j"], r["gamma"], r["mean_N"][0]) for r in json.loads(out)]
        else:
            rows = [(r["j"], r["gamma_j"], r["meanN_lo"]) for r in parse_table(out, "csv")]
        if [int(j) for j, _, _ in rows] != list(range(1, jmax + 1)):
            return "rows are not j = 1..jmax"
        for j, gamma, mean_n_lo in rows:
            want = 1.0 / math.sqrt(1.0 + 2.0 ** (1 - int(j)))
            if not close(gamma, want, 1e-15):
                return f"gamma_{int(j)} = {gamma!r}, expected {want!r}"
            if not mean_n_lo >= want - 1e-3:
                return f"meanN_lo at j = {int(j)} is {mean_n_lo!r}, below gamma - 1e-3"
        return None

    return Op(f"optimizer.{fmt}", argv, jmax, guarded(check))


def optimizer_cycles(rng, sizes, workdir):
    """The same csv and json ops in every cycle; the seed picks which comes
    first."""
    fmts = ("csv", "json")[:: 1 if rng.uniform() < 0.5 else -1]
    cycle = [_optimizer_op(sizes["jmax"], sizes["depth"], fmt) for fmt in fmts]
    while True:
        yield cycle


CYCLES = {
    "queries": queries_cycles,
    "sweep": sweep_cycles,
    "tree": tree_cycles,
    "optimizer": optimizer_cycles,
}


def make_stream(workload: str, seed: int, workdir, tiny: bool = False):
    """Endless iterator of the op cycles of a workload. The same seed gives
    the same ops and input files."""
    rng = np.random.default_rng([seed, list(CYCLES).index(workload)])
    return CYCLES[workload](rng, (TINY_SIZES if tiny else SIZES)[workload], workdir)
