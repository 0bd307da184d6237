"""Per-layer tracing of bmoblo from outside the package.

`Tracer.install()` replaces the public entry points of each layer by
wrappers that record a span (name, start, end, parent span, op id) and,
for some, a few counts taken from the arguments and results. A function is
replaced at every module binding that holds it, since callers reach it
through their own imports (`classify_codes` through both `geometry` and
`bellman`, `eval_arrays` through `bellman` and `concavity`, ...).

Spans stay in memory and are written out at the end. The counts are taken
after a span has ended; the time that takes is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

import numpy as np

MODULES = ("bmoblo", "bmoblo.cli", "bmoblo.geometry", "bmoblo.bellman",
           "bmoblo.concavity", "bmoblo.trees", "bmoblo.optimizers")


def _post_classify(args, kwargs, result):
    return {"points": int(np.size(result)) if isinstance(result, np.ndarray) else 1}


def _post_eval_arrays(args, kwargs, out):
    code = out["region"]
    info = {
        "points": int(code.size),
        "chain": int(np.count_nonzero(code >= 1)),
        "underflow": int(np.count_nonzero(out["underflow"])),
        "residual": 0.0,
    }
    chain = code >= 1
    if info["chain"]:
        x1, x2 = np.broadcast_arrays(np.atleast_1d(np.asarray(args[0], float)),
                                     np.atleast_1d(np.asarray(args[1], float)))
        g1, g2 = out["grad1"][chain], out["grad2"][chain]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = -g1 / (2.0 * g2)
            r = out["value"][chain] - g1 * (x1[chain] - u) - g2 * (x2[chain] - u * u)
        r = np.abs(r[np.isfinite(r)])
        info["residual"] = float(r.max()) if r.size else 0.0
    return info


def _post_trace_fn(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _post_verify_all_nodes(args, kwargs, out):
    ind = out["induction"]
    return {"nodes": int(ind.size), "skipped": int(np.count_nonzero(np.isnan(ind)))}


def _post_build_psi(args, kwargs, psi):
    hit = bool(np.any(psi.unres_depth + psi.j <= psi.depth))
    return {"leaves": int(psi.leaf_count), "budget_hit": hit}


def _post_psi_stats(args, kwargs, st):
    return {"j": int(st.j), "meanN_width": float(st.mean_N.width)}


# (defining module, function, post-processor). Span names are
# "<layer>.<function>", the layer being the defining module.
TARGETS = (
    ("cli", "main", None),
    ("cli", "cmd_eval", None),
    ("cli", "cmd_table", None),
    ("cli", "cmd_concavity", None),
    ("cli", "cmd_tree", None),
    ("cli", "cmd_optimizer", None),
    ("geometry", "classify", _post_classify),
    ("geometry", "classify_codes", _post_classify),
    ("bellman", "eval_arrays", _post_eval_arrays),
    ("bellman", "eval_B", None),
    ("bellman", "solve_s", None),
    ("bellman", "eval_A", None),
    ("bellman", "eval_majorant", None),
    ("bellman", "eval_A_arrays", None),
    ("bellman", "eval_b", _post_trace_fn),
    ("bellman", "eval_b_prime", _post_trace_fn),
    ("bellman", "eval_F", _post_trace_fn),
    ("bellman", "gamma1_foliation", _post_trace_fn),
    ("concavity", "sweep", None),
    ("concavity", "equality_probes", None),
    ("concavity", "chord_margin", None),
    ("concavity", "check_C2", None),
    ("concavity", "chord_H", None),
    ("trees", "tree_from_json", None),
    ("trees", "validate", None),
    ("trees", "with_leaf_values", None),
    ("trees", "bmo_norm", None),
    ("trees", "blo_norm", None),
    ("trees", "verify_all_nodes", _post_verify_all_nodes),
    ("trees", "verify_main_theorem", None),
    ("optimizers", "m_norm_report", None),
    ("optimizers", "build_psi", _post_build_psi),
    ("optimizers", "psi_stats", _post_psi_stats),
    ("optimizers", "report_to_csv", None),
)

NAME, START, END, PARENT, OP, EXCL, INFO = range(7)


class Tracer:
    """In-memory span recorder; spans are lists indexed by the constants above."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._patched = []

    def _wrap(self, name, fn, post):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if post is not None:
                rec[INFO] = post(args, kwargs, result)
                if stack:
                    spans[stack[-1]][EXCL] += time.perf_counter() - rec[END]
            return result

        return wrapper

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, attr, post in TARGETS:
            orig = getattr(importlib.import_module(f"bmoblo.{layer}"), attr)
            wrapper = self._wrap(f"{layer}.{attr}", orig, post)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def unwrapped_bindings(self):
        """Module bindings that still hold an original target function."""
        modules = [importlib.import_module(m) for m in MODULES]
        origs = {id(orig) for _, _, orig in self._patched}
        return [f"{mod.__name__}.{key}" for mod in modules
                for key, val in vars(mod).items() if id(val) in origs]

    def call_op(self, op_id, fn, *args):
        """Run one op under a root span named "op"; returns fn's result."""
        self.op = op_id
        return self._wrap("op", fn, None)(*args)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP], "info": s[INFO]}) + "\n")


# Unit of every per-layer metric, as listed in BENCHMARK.json.
UNITS = {
    "cli.self_ms_per_op": "ms",
    "geometry.classify.calls_per_op": "count",
    "geometry.classify.ns_per_point": "ns",
    "geometry.classify.share": "fraction",
    "bellman.eval_arrays.ns_per_point": "ns",
    "bellman.eval_arrays.share": "fraction",
    "bellman.eval_arrays.points_per_call_p50": "count",
    "bellman.scalar.us_per_call": "us",
    "bellman.trace.ns_per_point": "ns",
    "bellman.region.chain_frac": "fraction",
    "bellman.underflow_frac": "fraction",
    "bellman.identity_residual_max": "1",
    "concavity.sweep.self_ms_per_op": "ms",
    "concavity.equality_probes.ms_per_op": "ms",
    "trees.parse.ms_per_op": "ms",
    "trees.validate.calls_per_op": "count",
    "trees.validate.ms_per_op": "ms",
    "trees.with_leaf_values.calls_per_op": "count",
    "trees.with_leaf_values.ms_per_op": "ms",
    "trees.norms.ms_per_op": "ms",
    "trees.verify_all_nodes.self_ms_per_op": "ms",
    "trees.verify_main_theorem.ms_per_op": "ms",
    "trees.nodes_per_s": "1/s",
    "trees.skipped_frac": "fraction",
    "optimizers.build_psi.ms_per_op": "ms",
    "optimizers.build_psi.leaves_per_op": "count",
    "optimizers.budget_hits_per_op": "count",
    "optimizers.psi_stats.ms_per_op": "ms",
    "optimizers.meanN_width_j12": "1",
    "trace_overhead_frac": "fraction",
}


def _div(a, b):
    return a / b if b else 0.0


def _weighted_median(values, weights):
    if not values:
        return 0.0
    order = np.argsort(values)
    v = np.asarray(values, float)[order]
    cw = np.cumsum(np.asarray(weights, float)[order])
    return float(v[np.searchsorted(cw, 0.5 * cw[-1])])


def layer_metrics(spans, n_ops) -> dict:
    """The per-layer metrics of one traced pass; times are self times
    (span time minus child spans and tracer bookkeeping) unless named
    as inclusive."""
    dur = [s[END] - s[START] for s in spans]
    self_t = [d - s[EXCL] for d, s in zip(dur, spans)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_t[s[PARENT]] -= dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def self_sum(ids):
        return sum(self_t[i] for i in ids)

    def incl_sum(ids):
        return sum(dur[i] for i in ids)

    def outermost(ids):
        group = {spans[i][NAME] for i in ids}
        return [i for i in ids if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] not in group]

    def info_sum(ids, key):
        return sum(spans[i][INFO][key] for i in ids)

    def layer_self(prefix):
        return sum(t for t, s in zip(self_t, spans) if s[NAME].startswith(prefix))

    op_time = sum(self_t)

    classify = idx("geometry.classify", "geometry.classify_codes")
    classify_out = outermost(classify)
    ea = idx("bellman.eval_arrays")
    scalar = idx("bellman.eval_B", "bellman.solve_s", "bellman.eval_A", "bellman.eval_majorant")
    trace = idx("bellman.eval_b", "bellman.eval_b_prime", "bellman.eval_F", "bellman.gamma1_foliation")
    van = idx("trees.verify_all_nodes")
    psi = idx("optimizers.build_psi")
    stats = idx("optimizers.psi_stats")
    widths = [spans[i][INFO]["meanN_width"] for i in stats if spans[i][INFO]["j"] == 12]
    ea_points = info_sum(ea, "points")

    return {
        "cli.self_ms_per_op": 1e3 * _div(layer_self("cli."), n_ops),
        "geometry.classify.calls_per_op": _div(len(classify_out), n_ops),
        "geometry.classify.ns_per_point": 1e9 * _div(self_sum(classify), info_sum(classify_out, "points")),
        "geometry.classify.share": _div(self_sum(classify), op_time),
        "bellman.eval_arrays.ns_per_point": 1e9 * _div(self_sum(ea), ea_points),
        "bellman.eval_arrays.share": _div(self_sum(ea), op_time),
        "bellman.eval_arrays.points_per_call_p50": _weighted_median(
            [spans[i][INFO]["points"] for i in ea], [spans[i][INFO]["points"] for i in ea]),
        "bellman.scalar.us_per_call": 1e6 * _div(incl_sum(scalar), len(scalar)),
        "bellman.trace.ns_per_point": 1e9 * _div(self_sum(trace), info_sum(outermost(trace), "points")),
        "bellman.region.chain_frac": _div(info_sum(ea, "chain"), ea_points),
        "bellman.underflow_frac": _div(info_sum(ea, "underflow"), ea_points),
        "bellman.identity_residual_max": max((spans[i][INFO]["residual"] for i in ea), default=0.0),
        "concavity.sweep.self_ms_per_op": 1e3 * _div(self_sum(idx("concavity.sweep")), n_ops),
        "concavity.equality_probes.ms_per_op": 1e3 * _div(incl_sum(idx("concavity.equality_probes")), n_ops),
        "trees.parse.ms_per_op": 1e3 * _div(incl_sum(idx("trees.tree_from_json")), n_ops),
        "trees.validate.calls_per_op": _div(len(idx("trees.validate")), n_ops),
        "trees.validate.ms_per_op": 1e3 * _div(incl_sum(idx("trees.validate")), n_ops),
        "trees.with_leaf_values.calls_per_op": _div(len(idx("trees.with_leaf_values")), n_ops),
        "trees.with_leaf_values.ms_per_op": 1e3 * _div(incl_sum(idx("trees.with_leaf_values")), n_ops),
        "trees.norms.ms_per_op": 1e3 * _div(incl_sum(idx("trees.bmo_norm", "trees.blo_norm")), n_ops),
        "trees.verify_all_nodes.self_ms_per_op": 1e3 * _div(self_sum(van), n_ops),
        "trees.verify_main_theorem.ms_per_op": 1e3 * _div(incl_sum(idx("trees.verify_main_theorem")), n_ops),
        "trees.nodes_per_s": _div(info_sum(van, "nodes"), layer_self("trees.")),
        "trees.skipped_frac": _div(info_sum(van, "skipped"), info_sum(van, "nodes")),
        "optimizers.build_psi.ms_per_op": 1e3 * _div(incl_sum(psi), n_ops),
        "optimizers.build_psi.leaves_per_op": _div(info_sum(psi, "leaves"), n_ops),
        "optimizers.budget_hits_per_op": _div(info_sum(psi, "budget_hit"), n_ops),
        "optimizers.psi_stats.ms_per_op": 1e3 * _div(incl_sum(stats), n_ops),
        "optimizers.meanN_width_j12": statistics.fmean(widths) if widths else 0.0,
    }
