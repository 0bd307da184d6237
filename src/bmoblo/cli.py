"""Command-line interface.

Subcommands
    eval       point evaluation: region, segment parameter, B, gradient, A
    table      CSV tables: phi (decay function), b (boundary trace),
               boundary-regions (region knots)
    regions    alias for `table --kind boundary-regions`
    concavity  seeded randomized concavity sweep
    tree       verify an alpha-tree given as JSON
    optimizer  convergence table of the norm-optimizing family

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
All numeric output uses 17 significant digits, so files are byte-stable
for a fixed seed and flag set.

Each command imports the modules it runs when it runs, so that importing
this module, `--help`, `--version`, usage errors and `optimizer` load no
numpy. Each command also builds only its own arguments: the parser
registers every subcommand's name and help, and fills in all of them only
when argv names none (no arguments, a top-level option or a typo).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import __version__
from .errors import BmobloError, DomainError, StructureError

_FMT = ".17g"
# Most points a --grid, and most --samples or --kmax rows, a command may ask for.
_MAX_COUNT = 10**6
# Largest --n: 2^-1074 is the least positive float, and 2^-1075 rounds to 0.
_MAX_N = 1074
# Tokens argparse reads as values, such as -1e3, -.5 and the grid -1:1:0.5 (its
# own pattern takes only -1 and -1.5); no option starts with a digit.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _fmt(x: float) -> str:
    return format(float(x), _FMT)


def _add_common(p: argparse.ArgumentParser, need_alpha: bool = True):
    if need_alpha:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--alpha", type=float, help="splitting parameter in (0, 1/2]")
        g.add_argument("--n", type=int, help="dyadic dimension; alpha = 2^-n")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def _context(args):
    from .geometry import make_context

    if args.alpha is None and not 1 <= args.n <= _MAX_N:
        raise DomainError(f"--n must lie in 1..{_MAX_N}, got {args.n}")
    alpha = 2.0 ** (-args.n) if args.alpha is None else args.alpha
    return make_context(alpha)


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(spec: str):
    import numpy as np

    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise DomainError(f"grid spec {spec!r} is not lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise DomainError(f"grid spec {spec!r} is not finite")
    if step <= 0 or hi < lo:
        raise DomainError(f"grid spec {spec!r} is empty or has non-positive step")
    # floor(span) + 1 points; a span that overflows to inf fails too.
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_COUNT:
        raise DomainError(f"grid spec {spec!r} has more than {_MAX_COUNT} points")
    return lo + np.arange(int(math.floor(span)) + 1) * step


def _count(flag: str, n: int) -> int:
    if not 1 <= n <= _MAX_COUNT:
        raise DomainError(f"{flag} must lie in 1..{_MAX_COUNT}, got {n}")
    return n


def _rows_to_text(rows, header, args) -> str:
    if args.format == "json":
        payload = [dict(zip(header, r)) for r in rows]
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in r))
    return "\n".join(lines) + "\n"


def _emit_record(record: dict, args) -> None:
    """One record as a JSON object, or as `key = value` lines."""
    if args.format == "json":
        _emit(json.dumps(record, indent=2) + "\n", args)
    else:
        _emit(
            "".join(
                f"{k} = {_fmt(v) if isinstance(v, float) else v}\n"
                for k, v in record.items()
            ),
            args,
        )


def cmd_eval(args) -> int:
    from .bellman import eval_arrays
    from .geometry import OmegaPoint, RegionId, shift_xy

    ctx = _context(args)
    x = OmegaPoint(args.x[0], args.x[1])
    x1, x2 = [x.x1], [x.x2]
    if args.L is not None:
        # A(x; L) = L + B(T_L x): T_L x rides in the same call as x.  A
        # shift that overflows gives a non-finite point, a domain error.
        y1, y2 = shift_xy(args.L, x.x1, x.x2)
        x1.append(y1)
        x2.append(y2)
    try:
        out = eval_arrays(x1, x2, ctx)
    except BmobloError:
        if args.L is not None:
            # A fault of x itself is reported before one of T_L x.
            eval_arrays(x.x1, x.x2, ctx)
            if not math.isfinite(args.L):
                raise DomainError(f"--L must be finite, got {args.L}") from None
        raise
    region = RegionId(int(out["region"][0]))
    record = {
        "x1": x.x1,
        "x2": x.x2,
        "region": str(region),
        "B": float(out["value"][0]),
        "grad1": float(out["grad1"][0]),
        "grad2": float(out["grad2"][0]),
    }
    if region.is_chain:
        record["s"] = float(out["s"][0])
    if args.L is not None:
        record["A"] = float(args.L + out["value"][1])
        record["L"] = args.L
    _emit_record(record, args)
    return 0


def cmd_table(args) -> int:
    import numpy as np

    from .bellman import eval_b, eval_F

    ctx = _context(args)
    if args.kind == "phi":
        ts = _grid(args.grid) if args.grid else np.arange(101) * ctx.tau / 20
        # Knot rows t = k*tau carry the exact values alpha^k; make sure they
        # are present whatever the grid.
        span = ts.max() / ctx.tau + 1e-9
        if not span < _MAX_COUNT:
            raise DomainError(f"--grid {args.grid!r} spans more than {_MAX_COUNT} knots k*tau")
        ts = np.union1d(ts, np.arange(int(math.floor(span)) + 1) * ctx.tau)
        ts = ts[ts >= 0]
        if not ts.size:
            raise DomainError(f"--grid {args.grid!r} lies wholly below t = 0, where phi is undefined")
        return _finish_table(zip(ts.tolist(), eval_F(ts, ctx).tolist()), ("t", "phi"), args)
    if args.kind == "b":
        ps = _grid(args.grid) if args.grid else -5 * ctx.tau + np.arange(141) * ctx.tau / 20
        if not np.any(np.abs(ps) < 1e-15):
            ps = np.union1d(ps, [0.0])
        return _finish_table(zip(ps.tolist(), eval_b(ps, ctx).tolist()), ("p", "b"), args)
    if args.kind == "boundary-regions":
        kmax = _count("--kmax", args.kmax)
        rows = []
        for k in range(1, kmax + 1):
            rows.append(
                (
                    k,
                    float(ctx.p(k)),
                    float(-k * ctx.tau),
                    float(ctx.alpha**k),
                )
            )
        return _finish_table(rows, ("k", "p_k", "tangency", "alpha_pow_k"), args)
    raise DomainError(f"unknown table kind {args.kind!r}")


def _finish_table(rows, header, args) -> int:
    _emit(_rows_to_text(rows, header, args), args)
    return 0


def cmd_concavity(args) -> int:
    from .concavity import sweep

    ctx = _context(args)
    _count("--samples", args.samples)
    if args.seed < 0:
        raise DomainError(f"--seed must be at least 0, got {args.seed}")
    report = sweep(ctx, args.samples, args.seed)
    _emit(report.to_json() + "\n" if args.format == "json" else report.to_text(), args)
    return 0 if report.min_margin >= -1e-9 else 1


def _read_utf8(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise StructureError(path, "document is not UTF-8 text") from None


def cmd_tree(args) -> int:
    from . import trees
    from .geometry import make_context

    try:
        # No reference to the text is kept here, so it is freed once parsed.
        tree = trees.tree_from_json(_read_utf8(args.path))
    except RecursionError:
        raise StructureError(args.path, "document is nested too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise StructureError(args.path, f"document is not JSON: {exc}") from None
    except ValueError as exc:
        # json.loads refuses an integer literal longer than the interpreter's
        # digit limit (4300 by default) with a plain ValueError.
        if isinstance(exc, BmobloError):
            raise
        raise StructureError(args.path, "an integer literal has too many digits") from None
    ctx = make_context(tree.alpha)
    # The induction hypothesis needs a unit-norm function; margins are
    # invariant under the rescale, norms are reported pre-rescale.
    out = trees.verify_all_nodes(trees.with_unit_norm(tree), ctx)
    key_obs = float(out["key_obs"].max())
    # min() propagates NaN, so a node the precondition skipped fails the run.
    margins = {k: float(out[k].min()) for k in ("induction", "main_n", "main_m")}
    # The root's BLO margins are printed (every leaf's is 0); all gate the exit.
    blo = {"natural": float(out["blo_n"][0]), "classical": float(out["blo_m"][0])}
    _emit_record(
        {
            "alpha": tree.alpha,
            "nodes": len(tree),
            "bmo_norm": trees.bmo_norm(tree),
            "blo_norm": trees.blo_norm(tree),
            "key_obs_max_residual": key_obs,
            **{f"min_margin.{k}": v for k, v in margins.items()},
            **{f"blo_margin.{k}": v for k, v in blo.items()},
        },
        args,
    )
    gates = (*margins.values(), out["blo_n"].min(), out["blo_m"].min())
    return 0 if key_obs <= 1e-12 and all(m >= -1e-9 for m in gates) else 1


def cmd_optimizer(args) -> int:
    from .optimizers import m_norm_report, report_to_csv

    if args.jmax < 1:
        raise DomainError("--jmax must be at least 1")
    if args.depth < args.jmax:
        raise DomainError(f"--depth {args.depth} is below --jmax {args.jmax}")
    rows = m_norm_report(range(1, args.jmax + 1), args.depth)
    if args.format == "json":
        # json writes each Enclosure, a (lo, hi) tuple, as a list.
        keys = ("j", "gamma", "delta", "mean", "mean_sq", "bmo", "mean_N", "unresolved_mass")
        payload = [{k: getattr(r, k) for k in keys} for r in rows]
        _emit(json.dumps(payload, indent=2) + "\n", args)
    else:
        _emit(report_to_csv(rows), args)
    return 0 if all(r.targets_enclosed for r in rows) else 1


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for `argv`: every subcommand is registered with its help,
    but when `argv[0]` names one, only that one gets its arguments.  Any
    other argv (none, a top-level option, a typo) builds them all."""
    p = argparse.ArgumentParser(
        prog="bmoblo",
        description="Sharp BMO-to-BLO bounds for dyadic-type maximal operators: "
        "evaluation, verification sweeps, and optimizer reports.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    # Name, help, whether --alpha/--n is taken, own arguments, defaults.
    # Built on each call, so each handler is read from the module as it is.
    commands = (
        ("eval", "evaluate B (and A) at a point", True,
         (("--x", dict(type=float, nargs=2, required=True, metavar=("X1", "X2"))),
          ("--L", dict(type=float, default=None))),
         dict(func=cmd_eval)),
        ("table", "emit CSV/JSON tables", True,
         (("--kind", dict(choices=("phi", "b", "boundary-regions"), required=True)),
          ("--grid", dict(type=str, default=None, help="lo:hi:step")),
          ("--kmax", dict(type=int, default=6))),
         dict(func=cmd_table)),
        ("regions", "region knot table (boundary-regions alias)", True,
         (("--kmax", dict(type=int, default=6)),),
         dict(func=cmd_table, kind="boundary-regions", grid=None)),
        ("concavity", "randomized concavity sweep", True,
         (("--samples", dict(type=int, default=100000)), ("--seed", dict(type=int, default=0))),
         dict(func=cmd_concavity)),
        ("tree", "verify an alpha-tree JSON file", False,
         (("path", dict(type=str)),),
         dict(func=cmd_tree)),
        ("optimizer", "norm-optimizer convergence table", False,
         (("--jmax", dict(type=int, default=12)), ("--depth", dict(type=int, default=24))),
         dict(func=cmd_optimizer)),
    )
    # Every top-level option exits, so only argv[0] can name the subcommand.
    only = argv[0] if argv and argv[0] in [c[0] for c in commands] else None
    for name, help_text, need_alpha, arguments, defaults in commands:
        q = sub.add_parser(name, help=help_text)
        q._negative_number_matcher = _NEGATIVE_NUMBER
        if only in (None, name):
            _add_common(q, need_alpha)
            for flag, kwargs in arguments:
                q.add_argument(flag, **kwargs)
            q.set_defaults(**defaults)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BmobloError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
