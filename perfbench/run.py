"""The bmoblo benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. Each op is one CLI command, run in-process through
`bmoblo.cli.main(argv)`; the next op starts when the previous one has
returned and its output has been checked. The workloads, their ops and
oracles are in `workloads.py`, the reasons for them in `RATIONALE.md`.

Each workload is an endless, seeded stream of op cycles. --trace 0 measures
the end-to-end metrics over whole cycles: the next cycle starts only while
the last cycle's duration still fits in S seconds. Its times are divided by
the machine's slowdown during them, which `speed.py` measures. --trace 1
runs a fixed prefix of the stream once untraced and once traced, and
reports the per-layer metrics of the traced pass (its counts repeat exactly
for a seed) and the overhead of tracing.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A record with the environment, the inputs
and every failure is written to perfbench/out/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
# A run that passes this many times --seconds stops mid-cycle, so that a
# badly slowed program still ends its run.
HARD_STOP = 3.0


def call_cli(main, argv):
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def measure_setup(probe):
    """Median wall time of a fresh interpreter importing bmoblo.cli, raw and
    divided by the machine's slowdown."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bmoblo.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        spans.append((t0, time.perf_counter() - t0))
    probe.sample()
    raw = statistics.median(dt for _, dt in spans)
    return raw, statistics.median(dt / probe.slowdown(t0, t0 + dt) for t0, dt in spans)


class Client:
    """Runs ops one after another and keeps their latencies and failures."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.starts = []
        self.latencies = []
        self.items = 0.0
        self.attempted = 0
        self.failures = []

    def run(self, op, op_id, timed=True):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                rc, out = call_cli(self.cli.main, op.argv)
            else:
                rc, out = self.tracer.call_op(op_id, call_cli, self.cli.main, op.argv)
            dt = time.perf_counter() - t0
            reason = op.check(rc, out)
        except Exception as exc:  # an op that raises is a failed op
            dt = time.perf_counter() - t0
            reason = f"raised {exc!r}"
        if timed:
            self.starts.append(t0)
            self.latencies.append(dt)
            self.items += op.items
        if reason is not None:
            self.failures.append({"op": op_id, "kind": op.kind, "argv": op.argv, "reason": reason})
        return dt


def tail(latencies):
    """(percentile, value) of the highest percentile with at least 10 ops
    beyond it, by nearest rank; the maximum when there are 10 ops or fewer.
    Below 20 ops that percentile lies under the median, but it moves
    smoothly with the op count, which varies from run to run."""
    xs = sorted(latencies)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return 100.0 * rank / len(xs), xs[rank - 1]


def environment(seed, n_ops, workload):
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_revision": rev,
        "workload": workload,
        "seed": seed,
        "op_count": n_ops,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_untraced(cli, warmup, cycles, seconds):
    """Whole cycles of the op stream, the next one only while the last
    cycle's duration still fits in `seconds`, after an untimed warm-up op.
    Times are divided by the machine's slowdown around them (speed.py);
    the raw figures go to the record."""
    probe = speed.SpeedProbe()
    setup_raw, setup_s = measure_setup(probe)
    client = Client(cli)
    client.run(warmup, -1, timed=False)
    ops = []
    start = time.perf_counter()
    last = 0.0
    with probe:
        for cycle in cycles:
            t_cycle = time.perf_counter()
            if ops and (t_cycle - start + last > seconds or t_cycle - start > HARD_STOP * seconds):
                break
            for op in cycle:
                if time.perf_counter() - start > HARD_STOP * seconds:
                    break
                client.run(op, len(ops))
                ops.append(op)
            last = time.perf_counter() - t_cycle
        probe.sample()
    # The probe's own time is taken out of the ops it interrupted.
    net = [dt - probe.busy(t0, t0 + dt) for t0, dt in zip(client.starts, client.latencies)]
    slowdown = [probe.slowdown(t0, t0 + dt) for t0, dt in zip(client.starts, client.latencies)]
    norm = [dt / f for dt, f in zip(net, slowdown)]
    pct, tail_s = tail(norm)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * statistics.median(norm), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "items_per_s": (client.items / sum(norm), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "setup_s": setup_raw,
        "op_p50_ms": 1e3 * statistics.median(net),
        "op_tail_ms": 1e3 * tail(net)[1],
        "items_per_s": client.items / sum(net),
        "slowdown_p50": statistics.median(slowdown),
    }
    extra = {"op_tail_percentile": pct, "raw": raw, "op_ms": [1e3 * t for t in norm]}
    return client, ops, metrics, extra


def run_traced(cli, warmup, cycles, n_ops):
    """The first cycles holding `n_ops` ops. Each op runs twice, untraced
    and traced, in alternating order, so that drift in the machine's speed
    falls on both sides of the tracing overhead."""
    ops = []
    while len(ops) < n_ops:
        ops.extend(next(cycles))
    plain = Client(cli)
    plain.run(warmup, -1, timed=False)
    tracer = tracing.Tracer()
    traced = Client(cli, tracer)
    unwrapped = []
    for i, op in enumerate(ops):
        for side in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            if side is traced:
                tracer.install()
                try:
                    if i == 0:
                        unwrapped = tracer.unwrapped_bindings()
                    traced.run(op, i)
                finally:
                    tracer.uninstall()
            else:
                plain.run(op, i)
    layer = tracing.layer_metrics(tracer.spans, len(ops))
    layer["trace_overhead_frac"] = (
        statistics.median(traced.latencies) / statistics.median(plain.latencies) - 1.0
    )
    metrics = {k: (v, tracing.UNITS[k]) for k, v in layer.items()}
    traced.attempted += plain.attempted
    traced.failures = plain.failures + traced.failures
    return traced, ops, metrics, {"spans": len(tracer.spans), "unwrapped": unwrapped}, tracer


def inputs_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op.argv).encode())
        h.update(op.data.encode())
    return h.hexdigest()


def load_cli():
    """Import bmoblo.cli from the checkout's src/; exit non-zero without it."""
    if not (SRC / "bmoblo" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'bmoblo'} not found; run from a bmoblo source checkout")
    sys.path.insert(0, str(SRC))
    import bmoblo.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "bmoblo":
        sys.exit(f"error: bmoblo was imported from {cli.__file__}, not from {SRC}")
    return cli


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line dict, record dict)."""
    cli = load_cli()
    OUT.mkdir(exist_ok=True)
    # The warm-up op, a tiny op of the workload's first kind, does the lazy
    # imports and first allocations before anything is timed.
    warmup = next(workloads.make_stream(workload, seed, OUT, tiny=True))[0]
    cycles = workloads.make_stream(workload, seed, OUT, tiny=tiny)
    if trace:
        n_ops = (workloads.TINY_SIZES if tiny else workloads.SIZES)[workload]["traced_ops"]
        client, ops, metrics, extra, tracer = run_traced(cli, warmup, cycles, n_ops)
        tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    else:
        client, ops, metrics, extra = run_untraced(cli, warmup, cycles, seconds)
    failed = len(client.failures)
    result = {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "environment": environment(seed, len(ops), workload),
        "trace": int(trace),
        "seconds": seconds,
        "inputs_sha256": inputs_digest(ops),
        "failed_frac": failed / client.attempted,
        **extra,
        "result": result,
        "failures": client.failures[:20],
        "first_ops": [op.argv for op in ops[:20]],
    }
    return result, record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} ops={env['op_count']} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} cpu={env['cpu']!r} rev={env['git_revision']} "
          f"threads={env['threads']}")
    for key in ("op_tail_percentile", "raw", "spans", "unwrapped", "inputs_sha256"):
        if key in record:
            print(f"# {key} = {record[key]}")
    print(f"# failed_frac = {record['failed_frac']} ({result['failed']}/{result['attempted']})")
    for fail in record["failures"][:5]:
        print(f"# FAILED op {fail['op']} {fail['kind']}: {fail['reason']}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
