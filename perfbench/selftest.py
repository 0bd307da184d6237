"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that

  * every metric named in BENCHMARK.json is emitted with its unit,
    end-to-end metrics untraced and per-layer metrics traced, with no
    failed op;
  * a different seed changes the inputs but not the metric names;
  * a deliberately corrupted answer is counted as a failed op;
  * the tracer leaves no module binding of a traced function unwrapped;
  * without the package sources the benchmark exits non-zero and prints
    no result.

Exits 0 when every check passes and 1 otherwise.
"""

import json
import re
import shutil
import subprocess
import sys

import run
import workloads

NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def corrupt_once(call_cli, skip):
    """call_cli with every number of one answer nudged by a part in 10^6."""
    calls = {"n": 0}

    def wrapped(main, argv):
        rc, out = call_cli(main, argv)
        calls["n"] += 1
        if calls["n"] == skip + 1:
            out = NUMBER.sub(lambda m: repr(float(m.group()) * (1 + 1e-6) + 1e-6), out)
        return rc, out

    return wrapped


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            names = []
            for seed in (1, 2):
                result, record = run.run(w, seed, 0.2, trace, tiny=True)
                names.append({k: m["unit"] for k, m in result["metrics"].items()})
                expect(result["failed"] == 0 and result["correct"],
                       f"{w} trace={trace} seed={seed}: no failed op {record['failures'][:1]}")
                if trace:
                    expect(record["unwrapped"] == [],
                           f"{w}: every binding traced {record['unwrapped']}")
            expect(names[0] == want[trace],
                   f"{w} trace={trace}: emits exactly the BENCHMARK.json metrics and units "
                   f"(missing {sorted(set(want[trace]) - set(names[0]))})")
            expect(names[0] == names[1], f"{w} trace={trace}: metric names independent of the seed")

        digests = set()
        for seed in (1, 2, 3, 4):
            cycles = workloads.make_stream(w, seed, run.OUT, tiny=True)
            digests.add(run.inputs_digest(next(cycles) + next(cycles)))
        expect(len(digests) > 1, f"{w}: the seed changes the inputs")

        original = run.call_cli
        run.call_cli = corrupt_once(original, skip=1)
        try:
            result, record = run.run(w, 1, 0.2, 0, tiny=True)
        finally:
            run.call_cli = original
        expect(result["failed"] == 1 and record["failed_frac"] == 1 / result["attempted"],
               f"{w}: a corrupted answer counts in failed_frac ({record['failures'][:1]})")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
