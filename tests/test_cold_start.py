"""`import bmoblo` resolves its names on first use, each command loads only
the modules it runs, and the commands that need no numpy run without it.
The result records are named tuples, so no command loads `dataclasses`;
their repr, immutability and order are pinned here too.

The import checks run in a fresh interpreter, since this test session has
numpy and every submodule loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bmoblo
from bmoblo import bellman, trees

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs `python -m bmoblo ARGS` with every import of numpy failing.
BLOCKED = (
    "import runpy, sys; sys.modules['numpy'] = None; "
    "runpy.run_module('bmoblo', run_name='__main__')"
)


def python(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), path))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_import_loads_no_numpy_and_no_layer():
    out = python(
        "-c",
        "import sys, bmoblo, bmoblo.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('bmoblo', 'numpy'))))",
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "['bmoblo', 'bmoblo.cli', 'bmoblo.errors']\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["optimizer", "--jmax", "3", "--depth", "6"],
        ["optimizer", "--jmax", "3", "--depth", "6", "--format", "json"],
        ["--version"],
        ["--help"],
        ["optimizer", "--no-such-flag"],
        ["optimizer", "--jmax", "0"],
        *([c, "--help"] for c in ("eval", "table", "regions", "concavity", "tree", "optimizer")),
    ],
)
def test_runs_without_numpy(argv):
    blocked = python("-c", BLOCKED, *argv)
    plain = python("-m", "bmoblo", *argv)
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (
        plain.returncode,
        plain.stdout,
        plain.stderr,
    )


# Runs cli.main(ARGS), its output discarded, and prints the exit code and
# the bmoblo modules then loaded.
LOADED = (
    "import contextlib, io, sys\n"
    "from bmoblo.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(code, sorted(m for m in sys.modules if m.startswith('bmoblo')))"
)
BASE = ["bmoblo", "bmoblo.cli", "bmoblo.errors"]
KERNEL = ["bmoblo.bellman", "bmoblo.geometry"]


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["eval", "--n", "1", "--x", "0", "1"], KERNEL),
        (["table", "--n", "1", "--kind", "phi"], KERNEL),
        (["regions", "--n", "1"], KERNEL),
        (["concavity", "--n", "1", "--samples", "10"], KERNEL + ["bmoblo.concavity"]),
        (["tree", "TREE"], KERNEL + ["bmoblo.trees"]),
        (["optimizer", "--jmax", "3", "--depth", "6"], ["bmoblo.optimizers"]),
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, argv, extra):
    doc = tmp_path / "tree.json"
    doc.write_text(
        '{"alpha": 0.5, "root": {"measure": 1.0, "children": ['
        '{"measure": 0.5, "value": 1.0}, {"measure": 0.5, "value": -1.0}]}}'
    )
    out = python("-c", LOADED, *(str(doc) if a == "TREE" else a for a in argv))
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == f"0 {sorted(BASE + extra)}\n"


# Runs cli.main(ARGS), its output discarded, and prints whether dataclasses
# was then loaded.
DATACLASSES = (
    "import contextlib, io, sys\n"
    "from bmoblo.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    main(sys.argv[1:])\n"
    "print('dataclasses' in sys.modules)"
)


@pytest.mark.parametrize("argv", [["optimizer", "--jmax", "3", "--depth", "6"], ["--help"]])
def test_loads_no_dataclasses(argv):
    out = python("-c", DATACLASSES, *argv)
    assert (out.returncode, out.stdout, out.stderr) == (0, "False\n", "")


def test_blocking_reaches_a_numpy_command():
    # The block above is real: a command that needs numpy fails under it.
    out = python("-c", BLOCKED, "eval", "--n", "2", "--x", "0", "1")
    assert out.returncode != 0
    assert "numpy" in out.stderr


def test_star_import_binds_the_defining_objects():
    ns = {}
    exec("from bmoblo import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == bmoblo.__all__
    for name in bmoblo.__all__:
        obj = ns[name]
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bmoblo.no_such_name
    assert not hasattr(bmoblo, "no_such_name")
    assert set(bmoblo.__all__) <= set(dir(bmoblo))


def test_names_follow_the_defining_module(monkeypatch):
    orig = bellman.eval_B
    monkeypatch.setattr(bellman, "eval_B", len)
    assert bmoblo.eval_B is len
    monkeypatch.undo()
    assert bmoblo.eval_B is orig


RECORDS = [
    (bmoblo.make_context(0.25), "tau", "AlphaContext(alpha=0.25, tau=1.5, p0=0.25)"),
    (bmoblo.OmegaPoint(-1.5, 3.25), "x1", "OmegaPoint(x1=-1.5, x2=3.25)"),
    (bmoblo.RegionId(3), "index", "RegionId(index=3)"),
    (
        bmoblo.BellmanValue(0.25, 0.625, 0.125),
        "value",
        "BellmanValue(value=0.25, grad1=0.625, grad2=0.125, underflow=False)",
    ),
    (
        bmoblo.Foliation(0.25, 1.0, 1, -2.5, -1.5, -1.5, bmoblo.RegionId(2)),
        "region",
        "Foliation(s=0.25, z=1.0, k=1, u=-2.5, v=-1.5, vplus=-1.5, region=RegionId(index=2))",
    ),
    (
        bmoblo.ChordSample((-1.0, 2.0), (0.5, 1.25), 0.25, 1e-9),
        "margin",
        "ChordSample(xminus=(-1.0, 2.0), xplus=(0.5, 1.25), beta=0.25, margin=1e-09)",
    ),
    (
        bmoblo.SweepReport(0.25, 7, 10, {"chords": 0.5}, {}, {"chords": 0.0}),
        "min_margins",
        "SweepReport(alpha=0.25, seed=7, samples=10, min_margins={'chords': 0.5},"
        " argmins={}, probes={'chords': 0.0})",
    ),
    (
        trees.TheoremMargins(0.5, 0.25, 0.125, 1.0, -1.0, 0.0, 1.0),
        "L",
        "TheoremMargins(margin_n=0.5, margin_m=0.25, blo_margin_n=0.125,"
        " blo_margin_m=1.0, L=-1.0, t=0.0, norm=1.0)",
    ),
    (bmoblo.PsiParams(2, 0.75, 0.5), "gamma", "PsiParams(j=2, gamma=0.75, delta=0.5)"),
    (bmoblo.Enclosure(0.0, 1.0), "lo", "Enclosure(lo=0.0, hi=1.0)"),
    (
        bmoblo.PsiStats(
            3, 6, 0.75, 0.25, 0.5, *(bmoblo.Enclosure(x, x) for x in (0.0, 1.0, 1.0, 0.75))
        ),
        "mean_N",
        "PsiStats(j=3, depth=6, gamma=0.75, delta=0.25, unresolved_mass=0.5,"
        " mean=Enclosure(lo=0.0, hi=0.0), mean_sq=Enclosure(lo=1.0, hi=1.0),"
        " bmo=Enclosure(lo=1.0, hi=1.0), mean_N=Enclosure(lo=0.75, hi=0.75))",
    ),
]


RECORD_IDS = [type(r).__name__ for r, _, _ in RECORDS]


@pytest.mark.parametrize("record,field,text", RECORDS, ids=RECORD_IDS)
def test_record_contract(record, field, text):
    # The repr names the type and every field, and no field can be assigned.
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("record", [r for r, _, _ in RECORDS], ids=RECORD_IDS)
def test_record_is_the_tuple_of_its_fields(record):
    assert record == tuple(record)
    assert type(record)(*record) == record


def test_region_ids_order_by_index():
    RegionId = bmoblo.RegionId
    assert sorted([RegionId(2), RegionId(-1), RegionId(0)]) == [
        RegionId(-1),
        RegionId(0),
        RegionId(2),
    ]
