"""`import bmoblo` resolves its names on first use, each command loads only
the modules it runs, and the commands that need no numpy run without it.

The import checks run in a fresh interpreter, since this test session has
numpy and every submodule loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bmoblo
from bmoblo import bellman

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
