"""Committed output digests of CLI commands on every builtin.

Each command runs in-process through `isozono.cli.main`; its argv, exit
status, stdout, stderr and the text of any file it writes go into one
sha256, compared with the committed table in `golden_digests.json`.  A
failure names the command whose output changed.

A change that alters an output on purpose rewrites the table with

    PYTHONPATH=src python tests/test_golden.py --write

and says in CHANGES.md which digests changed and why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from isozono.catalog import BUILTIN_NAMES, builtin_graph
from isozono.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")


def _commands():
    """Per builtin: one `zonotope` report, one `section` at the level
    2h/3 - 1/7 of axis 1 (h the support value there), which is never an
    integer, and `converge --alphas 1:3` (`linf:4` refuses alpha = 1 with
    exit 2, and that refusal is an output too).  Then the exhaustive search
    at m = 6, r = 2 on four graphs and one seeded local search, whose
    witness lists are printed in order."""
    cmds = []
    for name in BUILTIN_NAMES:
        z = builtin_graph(name).zonotope()
        h = z.support(tuple(int(i == 0) for i in range(z.dim)))
        level = Fraction(2 * h, 3) - Fraction(1, 7)
        cmds.append(("zonotope", "--graph", name, "--fvector", "--volume", "--vertices", "--hrep"))
        cmds.append(("section", "--graph", name, "--axis", "1", "--level", str(level)))
        cmds.append(("converge", "--graph", name, "--alphas", "1:3"))
    for name in ("l1:2", "linf:2", "tri", "l1:3"):
        cmds.append(("search", "--graph", name, "--m", "6", "--box-radius", "2"))
    cmds.append(("search", "--graph", "l1:3", "--m", "11", "--mode", "local",
                 "--seed", "7", "--iterations", "1000"))
    return cmds


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.txt"
        args = list(argv) + (["--out", str(path)] if argv[0] == "section" else [])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        written = path.read_text() if path.exists() else ""
    record = json.dumps([list(argv), code, out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(record.encode()).hexdigest()


def _key(argv):
    return " ".join(argv)


@pytest.mark.parametrize("argv", _commands(), ids=_key)
def test_output_digest_matches_the_committed_table(argv):
    assert _digest(argv) == json.loads(TABLE.read_text())[_key(argv)]


def test_the_table_covers_exactly_the_commands():
    assert set(json.loads(TABLE.read_text())) == {_key(a) for a in _commands()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    TABLE.write_text(json.dumps({_key(a): _digest(a) for a in _commands()}, indent=1) + "\n")
