"""Committed output digests of CLI commands on every builtin, and of
library outputs that no command prints.

Each command runs in-process through `isozono.cli.main`; its argv, exit
status, stdout, stderr and the text of any file it writes go into one
sha256, compared with the committed table in `golden_digests.json`.  A
failure names the command whose output changed.  Each library list (seeded
generator sets and point sets, `_LIBRARY`) goes into one sha256 of its
inputs and outputs, under its own name in the same table.

A change that alters an output on purpose rewrites the table with

    PYTHONPATH=src python tests/test_golden.py --write

and says in CHANGES.md which digests changed and why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from isozono.boundary import brunn_minkowski_certificate, directional_sweep
from isozono.catalog import BUILTIN_NAMES, builtin_graph
from isozono.cli import main
from isozono.geometry import convex_hull
from isozono.intmat import canonical_sign, primitive_part, rank
from isozono.search import convergence_experiment, zonotope_point_set
from isozono.zonotope import Zonotope, f_vector

TABLE = Path(__file__).with_name("golden_digests.json")


def _commands():
    """Per builtin: one `zonotope` report, one `section` at the level
    2h/3 - 1/7 of axis 1 (h the support value there), which is never an
    integer, and `converge --alphas 1:3`, whose integer rows come from the
    Ehrhart polynomial on every builtin.  Then the exhaustive search
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


def _generator_sets(rng, dim, sizes, entries):
    """One spanning canonical generator set per size k in `sizes`, entries
    drawn from `entries`: {-1, 0, 1} gives many dependent subsets."""
    sets = []
    for k in sizes:
        while True:
            gens = {canonical_sign(primitive_part(v)) for v in
                    (tuple(rng.choice(entries) for _ in range(dim)) for _ in range(k)) if any(v)}
            if len(gens) == k and rank(list(gens), dim) == dim:
                sets.append(tuple(sorted(gens)))
                break
    return sets


def _zonotope_records(dim, sets):
    records = []
    for gens in sets:
        z = Zonotope(dim, gens)
        P = z.polytope()
        records.append([gens, z.volume(), f_vector(z).counts, P.vertices, P.facets])
    return records


def _zonotopes_4d():
    """20 non-builtin 4-D sets, k = 5..14: ten with entries in {-1, 0, 1}
    (degenerate), ten in -3..3."""
    rng = random.Random(2401)
    return _zonotope_records(4, _generator_sets(rng, 4, range(5, 15), (-1, 0, 1))
                             + _generator_sets(rng, 4, range(5, 15), range(-3, 4)))


def _zonotopes_5d():
    """5 random 5-D sets, k = 6..8."""
    rng = random.Random(2402)
    return _zonotope_records(5, _generator_sets(rng, 5, (6, 6, 7, 7, 8), (-1, 0, 1, 2)))


def _hulls():
    """30 full-dimensional hulls: 15 in 3-D and 15 in 4-D, of 5 to 24 points
    with integer or half-integer coordinates in [-4, 4]."""
    rng = random.Random(2403)
    records = []
    for dim in (3, 4):
        while len(records) < (15 if dim == 3 else 30):
            q = rng.choice((1, 2))
            pts = sorted({tuple(Fraction(rng.randint(-4 * q, 4 * q), q) for _ in range(dim))
                          for _ in range(rng.randint(5, 24))})
            P = convex_hull(pts)
            if P.is_full_dimensional():
                records.append([pts, P.vertices, P.facets, P.facet_cells()])
    return records


def _certificates():
    """volume(), the sweep along every generator and every `BMCertificate`
    field of each `_hulls()` body on each builtin of its dimension; then the
    vertices and chart (base, basis, left, body) of 12 seeded flat 2-D to
    4-D point sets with integer, half- or third-integer coordinates."""
    records = []
    for pts, *_ in _hulls():
        P = convex_hull(pts)
        records.append([pts, P.volume()])
        for name in BUILTIN_NAMES:
            g = builtin_graph(name)
            if g.dim == P.dim:
                c = brunn_minkowski_certificate(P, g)
                records.append([name, [directional_sweep(P, v) for v in g.generators],
                                [c.dim, c.boundary_value, c.volume, c.zonotope_volume, c.lhs,
                                 c.rhs, c.holds, c.is_equality, c.homothetic, c.homothety]])
    rng = random.Random(2404)
    for dim in (2, 3, 3, 3, 4, 4, 4, 4, 2, 3, 4, 4):
        q = rng.choice((1, 2, 3))
        base = [Fraction(rng.randint(-6, 6), q) for _ in range(dim)]
        dirs = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, dim - 1))]
        pts = set()
        for _ in range(rng.randint(3, 12)):
            ys = [Fraction(rng.randint(-4, 4), q) for _ in dirs]
            pts.add(tuple(b + sum(y * d[i] for y, d in zip(ys, dirs)) for i, b in enumerate(base)))
        pts = sorted(pts)
        P = convex_hull(pts)
        c = P.chart
        records.append([pts, P.vertices, P.facets] + (
            [] if c is None else [c.base, c.basis, c.left, c.body.vertices, c.body.facets]))
    return records


def _lattice_sets():
    """Per builtin whose line scan fits the default budget (all but `linf:4`):
    every field of the `convergence_experiment` rows at alpha = 1/2, 1, 3/2,
    2, 5/2, 3, then the points and edge boundary of `zonotope_point_set` at
    alpha = 1/2, 3/2, 5/2 about the centre c = (sum_i v_i mod 2) / 2, where
    alpha Z + c is a lattice zonotope with generators 2 alpha v_i."""
    records = []
    for name in BUILTIN_NAMES:
        if name == "linf:4":
            continue
        g = builtin_graph(name).graph()
        rows = convergence_experiment(g, [Fraction(k, 2) for k in range(1, 7)])
        records.append([name, [[r.alpha, r.points, r.volume, r.discrete_boundary,
                                r.continuous_boundary, r.vol_ratio, r.boundary_ratio]
                               for r in rows]])
        centre = tuple(Fraction(sum(v[i] for v in g.generators) % 2, 2) for i in range(g.dim))
        for k in (1, 3, 5):
            ps = zonotope_point_set(g, Fraction(k, 2), centre)
            records.append([name, k, centre, ps.points, ps.edge_boundary])
    return records


_LIBRARY = {"library: 4-D zonotopes": _zonotopes_4d, "library: 5-D zonotopes": _zonotopes_5d,
            "library: 3-D and 4-D hulls": _hulls,
            "library: hull volumes, sweeps, certificates and flat charts": _certificates,
            "library: convergence rows and shifted lattice sets": _lattice_sets}


def _library_digest(name):
    record = json.dumps(_LIBRARY[name](), default=str)
    return hashlib.sha256(record.encode()).hexdigest()


@pytest.mark.parametrize("argv", _commands(), ids=_key)
def test_output_digest_matches_the_committed_table(argv):
    assert _digest(argv) == json.loads(TABLE.read_text())[_key(argv)]


@pytest.mark.parametrize("name", _LIBRARY)
def test_library_digest_matches_the_committed_table(name):
    assert _library_digest(name) == json.loads(TABLE.read_text())[name]


def test_the_table_covers_exactly_the_commands():
    assert set(json.loads(TABLE.read_text())) == {_key(a) for a in _commands()} | set(_LIBRARY)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    table = {_key(a): _digest(a) for a in _commands()}
    table.update((name, _library_digest(name)) for name in _LIBRARY)
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
