"""Command-line interface, run in-process."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isozono
from isozono.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_validate_builtin(capsys):
    code, out, err = run(capsys, "validate", "--graph", "linf:2")
    assert code == 0
    assert "valid PL graph" in out
    assert "degree\t8" in out


def test_validate_spec_file(capsys, tmp_path):
    f = tmp_path / "demo.graph"
    f.write_text("name demo\ndim 2\ngenerator 1 0\ngenerator 0 1\n")
    code, out, _ = run(capsys, "validate", "--spec", str(f))
    assert code == 0
    assert "demo" in out


def test_validate_bad_spec_file_exits_2(capsys, tmp_path):
    f = tmp_path / "bad.graph"
    f.write_text("name bad\ndim 2\ngenerator 2 4\ngenerator 0 1\n")
    code, _, err = run(capsys, "validate", "--spec", str(f))
    assert code == 2
    assert "error:" in err and "primitive" in err


def test_boundary_grid(capsys, tmp_path):
    pts = tmp_path / "grid.txt"
    pts.write_text("\n".join(f"{x} {y}" for x in range(3) for y in range(3)) + "\n")
    code, out, _ = run(capsys, "boundary", "--graph", "l1:2", "--set", str(pts))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "12"
    assert lines[1] == "generator\tprojections\tgaps"
    assert any(line.startswith("identity\t12\tok") for line in lines)


def test_boundary_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "boundary", "--graph", "l1:2",
                       "--set", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


def test_zonotope_fvector_and_volume(capsys):
    code, out, _ = run(capsys, "zonotope", "--graph", "linf:3", "--fvector")
    assert code == 0
    assert out.strip() == "96 144 50"
    code, out, _ = run(capsys, "zonotope", "--graph", "linf:2", "--volume")
    assert code == 0
    assert out.strip() == "28"


def test_zonotope_dim5_spec_volume_and_fvector(capsys, tmp_path):
    f = tmp_path / "five.graph"
    rows = [[int(i == j) for j in range(5)] for i in range(5)] + [[1] * 5]
    f.write_text("dim 5\n" + "".join(
        "generator " + " ".join(map(str, r)) + "\n" for r in rows))
    code, out, _ = run(capsys, "zonotope", "--spec", str(f), "--volume")
    assert code == 0
    assert out.strip() == "192"
    code, out, _ = run(capsys, "zonotope", "--spec", str(f), "--fvector")
    assert code == 0
    assert out.strip() == "62 180 210 120 30"


def test_zonotope_fvector_large_coordinates(capsys, tmp_path):
    f = tmp_path / "large.graph"
    f.write_text("dim 3\n"
                 "generator 1000003 2000017 3\n"
                 "generator 5 7000001 1\n"
                 "generator 1 1 9000011\n"
                 "generator 4000037 1 1\n")
    code, out, _ = run(capsys, "zonotope", "--spec", str(f), "--fvector")
    assert code == 0
    assert out.strip() == "14 24 12"


@st.composite
def _spec_texts(draw):
    """Spec files with dim 1..5 and 1..dim+2 generators, valid or not:
    zero, duplicate, non-primitive and rank-deficient sets all occur."""
    dim = draw(st.integers(1, 5))
    entries = st.one_of(st.integers(-2, 2), st.integers(-10 ** 12, 10 ** 12))
    vector = st.lists(entries, min_size=dim, max_size=dim)
    if draw(st.booleans()):  # the unit vectors plus up to two primitive ones
        gens = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for v in draw(st.lists(vector, max_size=2)):
            g = math.gcd(*v) or 1
            gens.append([a // g for a in v])
    else:
        gens = draw(st.lists(vector, min_size=1, max_size=dim + 2))
    if draw(st.integers(0, 3)) == 0:  # repeat or scale one generator
        k = draw(st.sampled_from([1, -1, 2, 3]))
        gens[-1] = [k * a for a in draw(st.sampled_from(gens))]
    return f"dim {dim}\n" + "".join(
        "generator " + " ".join(map(str, g)) + "\n" for g in gens)


def _run_on_file(text, argv):
    """Run the CLI on `text` written to a temporary file, which "FILE" in argv
    names ("OUTDIR" names its directory); check the exit contract and return
    the exit code and stdout."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "input.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        argv = [a.replace("FILE", path).replace("OUTDIR", d) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code != 0:
        assert_one_error_line(code, err.getvalue())
    return code, out.getvalue()


@settings(max_examples=40, deadline=None)
@given(_spec_texts())
def test_fuzz_zonotope_spec_exits_0_or_2(text):
    code, out = _run_on_file(text, ["zonotope", "--spec", "FILE", "--volume", "--fvector"])
    if code == 2:
        return
    counts = [int(a) for a in out.splitlines()[0].split()]
    n = len(counts)
    assert sum((-1) ** i * f for i, f in enumerate(counts)) == 1 - (-1) ** n


@st.composite
def _point_rows(draw):
    """Rows of 1..4 coordinates: small, half-integer, a/0 and +-10^12 tokens,
    or integer points on one line or plane, with repeated rows."""
    dim = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        token = st.one_of(small.map(str), st.integers(-7, 7).map(lambda a: f"{a}/2"),
                          small.map(lambda a: f"{a}/0"),
                          st.sampled_from(["1000000000000", "-1000000000000"]))
        rows = draw(st.lists(st.lists(token, min_size=dim, max_size=dim),
                             min_size=1, max_size=8))
    else:
        flat = draw(st.integers(1, 2))
        base = draw(st.lists(small, min_size=dim, max_size=dim))
        dirs = draw(st.lists(st.lists(small, min_size=dim, max_size=dim),
                             min_size=flat, max_size=flat))
        coeffs = draw(st.lists(st.lists(small, min_size=flat, max_size=flat),
                               min_size=1, max_size=8))
        rows = [[str(b + sum(c * d[i] for c, d in zip(cs, dirs)))
                 for i, b in enumerate(base)] for cs in coeffs]
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return dim, "".join(" ".join(r) + "\n" for r in rows)


@settings(max_examples=40, deadline=None)
@given(_point_rows(), st.integers(1, 4))
def test_fuzz_boundary_point_file_exits_0_or_2(rows, graph_dim):
    _, text = rows
    _run_on_file(text, ["boundary", "--graph", f"l1:{graph_dim}", "--set", "FILE"])


@settings(max_examples=40, deadline=None)
@given(_point_rows())
def test_fuzz_render_polytope_v_file_exits_0_or_2(rows):
    dim, text = rows
    _run_on_file(f"dim {dim}\nV\n" + text,
                 ["render", "--polytope", "FILE", "--out", "OUTDIR/figure"])


def test_zonotope_support_and_summary(capsys):
    code, out, _ = run(capsys, "zonotope", "--graph", "linf:3",
                       "--support", "1 0 0")
    assert code == 0
    assert out.strip() == "9"
    code, out, _ = run(capsys, "zonotope", "--graph", "linf:2")
    assert code == 0
    assert "vertices\t8" in out and "volume\t28" in out


def test_zonotope_original_coords_d4(capsys):
    code, out, _ = run(capsys, "zonotope", "--graph", "d4cross",
                       "--original-coords")
    assert code == 0
    assert "vertices\t192" in out
    assert "volume\t10176" in out


def test_section_central_homothetic(capsys):
    code, out, _ = run(capsys, "section", "--graph", "linf:3",
                       "--axis", "1", "--level", "0")
    assert code == 0
    assert "homothetic to linf:2 zonotope\tyes\tscale 3" in out


def test_section_interior_not_homothetic(capsys):
    code, out, _ = run(capsys, "section", "--graph", "linf:3",
                       "--axis", "1", "--level", "3")
    assert code == 0
    assert "vertices\t16" in out
    assert "homothetic to linf:2 zonotope\tno" in out


def test_section_axis_out_of_range(capsys):
    code, _, err = run(capsys, "section", "--graph", "linf:3",
                       "--axis", "4", "--level", "0")
    assert code == 2
    assert "error:" in err


def test_section_empty_exits_2(capsys):
    code, _, err = run(capsys, "section", "--graph", "linf:3",
                       "--axis", "1", "--level", "10")
    assert code == 2
    assert "error:" in err


def test_section_of_a_1d_zonotope_is_a_point(capsys):
    code, out, _ = run(capsys, "section", "--graph", "l1:1",
                       "--axis", "1", "--level", "0")
    assert code == 0
    assert out.strip() == "vertices\t1"


def test_search_exhaustive(capsys):
    code, out, _ = run(capsys, "search", "--graph", "linf:2", "--m", "4",
                       "--box-radius", "2")
    assert code == 0
    assert "min_boundary\t20" in out
    assert "exhaustive\ttrue" in out


def test_search_local_mode(capsys):
    code, out, _ = run(capsys, "search", "--graph", "tri", "--m", "7",
                       "--mode", "local", "--iterations", "2000", "--seed", "1")
    assert code == 0
    assert "min_boundary\t18" in out
    assert "exhaustive\tfalse" in out


def test_search_budget_exceeded_exits_2(capsys):
    code, _, err = run(capsys, "search", "--graph", "linf:2", "--m", "12",
                       "--box-radius", "6", "--budget", "100")
    assert code == 2
    assert "error:" in err


def test_search_negative_budget_exits_2(capsys):
    code, _, err = run(capsys, "search", "--graph", "linf:2", "--m", "3",
                       "--box-radius", "2", "--budget", "-3")
    assert_one_error_line(code, err)
    assert "budget must be a positive integer" in err


@pytest.mark.parametrize("env, budget", [(None, "5"), ("5", "100000")])
def test_search_local_mode_refuses_budget(capsys, monkeypatch, env, budget):
    if env is not None:
        monkeypatch.setenv("ISOZONO_BUDGET", env)
    code, out, err = run(capsys, "search", "--graph", "linf:2", "--m", "30",
                         "--mode", "local", "--budget", budget)
    assert_one_error_line(code, err)
    assert "ISOZONO_BUDGET" in err
    assert out == ""


def test_search_local_mode_refuses_a_start_scan_over_the_budget(capsys, monkeypatch):
    # m = 200 passes the m <= budget check; the start's 200 points alone
    # score against every facet normal of linf:3, over 2,000 pairs.
    monkeypatch.setenv("ISOZONO_BUDGET", "2000")
    code, out, err = run(capsys, "search", "--graph", "linf:3", "--m", "200",
                         "--mode", "local")
    assert_one_error_line(code, err)
    assert out == ""


def test_search_out_prefix_writes_files(capsys, tmp_path):
    prefix = tmp_path / "run"
    code, out, _ = run(capsys, "search", "--graph", "l1:2", "--m", "4",
                       "--box-radius", "2", "--out", str(prefix))
    assert code == 0
    assert (tmp_path / "run.tsv").exists()
    witnesses = list(tmp_path.glob("run.witness-*.txt"))
    assert witnesses


def test_converge_rows(capsys):
    code, out, _ = run(capsys, "converge", "--graph", "l1:2",
                       "--alphas", "10,50")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("alpha\tpoints\tvolume")
    row10 = lines[1].split("\t")
    assert row10[0] == "10" and row10[1] == "441"


def test_converge_over_budget_exits_2(capsys):
    # A row with 2 alpha integral is read off the table of flats; this one is
    # scanned.
    code, out, err = run(capsys, "converge", "--graph", "l1:2",
                         "--alphas", "2000002/3", "--budget", "100")
    assert_one_error_line(code, err)
    assert out == ""


def test_converge_alpha_range_reads_the_explicit_budget(capsys, monkeypatch):
    monkeypatch.setenv("ISOZONO_BUDGET", "50")
    code, out, _ = run(capsys, "converge", "--graph", "l1:2",
                       "--alphas", "1:60", "--budget", "100000")
    assert code == 0
    assert len(out.splitlines()) == 61  # header + 60 rows


def test_converge_alpha_range_syntax(capsys):
    code, out, _ = run(capsys, "converge", "--graph", "l1:2",
                       "--alphas", "1:3")
    assert code == 0
    assert len(out.splitlines()) == 4  # header + 3 rows


@pytest.mark.parametrize("name", ["linf:4", "d4cross"])
def test_converge_reaches_alpha_1e6_in_4d(capsys, name):
    code, out, _ = run(capsys, "converge", "--graph", name, "--alphas", "1,10,1000000")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["1", "10", "1000000"]


def test_converge_integer_alpha_1e20_is_exact(capsys):
    a = 10 ** 20
    code, out, _ = run(capsys, "converge", "--graph", "l1:2", "--alphas", str(a))
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[:4] == [str(a), str((2 * a + 1) ** 2), str(4 * a * a), str(4 * (2 * a + 1))]


def test_converge_half_integer_alpha_1e20_is_exact(capsys):
    # alpha = 10^20 + 1/2: the l1:2 square alpha Z holds the lattice square
    # of side 2 * 10^20 + 1, read off the table of flats with no scan.
    side = 2 * 10 ** 20 + 1
    code, out, _ = run(capsys, "converge", "--graph", "l1:2", "--alphas", f"{side}/2")
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert (row[0], row[1], row[3]) == (f"{side}/2", str(side * side), str(4 * side))


def test_converge_linf4_half_integer_rows(capsys):
    code, out, _ = run(capsys, "converge", "--graph", "linf:4", "--alphas", "1/2,3/2")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [r[:2] for r in rows] == [["1/2", "172641"], ["3/2", "13510185"]]


def test_render_svg_file(capsys, tmp_path):
    out_path = tmp_path / "z.svg"
    code, out, _ = run(capsys, "render", "--graph", "linf:2",
                       "--out", str(out_path))
    assert code == 0
    assert f"wrote {out_path}" in out
    assert out_path.read_text().startswith("<svg")


def test_render_off_file(capsys, tmp_path):
    out_path = tmp_path / "z.off"
    code, out, _ = run(capsys, "render", "--graph", "linf:3",
                       "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("OFF")


def test_render_4d_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "render", "--graph", "d4cross",
                       "--out", str(tmp_path / "z.off"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["section", "--graph", "linf:3", "--axis", "1", "--level", "1/0"],
    ["converge", "--graph", "l1:2", "--alphas", "2,1/0"],
    ["zonotope", "--graph", "l1:2", "--support", "1 0 0"],
    ["zonotope", "--graph", "linf:3", "--support", "1"],
    ["search", "--graph", "linf:2", "--m", "3", "--mode", "local", "--iterations", "-5"],
    ["search", "--graph", "linf:2", "--m", "3", "--box-radius", "1", "--witness-cap", "0"],
    ["search", "--graph", "linf:2", "--m", "3", "--box-radius", "1", "--print-witnesses", "-1"],
    ["converge", "--graph", "l1:2", "--alphas", "200000000000000000002/3"],
    ["converge", "--graph", "l1:2", "--alphas", f"{2 * 10 ** 400 + 2}/3"],
    ["converge", "--graph", "l1:2", "--alphas", "1:100000000000000000000"],
    ["search", "--graph", "l1:2", "--m", "100000000000000000000", "--mode", "local"],
    ["zonotope", "--graph", "l1:2", "--support", "1 x"],
    ["converge", "--graph", "l1:2", "--alphas", "a:3"],
    ["search", "--spec", "{l1:6 spec}", "--m", "2", "--box-radius", "1", "--use-symmetry"],
], ids=["section-level", "converge-alpha", "support-too-long", "support-too-short",
        "search-negative-iterations", "search-witness-cap-0", "search-negative-print-witnesses",
        "converge-alpha-1e20", "converge-alpha-1e400", "converge-range-1e20",
        "search-local-m-1e20", "support-text", "converge-range-text",
        "search-symmetry-closure-over-cap"])
def test_bad_rational_or_direction_exits_2(capsys, tmp_path, argv):
    spec = tmp_path / "l1-6.graph"
    spec.write_text(_L1_6_SPEC)
    code, out, err = run(capsys, *(str(spec) if a == "{l1:6 spec}" else a for a in argv))
    assert_one_error_line(code, err)
    assert out == ""


# The six hyperoctahedral generators as symmetry rows: their closure has
# 2^6 6! = 46080 signed permutations, over the 4096 cap.
_L1_6_SPEC = """dim 6
generator 1 0 0 0 0 0
generator 0 1 0 0 0 0
generator 0 0 1 0 0 0
generator 0 0 0 1 0 0
generator 0 0 0 0 1 0
generator 0 0 0 0 0 1
symmetry 2 1 3 4 5 6
symmetry 1 3 2 4 5 6
symmetry 1 2 4 3 5 6
symmetry 1 2 3 5 4 6
symmetry 1 2 3 4 6 5
symmetry -1 2 3 4 5 6
"""


@pytest.mark.parametrize("argv", [
    ["validate", "--spec", "{file}"],
    ["boundary", "--graph", "l1:2", "--set", "{file}"],
    ["render", "--polytope", "{file}", "--out", "{file}.svg"],
], ids=["spec", "point-set", "polytope"])
def test_an_input_file_that_is_not_utf8_exits_2(capsys, tmp_path, argv):
    # UnicodeDecodeError is a ValueError, not an OSError: the CLI reads each
    # file as a FormatError instead.
    path = tmp_path / "input.txt"
    path.write_bytes(b"dim 2\n\xff\xfe\n")
    code, out, err = run(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert_one_error_line(code, err)
    assert out == "" and "not UTF-8" in err


@pytest.mark.parametrize("text", [
    "dim 2\nV\n0 0\n1/0 0\n0 1\n",
    "dim 2\nV\n0 0\n1 0\n0 1\nH\n-1 0 <= 0\n0 -1 <= 0\n1 1 <= 1/0\n",
    "dim 3\nV\n0 0 0\n1 0 0\n0 1 0\n0 0 1\nH\n0 0 0 <= 0\n",
    "dim 2\nV\n0 0\n4 0\n0 4\nH\n1 0 <= 1\n0 1 <= 1\n-1 0 <= 0\n0 -1 <= 0\n",
    "V\n0 0\n1 0\n0 1\ndim 3\n",
], ids=["vertex-zero-denominator", "offset-zero-denominator", "zero-normal", "not-a-facet",
        "dim-after-rows"])
def test_render_bad_polytope_file_exits_2(capsys, tmp_path, text):
    body = tmp_path / "body.txt"
    body.write_text(text)
    code, _, err = run(capsys, "render", "--polytope", str(body),
                       "--out", str(tmp_path / "figure"))
    assert_one_error_line(code, err)
    assert not (tmp_path / "figure").exists()


def test_reproduce_single_item(capsys):
    code, out, _ = run(capsys, "reproduce", "--only", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS   5")
    assert lines[-1] == "1/1 items passed"


def test_reproduce_unknown_item_exits_2(capsys):
    code, _, err = run(capsys, "reproduce", "--only", "99")
    assert code == 2
    assert "error:" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(isozono.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "isozono", "zonotope", "--graph", "l1:2", "--volume"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"


def test_graph_and_spec_mutually_exclusive(capsys, tmp_path):
    f = tmp_path / "g.graph"
    f.write_text("name g\ndim 2\ngenerator 1 0\ngenerator 0 1\n")
    with pytest.raises(SystemExit):
        main(["validate", "--graph", "l1:2", "--spec", str(f)])


_G = isozono.builtin_graph("l1:2").graph()
_SQUARE = isozono.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.mark.parametrize("call, message", [
    (lambda: isozono.exhaustive_min_boundary(_G, 0, 2), "cardinality must be >= 1, got 0"),
    (lambda: isozono.exhaustive_min_boundary(_G, 3, -1), "box radius must be >= 0, got -1"),
    (lambda: isozono.exhaustive_min_boundary(_G, 3, 1, witness_cap=0),
     "witness cap must be >= 1, got 0"),
    (lambda: isozono.exhaustive_min_boundary(_G, 30, 1),
     "no canonical 30-set fits in a radius-1 box (4 candidate points)"),
    (lambda: isozono.exhaustive_min_boundary(_G, 3, 1, budget=0),
     "budget must be a positive integer, got 0"),
    (lambda: isozono.local_search_min_boundary(_G, 0), "cardinality must be >= 1, got 0"),
    (lambda: isozono.local_search_min_boundary(_G, 3, iterations=-1),
     "iterations must be >= 0, got -1"),
    (lambda: isozono.zonotope_point_set(_G, 0), "alpha must be positive, got 0"),
    (lambda: isozono.convergence_experiment(_G, []), "at least one alpha is required"),
    (lambda: isozono.convergence_experiment(_G, [1, -1]), "alphas must be positive"),
    (lambda: isozono.convergence_experiment(_G, [2, 1]), "alphas must be strictly increasing"),
    (lambda: isozono.limiting_shape_report(_G, 0), "m_max must be >= 1, got 0"),
    (lambda: _SQUARE.scale(0), "scale factor must be positive"),
    (lambda: isozono.convex_hull([]), "convex_hull of an empty point set"),
    (lambda: isozono.finite_difference_probe(_SQUARE, _G, [0]), "probe step must be positive"),
    (lambda: isozono.builtin_graph("nope"), "unknown graph 'nope'; builtins: "
     + ", ".join(isozono.BUILTIN_NAMES)),
    (lambda: isozono.builtin_graph("l1:9"), "dimension out of range in 'l1:9' (1..4)"),
    (lambda: isozono.builtin_graph("l1:x"), "bad dimension in graph name 'l1:x'"),
])
def test_an_argument_out_of_range_raises_invalid_argument_error(call, message):
    with pytest.raises(isozono.InvalidArgumentError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("argv, message", [
    (("search", "--graph", "l1:2", "--m", "0", "--box-radius", "2"),
     "cardinality must be >= 1, got 0"),
    (("search", "--graph", "l1:2", "--m", "3", "--box-radius", "-1"),
     "box radius must be >= 0, got -1"),
    (("search", "--graph", "l1:2", "--m", "3", "--mode", "local", "--iterations", "-1"),
     "iterations must be >= 0, got -1"),
    (("converge", "--graph", "l1:2", "--alphas", "2,1"), "alphas must be strictly increasing"),
    (("validate", "--graph", "nope"),
     "unknown graph 'nope'; builtins: " + ", ".join(isozono.BUILTIN_NAMES)),
])
def test_the_cli_reports_an_invalid_argument_on_one_error_line(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert_one_error_line(code, err)
    assert err == f"error: {message}\n"
