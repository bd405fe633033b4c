"""`isozono reproduce` items report FAIL when a pinned value is wrong."""

from dataclasses import replace
from itertools import combinations, product

import pytest

from isozono import reproduce
from isozono.catalog import builtin_graph
from isozono.zonotope import build_zonotope


def _run(item):
    lines = []
    code = reproduce.run(only=[item], emit=lines.append)
    return code, lines[0]


def test_item_7_fails_on_a_12_vertex_level_3_section(monkeypatch):
    dodecagon = build_zonotope(2, [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)]).polytope()
    assert len(dodecagon.vertices) == 12
    real = reproduce.hyperplane_section
    monkeypatch.setattr(reproduce, "hyperplane_section",
                        lambda Z, axis, level: dodecagon if level == 3 else real(Z, axis, level))
    code, line = _run("7")
    assert code == 1
    assert line.startswith("FAIL   7") and "got 12 vertices" in line


def test_item_8_fails_when_engine_and_recount_are_both_off_by_2(monkeypatch):
    real = reproduce.exhaustive_min_boundary

    def engine(graph, m, box_radius):
        res = real(graph, m, box_radius)
        # No witness has the shifted boundary, so none is reported.
        return replace(res, min_boundary=res.min_boundary + 2, witnesses=()) if m == 7 else res

    monkeypatch.setattr(reproduce, "exhaustive_min_boundary", engine)
    monkeypatch.setattr(reproduce, "_independent_min_boundary",
                        lambda graph, m, box_radius: engine(graph, m, box_radius).min_boundary)
    code, line = _run("8")
    assert code == 1
    assert line.startswith("FAIL   8")
    assert "8 14 18 20 24 26 30 30 32 34, expected 8 14 18 20 24 26 28 30 32 34" in line


def test_item_5_fails_when_the_identity_mismatches_on_linf_4(monkeypatch):
    real = reproduce.zonotope_boundary_identity
    linf4 = builtin_graph("linf:4").graph()

    def identity(graph):
        bv, rhs, ok = real(graph)
        return (bv, rhs + 1, False) if graph == linf4 else (bv, rhs, ok)

    monkeypatch.setattr(reproduce, "zonotope_boundary_identity", identity)
    code, line = _run("5")
    assert code == 1
    assert line.startswith("FAIL   5") and line.endswith("linf:4: b(Z) = 10495040, n*vol = 10495041")


def test_item_9_fails_when_the_engine_is_2_high_on_tri_at_radius_2(monkeypatch):
    real = reproduce.exhaustive_min_boundary

    def engine(graph, m, box_radius):
        res = real(graph, m, box_radius)
        return replace(res, min_boundary=res.min_boundary + 2) if box_radius == 2 else res

    monkeypatch.setattr(reproduce, "exhaustive_min_boundary", engine)
    code, line = _run("9")
    assert code == 1
    assert line.startswith("FAIL   9") and "tri m=7, r=2: min 20" in line


def _membership_min_boundary(graph, m, r):
    """Oracle: the minimum over the origin plus m - 1 lexicographically
    positive points of the box, each set's boundary counted by membership."""
    origin = (0,) * graph.dim
    pool = [p for p in product(range(-r, r + 1), repeat=graph.dim) if p > origin]
    steps = [s for v in graph.generators for s in (v, tuple(-a for a in v))]
    best = None
    for combo in combinations(pool, m - 1):
        s = {origin, *combo}
        b = sum(tuple(a + d for a, d in zip(p, step)) not in s for p in s for step in steps)
        best = b if best is None else min(best, b)
    return best


@pytest.mark.parametrize("name, r, m_max", [
    ("l1:2", 2, 5), ("linf:2", 2, 5), ("tri", 2, 5), ("l1:3", 1, 4)])
def test_item_8_recount_matches_a_membership_count(name, r, m_max):
    graph = builtin_graph(name).graph()
    for m in range(1, m_max + 1):
        expected = _membership_min_boundary(graph, m, r)
        assert reproduce._independent_min_boundary(graph, m, r) == expected
