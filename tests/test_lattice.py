"""Dual projection lattices, determinant identities, point counting, Pick."""

import random
from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import isozono
from isozono import lattice, search
from isozono.catalog import BUILTIN_NAMES, builtin_graph
from isozono.errors import BudgetExceededError, NonPrimitiveGeneratorError, ZeroVectorError
from isozono.geometry import convex_hull
from isozono.intmat import dot, gram_det
from isozono.lattice import (
    boundary_lattice_points,
    count_lattice_points,
    dual_projection_lattice_basis,
    pick_area,
    projection_lattice_det_squared,
)
from isozono.zonotope import zonotope_of_graph

OCTAGON = [(3, 1), (1, 3), (-1, 3), (-3, 1), (-3, -1), (-1, -3), (1, -3), (3, -1)]


def test_dual_basis_simple_direction():
    b = dual_projection_lattice_basis((1, 1))
    assert b.rank == 1
    (v,) = b.vectors
    assert dot(v, (1, 1)) == 0
    assert b.gram_determinant == 2  # v = ±(1,-1)


def test_dual_basis_orthogonality_fuzz():
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(2, 5)
        a = [rng.randint(-6, 6) for _ in range(n)]
        if all(x == 0 for x in a):
            continue
        from isozono.intmat import primitive_part
        a = primitive_part(a)
        basis = dual_projection_lattice_basis(a)
        assert basis.rank == n - 1
        for v in basis.vectors:
            assert dot(v, a) == 0
        assert basis.gram_determinant == gram_det(basis.vectors)


def test_det_squared_closed_form():
    # det(projection lattice)^2 = 1 / (a . a), cross-checked internally.
    assert projection_lattice_det_squared((1, 0)) == 1
    assert projection_lattice_det_squared((1, 1)) == Fraction(1, 2)
    assert projection_lattice_det_squared((1, 2, 2)) == Fraction(1, 9)
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(2, 5)
        a = [rng.randint(-5, 5) for _ in range(n)]
        if all(x == 0 for x in a):
            continue
        from isozono.intmat import primitive_part
        a = primitive_part(a)
        assert projection_lattice_det_squared(a) == Fraction(1, dot(a, a))


def test_dual_basis_rejects_bad_input():
    with pytest.raises(NonPrimitiveGeneratorError):
        dual_projection_lattice_basis((2, 4))
    with pytest.raises(ZeroVectorError):
        dual_projection_lattice_basis((0, 0, 0))
    with pytest.raises(ZeroVectorError):
        projection_lattice_det_squared((0, 0))


def test_octagon_point_counts():
    P = convex_hull(OCTAGON)
    assert P.volume() == 28
    assert count_lattice_points(P) == 37
    assert boundary_lattice_points(P) == 16
    interior = count_lattice_points(P) - boundary_lattice_points(P)
    assert interior == 21
    assert pick_area(P) == 28  # 21 + 16/2 - 1


def test_pick_matches_volume_fuzz():
    rng = random.Random(43)
    checked = 0
    while checked < 80:
        pts = {(rng.randint(-7, 7), rng.randint(-7, 7))
               for _ in range(rng.randint(3, 10))}
        P = convex_hull(pts)
        if P.affine_dim < 2:
            continue
        assert pick_area(P) == P.volume()
        checked += 1


def test_count_points_unit_cube_3d():
    cube = convex_hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    assert count_lattice_points(cube) == 27


def test_count_refuses_an_over_budget_box_before_scanning_a_line(monkeypatch, no_scan):
    # Legs 10^7: 10^7 + 1 lines times 3 facets, over the default budget.
    triangle = convex_hull([(0, 0), (10**7, 0), (0, 10**7)])
    monkeypatch.delenv("ISOZONO_BUDGET", raising=False)
    for count in (count_lattice_points, pick_area):
        with pytest.raises(BudgetExceededError, match="scans 10000001 lattice lines against 3 "
                                                      "facet normals, budget is 10000000"):
            count(triangle)


def test_count_budget_is_lines_times_facets(monkeypatch):
    square = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])  # 3 lines, 4 facets
    monkeypatch.setenv("ISOZONO_BUDGET", "12")
    assert count_lattice_points(square) == 9
    monkeypatch.setenv("ISOZONO_BUDGET", "11")
    with pytest.raises(BudgetExceededError):
        count_lattice_points(square)


def test_the_budget_lives_in_lattice():
    assert isozono.default_budget is search.default_budget is lattice.default_budget


def _box_scan_count(P):
    """Oracle: test every integer point of the bounding box against every facet."""
    lows, highs = P.bounding_box()
    ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in zip(lows, highs)]
    return sum(all(dot(a, p) <= c for a, c in P.facets) for p in product(*ranges))


@st.composite
def _hulls(draw):
    """A full-dimensional hull in dims 1..4 with integer or half-integer
    vertices, scaled and translated by Fractions."""
    dim = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 2]))
    reach = (12, 6, 3, 2)[dim - 1] * den
    coord = st.integers(-reach, reach).map(lambda k: Fraction(k, den))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 5))
    P = convex_hull(pts)
    assume(P.is_full_dimensional())
    s = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    t = tuple(Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 5))) for _ in range(dim))
    return P.scale(s).translate(t)


@settings(max_examples=150, deadline=None)
@given(_hulls())
def test_count_lattice_points_matches_box_scan_oracle(P):
    assert count_lattice_points(P) == _box_scan_count(P)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([n for n in BUILTIN_NAMES if builtin_graph(n).graph().dim in (2, 3)]),
       st.integers(1, 12), st.integers(1, 4))
def test_count_lattice_points_of_scaled_zonotopes_matches_box_scan_oracle(name, num, den):
    # The body the bench's `discrete` check counts.
    alpha = Fraction(num, den)
    graph = builtin_graph(name).graph()
    assume(graph.dim == 2 or alpha <= 2)
    body = zonotope_of_graph(graph).polytope().scale(alpha)
    assert count_lattice_points(body) == _box_scan_count(body)


@pytest.mark.parametrize("vertices", [
    [(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2)),
     (Fraction(3, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(3, 2))],
    [(Fraction(1, 2), 0), (Fraction(5, 2), 0), (Fraction(1, 2), 2)],
])
def test_boundary_counts_refuse_polygons_with_non_lattice_vertices(vertices):
    # Integral edge vectors between non-lattice vertices: the counts were 4
    # and 6, though the boundaries hold 0 and 2 lattice points.
    P = convex_hull(vertices)
    for count in (boundary_lattice_points, pick_area):
        with pytest.raises(ValueError, match="is not a lattice point"):
            count(P)
