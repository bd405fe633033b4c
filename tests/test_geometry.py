"""Exact polytope kernel: hulls, volumes, charts, serialization."""

import math
import random
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations, product
from operator import and_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isozono.catalog import builtin_graph
from isozono.errors import DimensionDeficiencyError, DimensionMismatchError, FormatError
from isozono.geometry import (
    Chart,
    Polytope,
    _extreme_rays,
    _hrep_rays,
    _monotone_chain,
    _norm_point,
    convex_hull,
    hrep_polytope,
    minkowski_sum_segment,
    points_from_text,
    points_to_text,
    polytope_from_text,
    polytope_to_text,
)
from isozono.intmat import (_norm_num, content, dot, embed, gram_det, integerize, is_zero,
                            kernel_basis, kernel_chart, rank, vadd, vneg, vsub)
from test_intmat import leibniz_det, signed_minors

OCTAGON = [(3, 1), (1, 3), (-1, 3), (-3, 1), (-3, -1), (-1, -3), (1, -3), (3, -1)]


def test_hull_square_with_interior_points():
    P = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)])
    assert set(P.vertices) == {(0, 0), (2, 0), (0, 2), (2, 2)}
    assert P.volume() == 4
    assert P.affine_dim == 2


def test_hull_octagon_vertices_and_volume():
    pts = OCTAGON + [(0, 0), (1, 1), (2, 1)]
    P = convex_hull(pts)
    assert set(P.vertices) == set(OCTAGON)
    assert P.volume() == 28
    assert len(P.facets) == 8


def test_hull_3d_cube_plus_interior_diagonal():
    cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    P = convex_hull(cube + [(1, 1, 1)])
    assert len(P.vertices) == 8
    assert P.volume() == 8
    assert len(P.facets) == 6


def test_hull_flat_segment_and_point():
    seg = convex_hull([(0, 0, 0), (2, 4, 6), (1, 2, 3)])
    assert seg.affine_dim == 1
    assert set(seg.vertices) == {(0, 0, 0), (2, 4, 6)}
    pt = convex_hull([(5, 5)])
    assert pt.affine_dim == 0
    assert pt.vertices == ((5, 5),)


def _min_max_hull(xs):
    """Oracle for 1-D hulls: the segment from min(xs) to max(xs), with its
    two facets, built directly rather than by the double description."""
    lo, hi = min(xs), max(xs)
    return Polytope(1, [(lo,), (hi,)], [((1,), hi), ((-1,), -lo)])


_coordinates = st.one_of(st.integers(-40, 40), st.builds(
    lambda p, q: _norm_num(Fraction(p, q)), st.integers(-40, 40), st.integers(1, 6)))


@settings(max_examples=100, deadline=None)
@given(st.lists(_coordinates, min_size=2, max_size=10), st.data())
def test_1d_hull_is_the_min_max_segment(xs, data):
    xs = xs + data.draw(st.lists(st.sampled_from(xs), max_size=4))  # repeated points
    assume(min(xs) < max(xs))
    P = convex_hull([(x,) for x in xs])
    assert _hull_record(P) == _hull_record(_min_max_hull(xs))
    assert P.volume() == max(xs) - min(xs)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(st.tuples(*[st.integers(-3, 3)] * n),
                                                     st.tuples(*[st.integers(-5, 5)] * n))),
       st.lists(_coordinates, min_size=2, max_size=8))
def test_collinear_sets_keep_their_chart_body(line, ts):
    direction, base = line
    assume(not is_zero(direction) and min(ts) < max(ts))
    pts = [_norm_point(tuple(b + t * a for a, b in zip(direction, base))) for t in ts]
    P = convex_hull(pts)
    assert P.affine_dim == 1
    assert set(P.vertices) == {min(pts), max(pts)}
    (left,) = P.chart.left
    ys = [dot(left, vsub(p, P.chart.base)) for p in pts]
    assert _hull_record(P.chart.body) == _hull_record(_min_max_hull(ys))


def test_hull_flat_polygon_in_3d_has_chart():
    # Triangle in the z = x + y plane.
    tri = [(0, 0, 0), (2, 0, 2), (0, 2, 2)]
    P = convex_hull(tri + [(1, 1, 2)])
    assert P.affine_dim == 2
    assert set(P.vertices) == set(tri)
    # Chart area 2 times sqrt(Gram det 3) of the basis: area sqrt(12) = 2*sqrt(3).
    assert P.chart.body.volume() == 2
    assert gram_det(P.chart.basis) == 3


def test_contains_rational_and_boundary_points():
    P = convex_hull(OCTAGON)
    assert P.contains((0, 0))
    assert P.contains((3, 1))
    assert P.contains((Fraction(5, 2), Fraction(3, 2)))  # on the x+y=4 edge
    assert not P.contains((3, 2))
    assert not P.contains((Fraction(41, 10), 0))


def test_flat_triangle_contains_through_its_chart():
    P = convex_hull([(0, 0, 0), (4, 0, 2), (0, 4, 2)])  # in the plane x + y = 2z
    assert P.affine_dim == 2
    h = Fraction(1, 2)
    cases = [((1, 1, 1), True), ((4, 0, 2), True), ((h, h, h), True),
             ((4, 4, 4), False), ((-h, 0, -h / 2), False),  # in the plane, outside
             ((1, 2, 1), False), ((h, 0, 0), False)]  # off the plane
    t, k = (1, -2, h), Fraction(3, 2)
    for Q, move in [(P, lambda p: p),
                    (P.translate(t), lambda p: tuple(a + b for a, b in zip(p, t))),
                    (P.scale(k), lambda p: tuple(k * a for a in p))]:
        for p, inside in cases:
            assert Q.contains(move(p)) is inside, (Q, p)
    point = convex_hull([(1, 2, 3)])
    assert point.contains((Fraction(1), 2, 3)) and not point.contains((1, 2, h))


def test_support_function():
    P = convex_hull(OCTAGON)
    assert P.support((1, 0)) == 3
    assert P.support((1, 1)) == 4
    assert P.support((-2, 1)) == 7


def test_volume_unimodular_invariance():
    rng = random.Random(23)
    base = [(0, 0), (3, 0), (0, 2), (4, 5), (1, 6)]
    P = convex_hull(base)
    v = P.volume()
    for _ in range(20):
        # random unimodular map [[1,a],[0,1]]*[[1,0],[b,1]] plus translation
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        t = (rng.randint(-5, 5), rng.randint(-5, 5))
        img = [(x * (1 + a * b) + y * a + t[0], x * b + y + t[1]) for x, y in base]
        assert convex_hull(img).volume() == v


def test_facet_cells_octagon():
    P = convex_hull(OCTAGON)
    cells = {}
    for normal, offset, cell in P.facet_cells():
        cells[normal] = (offset, cell)
    # axis facets: lattice length 2, diagonal facets: lattice length 2 as well
    assert cells[(1, 0)] == (3, 2)
    assert cells[(0, 1)] == (3, 2)
    assert cells[(1, 1)] == (4, 2)
    assert cells[(1, -1)] == (4, 2)
    assert len(cells) == 8


def test_facet_cells_interval_endpoints():
    seg = convex_hull([(-2,), (3,)])
    cells = {normal: (offset, cell) for normal, offset, cell in seg.facet_cells()}
    assert cells == {(1,): (3, 1), (-1,): (2, 1)}


def _chart_cells(P):
    """Oracle: each facet's tight vertices in the chart coordinates of
    kernel_chart([normal]), an integer basis of normal-perp, then the volume
    of their hull."""
    cells = []
    for normal, offset in P.facets:
        _, left = kernel_chart([normal], P.dim)
        ys = [tuple(dot(l, v) for l in left) for v in P.vertices if dot(normal, v) == offset]
        cells.append((normal, offset, convex_hull(ys).volume()))
    return tuple(cells)


@pytest.mark.parametrize("scale", [1, Fraction(1, 2)])
def test_facet_cells_of_simplices_with_no_unit_normal_entry(scale):
    # The slanted facet's normal has |normal[k]| > 1 in every coordinate, so
    # its shadow over-counts the facet's lattice cells by |normal[0]|.  The
    # cone volume sum(offset * cell) / n over the facets, apex at the
    # origin, is the simplex volume prod(intercepts) / n!.
    for normal, offset, cell in [((2, 3, 5), 30, 15), ((2, 3, 5, 7), 210, 7350)]:
        n = len(normal)
        verts = [(0,) * n] + [tuple(scale * Fraction(offset, a) * (i == j) for j in range(n))
                              for i, a in enumerate(normal)]
        P = convex_hull(verts)
        cells = {u: (c, v) for u, c, v in P.facet_cells()}
        assert cells[normal] == (scale * offset, scale ** (n - 1) * cell)
        assert P.facet_cells() == _chart_cells(P)
        assert Fraction(offset * cell, n) == Fraction(math.prod(offset // a for a in normal),
                                                      math.factorial(n))


@st.composite
def _rational_bodies(draw):
    """Full-dimensional hulls of rational points in dims 2..4."""
    dim = draw(st.integers(2, 4))
    coord = st.fractions(-3, 3, max_denominator=3)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=12 - dim))
    P = convex_hull(pts)
    assume(P.chart is None)
    return P


def _assert_cells_and_volume_match_the_chart_oracle(P):
    # Equal values of equal types: an integral cell stays an int.
    cells = _chart_cells(P)
    assert list(map(repr, P.facet_cells())) == list(map(repr, cells))
    apex = P.vertices[0]
    cone = sum((Fraction(c) - dot(a, apex)) * cell for a, c, cell in cells) / P.dim
    assert repr(P.volume()) == repr(_norm_num(cone))


@settings(max_examples=60, deadline=None)
@given(_rational_bodies())
def test_facet_cells_match_the_chart_oracle(P):
    _assert_cells_and_volume_match_the_chart_oracle(P)


@st.composite
def _grid_bodies(draw):
    """Hulls of up to 40 points of the grid [-3, 3]^n, n = 3 or 4: many points
    are coplanar, so facets and their faces are often not simplices."""
    dim = draw(st.integers(3, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=dim + 1,
                        max_size=40))
    P = convex_hull(pts)
    assume(P.chart is None)
    return P


@settings(max_examples=40, deadline=None)
@given(_grid_bodies())
def test_non_simplicial_facet_cells_match_the_chart_oracle(P):
    _assert_cells_and_volume_match_the_chart_oracle(P)


@pytest.mark.parametrize("name", ["l1:3", "linf:3", "l1:4", "d4cross"])
def test_zonotope_facet_cells_and_images_match_the_chart_oracle(name):
    # The images carry their facets from the body, with no hull of their own.
    P = builtin_graph(name).zonotope().polytope()
    n = P.dim
    for Q in (P, P.scale(Fraction(3, 2)), P.translate((1, -2, 3, -1)[:n]),
              P.scale(Fraction(2, 3)).translate((Fraction(1, 3),) * n)):
        _assert_cells_and_volume_match_the_chart_oracle(Q)


def test_translate_scale_round_trip():
    P = convex_hull(OCTAGON)
    Q = P.translate((2, -1)).scale(Fraction(3, 2))
    assert Q.volume() == Fraction(9, 4) * 28
    R = Q.scale(Fraction(2, 3)).translate((-2, 1))
    assert set(R.vertices) == set(P.vertices)


_TRIANGLE = [(0, 0), (1, 0), (0, 1)]


@pytest.mark.parametrize("call, error", [
    (lambda: convex_hull(_TRIANGLE).translate((1,)), DimensionMismatchError),
    (lambda: convex_hull(_TRIANGLE).translate((1, 2, 3)), DimensionMismatchError),
    (lambda: convex_hull(_TRIANGLE).translate(("a", 0)), FormatError),
    (lambda: convex_hull([(0, "a")]), FormatError),
    (lambda: convex_hull([(0, None), (1, 1)]), FormatError),
    (lambda: convex_hull(_TRIANGLE).scale("x"), FormatError),
    (lambda: convex_hull(_TRIANGLE).scale(None), FormatError),
], ids=["translate-short", "translate-long", "translate-text", "hull-text", "hull-none",
        "scale-text", "scale-none"])
def test_bad_input_to_polytope_entry_points_raises_a_library_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, outcome", [
    (lambda: convex_hull(_TRIANGLE).support((1, 0, 0)), DimensionMismatchError),
    (lambda: convex_hull(_TRIANGLE).support((1,)), DimensionMismatchError),
    (lambda: convex_hull(_TRIANGLE).support((0.5, 0)), Fraction(1, 2)),
    (lambda: convex_hull(_TRIANGLE).contains((0, "a")), FormatError),
    (lambda: convex_hull(_TRIANGLE).contains((0, None)), FormatError),
    # 0.1 + 0.9 rounds to 1.0 in floats; the exact sum is just above 1.
    (lambda: convex_hull(_TRIANGLE).contains((0.1, 0.9)), False),
], ids=["support-long", "support-short", "support-float", "contains-text", "contains-none",
        "contains-float"])
def test_support_and_contains_check_and_normalise_their_vector(call, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call()
    else:
        assert repr(call()) == repr(outcome)


def _old_norm_point(p):
    """`_norm_point` before its all-int fast path, kept as the oracle."""
    return tuple(_norm_num(Fraction(a)) if not isinstance(a, int) else a for a in p)


_COORDINATE = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.booleans(),
                        st.fractions(-5, 5, max_denominator=4),
                        st.integers(-5, 5).map(Fraction), st.sampled_from(("3", "-1/2", 0.5)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_COORDINATE, max_size=5), st.booleans())
def test_norm_point_fast_path_keeps_the_slow_path(coords, as_tuple):
    p = tuple(coords) if as_tuple else list(coords)
    got, want = _norm_point(p), _old_norm_point(p)
    assert got == want and list(map(type, got)) == list(map(type, want))
    if as_tuple and all(type(a) is int for a in p):
        assert got is p


@st.composite
def _rational_hulls(draw):
    """Hulls of rational points in dims 1..4, full or flat: the points are a
    base plus rational combinations of k <= dim integer directions."""
    dim = draw(st.integers(1, 4))
    coord = st.fractions(-3, 3, max_denominator=3)
    k = draw(st.integers(0, dim))
    dirs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=k, max_size=k))
    base = draw(st.tuples(*[coord] * dim))
    coeffs = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=8))
    return convex_hull([tuple(b + sum(c * d[i] for c, d in zip(cs, dirs))
                              for i, b in enumerate(base)) for cs in coeffs])


def _charted_vertices(P):
    """The vertices the chart reads: base + embed(basis, y) per body vertex."""
    c = P.chart
    return tuple(sorted(vadd(c.base, embed(c.basis, y)) if c.basis else c.base
                        for y in c.body.vertices))


@settings(max_examples=100, deadline=None)
@given(_rational_hulls(), st.fractions(Fraction(1, 4), 4, max_denominator=4), st.data())
def test_affine_image_is_the_hull_of_the_mapped_vertices(P, f, data):
    t = data.draw(st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * P.dim))
    image = P.scale(f).translate(t)
    hull = convex_hull([tuple(f * a + b for a, b in zip(v, t)) for v in P.vertices])
    assert (image.vertices, image.facets) == (hull.vertices, hull.facets)
    assert image.affine_dim == hull.affine_dim
    if image.chart is not None:
        # P's chart basis came from all of its input points and the oracle's
        # from the vertices alone: two bases of one lattice, maybe of
        # opposite sign, so the charts agree in what they read, not in form.
        assert image.chart.base == hull.chart.base
        assert _charted_vertices(image) == image.vertices
    assert _chart_volume(image) == f ** P.affine_dim * _chart_volume(P) == _chart_volume(hull)


def _chart_volume(P):
    """The volume of P in its own chart: 1 for a point."""
    if P.affine_dim == 0:
        return 1
    return (P if P.chart is None else P.chart.body).volume()


@st.composite
def _scaled_point_sets(draw):
    """Points of (1/q)Z^dim, q = 1, 2 or 3 (plain ints for q = 1), dim 2..4:
    a base plus integer combinations of 1 <= k <= dim integer directions,
    so k < dim, or dependent directions, give a flat set."""
    dim = draw(st.integers(2, 4))
    q = draw(st.sampled_from((1, 2, 3)))
    small = st.integers(-3, 3)
    k = draw(st.integers(1, dim))
    dirs = draw(st.lists(st.tuples(*[small] * dim), min_size=k, max_size=k))
    base = draw(st.tuples(*[st.integers(-5, 5)] * dim))
    coeffs = draw(st.lists(st.tuples(*[small] * k), min_size=k + 1, max_size=16 - 2 * dim))
    return [tuple(_norm_num(Fraction(b + sum(c * d[i] for c, d in zip(cs, dirs)), q))
                  for i, b in enumerate(base)) for cs in coeffs]


def _per_point_hull(points):
    """`convex_hull` before the one lcm scaling, kept as the oracle: every
    difference and hull row integerized on its own, Fraction offsets, and the
    flat chart coordinates read off the rational points."""
    pts = sorted(set(map(_norm_point, points)))
    dim = len(pts[0])
    base = pts[0]
    int_diffs = [integerize(vsub(p, base)) for p in pts[1:]]
    if dim and rank(int_diffs, dim) == dim:
        return _per_point_hull_full(pts, dim)
    basis, left = map(tuple, kernel_chart(kernel_basis(int_diffs, dim), dim))
    if not basis:
        return Polytope(dim, [base], None, Chart(base, (), (), Polytope(0, [()], facets=())))
    point_of = {_norm_point(tuple(dot(l, vsub(p, base)) for l in left)): p for p in pts}
    body = _per_point_hull_full(sorted(point_of), len(basis))
    return Polytope(dim, [point_of[y] for y in body.vertices], None,
                    Chart(base, basis, left, body))


def _per_point_hull_full(pts, dim):
    if dim == 1:
        xs = [p[0] for p in pts]
        lo, hi = min(xs), max(xs)
        return Polytope(1, [(lo,), (hi,)], [((1,), hi), ((-1,), -lo)])
    if dim == 2:
        cycle = _monotone_chain(pts)
        facets = []
        for p, q in zip(cycle, cycle[1:] + cycle[:1]):
            d = vsub(q, p)
            normal = integerize((d[1], -d[0]))
            facets.append((normal, dot(normal, p)))
        return Polytope(2, cycle, facets)
    rays = _extreme_rays([integerize(vneg(p) + (1,)) for p in pts], dim + 1)
    facets = []
    for y, _ in rays:
        g = content(y[:dim])
        facets.append((tuple(a // g for a in y[:dim]), Fraction(y[dim], g)))
    verts = [p for i, p in enumerate(pts)
             if reduce(and_, (m for _, m in rays if m >> i & 1), -1) == 1 << i]
    return Polytope(dim, verts, facets)


def _hull_record(P):
    """Vertices and facets, and the chart's base, basis, left and body, by
    repr, so an int and an equal Fraction differ."""
    c = P.chart
    return repr((P.vertices, P.facets) + (() if c is None else (
        c.base, c.basis, c.left, c.body.vertices, c.body.facets)))


@settings(max_examples=80, deadline=None)
@given(_scaled_point_sets())
def test_hull_matches_the_per_point_integerize_route(pts):
    assert _hull_record(convex_hull(pts)) == _hull_record(_per_point_hull(pts))


@st.composite
def _crowded_point_sets(draw):
    """3-D and 4-D points, ints or over a denominator q: a few grid points,
    the midpoints of their pairs and the centroids of their 4-sets.  Most
    centroids are interior, and a midpoint of two vertices on one facet is a
    boundary point that is no vertex, which the double description meets
    with a zero sign."""
    dim = draw(st.integers(3, 4))
    q = draw(st.sampled_from((1, 1, 2, 3)))
    corners = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=dim + 1,
                            max_size=11 - dim, unique=True))
    times4 = [tuple(4 * a for a in p) for p in corners]
    times4 += [tuple(2 * (a + b) for a, b in zip(p, r)) for p, r in combinations(corners, 2)]
    times4 += [tuple(map(sum, zip(*four))) for four in combinations(corners, 4)]
    return [tuple(_norm_num(Fraction(a, 4 * q)) for a in p) for p in times4]


def _scanned_tight(P):
    """Oracle: per facet, the mask of the vertices on it, from testing every
    vertex against every facet."""
    return [sum(1 << i for i, v in enumerate(P.vertices) if dot(normal, v) == c)
            for normal, c in P.facets]


@settings(max_examples=60, deadline=None)
@given(_crowded_point_sets(), st.randoms(use_true_random=False))
def test_hull_does_not_depend_on_the_input_order(pts, rnd):
    P = convex_hull(pts)
    assume(P.chart is None)
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    Q = convex_hull(shuffled)
    assert repr((Q.vertices, Q.facets, Q.facet_cells(), Q.volume())) == repr(
        (P.vertices, P.facets, P.facet_cells(), P.volume()))


@settings(max_examples=60, deadline=None)
@given(_crowded_point_sets(), st.randoms(use_true_random=False))
def test_extreme_rays_and_tight_rows_do_not_depend_on_the_row_order(pts, rnd):
    rows = [integerize(vneg(p) + (1,)) for p in pts]
    order = list(range(len(rows)))
    rnd.shuffle(order)
    rays = _extreme_rays([rows[i] for i in order], len(rows[0]))
    # Bit j of a mask is row order[j] of the unshuffled rows.
    unshuffled = {(y, sum(1 << order[j] for j in range(len(order)) if m >> j & 1))
                  for y, m in rays}
    assert unshuffled == set(_extreme_rays(rows, len(rows[0])))
    assert len(unshuffled) == len(rays)


@settings(max_examples=60, deadline=None)
@given(_crowded_point_sets())
def test_hull_incidences_match_the_vertex_facet_scan(pts):
    # The hull hands its incidences over, and f P + t (f > 0) carries them.
    P = convex_hull(pts)
    assume(P.chart is None)
    n = P.dim
    for Q in (P, P.scale(Fraction(3, 2)), P.translate((1, -2, 3, -1)[:n]),
              P.scale(Fraction(2, 3)).translate((Fraction(1, 3),) * n)):
        assert "_tight" in vars(Q)
        assert Q._tight == _scanned_tight(Q)
        assert Polytope(n, Q.vertices, Q.facets)._tight == Q._tight


def test_cycle_is_counterclockwise():
    P = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4)])
    cyc = P.cycle()
    area2 = sum(cyc[i][0] * cyc[(i + 1) % 4][1] - cyc[(i + 1) % 4][0] * cyc[i][1]
                for i in range(4))
    assert area2 == 32  # positive = counterclockwise


def _ccw_cycle(vertices):
    """Oracle: the vertices sorted by angle about their Fraction centroid,
    counterclockwise from the direction of +x."""
    m = len(vertices)
    cx = Fraction(sum(Fraction(v[0]) for v in vertices), m)
    cy = Fraction(sum(Fraction(v[1]) for v in vertices), m)

    def half(p):
        return 0 if (p[1] > cy or (p[1] == cy and p[0] > cx)) else 1

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cr = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        return (cr < 0) - (cr > 0)

    return tuple(sorted(vertices, key=cmp_to_key(cmp)))


@pytest.mark.parametrize("name", ["l1:2", "linf:2", "tri", "fraction"])
def test_cycle_is_a_rotation_of_the_angular_sort(name):
    # None of these polygons comes out of the hull, so cycle() computes its
    # own chain rather than reading the one the hull preset.
    if name == "fraction":
        P = convex_hull(OCTAGON).scale(Fraction(2, 3)).translate((Fraction(1, 2), -1))
    else:
        P = builtin_graph(name).zonotope().polytope()
    cyc = P.cycle()
    oracle = _ccw_cycle(P.vertices)
    k = oracle.index(cyc[0])
    assert cyc == oracle[k:] + oracle[:k]
    assert cyc[0] == min(P.vertices)


def test_shoelace_matches_triangulation_fuzz():
    # A fan over cycle() from its first vertex: the route independent of the
    # cone sum over the edge cells that volume() takes.
    rng = random.Random(29)
    for _ in range(100):
        pts = {(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(rng.randint(3, 12))}
        P = convex_hull(pts)
        if P.affine_dim < 2:
            continue
        cyc = P.cycle()
        tri = Fraction(0)
        for i in range(1, len(cyc) - 1):
            ax, ay = cyc[0]
            bx, by = cyc[i]
            cx, cy = cyc[i + 1]
            tri += Fraction(abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)), 2)
        assert P.volume() == tri


def test_minkowski_sum_segment_square_plus_diagonal():
    A = convex_hull([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    S = minkowski_sum_segment(A, (0, 0), (1, 1))
    assert S.volume() == 8
    assert S.support((1, 0)) == 2
    unit = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert minkowski_sum_segment(unit, (0, 0), (1, 1)).volume() == 3


def test_hrep_vertices_octagon():
    ineqs = [((1, 0), 3), ((-1, 0), 3), ((0, 1), 3), ((0, -1), 3),
             ((1, 1), 4), ((1, -1), 4), ((-1, 1), 4), ((-1, -1), 4)]
    assert set(hrep_polytope(ineqs, 2).vertices) == set(OCTAGON)


def test_hrep_vertices_redundant_rows_ignored():
    ineqs = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 5)]
    assert set(hrep_polytope(ineqs, 2).vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_polytope_text_round_trip():
    P = convex_hull(OCTAGON)
    text = polytope_to_text(P)
    Q = polytope_from_text(text)
    assert set(Q.vertices) == set(P.vertices)
    assert Q.volume() == 28
    assert Q.dim == 2
    # x <= 1/2 is written with a primitive normal and a rational offset.
    box = convex_hull([(Fraction(a, 2), b, c) for a, b, c in product((0, 1), repeat=3)])
    R = polytope_from_text(polytope_to_text(box))
    assert ((1, 0, 0), Fraction(1, 2)) in R.facets
    assert (R.vertices, R.facets) == (box.vertices, box.facets)


def test_polytope_from_text_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        polytope_from_text("dim 2\nV\n1 2\n1\n", source="body.txt")
    assert "body.txt:4" in str(exc.value)
    with pytest.raises(FormatError):
        polytope_from_text("V\n1 2\n")  # missing dim header


@pytest.mark.parametrize("text, line", [
    ("V\n0 0\n1 0\n0 1\ndim 3\n", 2),
    ("V\n0 0 0\n1 0 0\n0 1 0\n0 0 1\nH\n0 0 -1 <= 0\n1 1 <= 1\ndim 3\n", 8),
    ("dim 2\nV\n0 0\n1 0\n0 1\ndim 3\n", 3),
], ids=["vertex-before-dim", "normal-before-dim", "dim-redeclared"])
def test_polytope_from_text_checks_rows_read_before_dim(text, line):
    # Every V and H row is checked against the dim line, wherever it comes.
    with pytest.raises(FormatError) as exc:
        polytope_from_text(text, source="body.txt")
    assert f"body.txt:{line}:" in str(exc.value)
    assert polytope_from_text("V\n0 0\n1 0\n0 1\ndim 2\n").vertices == (
        (0, 0), (0, 1), (1, 0))


def test_points_text_round_trip_and_errors():
    pts = [(0, 0), (1, 2), (-3, 4)]
    text = points_to_text(pts)
    assert sorted(points_from_text(text)) == sorted(pts)
    with pytest.raises(FormatError) as exc:
        points_from_text("0 0\n1 oops\n", source="pts.txt")
    assert "pts.txt:2" in str(exc.value)


@pytest.mark.parametrize("points", [[(0, 0), (1,)], [(1,), (0, 0)], [(0, 0, 0), (1, 0)]])
def test_points_to_text_refuses_a_ragged_point_list(points):
    # It printed "0 0" and "1" for the first list.
    with pytest.raises(DimensionMismatchError, match="vs dimension"):
        points_to_text(points)


def test_flat_polytope_volume_conventions():
    seg = convex_hull([(0, 0), (2, 2)])
    assert not seg.is_full_dimensional()
    with pytest.raises(DimensionDeficiencyError):
        seg.volume()
    # Chart length 2 times sqrt(Gram det 2) of the basis: length 2*sqrt(2).
    assert seg.chart.body.volume() == 2
    assert gram_det(seg.chart.basis) == 2
    assert convex_hull(OCTAGON).is_full_dimensional()


# -- brute-force oracles for the double-description hull ----------------------


def _hull_oracle(pts, dim):
    """Support-plane enumeration over dim-subsets of distinct full-dimensional points."""
    planes = set()
    for idx in combinations(range(len(pts)), dim):
        basep = pts[idx[0]]
        normal = signed_minors([vsub(pts[i], basep) for i in idx[1:]], dim)
        if is_zero(normal):
            continue
        normal = integerize(normal)
        c = dot(normal, basep)
        sides = {(dot(normal, p) > c) - (dot(normal, p) < c) for p in pts}
        if sides >= {1, -1}:
            continue
        planes.add((vneg(normal), -c) if 1 in sides else (normal, c))
    verts = [p for p in pts
             if rank([n for n, c in planes if dot(n, p) == c], dim) == dim]
    return Polytope(dim, verts, planes)


def _hrep_oracle(inequalities, dim):
    """Solve every dim-subset of rows by Cramer's rule; keep the feasible points."""
    verts = set()
    for rows in combinations(inequalities, dim):
        normals = [tuple(n) for n, _ in rows]
        d = leibniz_det(normals)
        if d == 0:
            continue
        x = tuple(Fraction(leibniz_det([n[:j] + (c,) + n[j + 1:] for n, c in rows])) / d
                  for j in range(dim))
        if all(dot(n, x) <= c for n, c in inequalities):
            verts.add(tuple(int(a) if a.denominator == 1 else a for a in x))
    return sorted(verts)


@st.composite
def _point_sets(draw, max_points=(24, 24, 16)):
    """Lattice or half-integer points in dims 2..4: random, a grid, or a coplanar
    set with a few points off its plane, plus repeated points."""
    dim = draw(st.integers(2, 4))
    cap = max_points[dim - 2]
    small = st.integers(-3, 3)
    vec = st.lists(small, min_size=dim, max_size=dim)
    kind = draw(st.sampled_from(["random", "grid", "coplanar"]))
    if kind == "grid":
        sides = [draw(st.integers(1, 3 if dim < 4 else 2)) for _ in range(dim)]
        pts = [tuple(p) for p in product(*(range(s) for s in sides))][:cap]
    elif kind == "coplanar":
        base, u, v = draw(vec), draw(vec), draw(vec)
        coeffs = draw(st.lists(st.tuples(small, small), min_size=1, max_size=cap - 2))
        pts = [tuple(b + s * x + t * y for b, x, y in zip(base, u, v)) for s, t in coeffs]
        pts += [tuple(p) for p in draw(st.lists(vec, max_size=2))]
    else:
        pts = [tuple(p) for p in draw(st.lists(vec, min_size=1, max_size=cap))]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    if draw(st.booleans()):
        pts = [tuple(Fraction(a, 2) for a in p) for p in pts]
    return dim, pts


@settings(max_examples=60, deadline=None)
@given(_point_sets())
def test_hull_matches_brute_force_oracle(points):
    _, pts = points
    P = convex_hull(pts)
    if P.chart is not None:  # compare the full-dimensional body of its chart
        if not P.chart.basis:
            return
        pts = [tuple(dot(l, vsub(p, P.chart.base)) for l in P.chart.left) for p in pts]
        P = P.chart.body
    Q = _hull_oracle(sorted(set(pts)), P.dim)
    assert P.vertices == Q.vertices
    assert P.facets == Q.facets


@settings(max_examples=40, deadline=None)
@given(_point_sets(max_points=(10, 8, 6)), st.data())
def test_hrep_vertices_matches_subset_oracle(points, data):
    dim, pts = points
    P = convex_hull(pts)
    assume(P.chart is None)
    offsets = st.fractions(0, 3, max_denominator=3)
    rows = list(P.facets)
    for normal, c in data.draw(st.lists(st.sampled_from(P.facets), max_size=3)):
        k = data.draw(st.integers(1, 3))  # duplicate, scaled or loosened facets
        rows.append((tuple(k * a for a in normal), k * c + data.draw(offsets)))
    for normal in data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim,
                                               max_size=dim), max_size=2)):
        rows.append((tuple(normal), P.support(normal) + data.draw(offsets)))
    rows += [((0,) * dim, data.draw(offsets))]
    rows = data.draw(st.permutations(rows))
    assert _hrep_vertices(rows, dim) == _hrep_oracle(rows, dim) == list(P.vertices)
    assert hrep_polytope(rows, dim).vertices == P.vertices
    assert _hrep_vertices(rows + [((0,) * dim, Fraction(-1, 2))], dim) == []
    flat = [(n[:-1] + (0,), c) for n, c in rows]
    assert _hrep_vertices(flat, dim) == _hrep_oracle(flat, dim) == []


def _hrep_vertices(rows, dim):
    """The sorted vertices that the double description of `rows` reads off."""
    return sorted(v for v, _ in _hrep_rays(rows, dim)[1])
