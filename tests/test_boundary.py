"""Continuous boundary functional, sweeps, Brunn-Minkowski certificates."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isozono.boundary import (
    brunn_minkowski_certificate,
    continuous_boundary,
    directional_sweep,
    finite_difference_probe,
    zonotope_boundary_identity,
)
from isozono.catalog import BUILTIN_NAMES, builtin_graph
from isozono.errors import (DimensionDeficiencyError, DimensionMismatchError, FormatError,
                            ZeroVectorError)
from isozono.geometry import convex_hull, minkowski_sum_segment
from isozono.intmat import _norm_num, canonical_sign, content, dot
from isozono.zonotope import build_zonotope, homothety_check, zonotope_of_graph
from test_geometry import _scaled_point_sets
from test_intmat import leibniz_det

OCTAGON = [(3, 1), (1, 3), (-1, 3), (-3, 1), (-3, -1), (-1, -3), (1, -3), (3, -1)]


def test_sweep_octagon_polytope_path():
    P = convex_hull(OCTAGON)
    assert directional_sweep(P, (1, 0)) == 6
    assert directional_sweep(P, (0, 1)) == 6
    assert directional_sweep(P, (1, 1)) == 8
    assert directional_sweep(P, (1, -1)) == 8


def test_sweep_matches_minkowski_difference():
    rng = random.Random(53)
    for _ in range(40):
        pts = {(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(3, 9))}
        P = convex_hull(pts)
        if P.affine_dim < 2:
            continue
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if v == (0, 0):
            continue
        swept = minkowski_sum_segment(P, (0, 0), v)
        assert directional_sweep(P, v) == swept.volume() - P.volume()


def _sweep_by_determinants(z, v):
    """2^(n-1) * sum of |det(S + {v})| over the (n-1)-subsets S of generators."""
    return 2 ** (z.dim - 1) * sum(abs(leibniz_det(list(sub) + [v]))
                                  for sub in combinations(z.generators, z.dim - 1))


def test_sweep_zonotope_shortcut_agrees_with_polytope_path():
    rng = random.Random(61)
    zonotopes = [builtin_graph(name).zonotope()
                 for name in ("linf:2", "tri", "l1:3", "linf:3", "linf:4", "d4cross")]
    gens5 = set()
    while len(gens5) < 7:
        v = tuple(rng.randint(-3, 3) for _ in range(5))
        if content(v) == 1:
            gens5.add(canonical_sign(v))
    zonotopes.append(build_zonotope(5, gens5))
    for z in zonotopes:
        dirs = list(z.generators[:6])
        while len(dirs) < 9:
            v = tuple(rng.randint(-4, 4) for _ in range(z.dim))
            if any(v) and canonical_sign(v) not in z.generators:
                dirs.append(v)
        for v in dirs:
            assert directional_sweep(z, v) == _sweep_by_determinants(z, v)
        if z.dim <= 3:
            P = z.polytope()
            for v in set(dirs) | set(z.generators):
                assert directional_sweep(z, v) == directional_sweep(P, v)


def test_sweep_rejects_bad_input():
    P = convex_hull(OCTAGON)
    with pytest.raises(ZeroVectorError):
        directional_sweep(P, (0, 0))
    with pytest.raises(DimensionMismatchError):
        directional_sweep(P, (1, 0, 0))


@pytest.mark.parametrize("flat, name", [
    (convex_hull([(0, 0), (1, 1)]), "linf:2"),
    (convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)]), "linf:3"),
], ids=["segment-2d", "triangle-3d"])
def test_flat_bodies_raise_dimension_deficiency(flat, name):
    # The sweep, the homothety check and the certificate (through A.volume())
    # refuse a flat body with the one class for "full-dimensional required".
    g = builtin_graph(name).graph()
    for call in (lambda: directional_sweep(flat, g.generators[0]),
                 lambda: homothety_check(flat, zonotope_of_graph(g).polytope()),
                 lambda: brunn_minkowski_certificate(flat, g)):
        with pytest.raises(DimensionDeficiencyError):
            call()


_LEGS_2 = convex_hull([(0, 0), (2, 0), (0, 2)])


@pytest.mark.parametrize("call, outcome", [
    (lambda: directional_sweep(_LEGS_2, (1 / 3, 0)), 2 * Fraction(1 / 3)),
    (lambda: directional_sweep(builtin_graph("l1:2").zonotope(), (0.5, 0)), 1),
    (lambda: directional_sweep(_LEGS_2, (1, "a")), FormatError),
    (lambda: directional_sweep(builtin_graph("l1:2").zonotope(), (1, "a")), FormatError),
    (lambda: finite_difference_probe(_LEGS_2, builtin_graph("l1:2").graph(), ["x"]),
     FormatError),
], ids=["polytope-float", "zonotope-float", "polytope-text", "zonotope-text", "probe-text"])
def test_sweep_direction_and_probe_step_are_read_as_exact_rationals(call, outcome):
    # A float coordinate enters as its exact Fraction, so no float comes out.
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call()
    else:
        assert repr(call()) == repr(outcome)


def _cone_volume(P):
    """sum_F (offset_F - <n_F, apex>) * cell_F / n, one Fraction per facet:
    the volume formula before the common-denominator sums, kept as the oracle."""
    apex = P.vertices[0]
    total = Fraction(0)
    for normal, offset, cell in P.facet_cells():
        total += (Fraction(offset) - dot(normal, apex)) * cell
    return _norm_num(total / P.dim)


def _cell_sweep(P, v):
    """sum_F max(0, <n_F, v>) * cell_F, one Fraction per facet, kept as the oracle."""
    total = Fraction(0)
    for normal, _, cell in P.facet_cells():
        s = dot(normal, v)
        if s > 0:
            total += s * cell
    return _norm_num(total)


@settings(max_examples=60, deadline=None)
@given(_scaled_point_sets())
def test_volume_and_generator_sweeps_match_the_fraction_sums_over_the_cells(pts):
    # Equal values of equal types: an integral result stays an int.
    P = convex_hull(pts)
    assume(P.chart is None)
    assert repr(P.volume()) == repr(_cone_volume(P))
    for name in BUILTIN_NAMES:
        graph = builtin_graph(name).graph()
        if graph.dim == P.dim:
            for v in graph.generators:
                assert repr(directional_sweep(P, v)) == repr(_cell_sweep(P, v))


def test_continuous_boundary_oracles():
    l1 = builtin_graph("l1:2").graph()
    linf = builtin_graph("linf:2").graph()
    tri = builtin_graph("tri").graph()
    unit = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert continuous_boundary(unit, l1).value == 4
    assert continuous_boundary(unit, linf).value == 12
    square = convex_hull([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert continuous_boundary(square, l1).value == 8
    oct_ = convex_hull(OCTAGON)
    assert continuous_boundary(oct_, linf).value == 56
    hexagon = zonotope_of_graph(tri).polytope()
    assert continuous_boundary(hexagon, tri).value == 24


def test_boundary_of_zonotope_is_n_times_volume():
    for name in BUILTIN_NAMES:
        bv, expect, match = zonotope_boundary_identity(builtin_graph(name).graph())
        assert match, name
        assert bv.value == expect


def test_boundary_value_exposes_per_generator_sweeps():
    tri = builtin_graph("tri").graph()
    hexagon = zonotope_of_graph(tri).polytope()
    bv = continuous_boundary(hexagon, tri)
    assert bv.value == 2 * sum(s for _, s in bv.sweeps)
    assert [g for g, _ in bv.sweeps] == list(tri.generators)


def test_bm_certificate_strict_inequality():
    linf = builtin_graph("linf:2").graph()
    unit = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    cert = brunn_minkowski_certificate(unit, linf)
    assert cert.holds and not cert.is_equality and not cert.homothetic
    assert cert.consistent
    # b^2 = 144 > 2^2 * 1 * 28 = 112
    assert cert.lhs == 144 and cert.rhs == 112


def test_bm_certificate_equality_for_homothets():
    linf = builtin_graph("linf:2").graph()
    Zp = zonotope_of_graph(linf).polytope()
    for scale, shift in ((1, (0, 0)), (2, (3, -1)), (Fraction(1, 2), (Fraction(1, 2), 5))):
        A = Zp.scale(scale).translate(shift)
        cert = brunn_minkowski_certificate(A, linf)
        assert cert.holds and cert.is_equality and cert.homothetic
        assert cert.consistent
        assert cert.homothety is not None


def test_bm_certificate_fuzz_consistency():
    rng = random.Random(59)
    graphs = [builtin_graph(n).graph() for n in ("l1:2", "linf:2", "tri")]
    for g in graphs:
        for _ in range(40):
            pts = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 8))}
            A = convex_hull(pts)
            if A.affine_dim < 2:
                continue
            cert = brunn_minkowski_certificate(A, g)
            assert cert.holds
            assert cert.consistent


def test_finite_difference_probe_quotients():
    linf = builtin_graph("linf:2").graph()
    unit = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    rows = finite_difference_probe(unit, linf, [1, Fraction(1, 2), Fraction(1, 4)])
    # vol(A + eps*Z) = 1 + 12 eps + 28 eps^2, so quotient = 12 + 28 eps.
    assert [r.quotient for r in rows] == [40, 26, 19]
    quotients = [r.quotient for r in rows]
    assert all(a > b for a, b in zip(quotients, quotients[1:]))
    assert all(q > 12 for q in quotients)


def test_probe_epsilon_one_matches_minkowski_sum():
    tri = builtin_graph("tri").graph()
    A = convex_hull([(0, 0), (2, 0), (0, 2)])
    (row,) = finite_difference_probe(A, tri, [1])
    B = A
    for g in tri.generators:
        B = minkowski_sum_segment(B, tuple(-c for c in g), g)
    assert row.volume == B.volume()
    assert row.quotient == B.volume() - A.volume()


def test_probe_3d_matches_zonotope_determinant_sum():
    # A = sum [0, w_j] and Z = sum [-v_i, v_i] = sum [0, 2 v_i] - sum v_i, so
    # A + Z is the zonotope of {w_j} and {2 v_i}: its volume is the sum of
    # |det| over 3-subsets, with no hull involved.
    linf3 = builtin_graph("linf:3").graph()
    ws = [(1, 0, 0), (0, 2, 1), (1, 1, 3), (-1, 2, 0)]
    A = convex_hull([tuple(sum(w[i] for w, s in zip(ws, signs) if s) for i in range(3))
                     for signs in product((0, 1), repeat=len(ws))])
    (row,) = finite_difference_probe(A, linf3, [1])
    gens = ws + [tuple(2 * a for a in v) for v in linf3.generators]
    expected = sum(abs(leibniz_det(list(S))) for S in combinations(gens, 3))
    assert row.volume == expected
    assert row.quotient == expected - A.volume()


def _cleared_probe(A, graph, eps):
    """(vol(A + eps Z), its difference quotient) with every denominator
    cleared first: A scaled by m, the lcm of eps's and the vertices'
    denominators, the segments +-(m eps) v added on integer vertices, and
    the volume divided by m^n.  The oracle for `finite_difference_probe`,
    which adds +-eps v to A as it is."""
    m = lcm(eps.denominator, *(Fraction(c).denominator for v in A.vertices for c in v))
    Q = A.scale(m)
    k = int(m * eps)
    for v in graph.generators:
        Q = minkowski_sum_segment(Q, tuple(-k * c for c in v), tuple(k * c for c in v))
    vol = Fraction(Q.volume(), m ** A.dim)
    return vol, (vol - Fraction(A.volume())) / eps


@st.composite
def _rational_probe_cases(draw):
    """(A, graph, eps): a full-dimensional hull of 3 to 7 points of
    (1/q)Z^dim, dim 2 or 3 and q in 2..6, a builtin graph of that dimension,
    and eps = a/b with a in 1..6 and b in 1..5."""
    dim = draw(st.integers(2, 3))
    q = draw(st.integers(2, 6))
    points = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=dim + 1, max_size=7))
    A = convex_hull([tuple(Fraction(a, q) for a in p) for p in points])
    assume(A.is_full_dimensional())
    name = draw(st.sampled_from([n for n in BUILTIN_NAMES if builtin_graph(n).graph().dim == dim]))
    eps = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    return A, builtin_graph(name).graph(), eps


@settings(max_examples=40, deadline=None)
@given(_rational_probe_cases())
def test_probe_rows_match_the_cleared_denominator_route(case):
    A, graph, eps = case
    (row,) = finite_difference_probe(A, graph, [eps])
    assert row.epsilon == eps
    assert repr((row.volume, row.quotient)) == repr(_cleared_probe(A, graph, eps))
