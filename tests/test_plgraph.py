"""Primitive-lattice graphs and the edge-boundary identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isozono.catalog import BUILTIN_NAMES, builtin_graph
from isozono.errors import (
    AntipodalGeneratorError,
    DimensionMismatchError,
    DuplicateGeneratorError,
    IsozonoError,
    NonPrimitiveGeneratorError,
    RankDeficientError,
    ZeroVectorError,
)
from isozono.plgraph import (
    as_lattice_set,
    boundary_identity_report,
    edge_boundary_direct,
    gap_count,
    projection_count,
    validate_pl_graph,
)


def test_validate_rejects_bad_generator_sets():
    with pytest.raises(ZeroVectorError):
        validate_pl_graph(2, [(0, 0), (1, 0)])
    with pytest.raises(NonPrimitiveGeneratorError):
        validate_pl_graph(2, [(2, 4), (0, 1)])
    with pytest.raises(DuplicateGeneratorError):
        validate_pl_graph(2, [(1, 0), (1, 0)])
    with pytest.raises(AntipodalGeneratorError):
        validate_pl_graph(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(RankDeficientError):
        validate_pl_graph(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DimensionMismatchError):
        validate_pl_graph(2, [(1, 0, 0), (0, 1, 0)])


@pytest.mark.parametrize("dim", (0, -1))
def test_validate_refuses_a_dimension_below_one(dim):
    # rank([], 0) == 0, so without the check the empty 0-dimensional graph
    # passed the spanning test.
    with pytest.raises(DimensionMismatchError, match="at least 1"):
        validate_pl_graph(dim, [])


def test_generators_are_sign_canonicalized_and_sorted():
    g = validate_pl_graph(2, [(0, -1), (-1, 1)])
    assert g.generators == ((0, 1), (1, -1))
    assert g.degree == 4


def test_edge_boundary_single_point_equals_degree():
    for name in ("l1:2", "linf:2", "tri", "l1:3", "linf:3"):
        g = builtin_graph(name).graph()
        origin = tuple([0] * g.dim)
        assert edge_boundary_direct(g, [origin]) == g.degree


def test_edge_boundary_direct_oracles():
    l1 = builtin_graph("l1:2").graph()
    # 2x2 block in Z^2 with nearest-neighbor edges: 8 boundary edges
    block = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert edge_boundary_direct(l1, block) == 8
    # 3x3 grid: 12
    grid = [(x, y) for x in range(3) for y in range(3)]
    assert edge_boundary_direct(l1, grid) == 12
    linf = builtin_graph("linf:2").graph()
    assert edge_boundary_direct(linf, block) == 20
    assert edge_boundary_direct(linf, [(0, 0)]) == 8


def test_projection_and_gap_counts():
    l1 = builtin_graph("l1:2").graph()
    # An L-shaped set: 3 columns, 2 rows, no gaps.
    L = [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert projection_count(l1, L, (1, 0)) == 2
    assert projection_count(l1, L, (0, 1)) == 3
    assert gap_count(l1, L, (1, 0)) == 0
    # A horizontal run with a hole has one gap along (1,0).
    holed = [(0, 0), (2, 0)]
    assert projection_count(l1, holed, (1, 0)) == 1
    assert gap_count(l1, holed, (1, 0)) == 1
    assert edge_boundary_direct(l1, holed) == 2 * (1 + 1 + 2 + 0)
    with pytest.raises(ZeroVectorError):
        projection_count(l1, holed, (0, 0))
    with pytest.raises(ZeroVectorError):
        gap_count(l1, holed, (0, 0))


def test_boundary_identity_report_structure():
    tri = builtin_graph("tri").graph()
    pts = [(0, 0), (1, 0), (0, 1)]
    rep = boundary_identity_report(tri, pts)
    assert rep.identity_holds
    assert rep.direct_count == rep.identity_count
    assert len(rep.per_generator) == 3
    gens = [g for g, _, _ in rep.per_generator]
    assert tuple(gens) == tri.generators


def test_boundary_identity_fuzz_all_builtins():
    rng = random.Random(101)
    names = ["l1:2", "linf:2", "tri", "l1:3", "linf:3", "d4cross"]
    for name in names:
        g = builtin_graph(name).graph()
        span = 5 if g.dim <= 2 else 3
        for _ in range(60):
            m = rng.randint(1, 25)
            pts = {tuple(rng.randint(-span, span) for _ in range(g.dim))
                   for _ in range(m)}
            rep = boundary_identity_report(g, pts)
            assert rep.identity_holds, (name, sorted(pts))
            assert rep.direct_count == edge_boundary_direct(g, pts)


def test_identity_with_diagonal_generator_line_keys():
    # Lines along (1,1): the key construction must put (0,0) and (2,2) on one
    # line (with a gap) and (1,0) on another.
    tri = builtin_graph("tri").graph()
    pts = [(0, 0), (2, 2), (1, 0)]
    assert projection_count(tri, pts, (1, 1)) == 2
    assert gap_count(tri, pts, (1, 1)) == 1
    rep = boundary_identity_report(tri, pts)
    assert rep.identity_holds


def test_as_lattice_set_validates_dimension():
    with pytest.raises(DimensionMismatchError):
        as_lattice_set([(1, 2, 3)], 2)
    l1 = builtin_graph("l1:2").graph()
    for v in ((1, 0, 0), (1,)):
        with pytest.raises(DimensionMismatchError):
            projection_count(l1, [(0, 0), (1, 0)], v)
        with pytest.raises(DimensionMismatchError):
            gap_count(l1, [(0, 0), (1, 0)], v)
    assert as_lattice_set([(1, 2), (1, 2)], 2) == frozenset({(1, 2)})


def test_empty_set_has_zero_boundary():
    l1 = builtin_graph("l1:2").graph()
    assert edge_boundary_direct(l1, []) == 0
    rep = boundary_identity_report(l1, [])
    assert rep.identity_holds and rep.direct_count == 0


def test_non_integer_coordinates_are_rejected_not_truncated():
    l1 = builtin_graph("l1:2").graph()
    with pytest.raises(IsozonoError, match=r"point \(0\.5, 0\)"):
        edge_boundary_direct(l1, [(0.5, 0), (0, 0)])
    with pytest.raises(IsozonoError, match=r"point \(Fraction\(1, 3\), 2\)"):
        as_lattice_set([(Fraction(1, 3), 2)], 2)
    with pytest.raises(IsozonoError, match=r"point \(0\.5, 1\)"):
        validate_pl_graph(2, [(0.5, 1), (1, 0)])
    # Integral values of any type still pass, as ints.
    assert edge_boundary_direct(l1, [(Fraction(2), 0), (1.0, 0)]) == 6
    assert validate_pl_graph(2, [(Fraction(1), 0), (0, 1.0)]).generators == ((0, 1), (1, 0))


def _oracle_boundary(gens, S):
    """Edges leaving S, by tuple set membership."""
    return sum(tuple(a + sign * b for a, b in zip(p, v)) not in S
               for p in S for v in gens for sign in (1, -1))


def _multiple_of(d, v):
    """The integer t with d = t*v, or None when there is none."""
    j = next(i for i, a in enumerate(v) if a)
    if d[j] % v[j]:
        return None
    t = d[j] // v[j]
    return t if all(a == t * b for a, b in zip(d, v)) else None


def _oracle_lines_and_gaps(S, v):
    """(lines, gaps) along v from the pairwise rule alone: p and q share a
    line iff p - q is an integer multiple of v.  Each line is a base point
    and the multiples t of its members; a gap is a jump of more than 1
    between consecutive sorted t."""
    lines = []
    for p in S:
        for base, ts in lines:
            t = _multiple_of(tuple(a - b for a, b in zip(p, base)), v)
            if t is not None:
                ts.append(t)
                break
        else:
            lines.append((p, [0]))
    gaps = 0
    for _, ts in lines:
        ts.sort()
        gaps += sum(b > a + 1 for a, b in zip(ts, ts[1:]))
    return len(lines), gaps


@st.composite
def _graph_and_set(draw):
    """A builtin graph, or unit vectors plus one skewed generator with an
    entry up to 10^6; and a set clustered about a base point of coordinates
    up to 10^18 (or the origin): small offsets plus multiples of generators,
    so that lines hold several points and gaps."""
    if draw(st.booleans()):
        graph = builtin_graph(draw(st.sampled_from(BUILTIN_NAMES))).graph()
    else:
        dim = draw(st.integers(2, 4))
        skew = [draw(st.integers(-10 ** 6, 10 ** 6)) for _ in range(dim)]
        i = draw(st.integers(0, dim - 1))
        skew[i] = 1
        if sum(map(abs, skew)) == 1:  # a unit vector: make it skew
            skew[i - 1] = 10 ** 6
        units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        graph = validate_pl_graph(dim, units + [tuple(skew)])
    n = graph.dim
    big = st.integers(-10 ** 18, 10 ** 18)
    base = draw(st.one_of(st.just((0,) * n), st.tuples(*[big] * n)))
    pts = set()
    for _ in range(draw(st.integers(0, 12))):
        v = draw(st.sampled_from(graph.generators))
        t = draw(st.integers(-3, 3))
        off = draw(st.tuples(*[st.integers(-2, 2)] * n))
        pts.add(tuple(b + o + t * a for b, o, a in zip(base, off, v)))
    return graph, sorted(pts)


@settings(max_examples=300, deadline=None)
@given(_graph_and_set())
@example((builtin_graph("linf:2").graph(), []))
@example((builtin_graph("linf:2").graph(), [(0, 0)]))
@example((builtin_graph("l1:3").graph(), [(0, 0, 0)]))
@example((builtin_graph("l1:2").graph(), [(0, 1), (1, -1)]))
@example((validate_pl_graph(2, [(1, 0), (0, 1), (1, 10 ** 6)]),
          [(10 ** 18, -10 ** 18), (10 ** 18 + 1, 10 ** 6 - 10 ** 18), (10 ** 18 + 3, 3 * 10 ** 6 - 10 ** 18)]))
# Two lines along (2, 999999) whose keys collide in any radix below 2(r + 1)(g + 1) + 1
# that only covers the neighbours, 2(r + g) + 1.
@example((validate_pl_graph(2, [(1, 0), (0, 1), (2, 999999)]), [(0, 2), (7, -10 ** 6)]))
def test_packed_kernels_match_tuple_and_pairwise_oracles(data):
    graph, pts = data
    S = set(pts)
    direct = _oracle_boundary(graph.generators, S)
    assert edge_boundary_direct(graph, pts) == direct
    rows = []
    for v in graph.generators:
        lines, gaps = _oracle_lines_and_gaps(pts, v)
        assert projection_count(graph, pts, v) == lines
        assert gap_count(graph, pts, v) == gaps
        rows.append((v, lines, gaps))
    rep = boundary_identity_report(graph, pts)
    assert rep.direct_count == direct
    assert rep.per_generator == tuple(rows)
    assert rep.identity_holds and rep.identity_count == direct
