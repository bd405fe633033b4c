"""Primitive-lattice graphs on Z^n and edge boundaries of finite vertex sets.

A graph is described by k generator vectors: the neighbors of a point u are
u +- v_i for each generator.  Generators must be primitive, pairwise distinct,
pairwise non-antipodal, and span R^n; they are stored sign-normalized (first
nonzero coordinate positive) in sorted order.

The central counting fact implemented here: for any finite set S,

    |edge boundary of S| = 2 * sum_i (line classes of S along v_i
                                      + resumption gaps of S along v_i)

where a "gap" along v is a point x not in S with x - v in S but x + b*v in S
for some b >= 1.  `boundary_identity_report` evaluates both sides
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AntipodalGeneratorError,
    DimensionMismatchError,
    DuplicateGeneratorError,
    NonPrimitiveGeneratorError,
    RankDeficientError,
    ZeroVectorError,
)
from .intmat import canonical_sign, content, is_zero, rank, vneg


def canonicalize_generators(dim: int, raw):
    """Validate and canonicalize generator vectors (shared with zonotopes)."""
    vecs = [tuple(int(a) for a in v) for v in raw]
    for v in vecs:
        if len(v) != dim:
            raise DimensionMismatchError(f"generator {v} does not have dimension {dim}")
        if is_zero(v):
            raise ZeroVectorError("the zero vector cannot be a generator")
        if content(v) != 1:
            raise NonPrimitiveGeneratorError(f"generator {v} is not primitive")
    for i, v in enumerate(vecs):
        for w in vecs[i + 1:]:
            if v == w:
                raise DuplicateGeneratorError(f"generator {v} appears twice")
            if v == vneg(w):
                raise AntipodalGeneratorError(f"generators {v} and {w} are antipodal")
    # canonical_sign(v) == canonical_sign(w) iff v = +-w: the loop made them distinct.
    canon = sorted(canonical_sign(v) for v in vecs)
    if rank(canon, dim) != dim:
        raise RankDeficientError(f"generators {canon} do not span dimension {dim}")
    return tuple(canon)


@dataclass(frozen=True)
class PLGraph:
    """An infinite lattice graph on Z^dim defined by its generator set."""

    dim: int
    generators: tuple

    @property
    def degree(self) -> int:
        return 2 * len(self.generators)


def validate_pl_graph(dim: int, generators) -> PLGraph:
    """Build a PLGraph, rejecting invalid generator sets with precise errors."""
    return PLGraph(dim, canonicalize_generators(dim, generators))


def as_lattice_set(points, dim: int) -> frozenset:
    pts = frozenset(tuple(int(a) for a in p) for p in points)
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatchError(f"point {p} does not have dimension {dim}")
    return pts


def edge_boundary_direct(graph: PLGraph, points) -> int:
    """Count edges with exactly one endpoint in the set, by direct adjacency scan."""
    S = as_lattice_set(points, graph.dim)
    count = 0
    for p in S:
        for v in graph.generators:
            if tuple(a + b for a, b in zip(p, v)) not in S:
                count += 1
            if tuple(a - b for a, b in zip(p, v)) not in S:
                count += 1
    return count


def _lines_and_gaps(S, v):
    """(lines, gaps) of a finite set along v: the lines x + Z*v meeting it,
    and its resumption gaps, (number of maximal runs) - 1 on each line.

    Primitivity of v makes the parameter along a line an integer: two set
    points on a common line differ by an integer multiple of v.
    """
    j = next(i for i, a in enumerate(v) if a != 0)
    lines = {}
    for p in S:
        t = p[j] // v[j]
        key = tuple(a - t * b for a, b in zip(p, v))
        lines.setdefault(key, []).append(t)
    gaps = 0
    for ts in lines.values():
        ts.sort()
        for a, b in zip(ts, ts[1:]):
            if b > a + 1:
                gaps += 1
    return len(lines), gaps


def projection_count(graph: PLGraph, points, generator) -> int:
    """Number of distinct lines x + Z*generator meeting the set."""
    return _lines_and_gaps(as_lattice_set(points, graph.dim), tuple(generator))[0]


def gap_count(graph: PLGraph, points, generator) -> int:
    """Number of resumption gaps along the generator.

    A gap is a point x with x - v in S, x not in S, and x + b*v in S for some
    b >= 1; on each line this counts (number of maximal runs) - 1.
    """
    return _lines_and_gaps(as_lattice_set(points, graph.dim), tuple(generator))[1]


@dataclass(frozen=True)
class EdgeBoundaryReport:
    """Both sides of the boundary identity, evaluated independently."""

    direct_count: int
    per_generator: tuple  # (generator, line_classes, gaps) triples
    identity_holds: bool

    @property
    def identity_count(self) -> int:
        return 2 * sum(p + g for _, p, g in self.per_generator)


def boundary_identity_report(graph: PLGraph, points) -> EdgeBoundaryReport:
    """Evaluate the boundary count directly and via line classes + gaps.

    `identity_holds` is a theorem for valid inputs; False signals an
    implementation bug, and callers should treat it as such.
    """
    S = as_lattice_set(points, graph.dim)
    direct = edge_boundary_direct(graph, S)
    rows = tuple((v, *_lines_and_gaps(S, v)) for v in graph.generators)
    report = EdgeBoundaryReport(direct, rows, False)
    return EdgeBoundaryReport(direct, rows, report.identity_count == direct)
