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
independently, both on packed integer codes (`intmat.pack`, p +- v one int
addition).  Non-integer coordinates are rejected, not truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import (
    AntipodalGeneratorError,
    DimensionMismatchError,
    DuplicateGeneratorError,
    NonPrimitiveGeneratorError,
    RankDeficientError,
    ZeroVectorError,
)
from .intmat import canonical_sign, content, int_point, is_zero, pack, rank, vneg


def canonicalize_generators(dim: int, raw):
    """Validate and canonicalize generator vectors (shared with zonotopes)."""
    vecs = [int_point(v) for v in raw]
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
    pts = frozenset(map(int_point, points))
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatchError(f"point {p} does not have dimension {dim}")
    return pts


def _packed(S, generators):
    """({code: p} for S, [code of each generator]) in radix R = 2(r + 1)(g + 1) + 1,
    r the largest |coordinate| of S and g the largest |generator entry|: every
    p +- v and line key p - t*v, |t| <= r, is within R // 2 = (r + 1)(g + 1)."""
    r = max(map(abs, chain.from_iterable(S)), default=0)
    g = max(map(abs, chain.from_iterable(generators)))
    R = 2 * (r + 1) * (g + 1) + 1
    return {pack(p, R): p for p in S}, [pack(v, R) for v in generators]


def _outside_steps(codes, steps) -> int:
    """The pairs (p, s = +-v) with p + s outside the packed set (`_packed`)."""
    return sum(len({c + s for c in codes} - codes.keys()) for v in steps for s in (v, -v))


def edge_boundary_direct(graph: PLGraph, points) -> int:
    """Count edges with exactly one endpoint in the set, by direct adjacency
    scan on packed codes."""
    return _outside_steps(*_packed(as_lattice_set(points, graph.dim), graph.generators))


def _lines_and_gaps(packed, v, cv):
    """(lines, gaps) of a finite set along v: the lines x + Z*v meeting it,
    and its resumption gaps, (number of maximal runs) - 1 on each line.

    Primitivity of v makes the parameter along a line an integer: two set
    points on a common line differ by an integer multiple of v.  On the
    packed set {code: p} (`_packed`, cv the code of v) the line of p is keyed
    by code(p - t*v) = code(p) - t*cv, with t = p_j // v_j at v's first nonzero j.
    """
    j = next(i for i, a in enumerate(v) if a != 0)
    lines = {}
    for c, p in packed.items():
        t = p[j] // v[j]
        lines.setdefault(c - t * cv, []).append(t)
    for ts in lines.values():
        ts.sort()
    return len(lines), sum(b > a + 1 for ts in lines.values() for a, b in zip(ts, ts[1:]))


def _generator_lines(graph: PLGraph, points, generator):
    (v,) = as_lattice_set([generator], graph.dim)
    packed, (cv,) = _packed(as_lattice_set(points, graph.dim), [v])
    return _lines_and_gaps(packed, v, cv)


def projection_count(graph: PLGraph, points, generator) -> int:
    """Number of distinct lines x + Z*generator meeting the set."""
    return _generator_lines(graph, points, generator)[0]


def gap_count(graph: PLGraph, points, generator) -> int:
    """Number of resumption gaps along the generator.

    A gap is a point x with x - v in S, x not in S, and x + b*v in S for some
    b >= 1; on each line this counts (number of maximal runs) - 1.
    """
    return _generator_lines(graph, points, generator)[1]


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
    packed, codes = _packed(as_lattice_set(points, graph.dim), graph.generators)
    direct = _outside_steps(packed, codes)
    rows = tuple((v, *_lines_and_gaps(packed, v, cv))
                 for v, cv in zip(graph.generators, codes))
    report = EdgeBoundaryReport(direct, rows, False)
    return EdgeBoundaryReport(direct, rows, report.identity_count == direct)
