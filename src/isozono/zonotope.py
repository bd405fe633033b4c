"""Centered zonotopes of primitive integer generators, with exact face data.

A zonotope here is Z = sum_i [-v_i, v_i] for canonical generators v_i (same
validation as the lattice graphs).  Its face data come from one table of
generator minors, built in a single pass over the (n-1)-subsets S of
generators: cross_nd(S) = w_S * u with u canonical and primitive adds |w_S|
to w(u) (Ziegler, Lectures on Polytopes, Lecture 7).  The keys u are exactly
the facet normals, each supporting the pair of facets at offset
h(u) = sum_i |<u, v_i>|, and the sweep along v is 2^(n-1) sum_u w(u) |<u, v>|.
The volume is deliberately not read off the table: it stays the n-subset
determinant sum, so b(Z) = n vol(Z) compares two independent routes.

Vertices are enumerated recursively over the table's keys: the facet of Z
with outward normal u is t_u + Z(T_u) where T_u are the generators orthogonal
to u and t_u = sum sign(<u,v_i>) v_i over the rest; sub-zonotopes are taken
in an integer basis of the facet hyperplane's lattice, which keeps every
intermediate coordinate an integer: `intmat.kernel_chart` returns that basis
with its integer left inverse, whose rows read the coordinates off as dot
products.  Recursion bottoms out at exact zonogon cycles.  Every vertex lies
on a facet, so the union over facets is complete, and the recursion records
each facet's vertex set: that record is the vertex-facet incidence the
f-vector walks, with no vertex-by-facet product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import combinations

from .errors import DimensionMismatchError, EmptySectionError, RankDeficientError
from .geometry import Polytope, convex_hull, hrep_vertices
from .intmat import (
    _bit_indices,
    _norm_num,
    canonical_sign,
    content,
    cross_nd,
    det,
    dot,
    embed,
    kernel_chart,
    rank,
    vadd,
    vneg,
    vsub,
)
from .plgraph import PLGraph, canonicalize_generators


@dataclass(frozen=True)
class Zonotope:
    """Centered zonotope sum_i [-v_i, v_i] with canonical generators."""

    dim: int
    generators: tuple

    def support(self, u) -> int:
        """Support value h(u) = sum |<u, v_i>| (the facet offset in direction u)."""
        return sum(abs(dot(u, g)) for g in self.generators)

    def volume(self) -> int:
        """Exact volume: 2^n times the sum of |det| over n-subsets of generators."""
        n = self.dim
        return 2 ** n * sum(abs(det(sub)) for sub in combinations(self.generators, n))

    def sweep(self, v) -> int:
        """vol(Z + [0, v]) - vol(Z) = 2^(n-1) sum_u w(u) |<u, v>| over the minor table."""
        return 2 ** (self.dim - 1) * sum(
            w * abs(dot(u, v)) for u, w in self.minor_table.items())

    @cached_property
    def minor_table(self):
        """{u: w(u)}, sorted by u: the facet normals (one per +- pair) and the
        summed |w_S| of the (n-1)-subsets S with cross_nd(S) = w_S * u."""
        table = {}
        for sub in combinations(self.generators, self.dim - 1):
            c = cross_nd(sub, self.dim)
            w = content(c)
            if w:
                u = canonical_sign(tuple(a // w for a in c))
                table[u] = table.get(u, 0) + w
        return dict(sorted(table.items()))

    @cached_property
    def facet_vertices(self):
        """{outward normal: frozenset of the facet's vertices}, both signs of
        every table key.  Needs dim >= 2."""
        d = self.dim
        facets = {}
        for u in self.minor_table:
            shift, tight = self._face_split(u)
            basis, left = kernel_chart([u], d)
            sub = Zonotope(d - 1, tuple(tuple(dot(l, g) for l in left) for g in tight))
            verts = frozenset(vadd(shift, embed(basis, s)) for s in sub._vertex_set)
            facets[u] = verts
            facets[vneg(u)] = frozenset(vneg(w) for w in verts)
        return facets

    def _face_split(self, u):
        """(t_u, T_u): t_u = sum sign(<u, v>) v over the generators v not
        orthogonal to u, and T_u the generators orthogonal to u.  The face of Z
        maximising <u, .> is t_u + Z(T_u)."""
        shift = (0,) * self.dim
        tight = []
        for g in self.generators:
            s = dot(u, g)
            if s == 0:
                tight.append(g)
            else:
                shift = vadd(shift, g) if s > 0 else vsub(shift, g)
        return shift, tight

    @cached_property
    def _vertex_set(self):
        if self.dim == 1:
            g = self.generators[0]
            return frozenset((g, vneg(g)))
        if self.dim == 2:
            return frozenset(_zonogon_cycle(self.generators))
        return frozenset().union(*self.facet_vertices.values())

    def polytope(self) -> Polytope:
        return self._polytope

    @cached_property
    def _polytope(self) -> Polytope:
        facets = []
        for u in self.minor_table:
            h = self.support(u)
            facets.append((u, h))
            facets.append((vneg(u), h))
        return Polytope(self.dim, sorted(self._vertex_set), facets)


def build_zonotope(dim: int, generators) -> Zonotope:
    """Zonotope from symmetric generators (validated and canonicalized)."""
    return Zonotope(dim, canonicalize_generators(dim, generators))


def zonotope_of_graph(graph: PLGraph) -> Zonotope:
    """The limiting shape of a lattice graph: one symmetric segment per generator."""
    return Zonotope(graph.dim, graph.generators)


def build_zonotope_from_segments(dim: int, segment_vectors) -> Zonotope:
    """Zonotope from one-sided segments [0, w].

    The vectors must pair up exactly as {w, -w}: each pair [0,w] + [0,-w] is
    the symmetric segment [-w, w], so the sum is centered with no translation
    remainder.  Unpaired vectors are rejected.
    """
    pool = [tuple(int(a) for a in w) for w in segment_vectors]
    gens = []
    while pool:
        w = pool.pop()
        neg = vneg(w)
        if neg not in pool:
            raise ValueError(
                f"one-sided segment {w} has no matching {neg}; "
                "the segment list must be centrally symmetric")
        pool.remove(neg)
        gens.append(canonical_sign(w))
    return build_zonotope(dim, gens)


# -- vertex enumeration ------------------------------------------------------


def _zonogon_cycle(gens):
    """Counterclockwise vertex cycle of a 2D zonotope (exact angular sort)."""
    ups = [g if (g[0] > 0 or (g[0] == 0 and g[1] > 0)) else vneg(g) for g in gens]

    def cmp(u, v):
        cr = u[0] * v[1] - u[1] * v[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    ups.sort(key=cmp_to_key(cmp))
    x = -sum(u[0] for u in ups)
    y = -sum(u[1] for u in ups)
    cycle = [(x, y)]
    for u in ups:
        x, y = x + 2 * u[0], y + 2 * u[1]
        cycle.append((x, y))
    for u in ups[:-1]:
        x, y = x - 2 * u[0], y - 2 * u[1]
        cycle.append((x, y))
    return cycle


# -- face counting -----------------------------------------------------------


@dataclass(frozen=True)
class FVector:
    """Face counts (f_0, ..., f_{n-1}) of an n-polytope."""

    counts: tuple

    @property
    def euler_ok(self) -> bool:
        n = len(self.counts)
        alt = sum((-1) ** i * f for i, f in enumerate(self.counts))
        return alt == 1 - (-1) ** n

    def __iter__(self):
        return iter(self.counts)


def f_vector(Z: Zonotope) -> FVector:
    """Face counts in every dimension, from the vertex-facet incidence that
    the vertex recursion records (`Zonotope.facet_vertices`).

    Faces are generated top-down: the (d-1)-faces of each d-face are the
    maximal proper intersections with facets, restricted to facets that share
    a vertex with the face.  f_0 is the vertex count, so the walk stops at
    dimension 1.
    """
    P = Z.polytope()
    n = Z.dim
    nv, nf = len(P.vertices), len(P.facets)
    if n == 1:
        return FVector((2,))
    if n == 2:
        return FVector((nv, nf))
    index = {v: i for i, v in enumerate(P.vertices)}
    facet_mask = [sum(1 << index[v] for v in Z.facet_vertices[u]) for u, _ in P.facets]
    vertex_mask = [0] * nv
    for j, m in enumerate(facet_mask):
        for i in _bit_indices(m):
            vertex_mask[i] |= 1 << j

    counts = {n - 1: nf}
    current = set(facet_mask)
    for level in range(n - 2, 0, -1):
        nxt = set()
        for face in current:
            cand = 0
            for vi in _bit_indices(face):
                cand |= vertex_mask[vi]
            children = set()
            for fj in _bit_indices(cand):
                inter = face & facet_mask[fj]
                if inter and inter != face:
                    children.add(inter)
            ordered = sorted(children, key=lambda m: -m.bit_count())
            kept = []
            for c in ordered:
                if not any(c & k == c for k in kept):
                    kept.append(c)
            nxt.update(kept)
        counts[level] = len(nxt)
        current = nxt
    return FVector(tuple([nv] + [counts[l] for l in range(1, n - 1)] + [nf]))


# -- slices ------------------------------------------------------------------


@dataclass(frozen=True)
class FacetSlice:
    """A coordinate-direction face of a zonotope in its dropped-axis chart."""

    face: Polytope
    translation: tuple
    is_facet: bool


def facet_polytope(Z: Zonotope, axis: int) -> FacetSlice:
    """The face of Z maximizing coordinate `axis` (0-based).

    Returned in the chart that drops that coordinate, together with the
    ambient translation vector t = sum sign(v_i[axis]) * v_i; the face itself
    is the sub-zonotope of generators with vanishing `axis` coordinate.  When
    those generators do not span the hyperplane the face is lower-dimensional
    and `is_facet` is False.
    """
    n = Z.dim
    if not 0 <= axis < n:
        raise IndexError(f"axis {axis} out of range for dimension {n}")
    shift, tight = Z._face_split(tuple(int(i == axis) for i in range(n)))
    chart_gens = [tuple(a for i, a in enumerate(g) if i != axis) for g in tight]
    full_rank = bool(chart_gens) and rank(chart_gens, n - 1) == n - 1
    if full_rank:
        face = Zonotope(n - 1, canonicalize_generators(n - 1, chart_gens)).polytope()
    else:
        # One segment at a time: P + [-g, g] is the hull of P - g and P + g.
        face = convex_hull([(0,) * (n - 1)])
        for g in chart_gens:
            face = convex_hull([vadd(p, g) for p in face.vertices]
                               + [vsub(p, g) for p in face.vertices])
    return FacetSlice(face, shift, full_rank)


def hyperplane_section(Z: Zonotope, axis: int, level) -> Polytope:
    """Slice {x in Z : x[axis] = level} in the dropped-axis chart."""
    n = Z.dim
    if not 0 <= axis < n:
        raise IndexError(f"axis {axis} out of range for dimension {n}")
    level = Fraction(level)
    h = Z.support(tuple(1 if i == axis else 0 for i in range(n)))
    if abs(level) > h:
        raise EmptySectionError(
            f"|level| = {abs(level)} exceeds the support value {h} along axis {axis}")
    ineqs = []
    for u in Z.minor_table:
        h = Z.support(u)
        for normal in (u, vneg(u)):
            reduced = tuple(a for i, a in enumerate(normal) if i != axis)
            ineqs.append((reduced, h - normal[axis] * level))
    verts = hrep_vertices(ineqs, n - 1)
    if not verts:
        raise EmptySectionError(f"section at level {level} along axis {axis} is empty")
    return convex_hull(verts)


def homothety_check(P: Polytope, Q: Polytope):
    """(scale, translation) with Q = scale * P + translation, or None.

    Both polytopes must be full-dimensional in a common dimension; the scale
    is required to be positive.
    """
    if P.dim != Q.dim:
        raise DimensionMismatchError("homothety requires equal dimensions")
    if not (P.is_full_dimensional() and Q.is_full_dimensional()):
        raise RankDeficientError("homothety check requires full-dimensional polytopes")
    if len(P.vertices) != len(Q.vertices):
        return None
    scale = None
    for i in range(P.dim):
        ep = max(v[i] for v in P.vertices) - min(v[i] for v in P.vertices)
        eq = max(v[i] for v in Q.vertices) - min(v[i] for v in Q.vertices)
        s = Fraction(eq) / Fraction(ep)
        if scale is None:
            scale = s
        elif scale != s:
            return None
    if scale is None or scale <= 0:
        return None
    m = len(P.vertices)
    cp = tuple(Fraction(sum(Fraction(v[i]) for v in P.vertices), m) for i in range(P.dim))
    cq = tuple(Fraction(sum(Fraction(v[i]) for v in Q.vertices), m) for i in range(Q.dim))
    t = tuple(b - scale * a for a, b in zip(cp, cq))
    image = {tuple(scale * Fraction(a) + b for a, b in zip(v, t)) for v in P.vertices}
    target = {tuple(map(Fraction, v)) for v in Q.vertices}
    if image != target:
        return None
    return _norm_num(scale), tuple(map(_norm_num, t))


def zonotope_volume(Z: Zonotope) -> int:
    return Z.volume()


def zonotope_hrep(Z: Zonotope):
    return Z.polytope().facets


def zonotope_vertices(Z: Zonotope):
    return Z.polytope().vertices
