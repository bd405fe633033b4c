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

Faces are enumerated over flats, the generator subsets T that contain every
generator of their span.  Each face of Z(F) = sum_{v in F} [-v, v] is
t + Z(T) for a flat T of F, and the facet with relative outward normal u is
t_u + Z(T_u) with T_u the generators orthogonal to u and
t_u = sum sign(<u, v>) v over the rest; the facet with normal -u is its
negative.  The centre t of a face lies in its relative interior, so distinct
faces have distinct centres and one recursion (`_flat_faces`) names every
face by its centre, a signed sum of generators and so an integer point of
Z^n.  The top level takes its normals from the minor table; a lower flat
takes them, by the same rule, in a chart of coordinates on which it projects
injectively.  Every proper face lies on a facet and is a face of it, so the
union over facets is complete: the vertices are the centres of dimension 0,
and the f-vector counts centres by dimension.

Coordinate i of a centre lies in [-h(e_i), h(e_i)], so the recursion keeps
each centre packed as one int, sum_i t_i R^(n-1-i) with balanced digits in
the radix R = 2 max_i h(e_i) + 1.  Codes add and negate like the vectors,
int order is tuple order, and only the vertices are unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .errors import DimensionMismatchError, EmptySectionError, RankDeficientError
from .geometry import Polytope, convex_hull, hrep_vertices
from .intmat import (
    _norm_num,
    canonical_sign,
    content,
    cross_nd,
    det,
    dot,
    independent_rows,
    pack,
    unpack,
    vneg,
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
        return self._volume

    @cached_property
    def _volume(self) -> int:
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
        for u, w in _minors(self.generators, self.dim):
            table[u] = table.get(u, 0) + w
        return dict(sorted(table.items()))

    @cached_property
    def facet_offsets(self):
        """[(u, h(u))]: one outward normal u of each pair of opposite facets,
        in minor-table order, with its facet offset."""
        return [(u, self.support(u)) for u in self.minor_table]

    @cached_property
    def _radix(self) -> int:
        """2 max_i h(e_i) + 1: coordinate i of a face centre lies in
        [-h(e_i), h(e_i)], so every centre is one balanced digit per
        coordinate in this radix."""
        return 2 * max(sum(abs(g[i]) for g in self.generators) for i in range(self.dim)) + 1

    @cached_property
    def _codes(self):
        """{generator: its `pack` code in radix R = `_radix`}."""
        return {g: pack(g, self._radix) for g in self.generators}

    def _centre(self, code):
        """The point whose packed code is `code`."""
        return unpack(code, self._radix, self.dim)

    @cached_property
    def _faces(self):
        """{code: dimension} of every proper face, keyed by the packed code of
        its centre (`_codes`, `_centre`)."""
        return _flat_faces(self.generators, self.dim, self.minor_table, self._codes, {})

    def polytope(self) -> Polytope:
        return self._polytope

    @cached_property
    def _polytope(self) -> Polytope:
        return Polytope(self.dim, [self._centre(c) for c in sorted(
                            c for c, k in self._faces.items() if k == 0)],
                        [f for u, h in self.facet_offsets for f in ((u, h), (vneg(u), h))])


@lru_cache(maxsize=16)
def _zonotope(dim: int, generators: tuple) -> Zonotope:
    """One Zonotope per canonical generator set, shared by repeated callers;
    the bound keeps a run over many generator sets from holding them all."""
    return Zonotope(dim, generators)


def build_zonotope(dim: int, generators) -> Zonotope:
    """Zonotope from symmetric generators (validated and canonicalized)."""
    return _zonotope(dim, canonicalize_generators(dim, generators))


def zonotope_of_graph(graph: PLGraph) -> Zonotope:
    """The limiting shape of a lattice graph: one symmetric segment per generator."""
    return _zonotope(graph.dim, graph.generators)


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


# -- face enumeration --------------------------------------------------------


def _minors(vectors, r):
    """(u, w) for each (r-1)-subset S of the r-vectors with cross_nd(S) = w * u
    nonzero, u canonical and primitive, w > 0."""
    for sub in combinations(vectors, r - 1):
        c = cross_nd(sub, r)
        w = content(c)
        if w:
            yield canonical_sign(tuple(a // w for a in c)), w


def _face_split(u, gens, chart, codes):
    """(t_u, T_u) for the functional u read on chart[i], the image of gens[i]:
    t_u = sum sign(<u, chart[i]>) gens[i] over the pairings that are nonzero,
    as a packed code (`codes[g]` per generator), and T_u the gens[i] whose
    pairing is zero.  The face of Z(gens) that maximises u is t_u + Z(T_u)."""
    shift = 0
    tight = []
    for g, p in zip(gens, chart):
        s = dot(u, p)
        if s == 0:
            tight.append(g)
        elif s > 0:
            shift += codes[g]
        else:
            shift -= codes[g]
    return shift, tight


def _flat_faces(flat, n, normals, codes, memo):
    """{code: dimension} of every proper face of Z(flat), keyed by the packed
    code of its centre in Z^n (`codes[g]` per generator; codes add like
    vectors).

    `normals` are the relative facet normals of a flat of rank n read in all
    n coordinates (the minor-table keys), or None: a flat of rank r < n is
    then read in the first r coordinates on which a basis of its span
    (`independent_rows`) has a nonzero r x r minor.  That projection is a
    linear isomorphism of span(flat), so it keeps the sign of every pairing
    with a generator and with it every face; the normals are the canonical
    cross_nd of the projected (r-1)-subsets.  Centres are sums of signed
    ambient generators, so nothing is mapped back: a shift is an int add and
    a reflection an int negation.

    A flat's faces depend on its generators alone, and a flat of rank r <= n-2
    is shared by the facets that meet in it, so `memo` (one per top-level
    call) keeps those, keyed by the generator tuple: a flat is fixed by its
    generators, and every parent lists them in top-level order.  Facets
    (rank n-1) are distinct per normal and each is read once, so keeping
    them would only hold memory.
    """
    if not flat:
        return {}
    if normals is None:
        if flat in memo:
            return memo[flat]
        basis = [flat[i] for i in independent_rows(flat, n)]
        r = len(basis)
        coords = next(c for c in combinations(range(n), r)
                      if det([[b[i] for i in c] for b in basis]))
        chart = [tuple(g[i] for i in coords) for g in flat]
        normals = dict.fromkeys(u for u, _ in _minors(chart, r))
    else:
        r, chart = n, flat
    faces = {}
    for u in normals:
        shift, tight = _face_split(u, flat, chart, codes)
        faces[shift] = faces[-shift] = r - 1
        for c, k in _flat_faces(tuple(tight), n, None, codes, memo).items():
            p = shift + c
            faces[p] = faces[-p] = k
    if r <= n - 2:
        memo[flat] = faces
    return faces


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
    """Face counts in every dimension: the face centres that the recursion
    records (`Zonotope._faces`), counted by dimension."""
    counts = [0] * Z.dim
    for k in Z._faces.values():
        counts[k] += 1
    return FVector(tuple(counts))


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
    ambient translation vector t = sum sign(v_i[axis]) * v_i: the face is the
    hull of the vertices of Z with v[axis] = t[axis], moved by -t.  It is the
    sub-zonotope of the generators with vanishing `axis` coordinate; when
    those do not span the hyperplane the face is lower-dimensional and
    `is_facet` is False.
    """
    n = Z.dim
    if not 0 <= axis < n:
        raise IndexError(f"axis {axis} out of range for dimension {n}")
    shift, _ = _face_split(tuple(int(i == axis) for i in range(n)),
                           Z.generators, Z.generators, Z._codes)
    t = Z._centre(shift)
    face = convex_hull([tuple(a - b for i, (a, b) in enumerate(zip(v, t)) if i != axis)
                        for v in Z.polytope().vertices if v[axis] == t[axis]])
    return FacetSlice(face, t, face.is_full_dimensional())


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
    ineqs = [(tuple(a for i, a in enumerate(normal) if i != axis), h - normal[axis] * level)
             for u, h in Z.facet_offsets for normal in (u, vneg(u))]
    # |level| <= h, so the hyperplane meets Z and the section has vertices.
    return convex_hull(hrep_vertices(ineqs, n - 1))


def homothety_check(P: Polytope, Q: Polytope):
    """(scale, translation) with Q = scale * P + translation, scale > 0, or
    None; P and Q must be full-dimensional in a common dimension.

    A positive homothety keeps lexicographic order, so it maps P.vertices[i]
    to Q.vertices[i].  The first and last vertices of a full-dimensional body
    differ in coordinate 0, so those pairs fix a positive scale and the first
    pair the translation; every pair must then agree.
    """
    if P.dim != Q.dim:
        raise DimensionMismatchError("homothety requires equal dimensions")
    if not (P.is_full_dimensional() and Q.is_full_dimensional()):
        raise RankDeficientError("homothety check requires full-dimensional polytopes")
    if len(P.vertices) != len(Q.vertices):
        return None
    (p0, *_, p1), (q0, *_, q1) = P.vertices, Q.vertices
    scale = Fraction(q1[0] - q0[0]) / (p1[0] - p0[0])
    t = tuple(b - scale * a for a, b in zip(p0, q0))
    if any(q != tuple(scale * a + b for a, b in zip(p, t))
           for p, q in zip(P.vertices, Q.vertices)):
        return None
    return _norm_num(scale), tuple(map(_norm_num, t))


def zonotope_volume(Z: Zonotope) -> int:
    return Z.volume()


def zonotope_hrep(Z: Zonotope):
    return Z.polytope().facets


def zonotope_vertices(Z: Zonotope):
    return Z.polytope().vertices
