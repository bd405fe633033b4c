"""Centered zonotopes of primitive integer generators, with exact face data.

A zonotope here is Z = sum_i [-v_i, v_i] for canonical generators v_i (same
validation as the lattice graphs).  Its face data come from one facet table
(`facet_table`), built in a single pass over the (n-1)-subsets S of
generators: cross_nd(S) = w_S * u with u canonical and primitive adds |w_S|
to the weight w(u) (Ziegler, Lectures on Polytopes, Lecture 7).  The u are
the facet normals, one row per pair of opposite facets; the row also holds
the pairings <u, v_i>, computed once, and what they fix: the offset
h(u) = sum_i |<u, v_i>|, the packed centre shift t_u and the tight
generators T_u (below).  The H-representation, the face recursion, the
sweeps 2^(n-1) sum_u w(u) |<u, v>|, the table of flats and the hyperplane
sections all read that one table.  The volume is not read off
it: it stays the n-subset determinant sum 2^n sum_S |det S|
(`intmat.abs_det_sum`), so b(Z) = n vol(Z) compares two independent routes.
In 4-D that sum computes the six 2 x 2 minors of each generator pair once
and reads the subset a < b < c < d as the Laplace pairing of pair (a, b)
with pair (c, d); no (n-1)-subset cross product, and so no weight, enters
it.  In 3-D and above 4-D it takes one `det` per subset.

Faces are enumerated over flats, the generator subsets T that contain every
generator of their span.  Each face of Z(F) = sum_{v in F} [-v, v] is
t + Z(T) for a flat T of F, and the facet with relative outward normal u is
t_u + Z(T_u) with T_u the generators orthogonal to u and
t_u = sum sign(<u, v>) v over the rest; the facet with normal -u is its
negative.  The centre t of a face lies in its relative interior, so distinct
faces have distinct centres and one recursion (`_flat_faces`) names every
face by its centre, a signed sum of generators and so an integer point of
Z^n.  A flat with as many generators as its rank is a parallelepiped, whose
faces are its signed sums in closed form.  Otherwise the top level takes its
normals from the facet table, and a lower flat takes them, by the same rule,
in a chart of coordinates on which it projects injectively.  Every proper
face lies on a facet and is a face of it, so the union over facets is
complete: the vertices are the centres of dimension 0, and the f-vector
counts centres by dimension.  A hyperplane section cuts Z only by the facets
that the hyperplane meets, and its vertices and facets are read off one
double description of those inequalities (`geometry.hrep_polytope`); the
face that maximises a coordinate is the section at its top level.

Coordinate i of a centre lies in [-h(e_i), h(e_i)], so the recursion keeps
each centre packed as one int, sum_i t_i R^(n-1-i) with balanced digits in
the radix R = 2 max_i h(e_i) + 1.  Codes add and negate like the vectors,
int order is tuple order, and only the vertices are unpacked.

The lattice-point counts of the scaled zonotopes come from a second, lazily
built table (`flat_table`): one row per flat F, the span of some generators,
with its rank, Stanley's weight c_F (the sum of the minor gcds of F's bases
among the generators) and a basis of Z^n cap F^perp.  Its rank n - 1 layer is
the facet table's rows and its top row the volume; only the ranks below
n - 1 take minors of their own.  The Ehrhart coefficients are its rank sums.
The volume, the facet table, the faces and the sections never build it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import (DimensionDeficiencyError, DimensionMismatchError, EmptySectionError,
                     UnpairedSegmentError)
from .geometry import Polytope, _vector, hrep_polytope
from .intmat import (
    _norm_num,
    _rational,
    abs_det_sum,
    canonical_sign,
    common_length,
    content,
    cross_nd,
    det,
    dot,
    dots,
    independent_rows,
    int_point,
    kernel_basis,
    pack,
    unpack,
    vneg,
)
from .plgraph import PLGraph, canonicalize_generators


class FacetRow(NamedTuple):
    """One row of `Zonotope.facet_table`: the facet pair with normals +-u."""

    normal: tuple    # u, canonical and primitive
    pairings: tuple  # <u, v_i> for each generator v_i, in generator order
    offset: int      # h(u) = sum_i |<u, v_i>|
    shift: int       # packed code of t_u = sum_i sign(<u, v_i>) v_i
    tight: tuple     # T_u, the generators with <u, v_i> = 0
    weight: int      # w(u) = sum |w_S| over the (n-1)-subsets S with cross_nd(S) = w_S * u


class FlatRow(NamedTuple):
    """One row of `Zonotope.flat_table`: a flat F spanned by generators."""

    rank: int     # dim F
    weight: int   # c_F = sum g(X) over the bases X of F among the generators
    basis: tuple  # a basis of the saturated lattice Z^n cap F^perp


@dataclass(frozen=True)
class Zonotope:
    """Centered zonotope sum_i [-v_i, v_i] with canonical generators."""

    dim: int
    generators: tuple

    def __post_init__(self):
        # Lattice points of one length; `build_zonotope` makes them canonical.
        object.__setattr__(self, "generators", tuple(map(int_point, self.generators)))
        common_length(self.generators, self.dim, "generator")

    def support(self, u) -> int:
        """Support value h(u) = sum |<u, v_i>| (the facet offset in direction u)."""
        return _norm_num(sum(map(abs, dots(_vector(u, self.dim, "direction"), self.generators))))

    def volume(self) -> int:
        """Exact volume: 2^n times the sum of |det| over n-subsets of generators."""
        return self._volume

    @cached_property
    def _volume(self) -> int:
        return 2 ** self.dim * abs_det_sum(self.generators, self.dim)

    def sweep(self, v) -> int:
        """vol(Z + [0, v]) - vol(Z) = 2^(n-1) sum_u w(u) |<u, v>| over the facet
        table; a generator reads its pairings off the table's columns."""
        v = _vector(v, self.dim, "direction")
        known = self._generator_sweeps.get(v)
        if known is not None:
            return known
        return _norm_num(2 ** (self.dim - 1) * sum(
            row.weight * abs(dot(row.normal, v)) for row in self.facet_table))

    @cached_property
    def _generator_sweeps(self):
        """{v_i: sweep(v_i)}, each from column i of the facet table."""
        weights = [row.weight for row in self.facet_table]
        columns = zip(*(row.pairings for row in self.facet_table))
        return {g: 2 ** (self.dim - 1) * sum(map(mul, weights, map(abs, column)))
                for g, column in zip(self.generators, columns)}

    @cached_property
    def ehrhart_coefficients(self):
        """(c_0, ..., c_n) with |Z^n cap sum_i [0, t v_i]| = sum_k c_k t^k for
        every integer t >= 0 (Stanley; Beck and Robins, Computing the
        Continuous Discretely, ch. 9): c_k sums the weights of the rank-k
        rows of `flat_table`."""
        coeffs = [0] * (self.dim + 1)
        for flat in self.flat_table:
            coeffs[flat.rank] += flat.weight
        return tuple(coeffs)

    @cached_property
    def flat_table(self):
        """(`FlatRow`, ...) per flat F, the span of some generators, by rank:
        c_F sums, over the bases X of F among the generators, the gcd g(X) of
        X's maximal minors, and the row keeps a basis of the saturated lattice
        Z^n cap F^perp (`intmat.kernel_basis`).

        Built downward from data already kept.  The top flat is R^n with
        c = vol(Z) / 2^n.  The rank n - 1 flats are the facet table's rows:
        the tight generators T_u span u^perp, their (n-1)-subsets' minor gcds
        sum to w(u), and (u,) is the basis.  A flat of rank k <= n - 2 groups
        the independent k-subsets X by span, keyed by X's k x k minors over
        g(X): a point of the Grassmannian, so equal keys are equal spans.  The
        empty set is the one 0-subset, its one minor 1, and the rank-0 flat
        {0} keeps the identity basis; in 1-D that flat is the facet row."""
        n, gens = self.dim, self.generators
        table = []
        for k in range(n - 1):
            flats = {}  # key: [a basis X of the flat, c_F]
            for X in combinations(gens, k):
                minors = [det([[v[c] for c in cols] for v in X])
                          for cols in combinations(range(n), k)]
                g = gcd(*minors)
                if g:
                    flat = flats.setdefault(canonical_sign([m // g for m in minors]), [X, 0])
                    flat[1] += g
            table += [FlatRow(k, c, tuple(kernel_basis(X, n))) for X, c in flats.values()]
        table += [FlatRow(n - 1, row.weight, (row.normal,)) for row in self.facet_table]
        table.append(FlatRow(n, self.volume() // 2 ** n, ()))
        return tuple(table)

    @cached_property
    def facet_table(self):
        """(`FacetRow`, ...) per facet normal u, sorted by u: the weight w(u)
        sums |w_S| over the (n-1)-subsets S with cross_nd(S) = w_S * u, the
        pairings <u, v_i> are computed here once, and h(u), t_u and T_u are
        read off them (`_face_split`)."""
        weights = {}
        for u, w in _minors(self.generators, self.dim):
            weights[u] = weights.get(u, 0) + w
        gens, codes = self.generators, self._codes
        table = []
        for u, w in sorted(weights.items()):
            row = tuple(dots(u, gens))
            table.append(FacetRow(u, row, sum(map(abs, row)), *_face_split(row, gens, codes), w))
        return tuple(table)

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

    @cached_property
    def _faces(self):
        """{code: dimension} of every proper face, keyed by the packed code of
        its centre (`_codes`)."""
        return _flat_faces(self.generators, self.dim, self._codes, {},
                           [(row.shift, row.tight) for row in self.facet_table])

    def polytope(self) -> Polytope:
        return self._polytope

    @cached_property
    def _polytope(self) -> Polytope:
        vertices = sorted(c for c, k in self._faces.items() if k == 0)
        return Polytope(self.dim, unpack(vertices, self._radix, self.dim),
                        [f for u, _, h, *_ in self.facet_table for f in ((u, h), (vneg(u), h))])


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
    pool = [int_point(w) for w in segment_vectors]
    gens = []
    while pool:
        w = pool.pop()
        neg = vneg(w)
        if neg not in pool:
            raise UnpairedSegmentError(
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


def _face_split(pairings, gens, codes):
    """(t_u, T_u) for a functional u with pairings[i] = <u, gens[i]> (read in
    any chart that keeps their signs): t_u = sum sign(pairings[i]) gens[i]
    over the nonzero pairings, as the sum of the packed codes `codes[g]`,
    and T_u the tuple of gens[i] whose pairing is zero.  The face of
    Z(gens) that maximises u is t_u + Z(T_u)."""
    shift = 0
    tight = []
    for g, s in zip(gens, pairings):
        if s == 0:
            tight.append(g)
        elif s > 0:
            shift += codes[g]
        else:
            shift -= codes[g]
    return shift, tuple(tight)


def _flat_faces(flat, rank, codes, memo, splits=None):
    """{code: dimension} of every proper face of Z(flat), a flat of the given
    rank, keyed by the packed code of its centre in Z^n (`codes[g]` per
    generator; codes add like vectors).

    A flat with as many generators as its rank is a parallelepiped: its
    proper faces are the 3^r - 1 signed sums sum e_i v_i, e in {-1, 0, 1}^r
    other than 0, of dimension #{i : e_i = 0}.  That covers every rank-1
    flat and, for generators in general position, every facet.

    A larger flat takes one split (t_u, T_u) per relative facet normal u
    (`_face_split`).  At the top level, where the flat has rank n, the
    caller passes them as `splits`, read off the facet table.  A lower flat
    of rank r is read in the first r coordinates on which a basis of its
    span (`independent_rows`) has a nonzero r x r minor.  That projection is
    a linear isomorphism of span(flat), so it keeps the sign of every
    pairing with a generator and with it every face; the normals are the
    canonical cross_nd of the projected (r-1)-subsets.  The generators tight
    on a relative facet normal u span u's orthogonal complement in the flat,
    so each facet's flat has rank r - 1.  Centres are sums of signed ambient
    generators, so nothing is mapped back: a shift is an int add and a
    reflection an int negation.

    A flat's faces depend on its generators alone, and a flat of rank r <= n-2
    is shared by the facets that meet in it, so `memo` (one per top-level
    call) keeps those, keyed by the generator tuple: a flat is fixed by its
    generators, and every parent lists them in top-level order.  Facets
    (rank n-1) are distinct per normal and each is read once, so keeping
    them would only hold memory.
    """
    if len(flat) == rank:
        faces = {0: 0}  # {sum e_i code(v_i): #{i : e_i = 0}} over the prefix
        for g in flat:
            c = codes[g]
            faces = {p: j for q, k in faces.items()
                     for p, j in ((q + c, k), (q - c, k), (q, k + 1))}
        del faces[0]
        return faces
    n = len(flat[0])
    if splits is None:
        if flat in memo:
            return memo[flat]
        basis = [flat[i] for i in independent_rows(flat, n)]
        coords = next(c for c in combinations(range(n), rank)
                      if det([[b[i] for i in c] for b in basis]))
        chart = [tuple(g[i] for i in coords) for g in flat]
        splits = [_face_split(dots(u, chart), flat, codes)
                  for u in dict.fromkeys(u for u, _ in _minors(chart, rank))]
    faces = {}
    for shift, tight in splits:
        faces[shift] = faces[-shift] = rank - 1
        for c, k in _flat_faces(tight, rank - 1, codes, memo).items():
            p = shift + c
            faces[p] = faces[-p] = k
    if rank <= n - 2:
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


def _axis_unit(Z: Zonotope, axis: int):
    """The unit vector of coordinate `axis` (0-based) of Z's space."""
    if not 0 <= axis < Z.dim:
        raise DimensionMismatchError(f"axis {axis} out of range for dimension {Z.dim}")
    return tuple(int(i == axis) for i in range(Z.dim))


def facet_polytope(Z: Zonotope, axis: int) -> FacetSlice:
    """The face of Z maximizing coordinate `axis` (0-based).

    Returned in the chart that drops that coordinate, together with the
    ambient translation vector t = sum sign(v_i[axis]) * v_i: the face is the
    section of Z at level t[axis] = h(e_axis) (`hyperplane_section`), moved
    by -t.  It is the sub-zonotope of the generators with vanishing `axis`
    coordinate; when those do not span the hyperplane the face is
    lower-dimensional and `is_facet` is False.
    """
    e = _axis_unit(Z, axis)
    shift, _ = _face_split([dot(e, g) for g in Z.generators], Z.generators, Z._codes)
    (t,) = unpack([shift], Z._radix, Z.dim)
    face = hyperplane_section(Z, axis, t[axis]).translate(vneg(t[:axis] + t[axis + 1:]))
    return FacetSlice(face, t, face.is_full_dimensional())


def hyperplane_section(Z: Zonotope, axis: int, level) -> Polytope:
    """Slice {x in Z : x[axis] = level} in the dropped-axis chart.

    Only the facets that meet the hyperplane H = {x[axis] = level} are cut.
    The facet with normal u is t_u + Z(T_u) (`facet_table`), so along the
    axis it spans t_u[axis] +- r_u with r_u = sum_{g in T_u} |g[axis]|, and
    the facet with normal -u spans -t_u[axis] +- r_u; t_u[axis] is a digit
    of the row's packed shift, unpacked once for all rows.  The other
    facets' inequalities are redundant on H: |level| <= h puts a point y of
    Z in H, and a point x of H outside Z leaves Z on the segment from y at
    some z in H, through a facet that contains z and so meets H; that
    facet's inequality is tight at z and grows along the segment, so x
    violates it.  The section's vertices and facets come from one double
    description of the kept inequalities (`hrep_polytope`), which hulls its
    vertices only when the section is flat: at |level| = h with e_axis not a
    facet normal, and for a 1-D zonotope, whose sections are points.
    """
    level = _rational(level, "section level")
    h = Z.support(_axis_unit(Z, axis))
    if abs(level) > h:
        raise EmptySectionError(
            f"|level| = {abs(level)} exceeds the support value {h} along axis {axis}")
    # With level = a/q, each test and inequality is scaled by q, so all stay ints.
    a, q = level.numerator, level.denominator
    shifts = unpack([row.shift for row in Z.facet_table], Z._radix, Z.dim)
    ineqs = []
    for row, shift in zip(Z.facet_table, shifts):
        t = shift[axis]
        r = q * sum(abs(g[axis]) for g in row.tight)
        for normal, mid in ((row.normal, t), (vneg(row.normal), -t)):
            if abs(a - q * mid) <= r:
                ineqs.append((tuple(q * b for i, b in enumerate(normal) if i != axis),
                              q * row.offset - normal[axis] * a))
    return hrep_polytope(ineqs, Z.dim - 1)


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
        raise DimensionDeficiencyError("homothety check requires full-dimensional polytopes")
    if len(P.vertices) != len(Q.vertices):
        return None
    (p0, *_, p1), (q0, *_, q1) = P.vertices, Q.vertices
    scale = Fraction(q1[0] - q0[0]) / (p1[0] - p0[0])
    t = tuple(b - scale * a for a, b in zip(p0, q0))
    if any(q != tuple(scale * a + b for a, b in zip(p, t))
           for p, q in zip(P.vertices, Q.vertices)):
        return None
    return _norm_num(scale), tuple(map(_norm_num, t))


# The three wrappers below stay public for the benchmark harness, which calls them.
def zonotope_volume(Z: Zonotope) -> int:
    return Z.volume()


def zonotope_hrep(Z: Zonotope):
    return Z.polytope().facets


def zonotope_vertices(Z: Zonotope):
    return Z.polytope().vertices
