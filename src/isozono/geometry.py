"""Exact rational convex geometry in ambient dimension 1-4.

Everything is computed over Python ints and Fractions; floats never enter a
predicate.  Irrational magnitudes (lengths, facet areas) are never stored:
facet sizes are kept as *lattice volumes* — the (n-1)-volume of the facet
measured in an integer lattice basis of its hyperplane's direction space.
For a primitive integer normal a, the true (n-1)-volume equals the lattice
volume times sqrt(a.a), so sweep volumes and cone volumes come out rational
while the irrational factor cancels.

Both hull directions go through one integer double-description routine,
`_extreme_rays` (Motzkin's method, Fukuda & Prodon 1996): facets of a point
set are extreme rays of its cone of valid inequalities, and vertices of an
H-representation are extreme rays of its homogenisation.  Dimension 2
keeps the monotone chain, 5-9x faster than the cone method on 3 to 40
points.  Zonotopes use their own dedicated enumeration elsewhere.
An H-representation's polytope (`hrep_polytope`) is read off that one
double description: its vertices are the rays, and its facets the
inequalities whose tight vertex sets are maximal (`_maximal_masks`), so a
full-dimensional body takes no second hull.

The row order decides only the cost of the double description, never its
output (Fukuda & Prodon), so a hull takes its points far from their
centroid first: the first cones are already close to the hull, and a point
strictly inside the cone built so far costs one `dots`.  The hull hands the
vertex-facet incidences of its double description to its `Polytope`
(`Polytope._tight`, carried by `_image`), so the facet cells need no
vertex x facet scan.

`convex_hull` scales rational input once by D, the lcm of its coordinate
denominators (`_integer_multiple`), hulls the integer points on integer
rows (each facet offset an exact int quotient), and maps the result back
by 1/D through the affine image that `translate` and `scale` share.

Flat bodies are handled in one integer chart, `intmat.kernel_chart`: a
lattice basis of the direction space plus integer rows `left` with
left . basis = I, so chart coordinates are dot products, exact for rational
points.  Facets need neither: their cells come from one pulling
triangulation of the body's vertex-facet incidences (`_pulling_triangulation`),
with int determinants of the body's integer multiple D P (`_int_body`,
scaled the same way).  The cells are built once, as int numerators over one
common denominator L (`Polytope._cells`), so the volume (a cone sum over the
facets in every dimension) and the sweeps are int sums with one division.

Outside vectors have one check, `_vector`: coordinates through
`_norm_point` (exact, `FormatError` for one that is not a rational number)
and a length test (`DimensionMismatchError`).  Lattice points go through
`intmat.int_point` and rational scalars through `intmat._rational`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import factorial, lcm
from operator import and_, mul, or_

from .errors import (
    DimensionDeficiencyError,
    DimensionMismatchError,
    FormatError,
    InvalidArgumentError,
)
from .intmat import (
    _bit_indices,
    _norm_num,
    _rational,
    common_length,
    content,
    cross_nd,
    det,
    dot,
    dots,
    embed,
    independent_rows,
    int_point,
    integerize,
    is_zero,
    kernel_basis,
    kernel_chart,
    primitive_part,
    rank,
    vadd,
    vneg,
    vsub,
)


def _norm_point(p):
    """p as a tuple of exact coordinates, each integral one an int.  A tuple
    of ints comes back as it is; other coordinates go through Fraction, and
    one that is not a rational number raises `FormatError`."""
    for a in p:
        if type(a) is not int:
            return tuple(a if isinstance(a, int) else _norm_num(_rational(a, "coordinate"))
                         for a in p)
    return tuple(p)


def _vector(v, dim, what):
    """v through `_norm_point`, or a `DimensionMismatchError` if its length
    is not dim: `dot` zips, so it would truncate."""
    v = _norm_point(tuple(v))
    if len(v) != dim:
        raise DimensionMismatchError(f"{what} of length {len(v)} vs dimension {dim}")
    return v


@dataclass(frozen=True)
class Chart:
    """Affine chart of a flat polytope: base point + integer direction basis.

    `body` is the same polytope expressed (full-dimensionally) in chart
    coordinates; ambient point = base + sum_j y_j * basis_j, and
    y_j = <left_j, point - base> for a point of the affine span
    (`intmat.kernel_chart`).
    """

    base: tuple
    basis: tuple
    left: tuple
    body: "Polytope"


class Polytope:
    """A bounded convex polytope with exact rational data.

    Full-dimensional polytopes carry both a vertex list and an irredundant
    facet list (primitive integer outward normals, rational offsets).
    Flat polytopes carry their ambient vertices plus a `chart`.
    """

    def __init__(self, dim, vertices, facets=None, chart=None):
        self.dim = dim
        self.vertices = tuple(sorted(_vector(v, dim, "vertex") for v in vertices))
        self.facets = None if facets is None else tuple(sorted(
            (tuple(n), c if isinstance(c, int) else _norm_num(Fraction(c)))
            for n, c in facets))
        self.chart = chart

    # -- basic queries ---------------------------------------------------

    @property
    def affine_dim(self):
        if self.chart is not None:
            return len(self.chart.basis)
        return self.dim

    def is_full_dimensional(self):
        return self.chart is None and self.dim >= 1

    def contains(self, point):
        point = _vector(point, self.dim, "point")
        if self.chart is None:
            return all(dot(n, point) <= c for n, c in self.facets)
        base, basis = self.chart.base, self.chart.basis
        if len(basis) == 0:
            return point == base
        y = tuple(dot(l, vsub(point, base)) for l in self.chart.left)
        return vadd(base, embed(basis, y)) == point and self.chart.body.contains(y)

    def bounding_box(self):
        lows = [min(v[i] for v in self.vertices) for i in range(self.dim)]
        highs = [max(v[i] for v in self.vertices) for i in range(self.dim)]
        return tuple(lows), tuple(highs)

    def support(self, direction):
        return max(dots(_vector(direction, self.dim, "direction"), self.vertices))

    # -- volume ----------------------------------------------------------

    def volume(self):
        """Full-dimensional Lebesgue volume (exact Fraction)."""
        if not self.is_full_dimensional():
            raise DimensionDeficiencyError(
                f"volume requires a full-dimensional polytope "
                f"(affine dim {self.affine_dim} in ambient dim {self.dim})")
        return self._volume

    @cached_property
    def _volume(self):
        d, verts, offsets = self._int_body
        normals, numerators, common = self._cells
        heights = (c - a for c, a in zip(offsets, dots(verts[0], normals)))  # of D P
        return _norm_num(Fraction(sum(map(mul, heights, numerators)), common * self.dim * d))

    def facet_cells(self):
        """(normal, offset, lattice volume) per facet.

        The lattice volume is the facet's (n-1)-volume in an integer basis of
        normal-perp; true (n-1)-volume = lattice volume * sqrt(normal.normal).
        """
        if self.facets is None:
            raise DimensionDeficiencyError("facet data requires a full-dimensional polytope")
        _, numerators, common = self._cells
        return tuple((normal, offset, _norm_num(Fraction(m, common)))
                     for (normal, offset), m in zip(self.facets, numerators))

    @cached_property
    def _cells(self):
        """(normals, numerators, L): the facet cells, in facet order, as ints
        over one common denominator L, so their weighted sums are int sums."""
        # A cell is the facet's shadow volume, summed over its simplices, over
        # |normal[k]| for the first k with normal[k] != 0: dropping coordinate
        # k is injective on H = normal-perp and maps H cap Z^n onto the kernel
        # of y -> <normal_-k, y> mod |normal[k]|, of index |normal[k]| as the
        # normal is primitive (Beck and Robins, Computing the Continuous
        # Discretely, ch. 3 and 5).  The cells of D P (`_int_body`) take int
        # determinants, and each is D^(n-1) times the cell of P.
        n = self.dim
        scale, verts, _ = self._int_body
        normals = [normal for normal, _ in self.facets]
        masks = self._tight
        memo = {}
        common = lcm(*(next(filter(None, map(abs, normal))) for normal in normals))  # |normal[k]|
        numerators = []
        for normal, mask in zip(normals, masks):
            k = next(i for i, a in enumerate(normal) if a)
            total = 0
            for simplex in _pulling_triangulation(mask, n - 1, masks, memo):
                w, *rest = (verts[i] for i in _bit_indices(simplex))
                total += abs(det([[a - b for j, (a, b) in enumerate(zip(v, w)) if j != k]
                                  for v in rest]))
            numerators.append(total * (common // abs(normal[k])))
        return normals, numerators, common * factorial(n - 1) * scale ** (n - 1)

    @cached_property
    def _tight(self):
        """Per facet, in facet order, the bitmask of the vertices on it.  A
        hull hands over the incidences of its double description, and
        `_image` carries them; a hand-built body scans vertices x facets."""
        _, verts, offsets = self._int_body
        return [sum(1 << i for i, s in enumerate(dots(normal, verts)) if s == c)
                for (normal, _), c in zip(self.facets, offsets)]

    @cached_property
    def _int_body(self):
        """(D, vertices, facet offsets) of D P, D the lcm of the vertex
        denominators: all ints, since a facet's offset is <normal, v> at a
        vertex v on it."""
        scale, verts = _integer_multiple(self.vertices)
        return scale, verts, [int(c * scale) for _, c in self.facets]

    def cycle(self):
        """Vertices of a 2-polytope in counterclockwise cyclic order, from the
        lexicographically smallest."""
        if self.dim != 2 or self.chart is not None:
            raise DimensionDeficiencyError("cycle() is for full-dimensional polygons")
        return self._cycle

    @cached_property
    def _cycle(self):
        # A polygon's vertices are in strictly convex position: the chain keeps all.
        return tuple(_monotone_chain(self.vertices))

    # -- transforms --------------------------------------------------------

    def translate(self, t):
        return self._image(1, _vector(t, self.dim, "translation"))

    def scale(self, factor):
        factor = _rational(factor, "scale factor")
        if factor <= 0:
            raise InvalidArgumentError("scale factor must be positive")
        return self._image(factor, (0,) * self.dim)

    def _image(self, f, t):
        """f P + t for f > 0: vertices, facet offsets and chart base map, and
        the chart body (in chart coordinates) scales by f.  As f > 0 keeps
        the vertex and the facet order, the incidences `_tight` carry over."""
        def image(p):
            return tuple(f * a + b for a, b in zip(p, t))
        facets = None
        if self.facets is not None:
            facets = [(n, f * Fraction(c) + dot(n, t)) for n, c in self.facets]
        chart = self.chart
        if chart is not None:
            body = chart.body if f == 1 else chart.body._image(f, (0,) * len(chart.basis))
            chart = Chart(_norm_point(image(chart.base)), chart.basis, chart.left, body)
        poly = Polytope(self.dim, map(image, self.vertices), facets, chart)
        if "_tight" in self.__dict__:
            poly._tight = self._tight
        return poly

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polytope) and self.dim == other.dim
                and self.vertices == other.vertices)

    def __repr__(self):
        kind = "flat " if self.chart is not None else ""
        return f"<{kind}Polytope dim={self.dim} vertices={len(self.vertices)}>"


# -- hull ------------------------------------------------------------------


def convex_hull(points) -> Polytope:
    """Exact convex hull; flat inputs get an affine chart with integer basis.

    The points are scaled once by D, the lcm of their coordinate
    denominators; the hull of those integer points is mapped back by 1/D."""
    pts = [_norm_point(tuple(p)) for p in points]
    if not pts:
        raise InvalidArgumentError("convex_hull of an empty point set")
    dim = common_length(pts)
    scale, pts = _integer_multiple(pts)
    hull = _hull_int(sorted(set(pts)), dim)
    return hull if scale == 1 else hull._image(Fraction(1, scale), (0,) * dim)


def _integer_multiple(points):
    """(D, the points times D as int tuples), D the lcm of the coordinate
    denominators; for D = 1 the points come back as they are."""
    scale = lcm(*(a.denominator for p in points for a in p))
    if scale == 1:
        return 1, points
    return scale, [tuple(a.numerator * (scale // a.denominator) for a in p) for p in points]


def _hull_int(pts, dim):
    """The hull of distinct sorted integer points."""
    base = pts[0]
    diffs = [vsub(p, base) for p in pts[1:]]
    if dim and rank(diffs, dim) == dim:
        return _hull_full(pts, dim)
    # flat: saturated integer basis of the direction space, then hull in chart
    basis, left = map(tuple, kernel_chart(kernel_basis(diffs, dim), dim))
    if not basis:
        body = Polytope(0, [()], facets=(), chart=None)
        return Polytope(dim, [base], None, Chart(base, (), (), body))
    point_of = {tuple(dots(d, left)): p for d, p in zip([(0,) * dim] + diffs, pts)}
    body = _hull_full(sorted(point_of), len(basis))
    verts = [point_of[y] for y in body.vertices]
    return Polytope(dim, verts, None, Chart(base, basis, left, body))


def _hull_full(pts, dim):
    if dim == 2:
        cycle = _monotone_chain(pts)
        facets = []
        m = len(cycle)
        for i in range(m):
            p, q = cycle[i], cycle[(i + 1) % m]
            d = vsub(q, p)
            normal = primitive_part((d[1], -d[0]))
            facets.append((normal, dot(normal, p)))
        poly = Polytope(2, cycle, facets)
        poly._cycle = tuple(cycle)
        return poly
    # Far points first: k p - sum(pts) is k times p's offset from the centroid.
    k, total = len(pts), [sum(c) for c in zip(*pts)]
    pts = sorted(pts, key=lambda p: (-sum((k * a - s) ** 2 for a, s in zip(p, total)), p))
    # Facets are the extreme rays (a, c) of the cone {c - <a, p> >= 0 for all p}.
    rays = _extreme_rays([vneg(p) + (1,) for p in pts], dim + 1)
    facets = []
    for y, _ in rays:
        g = content(y[:dim])  # g divides <a, p> = c at the tight integer points p
        facets.append((tuple(a // g for a in y[:dim]), y[dim] // g))
    # A point is a vertex iff the facets through it meet in no other point.
    verts = sorted((i for i in _bit_indices(reduce(or_, (m for _, m in rays)))
                    if reduce(and_, (m for _, m in rays if m >> i & 1)) == 1 << i),
                   key=pts.__getitem__)
    bit = {i: 1 << j for j, i in enumerate(verts)}  # sorted vertex order
    incidences = sorted((f, sum(bit.get(i, 0) for i in _bit_indices(m)))
                        for f, (_, m) in zip(facets, rays))
    poly = Polytope(dim, [pts[i] for i in verts], [f for f, _ in incidences])
    poly._tight = [m for _, m in incidences]
    return poly


def _monotone_chain(pts):
    """Andrew's monotone chain; returns the hull cycle counterclockwise."""
    pts = sorted(pts)
    if len(pts) == 1:
        return list(pts)

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _extreme_rays(rows, d):
    """(primitive ray, bitmask of tight row indices) per extreme ray of {y : <r, y> >= 0}.

    Motzkin's double description: start from the simplicial cone of d
    independent rows, then cut by the other rows one at a time, keeping the
    rays on the nonnegative side and joining each positive ray to each
    adjacent negative ray.  Two rays are adjacent iff no third ray is tight
    on every row both are tight on.  Rows that do not span Q^d leave a cone
    with a line in it, which has no extreme rays.

    A row positive on every current ray cuts nothing, so it is skipped
    after its one `dots`.  Each mask holds every row so far that is tight on
    its ray: a new ray is a positive combination of a positive and a
    negative ray, so it is tight on an earlier row iff both of them are.
    The output is thus the extreme rays of the final cone with their tight
    rows, which do not depend on the row order.  The order decides only the
    cost (Fukuda and Prodon, "Double description method revisited", 1996),
    so `_hull_full` hands over its points far from the centroid first.
    """
    basis = independent_rows(rows, d)
    if len(basis) < d:
        return []
    ys, masks = [], []
    for i in basis:
        y = cross_nd([rows[j] for j in basis if j != i], d)
        ys.append(primitive_part(y if dot(rows[i], y) > 0 else vneg(y)))
        masks.append(sum(1 << j for j in basis if j != i))
    for i, r in enumerate(rows):
        if i in basis:
            continue
        values = dots(r, ys)
        if min(values, default=1) > 0:
            continue
        signed = list(zip(values, ys, masks))
        ys = [y for s, y, _ in signed if s >= 0]
        kept = [m if s else m | 1 << i for s, _, m in signed if s >= 0]
        neg = [x for x in signed if x[0] < 0]
        for s, y, my in (x for x in signed if x[0] > 0):
            for t, z, mz in neg:
                common = my & mz
                if common.bit_count() >= d - 2 and not any(
                        m & common == common and m != my and m != mz for m in masks):
                    ys.append(primitive_part(tuple(s * b - t * a for a, b in zip(y, z))))
                    kept.append(common | 1 << i)
        masks = kept
    return list(zip(ys, masks))


def _pulling_triangulation(mask, dim, faces, memo):
    """Simplices, as vertex masks, of a pulling triangulation of the face
    with vertex mask `mask` and dimension `dim`.

    `faces` are vertex masks whose intersections with `mask` include every
    facet of the face: the polytope's facets, or the facets of a face one
    dimension up (a ridge of that face is the meet of two of its facets).
    The facets are the maximal intersections other than the face itself,
    and each has at least `dim` vertices.  The face is the union of the
    cones from its lowest vertex over the facets that miss it (Büeler, Enge
    and Fukuda, "Exact volume computation for polytopes", 2000).  `memo`
    holds each face's simplices once for every face that shares it.
    """
    if mask.bit_count() == dim + 1:
        return (mask,)
    if mask not in memo:
        low = mask & -mask
        facets = _maximal_masks({mask & m for m in faces} - {mask}, dim)
        memo[mask] = tuple(low | s for f in facets if not f & low
                           for s in _pulling_triangulation(f, dim - 1, facets, memo))
    return memo[mask]


def _maximal_masks(masks, least):
    """The distinct masks of at least `least` bits that no other such mask
    contains, largest first."""
    kept = []  # a subset of a kept mask comes after it in this order
    for s in sorted({s for s in masks if s.bit_count() >= least},
                    key=int.bit_count, reverse=True):
        if not any(s & f == s for f in kept):
            kept.append(s)
    return kept


# -- named operations --------------------------------------------------------


def minkowski_sum_segment(P: Polytope, a, b) -> Polytope:
    """Minkowski sum of P with the segment from a to b."""
    a, b = (_vector(x, P.dim, "segment endpoint") for x in (a, b))
    pts = [vadd(x, a) for x in P.vertices] + [vadd(x, b) for x in P.vertices]
    return convex_hull(pts)


def hrep_polytope(inequalities, dim) -> Polytope:
    """The nonempty bounded polytope {x : <a,x> <= c for each (a, c)}, from
    one double description (`_hrep_rays`).

    If no inequality with a nonzero normal is tight at every vertex, the
    body is full-dimensional (a flat one would have such an implicit
    equality), so its facets are the inequalities whose tight vertex sets
    are maximal, each kept once with a primitive normal.  A flat body, or
    dim 0, needs a chart, which `convex_hull` of the vertices builds.
    """
    rows, verts = _hrep_rays(inequalities, dim)
    tight = [0] * len(rows)
    for j, (_, mask) in enumerate(verts):
        for i in _bit_indices(mask):
            tight[i] |= 1 << j
    everything = (1 << len(verts)) - 1
    if dim == 0 or everything in tight:
        return convex_hull([v for v, _ in verts])
    facets = set(_maximal_masks(tight, dim))
    keep = {}
    for (a, c), m in zip(rows, tight):
        if m in facets:
            g = content(a)
            keep[tuple(x // g for x in a)] = _norm_num(Fraction(c) / g)
    return Polytope(dim, [v for v, _ in verts], keep.items())


def _hrep_rays(inequalities, dim):
    """(rows, [(vertex, bitmask of the rows tight there)]) of {x : <a,x> <= c}:
    the rows are the inequalities other than 0 <= 0, and the vertices x = z/t
    the extreme rays with t > 0 of the cone {(z, t) : c t - <a, z> >= 0, t >= 0}."""
    rows = [(n, c) for n, c in inequalities if c or not is_zero(n)]
    rays = _extreme_rays([integerize(vneg(n) + (c,)) for n, c in rows] + [(0,) * dim + (1,)],
                         dim + 1)
    return rows, [(tuple(_norm_num(Fraction(a, y[dim])) for a in y[:dim]), mask)
                  for y, mask in rays if y[dim] > 0]


# -- serialization ------------------------------------------------------------


def polytope_to_text(P: Polytope) -> str:
    lines = [f"dim {P.dim}", "V"]
    for v in P.vertices:
        lines.append(" ".join(str(Fraction(a)) for a in v))
    if P.facets is not None:
        lines.append("H")
        for n, c in P.facets:
            lines.append(" ".join(str(a) for a in n) + " <= " + str(Fraction(c)))
    return "\n".join(lines) + "\n"


def polytope_from_text(text: str, source: str = "<string>") -> Polytope:
    dim = None
    verts, ineqs = [], []
    rows = []  # (line number, kind, length) of every V and H row
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("dim"):
            try:
                dim = int(line.split()[1])
            except (IndexError, ValueError):
                raise FormatError(f"{source}:{lineno}: malformed dim line {raw!r}")
            continue
        if line == "V":
            section = "V"
            continue
        if line == "H":
            section = "H"
            continue
        if section == "V":
            try:
                verts.append(tuple(Fraction(tok) for tok in line.split()))
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"{source}:{lineno}: bad vertex row {raw!r}")
            rows.append((lineno, "vertex", len(verts[-1])))
        elif section == "H":
            norm = line.replace("≤", "<=")
            if "<=" not in norm:
                raise FormatError(f"{source}:{lineno}: facet row missing '<=' {raw!r}")
            left, _, right = norm.partition("<=")
            try:
                normal = tuple(int(tok) for tok in left.split())
                offset = Fraction(right.strip())
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"{source}:{lineno}: bad facet row {raw!r}")
            rows.append((lineno, "facet normal", len(normal)))
            g = content(normal) or 1  # a zero normal stays zero and matches no facet
            ineqs.append((tuple(a // g for a in normal), offset / g))
        else:
            raise FormatError(f"{source}:{lineno}: content outside V/H sections {raw!r}")
    if dim is None or not verts:
        raise FormatError(f"{source}: missing dim line or V section")
    for lineno, what, size in rows:  # the dim line may come after the rows
        if size != dim:
            raise FormatError(f"{source}:{lineno}: {what} has {size} coordinates, expected {dim}")
    hull = convex_hull(verts)
    if ineqs and set(ineqs) != set(hull.facets or ()):
        raise FormatError(f"{source}: H section does not list the facets of the V section's hull")
    return hull


def points_to_text(points) -> str:
    rows = sorted(map(int_point, points))
    common_length(rows)
    return "\n".join(" ".join(str(a) for a in p) for p in rows) + "\n"


def points_from_text(text: str, source: str = "<string>"):
    pts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            pts.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise FormatError(f"{source}:{lineno}: bad lattice point row {raw!r}")
    if pts and any(len(p) != len(pts[0]) for p in pts):
        raise FormatError(f"{source}: inconsistent point dimensions")
    return frozenset(pts)
