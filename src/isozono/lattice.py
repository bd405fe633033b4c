"""Sublattice bases, lattice determinants, and lattice point counting.

The key identity: for a primitive integer vector a, the lattice of integer
points orthogonal to a has squared determinant equal to a.a, so the projection
of Z^n along a onto a-perp has squared determinant 1/(a.a).  Both routes
(Gram determinant of a computed kernel basis, and the closed form) are
evaluated and must agree.

Lattice points are found one line at a time by one integer kernel,
`lattice_lines`: a line parallel to axis 0 meets integer slabs lo <= <u, x> <= hi
in an interval, by floor and ceiling division.  <u, x> is an integer on Z^n,
so each caller rounds its rational facet bounds inward once.  The scan
charges its lines times slabs to the budget before its first line, so no
caller scans uncharged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd, prod

from .errors import (
    BudgetExceededError,
    DimensionDeficiencyError,
    InternalConsistencyError,
    InvalidArgumentError,
    NonPrimitiveGeneratorError,
    ZeroVectorError,
)
from .geometry import Polytope
from .intmat import content, dot, gram_det, int_point, is_zero, kernel_basis, vneg, vsub

DEFAULT_BUDGET = 10_000_000


def default_budget(budget=None) -> int:
    """The enumeration cap: `budget` when given, else ISOZONO_BUDGET (default
    10^7).  Either source must be a positive integer.  Every scan resolves
    None here, the one reader of ISOZONO_BUDGET, so none runs without a cap."""
    source = "budget"
    if budget is None:
        raw = os.environ.get("ISOZONO_BUDGET")
        if raw is None:
            return DEFAULT_BUDGET
        try:
            budget = int(raw)
        except ValueError as exc:
            raise InvalidArgumentError(f"ISOZONO_BUDGET must be an integer, got {raw!r}") from exc
        source = "ISOZONO_BUDGET"
    if not isinstance(budget, int) or budget <= 0:
        raise InvalidArgumentError(f"{source} must be a positive integer, got {budget!r}")
    return budget


@dataclass(frozen=True)
class LatticeBasis:
    """An explicit basis of a sublattice of Z^n with its Gram determinant."""

    vectors: tuple
    gram_determinant: int

    @property
    def rank(self) -> int:
        return len(self.vectors)


def dual_projection_lattice_basis(a) -> LatticeBasis:
    """Basis of {x in Z^n : <x, a> = 0} for a primitive vector a, n >= 2."""
    a = int_point(a)
    if len(a) < 2:
        raise DimensionDeficiencyError("need ambient dimension >= 2")
    if is_zero(a):
        raise ZeroVectorError("direction must be nonzero")
    if content(a) != 1:
        raise NonPrimitiveGeneratorError(f"direction {a} is not primitive")
    basis = tuple(kernel_basis([a], len(a)))
    return LatticeBasis(basis, int(gram_det(basis)))


def projection_lattice_det_squared(a) -> Fraction:
    """Squared determinant of the projection of Z^n along primitive a.

    Computed two independent ways (closed form 1/(a.a) and 1/Gram of the
    orthogonal-lattice basis); disagreement raises, by design.
    """
    a = int_point(a)
    basis = dual_projection_lattice_basis(a)  # rejects a zero or non-primitive a
    closed = Fraction(1, dot(a, a))
    computed = Fraction(1, basis.gram_determinant)
    if closed != computed:
        raise InternalConsistencyError(
            f"projection lattice determinant mismatch for {a}: "
            f"closed form {closed} vs basis Gram {computed}")
    return closed


def lattice_lines(what, slabs, ranges, budget=None):
    """{y: (lo, hi)}: the points (t, y) of Z^n in every slab (u, lo_u, hi_u), lo <= t <= hi,
    one line per y in the box `ranges` of coordinates 1..n-1 (empty lines left out).

    Before the first line, `BudgetExceededError` if the lines times the slabs
    (facet normals) exceed `default_budget(budget)`; `what` names the body."""
    budget = default_budget(budget)
    lines = prod(r.stop - r.start for r in ranges)  # len() overflows past sys.maxsize
    if lines * len(slabs) > budget:
        raise BudgetExceededError(
            f"{what} scans {lines} lattice lines against {len(slabs)} "
            f"facet normals, budget is {budget} line-normal pairs")
    steep, flat = [], []
    for u, lo, hi in slabs:
        if u[0] < 0:
            u, lo, hi = vneg(u), -hi, -lo
        (steep if u[0] else flat).append((u[0], u[1:], lo, hi))
    out = {}
    for y in product(*ranges):
        if any(not lo <= dot(w, y) <= hi for _, w, lo, hi in flat):
            continue
        bounds = [(a, dot(w, y), lo, hi) for a, w, lo, hi in steep]
        lo = max(-((b - l) // a) for a, b, l, _ in bounds)
        hi = min((h - b) // a for a, b, _, h in bounds)
        if lo <= hi:
            out[y] = (lo, hi)
    return out


def count_lattice_points(P: Polytope) -> int:
    """Number of integer points in a full-dimensional polytope: facet (a, c) is the slab
    (least <a, x> on the bounding box's integer points) <= <a, x> <= floor(c), one per
    facet, so the scan charges its lines times the facets."""
    if P.chart is not None:
        raise DimensionDeficiencyError("lattice point counting requires a full-dimensional polytope")
    box = [(ceil(lo), floor(hi)) for lo, hi in zip(*P.bounding_box())]
    slabs = [(a, sum(min(x * s, x * e) for x, (s, e) in zip(a, box)), floor(c))
             for a, c in P.facets]
    lines = lattice_lines("the polytope", slabs, [range(s, e + 1) for s, e in box[1:]])
    return sum(hi - lo + 1 for lo, hi in lines.values())


def boundary_lattice_points(P: Polytope) -> int:
    """Number of integer points on the boundary of a lattice polygon."""
    if P.dim != 2 or P.chart is not None:
        raise DimensionDeficiencyError("boundary point counting is for full-dimensional polygons")
    cycle = [int_point(v) for v in P.cycle()]  # FormatError off Z^2
    return sum(gcd(*vsub(q, p)) for p, q in zip(cycle, cycle[1:] + cycle[:1]))


def pick_area(P: Polytope) -> Fraction:
    """Area of a lattice polygon from its point counts: I + B/2 - 1.

    Deliberately computed only from counting, as an independent cross-check
    of the volume, which is a cone sum over the facet cells.
    """
    B = boundary_lattice_points(P)
    I = count_lattice_points(P) - B
    return Fraction(I) + Fraction(B, 2) - 1
