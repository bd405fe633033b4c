"""The continuous boundary functional and its sharp isoperimetric certificate.

For a graph with generators v_1..v_k the boundary functional of a convex body
A is b(A) = 2 * sum_i sweep(A, v_i), where sweep(A, v) is the exact volume
gained per unit step of translation along v:

    vol(A + [0, v]) = vol(A) + sweep(A, v).

For a polytope the sweep is sum_F max(0, <n_F, v>) * cell_F over facets,
where cell_F is the facet's lattice (n-1)-volume in the sublattice of its
hyperplane; the product is rational, so b(A) is computed exactly.  The
cells are kept as int numerators over one common denominator L
(`Polytope._cells`), so the sum is an int sum and one division by L.
For the limiting zonotope Z = sum_i [-v_i, v_i] the sweep is read off its
table of generator minors (`Zonotope.sweep`), and the closed identity
b(Z) = n * vol(Z) holds.

The sharp inequality certified here is

    b(A)^n >= n^n * vol(A)^(n-1) * vol(Z),

with equality exactly when A is homothetic to Z.  Both sides are rational, so
the comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DimensionDeficiencyError, DimensionMismatchError, InvalidArgumentError,
                     ZeroVectorError)
from .geometry import Polytope, _vector, minkowski_sum_segment
from .intmat import _norm_num, _rational, dots, is_zero
from .plgraph import PLGraph
from .zonotope import Zonotope, homothety_check, zonotope_of_graph


def directional_sweep(body, direction):
    """Exact volume swept per unit translation of `body` along `direction`.

    `body` is a full-dimensional Polytope or a Zonotope.  The value equals
    vol(body + [0, direction]) - vol(body) and is rational (integer for
    integer data).  The direction goes through `geometry._vector` first, so
    a float coordinate enters as its exact Fraction, a non-rational one
    raises `FormatError` and a wrong length `DimensionMismatchError`.
    """
    direction = _vector(direction, body.dim, "direction")
    if is_zero(direction):
        raise ZeroVectorError("sweep direction must be nonzero")
    if isinstance(body, Zonotope):
        return body.sweep(direction)
    P = body
    if not P.is_full_dimensional():
        raise DimensionDeficiencyError("sweep requires a full-dimensional polytope")
    normals, numerators, common = P._cells
    return _norm_num(Fraction(sum(s * m for s, m in zip(dots(direction, normals), numerators)
                                  if s > 0), common))


@dataclass(frozen=True)
class BoundaryValue:
    """b(A) = 2 * sum of per-generator sweeps, with the per-generator terms."""

    value: object
    sweeps: tuple  # ((generator, sweep), ...)


def continuous_boundary(body, graph: PLGraph) -> BoundaryValue:
    """The boundary functional of `body` for the given graph's generators."""
    dim = body.dim
    if dim != graph.dim:
        raise DimensionMismatchError(
            f"body dimension {dim} does not match graph dimension {graph.dim}")
    sweeps = tuple((v, directional_sweep(body, v)) for v in graph.generators)
    return BoundaryValue(_norm_num(2 * sum(s for _, s in sweeps)), sweeps)


def zonotope_boundary_identity(graph: PLGraph):
    """(b(Z), n * vol(Z), match) for the graph's limiting zonotope."""
    Z = zonotope_of_graph(graph)
    bv = continuous_boundary(Z, graph)
    rhs = graph.dim * Z.volume()
    return bv, rhs, bv.value == rhs


@dataclass(frozen=True)
class BMCertificate:
    """Exact certificate b(A)^n >= n^n vol(A)^(n-1) vol(Z), equality iff homothety."""

    dim: int
    boundary_value: object
    volume: object
    zonotope_volume: object
    lhs: object  # b(A)^n
    rhs: object  # n^n vol(A)^(n-1) vol(Z)
    holds: bool
    is_equality: bool
    homothetic: bool
    homothety: object  # (scale, translation) or None

    @property
    def consistent(self) -> bool:
        """Equality must occur exactly for homothets of the zonotope."""
        return self.is_equality == self.homothetic


def brunn_minkowski_certificate(A: Polytope, graph: PLGraph) -> BMCertificate:
    n = graph.dim
    Z = zonotope_of_graph(graph)
    vol_a = A.volume()
    vol_z = Z.volume()
    b = continuous_boundary(A, graph).value
    lhs = _norm_num(Fraction(b) ** n)
    rhs = _norm_num(Fraction(n) ** n * Fraction(vol_a) ** (n - 1) * Fraction(vol_z))
    hc = homothety_check(A, Z.polytope())
    return BMCertificate(
        dim=n,
        boundary_value=b,
        volume=vol_a,
        zonotope_volume=vol_z,
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        is_equality=lhs == rhs,
        homothetic=hc is not None,
        homothety=hc,
    )


@dataclass(frozen=True)
class ProbeRow:
    epsilon: Fraction
    volume: Fraction
    quotient: Fraction


def finite_difference_probe(A: Polytope, graph: PLGraph, epsilons) -> tuple:
    """Difference quotients (vol(A + eps*Z) - vol(A)) / eps, exactly.

    The Minkowski sum is built one segment [-eps v, eps v] at a time.  The
    quotients decrease monotonically to b(A) as eps decreases to 0; callers
    can check that against `continuous_boundary`.
    """
    if A.dim != graph.dim:
        raise DimensionMismatchError(
            f"body dimension {A.dim} does not match graph dimension {graph.dim}")
    vol_a = Fraction(A.volume())
    rows = []
    for eps in epsilons:
        eps = _rational(eps, "probe step")
        if eps <= 0:
            raise InvalidArgumentError("probe step must be positive")
        Q = A
        for v in graph.generators:
            Q = minkowski_sum_segment(Q, [-eps * c for c in v], [eps * c for c in v])
        vol = Fraction(Q.volume())
        rows.append(ProbeRow(eps, vol, (vol - vol_a) / eps))
    return tuple(rows)
