"""Figure emission: SVG polygons (dimension 2) and OFF meshes (dimension 3).

Figures are display artifacts only: coordinates are emitted as decimal
strings with 12 significant digits, while every report used in assertions
stays exact.  Output is deterministic (no timestamps).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionDeficiencyError
from .geometry import Polytope, _monotone_chain
from .intmat import _bit_indices, det, dot, kernel_chart, vsub
from .zonotope import Zonotope


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _as_polytope(body) -> Polytope:
    if isinstance(body, Zonotope):
        return body.polytope()
    return body


def render_svg(body, path=None) -> str:
    """SVG drawing of a full-dimensional polygon, vertices in cyclic order."""
    P = _as_polytope(body)
    if P.dim != 2 or not P.is_full_dimensional():
        raise DimensionDeficiencyError("SVG rendering needs a full-dimensional polygon")
    cycle = [(Fraction(x), -Fraction(y)) for x, y in P.cycle()]
    xs = [p[0] for p in cycle]
    ys = [p[1] for p in cycle]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    margin = span / 10 if span else Fraction(1)
    x0, y0 = min(xs) - margin, min(ys) - margin
    w, h = max(xs) - x0 + margin, max(ys) - y0 + margin
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in cycle)
    stroke = _fmt(span / 100) if span else "0.01"
    text = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">\n'
        f'  <polygon points="{points}" '
        f'fill="none" stroke="black" stroke-width="{stroke}"/>\n'
        f'</svg>\n'
    )
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text


def _facet_cycle(P: Polytope, normal, mask):
    """Indices of a facet's vertices, cyclically ordered, outward-oriented;
    `mask` is the facet's vertex bitmask from `Polytope._tight`."""
    tight = list(_bit_indices(mask))
    basis, left = kernel_chart([normal], P.dim)
    base = P.vertices[tight[0]]
    chart = {tuple(dot(l, vsub(P.vertices[i], base)) for l in left): i for i in tight}
    ordered = _monotone_chain(chart)
    if det([list(basis[0]), list(basis[1]), list(normal)]) < 0:
        ordered = ordered[::-1]
    return [chart[y] for y in ordered]


def render_off(body, path=None) -> str:
    """OFF mesh of a full-dimensional 3-polytope, faces oriented outward."""
    P = _as_polytope(body)
    if P.dim != 3 or not P.is_full_dimensional():
        raise DimensionDeficiencyError("OFF rendering needs a full-dimensional 3-polytope")
    faces = [_facet_cycle(P, normal, mask) for (normal, _), mask in zip(P.facets, P._tight)]
    edges = set()
    for face in faces:
        for a, b in zip(face, face[1:] + face[:1]):
            edges.add((min(a, b), max(a, b)))
    lines = ["OFF", f"{len(P.vertices)} {len(faces)} {len(edges)}"]
    for v in P.vertices:
        lines.append(" ".join(_fmt(c) for c in v))
    for face in faces:
        lines.append(str(len(face)) + " " + " ".join(str(i) for i in face))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text


def render_polytope(body, path) -> str:
    """Dispatch on dimension: 2 -> SVG, 3 -> OFF."""
    P = _as_polytope(body)
    if P.dim == 2:
        return render_svg(P, path)
    if P.dim == 3:
        return render_off(P, path)
    raise DimensionDeficiencyError(
        f"rendering supports dimensions 2 and 3, got {P.dim}")
