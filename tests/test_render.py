"""SVG and OFF emission."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isozono.catalog import BUILTIN_NAMES, builtin_graph
from isozono.errors import DimensionDeficiencyError
from isozono.geometry import _monotone_chain, convex_hull
from isozono.intmat import det, dot, kernel_chart, vsub
from isozono.render import render_off, render_polytope, render_svg
from isozono.zonotope import hyperplane_section


def test_svg_octagon_structure(tmp_path):
    z = builtin_graph("linf:2").zonotope()
    out = tmp_path / "oct.svg"
    text = render_svg(z, str(out))
    assert out.read_text() == text
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    m = re.search(r'points="([^"]+)"', text)
    assert m, "polygon points attribute missing"
    pts = m.group(1).split()
    assert len(pts) == 8


def test_svg_accepts_polytopes_and_rational_vertices():
    P = convex_hull([(0, 0), (Fraction(7, 2), 0), (0, Fraction(7, 2))])
    text = render_svg(P)
    assert "3.5" in text


def test_svg_is_deterministic():
    z = builtin_graph("tri").zonotope()
    assert render_svg(z) == render_svg(z)


def test_off_cube_counts():
    cube = builtin_graph("l1:3").zonotope()
    text = render_off(cube)
    lines = text.splitlines()
    assert lines[0] == "OFF"
    v, f, e = map(int, lines[1].split())
    assert (v, f, e) == (8, 6, 12)
    # 8 vertex rows then 6 face rows
    assert len(lines) == 2 + 8 + 6
    face_rows = lines[2 + 8:]
    assert all(int(r.split()[0]) == 4 for r in face_rows)


def test_off_faces_reconstruct_volume():
    # Signed volume from the oriented face fan must equal 6*vol exactly
    # (up to float round-off) -- this pins the outward orientation.
    z = builtin_graph("linf:3").zonotope()
    text = render_off(z)
    lines = text.splitlines()
    nv, nf, ne = map(int, lines[1].split())
    assert (nv, nf, ne) == (96, 50, 144)
    verts = [tuple(map(float, lines[2 + i].split())) for i in range(nv)]
    six_vol = 0.0
    for row in lines[2 + nv:]:
        idx = list(map(int, row.split()))[1:]
        for i in range(1, len(idx) - 1):
            a, b, c = verts[idx[0]], verts[idx[i]], verts[idx[i + 1]]
            six_vol += (a[0] * (b[1] * c[2] - b[2] * c[1])
                        - a[1] * (b[0] * c[2] - b[2] * c[0])
                        + a[2] * (b[0] * c[1] - b[1] * c[0]))
    assert abs(six_vol - 6 * z.volume()) < 1e-6


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _assert_faces_point_outward(P):
    """Exactly, on P's own vertices: face row j lists the vertices of facet j,
    and every corner of it turns counterclockwise seen from outside."""
    lines = render_off(P).splitlines()
    nv = len(P.vertices)
    rows = [list(map(int, r.split()))[1:] for r in lines[2 + nv:]]
    assert len(rows) == len(P.facets)
    for idx, (normal, offset) in zip(rows, P.facets):
        face = [P.vertices[i] for i in idx]
        assert sorted(face) == [v for v in P.vertices if dot(normal, v) == offset]
        for a, b, c in zip(face, face[1:] + face[:1], face[2:] + face[:2]):
            assert dot(_cross(vsub(b, a), vsub(c, b)), normal) > 0


@pytest.mark.parametrize("name", ["l1:3", "linf:3"])
def test_off_faces_point_outward_on_zonotopes(name):
    _assert_faces_point_outward(builtin_graph(name).zonotope().polytope())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=4, max_size=12),
       st.integers(1, 3))
def test_off_faces_point_outward_on_rational_hulls(points, denominator):
    P = convex_hull([tuple(Fraction(a, denominator) for a in p) for p in points])
    assume(P.is_full_dimensional())
    _assert_faces_point_outward(P)


def _scan_facet_cycle(P, normal, offset):
    """A facet's vertex indices from a vertex x facet scan, then cyclically
    ordered and outward-oriented in the facet's chart."""
    tight = [i for i, v in enumerate(P.vertices) if dot(normal, v) == offset]
    basis, left = kernel_chart([normal], P.dim)
    base = P.vertices[tight[0]]
    chart = {tuple(dot(l, vsub(P.vertices[i], base)) for l in left): i for i in tight}
    ordered = _monotone_chain(chart)
    if det([list(basis[0]), list(basis[1]), list(normal)]) < 0:
        ordered = ordered[::-1]
    return [chart[y] for y in ordered]


def _scan_off(P):
    """The OFF text with each face's vertices found by the scan: the oracle
    for `render_off`, which reads them off the incidence masks."""
    faces = [_scan_facet_cycle(P, normal, offset) for normal, offset in P.facets]
    edges = {frozenset(e) for face in faces for e in zip(face, face[1:] + face[:1])}
    lines = ["OFF", f"{len(P.vertices)} {len(faces)} {len(edges)}"]
    lines += [" ".join(f"{float(c):.12g}" for c in v) for v in P.vertices]
    lines += [f"{len(face)} " + " ".join(map(str, face)) for face in faces]
    return "\n".join(lines) + "\n"


def _seeded_hulls():
    """Ten full-dimensional 3-D hulls of 5 to 14 points, seeds 0..9; odd
    seeds put the points in (1/q)Z^3 for q in 2..5."""
    hulls = []
    for seed in range(10):
        rng = random.Random(seed)
        q = 1 if seed % 2 == 0 else rng.randint(2, 5)
        while True:
            P = convex_hull([tuple(Fraction(rng.randint(-4, 4), q) for _ in range(3))
                             for _ in range(rng.randint(5, 14))])
            if P.is_full_dimensional():
                hulls.append(P)
                break
    return hulls


def test_off_faces_match_the_vertex_facet_scan():
    # Every 3-D builtin zonotope (a hand-built body), a rational section of a
    # 4-D one (from a double description) and ten seeded hulls, half of them
    # rational (incidences carried through the 1/D image).
    bodies = [builtin_graph(name).zonotope().polytope() for name in BUILTIN_NAMES
              if builtin_graph(name).graph().dim == 3]
    bodies.append(hyperplane_section(builtin_graph("d4cross").zonotope(), 0, Fraction(1, 2)))
    for P in bodies + _seeded_hulls():
        assert render_off(P) == _scan_off(P)


def test_off_writes_file(tmp_path):
    out = tmp_path / "z3.off"
    text = render_off(builtin_graph("l1:3").zonotope(), str(out))
    assert out.read_text() == text


def test_render_polytope_dispatch(tmp_path):
    svg = render_polytope(builtin_graph("linf:2").zonotope(), str(tmp_path / "a.svg"))
    assert svg.startswith("<svg")
    off = render_polytope(builtin_graph("l1:3").zonotope(), str(tmp_path / "a.off"))
    assert off.startswith("OFF")
    with pytest.raises(DimensionDeficiencyError):
        render_polytope(builtin_graph("d4cross").zonotope(), str(tmp_path / "a.x"))
    with pytest.raises(DimensionDeficiencyError):
        render_polytope(convex_hull([(0, 0), (1, 1)]), str(tmp_path / "a.y"))


def test_float_formatting_significant_digits():
    P = convex_hull([(0, 0), (Fraction(1, 3), 0), (0, 1)])
    text = render_svg(P)
    assert "0.333333333333" in text
