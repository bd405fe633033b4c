"""SVG and OFF emission."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isozono.catalog import builtin_graph
from isozono.errors import DimensionDeficiencyError
from isozono.geometry import convex_hull
from isozono.intmat import dot, vsub
from isozono.render import render_off, render_polytope, render_svg


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
