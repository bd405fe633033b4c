"""The input contract of the public surface.

Every callable in `isozono.__all__` that takes a vector, a point list or a
rational scalar, the constructors of `Polytope`, `Zonotope` and `PLGraph`
included, and every public method of `Polytope` and `Zonotope` that does,
is fed malformed input: empty, the zero vector, a wrong length,
ragged (points of different lengths, or a coordinate that is itself a
sequence), float, non-integral, text and 10^40-sized ints.  Each call must
return an exact value, with no float anywhere in it, or raise an
`IsozonoError` subclass.  Each entry point takes a fixed table of such
inputs, then inputs that Hypothesis draws, lengths and entries alike.

`PROBES` names the argument each entry point is probed through, and
`NOT_PROBED` gives every other public callable with its reason;
`test_every_public_callable_is_classified` fails on a public callable in
neither, so a new one has to be placed.  Out of scope: an object of the
wrong class where another is expected (such as a `Zonotope` where a
`Polytope` is expected), and integer counts such as `m`, `box_radius` or an
axis, which the routines that read them check (`InvalidArgumentError`).
The scans run under ISOZONO_BUDGET = 10^4, so a large drawn alpha is
refused before it is scanned.

A truncation test sits beside the walk: inputs that an `int(...)` loop
used to truncate into a wrong answer, or fed to a plain `ValueError`, now
raise `FormatError`.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isozono
from isozono import (DimensionMismatchError, FormatError, IsozonoError, Polytope, Zonotope,
                     build_zonotope, build_zonotope_from_segments, canonical_set,
                     canonicalize_generators, convergence_experiment, convex_hull,
                     directional_sweep, dual_projection_lattice_basis, edge_boundary_direct,
                     finite_difference_probe, gap_count, hull_direction_count,
                     hyperplane_section, minkowski_sum_segment, points_to_text,
                     projection_count, projection_lattice_det_squared, validate_pl_graph,
                     zonotope_point_set)

_G = isozono.builtin_graph("l1:2").graph()
_Z = isozono.builtin_graph("l1:2").zonotope()
_SQUARE = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
_HUGE = 10 ** 40

# (name, kind, call): the public name, the kind of argument it is probed
# through, and a call that passes one such argument in a 2-D setting.
PROBES = [
    ("Polytope", "points", lambda pts: Polytope(2, pts)),
    ("Zonotope", "points", lambda pts: Zonotope(2, pts).volume()),
    ("PLGraph", "points", lambda pts: isozono.PLGraph(2, pts)),
    ("Polytope.contains", "vector", _SQUARE.contains),
    ("Polytope.support", "vector", _SQUARE.support),
    ("Polytope.translate", "vector", _SQUARE.translate),
    ("Polytope.scale", "scalar", _SQUARE.scale),
    ("Zonotope.support", "vector", _Z.support),
    ("Zonotope.sweep", "vector", _Z.sweep),
    ("directional_sweep", "vector",
     lambda v: (directional_sweep(_SQUARE, v), directional_sweep(_Z, v))),
    ("minkowski_sum_segment", "vector", lambda v: minkowski_sum_segment(_SQUARE, (0, 0), v)),
    ("dual_projection_lattice_basis", "vector", dual_projection_lattice_basis),
    ("projection_lattice_det_squared", "vector", projection_lattice_det_squared),
    ("zonotope_point_set", "vector", lambda v: zonotope_point_set(_G, 1, v)),
    ("zonotope_point_set", "scalar", lambda x: zonotope_point_set(_G, x)),
    ("gap_count", "vector", lambda v: gap_count(_G, [(0, 0), (2, 0)], v)),
    ("gap_count", "points", lambda pts: gap_count(_G, pts, (1, 0))),
    ("projection_count", "vector", lambda v: projection_count(_G, [(0, 0), (2, 0)], v)),
    ("projection_count", "points", lambda pts: projection_count(_G, pts, (1, 0))),
    ("convex_hull", "points", convex_hull),
    ("hull_direction_count", "points", hull_direction_count),
    ("points_to_text", "points", points_to_text),
    ("canonical_set", "points", canonical_set),
    ("edge_boundary_direct", "points", lambda pts: edge_boundary_direct(_G, pts)),
    ("boundary_identity_report", "points",
     lambda pts: isozono.boundary_identity_report(_G, pts)),
    ("canonicalize_generators", "points", lambda pts: canonicalize_generators(2, pts)),
    ("validate_pl_graph", "points", lambda pts: validate_pl_graph(2, pts)),
    ("build_zonotope", "points", lambda pts: build_zonotope(2, pts)),
    ("build_zonotope_from_segments", "points", lambda pts: build_zonotope_from_segments(2, pts)),
    ("hyperplane_section", "scalar", lambda x: hyperplane_section(_Z, 0, x)),
    ("convergence_experiment", "scalar", lambda x: convergence_experiment(_G, [x])),
    ("finite_difference_probe", "scalar", lambda x: finite_difference_probe(_SQUARE, _G, [x])),
]

_RECORD = "a result record that the library builds"
_BODIES = "takes bodies or graphs, no vector, point list or scalar"
_COUNTS = "takes a graph and integer counts"
NOT_PROBED = {
    **dict.fromkeys(["BMCertificate", "BoundaryValue", "ConvergenceRow", "EdgeBoundaryReport",
                     "FVector", "FacetSlice", "GraphSpec", "LatticeBasis", "LimitingShapeRow",
                     "ProbeRow", "SearchResult", "ZonotopePointSet"], _RECORD),
    **dict.fromkeys(["boundary_lattice_points", "brunn_minkowski_certificate",
                     "continuous_boundary", "count_lattice_points", "emit_graph_spec",
                     "f_vector", "homothety_check", "pick_area", "polytope_to_text",
                     "render_off", "render_polytope", "render_svg",
                     "zonotope_boundary_identity", "zonotope_hrep", "zonotope_of_graph",
                     "zonotope_vertices", "zonotope_volume"], _BODIES),
    "facet_polytope": "takes a zonotope and an axis, an integer count",
    **dict.fromkeys(["default_budget", "exhaustive_min_boundary", "limiting_shape_report",
                     "local_search_min_boundary"], _COUNTS),
    **dict.fromkeys(["builtin_graph", "comparison_builtin"], "takes a builtin graph name"),
    **dict.fromkeys(["parse_graph_spec", "points_from_text", "polytope_from_text"],
                    "parses a file format, whose errors the format tests cover"),
}

FIXED = {
    "vector": [(), (0, 0), (1,), (1, 0, 0), ((1,), 0), (0.5, 0), (1.5, 1),
               (Fraction(1, 3), 2), (1, "a"), "ab", (_HUGE, 1), (_HUGE, -_HUGE),
               (float("nan"), 0), (float("inf"), 1)],
    "points": [[], [(0, 0)], [(0, 0), (1,)], [(0, 0), (1, 0, 0)], [(0.5, 0)],
               [(0.7, 1.2), (0, 0)], [(Fraction(1, 2), 1)], [(0, "a")], ["ab"],
               [((0,), 1)], [(_HUGE, 1), (0, 0)], [(1, 0), (-1, 0), (0, 1), (0, -1)],
               [(1.5, 0), (-1.5, 0), (0, 1), (0, -1)]],
    "scalar": [0, -1, 0.5, 1e-300, float("nan"), float("inf"), Fraction(7, 3), "x", "1/0",
               "1/2", _HUGE, -_HUGE, (1,)],
}

_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-_HUGE, _HUGE),
    st.floats(),
    st.fractions(max_denominator=7),
    st.text(max_size=3),
    st.tuples(st.integers(-2, 2)),  # a coordinate that is itself a sequence
)
_VECTORS = st.one_of(st.lists(_ENTRIES, max_size=4).map(tuple), st.text(max_size=3))
DRAWN = {"vector": _VECTORS, "points": st.lists(_VECTORS, max_size=5), "scalar": _ENTRIES}


def _inexact(value, seen):
    """Whether a float (or complex) sits anywhere in value."""
    if isinstance(value, (float, complex)):
        return True
    if value is None or isinstance(value, (str, int, Fraction)) or id(value) in seen:
        return False
    seen.add(id(value))
    if isinstance(value, dict):
        value = [x for item in value.items() for x in item]
    elif not isinstance(value, (tuple, list, set, frozenset)):
        value = vars(value).values()
    return any(_inexact(x, seen) for x in value)


def _check(call, arg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ISOZONO_BUDGET", "10000")
        try:
            result = call(arg)
        except IsozonoError:
            return
    assert not _inexact(result, set()), f"{arg!r} gave the inexact {result!r}"


_IDS = [f"{name}-{kind}" for name, kind, _ in PROBES]


def test_every_public_callable_is_classified():
    public = set()
    for name in isozono.__all__:
        obj = getattr(isozono, name)
        if inspect.ismodule(obj) or not callable(obj) or (
                isinstance(obj, type) and issubclass(obj, IsozonoError)):
            continue
        public.add(name)
        if obj in (Polytope, Zonotope):  # the methods that take an argument
            public |= {f"{name}.{m}" for m, f in vars(obj).items()
                       if not m.startswith("_") and inspect.isfunction(f)
                       and len(inspect.signature(f).parameters) > 1}
    probed = {name for name, _, _ in PROBES}
    assert not probed & NOT_PROBED.keys()
    assert public == probed | NOT_PROBED.keys()


@pytest.mark.parametrize("name, kind, call", PROBES, ids=_IDS)
def test_fixed_malformed_inputs_give_an_exact_value_or_a_library_error(name, kind, call):
    for arg in FIXED[kind]:
        _check(call, arg)


@pytest.mark.parametrize("name, kind, call", PROBES, ids=_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_drawn_malformed_inputs_give_an_exact_value_or_a_library_error(name, kind, call, data):
    _check(call, data.draw(DRAWN[kind], label=kind))


@pytest.mark.parametrize("call", [
    lambda: build_zonotope_from_segments(2, [(1.5, 0), (-1.5, 0), (0, 1), (0, -1)]),
    lambda: dual_projection_lattice_basis((0.5, 1)),
    lambda: projection_lattice_det_squared((1.5, 1)),
    lambda: points_to_text([(0.7, 1.2)]),
    lambda: build_zonotope(2, [(1, "a"), (0, 1)]),
    lambda: edge_boundary_direct(_G, [(0, "a")]),
    lambda: canonical_set([(0, "a")]),
], ids=["segments-1.5", "dual-basis-0.5", "det-squared-1.5", "points-text-0.7",
        "build-zonotope-text", "edge-boundary-text", "canonical-set-text"])
def test_a_non_integer_lattice_input_is_refused_not_truncated(call):
    # Each was read through int(...): the first four gave the answer for the
    # truncated input (the zonotope of (1, 0) and (0, 1), the basis for
    # (0, 1), 1/2 and "0 1"), the last three a plain ValueError.
    with pytest.raises(FormatError):
        call()


def test_the_constructors_check_their_vectors():
    # The zonotope used to give the volume 2.0 of its float generator.
    with pytest.raises(FormatError):
        Zonotope(2, ((0.5, 0), (0, 1))).volume()
    with pytest.raises(DimensionMismatchError):
        Polytope(2, [(0, 0), (1,)])
    with pytest.raises(DimensionMismatchError):
        isozono.PLGraph(2, ((1, 0), (0, 1, 0)))
