"""Built-in graph catalog, spec-file parsing, symmetry hints."""

import pytest

from isozono.catalog import (
    BUILTIN_NAMES,
    builtin_graph,
    check_symmetry_hints,
    comparison_builtin,
    emit_graph_spec,
    parse_graph_spec,
)
from isozono.errors import FormatError
from isozono.intmat import det
from isozono.zonotope import f_vector


def test_builtin_names_and_generator_counts():
    counts = {"l1:1": 1, "l1:2": 2, "l1:3": 3, "l1:4": 4,
              "linf:1": 1, "linf:2": 4, "linf:3": 13, "linf:4": 40,
              "tri": 3, "d4cross": 12}
    assert set(BUILTIN_NAMES) == set(counts)
    for name, k in counts.items():
        spec = builtin_graph(name)
        assert len(spec.generators) == k, name
        g = spec.graph()
        assert g.degree == 2 * k


def test_linf_generators_are_pm_one_box_directions():
    spec = builtin_graph("linf:2")
    assert set(spec.generators) == {(1, 0), (0, 1), (1, 1), (1, -1)}


def test_tri_generators():
    assert builtin_graph("tri").generators == ((0, 1), (1, 0), (1, 1))


def test_unknown_builtin_raises():
    with pytest.raises(ValueError):
        builtin_graph("l2:2")
    with pytest.raises(ValueError):
        builtin_graph("l1:5")


def test_d4cross_basis_and_segments():
    spec = builtin_graph("d4cross")
    assert spec.dim == 4
    assert len(spec.generators) == 12
    B = [[spec.basis[j][i] for j in range(4)] for i in range(4)]
    assert abs(det(B)) == 2
    assert len(spec.original_segments) == 24
    # All 24 segment vectors have two entries of modulus 1 and two zeros.
    for w in spec.original_segments:
        assert sorted(map(abs, w)) == [0, 0, 1, 1]
    # f-vector is invariant under the basis change.
    assert tuple(f_vector(spec.zonotope())) == tuple(f_vector(spec.original_zonotope()))


def test_d4cross_generators_map_to_the_original_segments():
    spec = builtin_graph("d4cross")
    images = {tuple(s * sum(g[j] * spec.basis[j][i] for j in range(4)) for i in range(4))
              for g in spec.generators for s in (1, -1)}
    assert images == set(spec.original_segments)
    assert len(images) == 24


def test_symmetry_hints_validate():
    spec = builtin_graph("linf:2")
    assert spec.symmetry_hints
    check_symmetry_hints(spec.dim, spec.generators, spec.symmetry_hints)
    bad = (((2, 1), (1, 1)),)  # maps e1 -> e2, e2 -> e1... with wrong signs? craft below
    with pytest.raises(ValueError):
        # hint mapping e1 -> e1, e2 -> -e1 is not a signed permutation image
        check_symmetry_hints(2, ((1, 0), (0, 1)), (((1, 1), (1, -1)),))


def test_parse_graph_spec_round_trip():
    spec = builtin_graph("tri")
    text = emit_graph_spec(spec)
    back = parse_graph_spec(text, source="tri.graph")
    assert back.name == spec.name
    assert back.dim == spec.dim
    assert back.generators == spec.generators
    assert back.symmetry_hints == spec.symmetry_hints


def test_parse_graph_spec_minimal():
    text = """
# comment line
name demo
dim 2
generator 1 0
generator 0 1
"""
    spec = parse_graph_spec(text)
    assert spec.name == "demo"
    assert spec.generators == ((0, 1), (1, 0))
    assert spec.graph().degree == 4


def test_parse_graph_spec_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_graph_spec("name x\ndim 2\ngenerator 1\n", source="bad.graph")
    assert "bad.graph:3" in str(exc.value)
    with pytest.raises(FormatError):
        parse_graph_spec("name x\ngenerator 1 0\n")  # dim missing before rows
    with pytest.raises(FormatError) as exc2:
        parse_graph_spec("name x\ndim 2\ngenerator 1 0\ngenerator 0 1\nwhat 3\n",
                         source="bad.graph")
    assert "bad.graph:5" in str(exc2.value)


def test_parse_graph_spec_validates_generators():
    with pytest.raises(FormatError):
        parse_graph_spec("name x\ndim 2\ngenerator 2 4\ngenerator 0 1\n")
    with pytest.raises(FormatError):
        parse_graph_spec("name x\ndim 2\ngenerator 1 0\n")  # rank deficient


def test_parse_graph_spec_symmetry_rows():
    text = """name sym
dim 2
generator 1 0
generator 0 1
symmetry 2 1
"""
    spec = parse_graph_spec(text)
    assert spec.symmetry_hints
    with pytest.raises(FormatError):
        parse_graph_spec(text.replace("symmetry 2 1", "symmetry 2 3"))


def test_comparison_builtin_one_lower():
    assert comparison_builtin("linf:3") == "linf:2"
    assert comparison_builtin("l1:4") == "l1:3"
    assert comparison_builtin("linf:2") == "linf:1"
    assert comparison_builtin("tri") is None
    assert comparison_builtin("d4cross") is None
