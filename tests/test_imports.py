"""Import hygiene: every name a module of `isozono` imports is used there,
every private name it defines is used in the package, the front ends use
only public names, no module raises a bare `ValueError` or `TypeError`, and
the public surface `isozono.__all__` is pinned.

Every module is parsed and walked.  An imported name counts as used when it
is read anywhere in the module (a bare name, or the root of an attribute
chain).  `from __future__ import ...` binds nothing, and `__init__.py`
imports to re-export, so both are exempt.  The front ends, `cli.py` and
`reproduce.py`, import no underscore-prefixed name from another `isozono`
module, nor read one off an imported module.  Every error the package
raises is an `IsozonoError` subclass, so a caller (and the CLI, which
catches only those and `OSError`) can tell a refused input from a bug.
"""

import ast
from collections import Counter
from pathlib import Path

import isozono


def _unused_imports(tree):
    """(line, name) per imported name that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private_imports(tree):
    """(line, name) per underscore-prefixed name taken from another isozono
    module: by `from . import` / `from .module import`, or read as an
    attribute of a module bound by `from . import module`."""
    private, modules = [], set()
    for node in ast.walk(tree):
        # node.module is None only for `from . import ...`, which has a level.
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("isozono")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append((node.lineno, alias.name))
                elif node.module in (None, "isozono"):
                    modules.add(alias.asname or alias.name)
    private += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    return sorted(private)


def test_front_ends_import_only_public_names():
    root = Path(isozono.__file__).parent
    private = []
    for name in ("cli.py", "reproduce.py"):
        tree = ast.parse((root / name).read_text(encoding="utf-8"), filename=name)
        private += [f"{name}:{line}: {what}" for line, what in _private_imports(tree)]
    assert not private, "front end uses a private name:\n" + "\n".join(private)


def test_the_walk_sees_private_imports():
    source = ("from . import search as s, reproduce\nfrom .search import _budget, run\n"
              "from isozono.intmat import _bit_indices\nfrom os import _exit\n"
              "s.run(); reproduce._SEED; s._orbit(); run._x\n")
    assert _private_imports(ast.parse(source)) == [
        (2, "_budget"), (3, "_bit_indices"), (5, "reproduce._SEED"), (5, "s._orbit")]


def test_every_imported_name_is_used():
    stray = []
    for path in sorted(Path(isozono.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        stray += [f"{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert not stray, "imported but never used:\n" + "\n".join(stray)


def test_the_walk_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport math as m\n"
              "from fractions import Fraction\nfrom itertools import product, chain\n"
              "def f(x: Fraction):\n    return m.floor(x) + len(list(product(x)))\n")
    assert _unused_imports(ast.parse(source)) == [(2, "os"), (5, "chain")]


def _private_definitions(tree):
    """(line, name, node) per underscore-prefixed module-level name (function,
    class or assignment) and per underscore-prefixed method, dunders aside."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id, node) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(sub.lineno, sub.name, sub) for sub in node.body
                      if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(line, name, node) for line, name, node in found
            if name.startswith("_") and not name.endswith("__")]


def _references(node):
    """The names read in `node`: bare names, attribute names and imported
    names.  A docstring is a constant, so a name it mentions is not read."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in sub.names)


def _dead_private_names(trees):
    """(file, line, name) per private definition (`_private_definitions`) that
    no module in `trees` ({file: tree}) reads outside the definition itself."""
    reads = Counter(name for tree in trees.values() for name in _references(tree))
    return sorted((path, line, name) for path, tree in trees.items()
                  for line, name, node in _private_definitions(tree)
                  if reads[name] == Counter(_references(node))[name])


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(Path(isozono.__file__).parent.glob("*.py"))}


def test_every_private_name_is_used():
    dead = [f"{path}:{line}: {name}" for path, line, name in _dead_private_names(_package_trees())]
    assert not dead, "private name never used in the package:\n" + "\n".join(dead)


def test_the_walk_sees_dead_private_names():
    trees = {"a.py": ast.parse(
        '"""Cells by `_shoelace`."""\n_CAP = 3\n_seen = 1\n'
        "def _shoelace(c):\n    return _shoelace(c[1:])\n"
        "class P:\n    def _int_cells(self):\n        pass\n"
        "    def _used(self):\n        return _CAP\n    def __eq__(self, o):\n        pass\n"
        "def f(p):\n    return p._used()\n"),
        "b.py": ast.parse("from .a import _seen\n")}
    assert _dead_private_names(trees) == [("a.py", 4, "_shoelace"), ("a.py", 7, "_int_cells")]


def _bare_raises(tree):
    """(line, name) per `raise ValueError(...)` / `raise TypeError` (called or not)."""
    bare = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                bare.append((node.lineno, exc.id))
    return sorted(bare)


def test_no_module_raises_a_bare_value_or_type_error():
    bare = []
    for path in sorted(Path(isozono.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bare += [f"{path.name}:{line}: {name}" for line, name in _bare_raises(tree)]
    assert not bare, "raise a library error instead:\n" + "\n".join(bare)


def test_the_walk_sees_bare_raises():
    source = ("def f(x):\n    if x:\n        raise ValueError('x')\n    raise TypeError\n"
              "def g():\n    try:\n        pass\n    except ValueError:\n        raise\n"
              "    raise KeyError('k')\n")
    assert _bare_raises(ast.parse(source)) == [(3, "ValueError"), (4, "TypeError")]


PUBLIC_NAMES = [
    "AntipodalGeneratorError", "BMCertificate", "BUILTIN_NAMES", "BoundaryValue",
    "BudgetExceededError", "ConvergenceRow", "DimensionDeficiencyError",
    "DimensionMismatchError", "DuplicateGeneratorError", "EdgeBoundaryReport",
    "EmptySectionError", "FVector", "FacetSlice", "FormatError", "GraphSpec",
    "InternalConsistencyError", "InvalidArgumentError", "IsozonoError", "LatticeBasis",
    "LimitingShapeRow", "NonPrimitiveGeneratorError", "PLGraph", "Polytope", "ProbeRow",
    "RankDeficientError", "SearchResult", "UnpairedSegmentError", "ZeroVectorError",
    "Zonotope", "ZonotopePointSet", "boundary", "boundary_identity_report",
    "boundary_lattice_points", "brunn_minkowski_certificate", "build_zonotope",
    "build_zonotope_from_segments", "builtin_graph", "canonical_set",
    "canonicalize_generators", "catalog", "comparison_builtin", "continuous_boundary",
    "convergence_experiment", "convex_hull", "count_lattice_points", "default_budget",
    "directional_sweep", "dual_projection_lattice_basis", "edge_boundary_direct",
    "emit_graph_spec", "errors", "exhaustive_min_boundary", "f_vector", "facet_polytope",
    "finite_difference_probe", "gap_count", "geometry", "homothety_check",
    "hull_direction_count", "hyperplane_section", "intmat", "lattice",
    "limiting_shape_report", "local_search_min_boundary", "minkowski_sum_segment",
    "parse_graph_spec", "pick_area", "plgraph", "points_from_text", "points_to_text",
    "polytope_from_text", "polytope_to_text", "projection_count",
    "projection_lattice_det_squared", "render", "render_off", "render_polytope",
    "render_svg", "search", "validate_pl_graph", "zonotope", "zonotope_boundary_identity",
    "zonotope_hrep", "zonotope_of_graph", "zonotope_point_set", "zonotope_vertices",
    "zonotope_volume",
]


def test_the_public_surface_is_pinned():
    # A name that joins or leaves `isozono.__all__` edits this list too, and
    # says so in CHANGES.md.
    assert sorted(isozono.__all__) == PUBLIC_NAMES
