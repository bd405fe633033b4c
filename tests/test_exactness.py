"""Exactness guard: no float enters the package outside the places that
display or draw at random.

Every module of `isozono` is parsed and walked.  A float literal, a call of
`float`, or a float-valued `math` function (`math.exp`, `math.log`,
`math.sqrt`, ...) is a float use; each one must sit in an allowed place:
  - `render.py`: figure files print decimal coordinates;
  - `local_search_min_boundary`: the annealing acceptance draw, which picks
    moves but never enters a reported count;
  - three `reproduce.py` items: wall-clock limits and percentage display.
"""

import ast
from pathlib import Path

import isozono

FLOAT_MATH = frozenset({"exp", "expm1", "log", "log1p", "log2", "log10", "sqrt",
                        "cbrt", "pow", "hypot", "dist", "fsum"})

# (module file, top-level function, or None for the whole module): why
ALLOWED = {
    ("render.py", None): "figure output",
    ("search.py", "local_search_min_boundary"): "annealing draw",
    ("reproduce.py", "_check_fvectors"): "wall-clock limits",
    ("reproduce.py", "_check_convergence_boundary_tolerance"): "percentage display",
    ("reproduce.py", "_check_convergence_volume_tolerance"): "percentage display",
}


def _float_uses(tree):
    """(line, enclosing top-level definition or None, what) per float use."""
    for top in tree.body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            what = None
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                what = f"literal {node.value!r}"
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                what = "float()"
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr in FLOAT_MATH):
                what = f"math.{node.attr}"
            elif (isinstance(node, ast.ImportFrom) and node.module == "math"
                  and any(a.name in FLOAT_MATH for a in node.names)):
                what = "from math import " + ", ".join(a.name for a in node.names)
            if what:
                yield node.lineno, scope, what


def _package_uses():
    for path in sorted(Path(isozono.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, scope, what in _float_uses(tree):
            yield path.name, line, scope, what


def test_floats_only_in_allowed_places():
    stray = [f"{name}:{line} ({scope or 'module level'}): {what}"
             for name, line, scope, what in _package_uses()
             if (name, None) not in ALLOWED and (name, scope) not in ALLOWED]
    assert not stray, "float use outside the allowed places:\n" + "\n".join(stray)


def test_every_allowed_place_still_uses_floats():
    # A stale entry would let a float back in unnoticed.
    used = {(name, scope) for name, _, scope, _ in _package_uses()}
    used |= {(name, None) for name, _ in used}
    assert set(ALLOWED) <= used, set(ALLOWED) - used


def test_the_walk_sees_every_kind_of_float_use():
    source = ("import math\nfrom math import sqrt\n"
              "def f(x):\n    return float(x) + 0.5 + math.exp(x)\n")
    found = sorted(what for _, _, what in _float_uses(ast.parse(source)))
    assert found == ["float()", "from math import sqrt", "literal 0.5", "math.exp"]
