"""Import hygiene: every name a module of `isozono` imports is used there.

Every module is parsed and walked.  An imported name counts as used when it
is read anywhere in the module (a bare name, or the root of an attribute
chain).  `from __future__ import ...` binds nothing, and `__init__.py`
imports to re-export, so both are exempt.
"""

import ast
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
