"""Import hygiene: every name a module of `isozono` imports is used there,
and the front ends use only public names.

Every module is parsed and walked.  An imported name counts as used when it
is read anywhere in the module (a bare name, or the root of an attribute
chain).  `from __future__ import ...` binds nothing, and `__init__.py`
imports to re-export, so both are exempt.  The front ends, `cli.py` and
`reproduce.py`, import no underscore-prefixed name from another `isozono`
module, nor read one off an imported module.
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
