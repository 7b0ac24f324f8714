"""`src/` holds only what the commands run: every module-level function of
the package is referenced from the package outside its own definition.
An import alone (an `__init__` export) is no reference, so a helper only
the tests call fails here; such references belong in `tests/oracles.py`.
"""

import ast
from pathlib import Path

import hartreelab

SRC = Path(hartreelab.__file__).resolve().parent


def _references(tree):
    """(name, line) of every name read and attribute taken in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_function_is_reached_from_src():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = [(name, path, line) for path, tree in trees.items()
            for name, line in _references(tree)]
    unreached = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                own = range(node.lineno, node.end_lineno + 1)
                if not any(name == node.name and not (where == path and line in own)
                           for name, where, line in refs):
                    unreached.append(f"{path}:{node.name}")
    assert unreached == []
