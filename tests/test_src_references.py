"""Every function, class and method under ``src/rankfilt`` is used by ``src/``.

A name that only the tests reach belongs in ``tests/oracles.py``.  The
check is by name: a definition passes when some ``Name`` or attribute in
the package spells it.  Dunder methods are called by Python itself and are
exempt.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "rankfilt")


def test_every_definition_is_referenced_from_src():
    trees = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees.append((name, ast.parse(fh.read())))
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = [
        "%s:%d %s" % (name, node.lineno, node.name)
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert unused == []
