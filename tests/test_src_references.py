"""Every function, class and method under ``src/rankfilt`` is used by ``src/``.

A name that only the tests reach belongs in ``tests/oracles.py``.  The
check is by name: a definition passes when some ``Name`` or attribute in
the package spells it outside the definition's own lines, so a recursive
helper that lost its last caller fails.  Dunder methods are called by
Python itself and are exempt, as are the names in ``EXEMPT``.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "rankfilt")

# qualified name -> why it stays although nothing in src/ calls it
EXEMPT = {
    "Memo.clear": "bench/worker.py clears the process-wide memo before each case",
}


def _definitions(node, prefix=""):
    """(qualified name, node) for every function and class below ``node``,
    nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            yield name, child
            yield from _definitions(child, name + ".")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_is_referenced_from_src():
    trees = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees.append((name, ast.parse(fh.read())))
    # spelling -> (file, line) of every Name or attribute that spells it
    uses = {}
    for name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                spelled = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(spelled, []).append((name, node.lineno))
    definitions = [(name, qualified, node) for name, tree in trees
                   for qualified, node in _definitions(tree)]
    assert set(EXEMPT) <= {qualified for _, qualified, _ in definitions}
    unused = [
        "%s:%d %s" % (name, node.lineno, qualified)
        for name, qualified, node in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and qualified not in EXEMPT
        and not any(f != name or not node.lineno <= line <= node.end_lineno
                    for f, line in uses.get(node.name, ()))
    ]
    assert unused == []
