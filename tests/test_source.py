"""Rules the package source keeps."""

import ast
import os

import hilbertpoly

PACKAGE = os.path.dirname(os.path.abspath(hilbertpoly.__file__))


def test_no_assert_statements_in_package():
    # python -O strips assert statements: every check in the package
    # must raise explicitly
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
