"""Rules the package source keeps."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

import hilbertpoly

PACKAGE = os.path.dirname(os.path.abspath(hilbertpoly.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))


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


def test_package_imports_no_test_code():
    # the cross-check routes stay independent of the oracles that check
    # them: no module of the package imports oracles, conftest or any
    # module of the tests directory
    test_modules = {"tests", "oracles", "conftest"}
    test_modules |= {name[:-3] for name in os.listdir(TESTS) if name.endswith(".py")}
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (name, node.lineno, module) for module in modules
                      if module.split(".")[0] in test_modules]
    assert found == []


ROOT = os.path.dirname(TESTS)

# Public top-level functions and classes of src/, scripts/ and bench/
# that nothing there uses: the Groebner API that the scan oracles of
# tests/oracles.py check, and in_Q_lambda, the degeneracy-locus rank test
# that the counting route is to call.
ONLY_TESTS_REACH = {
    "src/hilbertpoly/grobner.py:buchberger",
    "src/hilbertpoly/grobner.py:normal_form",
    "src/hilbertpoly/transversality.py:in_Q_lambda",
}

# Public methods and properties of public classes of src/ whose name
# nothing in src/, scripts/ or bench/ reads outside the method's own body.
METHODS_ONLY_TESTS_REACH = set()


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _trees(*tops):
    for top in tops:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path) as fh:
                        yield os.path.relpath(path, ROOT), ast.parse(fh.read(), filename=path)


def test_public_helpers_that_only_tests_reach():
    # a public top-level definition is used when its name is read
    # outside its own body anywhere in src/, scripts/ or bench/; a new
    # helper that only tests reach, or a listed one that gains a caller
    # or moves, changes the set
    refs, own, defs = Counter(), Counter(), []
    for path, tree in _trees("src", "scripts", "bench"):
        refs.update(_referenced_names(tree))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.append((path, node.name))
                own.update(n for n in _referenced_names(node) if n == node.name)
    unused = {"%s:%s" % (path, name) for path, name in defs if refs[name] == own[name]}
    assert unused == ONLY_TESTS_REACH


def test_public_methods_that_only_tests_reach():
    # the same rule for the public methods and properties of the public
    # classes of src/: a method is used when its name is read outside its
    # own body anywhere in src/, scripts/ or bench/
    refs, own, defs = Counter(), Counter(), []
    for path, tree in _trees("src", "scripts", "bench"):
        refs.update(_referenced_names(tree))
        if not path.startswith("src"):
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    defs.append((cls.name, node.name))
                    own.update(n for n in _referenced_names(node) if n == node.name)
    unused = {"%s.%s" % (cls, name) for cls, name in defs if refs[name] == own[name]}
    assert unused == METHODS_ONLY_TESTS_REACH


INPUTS = {
    "conic.ideal": "vars: x0 x1 x2\nx0*x2 - x1^2\n",
    "points.ideal": "vars: x y\nx^2 - 1\ny^3 - y\n",
    "small.cnf": "p cnf 3 2\n1 -2 0\n2 3 0\n",
}


@pytest.mark.parametrize("argv", [
    ["ci", "n=4", "degrees=2"],
    ["ci", "n=2", "degrees=3,3,3"],
    ["hilbert", "conic.ideal"],
    ["reduce-sat", "small.cnf"],
    ["count", "points.ideal"],
    ["membership", "conic.ideal", "-x0*x2+x1^2"],
    ["trans", "conic.ideal", "1,1,1", "[1]"],
], ids=lambda argv: " ".join(argv))
def test_same_output_under_python_O(tmp_path, argv):
    # python -O strips assert statements and sets __debug__ to False;
    # no command may answer differently for it
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE), PYTHONHASHSEED="0")
    runs = [subprocess.run([sys.executable] + flags + ["-m", "hilbertpoly"] + argv,
                           cwd=tmp_path, env=env, capture_output=True, text=True,
                           timeout=120)
            for flags in ([], ["-O"])]
    plain, optimised = [(r.returncode, r.stdout, r.stderr) for r in runs]
    assert plain[1] or plain[2], plain  # a report or a JSON error
    assert optimised == plain


def test_acceptance_suite_under_python_O():
    # pytest keeps the asserts of test modules under -O, but not those of
    # the modules they import (the package, tests/oracles.py): every
    # acceptance criterion must hold without them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.dirname(PACKAGE), TESTS]))
    passed = []
    for flags in ([], ["-O"]):
        run = subprocess.run([sys.executable] + flags + [
            "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"],
            cwd=os.path.dirname(TESTS), env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stdout[-3000:]
        passed.append(re.search(r"(\d+) passed", run.stdout).group(1))
    assert passed[0] == passed[1]
