"""Rules the package source keeps."""

import ast
import json
import os
import re
import subprocess
import sys

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


# Every true division (/) of src/, as "module.def: expression", with the
# reason its operands are not two ints: MultiPoly and linalg keep an
# integral value as an int, and an int / int would be a float.
DIVISIONS = {
    "symfun.b_sequence: (-1) ** (j - 1) * bernoulli(j) / math.factorial(i)":
        "bernoulli returns a Fraction",
    "transversality.normalize_point: v / lead": "frac made every coordinate a Fraction",
}


def _divisions(node, where):
    """(enclosing defs, expression) of every / under the node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _divisions(child, where + (child.name,))
            continue
        if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
            yield where, ast.unparse(child)
        yield from _divisions(child, where)


def test_true_divisions_in_package():
    # floor division, Fraction(a, b) and linalg's divide stay exact;
    # each true division is listed with the reason it cannot make a float
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                tree = ast.parse(fh.read())
            found |= {"%s: %s" % (".".join((name[:-3],) + where), expr)
                      for where, expr in _divisions(tree, ())}
    assert found == set(DIVISIONS)


# Every def of src/ that calls math.lcm, with the reason: a rational
# value is cleared of its denominators in one place, so that a change to
# how values reach the integer cores has one place to change.
LCMS = {
    "linalg.integral": "the one clearing of a matrix, polynomial or b-sequence",
    "arith.MultiPoly.eval_point": "its own two loops for the tangency reports: through "
        "integral, the four evaluations of a conic report took about 40 % longer "
        "(Python 3.11, 2-core Xeon, best of six)",
}


def _lcm_calls(node, where):
    """The enclosing defs of every math.lcm call under the node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _lcm_calls(child, where + (child.name,))
            continue
        if isinstance(child, ast.Call) and ast.unparse(child.func) == "math.lcm":
            yield where
        yield from _lcm_calls(child, where)


def test_lcms_in_package():
    # each def that calls math.lcm is listed with the reason it clears
    # denominators itself
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                tree = ast.parse(fh.read())
            found |= {".".join((name[:-3],) + where) for where in _lcm_calls(tree, ())}
    assert found == set(LCMS)


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

INPUTS = {
    "conic.ideal": "vars: x0 x1 x2\nx0*x2 - x1^2\n",
    "points.ideal": "vars: x y\nx^2 - 1\ny^3 - y\n",
    "small.cnf": "p cnf 3 2\n1 -2 0\n2 3 0\n",
    "flag.txt": "0 1 0\n1 0 0\n0 0 1\n",
}

# Each argv runs a command under its default options: every command of
# the CLI, run by test_same_output_under_python_O and by the trace below.
COMMANDS = [
    ["ci", "n=4", "degrees=2"], ["ci", "n=2", "degrees=3,3,3"],
    ["characters", "n=4", "degrees=2"], ["delta", "m=3", "k=1", "n=5"], ["todd", "4"],
    ["hilbert", "conic.ideal"], ["reduce-sat", "small.cnf"], ["count", "points.ideal"],
    ["membership", "conic.ideal", "-x0*x2+x1^2"], ["trans", "conic.ideal", "1,1,1", "[1]"],
]

# The traffic of the routes, run in a fresh process under sys.setprofile
# so that calls made while importing count too: cli.main on COMMANDS and
# on the options that change what runs, each script of scripts/ at the
# arguments of tests/test_scripts.py, and the first inputs of each bench
# workload for one seed (bench/ is only read).  It prints the (file, first
# line, name) of every code object of the package that was entered.
TRACE_ROUTES = r"""
import contextlib, io, json, os, random, runpy, sys

root, commands = sys.argv[1], json.loads(sys.argv[2])
package = os.path.join(root, "src", "hilbertpoly") + os.sep
entered = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))

sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
sys.setprofile(profile)
from hilbertpoly import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in commands + [
            ["--max-basis", "1", "count", "points.ideal"],
            ["--output", "text", "ci", "n=3", "degrees=2"],
            ["reduce-sat", "small.cnf", "--out", "sat.ideal"],
            ["trans", "conic.ideal", "1,1,1", "[1]", "--flag", "flag.txt"],
            ["no-such-command"]]:
        cli.main(argv)
    os.chdir(root)
    for script, args in [("run_ci_grid.py", ["3", "2", "2"]),
                         ("run_sat_corpus.py", ["3", "4", "1"]),
                         ("run_transversality_sweep.py", ["2", "0"])]:
        sys.argv = [script] + args
        try:
            runpy.run_path(os.path.join("scripts", script), run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                raise
    from workloads import WORKLOADS
    for make in WORKLOADS.values():
        workload = make()
        for inp in workload.inputs(random.Random(0))[:3]:
            if workload.check(inp, workload.run(inp)):
                raise SystemExit("a bench answer is wrong")
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""

# Every def of src/ that the traffic above never enters, with the reason
# it stays.
NOT_RUN_BY_ROUTES = {
    "grobner.buchberger": "the library's Groebner API; the scan oracles check it",
    "grobner._autoreduce": "buchberger's interreduction",
    "grobner.normal_form": "the library's Groebner API; the scan oracles check it",
    "grobner._packed_normal_form": "normal_form's reduction",
    "transversality.in_Q_lambda": "the rank test that the counting route is to call",
    "transversality.Flag.dual_matrix": "the dual rows that in_Q_lambda reads",
    "transversality.Flag.inverse": "derived on use; reports read the numerators",
    "linalg.solve": "the library's solve; routes take the numerators from solve_undivided",
    "linalg.inverse": "the library's inverse; a flag inverts its basis by solve_undivided",
    "transversality.GrassPoint.__post_init__": "the checked constructor; routes use _of_kernel",
    **dict.fromkeys([
        "arith.MultiPoly.__repr__", "arith.UniPoly.__repr__", "partitions.Partition.__repr__",
        "arith.MultiPoly.__eq__", "arith.MultiPoly.__hash__", "arith.UniPoly.__hash__",
        "arith.UniPoly.__bool__"], "the value protocol: shown, compared, hashed and tested"),
}


def _defs(tree, prefix=(), in_class=False):
    """(first line, name, qualified name, is a method) of every def under
    the node, nested ones and those of classes included; the first line of
    a decorated def is that of its first decorator, as in its code object.
    A method is a def whose nearest enclosing def or class is a class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield line, node.name, prefix + (node.name,), in_class
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _defs(node, prefix + (node.name,), isinstance(node, ast.ClassDef))
        else:
            yield from _defs(node, prefix, in_class)


@pytest.fixture(scope="module")
def routes_trace(tmp_path_factory):
    """({qualified name: is a method} of every def of src/, the set of
    those that the traced traffic of the routes never enters)."""
    tmp_path = tmp_path_factory.mktemp("routes")
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    run = subprocess.run([sys.executable, "-c", TRACE_ROUTES, ROOT, json.dumps(COMMANDS)],
                         cwd=tmp_path, env=dict(os.environ, PYTHONHASHSEED="0"),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-3000:]
    entered = {tuple(x) for x in json.loads(run.stdout)}
    methods, never = {}, set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                tree = ast.parse(fh.read())
            for line, short, qual, method in _defs(tree):
                qual = "%s.%s" % (name[:-3], ".".join(qual))
                methods[qual] = method
                if (name, line, short) not in entered:
                    never.add(qual)
    return methods, never


def _check_not_run(routes_trace, methods):
    # every def of the kind that no route runs, private ones and dunders
    # included, is deleted or listed in NOT_RUN_BY_ROUTES with its reason;
    # a listed name that a route runs, or that is no def, comes off the list
    kind, never = routes_trace
    found = {qual for qual in never if kind[qual] == methods}
    listed = {qual for qual in NOT_RUN_BY_ROUTES if kind.get(qual, False) == methods}
    assert found == listed, "not run: %s; listed but run or gone: %s" % (
        sorted(found - listed), sorted(listed - found))


def test_public_helpers_that_only_tests_reach(routes_trace):
    # the defs outside classes (module functions and those nested in
    # them) that no route runs, against the trace
    _check_not_run(routes_trace, methods=False)


def test_public_methods_that_only_tests_reach(routes_trace):
    # the defs of classes that no route runs, dunders included, against
    # the trace
    _check_not_run(routes_trace, methods=True)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
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
