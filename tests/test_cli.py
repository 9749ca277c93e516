import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, event, given, settings

import hilbertpoly
from hilbertpoly import cli
from hilbertpoly.arith import MultiPoly
from hilbertpoly.chern import CompleteIntersection, ci_hilbert_series_oracle
from hilbertpoly.cli import (
    EXIT_DISAGREE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    MAX_DELTA_PAIRS,
    MAX_M,
    MAX_SERIES_DEGREE,
    main,
)
from hilbertpoly.reductions import (
    BRUTEFORCE_MAX_VARS,
    MAX_CLAUSE_POSITIVES,
    parse_dimacs,
)
from hilbertpoly.symfun import b_sequence

from oracles import dimacs_text
from test_source import INPUTS


def run_cli(*argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    return code, json.loads(out)


def test_ci_command_plane_cubic():
    code, report = run_json("ci", "n=2", "degrees=3")
    assert code == EXIT_OK
    assert report["agreement"] is True
    assert report["hilbert_hrr"]["text"] == "3*T"
    assert report["hilbert_series"]["text"] == "3*T"
    assert report["schema"] == 1 and report["seed"] == 0


def test_ci_command_dimension_ten_and_eleven():
    # m = 11 and m = 10: past the m <= 8 of the ci grid tests
    for degrees in ("2", "3,2"):
        code, report = run_json("ci", "n=12", "degrees=" + degrees)
        assert code == EXIT_OK
        assert report["agreement"] is True
        assert report["hilbert_hrr"] == report["hilbert_series"]


def test_characters_quartic_plane_curve():
    code, report = run_json("characters", "n=2", "degrees=4")
    assert code == EXIT_OK
    assert report["characters"] == {"[]": 4, "[1]": 12}


def test_todd_command():
    code, report = run_json("todd", "2")
    assert code == EXIT_OK
    assert report["todd"] == "1/12*c1^2 + 1/12*c2"


def test_delta_command():
    code, report = run_json("delta", "m=1", "k=0", "n=2")
    assert code == EXIT_OK
    assert report["entries"] == [{"mu": [], "value": "1"},
                                 {"mu": [1], "value": "-1/2"}]


def test_hilbert_command_projective_plane(tmp_path):
    ideal = tmp_path / "p2.ideal"
    ideal.write_text("vars: x0 x1 x2\n")
    code, report = run_json("hilbert", str(ideal))
    assert code == EXIT_OK
    assert report["hilbert_polynomial"]["text"] == "1/2*T^2 + 3/2*T + 1"
    assert report["geometric_degree"] == "1"
    assert report["arithmetic_genus"] == "0"


def test_hilbert_command_plane_cubic_genus(tmp_path):
    ideal = tmp_path / "cubic.ideal"
    ideal.write_text("vars: x0 x1 x2\nx0^3 + x1^3 + x2^3\n")
    code, report = run_json("hilbert", str(ideal))
    assert code == EXIT_OK
    assert report["hilbert_polynomial"]["text"] == "3*T"
    assert report["arithmetic_genus"] == "1"


def test_reduce_sat_command(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    out = tmp_path / "f.ideal"
    code, report = run_json("reduce-sat", str(cnf), "--out", str(out))
    assert code == EXIT_OK
    assert report["count_bruteforce"] == 3
    assert report["hilbert_constant"] == 3
    assert report["zero_dim_count"] == 3
    assert report["agree"] is True
    assert out.read_text().startswith("vars: x0 x1 x2")


def test_hilbert_command_unsat_sat_ideal(tmp_path):
    ideal = tmp_path / "unsat.ideal"
    ideal.write_text("vars: x0 x1\nx1^2 - x1*x0\nx0 - x1\nx1\n")
    code, report = run_json("hilbert", str(ideal))
    assert code == EXIT_OK
    assert report["hilbert_polynomial"]["text"] == "0"
    assert report["projective_dimension"] == -1


def test_reduce_sat_unsatisfiable(tmp_path):
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, report = run_json("reduce-sat", str(cnf))
    assert code == EXIT_OK
    assert report["count_bruteforce"] == 0
    assert report["hilbert_constant"] == 0


def test_membership_command(tmp_path):
    ideal = tmp_path / "conic.ideal"
    ideal.write_text("vars: x0 x1 x2\nx0*x2 - x1^2\n")
    code, report = run_json("membership", str(ideal), "x0^2*x2 - x0*x1^2")
    assert code == EXIT_OK
    assert report["in_ideal"] is True and report["him_decide"] is True
    code, report = run_json("membership", str(ideal), "x0*x1")
    assert code == EXIT_OK
    assert report["in_ideal"] is False and report["him_decide"] is False


def test_membership_when_y_is_a_variable_of_the_ideal(tmp_path):
    ideal = tmp_path / "xy.ideal"
    ideal.write_text("vars: x y\nx^2 - y^2\n")
    for poly, member in (("x^2 - y^2", True), ("x^2", False)):
        code, report = run_json("membership", str(ideal), poly)
        assert code == EXIT_OK and report["agreement"] is True
        assert report["in_ideal"] is member and report["him_decide"] is member


def test_membership_checks_its_input_before_any_groebner_run(tmp_path, monkeypatch):
    from hilbertpoly import grobner

    runs = []
    buchberger = grobner._buchberger

    def counted(*args, **kwargs):
        runs.append(1)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(grobner, "_buchberger", counted)
    ideal = tmp_path / "conic.ideal"
    ideal.write_text(CONIC)
    assert run_cli("membership", str(ideal), "x0 + 1") == (EXIT_PARSE, "")
    assert runs == []
    code, report = run_json("membership", str(ideal), "x0*x1")
    assert code == EXIT_OK and report["agreement"] is True
    assert runs


def test_membership_poly_with_a_leading_minus(tmp_path):
    # a polynomial that starts with a minus sign is positional, with or
    # without -- before it
    ideal = tmp_path / "conic.ideal"
    ideal.write_text(CONIC)
    for poly in ("-x0^2", "-x0*x2+x1^2"):
        code, out = run_cli("membership", str(ideal), poly)
        assert code == EXIT_OK
        assert (code, out) == run_cli("membership", str(ideal), "--", poly)
    assert json.loads(out)["in_ideal"] is True


def test_help_exits_zero_where_a_minus_is_positional(tmp_path):
    ideal = tmp_path / "conic.ideal"
    ideal.write_text(CONIC)
    for argv in (("membership", str(ideal), "-h"), ("trans", "-h")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0


def test_count_command(tmp_path):
    ideal = tmp_path / "pts.ideal"
    ideal.write_text("vars: x y\nx^2 - 1\ny^3 - y\n")
    code, report = run_json("count", str(ideal))
    assert code == EXIT_OK
    assert report["count"] == 6


def test_count_command_infinite(tmp_path):
    ideal = tmp_path / "line.ideal"
    ideal.write_text("vars: x y\nx*y\n")
    code, report = run_json("count", str(ideal))
    assert code == EXIT_OK
    assert report["count"] == "INFINITE"


def test_trans_command(tmp_path):
    inst = tmp_path / "conic.ideal"
    inst.write_text("vars: x0 x1 x2\nx0*x2 - x1^2\n")
    code, report = run_json("--seed", "3", "trans", str(inst), "1,1,1", "[]")
    assert code == EXIT_OK
    assert report["m"] == 1
    assert report["smooth"] is True
    assert report["on_cell"] is True  # the dense cell
    assert report["transversal"] is True
    assert report["seed"] == 3


def test_trans_refuses_variables_other_than_x0_to_xn(tmp_path, capsys):
    inst = tmp_path / "xyz.ideal"
    inst.write_text("vars: x y z\nx*z - y^2\n")
    assert run_cli("trans", str(inst), "1,1,1", "[1]") == (EXIT_PARSE, "")
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse" and "x0..x2" in err["detail"]


def test_trans_command_off_cell_with_explicit_m(tmp_path):
    inst = tmp_path / "conic.ideal"
    inst.write_text("vars: x0 x1 x2\nx0*x2 - x1^2\n")
    code, report = run_json("--seed", "7", "trans", str(inst), "1,1,1", "[1]",
                            "--m", "1")
    assert code == EXIT_OK
    assert report["m"] == 1
    assert report["on_cell"] is False
    assert report["transversal"] is None and report["chart"] is None


NODE = "vars: x0 x1 x2\nx1^2*x2 - x0^3 - x0^2*x2\n"
CONIC = "vars: x0 x1 x2\nx0*x2 - x1^2\n"
TWISTED_CUBIC = "vars: x0 x1 x2 x3\nx0*x2 - x1^2\nx1*x3 - x2^2\nx0*x3 - x1*x2\n"
# rows of the basis matrix of a flag whose F_0 = (1,2,3) lies on the
# conic's tangent line at (1,1,1)
CONIC_TANGENT_FLAG = "1 0 0\n2 1 0\n3 0 1\n"


def test_trans_at_a_node_is_not_smooth(tmp_path):
    # n - rank J = 2 at the node; the curve has dimension 1
    inst = tmp_path / "node.ideal"
    inst.write_text(NODE)
    code, report = run_json("hilbert", str(inst))
    assert code == EXIT_OK and report["projective_dimension"] == 1
    code, report = run_json("trans", str(inst), "0,0,1", "[]")
    assert code == EXIT_OK
    assert report["m"] == 1
    assert report["smooth"] is False and report["on_cell"] is False
    assert report["transversal"] is None
    code, report = run_json("trans", str(inst), "1,0,-1", "[]")
    assert code == EXIT_OK and report["smooth"] is True


@pytest.mark.parametrize("text, point, options", [
    (CONIC, "1,1,1", ["--m", "0"]),
    (NODE, "0,0,1", []),
    (CONIC, "1,1,1", []),
], ids=["conic-m0", "node", "conic-smooth"])
def test_trans_inadmissible_partition_is_parse_error(tmp_path, capsys, text, point, options):
    # at a singular point as at a smooth one
    inst = tmp_path / "curve.ideal"
    inst.write_text(text)
    assert run_cli("trans", str(inst), point, "[7]", *options) == (EXIT_PARSE, "")
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse" and "not admissible" in err["detail"]


def test_trans_with_a_flag_file(tmp_path):
    inst = tmp_path / "conic.ideal"
    inst.write_text(CONIC)
    flag = tmp_path / "tangent.flag"
    flag.write_text("# F_0 = (1,2,3)\n" + CONIC_TANGENT_FLAG + "\n")
    code, report = run_json("trans", str(inst), "1,1,1", "[1]", "--flag", str(flag))
    assert code == EXIT_OK
    assert report["on_cell"] is True and report["transversal"] is True
    assert report["chart"] == [["0", "1/2"]]
    assert report["flag"] == {"source": "file", "file": str(flag),
                              "basis": [["1", "0", "0"], ["2", "1", "0"], ["3", "0", "1"]]}
    code, report = run_json("--seed", "7", "trans", str(inst), "1,1,1", "[1]")
    assert code == EXIT_OK
    assert report["flag"]["source"] == "seed" and report["flag"]["file"] is None


def test_trans_point_with_a_leading_minus_follows_double_dash(tmp_path):
    # after -- the point is positional; a projective point and its
    # negative give one report
    inst = tmp_path / "conic.ideal"
    inst.write_text(CONIC)
    negative = run_cli("trans", str(inst), "--", "-1,-1,-1", "[1]")
    assert negative[0] == EXIT_OK
    assert negative == run_cli("trans", str(inst), "1,1,1", "[1]")


def test_trans_point_with_a_leading_minus_without_double_dash(tmp_path, capsys):
    inst = tmp_path / "conic.ideal"
    inst.write_text(CONIC)
    report = run_cli("trans", str(inst), "1,1,1", "[1]")
    assert run_cli("trans", str(inst), "-1,-1,-1", "[1]") == report
    assert run_cli("trans", str(inst), "-1/2,-1/2,-1/2", "[1]", "--m", "1") == report
    assert run_cli("--seed", "0", "trans", "--m", "1", str(inst), "-4,2,-1", "[1]")[0] == EXIT_OK
    # a word with a leading minus that is no rational point is still a
    # parse error
    code, out = run_cli("trans", str(inst), "-x", "[1]")
    assert code == EXIT_PARSE and out == ""
    assert json.loads(capsys.readouterr().err)["error"] == "parse"


def test_reduce_sat_without_variables(tmp_path):
    # the empty formula has one model, the empty assignment; with an
    # empty clause it has none
    cnf = tmp_path / "empty.cnf"
    for text, count in (("p cnf 0 0\n", 1), ("p cnf 0 1\n0\n", 0)):
        cnf.write_text(text)
        code, report = run_json("reduce-sat", str(cnf))
        assert code == EXIT_OK and report["agree"] is True
        assert report["count_bruteforce"] == report["zero_dim_count"] == count


def test_reduce_sat_negative_variable_count_is_parse_error(tmp_path, capsys):
    cnf = tmp_path / "neg.cnf"
    cnf.write_text("p cnf -3 0\n")
    code, out = run_cli("reduce-sat", str(cnf))
    assert code == EXIT_PARSE and out == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert err["detail"] == "number of variables must be >= 0, got -3"


@pytest.mark.parametrize("text, detail", [
    ("1 0 0\n2 1 0\n", "3 lines of 3 rationals"),
    ("1 0 0\n2 1 0\n3 0 1\n0 0 1\n", "3 lines of 3 rationals"),
    ("1 0 0\n2 1\n3 0 1\n", "3 lines of 3 rationals"),
    ("1 0 0\n2 1.5 0\n3 0 1\n", "expected a rational"),
    ("1 0 0\n2 x 0\n3 0 1\n", "expected a rational"),
    ("1 0 0\n2 1/0 0\n3 0 1\n", "zero denominator"),
    ("1 2 0\n2 4 0\n0 0 1\n", "flag basis is singular"),
])
def test_trans_bad_flag_file_is_parse_error(tmp_path, capsys, text, detail):
    inst = tmp_path / "conic.ideal"
    inst.write_text(CONIC)
    flag = tmp_path / "bad.flag"
    flag.write_text(text)
    code, out = run_cli("trans", str(inst), "1,1,1", "[1]", "--flag", str(flag))
    assert code == EXIT_PARSE
    assert out == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert detail in err["detail"]


def test_trans_dimension_from_hilbert_obeys_the_caps(tmp_path, capsys):
    inst = tmp_path / "cubic.ideal"
    inst.write_text(TWISTED_CUBIC)
    code, report = run_json("trans", str(inst), "1,2,4,8", "[]")
    assert code == EXIT_OK and report["m"] == 1 and report["transversal"] is True
    # three generators do not fit one basis element
    code, out = run_cli("--max-basis", "1", "trans", str(inst), "1,2,4,8", "[]")
    assert code == EXIT_RESOURCE and out == ""
    assert json.loads(capsys.readouterr().err)["error"] == "resource-cap"
    # with --m no Hilbert polynomial is computed
    code, report = run_json("--max-basis", "1", "trans", str(inst), "1,2,4,8", "[]",
                            "--m", "1")
    assert code == EXIT_OK and report["m"] == 1
    # the input degree is capped before the point is evaluated
    code, out = run_cli("--max-degree", "1", "trans", str(inst), "1,2,4,8", "[]",
                        "--m", "1")
    assert code == EXIT_RESOURCE and out == ""


def test_byte_identical_reports():
    a = run_cli("--seed", "9", "ci", "n=4", "degrees=2,3")
    b = run_cli("--seed", "9", "ci", "n=4", "degrees=2,3")
    assert a == b


def test_parse_error_exit_code(tmp_path):
    code, _ = run_cli("ci", "degrees=2")
    assert code == EXIT_PARSE
    bad = tmp_path / "bad.ideal"
    bad.write_text("no header\n")
    code, _ = run_cli("hilbert", str(bad))
    assert code == EXIT_PARSE
    code, _ = run_cli("hilbert", str(tmp_path / "missing.ideal"))
    assert code == EXIT_PARSE


def test_zero_denominator_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "zero.ideal"
    bad.write_text("vars: x0 x1\n1/0*x0\n")
    code, out = run_cli("hilbert", str(bad))
    assert code == EXIT_PARSE
    assert out == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert "zero denominator" in err["detail"]


def test_resource_cap_exit_code(tmp_path):
    ideal = tmp_path / "hard.ideal"
    ideal.write_text("vars: x0 x1 x2\n"
                     "x0^2 + x1*x2\nx1^3 - x0*x2^2\nx2^4 - x0*x1^3\n")
    code, _ = run_cli("--max-basis", "1", "hilbert", str(ideal))
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("argv, detail", [
    (("todd", "-1"), "todd needs m >= 0"),
    (("hilbert", "plane.ideal"), "contains inhomogeneous polynomials"),
    (("membership", "conic.ideal", "3"), "g must be non-constant homogeneous"),
    (("membership", "plane.ideal", "x0^2"), "needs a homogeneous ideal"),
    (("trans", "conic.ideal", "1,1,2", "[]"), "point is not a zero of the system"),
    (("trans", "conic.ideal", "0,0,0", "[]"), "zero vector is not a projective point"),
    (("trans", "plane.ideal", "1,0,0", "[]"), "hilbert_data needs a homogeneous ideal"),
    (("trans", "plane.ideal", "1,0,0", "[]", "--m", "1"), "polynomials must be homogeneous"),
], ids=["todd", "hilbert", "membership-poly", "membership-ideal", "trans-not-a-zero",
        "trans-zero-vector", "trans-dimension", "trans-instance"])
def test_semantic_error_is_input_error(tmp_path, monkeypatch, capsys, argv, detail):
    # an input that parses but that the command is not defined on exits
    # with the parse code, under its own error kind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conic.ideal").write_text(CONIC)
    (tmp_path / "plane.ideal").write_text("vars: x0 x1 x2\nx0*x2 - x1\n")
    code, out = run_cli(*argv)
    assert code == EXIT_PARSE
    assert out == ""
    err = json.loads(capsys.readouterr().err)
    assert err == {"schema": 1, "error": "input", "detail": err["detail"]}
    assert detail in err["detail"]


@pytest.mark.parametrize("argv, detail", [
    (("bogus",), "invalid choice"),
    ((), "required: command"),
    (("todd",), "required: m"),
    (("--output", "yaml", "todd", "2"), "invalid choice"),
    (("--max-basis", "-1", "todd", "2"), "--max-basis"),
    (("--max-degree", "-3", "todd", "2"), "--max-degree"),
    (("--max-degree", "many", "todd", "2"), "--max-degree"),
    (("ci", "n=3", "degrees=2", "n=5"), "repeated key 'n'"),
    (("delta", "m=3", "k=1", "n=5", "m=4"), "repeated key 'm'"),
])
def test_usage_error_is_parse_error(capsys, argv, detail):
    code, out = run_cli(*argv)
    assert code == EXIT_PARSE
    assert out == ""
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "parse"
    assert detail in err["detail"]
    assert "usage:" not in captured.out + captured.err


def test_zero_caps_are_caps(tmp_path):
    # 0 is a natural number: the caps parse, and the run hits them
    ideal = tmp_path / "line.ideal"
    ideal.write_text("vars: x0 x1\nx0\n")
    code, _ = run_cli("--max-degree", "0", "hilbert", str(ideal))
    assert code == EXIT_RESOURCE


def test_exit_codes_of_the_process():
    src = os.path.dirname(os.path.dirname(hilbertpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "hilbertpoly", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    out = run("bogus")
    assert out.returncode == EXIT_PARSE
    assert json.loads(out.stderr)["error"] == "parse"
    out = run("--max-basis", "-1", "todd", "2")
    assert out.returncode == EXIT_PARSE
    out = run("--help")
    assert out.returncode == EXIT_OK
    assert out.stdout.startswith("usage: hilbertpoly")


def test_input_files_are_closed(tmp_path):
    # python -X dev reports a file left to the garbage collector as an
    # unclosed-file ResourceWarning on stderr
    src = os.path.dirname(os.path.dirname(hilbertpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    (tmp_path / "conic.ideal").write_text(CONIC)
    (tmp_path / "points.ideal").write_text("vars: x y\nx^2 - 1\ny^3 - y\n")
    (tmp_path / "small.cnf").write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    (tmp_path / "tangent.flag").write_text(CONIC_TANGENT_FLAG)
    for argv in (["hilbert", "conic.ideal"], ["count", "points.ideal"],
                 ["membership", "conic.ideal", "x0*x2 - x1^2"], ["reduce-sat", "small.cnf"],
                 ["trans", "conic.ideal", "1,1,1", "[1]", "--flag", "tangent.flag"]):
        run = subprocess.run([sys.executable, "-X", "dev", "-m", "hilbertpoly", *argv],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == EXIT_OK, (argv, run.stderr)
        assert "ResourceWarning" not in run.stderr, (argv, run.stderr)


def test_text_output_mode():
    code, out = run_cli("--output", "text", "todd", "1")
    assert code == EXIT_OK
    assert 'todd: "1/2*c1"' in out


def test_disagreement_exit_code(monkeypatch):
    import hilbertpoly.cli as cli
    from hilbertpoly.arith import UniPoly

    monkeypatch.setattr(cli, "hilbert_poly_hrr", lambda ci: UniPoly([41]))
    code, report = run_json("ci", "n=2", "degrees=3")
    assert code == EXIT_DISAGREE
    assert report["agreement"] is False
    # a disagreeing report renders each route's own polynomial
    oracle = ci_hilbert_series_oracle(CompleteIntersection(2, (3,))).to_text()
    assert report["hilbert_hrr"]["text"] == "41"
    assert report["hilbert_characters"]["text"] == oracle
    assert report["hilbert_series"]["text"] == oracle


def test_character_route_disagreement_exit_code(monkeypatch):
    import hilbertpoly.cli as cli
    from hilbertpoly.arith import UniPoly

    monkeypatch.setattr(cli, "hilbert_poly_from_characters",
                        lambda m, n, table: UniPoly([41]))
    code, report = run_json("ci", "n=2", "degrees=3")
    assert code == EXIT_DISAGREE
    assert report["agreement"] is False
    oracle = ci_hilbert_series_oracle(CompleteIntersection(2, (3,))).to_text()
    assert report["hilbert_hrr"]["text"] == oracle
    assert report["hilbert_characters"]["text"] == "41"
    assert report["hilbert_series"]["text"] == oracle


def test_failed_cross_check_exit_code(monkeypatch, capsys):
    import hilbertpoly.chern as chern
    from fractions import Fraction

    # every Delta-determinant reads 1/3: deg P_mu = 4/3 for the quartic
    # is not an integer, and projective_character refuses it
    monkeypatch.setattr(chern, "delta_det", lambda lam, seq: Fraction(1, 3))
    code, out = run_cli("characters", "n=2", "degrees=4")
    assert code == EXIT_DISAGREE
    assert out == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "cross-check"
    assert "not a nonnegative integer" in err["detail"]


def test_parser_carries_no_state_between_calls():
    code, out = run_cli("--seed", "7", "--output", "text", "todd", "1")
    assert code == EXIT_OK
    assert "seed: 7" in out
    code, report = run_json("todd", "1")
    assert code == EXIT_OK
    assert report["seed"] == 0


def test_ci_grid_reports_independent_of_order():
    # the process-wide caches behind `ci` must not make a report depend
    # on which reports ran before it
    from hilbertpoly.chern import chern_cone_normal, chern_tangent, ci_grid
    from hilbertpoly.partitions import _nested, partitions_in_strip
    from hilbertpoly.symfun import (
        _cleared_b, _scaled_delta_b, b_sequence, delta_coeff, delta_table)

    for cache in (_scaled_delta_b, _cleared_b, b_sequence, delta_coeff,
                  delta_table, _nested, partitions_in_strip,
                  chern_tangent, chern_cone_normal):
        cache.cache_clear()
    argvs = [["ci", "n=%d" % ci.n, "degrees=" + ",".join(map(str, ci.degrees))]
             for ci in ci_grid(5, 2, 3)]
    forward = [run_cli(*argv) for argv in argvs]
    backward = [run_cli(*argv) for argv in reversed(argvs)]
    assert forward == backward[::-1]
    assert all(code == EXIT_OK for code, _ in forward)


def test_ci_and_delta_reports_are_pinned():
    # the exit code and report of every ci of the n <= 8, r <= 3, d <= 4
    # grid, then of every delta m k n with m <= 9 and n = m..m+3, hashed
    # together: any change to a value or to its int-or-string form shows
    digest = hashlib.sha256()
    for n in range(9):
        for r in range(min(3, n) + 1):
            for degrees in itertools.combinations_with_replacement(range(4, 0, -1), r):
                argv = ["ci", "n=%d" % n]
                if degrees:
                    argv.append("degrees=" + ",".join(map(str, degrees)))
                digest.update(("%d%s" % run_cli(*argv)).encode())
    for m in range(10):
        for k in range(m + 1):
            for n in range(m, m + 4):
                digest.update(("%d%s" % run_cli("delta", "m=%d" % m, "k=%d" % k,
                                                "n=%d" % n)).encode())
    assert digest.hexdigest() == (
        "ecb5c9a1090c2ce957103e866aab44e140e49c50b1e56ac55f30386e85b1233b")


def test_trans_reports_are_pinned(tmp_path, monkeypatch):
    # the exit code and report of trans on the conic at five points
    # (1, t, t^2): under three seeds for mu = [], and for mu = [1] with
    # flag files whose F_0 = x + s x' lies on the tangent line (s = 0 puts
    # F_0 at x) and whose F_1, spanned by F_0 and (0, 0, 1), is never that
    # line, as no seeded flag puts [1] on the cell.  The flag file's name
    # is part of the report, so it is named relative to the working
    # directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conic.ideal").write_text(CONIC)
    digest, verdicts = hashlib.sha256(), set()
    for t in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)):
        point = "1,%s,%s" % (t, t * t)
        for seed in range(3):
            code, out = run_cli("--seed", str(seed), "trans", "conic.ideal", point, "[]")
            assert code == EXIT_OK
            digest.update(("%d%s" % (code, out)).encode())
        for s in (0, 1, Fraction(-3, 2)):
            f0 = (1, t + s, t * t + 2 * t * s)
            (tmp_path / "tangent.flag").write_text(
                "".join("%s %d %d\n" % (v, i == 2, i == 1) for i, v in enumerate(f0)))
            code, out = run_cli("trans", "conic.ideal", point, "[1]", "--flag", "tangent.flag")
            report = json.loads(out)
            assert code == EXIT_OK and report["on_cell"] is True
            # F_0 on the conic (s = 0) is the one tangency
            assert report["transversal"] is (s != 0)
            verdicts.add(report["transversal"])
            digest.update(("%d%s" % (code, out)).encode())
    assert verdicts == {True, False}
    assert digest.hexdigest() == (
        "7ab5cd47561da561bf894322d16e0f6939a9ca0a496e76ad4faff585cc6e6e65")


def test_groebner_reports_are_pinned(tmp_path, monkeypatch):
    # the exit code and stdout of every Groebner command on the input
    # files of tests/test_source.py, in JSON and in text, under the
    # default caps and under tight ones, hashed together: the reports
    # of valid inputs, and the empty stdout of refused ones
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    commands = [["reduce-sat", "small.cnf"]]
    for name in ("conic.ideal", "points.ideal"):
        commands += [["hilbert", name], ["count", name]]
        commands += [["membership", name, poly] for poly in (
            "-x0*x2+x1^2", "x0^2*x2 - x0*x1^2", "3/2*x0*x2 - x1^2", "x0^3", "x^2 - 1")]
    digest = hashlib.sha256()
    for options in ([], ["--output", "text"], ["--max-basis", "1"], ["--max-degree", "2"]):
        for argv in commands:
            digest.update(("%d%s" % run_cli(*options, *argv)).encode())
    assert digest.hexdigest() == (
        "35e2a12d4f90fdef4e52bbeb62485ce88a93cb809b8783d1b4f28c67aa17bf58")


def _conic_tangency_report():
    from hilbertpoly.arith import parse_poly
    from hilbertpoly.partitions import Partition
    from hilbertpoly.transversality import Flag, InputInstance, transversality_report

    conic = InputInstance((parse_poly("x0*x2 - x1^2", ("x0", "x1", "x2")),), 2, 1)
    flag = Flag.from_basis([[1, 0, 0], [2, 1, 0], [3, 0, 1]])
    return repr(sorted(transversality_report(conic, (1, 1, 1), flag, Partition([1])).items()))


def test_ci_report_without_asserts():
    # python -O strips assert statements; the checks on the ci path and
    # in the tangency report must still run and the reports must not change
    script = ("import sys; from hilbertpoly.cli import main; "
              "from test_cli import _conic_tangency_report; "
              "print(sys.flags.optimize, file=sys.stderr); "
              "print(_conic_tangency_report(), file=sys.stderr); "
              "sys.exit(main(['ci', 'n=4', 'degrees=2,2']))")
    src = os.path.dirname(os.path.dirname(hilbertpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == EXIT_OK
    assert out.stderr == "1\n%s\n" % _conic_tangency_report()
    assert "'transversal', True" in out.stderr
    assert (EXIT_OK, out.stdout) == run_cli("ci", "n=4", "degrees=2,2")


def test_trans_zero_denominator_is_parse_error(tmp_path, capsys):
    inst = tmp_path / "conic.ideal"
    inst.write_text("vars: x0 x1 x2\nx0*x2 - x1^2\n")
    code, out = run_cli("trans", str(inst), "1/0,1,1", "[1]")
    assert code == EXIT_PARSE
    assert out == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert "zero denominator" in err["detail"]


def test_repeated_variable_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "dup.ideal"
    bad.write_text("vars: x0 x0\nx0\n")
    code, out = run_cli("hilbert", str(bad))
    assert code == EXIT_PARSE
    assert out == ""
    assert json.loads(capsys.readouterr().err)["error"] == "parse"


def test_tangent_chern_disagreement_exit_code(monkeypatch, capsys):
    import hilbertpoly.chern as chern

    real = chern.chern_cone_tangent

    def off_by_one(ci):
        # add 1 to every Chern class of the cone tangent bundle
        return tuple(c + 1 for c in real(ci))

    # chern_tangent is memoised: a class cached by an earlier test would
    # never reach the patched route
    chern.chern_tangent.cache_clear()
    monkeypatch.setattr(chern, "chern_cone_tangent", off_by_one)
    code, out = run_cli("ci", "n=3", "degrees=2")
    assert code == EXIT_DISAGREE
    assert out == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "cross-check"
    assert "tangent Chern class routes disagree" in err["detail"]


# -- caps of the closed-form commands


def _refused(capsys, *argv):
    code, out = run_cli(*argv)
    assert code == EXIT_RESOURCE
    assert out == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "resource-cap"
    return err["detail"]


def _no_work(*args):
    raise AssertionError("a refused command must not start its work")


def test_ci_cap_on_m(monkeypatch, capsys):
    cap = MAX_M["ci"]
    code, report = run_json("ci", "n=%d" % cap)
    assert code == EXIT_OK and report["dimension"] == cap
    monkeypatch.setattr(cli, "hilbert_poly_hrr", _no_work)
    assert "m <= %d" % cap in _refused(capsys, "ci", "n=%d" % (cap + 1))
    assert "m <= %d" % cap in _refused(capsys, "ci", "n=%d" % (cap + 3), "degrees=2,2")


def test_ci_cap_on_series_degree(monkeypatch, capsys):
    code, report = run_json("ci", "n=2", "degrees=%d" % (MAX_SERIES_DEGREE + 1))
    assert code == EXIT_OK and report["agreement"] is True
    monkeypatch.setattr(cli, "hilbert_poly_hrr", _no_work)
    _refused(capsys, "ci", "n=2", "degrees=%d" % (MAX_SERIES_DEGREE + 2))
    # a degree that no list could hold
    _refused(capsys, "ci", "n=1", "degrees=%d" % 10 ** 30)


def test_characters_cap_on_m(monkeypatch, capsys):
    cap = MAX_M["characters"]
    code, report = run_json("characters", "n=%d" % cap)
    assert code == EXIT_OK and report["characters"] == {"[]": 1}
    monkeypatch.setattr(cli, "character_table", _no_work)
    _refused(capsys, "characters", "n=%d" % (cap + 1))


def test_delta_cap_on_m(monkeypatch, capsys):
    cap = MAX_M["delta"]
    args = "m=%d" % cap, "k=%d" % cap, "n=%d" % cap
    code, report = run_json("delta", *args)
    assert code == EXIT_OK and report["entries"] == [{"mu": [], "value": "1"}]
    monkeypatch.setattr(cli, "delta_table", _no_work)
    _refused(capsys, "delta", "m=%d" % (cap + 1), "k=%d" % (cap + 1), "n=%d" % (cap + 1))


def test_ci_cap_on_delta_table_pairs(monkeypatch, capsys):
    # the pairs counted for all the tables of one m: 20 529 at
    # `ci n=21 degrees=2` (m = 20), 49 934 with a second quadric (m = 19)
    code, report = run_json("ci", "n=21", "degrees=2")
    assert code == EXIT_OK and report["agreement"] is True
    monkeypatch.setattr(cli, "hilbert_poly_hrr", _no_work)
    monkeypatch.setattr(cli, "character_table", _no_work)
    monkeypatch.setattr(cli, "delta_table", _no_work)
    for degrees, pairs in (("2,2", 49934), ("2,2,2", 70890)):
        detail = _refused(capsys, "ci", "n=21", "degrees=" + degrees)
        assert "at most %d delta-table pairs, got %d" % (MAX_DELTA_PAIRS, pairs) in detail


def test_delta_cap_on_delta_table_pairs(monkeypatch, capsys):
    code, report = run_json("delta", "m=20", "k=0", "n=21")
    assert code == EXIT_OK and len(report["entries"]) == 21
    monkeypatch.setattr(cli, "delta_table", _no_work)
    detail = _refused(capsys, "delta", "m=20", "k=0", "n=40")
    assert "at most %d delta-table pairs" % MAX_DELTA_PAIRS in detail
    # a table past the cap only by its width n - m: 41 748 pairs at m = 17
    assert "got 41748" in _refused(capsys, "delta", "m=17", "k=0", "n=%d" % 10 ** 30)


def test_todd_cap_on_m(monkeypatch, capsys):
    cap = MAX_M["todd"]
    code, report = run_json("todd", str(cap))
    assert code == EXIT_OK and report["m"] == cap
    # at c_1 = t and c_j = 0 for j > 1 (a line bundle) T_m is b_m t^m
    todd = cli.parse_poly(report["todd"], tuple("c%d" % i for i in range(1, cap + 1)))
    assert todd.terms[(cap,) + (0,) * (cap - 1)] == b_sequence(cap)[cap]
    monkeypatch.setattr(cli, "todd_poly", _no_work)
    assert "m <= %d" % cap in _refused(capsys, "todd", str(cap + 1))
    _refused(capsys, "todd", str(10 ** 30))


def test_reduce_sat_cap_on_variables(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "sat_to_ideal", _no_work)
    cnf = tmp_path / "big.cnf"
    for num_vars in (BRUTEFORCE_MAX_VARS + 1, 4000, 10 ** 30):
        cnf.write_text("p cnf %d 0\n" % num_vars)
        detail = _refused(capsys, "reduce-sat", str(cnf))
        assert "at most %d variables, got %d" % (BRUTEFORCE_MAX_VARS, num_vars) in detail


def test_reduce_sat_cap_on_clause_expansion(tmp_path, monkeypatch, capsys):
    # one clause of 16 positive literals would expand to 2^16 terms
    built = []
    real = MultiPoly.__init__
    monkeypatch.setattr(MultiPoly, "__init__",
                        lambda self, *args: built.append(1) or real(self, *args))
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 16 1\n%s 0\n" % " ".join(str(i) for i in range(1, 17)))
    detail = _refused(capsys, "reduce-sat", str(cnf))
    assert "16 positive literals" in detail and "at most 2^%d" % MAX_CLAUSE_POSITIVES in detail
    assert built == []


# -- fuzzing the closed-form commands

_INTS = st.one_of(st.integers(-3, 7),
                  st.sampled_from([MAX_M["ci"] + 1, MAX_M["characters"] + 1,
                                   10 ** 6, -10 ** 6, 10 ** 30]))
_JUNK = st.sampled_from(["", "x", "1,,2", "1e3", "-0", "+3", " 3", "0x10", "3_0",
                         "=", "n", "[1]", "1/2", "nan", "-", ",", "\u0663"])
_VALUES = st.one_of(_INTS.map(str), _JUNK,
                    st.lists(_INTS, max_size=4).map(lambda ds: ",".join(map(str, ds))))


def _params(keys):
    pair = st.tuples(st.sampled_from(keys), _VALUES).map("=".join)
    return st.lists(st.one_of(pair, _JUNK), max_size=4)


_ARGV = st.one_of(
    st.tuples(st.just(["ci"]), _params(["n", "degrees", "m"])),
    st.tuples(st.just(["characters"]), _params(["n", "degrees", "k"])),
    st.tuples(st.just(["delta"]), _params(["m", "k", "n", "degrees"])),
    st.tuples(st.just(["todd"]), st.lists(st.one_of(_INTS.map(str), _JUNK), max_size=2)),
).map(lambda parts: parts[0] + parts[1])


def _documented_outcome(argv):
    """main(argv) with stdout and stderr captured.  It must exit 0 with
    a report on stdout and nothing on stderr, or exit 2, 3 or 4 with
    nothing on stdout and a JSON error of its code on stderr; exit 2
    with a disagreement report fails.  Returns the code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event("exit %d" % code)
    assert code in (EXIT_OK, EXIT_DISAGREE, EXIT_RESOURCE, EXIT_PARSE)
    if code == EXIT_OK:
        assert out.getvalue() and err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())["error"]
        assert error in {EXIT_DISAGREE: ("cross-check",), EXIT_RESOURCE: ("resource-cap",),
                         EXIT_PARSE: ("parse", "input")}[code]
    return code, out.getvalue()


@given(_ARGV, st.sampled_from([[], ["--output", "text"], ["--seed", "-2"]]))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_closed_form_commands_never_raise(argv, options):
    code, out = _documented_outcome(options + argv)
    if code == EXIT_OK and not options:
        json.loads(out)


# -- fuzzing trans and the polynomial parsers

_IDEAL_TEXTS = st.one_of(
    st.sampled_from([
        CONIC, NODE, TWISTED_CUBIC, "vars: x0 x1 x2 x3\nx0*x3 - x1*x2\n",
        "vars: x0 x1 x2\nx2\n", "vars: x0 x1 x2\nx0^2\n", "vars: x0 x1 x2\n",
        "vars: x0 x1 x2\nx0\nx1\nx2\n", "vars: x0\n", "vars: x y z\nx*z - y^2\n",
        "vars: x0 x1 x2\nx0*x2 - x1\n", "vars: x0 x1 x2\nx0^200*x1\n",
        "vars: x0 x1 x2\n0\n", "vars: x0 x0\nx0\n", "", "x0*x1\n",
        "vars: x0 x1\n1/0*x0\n", "vars: x0 x1 x2\nx0**x1\n"]),
    st.text(alphabet=" x012^*/+-\n#", max_size=30).map(lambda t: "vars: x0 x1 x2\n" + t),
)
_COORD = st.one_of(st.integers(-3, 3).map(str),
                   st.sampled_from(["1/2", "-2/3", "1/0", "", "1.5", "x", " 1", "+1",
                                    "1e3", "nan", "9" * 5000, "\u0663"]))
_POINTS = st.one_of(
    st.sampled_from(["1,1,1", "0,0,1", "1,2,4", "1,1,1,1", "1,2,4,8", "1,2,3,6",
                     "0,0,0", "1", "1,1", "2,-2,-2"]),
    st.lists(_COORD, max_size=5).map(",".join))
_SMALL_PARTITIONS = st.sampled_from(["[]", "[1]", "[1,1]", "[2]", "[2,1]", "[2,2]"])
_PARTITIONS = st.one_of(_SMALL_PARTITIONS,
                        st.sampled_from(["[5]", "[0]", "[1", "1", "[-1]", "[1,2]", ""]))
# varieties with a zero of each, so that some runs reach a verdict
_ZEROS = st.sampled_from([
    (CONIC, "1,1,1"), (CONIC, "4,-2,1"), (NODE, "0,0,1"), (NODE, "1,0,-1"),
    (TWISTED_CUBIC, "1,2,4,8"), (TWISTED_CUBIC, "0,0,0,1"),
    ("vars: x0 x1 x2 x3\nx0*x3 - x1*x2\n", "1,2,3,6"),
    ("vars: x0 x1 x2\n", "1,-1,2"), ("vars: x0 x1 x2\nx2\n", "1,4,0")])


def _integer_flags(k):
    """k x k basis matrices of small integers, singular ones included."""
    rows = st.lists(st.integers(-2, 2).map(str), min_size=k, max_size=k).map(" ".join)
    return st.lists(rows, min_size=k, max_size=k).map("\n".join)


_FLAG_TEXTS = st.one_of(
    st.sampled_from([CONIC_TANGENT_FLAG, "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
                     "1 2 0\n2 4 0\n0 0 1\n", "# empty\n", "1 0\n0 1\n", "1\n"]),
    st.integers(3, 4).flatmap(_integer_flags),
    st.lists(st.lists(_COORD, min_size=3, max_size=4).map(" ".join),
             min_size=3, max_size=4).map("\n".join))
# a zero of the variety, a small partition and a flag of the right size:
# runs that get as far as a report
_COHERENT = _ZEROS.flatmap(lambda zero: st.tuples(
    st.just(zero[0]), st.just(zero[1]), _SMALL_PARTITIONS,
    st.one_of(st.none(), _integer_flags(len(zero[1].split(",")))),
    st.sampled_from([[], ["--m", "1"]])))
_ANY = st.tuples(_IDEAL_TEXTS, _POINTS, _PARTITIONS, st.one_of(st.none(), _FLAG_TEXTS),
                 st.sampled_from([[], ["--m", "1"], ["--m", "2"], ["--m", "-1"],
                                  ["--m", "9"]]))


@given(st.one_of(_COHERENT, _ANY), st.sampled_from([[], ["--seed", "3"], ["--output", "text"]]))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_trans_never_raises(tmp_path_factory, case, options):
    ideal, point, partition, flag, m = case
    folder = tmp_path_factory.mktemp("trans")
    (folder / "v.ideal").write_text(ideal)
    argv = ["--max-basis", "40", "--max-degree", "12", *options,
            "trans", str(folder / "v.ideal"), point, partition, *m]
    if flag is not None:
        (folder / "f.flag").write_text(flag)
        argv += ["--flag", str(folder / "f.flag")]
    code, out = _documented_outcome(argv)
    if code == EXIT_OK and (not options or options[0] != "--output"):
        json.loads(out)


_POLY_ALPHABET = " xy0123^*/+-"


@given(st.text(alphabet=_POLY_ALPHABET + "\n#:vars", max_size=60))
@settings(max_examples=300, deadline=None)
def test_ideal_file_parser_raises_only_value_errors(text):
    from hilbertpoly.grobner import parse_ideal_file

    for candidate in (text, "vars: x0 x1 y\n" + text):
        try:
            ideal = parse_ideal_file(candidate)
        except ValueError:
            continue
        assert all(g.variables == ideal.variables for g in ideal.generators)


@given(st.text(alphabet=_POLY_ALPHABET, max_size=40),
       st.sampled_from([("x0", "x1"), ("x0", "x1", "y"), ("x0", "x1", "x2", "x3", "y")]))
@settings(max_examples=300, deadline=None)
def test_poly_parser_raises_only_value_errors(text, variables):
    from hilbertpoly.arith import parse_poly

    try:
        poly = parse_poly(text, variables)
    except ValueError:
        return
    # the text format round-trips
    assert parse_poly(poly.to_text(), poly.variables) == poly


# -- fuzzing reduce-sat and the DIMACS parser

def _clause_lines(n):
    """Lines of literals of n variables (0 ends a clause), most of them
    with the closing 0."""
    line = st.tuples(st.lists(st.integers(-n, n).map(str), max_size=4),
                     st.sampled_from([" 0", " 0", "", "0"]))
    return line.map(lambda t: " ".join(t[0]) + t[1])


_JUNK_LINE = st.sampled_from(["x", "1 x 0", "--1 0", "1.0 0", "9" * 5000 + " 0", "\u0663 0",
                              "+2 0", "5 0", "c comment", "%", "-", "0 0 0"])
_SIZED_CNF = st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just("p cnf %d 0" % n),
    st.lists(st.one_of(_clause_lines(n), _clause_lines(n), _JUNK_LINE), max_size=5)))
_ODD_CNF = st.tuples(
    st.sampled_from(["p cnf -3 0", "p cnf -0 0", "p cnf %d 0" % (BRUTEFORCE_MAX_VARS + 1),
                     "p cnf 4000 0", "p cnf %d 0" % 10 ** 30, "p cnf 10**30 0", "p cnf 3",
                     "p dnf 3 0", "p cnf x 0", "p cnf 3 2 0", "", "c only"]),
    st.lists(st.one_of(_clause_lines(3), _JUNK_LINE), max_size=3))
# DIMACS-shaped texts: a header, then mostly clause lines
_CNF = st.one_of(_SIZED_CNF, _SIZED_CNF, _ODD_CNF).map(
    lambda parts: "\n".join([parts[0], *parts[1]]) + "\n")


@given(st.one_of(_CNF, st.text(alphabet=" \n0123456789-+pcnf%x", max_size=60)))
@settings(max_examples=300, deadline=None)
def test_dimacs_parser_raises_only_value_errors(text):
    try:
        phi = parse_dimacs(text)
    except ValueError:
        return
    assert phi.num_vars >= 0
    assert all(0 < abs(lit) <= phi.num_vars for clause in phi.clauses for lit in clause)
    # the normalised formula round-trips through the text format
    assert parse_dimacs(dimacs_text(phi)) == phi


@given(_CNF, st.sampled_from([[], ["--output", "text"], ["--max-basis", "3"]]))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_reduce_sat_never_raises(tmp_path_factory, text, options):
    # every report must agree: a disagreement report (exit 2 with output)
    # fails in _documented_outcome, as exit 2 may only come with the
    # cross-check error
    path = tmp_path_factory.mktemp("sat") / "f.cnf"
    path.write_text(text)
    code, out = _documented_outcome(options + ["reduce-sat", str(path)])
    if code == EXIT_OK and options[:1] != ["--output"]:
        assert json.loads(out)["agree"] is True


# -- fuzzing hilbert, membership and count

_SAT_IDEAL = ("vars: x0 x1 x2 x3\nx1^2 - x0*x1\nx2^2 - x0*x2\nx3^2 - x0*x3\n"
              "x0^2*x3 - x0*x2*x3 - x0*x1*x3 + x1*x2*x3\nx1*x2\n")
_GROBNER_IDEAL_TEXTS = st.one_of(
    _IDEAL_TEXTS,
    st.sampled_from([_SAT_IDEAL, "vars: x y\nx^2 - 1\ny^3 - y\n", "vars: x y\nx*y\n",
                     "vars: x y\nx\nx + 1\n", "vars: x0 x1 x2\nx0^3 + x1^3 + x2^3\n",
                     "vars: x0 x1 x2\nx0^2 + x1*x2\nx1^3 - x0*x2^2\nx2^4 - x0*x1^3\n",
                     "vars: x0 x1\n1\n", "vars: x0 x1\nx0 - 1\n"]),
    st.lists(st.text(alphabet="x012^*+- ", min_size=1, max_size=12), min_size=1, max_size=3)
    .map(lambda lines: "vars: x0 x1 x2\n" + "\n".join(lines) + "\n"))
_MEMBERS = st.one_of(
    st.sampled_from(["x0^2*x2 - x0*x1^2", "x0*x1", "x1^2 - x0*x1", "0", "1", "x0 + 1",
                     "-x0", "x9", "", "x0^", "x^2 - 1", "x0^200", "1/0*x0"]),
    st.text(alphabet="x012^*+- ", max_size=12))


@given(st.one_of(
    st.tuples(st.just("hilbert"), _GROBNER_IDEAL_TEXTS, st.just([])),
    st.tuples(st.just("count"), _GROBNER_IDEAL_TEXTS, st.just([])),
    st.tuples(st.just("membership"), _GROBNER_IDEAL_TEXTS, _MEMBERS.map(lambda p: [p]))),
    st.sampled_from([[], ["--output", "text"], ["--seed", "5"], ["--max-basis", "3"]]))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_grobner_commands_never_raise(tmp_path_factory, case, options):
    command, text, rest = case
    path = tmp_path_factory.mktemp(command) / "f.ideal"
    path.write_text(text)
    code, out = _documented_outcome(["--max-basis", "40", "--max-degree", "12", *options,
                                     command, str(path), *rest])
    if code == EXIT_OK and options[:1] != ["--output"]:
        report = json.loads(out)
        if command == "membership":
            assert report["agreement"] is True


def test_hilbert_caps_on_a_sat_ideal_file(tmp_path, capsys):
    # hilbert picks grevlex with x0 last for a SAT ideal; --max-basis
    # and --max-degree bound the run under that order
    cnf, ideal = tmp_path / "f.cnf", tmp_path / "f.ideal"
    cnf.write_text("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 -3 -4 0\n")
    code, report = run_json("reduce-sat", str(cnf), "--out", str(ideal))
    assert code == EXIT_OK and report["agree"] is True
    code, hilbert = run_json("hilbert", str(ideal))
    assert code == EXIT_OK
    assert hilbert["hilbert_polynomial"]["text"] == str(report["count_bruteforce"])
    for cap in (["--max-basis", "3"], ["--max-degree", "2"]):
        code, out = run_cli(*cap, "hilbert", str(ideal))
        assert code == EXIT_RESOURCE and out == ""
        assert json.loads(capsys.readouterr().err)["error"] == "resource-cap"
