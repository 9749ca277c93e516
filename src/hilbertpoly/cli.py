"""Batch command-line front end.

Every command emits a deterministic report (JSON by default, plain text
with --output text); the seed is always echoed.  Reports carrying more
than one computation route include an ``agreement`` field, and any
disagreement turns into exit status 2.

Exit codes: 0 ok, 2 cross-route disagreement, 3 resource cap hit, 4
parse or input error.  Usage errors (an unknown command, a missing
argument, a key=value key given twice, a negative cap) are parse
errors, with the JSON error "parse" on stderr; --help exits 0.  An
input that parses but that the command is not defined on (InputError:
an inhomogeneous ideal for hilbert, membership or trans, a constant or
inhomogeneous membership polynomial, a trans point that is the zero
vector or no zero of the system, a negative todd m) also exits 4, with
the JSON error "input".  A failed internal cross-check
(CrossCheckFailed) also exits 2, with the JSON error "cross-check" on
stderr and no report.  The closed-form commands ci,
characters, delta and todd refuse an m above MAX_M, ci and delta more
than MAX_DELTA_PAIRS pairs of delta-table work, ci a series degree above
MAX_SERIES_DEGREE, and reduce-sat a formula of more than
BRUTEFORCE_MAX_VARS variables or with a clause of more than
MAX_CLAUSE_POSITIVES positive literals, before doing any work: exit 3,
with the JSON error "resource-cap".  So does trans for an input
polynomial of degree above --max-degree; without --m it takes the
dimension from the Hilbert polynomial, under both Groebner caps.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .arith import CrossCheckFailed, InputError, PolyParseError, parse_poly
# grobner, the largest module, first: compiled while the fewest other
# objects are held, it keeps the import's peak memory low
from .grobner import (
    INFINITE,
    ResourceCapExceeded,
    count_zero_dim,
    hilbert_data,
    in_ideal,
    membership_via_hilbert,
    parse_ideal_file,
    ideal_file_text,
)
from .chern import (
    CompleteIntersection,
    character_table,
    ci_hilbert_series_oracle,
    euler_top,
    hilbert_poly_from_characters,
    hilbert_poly_hrr,
)
from .partitions import parse_partition
from .reductions import (
    BRUTEFORCE_MAX_VARS,
    count_sat_bruteforce,
    parse_dimacs,
    sat_to_ideal,
)
from .symfun import delta_table, delta_table_pairs, scaling_factor, todd_poly
from .transversality import (
    Flag,
    InputInstance,
    random_flag,
    transversality_report,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_RESOURCE = 3
EXIT_PARSE = 4

# The largest m each closed-form command accepts: the dimension n - r
# for ci and characters, the argument m for delta and todd.  Processor
# times at the cap, Python 3.11 on one core of a shared 2-core host:
# `ci n=21 degrees=2` 2.4 s; `delta m=20 k=0 n=21` 0.6 s;
# `characters` with r >= m = 30 3.2 s; `todd 20` 0.5 s, where
# todd_poly(24) alone takes about 3 s.  ci builds every delta table of
# its m, so delta shares its cap, and todd takes the same one.
MAX_M = {"ci": 20, "characters": 30, "delta": 20, "todd": 20}

# The most pairs (lam, mu) of delta-table work that ci (all the tables
# k = 0..m of its m and n) and delta (one table) take on, counted by
# delta_table_pairs before any table is built: the cost of ci and delta
# at a fixed m grows with n - m, which MAX_M leaves open.  The cost of
# a pair grows with m.  Allowed: `ci n=21 degrees=2` (20 529 pairs)
# 2.4 s, `delta m=20 k=0 n=22` (19 503) 2.0-2.9 s.  Refused: `ci n=21
# degrees=2,2` (49 934) took 5.5 s, `delta m=20 k=0 n=40` (156 264)
# 34 s and `ci` of 20 quadrics in P^40 (433 333) 87 s.
MAX_DELTA_PAIRS = 25000

# The largest degree sum(d_i - 1) of the numerator prod(1 + t + ... +
# t^(d_i - 1)) that ci's series route expands densely; a degree 10^30
# would not fit in a list.  `ci n=21 degrees=1001` takes 2.1 s.
MAX_SERIES_DEGREE = 1000


class CliParseError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error by raising CliParseError, so that main
    exits with the parse code instead of argparse's exit status 2."""

    def error(self, message):
        raise CliParseError(message)


def _cap(text):
    """A resource cap: a natural number."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected a natural number, got %r" % text)
    return int(text)


def _poly_report(p):
    return {
        "text": p.to_text(),
        "coefficients": [str(p.coefficient(k)) for k in range(max(p.degree, 0) + 1)],
        "degree": p.degree,
    }


def _parse_kv(tokens, spec, required=()):
    """Parse positional key=value tokens against {key: converter}; a
    key given twice is refused."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise CliParseError("expected key=value, got %r" % tok)
        key, _, value = tok.partition("=")
        if key not in spec:
            raise CliParseError("unknown key %r" % key)
        if key in out:
            raise CliParseError("repeated key %r" % key)
        out[key] = spec[key](value)
    for key in required:
        if key not in out:
            raise CliParseError("missing required key %r" % key)
    return out


def _check_m(command, m):
    if m > MAX_M[command]:
        raise ResourceCapExceeded("%s needs m <= %d, got %d" % (command, MAX_M[command], m))


def _check_pairs(command, pairs):
    if pairs > MAX_DELTA_PAIRS:
        raise ResourceCapExceeded("%s needs at most %d delta-table pairs, got %d"
                                  % (command, MAX_DELTA_PAIRS, pairs))


def _degrees(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(d) for d in text.split(","))


def _caps(args):
    """The Groebner caps of the command line, as keyword arguments."""
    return {"max_basis": args.max_basis, "max_degree": args.max_degree}


def _read(path):
    with open(path) as fh:
        return fh.read()


def _emit(report, args):
    report = {"schema": SCHEMA, "seed": args.seed, **report}
    if args.output == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for key in sorted(report):
            print("%s: %s" % (key, json.dumps(report[key], sort_keys=True)))
    return report


def cmd_hilbert(args):
    ideal = parse_ideal_file(_read(args.ideal))
    if not ideal.homogeneous:
        raise InputError("ideal file contains inhomogeneous polynomials")
    data = hilbert_data(ideal, **_caps(args))
    p = data.hilbert_polynomial
    m = p.degree
    report = {
        "hilbert_polynomial": _poly_report(p),
        "index_of_regularity": data.index_of_regularity,
        "projective_dimension": m,
    }
    if m >= 0:
        report["geometric_degree"] = str(math.factorial(m) * p.coefficient(m))
        report["arithmetic_genus"] = str((-1) ** m * (p.coefficient(0) - 1))
    _emit(report, args)
    return EXIT_OK


def _character_map(table):
    return {str(mu): value for mu, value in sorted(
        table.items(), key=lambda kv: (kv[0].size, kv[0].parts))}


def cmd_ci(args):
    kv = _parse_kv(args.params, {"n": int, "degrees": _degrees}, required=("n",))
    ci = CompleteIntersection(kv["n"], kv.get("degrees", ()))
    _check_m("ci", ci.m)
    series_degree = sum(d - 1 for d in ci.degrees)
    if series_degree > MAX_SERIES_DEGREE:
        raise ResourceCapExceeded("ci needs sum(d_i - 1) <= %d, got %d"
                                  % (MAX_SERIES_DEGREE, series_degree))
    _check_pairs("ci", sum(delta_table_pairs(ci.m, k, ci.n) for k in range(ci.m + 1)))
    hrr = hilbert_poly_hrr(ci)
    table = character_table(ci)
    chars = hilbert_poly_from_characters(ci.m, ci.n, table)
    oracle = ci_hilbert_series_oracle(ci)
    agree = hrr == chars == oracle
    report = {
        "n": ci.n,
        "degrees": list(ci.degrees),
        "dimension": ci.m,
        "hilbert_hrr": _poly_report(hrr),
        "hilbert_characters": _poly_report(chars),
        "hilbert_series": _poly_report(oracle),
        "characters": _character_map(table),
        "euler_top": euler_top(ci),
        "agreement": agree,
    }
    _emit(report, args)
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_characters(args):
    kv = _parse_kv(args.params, {"n": int, "degrees": _degrees}, required=("n",))
    ci = CompleteIntersection(kv["n"], kv.get("degrees", ()))
    _check_m("characters", ci.m)
    _emit({"n": ci.n, "degrees": list(ci.degrees),
           "characters": _character_map(character_table(ci))}, args)
    return EXIT_OK


def cmd_delta(args):
    kv = _parse_kv(args.params, {"m": int, "k": int, "n": int},
                   required=("m", "k", "n"))
    _check_m("delta", kv["m"])
    _check_pairs("delta", delta_table_pairs(kv["m"], kv["k"], kv["n"]))
    N = scaling_factor(kv["k"], kv["m"])
    entries = [{"mu": list(mu.parts), "value": str(Fraction(value, N))}
               for mu, value in sorted(delta_table(kv["m"], kv["k"], kv["n"]),
                                       key=lambda entry: (entry[0].size, entry[0].parts))]
    _emit({"m": kv["m"], "k": kv["k"], "n": kv["n"], "entries": entries}, args)
    return EXIT_OK


def cmd_todd(args):
    if args.m < 0:
        raise InputError("todd needs m >= 0, got %d" % args.m)
    _check_m("todd", args.m)
    _emit({"m": args.m, "todd": todd_poly(args.m).to_text()}, args)
    return EXIT_OK


def cmd_reduce_sat(args):
    phi = parse_dimacs(_read(args.cnf))
    if phi.num_vars > BRUTEFORCE_MAX_VARS:
        raise ResourceCapExceeded("reduce-sat needs at most %d variables, got %d"
                                  % (BRUTEFORCE_MAX_VARS, phi.num_vars))
    ideal = sat_to_ideal(phi)
    brute = count_sat_bruteforce(phi)
    data = hilbert_data(ideal, **_caps(args))
    constant = data.hilbert_polynomial.coefficient(0)
    hilbert_count = int(constant) if constant.denominator == 1 else None
    affine = [g.set_variable("x0", 1) for g in ideal.generators]
    zero_dim = count_zero_dim(affine, nvars=phi.num_vars, **_caps(args))
    agree = (data.hilbert_polynomial.degree <= 0
             and hilbert_count == brute and zero_dim == brute)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(ideal_file_text(ideal))
    report = {
        "num_vars": phi.num_vars,
        "num_clauses": len(phi.clauses),
        "count_bruteforce": brute,
        "hilbert_constant": hilbert_count,
        "zero_dim_count": zero_dim if zero_dim != INFINITE else "INFINITE",
        "agree": agree,
        "ideal_file": args.out,
    }
    _emit(report, args)
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_membership(args):
    ideal = parse_ideal_file(_read(args.ideal))
    g = parse_poly(args.poly, ideal.variables)
    # membership_via_hilbert checks g and the ideal before any Groebner run
    via_hilbert = membership_via_hilbert(ideal, g, **_caps(args))
    direct = in_ideal(g, ideal, **_caps(args))
    agree = direct == via_hilbert
    _emit({"poly": g.to_text(), "in_ideal": direct,
           "him_decide": via_hilbert, "agreement": agree}, args)
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_count(args):
    ideal = parse_ideal_file(_read(args.ideal))
    count = count_zero_dim(list(ideal.generators), **_caps(args))
    _emit({"count": count if count != INFINITE else "INFINITE"}, args)
    return EXIT_OK


def _rational(token):
    """A rational written p or p/q."""
    text = token.strip()
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise CliParseError("expected a rational p or p/q, got %r" % token)
    num, _, den = text.partition("/")
    if den and not int(den):
        raise CliParseError("zero denominator in %r" % token)
    return Fraction(int(num), int(den or 1))


def _read_flag(path, n):
    """Flag from a file of n+1 lines of n+1 rationals: the rows of the
    basis matrix, whose column j spans F_j.  Blank lines and # comments
    are skipped."""
    lines = [ln.split() for ln in _read(path).splitlines()]
    rows = [[_rational(tok) for tok in ln] for ln in lines if ln and not ln[0].startswith("#")]
    if len(rows) != n + 1 or any(len(row) != n + 1 for row in rows):
        raise CliParseError("flag file needs %d lines of %d rationals" % (n + 1, n + 1))
    return Flag.from_basis(rows)


def cmd_trans(args):
    ideal = parse_ideal_file(_read(args.instance))
    n = len(ideal.variables) - 1
    degree = max((max(g.degrees()) for g in ideal.generators), default=0)
    if degree > args.max_degree:
        raise ResourceCapExceeded("input degree %d exceeds %d" % (degree, args.max_degree))
    x = tuple(_rational(tok) for tok in args.point.split(","))
    if len(x) != n + 1:
        raise CliParseError("point has %d coordinates, expected %d" % (len(x), n + 1))
    mu = parse_partition(args.partition)
    flag = _read_flag(args.flag, n) if args.flag else random_flag(n, args.seed)
    # the dimension of the variety: n - rank J(x) is that of the tangent
    # space at x, which is larger at a singular point
    m = args.m if args.m is not None else hilbert_data(
        ideal, **_caps(args)).hilbert_polynomial.degree
    inst = InputInstance(polys=ideal.generators, n=n, m=m)
    report = transversality_report(inst, x, flag, mu)
    out = {
        "n": n, "m": m, "mu": str(mu),
        "flag": {"source": "file" if args.flag else "seed", "file": args.flag,
                 "basis": [[str(v) for v in row] for row in flag.basis]},
        "point": [str(v) for v in report["point"]],
        "smooth": report["smooth"],
        "on_cell": report["on_cell"],
        "chart": None if report["chart"] is None else
            [[str(v) for v in row] for row in report["chart"]],
        "span_dim": report["span_dim"],
        "needed": report["needed"],
        "transversal": report["transversal"],
    }
    _emit(out, args)
    return EXIT_OK


def _minus_is_positional(p):
    """Let the subparser p read an argument with one leading minus, such
    as the polynomial -x0^2 or the point -1,-1,-1, as positional, with or
    without a -- before it.  argparse reads an argument that starts with
    a minus sign as an option unless it looks like a negative number;
    every option of p but -h, which argparse matches exactly first,
    starts with --."""
    p._negative_number_matcher = re.compile(r"^-[^-]")
    return p


def build_parser():
    parser = _ArgumentParser(
        prog="hilbertpoly",
        allow_abbrev=False,
        description="Hilbert polynomials by cross-validated routes, "
                    "Schubert transversality tests, and #SAT reductions.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-basis", type=_cap, default=5000)
    parser.add_argument("--max-degree", type=_cap, default=120)
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert data of an ideal file")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("ci", help="three-route report for a complete intersection")
    p.add_argument("params", nargs="+", metavar="key=value")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("characters", help="projective character table")
    p.add_argument("params", nargs="+", metavar="key=value")
    p.set_defaults(func=cmd_characters)

    p = sub.add_parser("delta", help="delta coefficient table")
    p.add_argument("params", nargs="+", metavar="key=value")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("todd", help="Todd polynomial in c1..cm")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_todd)

    p = sub.add_parser("reduce-sat", help="CNF to ideal with verification report")
    p.add_argument("cnf")
    p.add_argument("--out", default=None, help="write the ideal file here")
    p.set_defaults(func=cmd_reduce_sat)

    p = _minus_is_positional(
        sub.add_parser("membership", help="dual-oracle ideal membership"))
    p.add_argument("ideal")
    p.add_argument("poly")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("count", help="number of affine zeros (or INFINITE)")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_count)

    p = _minus_is_positional(
        sub.add_parser("trans", help="transversality verdict at a point"))
    p.add_argument("instance")
    p.add_argument("point", help="comma-separated rational coordinates")
    p.add_argument("partition", help="partition like [1]")
    p.add_argument("--m", type=int, default=None,
                   help="dimension of the variety (default: the degree of "
                        "its Hilbert polynomial)")
    p.add_argument("--flag", default=None, metavar="FILE",
                   help="basis matrix of the flag, one row per line "
                        "(default: a flag drawn from --seed)")
    p.set_defaults(func=cmd_trans)

    return parser


@lru_cache(maxsize=None)
def _parser():
    # parse_args keeps no state in the parser: every call starts from a
    # fresh Namespace, so one parser serves every main() of a process
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ResourceCapExceeded as exc:
        print(json.dumps({"schema": SCHEMA, "error": "resource-cap",
                          "detail": str(exc)}), file=sys.stderr)
        return EXIT_RESOURCE
    except CrossCheckFailed as exc:
        print(json.dumps({"schema": SCHEMA, "error": "cross-check",
                          "detail": str(exc)}), file=sys.stderr)
        return EXIT_DISAGREE
    except InputError as exc:
        print(json.dumps({"schema": SCHEMA, "error": "input",
                          "detail": str(exc)}), file=sys.stderr)
        return EXIT_PARSE
    except (CliParseError, PolyParseError, ValueError, OSError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": "parse",
                          "detail": str(exc)}), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
