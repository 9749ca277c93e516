"""Executable counting reductions: #SAT instances as homogeneous ideals
whose Hilbert polynomial is the model count, and the brute-force count
they are checked against.  Ideal membership via Hilbert-polynomial
comparison is grobner.membership_via_hilbert.

DIMACS normalization: duplicate literals inside a clause are collapsed
and tautological clauses are dropped on ingestion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .arith import MultiPoly
from .grobner import HomIdeal, ResourceCapExceeded


@dataclass(frozen=True)
class CnfFormula:
    """CNF with 1-based signed literal encoding (DIMACS style)."""

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("number of variables must be >= 0, got %d" % self.num_vars)
        norm = []
        for clause in self.clauses:
            lits = []
            seen = set()
            for lit in clause:
                lit = int(lit)
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError("literal %d out of range" % lit)
                if lit in seen:
                    continue
                seen.add(lit)
                lits.append(lit)
            if any(-lit in seen for lit in lits):
                continue  # tautological clause
            norm.append(tuple(lits))
        object.__setattr__(self, "clauses", tuple(norm))

    def satisfied_by(self, assignment):
        """assignment: bitmask with bit i-1 = value of variable i."""
        for clause in self.clauses:
            if not any(((assignment >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0)
                       for l in clause):
                return False
        return True


def parse_dimacs(text):
    num_vars = None
    clauses = []
    current = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) < 4 or fields[1] != "cnf":
                raise ValueError("bad DIMACS header %r" % line)
            num_vars = int(fields[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if num_vars is None:
        raise ValueError("missing DIMACS 'p cnf' header")
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


# a clause of k positive literals expands to 2^k terms; sat_to_ideal
# refuses k above this, 4096 terms, before it forms any product
MAX_CLAUSE_POSITIVES = 12


def sat_to_ideal(phi):
    """Homogeneous ideal in x0..xn whose projective zero set is in
    bijection with the satisfying assignments of phi.

    Generators: x_i^2 - x_i x_0 for every variable, plus the fully
    expanded homogenized clause products (x0 - x_i for a positive
    literal, x_i for a negative one).  The Jacobian of the square
    relations makes the rank condition hold with m = 0 at every zero.
    A clause of more than MAX_CLAUSE_POSITIVES positive literals raises
    ResourceCapExceeded before anything is built.
    """
    for clause in phi.clauses:
        positives = sum(lit > 0 for lit in clause)
        if positives > MAX_CLAUSE_POSITIVES:
            raise ResourceCapExceeded(
                "a clause of %d positive literals expands to 2^%d terms; at most 2^%d"
                % (positives, positives, MAX_CLAUSE_POSITIVES))
    n = phi.num_vars
    variables = tuple("x%d" % i for i in range(n + 1))
    gens = []
    for i in range(1, n + 1):
        sq = tuple(2 if j == i else 0 for j in range(n + 1))
        mixed = tuple(1 if j in (0, i) else 0 for j in range(n + 1))
        gens.append(MultiPoly(variables, {sq: 1, mixed: -1}))
    for clause in phi.clauses:
        # the product of x0 - x_i over the p positive literals, expanded
        # by the subset S of them that gives -x_i: the term
        # (-1)^|S| x0^(p - |S|) prod_S x_i, times the negative literals'
        # x_i; a variable occurs once in a clause, so no terms combine
        positives = [lit for lit in clause if lit > 0]
        base = [0] * (n + 1)
        for lit in clause:
            if lit < 0:
                base[-lit] = 1
        terms = {}
        for size in range(len(positives) + 1):
            for chosen in itertools.combinations(positives, size):
                exp = base[:]
                exp[0] = len(positives) - size
                for i in chosen:
                    exp[i] = 1
                terms[tuple(exp)] = -1 if size % 2 else 1
        gens.append(MultiPoly(variables, terms))
    return HomIdeal.from_polys(variables, gens)


# the most variables count_sat_bruteforce enumerates
BRUTEFORCE_MAX_VARS = 24


def count_sat_bruteforce(phi):
    """Exhaustive model count; refuses instances of more than
    BRUTEFORCE_MAX_VARS variables."""
    if phi.num_vars > BRUTEFORCE_MAX_VARS:
        raise ValueError("instance too large for exhaustive counting")
    return sum(1 for mask in range(1 << phi.num_vars) if phi.satisfied_by(mask))
