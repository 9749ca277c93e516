"""Exact computation of Hilbert polynomials of projective varieties by
independent, cross-validated routes, plus the Schubert/transversality
and counting-reduction machinery around them.

Modules
-------
arith           exact multivariate and univariate polynomials over Q
linalg          exact rational linear algebra
partitions      partitions, jump sequences, nested-pair counts
symfun          Delta determinants, the Todd recurrence over any ring,
                delta tables
grobner         Buchberger bases, Hilbert series/polynomials, zero counting,
                membership via Hilbert data
chern           complete-intersection Chern classes as integer tuples,
                the Todd class and characters
transversality  Schubert cells, charts, and the tangency rank tests
reductions      #SAT encodings and the brute-force model count
cli             batch command-line front end
"""

from .arith import MultiPoly, UniPoly, parse_poly
from .partitions import Partition, parse_partition

__all__ = [
    "MultiPoly",
    "UniPoly",
    "parse_poly",
    "Partition",
    "parse_partition",
]
