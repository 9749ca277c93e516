"""Partition combinatorics and Schubert indexing.

Partitions are weakly decreasing tuples of positive integers (trailing
zeros are normalized away).  Jump sequences translate admissible
partitions into the strictly increasing dimension-jump positions used
for Schubert cells in the Grassmannian of m-planes in P^n.
"""

from __future__ import annotations

import re

from .arith import CrossCheckFailed


class Partition:
    """Immutable integer partition."""

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if parts and parts[-1] < 0:
            raise ValueError("parts must be natural numbers")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def part(self, i):
        """1-based part access, zero beyond the length."""
        if i < 1:
            raise IndexError("parts are 1-indexed")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def conjugate(self):
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other):
        """True when other fits inside self componentwise (zero-padded)."""
        n = max(self.length, other.length)
        return all(other.part(i) <= self.part(i) for i in range(1, n + 1))

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def parse_partition(text):
    """Parse the bracket syntax, e.g. ``[3,1]``; ``[]`` is empty."""
    s = "".join(text.split())
    if not re.fullmatch(r"\[(\d+(,\d+)*)?\]", s):
        raise ValueError("bad partition syntax %r" % text)
    inner = s[1:-1]
    return Partition(int(p) for p in inner.split(",")) if inner else Partition()


def is_admissible(lam, n, m):
    """Fits in the (m+1) x (n-m) rectangle: length <= m+1 and lam_1 <= n-m."""
    if m > n:
        raise ValueError("need m <= n")
    return lam.length <= m + 1 and lam.part(1) <= n - m


def jumps(lam, n, m):
    """Jump sequence sigma_i = n-m+i-lam_{i+1} for 0 <= i <= m."""
    if not is_admissible(lam, n, m):
        raise ValueError("partition %s is not admissible for (n,m)=(%d,%d)" % (lam, n, m))
    sigma = tuple(n - m + i - lam.part(i + 1) for i in range(m + 1))
    if not all(sigma[i] < sigma[i + 1] for i in range(m)):
        raise CrossCheckFailed("jump sequence %s is not increasing" % (sigma,))
    return sigma


def partition_from_jumps(sigma, n, m):
    """Inverse of jumps."""
    return Partition(sorted((n - m + i - sigma[i] for i in range(m + 1)), reverse=True))


def enumerate_partitions(size, max_part=None, max_len=None, containing=None):
    """All partitions of `size` under the given constraints.

    Deterministic lexicographic-descending order, e.g. (3) > (2,1) > (1,1,1).
    """
    if max_part is None:
        max_part = size
    if max_len is None:
        max_len = size
    out = []

    def rec(remaining, bound, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if len(prefix) >= max_len:
            return
        lo = -(-remaining // (max_len - len(prefix)))  # smallest feasible next part
        for p in range(min(bound, remaining), max(lo, 1) - 1, -1):
            rec(remaining - p, p, prefix + [p])

    if size == 0:
        out.append(Partition())
    else:
        rec(size, max_part, [])
    if containing is not None:
        out = [lam for lam in out if lam.contains(containing)]
    return out
