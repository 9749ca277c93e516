"""Partition combinatorics and Schubert indexing.

Partitions are weakly decreasing tuples of positive integers (trailing
zeros are normalized away).  Jump sequences translate admissible
partitions into the strictly increasing dimension-jump positions used
for Schubert cells in the Grassmannian of m-planes in P^n.
"""

from __future__ import annotations

import re
from functools import lru_cache

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


def enumerate_partitions(size, max_part=None, max_len=None, containing=None):
    """All partitions of `size` under the given constraints.

    Deterministic lexicographic-descending order, e.g. (3) > (2,1) > (1,1,1).
    With `containing` = mu, part i starts at mu_i and leaves room for
    the parts of mu below it, so no partition is built to be dropped.
    """
    if max_part is None:
        max_part = size
    if max_len is None:
        max_len = size
    floor = containing.parts if containing is not None else ()
    # tail[i] = mu_{i+1} + mu_{i+2} + ..., what parts i+1, ... still owe mu
    tail = [sum(floor[i:]) for i in range(len(floor) + 1)]
    out = []

    def rec(remaining, bound, prefix):
        i = len(prefix)
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if i >= max_len:
            return
        lo = -(-remaining // (max_len - i))  # smallest feasible next part
        if i < len(floor):
            lo = max(lo, floor[i])
            hi = min(bound, remaining - tail[i + 1])
        else:
            hi = min(bound, remaining)
        for p in range(hi, max(lo, 1) - 1, -1):
            rec(remaining - p, p, prefix + [p])

    if size == 0:
        if not floor:
            out.append(Partition())
    elif tail[0] <= size:
        rec(size, max_part, [])
    return out


@lru_cache(maxsize=None)
def partitions_in_strip(size, width):
    """enumerate_partitions(size, max_part=width) as a tuple, memoised:
    the mu of a delta table or a character table of that width."""
    return tuple(enumerate_partitions(size, max_part=width))


@lru_cache(maxsize=None)
def _nested(size, a, b):
    """Pairs (lam, mu), mu inside lam, with |lam| = size, lam_1 <= a and
    mu_1 <= b."""
    if size == 0:
        return 1
    if a == 0:
        return 0
    # either lam_1 < a, or lam_1 = a above a first row mu_1 = q <= min(a, b)
    total = _nested(size, a - 1, b)
    if a <= size:
        total += sum(_nested(size - a, a, q) for q in range(min(a, b) + 1))
    return total


def count_nested_pairs(size, width):
    """The number of pairs (lam, mu) of partitions with |lam| = size,
    mu inside lam and mu_1 <= width, by a recursion on the first rows
    that lists no partition."""
    if size < 0 or width < 0:
        return 0
    return _nested(size, size, min(width, size))
