"""Partitions, tuples of partitions, and the dimension formulas built on them.

The text grammar used across the CLI and all JSON payloads is fixed
here: a partition is its comma-separated parts ("2,1"), the empty
partition is "0" (also accepted: the empty string), and a tuple of
partitions joins its entries with "|" (e.g. "2|1,1").
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from math import comb, factorial


class PreconditionError(ValueError):
    """A documented precondition was violated (as opposed to a check failing)."""


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; () is the empty partition."""

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts  # immutable, so a partition converts to itself
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(tuple(sum(1 for p in self if p > j) for j in range(self[0])))

    def cells(self):
        """Yield the (row, col) cells of the Young diagram, 0-indexed."""
        for i, p in enumerate(self):
            for j in range(p):
                yield i, j

    def contains(self, other: "Partition") -> bool:
        if len(other) > len(self):
            return False
        return all(other[i] <= self[i] for i in range(len(other)))

    def hook(self, i: int, j: int) -> int:
        conj = self.conjugate()
        return (self[i] - j) + (conj[j] - i) - 1

    def __repr__(self):
        return f"Partition({tuple(self)})"

    def __str__(self):
        return format_partition(self)


class PartitionTuple(tuple):
    """An ordered tuple of partitions."""

    def __new__(cls, entries=()):
        if type(entries) is cls:
            return entries
        return super().__new__(cls, (Partition(e) for e in entries))

    @property
    def pure(self) -> bool:
        """True when no entry is the empty partition."""
        return all(len(p) > 0 for p in self)

    def __repr__(self):
        return f"PartitionTuple({[tuple(p) for p in self]})"

    def __str__(self):
        return format_tuple(self)


@total_ordering
class Magnitude:
    """Counting vector (n0, n1, ...) of a tuple, under lexicographic order.

    n_i is the number of entries of size i; trailing zeros are trimmed so
    equality of magnitudes is equality of the underlying counts.
    """

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = list(int(c) for c in counts)
        if any(c < 0 for c in counts):
            raise ValueError("magnitude counts must be non-negative")
        while counts and counts[-1] == 0:
            counts.pop()
        self.counts = tuple(counts)

    def _padded(self, n: int) -> tuple[int, ...]:
        return self.counts + (0,) * (n - len(self.counts))

    def __eq__(self, other):
        return isinstance(other, Magnitude) and self.counts == other.counts

    def __lt__(self, other):
        n = max(len(self.counts), len(other.counts))
        return self._padded(n) < other._padded(n)

    def __hash__(self):
        return hash(self.counts)

    def __repr__(self):
        return f"Magnitude({self.counts})"


def magnitude(t: PartitionTuple) -> Magnitude:
    """The magnitude of a tuple: counts of entries of each size."""
    if not t:
        return Magnitude(())
    top = max(p.size for p in t)
    counts = [0] * (top + 1)
    for p in t:
        counts[p.size] += 1
    return Magnitude(counts)


# ---------------------------------------------------------------------------
# text grammar


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p) if p else "0"


def parse_partition(s: str) -> Partition:
    s = s.strip()
    if s in ("", "0", "∅"):
        return Partition()
    try:
        parts = tuple(int(x) for x in s.split(","))
    except ValueError as e:
        raise ValueError(f"cannot parse partition {s!r}") from e
    return Partition(parts)


def format_tuple(t: PartitionTuple) -> str:
    return "|".join(format_partition(p) for p in t)


def parse_tuple(s: str) -> PartitionTuple:
    s = s.strip()
    if s == "":
        return PartitionTuple(())
    return PartitionTuple(tuple(parse_partition(tok) for tok in s.split("|")))


# ---------------------------------------------------------------------------
# dimensions


@lru_cache(maxsize=None)
def specht_dim(p: Partition) -> int:
    """Number of standard Young tableaux of shape p (hook length formula)."""
    p = Partition(p)
    n = p.size
    denom = 1
    for i, j in p.cells():
        denom *= p.hook(i, j)
    d, rem = divmod(factorial(n), denom)
    if rem:
        raise RuntimeError("hook length product does not divide n!")
    return d


def hom_dim(sigma, n: int, m: int) -> int:
    """The dimension of Hom([n], [m]) in the downwards category of sigma,
    the count C(n, m) m! B_(n-m), B_k the decorated block tuples of a k-set:
    B_k = sum_p dim S^(sigma_p) C(k-1, |sigma_p|-1) B_(k-|sigma_p|), B_0 = 1."""
    sigma = PartitionTuple(sigma)
    if not sigma.pure:
        raise ValueError("sigma must be pure")
    if m < 0 or n < 0 or m > n:
        return 0
    B = [1]
    for k in range(1, n - m + 1):
        B.append(sum(specht_dim(s) * comb(k - 1, s.size - 1) * B[k - s.size]
                     for s in sigma if s.size <= k))
    return comb(n, m) * factorial(m) * B[n - m]


@lru_cache(maxsize=None)
def schur_dim(p: Partition, n: int) -> int:
    """Dimension of the Schur functor for p evaluated on an n-dimensional space.

    Hook content formula; returns 0 when p has more than n rows.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    p = Partition(p)
    if len(p) > n:
        return 0
    num = 1
    den = 1
    for i, j in p.cells():
        num *= n + j - i
        den *= p.hook(i, j)
    d, rem = divmod(num, den)
    if rem:
        raise RuntimeError("hook product does not divide the content product")
    return d


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n))


def partitions_upto(n: int) -> tuple[Partition, ...]:
    """All partitions of size at most n, ordered by size then descending lex."""
    out: list[Partition] = []
    for k in range(n + 1):
        out.extend(partitions(k))
    return tuple(out)


def subpartitions(p: Partition) -> tuple[Partition, ...]:
    """All partitions whose Young diagram fits inside that of p."""

    def gen(i: int, cap: int):
        if i == len(p):
            yield ()
            return
        for part in range(min(cap, p[i]), 0, -1):
            for rest in gen(i + 1, part):
                yield (part,) + rest
        yield ()

    return tuple(Partition(q) for q in gen(0, p[0] if p else 0))
