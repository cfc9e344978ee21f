"""The two typed set partition enumerators behind the Hom-space oracle.

A typed set partition of a finite set splits it into unordered blocks,
each block typed by an entry of sigma of the block's size.  Hom bases
(`brauer.hom_basis`) read them from a smallest-element recursion and
weight-space bases (`oracles.weight_space_basis`) from the multiset of
block types.  The two algorithms are kept apart on purpose: each basis is
C(n, m) m! relabellings of the decorated block tuples of an (n-m)-set
from its own enumerator, so the step-1 oracle compares the two bases by
counting those tuples.  This module reads nothing but `combinat`, so the
oracle runs without the diagram and realization layers.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod

from .combinat import PartitionTuple, specht_dim


def typed_set_partitions(sigma: PartitionTuple, elements: tuple[int, ...]):
    """All ways to split `elements` into blocks typed by entries of sigma.

    Yields tuples of (support, type_index); blocks are unordered, which the
    recursion enforces by always placing the smallest remaining element.
    """
    if not elements:
        yield ()
        return
    first = elements[0]
    rest = elements[1:]
    for p, shape in enumerate(sigma):
        k = shape.size
        if k - 1 > len(rest):
            continue
        for others in combinations(rest, k - 1):
            support = (first,) + others
            remaining = tuple(x for x in rest if x not in others)
            for tail in typed_set_partitions(sigma, remaining):
                yield ((support, p),) + tail


def typed_partitions_by_counts(sigma: PartitionTuple, elements: tuple[int, ...]):
    """Partitions of `elements` into typed supports, driven by the multiset
    of types: first choose how many blocks of each type, then assign
    supports smallest-element first."""
    total = len(elements)
    sizes = [p.size for p in sigma]

    def count_vectors(p: int, remaining: int):
        if p == len(sigma):
            if remaining == 0:
                yield ()
            return
        for c in range(remaining // sizes[p] + 1):
            for rest in count_vectors(p + 1, remaining - c * sizes[p]):
                yield (c,) + rest

    def assign(remaining: tuple[int, ...], counts: list[int]):
        if not remaining:
            yield ()
            return
        first = remaining[0]
        rest = remaining[1:]
        for p in range(len(sigma)):
            if counts[p] == 0 or sizes[p] - 1 > len(rest):
                continue
            counts[p] -= 1
            for others in combinations(rest, sizes[p] - 1):
                support = (first,) + others
                left = tuple(x for x in rest if x not in others)
                for tail in assign(left, counts):
                    yield ((support, p),) + tail
            counts[p] += 1

    for counts in count_vectors(0, total):
        yield from assign(elements, list(counts))


def decorated_blocks(enumerate_typed, sigma: PartitionTuple, k: int) -> list:
    """The decorated block tuples of {0..k-1}: each typed set partition that
    `enumerate_typed` (one of the two enumerators above) yields, in its
    order, with each block given a basis polytabloid index of its type, as
    (support, type index, basis index) triples ordered by support minimum."""
    return [tuple((s, p, t) for (s, p), t in zip(typed, ix))
            for typed in enumerate_typed(sigma, tuple(range(k)))
            for ix in product(*(range(specht_dim(sigma[p])) for _, p in typed))]


def decorated_count(enumerate_typed, sigma: PartitionTuple, k: int) -> int:
    """The length of `decorated_blocks(enumerate_typed, sigma, k)` with no
    block tuple built: the sum, over the typed set partitions, of the
    product of the Specht dimensions of their block types."""
    dims = [specht_dim(shape) for shape in sigma]
    return sum(prod(dims[p] for _, p in typed) for typed in enumerate_typed(sigma, tuple(range(k))))
