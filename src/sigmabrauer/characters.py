"""Irreducible symmetric group characters by the Murnaghan-Nakayama rule.

A shape is keyed by its beta-set (first-column hook lengths), and a
character value at a cycle type is a signed sum over the border strips
of the first cycle length (Macdonald, Symmetric Functions and Hall
Polynomials, I.7).  This module reads nothing but `combinat`, so the
character side (`symfun`) loads it without the Specht module layer.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial

from .combinat import Partition


def beta_set(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The first-column hook lengths of a partition, decreasing; the last
    is its last part, so a nonempty beta-set never ends in 0."""
    return tuple(p + len(lam) - 1 - j for j, p in enumerate(lam))


@lru_cache(maxsize=None)
def mn_character(beta: tuple[int, ...], cls: tuple[int, ...]) -> int:
    """Irreducible symmetric group character value at cycle type `cls`
    (a tuple of parts, largest first) for the shape with beta-set `beta`,
    by the Murnaghan-Nakayama rule: a border strip of length cls[0] moves
    one entry b to a free b - cls[0], with the sign of the number of
    entries it passes.  A beta-set ending in 0 drops it and lowers the
    rest by one, so each shape has one key."""
    if not cls:
        return 1
    m, rest = cls[0], cls[1:]
    total = 0
    for j, b in enumerate(beta):
        nb = b - m
        if nb < 0:
            break
        k = j + 1
        while k < len(beta) and beta[k] > nb:
            k += 1
        if k < len(beta) and beta[k] == nb:
            continue
        new = beta[:j] + beta[j + 1 : k] + (nb,) + beta[k:]
        while new and not new[-1]:
            new = tuple(x - 1 for x in new[:-1])
        value = mn_character(new, rest)
        total += -value if (k - j) % 2 == 0 else value
    return total


def sn_character(lam: Partition, cls: Partition) -> int:
    """Irreducible symmetric group character value, by border strip removal
    on first-column hook lengths (`mn_character`)."""
    lam, cls = Partition(lam), Partition(cls)
    if lam.size != cls.size:
        raise ValueError("partition and cycle type must have equal size")
    return mn_character(beta_set(lam), tuple(cls))


def centralizer_size(cls: Partition) -> int:
    """z_cls = prod_k k^(m_k) m_k!, where m_k counts the parts equal to k;
    the conjugacy class of cycle type cls has |cls|!/z_cls elements."""
    z = 1
    for part, k in Counter(Partition(cls)).items():
        z *= part**k * factorial(k)
    return z
