"""Tensorial forms on k^N and the integer column format of their movers.

A form for a pure tuple sigma is one linear functional on the realization
of each generator Schur functor, stored as its values at the realization
basis.  This module reads nothing but `combinat`, so the stabilizer side
loads it without the realization layers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .combinat import PartitionTuple, schur_dim


def _check_rank(N) -> int:
    N = int(N)
    if N < 0:
        raise ValueError(f"the rank must be non-negative, got {N}")
    return N


class FormPoint:
    """A form on k^N for the tuple sigma: for each entry one linear
    functional on the corresponding Schur functor realization, stored as
    the row of its values at the basis b_j = vec / den_j of `TensorRep`."""

    __slots__ = ("sigma", "N", "comps", "_tilde", "_functionals")

    def __init__(self, sigma, N: int, comps):
        self.sigma = PartitionTuple(sigma)
        if not self.sigma.pure:
            raise ValueError("a form needs a pure tuple")
        self.N = _check_rank(N)
        comps = tuple(tuple(Fraction(c) for c in row) for row in comps)
        if len(comps) != len(self.sigma):
            raise ValueError("need exactly one component per entry of sigma")
        for p, row in enumerate(comps):
            if len(row) != schur_dim(self.sigma[p], self.N):
                raise ValueError(
                    f"component {p} must have length {schur_dim(self.sigma[p], self.N)}"
                )
        self.comps = comps
        self._tilde = [None] * len(comps)
        self._functionals: dict[tuple[int, int], dict] = {}

    def __eq__(self, other):
        return (
            isinstance(other, FormPoint)
            and self.sigma == other.sigma
            and self.N == other.N
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.sigma, self.N, self.comps))

    def __repr__(self):
        return f"FormPoint(sigma={self.sigma!s}, N={self.N})"


def random_form(sigma, N: int, seed: int) -> FormPoint:
    """Seeded random integer form; entries uniform in [-5, 5]."""
    rng = random.Random(seed)
    sigma = PartitionTuple(sigma)
    N = _check_rank(N)
    comps = [
        [rng.randint(-5, 5) for _ in range(schur_dim(p, N))] for p in sigma
    ]
    return FormPoint(sigma, N, comps)


def integer_columns(rows) -> tuple[int, dict[int, dict[int, int]]]:
    """A square rational matrix g as `modcat.moved_values` reads it:
    g = G / den with den > 0 least, and {k: {i: G[i][k]}} over the nonzero
    entries of the columns k that differ from den e_k (letters 1-indexed)."""
    den = lcm(*(x.denominator for row in rows for x in row))
    cols = ({i: int(x * den) for i, x in enumerate(c, 1) if x} for c in zip(*rows))
    return den, {k: col for k, col in enumerate(cols, 1) if col != {k: den}}
