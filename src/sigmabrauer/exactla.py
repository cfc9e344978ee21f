"""Exact linear algebra over the rationals: the sparse integer core.

Everything in this package reduces to rank/kernel computations over Q.
Every elimination goes through one fraction-free core, `_eliminate`, on
sparse integer rows: a row is a dict from column to nonzero integer,
with its denominators cleared and the gcd of its entries divided out
(`_primitive`), so no Fraction is built inside the loop and entries stay
small.  The finite-rank engine builds its own rows and calls the core
directly.  The dense rational layer (`RatMat`, `rank`, `solve`,
`inverse`, `kernel_basis_with_free`, `vstack` and their row builder)
lives in `dense`, on top of this core.  Its public names are read here
through the module `__getattr__`, so a job that eliminates only its own
sparse rows never loads it; its private helpers are read only there.
"""

from __future__ import annotations

from math import gcd

# The names `dense` defines, served from here on first read.
_DENSE = ("RatMat", "rank", "solve", "inverse", "kernel_basis_with_free", "vstack")


def __getattr__(name: str):
    if name in _DENSE:
        from . import dense

        return getattr(dense, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a nonzero integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g != 1:
        row = {c: x // g for c, x in row.items()}
    return row


def _clear(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """a*row - b*prow with the smallest a > 0, b that clear column c, made
    primitive (empty when the result is zero).  Neither argument is
    changed.  Every reader takes a row only up to sign, so the sign of a
    is free, and a == 1 (the common case) needs a copy, not a scaling."""
    a, b = prow[c], row[c]
    g = gcd(a, b)
    if a < 0:
        g = -g
    a, b = a // g, b // g
    new = row.copy() if a == 1 else {k: a * x for k, x in row.items()}
    for k, y in prow.items():
        v = new.get(k, 0) - b * y
        if v:
            new[k] = v
        else:
            del new[k]
    return _primitive(new) if new else new


def _eliminate(rows: list[dict[int, int]], reduced: bool) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free Gaussian elimination on sparse primitive integer rows.

    Returns the pivot rows as (pivot column, row) by increasing pivot
    column.  Pivot columns are taken strictly left to right: the rows
    whose leading column is the current one are all cleared there by the
    sparsest of them, which becomes the pivot row.  With `reduced` every
    pivot column is then also cleared from the rows above it, so that
    row / row[pivot] is the canonical reduced row echelon form whatever
    rows were chosen as pivots.
    """
    pending: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        pending.setdefault(min(row), []).append(row)
    echelon = []
    while pending:
        c = min(pending)
        group = pending.pop(c)
        prow = min(group, key=len)
        for row in group:
            if row is not prow:
                new = _clear(row, prow, c)
                if new:
                    pending.setdefault(min(new), []).append(new)
        echelon.append((c, prow))
    if reduced:
        done: dict[int, dict[int, int]] = {}
        for i in reversed(range(len(echelon))):
            c, row = echelon[i]
            # the rows below are reduced and hold no pivot column but their
            # own, so clearing one pivot column brings in no other
            for k in [k for k in row if k in done]:
                row = _clear(row, done[k], k)
            done[c] = row
            echelon[i] = (c, row)
    return echelon
