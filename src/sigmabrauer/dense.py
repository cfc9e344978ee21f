"""Dense rational matrices on the integer elimination core.

`RatMat` stores a matrix as rows of Fractions.  `rank`,
`kernel_basis_with_free`, `solve` ([A | b]) and `inverse` ([A | I]) feed
one row builder, `_integer_rows`, to `exactla._eliminate`: `rank`
counts the pivots of the echelon form, and the other three read the
reduced row echelon form, so the coordinates of a kernel vector are its
entries in the free columns.  No finite-rank path of the package builds
a `RatMat`: `solve` serves forms solved from prescribed values, and the
rest serves the tests and the reference operations.  Every public name
here is also read as an `exactla` attribute.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactla import _eliminate, _primitive


def _to_fraction_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    # Fractions are immutable and already normalised: share them, since
    # every matrix operation builds a new RatMat from existing entries
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
    )


class RatMat:
    """Immutable matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        data = _to_fraction_rows(data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix data does not match declared shape")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls(n, n, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMat":
        zero = Fraction(0)
        return cls(rows, cols, [[zero] * cols for _ in range(rows)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RatMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"RatMat({self.rows}x{self.cols})"

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def transpose(self) -> "RatMat":
        return RatMat(self.cols, self.rows, list(zip(*self.data)) if self.data else [])

    def __add__(self, other: "RatMat") -> "RatMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return RatMat(
            self.rows,
            self.cols,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other: "RatMat") -> "RatMat":
        return self + other.scale(-1)

    def scale(self, c) -> "RatMat":
        c = Fraction(c)
        return RatMat(self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in self.data
        )

    def __matmul__(self, other: "RatMat") -> "RatMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in multiplication")
        bt = other.transpose().data
        return RatMat(
            self.rows,
            other.cols,
            [
                [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in bt]
                for row in self.data
            ],
        )

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))

    def kron(self, other: "RatMat") -> "RatMat":
        """Kronecker product; `self` indexes the major blocks."""
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                out.append(
                    [
                        self.data[i][j] * other.data[k][l]
                        for j in range(self.cols)
                        for l in range(other.cols)
                    ]
                )
        return RatMat(self.rows * other.rows, self.cols * other.cols, out)


def vstack(ms: list[RatMat]) -> RatMat:
    if not ms:
        raise ValueError("cannot stack an empty list without a column count")
    cols = ms[0].cols
    if any(m.cols != cols for m in ms):
        raise ValueError("column counts differ in vertical stack")
    data = [row for m in ms for row in m.data]
    return RatMat(len(data), cols, data)


def _integer_rows(m: RatMat, extra=None) -> list[dict[int, int]]:
    """The nonzero rows of m as sparse primitive integer rows: each row's
    nonzero entries (column -> value), with those of extra[i] (columns
    past m's) appended to row i when `extra` is given, denominators
    cleared and content divided out.  Scaling a row changes no rank,
    kernel or RREF."""
    out = []
    for i, row in enumerate(m.data):
        entries = {c: x for c, x in enumerate(row) if x}
        if extra is not None:
            entries.update((c, x) for c, x in extra[i].items() if x)
        if entries:
            scale = lcm(*(x.denominator for x in entries.values()))
            ints = {c: x.numerator * (scale // x.denominator) for c, x in entries.items()}
            out.append(_primitive(ints))
    return out


def rank(m: RatMat) -> int:
    """Rank over Q: the number of pivot rows of the echelon form."""
    return len(_eliminate(_integer_rows(m), reduced=False))


def kernel_basis_with_free(m: RatMat) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Basis of the right null space, plus the free columns.

    Each basis vector carries the standard RREF structure: it equals 1 in
    its own free column and 0 in every other free column, so the
    coordinates of any vector in the kernel with respect to this basis
    are literally its entries at the free columns.
    """
    reduced = _eliminate(_integer_rows(m), reduced=True)
    pivots = {c for c, _ in reduced}
    free = [c for c in range(m.cols) if c not in pivots]
    zero = Fraction(0)
    vecs = {f: [zero] * m.cols for f in free}
    for f, v in vecs.items():
        v[f] = Fraction(1)
    for c, row in reduced:
        p = row[c]
        for k, x in row.items():
            if k != c:
                vecs[k][c] = Fraction(-x, p)
    return [tuple(vecs[f]) for f in free], free


def solve(m: RatMat, rhs) -> tuple[Fraction, ...] | None:
    """One exact solution of m x = rhs, or None when inconsistent.

    Reduces [m | rhs]; the free unknowns are set to 0."""
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    n = m.cols
    x = [Fraction(0)] * n
    for c, row in _eliminate(_integer_rows(m, [{n: Fraction(v)} for v in rhs]), reduced=True):
        if c == n:
            return None
        x[c] = Fraction(row.get(n, 0), row[c])
    return tuple(x)


def inverse(m: RatMat) -> RatMat:
    """The inverse of a square matrix: [m | I] reduced to [I | m^-1]."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    reduced = _eliminate(_integer_rows(m, [{n + i: 1} for i in range(n)]), reduced=True)
    if [c for c, _ in reduced] != list(range(n)):
        raise ValueError("matrix is singular")
    zero = Fraction(0)
    out = []
    for c, row in reduced:
        line = [zero] * n
        for k, x in row.items():
            if k >= n:
                line[k - n] = Fraction(x, row[c])
        out.append(line)
    return RatMat(n, n, out)
