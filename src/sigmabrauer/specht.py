"""Specht modules over Q on arbitrary ordered label sets.

The basis is the set of standard polytabloids, indexed by standard
Young tableaux with entries from the label set, listed in lexicographic
order of their row reading words.  A polytabloid of a non-standard
tableau is rewritten into this basis in two moves: sorting the columns
(which only changes the sign) and Garnir relations.  The Garnir step at
a row descent T[i][j] > T[i][j+1] takes A = the entries of column j
from row i down, B = the entries of column j+1 from the top down to row
i, and rewrites e_T against all other ways of splitting A u B into a
column-j part and a column-j+1 part, each kept increasing; the signs
are the parities of the induced rearrangements.  All structure
constants are integers.  Permutations act only through straightening:
`act`, `generator_matrices` and `check_specht_action` read
`straighten_relabelled`, the straightened polytabloid of a relabelled
basis tableau, and no action matrix is kept.  The irreducible
characters live in the leaf module `characters`, which the character
side loads without this one.  The reference operations on the symmetric
group (`relabel`, cycle types, class representatives, plain changes and
isotypic projectors) live in `oracles`.  `relabel` and
`isotypic_projector` are also read here through the module
`__getattr__`, the others only there; `exactla` is read as a module
attribute, so straightening loads neither.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import exactla
from .combinat import Partition, specht_dim

# The reference operations `oracles` defines, served from here on first read.
_ORACLES = ("isotypic_projector", "relabel")


def __getattr__(name: str):
    if name in _ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# permutations (as dicts label -> label, or one-line tuples for S_n work)


def _cycle_lengths(one_line: tuple[int, ...]) -> list[int]:
    """The lengths of the cycles of a 0-indexed one-line permutation."""
    seen = [False] * len(one_line)
    lens = []
    for i in range(len(one_line)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = one_line[j]
            clen += 1
        lens.append(clen)
    return lens


def perm_sign(one_line: tuple[int, ...]) -> int:
    return -1 if (len(one_line) - len(_cycle_lengths(one_line))) % 2 else 1


def _parity_of_rearrangement(old: tuple, new: tuple) -> int:
    """Sign of the permutation carrying the tuple `old` to `new`."""
    pos = {v: k for k, v in enumerate(old)}
    return perm_sign(tuple(pos[v] for v in new))


# ---------------------------------------------------------------------------
# tableaux


def standard_tableaux(shape: Partition, labels: tuple[int, ...]):
    """All standard Young tableaux of the given shape on the given labels."""
    shape = Partition(shape)
    labels = tuple(sorted(labels))
    if shape.size != len(labels):
        raise ValueError("label count must equal the size of the shape")
    if shape.size == 0:
        return [()]
    rows = len(shape)
    out = []
    filling = [[None] * shape[i] for i in range(rows)]
    row_fill = [0] * rows  # cells filled so far in each row

    def rec(k: int):
        if k == len(labels):
            out.append(tuple(tuple(row) for row in filling))
            return
        for i in range(rows):
            j = row_fill[i]
            if j >= shape[i]:
                continue
            if i > 0 and row_fill[i - 1] <= j:
                continue  # cell above not filled yet
            filling[i][j] = labels[k]
            row_fill[i] += 1
            rec(k + 1)
            row_fill[i] -= 1
            filling[i][j] = None

    rec(0)
    out.sort(key=lambda t: tuple(x for row in t for x in row))
    return out


def _columns(tab) -> list[list]:
    if not tab:
        return []
    ncols = len(tab[0])
    return [[row[j] for row in tab if len(row) > j] for j in range(ncols)]


def _from_columns(cols, shape) -> tuple:
    return tuple(
        tuple(cols[j][i] for j in range(shape[i])) for i in range(len(shape))
    )


class SpechtVector:
    """Coordinates of an element in the standard polytabloid basis."""

    __slots__ = ("module", "coords")

    def __init__(self, module: "SpechtModule", coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != module.dim:
            raise ValueError("coordinate length does not match the basis size")
        self.module = module
        self.coords = coords

    def __eq__(self, other):
        return (
            isinstance(other, SpechtVector)
            and self.module is other.module
            and self.coords == other.coords
        )

    def __add__(self, other):
        if other.module is not self.module:
            raise ValueError("vectors live in different modules")
        return SpechtVector(self.module, [a + b for a, b in zip(self.coords, other.coords)])

    def scale(self, c):
        c = Fraction(c)
        return SpechtVector(self.module, [c * x for x in self.coords])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"SpechtVector({self.module.shape!s}, {self.coords})"


class SpechtModule:
    """The Specht module for `shape` on an ordered set of integer labels."""

    def __init__(self, shape, labels):
        self.shape = Partition(shape)
        self.labels = tuple(sorted(int(x) for x in labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if self.shape.size != len(self.labels):
            raise ValueError("label count must equal the size of the shape")
        self.tableaux = standard_tableaux(self.shape, self.labels)
        self.index = {t: k for k, t in enumerate(self.tableaux)}
        self.dim = len(self.tableaux)
        if self.dim != specht_dim(self.shape):
            raise RuntimeError("standard tableau count differs from the hook length formula")
        self._straighten_cache: dict[tuple, dict[int, int]] = {}

    # -- straightening ------------------------------------------------------

    def straighten(self, tab) -> dict[int, int]:
        """Expand the polytabloid of an arbitrary bijective filling.

        Returns a map basis index -> integer coefficient.
        """
        tab = tuple(tuple(row) for row in tab)
        cached = self._straighten_cache.get(tab)
        if cached is not None:
            return cached

        # sort columns; only the sign changes
        cols = _columns(tab)
        sign = 1
        sorted_cols = []
        for col in cols:
            sc = sorted(col)
            sign *= _parity_of_rearrangement(tuple(col), tuple(sc))
            sorted_cols.append(sc)
        stab = _from_columns(sorted_cols, self.shape)

        violation = None
        for i, row in enumerate(stab):
            for j in range(len(row) - 1):
                if row[j] > row[j + 1]:
                    violation = (i, j)
                    break
            if violation:
                break

        if violation is None:
            result = {self.index[stab]: sign}
            self._straighten_cache[tab] = result
            return result

        i, j = violation
        col_j = sorted_cols[j]
        col_j1 = sorted_cols[j + 1]
        a_part = tuple(col_j[i:])
        b_part = tuple(col_j1[: i + 1])
        pool = sorted(a_part + b_part)
        old_seq = a_part + b_part

        acc: dict[int, int] = {}
        for new_a in combinations(pool, len(a_part)):
            if new_a == a_part:
                continue
            rest = list(pool)
            for x in new_a:
                rest.remove(x)
            new_b = tuple(rest)
            tau_sign = _parity_of_rearrangement(old_seq, new_a + new_b)
            new_cols = [list(c) for c in sorted_cols]
            new_cols[j][i:] = list(new_a)
            new_cols[j + 1][: i + 1] = list(new_b)
            sub = self.straighten(_from_columns(new_cols, self.shape))
            for idx, c in sub.items():
                acc[idx] = acc.get(idx, 0) - tau_sign * c
        result = {idx: sign * c for idx, c in acc.items() if c != 0}
        self._straighten_cache[tab] = result
        return result

    def polytabloid(self, tab) -> SpechtVector:
        coords = [Fraction(0)] * self.dim
        for idx, c in self.straighten(tab).items():
            coords[idx] = Fraction(c)
        return SpechtVector(self, coords)

    # -- group action -------------------------------------------------------

    def act(self, perm: dict, v: SpechtVector) -> SpechtVector:
        """The image of v under a permutation of the labels: `relabel` onto
        the module's own labels."""
        from .oracles import relabel

        if v.module is not self:
            raise ValueError("vector does not belong to this module")
        if set(perm.keys()) != set(self.labels) or set(perm.values()) != set(self.labels):
            raise ValueError("permutation must move exactly the module labels")
        return relabel(v, perm)

    def generator_matrices(self) -> list[exactla.RatMat]:
        """Action matrices of the adjacent transpositions of the label order:
        column t is the straightened image of the basis polytabloid t."""
        gens = []
        for a, b in zip(self.labels, self.labels[1:]):
            swap = {a: b, b: a}
            data = [[0] * self.dim for _ in range(self.dim)]
            for t, tab in enumerate(self.tableaux):
                for s, c in straighten_relabelled(self, tab, swap).items():
                    data[s][t] = c
            gens.append(exactla.RatMat(self.dim, self.dim, data))
        return gens

    def __repr__(self):
        return f"SpechtModule({self.shape!s}, labels={self.labels})"


@lru_cache(maxsize=None)
def get_specht_module(shape: Partition, labels: tuple[int, ...]) -> SpechtModule:
    return SpechtModule(Partition(shape), tuple(labels))


def straighten_relabelled(target: SpechtModule, tab, mapping: dict) -> dict[int, int]:
    """The polytabloid of `tab` with each label x read as mapping[x] (labels
    the map leaves out stay), straightened in `target`: a map basis index
    -> integer coefficient."""
    return target.straighten(tuple(tuple(mapping.get(x, x) for x in row) for row in tab))


def check_specht_action(family, module: SpechtModule, move, what: str):
    """Exact check that the adjacent transpositions act on a family of
    sparse integer rows (dicts from keys to nonzero ints; a family over one
    common denominator is checked on its rows) as on the polytabloids of
    `module`: for every k and t, family[t] with each key w replaced by
    move(k, w) equals sum_t' M[t'][t] family[t'], where column t of M is the
    integer straightening of s_k e_t, so no matrix is built.  Raises
    RuntimeError naming `what` otherwise."""
    labels = module.labels
    for k in range(len(labels) - 1):
        swap = {labels[k]: labels[k + 1], labels[k + 1]: labels[k]}
        for tab, vec in zip(module.tableaux, family):
            moved = {move(k, w): c for w, c in vec.items()}
            combo: dict = {}
            for s, x in straighten_relabelled(module, tab, swap).items():
                for w, c in family[s].items():
                    combo[w] = combo.get(w, 0) + x * c
            if {w: c for w, c in combo.items() if c} != moved:
                raise RuntimeError(f"{what} do not span a representation of S_{len(labels)}")
