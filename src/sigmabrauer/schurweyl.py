"""Concrete Schur functor realizations and the Specht bridge into them.

Schur functors on k^N are realized concretely as Young symmetrizer
images inside the tensor power, with exact matrices for the action of
arbitrary rational N x N matrices.  The bridge from the abstract Specht
modules into that realization (used for block functionals) is read off
the same symmetrizer: the image of each standard polytabloid, certified
equivariant, with no realization built.  The weight-space side of the
central consistency check (`weight_space_basis`, `WeightBasisElement`
and the pairing `diagram_weight_iso`) lives in `oracles` and is read
here through the module `__getattr__`.  `specht` and `exactla` are read
as module attributes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial, gcd, lcm

from . import exactla, specht
from .combinat import Partition, exact, schur_dim

# The weight-space names `oracles` defines, served from here on first read.
_ORACLES = ("WeightBasisElement", "weight_space_basis", "diagram_weight_iso")


def __getattr__(name: str):
    if name in _ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Schur functor realizations


def _row_filling(shape: Partition) -> tuple[tuple[int, ...], ...]:
    tab = []
    k = 0
    for r in shape:
        tab.append(tuple(range(k, k + r)))
        k += r
    return tuple(tab)


def _group_perms(groups: list[tuple[int, ...]], d: int):
    """All slot permutations that keep each group inside itself."""
    perms_by_group = [list(permutations(g)) for g in groups]
    for choice in product(*perms_by_group):
        perm = list(range(d))
        for g, img in zip(groups, choice):
            for a, b in zip(g, img):
                perm[a] = b
        yield tuple(perm)


def _columns(shape: Partition) -> list[tuple[int, ...]]:
    rows = _row_filling(shape)
    return [tuple(r[j] for r in rows if len(r) > j) for j in range(len(rows[0]) if rows else 0)]


@lru_cache(maxsize=None)
def _column_terms(shape: Partition) -> tuple:
    """The column group of the initial row filling of `shape` as signed
    slot permutations (q, sign of q).  A slot permutation p reads a word w
    as (w[p[0]], ..., w[p[d-1]]); the Young symmetrizer reads a word
    through the row group first, then through these."""
    return tuple((q, specht.perm_sign(q)) for q in _group_perms(_columns(shape), shape.size))


def _semistandard_words(shape: Partition, N: int) -> list[tuple[int, ...]]:
    """Row readings of the semistandard tableaux of `shape` with entries at
    most N, in lexicographic order, built slot by slot in row-filling
    order: each letter is at least its left neighbour and greater than the
    letter above it, shape[i - 1] slots back."""
    words: list[tuple[int, ...]] = [()]
    start = 0
    for i, r in enumerate(shape):
        for j in range(r):
            up = start + j - shape[i - 1]
            words = [
                w + (x,)
                for w in words
                for x in range(max(w[-1] if j else 1, w[up] + 1 if i else 1), N + 1)
            ]
        start += r
    return words


class TensorRep:
    """The Schur functor for `shape` on k^N, realized as the image of the
    Young symmetrizer of the initial row filling inside the d-th tensor
    power.  Basis vectors are the symmetrizer images of the row readings
    of the semistandard tableaux (in lexicographic order, `source_words`),
    scaled so their lexicographically first nonzero coordinate is 1; this
    choice is stable under enlarging N, so the realization at a smaller
    rank sits inside the larger one as the subset of its basis.  basis[j]
    is (den_j, vec): b_j = vec / den_j, vec the signed integer image.
    Within a content class the images are triangular on the source words,
    so `coords` and `dual_row` solve on those words by substitution."""

    def __init__(self, shape, N: int):
        self.shape = Partition(shape)
        self.N = int(N)
        self.d = self.shape.size
        self._col_terms = _column_terms(self.shape)
        self.basis: list[tuple[int, dict[tuple[int, ...], int]]] = []
        self.source_words = _semistandard_words(self.shape, self.N)
        self._class_members: dict[tuple[int, ...], list[int]] = {}
        self._build_basis()
        if len(self.basis) != schur_dim(self.shape, self.N):
            raise RuntimeError("realization basis size differs from the hook content formula")
        self._restriction: dict[int, tuple[int, ...]] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def symmetrizer_image(self, word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        # each distinct row rearrangement once, times the number of row
        # permutations fixing the word, then the signed column sum
        rows, weight, start = [], 1, 0
        for r in self.shape:
            rows.append(set(permutations(word[start : start + r])))
            weight *= factorial(r) // len(rows[-1])
            start += r
        out: dict[tuple[int, ...], int] = {}
        for choice in product(*rows):
            wr = sum(choice, ())
            for q, sg in self._col_terms:
                neww = tuple(map(wr.__getitem__, q))
                out[neww] = out.get(neww, 0) + sg
        return {w: weight * c for w, c in out.items() if c}

    def _build_basis(self):
        # the standard basis theorem: each image is nonzero at its own word
        # and zero at the later words of its content class, checked here.
        # So the images are independent, and with the hook-content count
        # checked in __init__ they are a basis.
        words = self.source_words
        for j, word in enumerate(words):
            self._class_members.setdefault(tuple(sorted(word)), []).append(j)
        for j, word in enumerate(words):
            vec = self.symmetrizer_image(word)
            members = self._class_members[tuple(sorted(word))]
            if word not in vec or any(words[i] in vec for i in members if i > j):
                raise RuntimeError(f"the symmetrizer image of {word} is not triangular")
            lead = vec[min(vec)]
            self.basis.append((abs(lead), vec if lead > 0 else {w: -v for w, v in vec.items()}))

    def coords(self, vec: dict) -> tuple:
        """Coordinates of a vector known to lie in the realization, read off
        the source words of each content class from last to first: b_c is
        zero at the later source words of its class, so
        v[w_c] = sum_{i >= c} a_i b_i[w_c] fixes a_c once the later a_i are
        known (back substitution).  Integral coordinates are ints."""
        out = [0] * self.dim
        by_cls: dict[tuple[int, ...], dict] = {}
        for w, c in vec.items():
            by_cls.setdefault(tuple(sorted(w)), {})[w] = c
        for cls, piece in by_cls.items():
            members = self._class_members.get(cls)
            if members is None:
                raise ValueError("vector does not lie in the realization")
            for pos in range(len(members) - 1, -1, -1):
                j = members[pos]
                w = self.source_words[j]
                x = exact(piece.get(w, 0))
                for i in members[pos + 1 :]:
                    den, b = self.basis[i]
                    if w in b:
                        x -= exact(out[i] * b[w], den)
                den, b = self.basis[j]
                out[j] = exact(x * den, b[w])
        return tuple(out)

    def dual_row(self, table) -> tuple[int, dict[tuple[int, ...], int]]:
        """The functional v -> sum_j table[j] coords(v)[j] on the
        realization as (den, row) over the source words: row maps them to
        nonzero ints, and the value at every realization vector v is
        sum_w row[w] v[w] / den.  Read off the source words of each content
        class from first to last: b_c = B_c / den_c is zero at the later
        source words of its class, so table[c] = sum_{i <= c} y_i b_c[w_i]
        fixes y_c = (table[c] den_c - sum_{i < c} y_i B_c[w_i]) / B_c[w_c]
        once the earlier y_i are known (forward substitution).  A class
        holds its nonzero y_i as ints ys[w_i] over one running denominator
        D, the lcm of their reduced denominators, so the lcm of the
        classes' D is the least den."""
        classes = []
        for members in self._class_members.values():
            D, ys = 1, {}
            for j in members:
                den, b = self.basis[j]
                w, t = self.source_words[j], exact(table[j])
                x = t.numerator * den * D - t.denominator * sum(y * b[u] for u, y in ys.items() if u in b)
                if x:
                    q = t.denominator * D * b[w]
                    g = gcd(x, q) if q > 0 else -gcd(x, q)
                    x, q = x // g, q // g
                    f = q // gcd(D, q)
                    if f != 1:
                        D, ys = D * f, {u: y * f for u, y in ys.items()}
                    ys[w] = x * (D // q)
            classes.append((D, ys))
        den = lcm(*(D for D, _ in classes))
        return den, {w: y * (den // D) for D, ys in classes for w, y in ys.items()}

    def apply_matrix(self, g: exactla.RatMat, vec: dict) -> dict:
        """Apply g tensor ... tensor g to a vector in word coordinates."""
        if g.rows < self.N or g.cols < self.N:
            raise ValueError("matrix is too small for this rank")
        colmap = [
            [(i, g.data[i][j]) for i in range(g.rows) if g.data[i][j] != 0]
            for j in range(g.cols)
        ]
        out = {}

        def expand(slot: int, word, c, current: tuple[int, ...]):
            if slot == self.d:
                out[current] = out.get(current, 0) + c
                return
            for i, v in colmap[word[slot] - 1]:
                expand(slot + 1, word, c * v, current + (i + 1,))

        for word, c in vec.items():
            expand(0, word, c, ())
        return {w: exact(c) for w, c in out.items() if c}

    def act_matrix(self, g: exactla.RatMat) -> exactla.RatMat:
        """Matrix of the induced action of g on the realization basis."""
        cols = []
        for den, vec in self.basis:
            cols.append(tuple(exact(x, den) for x in self.coords(self.apply_matrix(g, vec))))
        return exactla.RatMat(self.dim, self.dim, list(zip(*cols)) if cols else [])

    def restriction_indices(self, n: int) -> tuple[int, ...]:
        """Basis indices whose defining words use only letters 1..n; these
        form the realization at rank n."""
        idx = self._restriction.get(n)
        if idx is None:
            idx = self._restriction[n] = tuple(
                j for j, w in enumerate(self.source_words) if all(x <= n for x in w)
            )
        return idx

    def __repr__(self):
        return f"TensorRep({self.shape!s}, N={self.N}, dim={self.dim})"


@lru_cache(maxsize=None)
def get_tensor_rep(shape: Partition, N: int) -> TensorRep:
    return TensorRep(Partition(shape), N)


# ---------------------------------------------------------------------------
# the bridge between abstract Specht modules and the realization


@lru_cache(maxsize=None)
def specht_word_expansions(shape: Partition) -> tuple:
    """Pure-word expansions of the standard polytabloids.

    (den, images): for every basis polytabloid of the Specht module on
    labels 1..d, a dict from permutation words over {1..d} to integers,
    over the shared den > 0 its image under the intertwiner into the
    weight space of the realization where each letter appears once,
    scaled so that the first expansion's coefficient at its
    lexicographically first word is 1.

    The Young symmetrizer c reads a word through the row group first, so
    T -> c(w_T), where w_T fills the slots of the row filling with the
    entries of T, depends only on the tabloid of T and maps M^shape onto
    that weight space.  M^shape holds the Specht module once and
    otherwise only S^mu for mu dominating shape (Young's rule), so the
    polytabloid e_T maps to sum_q sgn(q) c(w_T o q) over the column group.
    Equivariance on the adjacent transpositions and a nonzero first image
    are checked exactly; by Schur's lemma they make the map injective.
    """
    shape = Partition(shape)
    d = shape.size
    col_terms = _column_terms(shape)
    cols = [c for c in _columns(shape) if len(c) > 1]
    # sum_q sgn(q) q o c is the sum of sgn(q0) sgn(q) q0 o r o q over q0, q
    # in the column group C and r in the row group.  Right multiplication
    # by C permutes the entries of x = q0 o r within each column, so
    # x = k o q1 with k sorted within columns, sgn(q0) sgn(q1) = sgn(r) sgn(k),
    # and the term k o q has sgn(k o q) times the sum of sgn(r) over the
    # pairs in the right coset kC: C is summed once per coset.
    coset_sums: dict[tuple[int, ...], int] = {}
    for r in _group_perms(_row_filling(shape), d):
        sr = specht.perm_sign(r)
        for q0, _ in col_terms:
            x = list(map(q0.__getitem__, r))
            for col in cols:
                for i, v in zip(col, sorted([x[i] for i in col])):
                    x[i] = v
            k = tuple(x)
            coset_sums[k] = coset_sums.get(k, 0) + sr
    polytabloid: dict[tuple[int, ...], int] = {}
    for k, c in coset_sums.items():
        if c:
            c *= specht.perm_sign(k)
            for q, sq in col_terms:
                polytabloid[tuple(map(k.__getitem__, q))] = sq * c
    module = specht.get_specht_module(shape, tuple(range(1, d + 1)))
    # w_T has distinct letters, so distinct slot permutations give distinct words
    images = [
        {tuple(map(w.__getitem__, p)): c for p, c in polytabloid.items()}
        for w in (tuple(x for row in tab for x in row) for tab in module.tableaux)
    ]
    if not images[0]:
        raise RuntimeError(f"the polytabloid images of {shape} vanish")
    # swaps[k] exchanges the letters k + 1 and k + 2
    swaps = [tuple(range(k + 1)) + (k + 2, k + 1) + tuple(range(k + 3, d + 1)) for k in range(d - 1)]
    specht.check_specht_action(
        images,
        module,
        lambda k, w: tuple(map(swaps[k].__getitem__, w)),
        f"the polytabloid images of {shape}",
    )
    lead = images[0][min(images[0])]
    return abs(lead), tuple(im if lead > 0 else {w: -c for w, c in im.items()} for im in images)
