"""Weight-space combinatorics and concrete Schur functor realizations.

This module is the first-principles side of the central consistency
check: the weight space of (free algebra) tensor (tensor power) with all
torus weights equal to one has an explicit monomial basis, enumerated
here directly, and a bijection onto the basis diagrams of the downwards
category.  It also realizes Schur functors on k^N concretely as Young
symmetrizer images inside the tensor power, with exact matrices for the
action of arbitrary rational N x N matrices.  The bridge from the
abstract Specht modules into that realization (used for block
functionals) is read off the same symmetrizer: the image of each
standard polytabloid, certified equivariant, with no realization built.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from .combinat import Partition, PartitionTuple, schur_dim, specht_dim
from .exactla import RatMat, _clear, _primitive, inverse
from .specht import check_specht_action, get_specht_module, perm_sign
from .symfun import kostka


class WeightBasisElement(NamedTuple):
    """A monomial basis element: typed generator factors plus a tensor word.

    `blocks` holds (support, type index, basis polytabloid index) triples
    with pairwise disjoint supports; `word` is the sequence of labels in
    the pure tensor part.  Supports and word letters together partition
    the ground set {1..n}.
    """

    blocks: tuple[tuple[tuple[int, ...], int, int], ...]
    word: tuple[int, ...]


def _typed_partitions_by_counts(sigma: PartitionTuple, elements: tuple[int, ...]):
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


def weight_space_basis(sigma, n: int, m: int) -> list[WeightBasisElement]:
    """The monomial basis of the all-weights-one subspace in degree (n, m),
    sorted by (blocks, word).

    The order is part of the contract, as the `Diagram` order of
    `brauer.hom_basis` is for `random_morphism` and the benchmark's compose
    documents; `diagram_weight_iso` lists its pairs in this order.
    """
    sigma = PartitionTuple(sigma)
    if not sigma.pure:
        raise ValueError("sigma must be pure")
    if m < 0 or n < 0 or m > n:
        return []
    dims = [specht_dim(shape) for shape in sigma]
    out: list[WeightBasisElement] = []
    for letters in combinations(range(1, n + 1), m):
        # the generator factors depend only on the set of word letters
        leftover = tuple(x for x in range(1, n + 1) if x not in letters)
        factors = []
        for typed in _typed_partitions_by_counts(sigma, leftover):
            for indices in product(*(range(dims[p]) for _, p in typed)):
                factors.append(
                    tuple(
                        sorted(
                            ((support, p, t) for (support, p), t in zip(typed, indices)),
                            key=lambda b: (min(b[0]), b[1]),
                        )
                    )
                )
        for word in permutations(letters):
            out.extend(WeightBasisElement(blocks, word) for blocks in factors)
    out.sort()
    return out


def diagram_weight_iso(sigma, n: int, m: int) -> dict:
    """The explicit pairing: generator factors become blocks, the j-th
    tensor letter is matched to target j.  Returns a dict from
    WeightBasisElement to Diagram; the map is total and injective onto
    the basis diagram list."""
    from .brauer import Block, Diagram, _normalize_blocks

    sigma = PartitionTuple(sigma)
    out = {}
    for el in weight_space_basis(sigma, n, m):
        matching = tuple(sorted((s, j + 1) for j, s in enumerate(el.word)))
        blocks = _normalize_blocks([Block(sup, p, t) for sup, p, t in el.blocks])
        out[el] = Diagram(n, m, blocks, matching)
    return out


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
    for choice in product(*perms_by_group) if perms_by_group else [()]:
        perm = list(range(d))
        for g, img in zip(groups, choice):
            for a, b in zip(g, img):
                perm[a] = b
        yield tuple(perm)


@lru_cache(maxsize=None)
def _symmetrizer(shape: Partition) -> tuple[tuple, tuple]:
    """The Young symmetrizer of the initial row filling of `shape` as
    signed slot permutations: its column terms (q, sign of q) and its
    terms (r o q, sign of q), row group after column group.  A term p
    reads a word w as (w[p[0]], ..., w[p[d-1]])."""
    d = shape.size
    rows = _row_filling(shape)
    cols = [tuple(r[j] for r in rows if len(r) > j) for j in range(len(rows[0]) if rows else 0)]
    col_terms = tuple((q, perm_sign(q)) for q in _group_perms(cols, d))
    terms = tuple(
        (tuple(r[i] for i in q), sg) for r in _group_perms(rows, d) for q, sg in col_terms
    )
    return col_terms, terms


class TensorRep:
    """The Schur functor for `shape` on k^N, realized as the image of the
    Young symmetrizer of the initial row filling inside the d-th tensor
    power.  Basis vectors are the symmetrizer images of the first words
    (in lexicographic order) that produce independent vectors, scaled so
    their lexicographically first nonzero coordinate is 1; this choice
    is stable under enlarging N, so the realization at a smaller rank
    sits inside the larger one as the subset of its basis.  basis[j] is
    (den_j, vec): b_j = vec / den_j, vec the signed integer image."""

    def __init__(self, shape, N: int):
        self.shape = Partition(shape)
        self.N = int(N)
        self.d = self.shape.size
        self._terms = _symmetrizer(self.shape)[1]
        self.basis: list[tuple[int, dict[tuple[int, ...], int]]] = []
        self.pivot_words: list[tuple[int, ...]] = []
        self.source_words: list[tuple[int, ...]] = []
        self._class_members: dict[tuple[int, ...], list[int]] = {}
        self._build_basis()
        if len(self.basis) != schur_dim(self.shape, self.N):
            raise RuntimeError("realization basis size differs from the hook content formula")
        self._class_solver: dict[tuple[int, ...], RatMat] = {}
        self._restriction: dict[int, tuple[int, ...]] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def symmetrizer_image(self, word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        out: dict[tuple[int, ...], int] = {}
        for rq, sg in self._terms:
            neww = tuple(word[i] for i in rq)
            out[neww] = out.get(neww, 0) + sg
        return {w: c for w, c in out.items() if c}

    def _build_basis(self):
        # greedy reduction inside each content class on primitive integer
        # rows keyed by word; scaling a row keeps its support, so the pivot
        # (first) words are those of the rational reduction.  The weight
        # space of a class has dimension K_(shape, content), so the words
        # of a class that holds that many vectors (none when it is 0) are
        # not imaged; the hook-content check in __init__ certifies the total.
        reduced: dict[tuple[int, ...], list] = {}
        weight_dim: dict[tuple[int, ...], int] = {}
        for word in product(range(1, self.N + 1), repeat=self.d):
            cls = tuple(sorted(word))
            if cls not in weight_dim:
                content = sorted(Counter(cls).values(), reverse=True)
                weight_dim[cls] = kostka(self.shape, tuple(content))
            kept = reduced.setdefault(cls, [])
            if len(kept) == weight_dim[cls]:
                continue
            vec = self.symmetrizer_image(word)
            if not vec:
                continue
            red = _primitive(vec)
            for piv, row in kept:
                if piv in red:
                    red = _clear(red, row, piv)
            if not red:
                continue
            piv = min(red)
            kept.append((piv, red))
            self._class_members.setdefault(cls, []).append(len(self.basis))
            lead = vec[min(vec)]
            self.basis.append((abs(lead), vec if lead > 0 else {w: -v for w, v in vec.items()}))
            self.pivot_words.append(piv)
            self.source_words.append(word)

    def _solver(self, cls: tuple[int, ...]) -> RatMat:
        mat = self._class_solver.get(cls)
        if mat is None:
            members = self._class_members[cls]
            cols = [self.basis[j] for j in members]
            rows = [[Fraction(v.get(self.pivot_words[i], 0), den) for den, v in cols] for i in members]
            mat = self._class_solver[cls] = inverse(RatMat(len(members), len(members), rows))
        return mat

    def coords(self, vec: dict[tuple[int, ...], Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of a vector known to lie in the realization."""
        out = [Fraction(0)] * self.dim
        by_cls: dict[tuple[int, ...], dict] = {}
        for w, c in vec.items():
            by_cls.setdefault(tuple(sorted(w)), {})[w] = c
        for cls, piece in by_cls.items():
            members = self._class_members.get(cls)
            if members is None:
                raise ValueError("vector does not lie in the realization")
            pivots = [self.pivot_words[j] for j in members]
            rhs = [piece.get(p, Fraction(0)) for p in pivots]
            sol = self._solver(cls).matvec(rhs)
            for j, x in zip(members, sol):
                out[j] = x
        return tuple(out)

    def dual_row(self, table) -> dict[tuple[int, ...], Fraction]:
        """The functional v -> sum_j table[j] coords(v)[j] on the
        realization as a row over the pivot words: its value at every
        realization vector v is sum_w row[w] v[w]."""
        row: dict[tuple[int, ...], Fraction] = {}
        for cls, members in self._class_members.items():
            inv = self._solver(cls)
            for r, j in enumerate(members):
                val = sum(
                    (table[m] * inv.data[c][r] for c, m in enumerate(members)), Fraction(0)
                )
                if val:
                    row[self.pivot_words[j]] = val
        return row

    def apply_matrix(self, g: RatMat, vec: dict) -> dict:
        """Apply g tensor ... tensor g to a vector in word coordinates."""
        if g.rows < self.N or g.cols < self.N:
            raise ValueError("matrix is too small for this rank")
        colmap = [
            [(i, g.data[i][j]) for i in range(g.rows) if g.data[i][j] != 0]
            for j in range(g.cols)
        ]
        out: dict[tuple[int, ...], Fraction] = {}

        def expand(slot: int, word, c: Fraction, current: tuple[int, ...]):
            if slot == self.d:
                out[current] = out.get(current, Fraction(0)) + c
                return
            for i, v in colmap[word[slot] - 1]:
                expand(slot + 1, word, c * v, current + (i + 1,))

        for word, c in vec.items():
            expand(0, word, c, ())
        return {w: c for w, c in out.items() if c != 0}

    def act_matrix(self, g: RatMat) -> RatMat:
        """Matrix of the induced action of g on the realization basis."""
        cols = []
        for den, vec in self.basis:
            cols.append(tuple(x / den for x in self.coords(self.apply_matrix(g, vec))))
        return RatMat(self.dim, self.dim, list(zip(*cols)) if cols else [])

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
    col_terms, terms = _symmetrizer(shape)
    # sum_q sgn(q) q o c as signed slot permutations: w o q o r o q'
    polytabloid: dict[tuple[int, ...], int] = {}
    for q, sq in col_terms:
        for rq, sg in terms:
            p = tuple(q[i] for i in rq)
            polytabloid[p] = polytabloid.get(p, 0) + sq * sg
    module = get_specht_module(shape, tuple(range(1, d + 1)))
    # w_T has distinct letters, so distinct slot permutations give distinct words
    images = [
        {tuple(w[i] for i in p): c for p, c in polytabloid.items() if c}
        for w in (tuple(x for row in tab for x in row) for tab in module.tableaux)
    ]
    if not images[0]:
        raise RuntimeError(f"the polytabloid images of {shape} vanish")
    # swaps[k] exchanges the letters k + 1 and k + 2
    swaps = [tuple(range(k + 1)) + (k + 2, k + 1) + tuple(range(k + 3, d + 1)) for k in range(d - 1)]
    check_specht_action(
        images,
        module.generator_matrices(),
        lambda k, w: tuple(map(swaps[k].__getitem__, w)),
        f"the polytabloid images of {shape}",
    )
    lead = images[0][min(images[0])]
    return abs(lead), tuple(im if lead > 0 else {w: -c for w, c in im.items()} for im in images)
