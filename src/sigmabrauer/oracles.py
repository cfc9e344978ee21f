"""Reference operations: the ones no CLI job runs.

The tests, the demos and the package exports read these to check the
engine from first principles; no engine path calls them.  The public
ones are also read at their old homes through that module's
`__getattr__`: `relabel` and `isotypic_projector` as `specht`
attributes, the weight-space basis and its pairing with the basis
diagrams as `schurweyl` attributes, and the Kostka numbers and monomial
expansions as `symfun` attributes.  Cycle types, class representatives,
plain changes and the private helpers are read only here.  Every
layer is read here as a module attribute, so reading one name executes
only the layer that name needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import NamedTuple

from . import characters, exactla, setpart, specht, symfun
from .combinat import Partition, PartitionTuple, partitions, specht_dim


# ---------------------------------------------------------------------------
# permutations and the action of the symmetric group


def cycle_type(one_line: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation given in 0-indexed one-line notation."""
    return Partition(sorted(specht._cycle_lengths(one_line), reverse=True))


def class_representative(cls: Partition) -> tuple[int, ...]:
    """A permutation of cycle type cls in 0-indexed one-line notation: the
    cycles run over consecutive positions, longest first."""
    out = []
    start = 0
    for part in Partition(cls):
        out.extend(start + (t + 1) % part for t in range(part))
        start += part
    return tuple(out)


def plain_changes(n: int):
    """Steinhaus-Johnson-Trotter: yields (one_line, swapped_adjacent_position).

    The first item carries the identity and position None; each later
    permutation differs from its predecessor by the transposition of
    positions (k, k+1), with k reported.
    """
    perm = list(range(n))
    dirs = [-1] * n
    yield tuple(perm), None
    if n < 2:
        return
    while True:
        mobile = -1
        mi = -1
        for i in range(n):
            j = i + dirs[i]
            if 0 <= j < n and perm[i] > perm[j] and perm[i] > mobile:
                mobile = perm[i]
                mi = i
        if mi == -1:
            return
        j = mi + dirs[mi]
        k = min(mi, j)
        perm[mi], perm[j] = perm[j], perm[mi]
        dirs[mi], dirs[j] = dirs[j], dirs[mi]
        for i in range(n):
            if perm[i] > mobile:
                dirs[i] = -dirs[i]
        yield tuple(perm), k


def relabel(v: specht.SpechtVector, mapping: dict) -> specht.SpechtVector:
    """Transport a Specht vector along an arbitrary bijection of label sets:
    each basis polytabloid, relabelled, is straightened in the module on
    the target labels (v's own module when the map permutes its labels)."""
    src = v.module
    if set(mapping.keys()) != set(src.labels):
        raise ValueError("mapping domain must be the source label set")
    targets = tuple(sorted(mapping.values()))
    if len(set(targets)) != len(targets):
        raise ValueError("mapping must be a bijection")
    tgt = src if targets == src.labels else specht.get_specht_module(src.shape, targets)
    out = [0] * tgt.dim
    for tab, x in zip(src.tableaux, v.coords):
        if x:
            for idx, c in specht.straighten_relabelled(tgt, tab, mapping).items():
                out[idx] += c * x
    return specht.SpechtVector(tgt, out)


# ---------------------------------------------------------------------------
# isotypic projection


def _check_coxeter(gens: list[exactla.RatMat]):
    """Verify the involution, braid and commutation relations exactly: each
    is checked on every standard basis vector, with sparse products over
    the generators' nonzero columns."""
    n = len(gens) + 1
    d = gens[0].rows if gens else 0
    for g in gens:
        if g.rows != g.cols or g.rows != d:
            raise ValueError("generator matrices must be square and equally sized")
    cols = [[{i: row[k] for i, row in enumerate(g.data) if row[k]} for k in range(d)] for g in gens]

    def apply(word, j):
        # the product of the generators in word applied to e_j, rightmost first
        v = {j: 1}
        for k in reversed(word):
            out: dict = {}
            for c, x in v.items():
                for i, y in cols[k][c].items():
                    out[i] = out.get(i, 0) + x * y
            v = {i: x for i, x in out.items() if x}
        return v

    m = len(gens)
    relations = [((k, k), (), f"generator {k} is not an involution") for k in range(m)]
    relations += [
        ((k, k + 1, k), (k + 1, k, k + 1), f"braid relation fails at generators {k},{k+1}")
        for k in range(m - 1)
    ]
    relations += [
        ((k, l), (l, k), f"generators {k},{l} do not commute")
        for k in range(m) for l in range(k + 2, m)
    ]
    for lhs, rhs, message in relations:
        if any(apply(lhs, j) != apply(rhs, j) for j in range(d)):
            raise ValueError(message)
    return n


def isotypic_projector(
    lam: Partition,
    gens: list[exactla.RatMat],
    dim: int | None = None,
    perm_action=None,
) -> exactla.RatMat:
    """Projector onto the lam-isotypic component of a representation of the
    symmetric group on n = |lam| letters, given by its adjacent
    transposition matrices.  Built by character averaging; exact and
    idempotent.

    When `perm_action` is given it must map a 0-indexed one-line
    permutation to its action matrix; it is used in place of the
    incremental products over generator words (worthwhile when the
    underlying action is a coordinate permutation).
    """
    lam = Partition(lam)
    n = lam.size
    if len(gens) != max(n - 1, 0):
        raise ValueError("expected n-1 generator matrices")
    if n <= 1:
        if dim is None:
            raise ValueError("dimension required when no generators are given")
        return exactla.RatMat.identity(dim)
    _check_coxeter(gens)
    d = gens[0].rows
    total = None
    current = exactla.RatMat.identity(d)
    for perm, swap in plain_changes(n):
        chi = characters.sn_character(lam, cycle_type(perm))
        if perm_action is None:
            if swap is not None:
                current = current @ gens[swap]
            mat = current
        else:
            if chi == 0:
                continue
            mat = perm_action(perm)
        if chi == 0:
            continue
        piece = mat.scale(chi)
        total = piece if total is None else total + piece
    if total is None:
        return exactla.RatMat.zeros(d, d)
    return total.scale(Fraction(specht_dim(lam), factorial(n)))


# ---------------------------------------------------------------------------
# the weight-space basis and its pairing with the basis diagrams


class WeightBasisElement(NamedTuple):
    """A monomial basis element: typed generator factors plus a tensor word.

    `blocks` holds (support, type index, basis polytabloid index) triples
    with pairwise disjoint supports; `word` is the sequence of labels in
    the pure tensor part.  Supports and word letters together partition
    the ground set {1..n}.
    """

    blocks: tuple[tuple[tuple[int, ...], int, int], ...]
    word: tuple[int, ...]


def weight_space_basis(sigma, n: int, m: int) -> list[WeightBasisElement]:
    """The monomial basis of the all-weights-one subspace in degree (n, m),
    sorted by (blocks, word): the factor tuples of {0..n-m-1}, relabelled
    through each ascending leftover set, are sorted, and the words of each
    come out of `permutations` in order.

    The order is part of the contract, as the `Diagram` order of
    `brauer.hom_basis` is for `random_morphism` and the benchmark's compose
    documents; `diagram_weight_iso` lists its pairs in this order.
    """
    sigma = PartitionTuple(sigma)
    if not sigma.pure:
        raise ValueError("sigma must be pure")
    if m < 0 or n < 0 or m > n:
        return []
    keys = []
    weight_blocks = setpart.decorated_blocks(setpart.typed_partitions_by_counts, sigma, n - m)
    for letters in combinations(range(1, n + 1), m):
        leftover = tuple(x for x in range(1, n + 1) if x not in letters)
        words = list(permutations(letters))
        for typed in weight_blocks:
            keys.append((tuple((tuple(leftover[i] for i in s), p, t) for s, p, t in typed), words))
    keys.sort()  # factor tuples are distinct, so no word list is compared
    return [tuple.__new__(WeightBasisElement, (b, w)) for b, words in keys for w in words]


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
# Kostka numbers and monomial expansions


@lru_cache(maxsize=None)
def kostka(lam: Partition, mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu: by
    K_{lam,mu} = <s_lam, h_mu> (Macdonald I.6), the coefficient of s_lam
    in the product of the one-row functions s_(mu_1) s_(mu_2) ...."""
    product = symfun.SchurExpr.one()
    for part in filter(None, mu):
        product = symfun.lr_product(product, symfun.SchurExpr.schur((part,)))
    return int(product.coefficient(lam))


def _distinct_arrangements(mu: Partition, nvars: int):
    """Distinct length-`nvars` exponent tuples whose nonzero entries are
    mu, for `schur_monomials`."""
    if len(mu) > nvars:
        return
    values: dict[int, int] = {0: nvars - len(mu)}
    for part in mu:
        values[part] = values.get(part, 0) + 1
    keys = sorted(values)

    def rec(slot: int, current: tuple[int, ...]):
        if slot == nvars:
            yield current
            return
        for v in keys:
            if values[v] > 0:
                values[v] -= 1
                yield from rec(slot + 1, current + (v,))
                values[v] += 1

    yield from rec(0, ())


@lru_cache(maxsize=None)
def schur_monomials(lam: Partition, nvars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Monomial expansion of a Schur function in nvars variables."""
    lam = Partition(lam)
    out: dict[tuple[int, ...], int] = {}
    for mu in partitions(lam.size):
        if len(mu) > nvars:
            continue
        k = kostka(lam, tuple(mu))
        if k == 0:
            continue
        for exp in _distinct_arrangements(mu, nvars):
            out[exp] = out.get(exp, 0) + k
    return tuple(sorted(out.items()))
