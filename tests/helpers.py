"""Independent oracles and small utilities shared by the test modules."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import NamedTuple

from sigmabrauer.brauer import Block, Diagram, _normalize_blocks, _typed_set_partitions
from sigmabrauer.combinat import Partition, PartitionTuple, specht_dim
from sigmabrauer.exactla import RatMat
from sigmabrauer.schurweyl import WeightBasisElement, _typed_partitions_by_counts
from sigmabrauer.symfun import SchurExpr


def as_fractions(pair) -> dict:
    """The rational vector row / den of the engine's integer format
    (den, row), as a dict of Fractions."""
    den, row = pair
    return {w: Fraction(c, den) for w, c in row.items()}


# ---------------------------------------------------------------------------
# reference elimination: dense rational Gauss-Jordan, independent of the
# engine's sparse integer core in `exactla`


def rref(m: RatMat) -> tuple[list[list[Fraction]], list[int]]:
    """Dense rational reduced row echelon form; returns (rows, pivot columns).

    Within a pivot column the row with the fewest nonzeros becomes the
    pivot, and only the nonzeros of the pivot row are subtracted; the
    RREF is unique, so neither choice changes the result, only the time."""
    a = [list(row) for row in m.data]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        cands = [i for i in range(r, nr) if a[i][c] != 0]
        if not cands:
            continue
        piv = min(cands, key=lambda i: sum(1 for x in a[i] if x))
        a[piv], a[r] = a[r], a[piv]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        support = [(j, y) for j, y in enumerate(a[r]) if y]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                row = a[i]
                for j, y in support:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank_reference(m: RatMat) -> int:
    return len(rref(m)[1])


def kernel_reference(m: RatMat) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """(RREF kernel basis, free columns), read off `rref`."""
    rows, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis, free


def solve_reference(m: RatMat, rhs) -> tuple[Fraction, ...] | None:
    """The solution of m x = rhs with the free unknowns 0, or None."""
    aug = RatMat(m.rows, m.cols + 1, [list(row) + [Fraction(v)] for row, v in zip(m.data, rhs)])
    rows, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][m.cols]
    return tuple(x)


def inverse_reference(m: RatMat) -> RatMat | None:
    """The inverse of a square matrix, or None when it is singular."""
    n = m.rows
    aug = RatMat(n, 2 * n, [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.data)])
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return RatMat(n, n, [row[n:] for row in rows])


# ---------------------------------------------------------------------------
# plethysm by explicit monomial substitution


def ssyt_monomials(shape: Partition, nvars: int, dominant: bool = False):
    """Exponent vectors of the monomials of a Schur function, one per
    semistandard tableau, enumerated directly letter by letter: the cells
    holding letter v form a horizontal strip added to the cells holding
    smaller letters.  With `dominant`, only the tableaux whose content is
    a partition (no letter used more often than the one before)."""
    shape = Partition(shape)
    exp: list[int] = []

    def rec(cur: tuple[int, ...], room: int):
        if cur == shape:
            yield tuple(exp) + (0,) * (nvars - len(exp))
            return
        if len(exp) == nvars:
            return
        # row i of a horizontal strip ends within row i of the shape and
        # below the old end of row i - 1
        ranges = [
            range(c, min(shape[i], cur[i - 1] if i else shape[0]) + 1)
            for i, c in enumerate(cur)
        ]
        for new in product(*ranges):
            k = sum(new) - sum(cur)
            if k > room or (dominant and k == 0):
                continue
            exp.append(k)
            yield from rec(new, k if dominant else room)
            exp.pop()

    yield from rec((0,) * len(shape), shape.size)


def _is_dominant(exp: tuple[int, ...]) -> bool:
    return all(exp[k] >= exp[k + 1] for k in range(len(exp) - 1))


def kostka_row(shape: Partition) -> dict[Partition, int]:
    """K_{shape,mu} for every partition mu: the number of semistandard
    tableaux of that shape and content mu, counted among `ssyt_monomials`
    in |shape| letters (enough for every content of that size)."""
    counts = Counter(ssyt_monomials(shape, shape.size, dominant=True))
    return {Partition(x for x in exp if x): k for exp, k in counts.items()}


def schur_from_dominant_monomials(dominant: dict[Partition, int]) -> SchurExpr:
    """Schur expansion of a symmetric polynomial in at least as many
    letters as its degree, given the coefficient of x^mu for every
    partition mu (the dominant monomials).  That coefficient is
    sum_lam c_lam K_{lam,mu}, and K is unitriangular in lexicographic
    order, so the lexicographically largest mu left is the next lam."""
    work = {mu: Fraction(c) for mu, c in dominant.items() if c}
    out: dict[Partition, Fraction] = {}
    while work:
        lam = max(work)
        c = work.pop(lam)
        out[lam] = c
        for mu, k in kostka_row(lam).items():
            if mu != lam:
                left = work.get(mu, 0) - c * k
                if left:
                    work[mu] = left
                else:
                    work.pop(mu, None)
    return SchurExpr(out)


def plethysm_brute(outer: int, inner: SchurExpr, mode: str) -> SchurExpr:
    """Brute-force plethysm: expand the inner function into an explicit list
    of monomials in max(8, result degree) variables, substitute them into
    the outer complete/exterior function by enumerating index multisets or
    subsets, then convert the dominant monomials back to the Schur basis
    with Kostka numbers counted from `ssyt_monomials`."""
    assert mode in ("h", "e")
    if outer == 0:
        return SchurExpr.one()
    if not inner:
        return SchurExpr.zero()
    degree = outer * inner.max_degree()
    nvars = max(8, degree)
    shift = max(degree.bit_length() + 1, 5)
    packed: list[int] = []
    for p, c in inner.terms.items():
        assert c.denominator == 1 and c >= 0
        for exp in ssyt_monomials(p, nvars):
            word = 0
            for k, e in enumerate(exp):
                word |= e << (shift * k)
            packed.extend([word] * int(c))
    chooser = combinations_with_replacement if mode == "h" else combinations
    acc = Counter(map(sum, chooser(packed, outer)))
    mask = (1 << shift) - 1
    dominant: dict[Partition, int] = {}
    for word, c in acc.items():
        exp = tuple((word >> (shift * k)) & mask for k in range(nvars))
        if _is_dominant(exp):
            dominant[Partition(x for x in exp if x)] = c
    return schur_from_dominant_monomials(dominant)


# ---------------------------------------------------------------------------
# symmetric group utilities


def conjugacy_class_size(cls: Partition) -> int:
    cls = Partition(cls)
    z = 1
    for part, k in Counter(cls).items():
        z *= part**k * math.factorial(k)
    return math.factorial(cls.size) // z


def regular_representation_gens(n: int) -> list[RatMat]:
    """Adjacent transposition matrices of the left regular representation."""
    from itertools import permutations as iperm

    elems = list(iperm(range(n)))
    eidx = {e: i for i, e in enumerate(elems)}

    def compose(a, b):
        return tuple(a[b[i]] for i in range(n))

    gens = []
    for k in range(n - 1):
        s = list(range(n))
        s[k], s[k + 1] = s[k + 1], s[k]
        s = tuple(s)
        mat = [[0] * len(elems) for _ in elems]
        for e in elems:
            mat[eidx[compose(s, e)]][eidx[e]] = 1
        gens.append(RatMat(len(elems), len(elems), mat))
    return gens


# ---------------------------------------------------------------------------
# brute-force traceless isotypic dimension (independent of the engine path)


def traceless_isotypic_brute(form, lam: Partition) -> int:
    """For the symmetric bilinear tuple [(2)]: the dimension of the
    lam-isotypic part of the joint contraction kernel, computed from
    scratch: the Gram matrix comes straight from the realization
    coordinates and the form table, the contraction matrices and the
    ambient projector are assembled directly, and the answer is the
    nullity of one stacked matrix, found by the reference elimination."""
    from sigmabrauer.schurweyl import get_tensor_rep
    from sigmabrauer.specht import cycle_type, sn_character
    from sigmabrauer.combinat import specht_dim
    from itertools import permutations as iperm

    lam = Partition(lam)
    n = lam.size
    N = form.N
    assert tuple(tuple(p) for p in form.sigma) == ((2,),)
    rep = get_tensor_rep(Partition((2,)), N)
    table = form.comps[0]
    gram = [[Fraction(0)] * N for _ in range(N)]
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            vec = rep.symmetrizer_image((i, j))
            coords = rep.coords(vec)
            gram[i - 1][j - 1] = sum(
                (table[k] * coords[k] for k in range(rep.dim)), Fraction(0)
            )

    words = list(product(range(1, N + 1), repeat=n))
    widx = {w: i for i, w in enumerate(words)}
    mats = []
    for a in range(n):
        for b in range(a + 1, n):
            rows_words = list(product(range(1, N + 1), repeat=n - 2))
            ridx = {w: i for i, w in enumerate(rows_words)}
            data = [[Fraction(0)] * len(words) for _ in rows_words]
            for w in words:
                c = gram[w[a] - 1][w[b] - 1]
                if c == 0:
                    continue
                rest = tuple(x for k, x in enumerate(w) if k not in (a, b))
                data[ridx[rest]][widx[w]] += c
            mats.append(RatMat(len(rows_words), len(words), data))

    # ambient isotypic projector, assembled from raw permutation matrices
    total = [[Fraction(0)] * len(words) for _ in words]
    for perm in iperm(range(n)):
        chi = sn_character(lam, cycle_type(perm))
        if chi == 0:
            continue
        for w in words:
            neww = [0] * n
            for i in range(n):
                neww[perm[i]] = w[i]
            total[widx[tuple(neww)]][widx[w]] += chi
    scale = Fraction(specht_dim(lam), math.factorial(max(n, 1)))
    proj = RatMat(len(words), len(words), [[scale * x for x in row] for row in total])
    ident = RatMat.identity(len(words))
    mats.append(ident - proj)
    stacked = [row for m in mats for row in m.data]
    return len(words) - rank_reference(RatMat(len(stacked), len(words), stacked))


# ---------------------------------------------------------------------------
# translation of a form by the full action matrix (independent of the
# engine's pivot-word route in `modcat.moved_values`)


def translate_reference(form, g: RatMat) -> tuple[tuple[Fraction, ...], ...]:
    """The components of v -> omega(g v), from `schurweyl` alone: g padded
    by the identity to the form's rank, the action matrix of g on each
    realization, and the dense row x matrix product with the form table."""
    from sigmabrauer.schurweyl import get_tensor_rep

    N = form.N
    big = [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]
    for i in range(g.rows):
        for j in range(g.cols):
            big[i][j] = Fraction(g.data[i][j])
    comps = []
    for shape, row in zip(form.sigma, form.comps):
        rep = get_tensor_rep(shape, N)
        act = rep.act_matrix(RatMat(N, N, big))
        comps.append(
            tuple(
                sum((row[i] * act.data[i][j] for i in range(rep.dim)), Fraction(0))
                for j in range(rep.dim)
            )
        )
    return tuple(comps)


# ---------------------------------------------------------------------------
# traceless space as an RREF kernel basis of dense specialized matrices
# (independent of the engine's route in `modcat.traceless_space`, which sums
# restricted nullities over the Schur functor realizations and never
# eliminates the N^n-column rows)


class ReferenceSpace(NamedTuple):
    """A subspace of the n-th tensor power of k^N given by an RREF basis:
    the i-th vector is 1 at free_cols[i] and 0 at every other free column,
    so the coordinates of a vector of the space are its entries at the
    free columns."""

    form: object
    n: int
    basis: list
    free_cols: list

    @property
    def dim(self) -> int:
        return len(self.basis)


def contraction_morphisms(sigma, n: int) -> list:
    """Every block contraction on n slots, built from `make_diagram`: one
    block (p, t) on the slots S, the other slots kept in order."""
    from sigmabrauer.brauer import Morphism, make_diagram
    from sigmabrauer.combinat import specht_dim

    out = []
    for p, shape in enumerate(sigma):
        if shape.size > n:
            continue
        for t in range(specht_dim(shape)):
            for S in combinations(range(1, n + 1), shape.size):
                rest = [s for s in range(1, n + 1) if s not in S]
                matching = [(s, i + 1) for i, s in enumerate(rest)]
                d = make_diagram(sigma, n, n - shape.size, [(S, p, t)], matching)
                out.append(Morphism.from_diagram(sigma, d))
    return out


def block_functional_reference(form, p: int, t: int) -> dict:
    """The nonzero values of the block functional (p, t) at the words of
    length d = |sigma_p| in [N], by the relation `form_from_tensor_values`
    solves: for every word u, F(e_u) = omega_p(v_u) with
    v_u = sum_w gamma_t[w] e_(u o w), read through the realization
    coordinates of v_u and the form table.  Uses neither the pivot-word
    row omega~ nor a sweep over its support."""
    from sigmabrauer.schurweyl import get_tensor_rep, specht_word_expansions

    shape = form.sigma[p]
    rep = get_tensor_rep(shape, form.N)
    gden, gammas = specht_word_expansions(shape)
    table = form.comps[p]
    # (w read 0-indexed, gden * gamma_t[w]): integer sums, one Fraction per word
    slots = [(tuple(x - 1 for x in w), c) for w, c in gammas[t].items()]
    out = {}
    for u in product(range(1, form.N + 1), repeat=shape.size):
        v_u: dict[tuple[int, ...], int] = {}
        for w, c in slots:
            q = tuple(map(u.__getitem__, w))
            v_u[q] = v_u.get(q, 0) + c
        coords = rep.coords({q: Fraction(c, gden) for q, c in v_u.items() if c})
        val = sum((x * y for x, y in zip(table, coords)), Fraction(0))
        if val:
            out[u] = val
    return out


def stacked_specializations(form, n: int, morphisms=None) -> RatMat:
    """The dense specializations of the morphisms (by default the block
    contractions on n slots), N^m rows each, stacked into one matrix on
    N^n columns.  Every source word is scanned: a diagram term sends the
    word u to the word its matching reads off u, scaled by the product of
    `block_functional_reference` at the letters of u on each block (each
    functional computed once per call)."""
    N = form.N
    if morphisms is None:
        morphisms = contraction_morphisms(form.sigma, n)
    sources = list(product(range(1, N + 1), repeat=n))
    functionals: dict[tuple[int, int], dict] = {}
    rows = []
    for f in morphisms:
        targets = {w: i for i, w in enumerate(product(range(1, N + 1), repeat=f.target))}
        mat = [[Fraction(0)] * len(sources) for _ in targets]
        for diagram, coeff in f.terms.items():
            fns = []
            for b in diagram.blocks:
                key = (b.type_index, b.basis_index)
                if key not in functionals:
                    functionals[key] = block_functional_reference(form, *key)
                fns.append((b.support, functionals[key]))
            for col, u in enumerate(sources):
                val = Fraction(coeff)
                for support, fn in fns:
                    val *= fn.get(tuple(u[s - 1] for s in support), 0)
                if val:
                    tgt = [0] * f.target
                    for s, j in diagram.matching:
                        tgt[j - 1] = u[s - 1]
                    mat[targets[tuple(tgt)]][col] += val
        rows.extend(mat)
    return RatMat(len(rows), N**n, rows)


def reference_space(form, n: int, morphisms=None) -> ReferenceSpace:
    """The joint kernel of the specialized morphisms (by default the block
    contractions: the traceless space) on n slots."""
    from sigmabrauer.exactla import kernel_basis_with_free

    basis, free = kernel_basis_with_free(stacked_specializations(form, n, morphisms))
    return ReferenceSpace(form, n, basis, free)


# ---------------------------------------------------------------------------
# slot action on a traceless space, built from its basis (independent of the
# engine's trace and stability routines)


def slot_permutation_matrix(space, one_line) -> RatMat:
    """Matrix of a slot permutation (the content of slot i moves to slot
    one_line[i]) on a traceless space, in the coordinates read off its free
    columns.  Each basis vector is expanded over explicit words, permuted,
    and read back at the free columns."""
    N, n = space.form.N, space.n
    words = list(product(range(1, N + 1), repeat=n))
    widx = {w: i for i, w in enumerate(words)}
    cols = []
    for b in space.basis:
        image = [Fraction(0)] * len(words)
        for w, c in zip(words, b):
            if c:
                moved = [0] * n
                for i in range(n):
                    moved[one_line[i]] = w[i]
                image[widx[tuple(moved)]] = c
        cols.append([image[f] for f in space.free_cols])
    return RatMat(space.dim, space.dim, [list(r) for r in zip(*cols)])


def slot_generator_matrices(space) -> list[RatMat]:
    """The adjacent slot transpositions s_0 .. s_{n-2} on a traceless space."""
    gens = []
    for k in range(space.n - 1):
        ol = list(range(space.n))
        ol[k], ol[k + 1] = ol[k + 1], ol[k]
        gens.append(slot_permutation_matrix(space, ol))
    return gens


# ---------------------------------------------------------------------------
# isotypic multiplicities of a traceless space from class traces
# (independent of the engine's restricted nullity in `modcat`)


def check_slot_stable(space):
    """Exact certificate that the space is a symmetric group representation:
    each adjacent slot transposition s_k maps each basis vector b into the
    span, i.e. s_k b equals the combination of the basis with coefficients
    read off the free columns of s_k b."""
    N, n = space.form.N, space.n
    words = list(product(range(1, N + 1), repeat=n))
    sparse = [{i: c for i, c in enumerate(b) if c} for b in space.basis]
    free_pos = {c: j for j, c in enumerate(space.free_cols)}
    for k in range(n - 1):
        # swapping the digits a, b of slots k, k+1 moves the word index by
        # (b - a) * (N^(n-1-k) - N^(n-2-k))
        step = N ** (n - 1 - k) - N ** (n - 2 - k)
        for b in sparse:
            image = {}
            for i, c in b.items():
                w = words[i]
                image[i + (w[k + 1] - w[k]) * step] = c
            combo: dict[int, Fraction] = {}
            for i, c in image.items():
                j = free_pos.get(i)
                if j is None:
                    continue
                for r, v in sparse[j].items():
                    combo[r] = combo.get(r, 0) + c * v
            if {r: v for r, v in combo.items() if v} != image:
                raise RuntimeError(
                    f"traceless space is not stable under the slot transposition s_{k}"
                )


def slot_trace(space, one_line) -> Fraction:
    """Trace of the slot permutation (the content of slot i moves to slot
    one_line[i]) on the space: sum_i b_i[index(w_i o one_line)], where w_i is
    the word of the i-th free column."""
    N, n = space.form.N, space.n
    words = list(product(range(1, N + 1), repeat=n))
    total = Fraction(0)
    for b, f in zip(space.basis, space.free_cols):
        w = words[f]
        idx = 0
        for t in range(n):
            idx = idx * N + (w[one_line[t]] - 1)
        total += b[idx]
    return total


def isotypic_multiplicities(space) -> dict[Partition, int]:
    """Multiplicity of each Specht module S^nu (nu a partition of n) in the
    space, from one class trace per cycle type:
    m_nu = sum_mu chi_nu(mu) tr(g_mu | V) / z_mu.

    The space is first certified slot-stable; every multiplicity must be a
    non-negative integer and sum_nu f_nu m_nu must equal the dimension."""
    from sigmabrauer.combinat import partitions, specht_dim
    from sigmabrauer.specht import centralizer_size, class_representative, sn_character

    check_slot_stable(space)
    classes = partitions(space.n)
    traces = {
        mu: slot_trace(space, class_representative(mu)) / centralizer_size(mu)
        for mu in classes
    }
    mults = {}
    for nu in classes:
        m = sum((sn_character(nu, mu) * t for mu, t in traces.items()), Fraction(0))
        if m.denominator != 1 or m < 0:
            raise RuntimeError(
                f"isotypic multiplicity of {nu!s} is {m}, not a non-negative integer"
            )
        mults[nu] = int(m)
    if sum(specht_dim(nu) * m for nu, m in mults.items()) != space.dim:
        raise RuntimeError("isotypic multiplicities do not add up to the dimension")
    return mults


# ---------------------------------------------------------------------------
# character-side prediction of the finite-rank simple realizations


def predicted_realization_dim(sigma, N: int, lam: Partition) -> int:
    """f_lam * sum_mu (M^-1)_{lam,mu} dim S_mu(k^N), with M_{lam,mu} the
    composition multiplicity of the simple mu in the injective lam.  M is
    unitriangular by size, so the inverse is a recursion over the labels
    of smaller size.  Valid in the stable range; below it the value can be
    negative."""
    from sigmabrauer.combinat import partitions, schur_dim, specht_dim
    from sigmabrauer.modcat import multiplicity

    simple: dict[Partition, int] = {}

    def simple_dim(nu: Partition) -> int:
        if nu not in simple:
            simple[nu] = schur_dim(nu, N) - sum(
                multiplicity(sigma, nu, mu) * simple_dim(mu)
                for m in range(nu.size)
                for mu in partitions(m)
            )
        return simple[nu]

    lam = Partition(lam)
    return specht_dim(lam) * simple_dim(lam)


# ---------------------------------------------------------------------------
# Schur functor realization by greedy rational reduction (independent of
# the engine's fraction-free build in `schurweyl.TensorRep`)


def _slot_group(groups: list[tuple[int, ...]], d: int):
    """The slot permutations (one-line, 0-indexed) that keep each group
    inside itself."""
    from itertools import permutations as iperm

    for choice in product(*(iperm(g) for g in groups)):
        perm = list(range(d))
        for g, img in zip(groups, choice):
            for a, b in zip(g, img):
                perm[a] = b
        yield tuple(perm)


def _inversion_sign(perm: tuple[int, ...]) -> int:
    return (-1) ** sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])


def realization_reference(shape: Partition, N: int):
    """(basis, pivot words, source words) of the Young symmetrizer image
    of S_shape(k^N) for the initial row filling.  The image of a word sums
    the word read through r o q with the sign of q, over the row group R
    and the column group Q.  The images of the words of [N]^d, in
    lexicographic order, are reduced in Fractions against the kept rows of
    their content class; a nonzero remainder keeps the image, scaled so
    its first word has coefficient 1, and the remainder, normalized at its
    first word (the pivot), becomes a row."""
    shape = Partition(shape)
    d = shape.size
    rows, k = [], 0
    for r in shape:
        rows.append(tuple(range(k, k + r)))
        k += r
    cols = [tuple(row[j] for row in rows if len(row) > j) for j in range(shape[0] if d else 0)]
    row_group = list(_slot_group(rows, d))
    col_group = [(q, _inversion_sign(q)) for q in _slot_group(cols, d)]
    basis, pivot_words, source_words = [], [], []
    kept: dict[tuple[int, ...], list] = {}
    for word in product(range(1, N + 1), repeat=d):
        vec: dict[tuple[int, ...], Fraction] = {}
        for r in row_group:
            for q, sg in col_group:
                w = tuple(word[r[q[i]]] for i in range(d))
                vec[w] = vec.get(w, Fraction(0)) + sg
        vec = {w: c for w, c in vec.items() if c}
        if not vec:
            continue
        cls = tuple(sorted(word))
        red = dict(vec)
        for piv, row in kept.get(cls, []):
            c = red.get(piv)
            if c:
                for w, v in row.items():
                    nv = red.get(w, Fraction(0)) - c * v
                    if nv:
                        red[w] = nv
                    else:
                        red.pop(w, None)
        if not red:
            continue
        piv = min(red)
        kept.setdefault(cls, []).append((piv, {w: v / red[piv] for w, v in red.items()}))
        lead = vec[min(vec)]
        basis.append({w: v / lead for w, v in vec.items()})
        pivot_words.append(piv)
        source_words.append(word)
    return basis, pivot_words, source_words


# ---------------------------------------------------------------------------
# the Specht bridge as an intertwiner solve on the realization (independent
# of the engine's polytabloid images in `schurweyl.specht_word_expansions`)


def specht_word_expansions_reference(shape: Partition) -> tuple:
    """The pure-word expansions of the standard polytabloids, solved for:
    the matrices of the adjacent letter transpositions on the weight space
    of S_shape(k^d) where each letter appears once (`act_matrix`), the
    one-dimensional space of X with W_k X = X G_k against the Specht
    generator matrices G_k (`kernel_reference`), each column of X
    expanded in the realization basis, and the overall scalar fixed so
    the first expansion has coefficient 1 at its first word."""
    from sigmabrauer.combinat import specht_dim
    from sigmabrauer.schurweyl import get_tensor_rep
    from sigmabrauer.specht import get_specht_module

    shape = Partition(shape)
    d = shape.size
    if d == 0:
        return ({(): Fraction(1)},)
    rep = get_tensor_rep(shape, d)
    weight_idx = rep._class_members[tuple(range(1, d + 1))]
    f = specht_dim(shape)
    assert len(weight_idx) == f
    gens = get_specht_module(shape, tuple(range(1, d + 1))).generator_matrices()
    rows = []
    for k, G in enumerate(gens):
        swap = [[int(i == j) for j in range(d)] for i in range(d)]
        swap[k][k] = swap[k + 1][k + 1] = 0
        swap[k][k + 1] = swap[k + 1][k] = 1
        full = rep.act_matrix(RatMat(d, d, swap))
        W = [[full.data[a][b] for b in weight_idx] for a in weight_idx]
        for a in range(f):
            for b in range(f):
                row = [Fraction(0)] * (f * f)
                for c in range(f):
                    row[c * f + b] += W[a][c]
                    row[a * f + c] -= G.data[c][b]
                rows.append(row)
    if rows:
        ker = kernel_reference(RatMat(len(rows), f * f, rows))[0]
        assert len(ker) == 1
        iota = [[ker[0][a * f + b] for b in range(f)] for a in range(f)]
    else:
        iota = [[Fraction(1)]]
    expansions = []
    for t in range(f):
        amb: dict[tuple[int, ...], Fraction] = {}
        for a, j in enumerate(weight_idx):
            for w, v in as_fractions(rep.basis[j]).items():
                amb[w] = amb.get(w, Fraction(0)) + iota[a][t] * v
        expansions.append({w: c for w, c in amb.items() if c})
    scale = expansions[0][min(expansions[0])]
    return tuple({w: c / scale for w, c in amb.items()} for amb in expansions)


# ---------------------------------------------------------------------------
# Hom-space and weight-space bases as first written: one normalisation and
# one sorted matching per basis element (the engine's `brauer.hom_basis` and
# `schurweyl.weight_space_basis` must return the same lists, order included)


def hom_basis_reference(sigma, n: int, m: int) -> list[Diagram]:
    """All basis diagrams from [n] to [m], in lexicographic encoding order."""
    sigma = PartitionTuple(sigma)
    if not sigma.pure:
        raise ValueError("sigma must be pure")
    if m < 0 or n < 0 or m > n:
        return []
    out: list[Diagram] = []
    for used in combinations(range(1, n + 1), n - m):
        free = [x for x in range(1, n + 1) if x not in used]
        for typed in _typed_set_partitions(sigma, used):
            index_ranges = [range(specht_dim(sigma[p])) for _, p in typed]
            for indices in product(*index_ranges) if index_ranges else [()]:
                blocks = tuple(
                    Block(support, p, t)
                    for ((support, p), t) in zip(typed, indices)
                )
                for image in permutations(range(1, m + 1)):
                    matching = tuple(sorted(zip(free, image)))
                    out.append(Diagram(n, m, _normalize_blocks(blocks), matching))
    out.sort(key=lambda d: d.encoding())
    return out


def weight_space_basis_reference(sigma, n: int, m: int) -> list[WeightBasisElement]:
    """The monomial basis of the all-weights-one subspace in degree (n, m)."""
    sigma = PartitionTuple(sigma)
    if not sigma.pure:
        raise ValueError("sigma must be pure")
    if m < 0 or n < 0 or m > n:
        return []
    out: list[WeightBasisElement] = []
    for word in permutations(range(1, n + 1), m):
        leftover = tuple(x for x in range(1, n + 1) if x not in word)
        for typed in _typed_partitions_by_counts(sigma, leftover):
            ranges = [range(specht_dim(sigma[p])) for _, p in typed]
            for indices in product(*ranges) if ranges else [()]:
                blocks = tuple(
                    sorted(
                        ((support, p, t) for (support, p), t in zip(typed, indices)),
                        key=lambda b: (min(b[0]), b[1]),
                    )
                )
                out.append(WeightBasisElement(blocks, word))
    out.sort()
    return out


# (sigma, n, m) for the element-for-element comparison with the references
BASIS_CASES = [
    (text, n, m)
    for text in ("1", "2", "1,1", "3", "2|1", "3|1", "2,1|1", "1,1|1")
    for n in range(7)
    for m in range(n + 1)
] + [("2|1", 7, m) for m in range(8)]
