"""Finite-rank invariants of the module category attached to a pure tuple.

Composition multiplicities and Ext dimensions are pure character
computations, delegated to the symmetric function engine.  The finite
rank side evaluates the diagram category on a concrete space k^N
equipped with a form (one linear functional on each generator Schur
functor): every block becomes a concrete contraction, every diagram a
matrix, and the traceless subspace of a tensor power together with its
symmetric group action realizes the simple objects.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

from .combinat import Partition, PartitionTuple, partitions, schur_dim, specht_dim
from .exactla import RatMat, _eliminate, _primitive, solve
from .brauer import Morphism, hom_basis, make_diagram
from .schurweyl import get_tensor_rep, specht_word_expansions
from .symfun import (
    SchurExpr,
    exterior_power_char,
    inner_product,
    lr_product,
    sym_algebra_degree,
)
from .specht import check_specht_action, get_specht_module


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


# ---------------------------------------------------------------------------
# block functionals


def _omega_tilde(form: FormPoint, p: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """The form component as an integer row over the pivot words of the
    realization and its denominator: omega_p(v) = sum_w row[w] v[w] / den
    for every v in the realization.  Computed once per form."""
    cached = form._tilde[p]
    if cached is not None:
        return cached
    vals = get_tensor_rep(form.sigma[p], form.N).dual_row(form.comps[p])
    den = lcm(*(v.denominator for v in vals.values()))
    form._tilde[p] = den, {w: v.numerator * (den // v.denominator) for w, v in vals.items()}
    return form._tilde[p]


def block_functional(form: FormPoint, p: int, t: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """Values of the contraction attached to a block of type p with basis
    polytabloid t as (den, row), kept on the form: row maps the words u of
    length d = |sigma_p| in [N] in lexicographic order to nonzero ints,
    the value at u is row[u] / den, and den is the same for every t.

    The value at u is omega_p(v_u) for v_u = sum_w gamma_t[w] e_(u o w),
    the image of the polytabloid under e_i -> e_(u_i), and omega_p reads
    v_u only at the pivot words q of its row omega~.  Each word w of
    gamma_t is a permutation of 1..d, so a pair (w, q) fixes the one word
    u with u[w[j]] = q[j]: the values are integer sums over those pairs,
    over the product of the expansion's and omega~'s denominators.
    """
    cached = form._functionals.get((p, t))
    if cached is not None:
        return cached
    shape = form.sigma[p]
    out = 1, {}
    if schur_dim(shape, form.N) > 0:
        gden, gammas = specht_word_expansions(shape)
        den, omega = _omega_tilde(form, p)
        acc: dict[tuple[int, ...], int] = {}
        for w, k in gammas[t].items():
            # u[i] = q[pos[i]], where pos[i] is the slot j with w[j] = i + 1
            pos = sorted(range(len(w)), key=w.__getitem__)
            for q, v in omega.items():
                u = tuple(map(q.__getitem__, pos))
                acc[u] = acc.get(u, 0) + k * v
        out = gden * den, {u: acc[u] for u in sorted(acc) if acc[u]}
    form._functionals[p, t] = out
    return out


def _word_index(word: tuple[int, ...], N: int) -> int:
    idx = 0
    for x in word:
        idx = idx * N + (x - 1)
    return idx


def _specialize(form: FormPoint, f: Morphism) -> tuple[int, dict[int, dict[int, int]]]:
    """The specialization of a morphism at the form as (L, rows): integer
    rows, target word index -> {source word index: nonzero value times L},
    nonzero rows only, where L is the lcm of the terms' denominators.

    Tensor slots of a disjoint union are ordered first factor then
    second; matchings act by the corresponding coordinate permutation.
    """
    if f.sigma != form.sigma:
        raise ValueError("morphism and form live over different tuples")
    N = form.N
    n, m = f.source, f.target
    terms = []
    for d, coeff in f.terms.items():
        fns = [(b.support, block_functional(form, b.type_index, b.basis_index)) for b in d.blocks]
        terms.append((d.matching, coeff, coeff.denominator * prod(den for _, (den, _) in fns), fns))
    L = lcm(*(den for _, _, den, _ in terms))
    rows: dict[int, dict[int, int]] = {}
    for matching, coeff, den, fns in terms:
        factor = coeff.numerator * (L // den)
        for col, u in enumerate(product(range(1, N + 1), repeat=n)):
            val = factor
            for support, (_, fn) in fns:
                c = fn.get(tuple(u[s - 1] for s in support))
                if c is None:
                    break
                val *= c
            else:
                tgt = [0] * m
                for s, t in matching:
                    tgt[t - 1] = u[s - 1]
                row = rows.setdefault(_word_index(tgt, N), {})
                x = row.get(col, 0) + val
                if x:
                    row[col] = x
                else:
                    row.pop(col, None)
    return L, {i: row for i, row in rows.items() if row}


def theta_apply(form: FormPoint, f: Morphism) -> RatMat:
    """The matrix of the specialization of a morphism at the form."""
    cols = form.N**f.source
    data = [[Fraction(0)] * cols for _ in range(form.N**f.target)]
    L, rows = _specialize(form, f)
    for i, row in rows.items():
        for c, x in row.items():
            data[i][c] = Fraction(x, L)
    return RatMat(len(data), cols, data)


def _constraint_columns(form: FormPoint, morphisms) -> dict[int, dict[int, int]]:
    """The nonzero rows of the specialized morphisms, stacked as sparse
    primitive integer rows and indexed by column: source word index ->
    {row number: nonzero entry}."""
    columns: dict[int, dict[int, int]] = {}
    rows = (row for f in morphisms for row in _specialize(form, f)[1].values())
    for r, row in enumerate(rows):
        for c, x in _primitive(row).items():
            columns.setdefault(c, {})[r] = x
    return columns


# ---------------------------------------------------------------------------
# traceless tensors


def _generating_contractions(sigma: PartitionTuple, n: int) -> list[Morphism]:
    """The block contractions on n slots: one block (p, t) on the slots S,
    the other slots kept in order.  Their joint kernel is the traceless
    subspace."""
    out = []
    for p, shape in enumerate(sigma):
        d = shape.size
        if d > n:
            continue
        for t in range(specht_dim(shape)):
            for S in combinations(range(1, n + 1), d):
                rest = [s for s in range(1, n + 1) if s not in S]
                matching = zip(rest, range(1, n - d + 1))
                diagram = make_diagram(sigma, n, n - d, ((S, p, t),), matching)
                out.append(Morphism.from_diagram(sigma, diagram))
    return out


class TracelessSpace:
    """The joint kernel of all block contractions inside a tensor power,
    described by its dimension."""

    __slots__ = ("sigma", "form", "n", "dim")

    def __init__(self, sigma, form: FormPoint, n: int, dim: int):
        self.sigma = sigma
        self.form = form
        self.n = n
        self.dim = dim


def _check_form(sigma, form: FormPoint) -> PartitionTuple:
    sigma = PartitionTuple(sigma)
    if sigma != form.sigma:
        raise ValueError("form does not match sigma")
    return sigma


def _check_block_spans(form: FormPoint, n: int):
    """Exact certificate that, for every entry of size d <= n, the block
    functionals span a representation of S_d: for each adjacent
    transposition s_k and polytabloid t, fn_t o s_k = sum_t' M[t'][t] fn_t',
    where M is the Specht matrix of s_k.  The constraints run over all
    slot subsets, so a slot permutation then maps each one into the span
    of the others, and every joint kernel of block contractions is a
    representation of S_n.  An entry's functionals share one denominator,
    so the check reads their integer rows."""
    for p, shape in enumerate(form.sigma):
        d = shape.size
        if d > n:
            continue
        check_specht_action(
            [block_functional(form, p, t)[1] for t in range(specht_dim(shape))],
            get_specht_module(shape, tuple(range(1, d + 1))).generator_matrices(),
            lambda k, w: w[:k] + (w[k + 1], w[k]) + w[k + 2:],
            f"the block functionals of entry {p}",
        )


def _traceless_constraints(form: FormPoint, n: int) -> dict[int, dict[int, int]]:
    """The block contractions on n slots as column-indexed integer rows,
    after `_check_block_spans` has certified that their joint kernel is a
    representation of S_n."""
    _check_block_spans(form, n)
    return _constraint_columns(form, _generating_contractions(form.sigma, n))


def _restricted_nullity(columns: dict[int, dict[int, int]], lam: Partition, N: int) -> int:
    """The dimension of the intersection of V, the joint kernel of the
    column-indexed integer constraint rows on the |lam|-th tensor power
    of k^N, with the Young symmetrizer image S_lam(k^N) that
    `get_tensor_rep` realizes: the number of its basis vectors b_j less
    the rank of their images.  Each image is the sum of the integer
    columns at the words of b_j, weighted by its integer row."""
    rep = get_tensor_rep(lam, N)
    images = []
    for _, vec in rep.basis:
        image: dict[int, int] = {}
        for w, k in vec.items():
            col = columns.get(_word_index(w, N))
            if col:
                for i, x in col.items():
                    image[i] = image.get(i, 0) + k * x
        image = {i: x for i, x in image.items() if x}
        if image:
            images.append(_primitive(image))
    return rep.dim - len(_eliminate(images, reduced=False))


def traceless_space(sigma, form: FormPoint, n: int) -> TracelessSpace:
    """Intersection V of the kernels of every block contraction on n slots.
    V is a representation of S_n (certified by `_check_block_spans`), so
    by Weyl's construction dim V is the sum, over the partitions lam of n
    with at most N rows, of f_lam times the dimension of V meet S_lam(k^N).
    Each term is a `_restricted_nullity`: only the realization bases are
    eliminated, never the N^n-column constraint rows."""
    sigma = _check_form(sigma, form)
    if n < 0:
        raise ValueError("n must be non-negative")
    columns = _traceless_constraints(form, n)
    dim = sum(
        specht_dim(lam) * _restricted_nullity(columns, lam, form.N)
        for lam in partitions(n)
        if len(lam) <= form.N
    )
    return TracelessSpace(sigma, form, n, dim)


def simple_realization_dim(sigma, form: FormPoint, lam: Partition) -> int:
    """Dimension of the lam-isotypic piece of the traceless space V on
    |lam| slots: the rank-N realization of the corresponding simple
    object.  V is a representation of S_n (certified by
    `_check_block_spans`), so by Weyl's construction its lam-multiplicity
    is the dimension of its intersection with S_lam(k^N), and the piece
    has f_lam times that dimension."""
    _check_form(sigma, form)
    lam = Partition(lam)
    columns = _traceless_constraints(form, lam.size)
    return specht_dim(lam) * _restricted_nullity(columns, lam, form.N)


def socle_check(sigma, form: FormPoint, lam: Partition) -> bool:
    """Compare two descriptions of the traceless subspace on |lam| slots:
    the kernels of the generating block contractions against the kernels
    of every basis morphism to a strictly smaller object, specialized at
    the form.  Returns whether the lam-multiplicities, each read off the
    intersection of the kernel with S_lam(k^N), agree.

    Both kernels are representations of S_n.  For the generating family
    `_check_block_spans` certifies it.  For the morphism family, a basis
    diagram precomposed with a slot permutation is again a morphism to
    the same smaller object, so it lies in the span of `hom_basis`; theta
    is a functor (criteria 3 and 4), so each specialized constraint
    precomposed with the permutation matrix is a combination of the
    specialized basis constraints, and the joint kernel is stable."""
    sigma = _check_form(sigma, form)
    lam = Partition(lam)
    n = lam.size
    gen = _traceless_constraints(form, n)
    homs = [Morphism.from_diagram(sigma, d) for m in range(n) for d in hom_basis(sigma, n, m)]
    hom = _constraint_columns(form, homs)
    return _restricted_nullity(gen, lam, form.N) == _restricted_nullity(hom, lam, form.N)


# ---------------------------------------------------------------------------
# character-level invariants


def multiplicity(sigma, lam, mu) -> int:
    """Composition multiplicity of the simple labeled mu inside the
    injective labeled lam; the pairing of s_lam against s_mu times the
    degree |lam|-|mu| part of the free algebra character."""
    sigma = PartitionTuple(sigma)
    lam, mu = Partition(lam), Partition(mu)
    if mu.size > lam.size:
        return 0
    piece = sym_algebra_degree(sigma, lam.size - mu.size)
    val = inner_product(SchurExpr.schur(lam), lr_product(SchurExpr.schur(mu), piece))
    if val.denominator != 1 or val < 0:
        raise RuntimeError(f"multiplicity {val} is not a non-negative integer")
    return int(val)


def ext_dim(sigma, i: int, lam, mu) -> int:
    """Dimension of the degree-i Ext space between the simples labeled lam
    and mu, via the exterior powers of the generator space."""
    sigma = PartitionTuple(sigma)
    if i < 0:
        raise ValueError("i must be non-negative")
    lam, mu = Partition(lam), Partition(mu)
    wedge = exterior_power_char(sigma, i)
    val = inner_product(
        lr_product(wedge, SchurExpr.schur(lam)), SchurExpr.schur(mu)
    )
    if val.denominator != 1 or val < 0:
        raise RuntimeError(f"Ext dimension {val} is not a non-negative integer")
    return int(val)


# ---------------------------------------------------------------------------
# distinguished forms


def integer_columns(rows) -> tuple[int, dict[int, dict[int, int]]]:
    """A square rational matrix g as `moved_values` reads it: g = G / den
    with den > 0 least, and {k: {i: G[i][k]}} over the nonzero entries of
    the columns k that differ from den e_k (letters 1-indexed)."""
    den = lcm(*(x.denominator for row in rows for x in row))
    cols = ({i: int(x * den) for i, x in enumerate(c, 1) if x} for c in zip(*rows))
    return den, {k: col for k, col in enumerate(cols, 1) if col != {k: den}}


def moved_values(form: FormPoint, p: int, den: int, cols: dict, indices):
    """Yield omega_p(g b_j) for each basis index j in `indices`, where b_j
    is the j-th realization basis vector of entry p and g = G / den is
    given by `integer_columns` with every letter at most N.

    The realization is stable under g, so omega_p(g b_j) is the pivot-word
    row omega~ applied to g b_j: for each word u of b_j, g e_u1 (x) ... (x)
    g e_ud is expanded and read only at the words omega~ supports.  The
    sums run over integers: with b_j = B_j / bden read off
    `TensorRep.basis`, each value is the integer pair (total, divisor)
    with divisor = tden * den^d * bden, so a caller that only compares
    values builds no Fraction.  Values are produced one index at a time,
    so a caller that stops early pays only for the indices it read."""
    rep = get_tensor_rep(form.sigma[p], form.N)
    tden, tilde = _omega_tilde(form, p)
    scale = tden * den**rep.d
    letter_cols = {x: cols.get(x, {x: den}) for x in range(1, form.N + 1)}
    for j in indices:
        bden, b = rep.basis[j]
        total = 0
        for u, c in b.items():
            val = 0
            ucols = list(map(letter_cols.__getitem__, u))
            for w in product(*ucols):
                t = tilde.get(w)
                if t is not None:
                    for i, col in zip(w, ucols):
                        t *= col[i]
                    val += t
            total += c * val
        yield total, scale * bden


def translate(form: FormPoint, g: RatMat) -> FormPoint:
    """The form v -> omega(g v), for g square of size at most N (extended by the identity)."""
    if g.rows != g.cols or g.rows > form.N:
        raise ValueError("matrix does not fit inside the requested rank")
    den, cols = integer_columns(g.data)
    comps = [
        tuple(Fraction(*v) for v in moved_values(form, p, den, cols, range(len(row))))
        for p, row in enumerate(form.comps)
    ]
    return FormPoint(form.sigma, form.N, comps)


def form_from_tensor_values(sigma, N: int, p: int, values: dict) -> FormPoint:
    """Solve for a form whose block contraction (for the first basis
    polytabloid of entry p) takes prescribed values on the given words;
    unspecified components are zero."""
    sigma = PartitionTuple(sigma)
    shape = sigma[p]
    d = shape.size
    gden, gammas = specht_word_expansions(shape)
    rep = get_tensor_rep(shape, N)
    rows = []
    rhs = []
    for u, target in sorted(values.items()):
        if len(u) != d or not all(1 <= x <= N for x in u):
            raise ValueError(f"{u} is not a word of length {d} in the letters 1..{N}")
        # F(e_u) = omega(v_u) with v_u = sum_w gamma_w e_(u o w), the image of
        # the realization vector gamma under e_i -> e_(u_i), so v_u lies in
        # the realization and omega(v_u) = sum_j table[j] coords(v_u)[j]; the
        # integer expansion gives gden * v_u, so the target is scaled by gden
        v_u: dict[tuple[int, ...], int] = {}
        for w, c in gammas[0].items():
            q = tuple(u[w[j] - 1] for j in range(d))
            v_u[q] = v_u.get(q, 0) + c
        rows.append(rep.coords({q: c for q, c in v_u.items() if c}))
        rhs.append(Fraction(target) * gden)
    sol = solve(RatMat(len(rows), rep.dim, rows), rhs)
    if sol is None:
        raise ValueError("no form takes the prescribed values")
    return FormPoint(sigma, N, [sol if q == p else [0] * schur_dim(sigma[q], N) for q in range(len(sigma))])


def dot_product_form(N: int) -> FormPoint:
    """The standard symmetric bilinear form on k^N as a FormPoint for [(2)]."""
    sigma = PartitionTuple(((2,),))
    values = {}
    for i in range(1, N + 1):
        for j in range(i, N + 1):
            values[(i, j)] = 1 if i == j else 0
    return form_from_tensor_values(sigma, N, 0, values)


def monomial_cubic_form(M: int) -> FormPoint:
    """The cubic monomial form x1 x2 x3 at rank M (for sigma = [(3)]): the
    functional picking the coefficient of the symmetrized basis vector on
    the word (1, 2, 3)."""
    if M < 3:
        raise ValueError("the monomial form needs rank at least 3")
    sigma = PartitionTuple(((3,),))
    rep = get_tensor_rep(Partition((3,)), M)
    table = [Fraction(0)] * rep.dim
    idx = rep.source_words.index((1, 2, 3))
    table[idx] = Fraction(1)
    return FormPoint(sigma, M, [table])
