"""Finite-rank invariants of the module category attached to a pure tuple.

Composition multiplicities and Ext dimensions are pure character
computations that live in `symfun`; reading `modcat.multiplicity` or
`modcat.ext_dim` returns the `symfun` function through the module
`__getattr__`, so a finite-rank job never loads `symfun`.  The finite
rank side evaluates the diagram category on a concrete space k^N
equipped with a form (one linear functional on each generator Schur
functor): every block becomes a concrete contraction, every diagram a
matrix, and the traceless subspace of a tensor power together with its
symmetric group action realizes the simple objects.  A diagram is read
one source word at a time (`_word_reader`): only `theta_apply` reads it
at all N^n words, while the traceless dimensions read the block
contractions, plain diagram tuples, only at the words of the realization
bases they eliminate.  Only `socle_check` reads `brauer` (its
`hom_basis`), as a module attribute, so no traceless job loads it.
Forms live in the leaf module `forms`, which the stabilizer side loads
without this one; every entry point reads sigma off the form.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, prod

from . import brauer, exactla, symfun
from .combinat import Partition, PartitionTuple, exact, partitions, schur_dim, specht_dim
from .exactla import _eliminate, _primitive
from .forms import FormPoint, integer_columns
from .schurweyl import get_tensor_rep, specht_word_expansions
from .specht import check_specht_action, get_specht_module


def __getattr__(name: str):
    if name in ("multiplicity", "ext_dim"):
        return getattr(symfun, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# block functionals


def _omega_tilde(form: FormPoint, p: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """The form component as an integer row over the source words of the
    realization and its denominator: omega_p(v) = sum_w row[w] v[w] / den
    for every v in the realization.  Computed once per form."""
    if form._tilde[p] is None:
        form._tilde[p] = get_tensor_rep(form.sigma[p], form.N).dual_row(form.comps[p])
    return form._tilde[p]


def block_functional(form: FormPoint, p: int, t: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """Values of the contraction attached to a block of type p with basis
    polytabloid t as (den, row), kept on the form: row maps the words u of
    length d = |sigma_p| in [N] in lexicographic order to nonzero ints,
    the value at u is row[u] / den, and den is the same for every t.

    The value at u is omega_p(v_u) for v_u = sum_w gamma_t[w] e_(u o w),
    the image of the polytabloid under e_i -> e_(u_i), and omega_p reads
    v_u only at the source words q of its row omega~.  Each word w of
    gamma_0 is a permutation of 1..d, so a pair (w, q) fixes the one word
    u with u[w[j]] = q[j]: the values are integer sums over those pairs,
    over the product of the expansion's and omega~'s denominators.
    gamma_t is gamma_0 with the letter r0[i] of each word relabelled rt[i],
    where r0 and rt are the reading words of tableaux 0 and t, so the
    value at u is the one for t = 0 at the word with letters u[rt[i]] in
    slots r0[i].
    """
    cached = form._functionals.get((p, t))
    if cached is not None:
        return cached
    shape = form.sigma[p]
    out = 1, {}
    if t:
        den, row = block_functional(form, p, 0)
        tabs = get_specht_module(shape, tuple(range(1, shape.size + 1))).tableaux
        r0, rt = ([x for line in tabs[s] for x in line] for s in (0, t))
        # u[rt[i]] = u0[r0[i]]: slot y of u reads slot pos[y] of u0
        pos = [r0[i] - 1 for i in sorted(range(len(rt)), key=rt.__getitem__)]
        out = den, dict(sorted((tuple(map(u.__getitem__, pos)), c) for u, c in row.items()))
    elif schur_dim(shape, form.N) > 0:
        gden, gammas = specht_word_expansions(shape)
        den, omega = _omega_tilde(form, p)
        acc: dict[tuple[int, ...], int] = {}
        for w, k in gammas[0].items():
            # u[i] = q[pos[i]], where pos[i] is the slot j with w[j] = i + 1
            pos = sorted(range(len(w)), key=w.__getitem__)
            for q, v in omega.items():
                u = tuple(map(q.__getitem__, pos))
                acc[u] = acc.get(u, 0) + k * v
        out = gden * den, {u: acc[u] for u in sorted(acc) if acc[u]}
    form._functionals[p, t] = out
    return out


def _word_reader(form: FormPoint, diagram):
    """One diagram, any (source, target, blocks, matching) tuple as in
    `Morphism.terms`, specialized at the form and read one source word at a
    time: (L, g, read).  read(u) is None where the diagram sends e_u to
    zero, else (target word index, value times L): each block's functional
    row is read on its slots, the matched slots in target order.  L and g
    are the products of the block functionals' denominators and of the
    gcds of their rows; the values at one target word are the products of
    one value per block, so dividing them by g makes that row primitive.
    Tensor slots of a disjoint union are ordered first factor then second."""
    N = form.N
    _, m, blocks, matching = diagram
    fns = [([s - 1 for s in support], block_functional(form, p, t)) for support, p, t in blocks]
    place = [(s - 1, N ** (m - t)) for s, t in matching]

    def read(u):
        val = 1
        for slots, (_, row) in fns:
            c = row.get(tuple(map(u.__getitem__, slots)))
            if c is None:
                return None
            val *= c
        return sum((u[s] - 1) * x for s, x in place), val

    return prod(den for _, (den, _) in fns), prod(gcd(*row.values()) for _, (_, row) in fns), read


def theta_apply(form: FormPoint, f: brauer.Morphism) -> exactla.RatMat:
    """The matrix of the specialization of a morphism at the form: the sum
    over its terms of the coefficient times the specialized diagram."""
    if f.sigma != form.sigma:
        raise ValueError("morphism and form live over different tuples")
    N = form.N
    cols = N**f.source
    data = [[0] * cols for _ in range(N**f.target)]
    for diagram, coeff in f.terms.items():
        L, _, read = _word_reader(form, diagram)
        for c, u in enumerate(product(range(1, N + 1), repeat=f.source)):
            hit = read(u)
            if hit is not None:
                data[hit[0]][c] += coeff * exact(hit[1], L)
    return exactla.RatMat(len(data), cols, data)


# ---------------------------------------------------------------------------
# traceless tensors


def _generating_contractions(sigma: PartitionTuple, n: int) -> list:
    """The block contractions on n slots as diagrams: one block
    (p, t) on the slots S, the other slots kept in order.  Their joint
    kernel is the traceless subspace."""
    out = []
    for p, shape in enumerate(sigma):
        d = shape.size
        if d > n:
            continue
        for t in range(specht_dim(shape)):
            for S in combinations(range(1, n + 1), d):
                rest = [s for s in range(1, n + 1) if s not in S]
                out.append((n, n - d, ((S, p, t),), tuple(zip(rest, range(1, n - d + 1)))))
    return out


def _check_block_spans(form: FormPoint, n: int):
    """Exact certificate that, for every entry of size d <= n, the block
    functionals span a representation of S_d: for each adjacent
    transposition s_k and polytabloid t, fn_t o s_k = sum_t' M[t'][t] fn_t',
    M[t'][t] the coefficient of e_t' in s_k e_t straightened.  The
    constraints run over all slot subsets, so a slot permutation then maps
    each one into the span of the others, and every joint kernel of block
    contractions is a representation of S_n.  An entry's functionals share
    one denominator, so the check reads their integer rows."""
    for p, shape in enumerate(form.sigma):
        d = shape.size
        if d > n:
            continue
        check_specht_action(
            [block_functional(form, p, t)[1] for t in range(specht_dim(shape))],
            get_specht_module(shape, tuple(range(1, d + 1))),
            lambda k, w: w[:k] + (w[k + 1], w[k]) + w[k + 2:],
            f"the block functionals of entry {p}",
        )


def _restricted_nullity(form: FormPoint, diagrams: list, lams: list) -> list[int]:
    """For each lam of lams, the dimension of the intersection of V, the
    joint kernel of the diagrams on n = |lam| slots specialized at the
    form, with the Young symmetrizer image S_lam(k^N) that `get_tensor_rep`
    realizes: the number of its basis vectors b_j less the rank of their
    images.  The image of b_j is the sum of the columns at its words,
    weighted by its integer row.  The column at u is a flat tuple of (row
    key, primitive value) pairs, one for each diagram i that reads u (see
    `_word_reader`), keyed i * N^n + target word index; it is built on the
    first read of u and serves every lam, and equal keys share one int."""
    N = form.N
    readers = [(i * N ** d[0], _word_reader(form, d)) for i, d in enumerate(diagrams)]
    keys: dict[int, int] = {}
    columns: dict[tuple[int, ...], tuple[int, ...]] = {}

    def column(u):
        col = []
        for base, (_, g, read) in readers:
            hit = read(u)
            if hit is not None:
                k = base + hit[0]
                col += keys.setdefault(k, k), hit[1] // g
        return tuple(col)

    out = []
    for lam in lams:
        rep = get_tensor_rep(lam, N)
        images = []
        for _, vec in rep.basis:
            image: dict[int, int] = {}
            for w, k in vec.items():
                col = columns.get(w)
                if col is None:
                    col = columns[w] = column(w)
                pairs = iter(col)
                for i, x in zip(pairs, pairs):
                    image[i] = image.get(i, 0) + k * x
            image = {i: x for i, x in image.items() if x}
            if image:
                images.append(_primitive(image))
        out.append(rep.dim - len(_eliminate(images, reduced=False)))
    return out


def traceless_space(form: FormPoint, n: int) -> int:
    """The dimension of the intersection V of the kernels of every block
    contraction on n slots.  V is a representation of S_n (certified by
    `_check_block_spans`), so by Weyl's construction dim V is the sum, over
    the partitions lam of n with at most N rows, of f_lam times the
    dimension of V meet S_lam(k^N).  Each term is a `_restricted_nullity`:
    only the realization bases are eliminated, and the contractions are
    read only at their words."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_block_spans(form, n)
    lams = [lam for lam in partitions(n) if len(lam) <= form.N]
    nullities = _restricted_nullity(form, _generating_contractions(form.sigma, n), lams)
    return sum(specht_dim(lam) * k for lam, k in zip(lams, nullities))


def simple_realization_dim(form: FormPoint, lam: Partition) -> int:
    """Dimension of the lam-isotypic piece of the traceless space V on
    |lam| slots: the rank-N realization of the corresponding simple
    object.  V is a representation of S_n (certified by
    `_check_block_spans`), so by Weyl's construction its lam-multiplicity
    is the dimension of its intersection with S_lam(k^N), and the piece
    has f_lam times that dimension."""
    lam = Partition(lam)
    _check_block_spans(form, lam.size)
    [k] = _restricted_nullity(form, _generating_contractions(form.sigma, lam.size), [lam])
    return specht_dim(lam) * k


def socle_check(form: FormPoint, lam: Partition) -> bool:
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
    lam = Partition(lam)
    n = lam.size
    _check_block_spans(form, n)
    homs = [d for m in range(n) for d in brauer.hom_basis(form.sigma, n, m)]
    gen = _generating_contractions(form.sigma, n)
    return _restricted_nullity(form, gen, [lam]) == _restricted_nullity(form, homs, [lam])


# ---------------------------------------------------------------------------
# distinguished forms


def moved_values(form: FormPoint, p: int, den: int, cols: dict, indices):
    """Yield omega_p(g b_j) for each basis index j in `indices`, where b_j
    is the j-th realization basis vector of entry p and g = G / den is
    given by `integer_columns` with every letter at most N.

    The realization is stable under g, so omega_p(g b_j) is the source-word
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


def moved_form(form: FormPoint, den: int, cols: dict) -> FormPoint:
    """The form v -> omega(g v), for g = G / den given by `integer_columns`
    with every letter at most N."""
    values = (moved_values(form, p, den, cols, range(len(row))) for p, row in enumerate(form.comps))
    return FormPoint(form.sigma, form.N, [[exact(*v) for v in vals] for vals in values])


def translate(form: FormPoint, g: exactla.RatMat) -> FormPoint:
    """The form v -> omega(g v), for g square of size at most N (extended by the identity)."""
    if g.rows != g.cols or g.rows > form.N:
        raise ValueError("matrix does not fit inside the requested rank")
    return moved_form(form, *integer_columns(g.data))


def form_from_tensor_values(sigma, N: int, p: int, values: dict) -> FormPoint:
    """Solve for a form whose block contraction (for the first basis
    polytabloid of entry p) takes prescribed values on the given words;
    unspecified components are zero."""
    sigma = PartitionTuple(sigma)
    if not 0 <= p < len(sigma):
        raise ValueError(f"the entry index must lie in 0..{len(sigma) - 1}, got {p}")
    shape = sigma[p]
    d = shape.size
    gden, gammas = specht_word_expansions(shape)
    rep = get_tensor_rep(shape, N)
    rows, rhs = [], []
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
        rhs.append(exact(target) * gden)
    sol = exactla.solve(exactla.RatMat(len(rows), rep.dim, rows), rhs)
    if sol is None:
        raise ValueError("no form takes the prescribed values")
    return FormPoint(sigma, N, [sol if q == p else [0] * schur_dim(sigma[q], N) for q in range(len(sigma))])


def dot_product_form(N: int) -> FormPoint:
    """The standard symmetric bilinear form on k^N as a FormPoint for [(2)]."""
    values = {(i, j): int(i == j) for i in range(1, N + 1) for j in range(i, N + 1)}
    return form_from_tensor_values(PartitionTuple(((2,),)), N, 0, values)


def monomial_cubic_form(M: int) -> FormPoint:
    """The cubic monomial form x1 x2 x3 at rank M (for sigma = [(3)]): the
    functional picking the coefficient of the symmetrized basis vector on
    the word (1, 2, 3)."""
    if M < 3:
        raise ValueError("the monomial form needs rank at least 3")
    words = get_tensor_rep(Partition((3,)), M).source_words
    return FormPoint(PartitionTuple(((3,),)), M, [[int(w == (1, 2, 3)) for w in words]])
