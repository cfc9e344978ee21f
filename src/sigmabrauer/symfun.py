"""Exact symmetric function calculus in the Schur basis.

Products read the ballot-pruned skew expansion `skew_schur_expand`, the
one Littlewood-Richardson tableau enumerator.  Plethysms h_a[f] and
e_a[f] go through the power-sum basis (Macdonald, Symmetric Functions
and Hall Polynomials, I.7-I.8): each term of f
expands as s_nu = sum_tau chi^nu(tau) p_tau / z_tau, then
h_a[f] = sum over rho of a of z_rho^-1 prod_k p_{rho_k}[f] with
p_k[p_tau] = p_{k tau}, and e_a[f] weights each term by
(-1)^(a - len(rho)), all in integers over one common denominator.  The
free algebra character Sym_d and the exterior powers stay in power sums,
where a product is a concatenation of cycle types.  A pairing with s_nu
is <p_pi, s_nu> = chi^nu(pi), the Murnaghan-Nakayama value of
`characters.mn_character`: a composition multiplicity (`multiplicity`,
Sym_d against s_{lam/mu}) or an Ext dimension (`ext_dim`, an exterior
power against s_{mu/lam}) pairs with the few s_nu of one skew expansion
(`schur_pairing`), and a Schur expansion reads back every s_nu.  Each
pairing is with a GL character, so a value that is not a non-negative
integer raises RuntimeError.  No plethysm builds a monomial or depends
on a number of variables.  The Kostka numbers (`kostka`, read off
`lr_product`) and the monomial expansions (`schur_monomials`) are
reference operations: they live in `oracles` and are read here through
the module `__getattr__`, each with its own cache; their private helper
is read only there.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .characters import beta_set, centralizer_size, mn_character
from .combinat import Partition, PartitionTuple, exact, partitions, schur_dim, subpartitions

# The reference operations `oracles` defines, served from here on first read.
_ORACLES = ("kostka", "schur_monomials")


def __getattr__(name: str):
    if name in _ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SchurExpr:
    """A finitely supported Q-linear combination of Schur functions; an
    integral coefficient is held as an int (see `combinat.exact`)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for p, c in (terms or {}).items():
            c = exact(c)
            if c:
                clean[Partition(p)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "SchurExpr":
        return cls({})

    @classmethod
    def one(cls) -> "SchurExpr":
        return cls({Partition(): 1})

    @classmethod
    def schur(cls, p) -> "SchurExpr":
        return cls({Partition(p): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SchurExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SchurExpr") -> "SchurExpr":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return SchurExpr(out)

    def __sub__(self, other: "SchurExpr") -> "SchurExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "SchurExpr":
        c = exact(c)
        return SchurExpr({p: c * v for p, v in self.terms.items()})

    def __mul__(self, other: "SchurExpr") -> "SchurExpr":
        return lr_product(self, other)

    def coefficient(self, p):
        return self.terms.get(Partition(p), 0)

    def degrees(self) -> set[int]:
        return {p.size for p in self.terms}

    def max_degree(self) -> int:
        return max((p.size for p in self.terms), default=0)

    def degree_component(self, d: int) -> "SchurExpr":
        return SchurExpr({p: c for p, c in self.terms.items() if p.size == d})

    def __repr__(self):
        if not self.terms:
            return "SchurExpr(0)"
        bits = []
        for p in sorted(self.terms, key=lambda q: (q.size, q)):
            c = self.terms[p]
            bits.append(f"{c}*s{tuple(p)}")
        return "SchurExpr(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# Littlewood-Richardson


@lru_cache(maxsize=None)
def skew_schur_expand(lam: Partition, mu: Partition) -> SchurExpr:
    """Schur expansion of the skew function for the shape lam/mu.

    Enumerates semistandard fillings of the skew diagram whose reverse
    reading word is a ballot sequence, abandoning a partial filling as
    soon as its word stops being a ballot prefix; each filling contributes
    1 to the coefficient of its content.  This is the package's only
    Littlewood-Richardson enumerator: `lr_product`, `shift_decompose`,
    `multiplicity` and `ext_dim` read it, and `oracles.kostka` reads it
    through `lr_product`.
    """
    lam, mu = Partition(lam), Partition(mu)
    if not lam.contains(mu):
        return SchurExpr.zero()
    size = lam.size - mu.size
    if size == 0:
        return SchurExpr.one()

    cells = []
    inner = tuple(mu) + (0,) * (len(lam) - len(mu))
    for r in range(len(lam)):
        for c in range(lam[r] - 1, inner[r] - 1, -1):
            cells.append((r, c))

    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (size + 2)  # counts[ell] = occurrences of label ell so far
    out: dict[tuple[int, ...], int] = {}

    def rec(idx: int):
        if idx == len(cells):
            # a ballot word's content is a partition: counts[1:] decreases
            # weakly to its first zero (counts[size + 1] is always 0)
            content = tuple(counts[1 : counts.index(0, 1)])
            out[content] = out.get(content, 0) + 1
            return
        r, c = cells[idx]
        hi = size
        right = filling.get((r, c + 1))
        if right is not None:
            hi = min(hi, right)
        lo = 1
        up = filling.get((r - 1, c))
        if up is not None:
            lo = up + 1
        for ell in range(lo, hi + 1):
            if ell > 1 and counts[ell - 1] <= counts[ell]:
                continue  # ballot prefix would fail
            filling[(r, c)] = ell
            counts[ell] += 1
            rec(idx + 1)
            counts[ell] -= 1
            del filling[(r, c)]

    rec(0)
    return SchurExpr(out)


def lr_product(a: SchurExpr, b: SchurExpr) -> SchurExpr:
    """Schur expansion of the product a*b.  By c^nu_{lam,mu} =
    <s_{nu/lam}, s_mu> (Macdonald I.5), the coefficient of s_nu in
    s_lam * b_d, for b_d the degree-d part of b, is the pairing of b_d
    with the skew expansion of nu/lam."""
    out = {}
    for d in b.degrees():
        b_d = b.degree_component(d)
        for lam, ca in a.terms.items():
            for nu in partitions(lam.size + d):
                if nu.contains(lam):
                    c = inner_product(skew_schur_expand(nu, lam), b_d)
                    if c:
                        out[nu] = out.get(nu, 0) + ca * c
    return SchurExpr(out)


def inner_product(a: SchurExpr, b: SchurExpr):
    """Hall inner product: Schur functions are orthonormal."""
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    return exact(sum(c * big[p] for p, c in small.items() if p in big))


# ---------------------------------------------------------------------------
# plethysm


def _power_sums(f: SchurExpr) -> tuple[int, dict[tuple[int, ...], int]]:
    """(den, F) with f = sum_tau F[tau] p_tau / den and integer F, from
    s_nu = sum_tau chi^nu(tau) p_tau / z_tau; z_tau divides |tau|!, so den
    is the factorial of the largest degree of f."""
    den = factorial(f.max_degree())
    out: dict[tuple[int, ...], int] = {}
    for nu, c in f.terms.items():
        if c.denominator != 1 or c < 0:
            raise ValueError(
                "plethysm requires non-negative integer coefficients in the inner argument"
            )
        beta = beta_set(nu)
        for tau in partitions(nu.size):
            x = mn_character(beta, tau)
            if x:
                out[tau] = out.get(tau, 0) + int(c) * x * (den // centralizer_size(tau))
    return den, {tau: c for tau, c in out.items() if c}


def _add_product(out: dict, f, g) -> dict:
    """Add to `out` the product of two power-sum expansions, each given as
    (cycle type, coefficient) pairs: p_pi p_tau is p of the concatenated
    cycle type.  One multiplication per term."""
    for pi, a in f:
        for tau, b in g:
            key = tuple(sorted(pi + tau, reverse=True))
            out[key] = out.get(key, 0) + a * b
    return out


def _plethysm_power_sums(outer: int, inner: SchurExpr, mode: str) -> tuple[int, dict]:
    """(common, A) with h_a[inner] (mode "h") or e_a[inner] (mode "e") equal
    to sum_pi A[pi] p_pi / common and integer A."""
    if outer < 0:
        raise ValueError("outer index must be non-negative")
    if outer == 0:
        return 1, {(): 1}
    if not inner:
        return 1, {}
    den, f = _power_sums(inner)
    # h_a[f] = sum_rho z_rho^-1 prod_k p_{rho_k}[f], and e_a[f] weights each
    # term by (-1)^(a - len(rho)); p_k[p_tau] = p_{k tau}.  Over the common
    # denominator a! den^a, the term of rho has weight a!/z_rho den^(a - len(rho)).
    common = factorial(outer) * den**outer
    total: dict[tuple[int, ...], int] = {}
    for rho in partitions(outer):
        weight = common // (centralizer_size(rho) * den ** len(rho))
        terms = {(): -weight if mode == "e" and (outer - len(rho)) % 2 else weight}
        for k in rho:
            scaled = [(tuple(k * t for t in tau), b) for tau, b in f.items()]
            terms = _add_product({}, terms.items(), scaled)
        for pi, a in terms.items():
            total[pi] = total.get(pi, 0) + a
    return common, total


def schur_pairing(expansion: tuple[int, dict], g: SchurExpr) -> int:
    """<f, g> for f = sum_pi A[pi] p_pi / common, given as (common, A), and
    g a non-negative integer combination of Schur functions, by
    <p_pi, s_nu> = chi^nu(pi): only the s_nu of g are read.  f is a GL
    character, so each <f, s_nu> must be a non-negative integer."""
    common, terms = expansion
    total = 0
    for nu, m in g.terms.items():
        beta, n = beta_set(nu), nu.size
        c = sum(a * mn_character(beta, pi) for pi, a in terms.items() if sum(pi) == n)
        if c % common or c < 0:
            raise RuntimeError(f"coefficient {exact(c, common)} of s{tuple(nu)} is not a count")
        total += int(m) * (c // common)
    return total


def _read_back(expansion: tuple[int, dict]) -> SchurExpr:
    """Every Schur coefficient of a power-sum expansion (common, A)."""
    degrees = sorted({sum(pi) for pi, a in expansion[1].items() if a})
    s = SchurExpr.schur
    return SchurExpr({mu: schur_pairing(expansion, s(mu)) for d in degrees for mu in partitions(d)})


def plethysm_h(a: int, inner: SchurExpr) -> SchurExpr:
    """Plethysm h_a[inner]: the a-th symmetric power on characters."""
    return _read_back(_plethysm_power_sums(a, inner, "h"))


def plethysm_e(i: int, inner: SchurExpr) -> SchurExpr:
    """Plethysm e_i[inner]: the i-th exterior power on characters."""
    return _read_back(_plethysm_power_sums(i, inner, "e"))


# ---------------------------------------------------------------------------
# the free algebra character and shifts


def _pure(sigma) -> PartitionTuple:
    sigma = PartitionTuple(sigma)
    if not sigma.pure:
        raise ValueError("sigma must be pure (no empty partition entries)")
    return sigma


@lru_cache(maxsize=None)
def sym_algebra_power_sums(sigma: PartitionTuple, d: int) -> tuple[int, dict]:
    """(d!, A): the degree-d part Sym_d of the symmetric algebra on one
    generator space per entry of sigma, prod_p sum_a h_a[s_{sigma_p}], as
    sum_pi A[pi] p_pi / d!.  Each degree-k piece is held over k!, so a
    product of pieces of degrees k and l concatenates cycle types with the
    factor C(k+l, k) = (k+l)!/(k! l!)."""
    sigma = _pure(sigma)
    if d < 0:
        raise ValueError("degree must be non-negative")
    acc: dict[int, dict] = {0: {(): 1}}
    last = len(sigma) - 1
    for j, p in enumerate(sigma):
        g = p.size
        pieces: dict[int, tuple[int, dict]] = {}
        new: dict[int, dict] = {}
        for k, f1 in acc.items():
            # only degree d is read, so the last entry forms only k + l = d
            for l in range(d - k if j == last else 0, d - k + 1, g):
                if l % g:
                    continue
                if l not in pieces:
                    pieces[l] = _plethysm_power_sums(l // g, SchurExpr.schur(p), "h")
                common, f2 = pieces[l]
                scale = comb(k + l, k) * (factorial(l) // common)
                scaled = [(pi, scale * a) for pi, a in f1.items()]
                _add_product(new.setdefault(k + l, {}), scaled, f2.items())
        acc = new
    return factorial(d), acc.get(d, {})


def sym_algebra_degree(sigma: PartitionTuple, d: int) -> SchurExpr:
    """Degree-d Schur expansion of the symmetric algebra on one generator
    space per entry of sigma: the read-back of `sym_algebra_power_sums`."""
    return _read_back(sym_algebra_power_sums(sigma, d))


@lru_cache(maxsize=None)
def exterior_power_sums(sigma: PartitionTuple, i: int) -> tuple[int, dict]:
    """(common, A): the i-th exterior power e_i[sum_p s_{sigma_p}] of the
    generator space of sigma, as sum_pi A[pi] p_pi / common."""
    inner = sum((SchurExpr.schur(p) for p in _pure(sigma)), SchurExpr.zero())
    return _plethysm_power_sums(i, inner, "e")


def exterior_power_char(sigma: PartitionTuple, i: int) -> SchurExpr:
    """Schur expansion of `exterior_power_sums`: the i-th exterior power."""
    return _read_back(exterior_power_sums(sigma, i))


def shift_decompose(lam: Partition, n: int) -> dict[Partition, int]:
    """Multiplicities in the rank-n shift of the Schur functor for lam.

    Expands the evaluation on (k^n plus V): the multiplicity of nu is
    sum over mu inside lam of c^lam_{mu,nu} * dim S_mu(k^n).
    """
    lam = Partition(lam)
    if n < 0:
        raise ValueError("n must be non-negative")
    out: dict[Partition, int] = {}
    for mu in subpartitions(lam):
        mult = schur_dim(mu, n)
        if mult == 0:
            continue
        for nu, c in skew_schur_expand(lam, mu).terms.items():
            if c.denominator != 1:
                raise RuntimeError("skew Schur expansion has a non-integer coefficient")
            out[nu] = out.get(nu, 0) + mult * int(c)
    return {nu: m for nu, m in out.items() if m != 0}


# ---------------------------------------------------------------------------
# multiplicities and Ext


def multiplicity(sigma, lam, mu) -> int:
    """Composition multiplicity of the simple labeled mu inside the
    injective labeled lam: <s_lam, s_mu Sym_d> for Sym_d the degree
    d = |lam|-|mu| part of the free algebra character.  By
    c^lam_{mu,nu} = <s_{lam/mu}, s_nu> (Macdonald I.5) this is
    sum_nu c_nu <s_nu, Sym_d> over the skew expansion of lam/mu, each
    pairing read off Sym_d in power sums by <p_pi, s_nu> = chi^nu(pi)."""
    sigma = PartitionTuple(sigma)
    lam, mu = Partition(lam), Partition(mu)
    if mu.size > lam.size:
        return 0
    d = lam.size - mu.size
    return schur_pairing(sym_algebra_power_sums(sigma, d), skew_schur_expand(lam, mu))


def ext_dim(sigma, i: int, lam, mu) -> int:
    """Dimension of the degree-i Ext space between the simples labeled lam
    and mu: <s_lam e_i[V], s_mu> = <e_i[V], s_{mu/lam}> for V the
    generator space, the exterior power paired in power sums with the
    skew expansion of mu/lam, at degree |mu|-|lam| only."""
    sigma = PartitionTuple(sigma)
    if i < 0:
        raise ValueError("i must be non-negative")
    lam, mu = Partition(lam), Partition(mu)
    return schur_pairing(exterior_power_sums(sigma, i), skew_schur_expand(mu, lam))
