"""Exact symmetric function calculus in the Schur basis.

Products are computed by Littlewood-Richardson skew tableau enumeration,
plethysms h_a[f] and e_i[f] by monomial substitution in a finite
alphabet followed by conversion back to the Schur basis by repeated
subtraction of the lexicographically leading term.  The alphabet has
a * l letters, l the largest length (number of rows) of a term of f,
which makes the finite-variable computation faithful: every Schur
constituent of h_a[f] or e_a[f] also occurs in f^a, so by
Littlewood-Richardson its length is at most a * l, and the Schur
polynomials of length at most the number of letters are linearly
independent.

A monomial is one packed integer word, each letter's exponent in its
own field of bits wide enough for the largest degree, so a product of
monomials is one integer addition.  Before the conversion the result
is certified symmetric on the packed words (a transposition and the
full cycle generate the symmetric group), and the conversion then
reads it only at its dominant words, the partitions of each degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import comb

from .combinat import Partition, PartitionTuple, partitions


class SchurExpr:
    """A finitely supported Q-linear combination of Schur functions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Partition, Fraction] = {}
        for p, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                clean[Partition(p)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "SchurExpr":
        return cls({})

    @classmethod
    def one(cls) -> "SchurExpr":
        return cls({Partition(): Fraction(1)})

    @classmethod
    def schur(cls, p) -> "SchurExpr":
        return cls({Partition(p): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SchurExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SchurExpr") -> "SchurExpr":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, Fraction(0)) + c
        return SchurExpr(out)

    def __sub__(self, other: "SchurExpr") -> "SchurExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "SchurExpr":
        c = Fraction(c)
        return SchurExpr({p: c * v for p, v in self.terms.items()})

    def __mul__(self, other: "SchurExpr") -> "SchurExpr":
        return lr_product(self, other)

    def coefficient(self, p) -> Fraction:
        return self.terms.get(Partition(p), Fraction(0))

    def degrees(self) -> set[int]:
        return {p.size for p in self.terms}

    def max_degree(self) -> int:
        return max((p.size for p in self.terms), default=0)

    def degree_component(self, d: int) -> "SchurExpr":
        return SchurExpr({p: c for p, c in self.terms.items() if p.size == d})

    def is_nonneg_integral(self) -> bool:
        return all(c.denominator == 1 and c >= 0 for c in self.terms.values())

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


def _horizontal_strip_additions(shape: tuple[int, ...], k: int):
    """All shapes obtained from `shape` by adding a horizontal strip of size k.

    Yields (new_shape, added_cells); cells are (row, col), 0-indexed.
    """
    nrows = len(shape)

    def rec(r: int, remaining: int, built: tuple[int, ...], cells: tuple):
        if r == nrows + 1:
            if remaining == 0:
                yield built, cells
            return
        old = shape[r] if r < nrows else 0
        hi = old + remaining
        if r > 0:
            # partition condition against the new row above, and the strip
            # condition (no two added cells in one column) against the old one
            hi = min(hi, built[r - 1], shape[r - 1])
        for new_len in range(old, hi + 1):
            newcells = cells + tuple((r, c) for c in range(old, new_len))
            yield from rec(r + 1, remaining - (new_len - old), built + (new_len,), newcells)

    for built, cells in rec(0, k, (), ()):
        trimmed = tuple(x for x in built if x > 0)
        yield trimmed, cells


def _is_ballot(word) -> bool:
    counts: dict[int, int] = {}
    for ell in word:
        counts[ell] = counts.get(ell, 0) + 1
        if ell > 1 and counts.get(ell - 1, 0) < counts[ell]:
            return False
    return True


@lru_cache(maxsize=None)
def _lr_expansion(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """Expansion of s_lam * s_mu as ((nu, c), ...), by LR tableau enumeration."""
    results: dict[tuple[int, ...], int] = {}

    def place(label: int, shape: tuple[int, ...], cells: tuple):
        if label > len(mu):
            word = tuple(
                ell for (_r, _c, ell) in sorted(cells, key=lambda t: (t[0], -t[1]))
            )
            if _is_ballot(word):
                results[shape] = results.get(shape, 0) + 1
            return
        for new_shape, added in _horizontal_strip_additions(shape, mu[label - 1]):
            place(
                label + 1,
                new_shape,
                cells + tuple((r, c, label) for (r, c) in added),
            )

    place(1, tuple(lam), ())
    return tuple(sorted((Partition(nu), c) for nu, c in results.items()))


def lr_product(a: SchurExpr, b: SchurExpr) -> SchurExpr:
    """Schur expansion of the product a*b."""
    out: dict[Partition, Fraction] = {}
    for lam, ca in a.terms.items():
        for mu, cb in b.terms.items():
            for nu, c in _lr_expansion(lam, mu):
                out[nu] = out.get(nu, Fraction(0)) + ca * cb * c
    return SchurExpr(out)


@lru_cache(maxsize=None)
def skew_schur_expand(lam: Partition, mu: Partition) -> SchurExpr:
    """Schur expansion of the skew function for the shape lam/mu.

    Enumerates semistandard fillings of the skew diagram whose reverse
    reading word is a ballot sequence; each filling contributes 1 to the
    coefficient of its content.
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
    out: dict[Partition, Fraction] = {}

    def rec(idx: int):
        if idx == len(cells):
            content = []
            for ell in range(1, size + 1):
                if counts[ell] == 0:
                    break
                content.append(counts[ell])
            nu = Partition(content)
            out[nu] = out.get(nu, Fraction(0)) + 1
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


def inner_product(a: SchurExpr, b: SchurExpr) -> Fraction:
    """Hall inner product: Schur functions are orthonormal."""
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    return sum((c * big[p] for p, c in small.items() if p in big), Fraction(0))


# ---------------------------------------------------------------------------
# Kostka numbers and monomial expansions


@lru_cache(maxsize=None)
def kostka(lam: Partition, mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    The recursion removes the horizontal strip of mu's last letter and
    calls back with the rest of the shape as a plain tuple, which hashes
    and compares like the Partition it stands for."""
    shape = tuple(lam)
    if sum(mu) != sum(shape):
        return 0
    if not mu:
        return 1
    rest = mu[:-1]
    total = 0

    def rec(r: int, remaining: int, built: tuple[int, ...]):
        nonlocal total
        if r == len(shape):
            if remaining == 0:
                total += kostka(tuple(x for x in built if x), rest)
            return
        lo = shape[r + 1] if r + 1 < len(shape) else 0
        hi = shape[r]
        for new_len in range(hi, lo - 1, -1):
            removed = shape[r] - new_len
            if removed > remaining:
                continue
            if built and new_len > built[-1]:
                continue
            rec(r + 1, remaining - removed, built + (new_len,))

    rec(0, mu[-1], ())
    return total


def _distinct_arrangements(mu: Partition, nvars: int):
    """Distinct length-`nvars` exponent tuples whose nonzero entries are mu."""
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


def _dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order on partitions of one size: every partial sum of lam
    is at least the corresponding partial sum of mu.  Past the end of the
    shorter one the comparison cannot fail unless it already has."""
    return all(a >= b for a, b in zip(accumulate(lam), accumulate(mu)))


def _pack(exp, shift: int) -> int:
    """The word of an exponent vector: letter k's exponent in bits
    shift*k .. shift*(k+1)-1."""
    return sum(e << (shift * k) for k, e in enumerate(exp))


def _packed_to_schur(words: dict[int, int | Fraction], nvars: int, shift: int, degrees) -> SchurExpr:
    """Schur expansion of a polynomial in nvars letters given by its packed
    monomials (nonzero coefficients only), with `shift` bits enough for
    every degree in `degrees`, the degrees it has.

    Symmetry is certified first: the transposition of the first two
    letters and the cycle of all of them generate the symmetric group, so
    the polynomial is symmetric iff each of them maps every word to one
    with the same coefficient.  A symmetric polynomial is then fixed by
    its dominant words, the partitions kappa of each degree with at most
    nvars parts; in descending lexicographic order the coefficient of
    s_kappa is that of kappa less what the earlier Schur terms put there
    (K_{lam kappa} = 0 unless lam dominates kappa)."""
    mask = (1 << shift) - 1
    top = shift * (nvars - 1)
    for w, c in words.items():
        # the cycle moves letter 0's field to the top; exchanging letters 0
        # and 1 (exponents a, b) adds (a - b) * (2^shift - 1)
        first = w & mask
        if words.get((w >> shift) | (first << top), 0) != c or (
            nvars > 1 and words.get(w + (first - ((w >> shift) & mask)) * mask, 0) != c
        ):
            raise ValueError("input monomials are not symmetric")
    out: dict[Partition, int | Fraction] = {}
    for d in sorted(degrees):
        shapes = [kappa for kappa in partitions(d) if len(kappa) <= nvars]
        found: dict[Partition, int | Fraction] = {}
        for i, kappa in enumerate(shapes):
            c = words.get(_pack(kappa, shift), 0) - found.get(kappa, 0)
            if not c:
                continue
            out[kappa] = c
            for mu in shapes[i + 1 :]:
                if _dominates(kappa, mu):
                    found[mu] = found.get(mu, 0) + c * kostka(kappa, mu)
    return SchurExpr(out)


def monomials_to_schur(mono: dict[tuple[int, ...], int | Fraction], nvars: int) -> SchurExpr:
    """Convert a symmetric polynomial, given by its monomials, to the Schur basis.

    Coefficients may be ints or Fractions; a polynomial that is not
    symmetric in nvars letters raises ValueError."""
    mono = {exp: c for exp, c in mono.items() if c}
    degrees = {sum(exp) for exp in mono}
    shift = max(degrees, default=0).bit_length()
    words = {_pack(exp, shift): c for exp, c in mono.items()}
    return _packed_to_schur(words, nvars, shift, degrees)


# ---------------------------------------------------------------------------
# plethysm


def _inner_monomial_multiset(inner: SchurExpr, nvars: int, shift: int) -> dict[int, int]:
    mono: dict[int, int] = {}
    for p, c in inner.terms.items():
        if c.denominator != 1 or c < 0:
            raise ValueError(
                "plethysm requires non-negative integer coefficients in the inner argument"
            )
        for exp, k in schur_monomials(p, nvars):
            w = _pack(exp, shift)
            mono[w] = mono.get(w, 0) + int(c) * k
    return mono


def _plethysm(outer: int, inner: SchurExpr, mode: str) -> SchurExpr:
    if outer < 0:
        raise ValueError("outer index must be non-negative")
    if outer == 0:
        return SchurExpr.one()
    if not inner:
        return SchurExpr.zero()
    # every constituent of the result has length at most outer times the
    # largest length of an inner term (see the module docstring), so this
    # many letters keep the Schur polynomials of the result independent
    nvars = max(1, outer * max(len(p) for p in inner.terms))
    # no exponent and no degree of the result exceeds outer times the
    # inner degree, so words of `shift` bits a letter add without carries
    shift = (outer * inner.max_degree()).bit_length()
    mono = _inner_monomial_multiset(inner, nvars, shift)

    # generating-function DP over distinct monomial values: the h-series of
    # a value v with multiplicity m is sum_j C(m+j-1, j) v^j t^j, the
    # e-series is sum_j C(m, j) v^j t^j; poly[deg] is updated in place from
    # the top down, so it reads the lower degrees before they change
    poly: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(outer)]
    for v, m in mono.items():
        jmax = outer if mode == "h" else min(outer, m)
        coeffs = [comb(m + j - 1, j) if mode == "h" else comb(m, j) for j in range(jmax + 1)]
        for deg in range(outer, 0, -1):
            tgt = poly[deg]
            for j in range(1, min(jmax, deg) + 1):
                cj, vj = coeffs[j], j * v
                for w, cc in poly[deg - j].items():
                    w += vj
                    tgt[w] = tgt.get(w, 0) + cc * cj
    degrees = {sum(ds) for ds in combinations_with_replacement(inner.degrees(), outer)}
    return _packed_to_schur(poly[outer], nvars, shift, degrees)


def plethysm_h(a: int, inner: SchurExpr) -> SchurExpr:
    """Plethysm h_a[inner]: the a-th symmetric power on characters."""
    return _plethysm(a, inner, "h")


def plethysm_e(i: int, inner: SchurExpr) -> SchurExpr:
    """Plethysm e_i[inner]: the i-th exterior power on characters."""
    return _plethysm(i, inner, "e")


# ---------------------------------------------------------------------------
# the free algebra character and shifts


@lru_cache(maxsize=None)
def sym_algebra_degree(sigma: PartitionTuple, d: int) -> SchurExpr:
    """Degree-d Schur expansion of the symmetric algebra on one generator
    space per entry of sigma (the product over p of sum_a h_a[s_{sigma_p}])."""
    sigma = PartitionTuple(sigma)
    if not sigma.pure:
        raise ValueError("sigma must be pure (no empty partition entries)")
    if d < 0:
        raise ValueError("degree must be non-negative")
    acc: dict[int, SchurExpr] = {0: SchurExpr.one()}
    for p in sigma:
        g = p.size
        pieces = {
            a * g: plethysm_h(a, SchurExpr.schur(p)) for a in range(d // g + 1)
        }
        new: dict[int, SchurExpr] = {}
        for d1, f1 in acc.items():
            for d2, f2 in pieces.items():
                if d1 + d2 > d:
                    continue
                term = lr_product(f1, f2)
                new[d1 + d2] = new.get(d1 + d2, SchurExpr.zero()) + term
        acc = new
    return acc.get(d, SchurExpr.zero())


@lru_cache(maxsize=None)
def exterior_power_char(sigma: PartitionTuple, i: int) -> SchurExpr:
    """Character of the i-th exterior power of the generator space of sigma."""
    sigma = PartitionTuple(sigma)
    if not sigma.pure:
        raise ValueError("sigma must be pure (no empty partition entries)")
    inner = SchurExpr.zero()
    for p in sigma:
        inner = inner + SchurExpr.schur(p)
    return plethysm_e(i, inner)


def shift_decompose(lam: Partition, n: int) -> dict[Partition, int]:
    """Multiplicities in the rank-n shift of the Schur functor for lam.

    Expands the evaluation on (k^n plus V): the multiplicity of nu is
    sum over mu inside lam of c^lam_{mu,nu} * dim S_mu(k^n).
    """
    from .combinat import schur_dim, subpartitions

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
