"""Generalized stabilizers of a form at finite truncation.

A group element g lies in the level-n stabilizer set of a form when
moving the form by g is invisible on the first n coordinates: the
composite functional v -> omega(g v) agrees with omega on every Schur
functor evaluation at k^n.  These level sets are not subgroups; they
form a germinal system (nested, containing the identity, with an
approximate product law), which the suite here verifies on sampled
elements, constructively drawn from the subgroup fixing the first
coordinates plus any caller-supplied symmetries of special forms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .combinat import Partition, PartitionTuple, schur_dim
from .exactla import RatMat, rank
from .modcat import FormPoint, integer_columns, moved_values, translate
from .schurweyl import get_tensor_rep


class PreconditionError(ValueError):
    """A documented precondition was violated (as opposed to a check failing)."""


class GLElement:
    """An invertible rational matrix, implicitly extended by the identity.

    Held as g = G / den with den > 0 least and `cols`, the integer columns
    of G that differ from den e_k (`modcat.integer_columns`), so two
    elements are equal exactly when their infinite extensions agree; `m`
    is the largest letter such a column has or reaches.
    """

    __slots__ = ("m", "den", "cols")

    def __init__(self, mat):
        rows = mat.data if isinstance(mat, RatMat) else mat
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("matrix must be square")
        mat = RatMat(size, size, rows)
        if rank(mat) != size:
            raise ValueError("matrix must be invertible")
        self._set(*integer_columns(mat.data))

    def _set(self, den: int, cols: dict) -> "GLElement":
        self.den, self.cols = den, cols
        self.m = max((max(k, *col) for k, col in cols.items()), default=0)
        return self

    def embed(self, N: int) -> RatMat:
        if N < self.m:
            raise ValueError("cannot embed into a smaller rank")
        data = [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]
        for k, col in self.cols.items():
            for i in range(N):
                data[i][k - 1] = Fraction(col.get(i + 1, 0), self.den)
        return RatMat(N, N, data)

    def __mul__(self, other: "GLElement") -> "GLElement":
        # column k of (A / a)(B / b) is A (B e_k) / ab, where B e_k = b e_k
        # and A e_i = a e_i off the stored columns
        a, b = self.den, other.den
        cols = {k: {} for k in self.cols.keys() | other.cols.keys()}
        for k, col in cols.items():
            for i, x in other.cols.get(k, {k: b}).items():
                for r, y in self.cols.get(i, {i: a}).items():
                    col[r] = col.get(r, 0) + x * y
        g = gcd(a * b, *(y for col in cols.values() for y in col.values()))
        cols = {k: {r: y // g for r, y in col.items() if y} for k, col in cols.items()}
        den = a * b // g
        cols = {k: col for k, col in cols.items() if col != {k: den}}
        return GLElement.__new__(GLElement)._set(den, cols)

    def __eq__(self, other):
        return isinstance(other, GLElement) and (self.den, self.cols) == (other.den, other.cols)

    def __hash__(self):
        return hash((self.den, frozenset((k, frozenset(c.items())) for k, c in self.cols.items())))

    def __repr__(self):
        return f"GLElement(size={self.m})"


class GammaQuery(NamedTuple):
    form: FormPoint
    level: int
    g: GLElement


def _require_level(form: FormPoint, level: int, g: GLElement):
    if level < 0:
        raise PreconditionError(f"the level must be non-negative, got {level}")
    needed = max(level, g.m)
    if form.N < needed:
        raise PreconditionError(
            f"the form is truncated at rank {form.N}; this query needs rank {needed}"
        )


def in_gamma(q: GammaQuery) -> bool:
    """Membership in the level-n generalized stabilizer of the form."""
    form, n, g = q.form, q.level, q.g
    _require_level(form, n, g)
    for p, shape in enumerate(form.sigma):
        idx = get_tensor_rep(shape, form.N).restriction_indices(n)
        row = form.comps[p]
        for j, (total, div) in zip(idx, moved_values(form, p, g.den, g.cols, idx)):
            c = row[j]
            if total * c.denominator != c.numerator * div:
                return False
    return True


def gamma_product_level(g: GLElement, n: int) -> int:
    """The witness level for the approximate product law: any h stabilizing
    at level max(n, size of g) satisfies hg in Gamma(n) whenever g does
    (g maps the first n coordinates into the first max(n, size) ones)."""
    return max(n, g.m)


# ---------------------------------------------------------------------------
# constructive samplers

MOVES = 6  # elementary row moves per sampled element


def random_block_fixing(j: int, size: int, rng: random.Random) -> GLElement:
    """A random element of the subgroup fixing the first j coordinates:
    identity block of size j, a random integer unimodular block below."""
    if size < j:
        raise ValueError("size must be at least the fixed block")
    data = [[int(a == b) for b in range(size)] for a in range(size)]
    for _ in range(MOVES if size > j else 0):
        a = rng.randrange(j, size)
        b = rng.randrange(j, size)
        if a == b:
            ii, jj = a, (a + 1 if a + 1 < size else a - 1)
            if jj < j:
                continue
            data[ii], data[jj] = data[jj], data[ii]
            continue
        c = rng.randint(-2, 2)
        for k in range(size):
            data[a][k] += c * data[b][k]
    # row swaps and elementary moves are invertible: no rank check needed
    return GLElement.__new__(GLElement)._set(*integer_columns(data))


def random_unimodular(size: int, rng: random.Random) -> GLElement:
    """A random integer matrix of determinant +-1 (elementary moves)."""
    return random_block_fixing(0, size, rng)


def permutation_element(images: dict[int, int]) -> GLElement:
    """The permutation matrix sending coordinate i to images[i] (1-indexed);
    unspecified coordinates stay fixed.  The map i -> images.get(i, i)
    must permute the labels 1..size."""
    size = max([0, *images, *images.values()])
    labels = set(range(1, size + 1))
    if not labels >= images.keys() or {images.get(i, i) for i in labels} != labels:
        raise ValueError(f"{images} does not permute the labels 1..{size}")
    data = [[0] * size for _ in range(size)]
    for i in range(1, size + 1):
        data[images.get(i, i) - 1][i - 1] = 1
    return GLElement(data)


# ---------------------------------------------------------------------------
# axiom suite


def germinal_axiom_suite(
    form: FormPoint,
    levels: list[int],
    samples: int,
    seed: int,
    extra_members: list[GLElement] | None = None,
) -> list[dict]:
    """Verify the three germinal subgroup axioms on sampled elements.

    (a) the identity belongs to every level set; (b) level sets are
    nested downward; (c) the product law witnessed by
    gamma_product_level.  Members are sampled constructively from the
    subgroups fixing the first coordinates, plus `extra_members` (known
    symmetries of special forms), which are used at every level they
    actually belong to.  Returns one report per axiom.
    """
    if samples < 0:
        raise ValueError(f"the number of samples must be non-negative, got {samples}")
    rng = random.Random(seed)
    levels = sorted(set(int(x) for x in levels))
    if not levels:
        raise ValueError("need at least one level")
    if levels[0] < 0 or levels[-1] > form.N:
        raise PreconditionError("levels must lie between 0 and the form rank")
    extra = list(extra_members or [])
    reports = []

    # (a) identity membership, cycling through the levels
    failures = []
    passes = 0
    ident = GLElement([])
    total_a = max(samples, len(levels))
    for k in range(total_a):
        lvl = levels[k % len(levels)]
        if in_gamma(GammaQuery(form, lvl, ident)):
            passes += 1
        else:
            failures.append({"level": lvl, "reason": "identity rejected"})
    reports.append(
        {"axiom": "a", "samples": total_a, "passes": passes, "failures": failures}
    )

    def sample_member(level: int) -> GLElement:
        choices = ["block"]
        eligible = [
            e for e in extra if in_gamma(GammaQuery(form, level, e))
        ]
        if eligible:
            choices += ["extra", "extra"]
        kind = rng.choice(choices)
        if kind == "extra":
            return rng.choice(eligible)
        return random_block_fixing(level, form.N, rng)

    # (b) nesting: members established at level j stay members at i <= j
    failures = []
    passes = 0
    total = 0
    for _ in range(samples):
        j = rng.choice(levels)
        g = sample_member(j)
        if not in_gamma(GammaQuery(form, j, g)):
            failures.append({"level": j, "reason": "constructive sample rejected"})
            total += 1
            continue
        for i in [lvl for lvl in levels if lvl <= j]:
            total += 1
            if in_gamma(GammaQuery(form, i, g)):
                passes += 1
            else:
                failures.append({"level": i, "from_level": j, "reason": "nesting failed"})
    reports.append(
        {"axiom": "b", "samples": total, "passes": passes, "failures": failures}
    )

    # (c) product law at the witness level
    failures = []
    passes = 0
    total = 0
    for _ in range(samples):
        n = rng.choice(levels)
        g = sample_member(n)
        if not in_gamma(GammaQuery(form, n, g)):
            failures.append({"level": n, "reason": "constructive sample rejected"})
            total += 1
            continue
        j = gamma_product_level(g, n)
        if j > form.N:
            continue
        h = sample_member(j)
        if not in_gamma(GammaQuery(form, j, h)):
            failures.append({"level": j, "reason": "constructive sample rejected"})
            total += 1
            continue
        total += 1
        if in_gamma(GammaQuery(form, n, h * g)):
            passes += 1
        else:
            failures.append({"level": n, "witness": j, "reason": "product law failed"})
    reports.append(
        {"axiom": "c", "samples": total, "passes": passes, "failures": failures}
    )
    return reports


# ---------------------------------------------------------------------------
# linearity of specialized module maps


class MapPresentation(NamedTuple):
    """A module map presented on a single vector: phi(1 (x) v) equals the
    sum of f_i (x) w_i, with each coefficient function f_i a polynomial
    in the generator coordinates (a dict from monomials to rationals; a
    monomial is a sorted tuple of (entry index, basis index) factors) and
    each w_i either a scalar (target "unit") or a coordinate tuple in the
    realization of a Schur functor at the form's rank."""

    source_type: int
    target: object  # "unit" or a Partition
    pairs: tuple


def eval_poly(poly: dict, form: FormPoint) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.items():
        val = Fraction(c)
        for p, j in mono:
            val *= form.comps[p][j]
        total += val
    return total


def evaluation_presentation(form: FormPoint, p: int, v_coords) -> MapPresentation:
    """The canonical evaluation map on the p-th generator space, presented
    on the vector with the given realization coordinates: each coordinate
    becomes a degree-one coefficient function."""
    poly = {}
    for j, c in enumerate(v_coords):
        c = Fraction(c)
        if c:
            poly[((p, j),)] = c
    return MapPresentation(p, "unit", ((poly, Fraction(1)),))


def gamma_linearity_check(
    sigma,
    form: FormPoint,
    phi: MapPresentation,
    n: int,
    g: GLElement,
    v,
) -> bool:
    """Check that the specialization of the presented module map commutes
    with g on the vector v.

    Preconditions (violations raise PreconditionError, distinctly from a
    plain False): the form must be truncated deeply enough, and v must be
    invariant under the subgroup fixing the first n coordinates, i.e. its
    realization coordinates must be supported on basis vectors with
    letters at most n.  For g in the level-n stabilizer the result is
    always True; a False return on valid preconditions means either g is
    not a member or the presentation does not present a module map.
    """
    sigma = PartitionTuple(sigma)
    if sigma != form.sigma:
        raise PreconditionError("form does not match sigma")
    _require_level(form, n, g)
    src_shape = sigma[phi.source_type]
    rep = get_tensor_rep(src_shape, form.N)
    v = tuple(Fraction(x) for x in v)
    if len(v) != rep.dim:
        raise PreconditionError("v must have realization coordinates at the form rank")
    allowed = set(rep.restriction_indices(n))
    if any(c != 0 and j not in allowed for j, c in enumerate(v)):
        raise PreconditionError("v must lie in the evaluation at k^n")

    moved = translate(form, g.embed(form.N))
    if phi.target == "unit":
        diff = Fraction(0)
        for poly, w in phi.pairs:
            diff += (eval_poly(poly, moved) - eval_poly(poly, form)) * Fraction(w)
        return diff == 0
    acc = [Fraction(0)] * schur_dim(Partition(phi.target), form.N)
    for poly, w in phi.pairs:
        c = eval_poly(poly, moved) - eval_poly(poly, form)
        if c == 0:
            continue
        for j, x in enumerate(w):
            acc[j] += c * Fraction(x)
    # g is invertible, so its action on the target realization is too, and
    # g acc vanishes exactly when acc does
    return all(x == 0 for x in acc)
