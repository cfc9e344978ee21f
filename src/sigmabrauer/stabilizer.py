"""Generalized stabilizers of a form at finite truncation.

A group element g lies in the level-n stabilizer set of a form when
moving the form by g is invisible on the first n coordinates: the
composite functional v -> omega(g v) agrees with omega on every Schur
functor evaluation at k^n.  These level sets are not subgroups; they
form a germinal system (nested, containing the identity, with an
approximate product law), which the suite here verifies on sampled
elements, constructively drawn from the subgroup fixing the first
coordinates plus any caller-supplied symmetries of special forms.
The realization layers (`exactla`, `schurweyl`, `modcat`) are read as
module attributes, so a suite whose queries all hold by construction
loads none of them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import exactla, modcat, schurweyl
from .combinat import Partition, PreconditionError, schur_dim
from .forms import FormPoint, integer_columns


class GLElement:
    """An invertible rational matrix, implicitly extended by the identity.

    Held as g = G / den with den > 0 least and `cols`, the integer columns
    of G that differ from den e_k (`forms.integer_columns`), so two
    elements are equal exactly when their infinite extensions agree; `m`
    is the largest letter such a column has or reaches.
    """

    __slots__ = ("m", "den", "cols")

    def __init__(self, mat):
        rows = mat.data if isinstance(mat, exactla.RatMat) else mat
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("matrix must be square")
        mat = exactla.RatMat(size, size, rows)
        if exactla.rank(mat) != size:
            raise ValueError("matrix must be invertible")
        self._set(*integer_columns(mat.data))

    def _set(self, den: int, cols: dict) -> "GLElement":
        self.den, self.cols = den, cols
        self.m = max((max(k, *col) for k, col in cols.items()), default=0)
        return self

    @classmethod
    def _known(cls, den: int, cols: dict) -> "GLElement":
        """The element G / den with the stored integer columns `cols` of a
        matrix known to be invertible: no rank check."""
        return cls.__new__(cls)._set(den, cols)

    def embed(self, N: int) -> exactla.RatMat:
        if N < self.m:
            raise ValueError("cannot embed into a smaller rank")
        data = [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]
        for k, col in self.cols.items():
            for i in range(N):
                data[i][k - 1] = Fraction(col.get(i + 1, 0), self.den)
        return exactla.RatMat(N, N, data)

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
        return GLElement._known(den, cols)

    def __eq__(self, other):
        return isinstance(other, GLElement) and (self.den, self.cols) == (other.den, other.cols)

    def __hash__(self):
        return hash((self.den, frozenset((k, frozenset(c.items())) for k, c in self.cols.items())))

    def __repr__(self):
        return f"GLElement(size={self.m})"


def _require_level(form: FormPoint, level: int, g: GLElement):
    if level < 0:
        raise PreconditionError(f"the level must be non-negative, got {level}")
    needed = max(level, g.m)
    if form.N < needed:
        raise PreconditionError(
            f"the form is truncated at rank {form.N}; this query needs rank {needed}"
        )


def in_gamma(form: FormPoint, level: int, g: GLElement) -> bool:
    """Membership in the level-n generalized stabilizer of the form, n =
    level: omega_p(g b_j) = omega_p(b_j) at every level-n basis index j.
    g fixes e_x for every letter x outside `g.cols`, and the words of b_j
    are rearrangements of its source word, so g b_j = b_j unless that word
    meets `g.cols`: only those indices are read, and when g moves no letter
    at most n no realization is built."""
    _require_level(form, level, g)
    moved = g.cols.keys()
    if all(x > level for x in moved):
        return True
    for p, shape in enumerate(form.sigma):
        rep = schurweyl.get_tensor_rep(shape, form.N)
        idx = [j for j in rep.restriction_indices(level) if not moved.isdisjoint(rep.source_words[j])]
        row = form.comps[p]
        for j, (total, div) in zip(idx, modcat.moved_values(form, p, g.den, g.cols, idx)):
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
    if j < 0:
        raise ValueError(f"the fixed block must be non-negative, got {j}")
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
    return GLElement._known(*integer_columns(data))


def permutation_element(images: dict[int, int]) -> GLElement:
    """The permutation matrix sending coordinate i to images[i] (1-indexed);
    unspecified coordinates stay fixed.  The map i -> images.get(i, i)
    must permute the labels 1..size."""
    size = max([0, *images, *images.values()])
    labels = set(range(1, size + 1))
    if not labels >= images.keys() or {images.get(i, i) for i in labels} != labels:
        raise ValueError(f"{images} does not permute the labels 1..{size}")
    # column i is e_images[i]; the fixed letters store no column
    return GLElement._known(1, {i: {images[i]: 1} for i in sorted(images) if images[i] != i})


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
    # the identity and the extra members: their verdicts depend only on
    # the level, so each is tested once per level
    fixed = [GLElement._known(1, {}), *(extra_members or [])]
    verdicts: dict[tuple[int, int], bool] = {}

    def member(level: int, g: GLElement, k: int = 0) -> bool:
        """g's membership at level, where g is fixed[k] for k > 0, and a
        sample (the identity when it has no stored columns) for k = 0."""
        if not k and g.cols:
            return in_gamma(form, level, g)
        if (level, k) not in verdicts:
            verdicts[level, k] = in_gamma(form, level, fixed[k])
        return verdicts[level, k]

    def sample_member(level: int) -> tuple[GLElement, int]:
        eligible = [k for k in range(1, len(fixed)) if member(level, fixed[k], k)]
        # the draw is made even from ["block"]: it consumes randomness
        if rng.choice(["block", "extra", "extra"] if eligible else ["block"]) == "extra":
            k = rng.choice(eligible)
            return fixed[k], k
        return random_block_fixing(level, form.N, rng), 0

    def report(axiom: str, outcomes: list) -> dict:
        """An axiom's report; each outcome is None for a pass, else the failure."""
        failures = [o for o in outcomes if o is not None]
        passes = len(outcomes) - len(failures)
        return {"axiom": axiom, "samples": len(outcomes), "passes": passes, "failures": failures}

    rejected = "constructive sample rejected"

    # (a) identity membership, cycling through the levels
    cycle = [levels[k % len(levels)] for k in range(max(samples, len(levels)))]
    outcomes = [
        None if member(lvl, fixed[0]) else {"level": lvl, "reason": "identity rejected"}
        for lvl in cycle
    ]
    reports = [report("a", outcomes)]

    # (b) nesting: members established at level j stay members at i <= j
    outcomes = []
    for _ in range(samples):
        j = rng.choice(levels)
        g, k = sample_member(j)
        if not member(j, g, k):
            outcomes.append({"level": j, "reason": rejected})
            continue
        # the verdict at j itself, the last of these levels, was just established
        for i in levels[: levels.index(j) + 1]:
            if i == j or member(i, g, k):
                outcomes.append(None)
            else:
                outcomes.append({"level": i, "from_level": j, "reason": "nesting failed"})
    reports.append(report("b", outcomes))

    # (c) product law at the witness level; g is a member, so its letters,
    # and the witness level, are at most the form rank
    outcomes = []
    for _ in range(samples):
        n = rng.choice(levels)
        g, k = sample_member(n)
        if not member(n, g, k):
            outcomes.append({"level": n, "reason": rejected})
            continue
        j = gamma_product_level(g, n)
        h, k = sample_member(j)
        if not member(j, h, k):
            outcomes.append({"level": j, "reason": rejected})
        elif member(n, h * g):
            outcomes.append(None)
        else:
            outcomes.append({"level": n, "witness": j, "reason": "product law failed"})
    reports.append(report("c", outcomes))
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
    form: FormPoint,
    phi: MapPresentation,
    n: int,
    g: GLElement,
    v,
) -> bool:
    """Check that the specialization of the presented module map commutes
    with g on the vector v.

    Preconditions (violations raise PreconditionError, distinctly from a
    plain False): the form must be truncated deeply enough, v must be
    invariant under the subgroup fixing the first n coordinates, i.e. its
    realization coordinates must be supported on basis vectors with
    letters at most n, the source type and every (entry, basis index)
    factor of a monomial must name an entry of sigma and a basis vector of
    its realization, and every w of the presentation must be a scalar
    for the unit target, else the coordinates of a vector in the target's
    realization at the form rank.  For g in the level-n stabilizer the
    result is always True; a False return on valid preconditions means
    either g is not a member or the presentation does not present a
    module map.
    """
    _require_level(form, n, g)
    if not 0 <= phi.source_type < len(form.sigma):
        raise PreconditionError("the source type must index an entry of sigma")
    rep = schurweyl.get_tensor_rep(form.sigma[phi.source_type], form.N)
    v = tuple(Fraction(x) for x in v)
    if len(v) != rep.dim:
        raise PreconditionError("v must have realization coordinates at the form rank")
    allowed = set(rep.restriction_indices(n))
    if any(c != 0 and j not in allowed for j, c in enumerate(v)):
        raise PreconditionError("v must lie in the evaluation at k^n")

    moved = modcat.moved_form(form, g.den, g.cols)
    # the unit target is the one-coordinate realization
    unit = phi.target == "unit"
    acc = [Fraction(0)] * (1 if unit else schur_dim(Partition(phi.target), form.N))
    for poly, w in phi.pairs:
        try:
            w = [Fraction(w)] if unit else [Fraction(x) for x in w]
        except (TypeError, ValueError):
            w = []
        if len(w) != len(acc):
            expected = "a scalar" if unit else f"{len(acc)} coordinates in the target realization"
            raise PreconditionError(f"every w must be {expected}")
        if not all(0 <= p < len(form.comps) and 0 <= j < len(form.comps[p])
                   for mono in poly for p, j in mono):
            raise PreconditionError("every monomial factor must be an (entry, basis index) of the form")
        c = eval_poly(poly, moved) - eval_poly(poly, form)
        for j, x in enumerate(w):
            acc[j] += c * x
    # g is invertible, so its action on the target realization is too, and
    # g acc vanishes exactly when acc does
    return all(x == 0 for x in acc)
