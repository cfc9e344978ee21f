"""The downwards and upwards block-decorated Brauer categories.

Objects are the sets {1..n}, encoded by their size.  A basis diagram
from [n] to [m] is a collection of blocks (support, type index, basis
polytabloid index) with pairwise disjoint supports inside [n], together
with a bijection from the unused labels onto [m].  Morphisms are exact
rational combinations of basis diagrams in normal form: blocks sorted
by the minimum of their support, every Specht coefficient expanded into
the standard polytabloid basis, no zero terms.  The straightening
relations of the Specht modules are therefore quotiented out by
construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from typing import NamedTuple

from .combinat import PartitionTuple, specht_dim
from .specht import SpechtVector, get_specht_module


class Block(NamedTuple):
    support: tuple[int, ...]
    type_index: int
    basis_index: int


class Diagram(NamedTuple):
    source: int
    target: int
    blocks: tuple[Block, ...]
    matching: tuple[tuple[int, int], ...]

    def encoding(self):
        return (self.source, self.target, self.blocks, self.matching)


def _normalize_blocks(blocks) -> tuple[Block, ...]:
    out = []
    for support, p, t in blocks:
        out.append(Block(tuple(sorted(support)), int(p), int(t)))
    out.sort(key=lambda b: (min(b.support), b.type_index))
    return tuple(out)


def validate_diagram(sigma: PartitionTuple, d: Diagram):
    used: set[int] = set()
    for b in d.blocks:
        if not (0 <= b.type_index < len(sigma)):
            raise ValueError("block type index out of range")
        shape = sigma[b.type_index]
        if len(b.support) != shape.size:
            raise ValueError("block support size must equal the size of its type")
        if used & set(b.support):
            raise ValueError("block supports must be disjoint")
        if not all(1 <= x <= d.source for x in b.support):
            raise ValueError("block support must lie inside the source")
        if not (0 <= b.basis_index < specht_dim(shape)):
            raise ValueError("block basis index out of range")
        used |= set(b.support)
    dom = [s for s, _ in d.matching]
    cod = [t for _, t in d.matching]
    if sorted(dom) != sorted(set(range(1, d.source + 1)) - used):
        raise ValueError("matching must cover exactly the unused source labels")
    if sorted(cod) != list(range(1, d.target + 1)):
        raise ValueError("matching must be a bijection onto the target")


def make_diagram(sigma, source, target, blocks, matching) -> Diagram:
    """Build and validate a basis diagram.

    `source` and `target` are sizes (the objects {1..n}), or arbitrary
    iterables of integer labels, which are normalized to {1..n} by their
    order on intake (order-preserving relabeling leaves polytabloid
    indices unchanged).
    """
    if not isinstance(source, int):
        order = {x: i + 1 for i, x in enumerate(sorted(source))}
        blocks = [(tuple(order[x] for x in sup), p, t) for sup, p, t in blocks]
        matching = [(order[s], t) for s, t in matching]
        source = len(order)
    if not isinstance(target, int):
        order = {x: i + 1 for i, x in enumerate(sorted(target))}
        matching = [(s, order[t]) for s, t in matching]
        target = len(order)
    d = Diagram(
        int(source),
        int(target),
        _normalize_blocks(blocks),
        tuple(sorted((int(s), int(t)) for s, t in matching)),
    )
    validate_diagram(PartitionTuple(sigma), d)
    return d


class Morphism:
    """Normalized rational combination of basis diagrams with fixed boundary."""

    __slots__ = ("sigma", "source", "target", "terms")

    def __init__(self, sigma, source: int, target: int, terms=None):
        self.sigma = PartitionTuple(sigma)
        self.source = int(source)
        self.target = int(target)
        clean: dict[Diagram, Fraction] = {}
        for d, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if (d.source, d.target) != (self.source, self.target):
                raise ValueError("all terms must share the morphism boundary")
            clean[d] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, sigma, source, target) -> "Morphism":
        return cls(sigma, source, target, {})

    @classmethod
    def identity(cls, sigma, n: int) -> "Morphism":
        d = make_diagram(sigma, n, n, (), tuple((i, i) for i in range(1, n + 1)))
        return cls(sigma, n, n, {d: Fraction(1)})

    @classmethod
    def from_diagram(cls, sigma, d: Diagram, coeff=1) -> "Morphism":
        validate_diagram(PartitionTuple(sigma), d)
        return cls(sigma, d.source, d.target, {d: Fraction(coeff)})

    @classmethod
    def from_blocks(cls, sigma, source, target, blocks, matching, coeff=1) -> "Morphism":
        """Build a morphism from blocks whose Specht data are full coordinate
        vectors; the result is expanded multilinearly into basis diagrams."""
        sigma = PartitionTuple(sigma)
        expansions = []
        plain_blocks = []
        for support, p, coords in blocks:
            support = tuple(sorted(support))
            shape = sigma[p]
            if isinstance(coords, SpechtVector):
                coords = coords.coords
            coords = tuple(Fraction(c) for c in coords)
            if len(coords) != specht_dim(shape):
                raise ValueError("block coordinate length must match the Specht dimension")
            expansions.append([(t, c) for t, c in enumerate(coords) if c != 0])
            plain_blocks.append((support, p))
        terms: dict[Diagram, Fraction] = {}
        for choice in product(*expansions) if expansions else [()]:
            c = Fraction(coeff)
            chosen = []
            for (support, p), (t, cc) in zip(plain_blocks, choice):
                c *= cc
                chosen.append((support, p, t))
            d = make_diagram(sigma, source, target, chosen, matching)
            terms[d] = terms.get(d, Fraction(0)) + c
        return cls(sigma, source, target, terms)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Morphism") -> "Morphism":
        self._check_parallel(other)
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, Fraction(0)) + c
        return Morphism(self.sigma, self.source, self.target, out)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + other.scale(-1)

    def scale(self, c) -> "Morphism":
        c = Fraction(c)
        return Morphism(
            self.sigma, self.source, self.target, {d: c * v for d, v in self.terms.items()}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def _check_parallel(self, other: "Morphism"):
        if self.sigma != other.sigma:
            raise ValueError("morphisms live over different tuples")
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("morphisms must share source and target")

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.sigma == other.sigma
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __repr__(self):
        return (
            f"Morphism({self.source}->{self.target}, {len(self.terms)} term(s), "
            f"sigma={self.sigma!s})"
        )

    # -- category structure ---------------------------------------------------

    def compose(self, f: "Morphism") -> "Morphism":
        """Composition self o f (first f, then self)."""
        g = self
        if g.sigma != f.sigma:
            raise ValueError("morphisms live over different tuples")
        if f.target != g.source:
            raise ValueError("boundary mismatch in composition")
        sigma = g.sigma
        out: dict[Diagram, Fraction] = {}
        for df, cf in f.terms.items():
            i_f = dict(df.matching)
            inv_f = {t: s for s, t in df.matching}
            for dg, cg in g.terms.items():
                # transport the blocks of dg back along the bijection of df
                expansions = []
                for b in dg.blocks:
                    src_support = tuple(sorted(inv_f[a] for a in b.support))
                    shape = sigma[b.type_index]
                    tab = get_specht_module(shape, b.support).tableaux[b.basis_index]
                    moved = get_specht_module(shape, src_support).straighten(
                        tuple(tuple(inv_f[a] for a in row) for row in tab)
                    )
                    expansions.append((src_support, b.type_index, sorted(moved.items())))
                i_g = dict(dg.matching)
                new_matching = tuple(
                    sorted((s, i_g[a]) for s, a in df.matching if a in i_g)
                )
                base_blocks = list(df.blocks)
                for choice in product(*(e[2] for e in expansions)) if expansions else [()]:
                    c = cf * cg
                    blocks = list(base_blocks)
                    for (support, p, _), (t, cc) in zip(expansions, choice):
                        c *= cc
                        blocks.append((support, p, t))
                    if c == 0:
                        continue
                    d = Diagram(
                        f.source, g.target, _normalize_blocks(blocks), new_matching
                    )
                    out[d] = out.get(d, Fraction(0)) + c
        return Morphism(sigma, f.source, g.target, out)

    def tensor(self, other: "Morphism") -> "Morphism":
        """Monoidal product by disjoint union; self occupies the first slots."""
        if self.sigma != other.sigma:
            raise ValueError("morphisms live over different tuples")
        ns, ms = self.source, self.target
        out: dict[Diagram, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                blocks = list(d1.blocks) + [
                    Block(tuple(x + ns for x in b.support), b.type_index, b.basis_index)
                    for b in d2.blocks
                ]
                matching = list(d1.matching) + [
                    (s + ns, t + ms) for s, t in d2.matching
                ]
                d = Diagram(
                    ns + other.source,
                    ms + other.target,
                    _normalize_blocks(blocks),
                    tuple(sorted(matching)),
                )
                out[d] = out.get(d, Fraction(0)) + c1 * c2
        return Morphism(self.sigma, ns + other.source, ms + other.target, out)


# ---------------------------------------------------------------------------
# Hom-space enumeration


def _typed_set_partitions(sigma: PartitionTuple, elements: tuple[int, ...]):
    """All ways to split `elements` into blocks typed by entries of sigma.

    Yields tuples of (support, type_index); blocks are unordered, which the
    recursion enforces by always placing the smallest remaining element.
    """
    if not elements:
        yield ()
        return
    first = elements[0]
    rest = elements[1:]
    for p, shape in enumerate(sigma):
        k = shape.size
        if k - 1 > len(rest):
            continue
        for others in combinations(rest, k - 1):
            support = (first,) + others
            remaining = tuple(x for x in rest if x not in others)
            for tail in _typed_set_partitions(sigma, remaining):
                yield ((support, p),) + tail


def hom_basis(sigma, n: int, m: int) -> list[Diagram]:
    """All basis diagrams from [n] to [m], sorted as `Diagram` tuples
    (which is lexicographic encoding order), without repeats.

    The order is part of the contract: `random_morphism` picks diagrams by
    index into this list, so the benchmark's compose documents depend on it.
    """
    sigma = PartitionTuple(sigma)
    if not sigma.pure:
        raise ValueError("sigma must be pure")
    if m < 0 or n < 0 or m > n:
        return []
    out: list[Diagram] = []
    images = list(permutations(range(1, m + 1)))
    for used in combinations(range(1, n + 1), n - m):
        # `free` is ascending, so each matching is already sorted
        free = [x for x in range(1, n + 1) if x not in used]
        matchings = [tuple(zip(free, image)) for image in images]
        for typed in _typed_set_partitions(sigma, used):
            index_ranges = [range(specht_dim(sigma[p])) for _, p in typed]
            for indices in product(*index_ranges):
                blocks = _normalize_blocks(
                    (support, p, t) for ((support, p), t) in zip(typed, indices)
                )
                out.extend(Diagram(n, m, blocks, matching) for matching in matchings)
    out.sort()
    return out


def hom_dim(sigma, n: int, m: int) -> int:
    return len(hom_basis(sigma, n, m))


# ---------------------------------------------------------------------------
# the upwards category (formal opposite)


class UpMorphism:
    """A morphism of the upwards category: the same data with the arrow
    reversed; composition happens in the opposite order."""

    __slots__ = ("down",)

    def __init__(self, down: Morphism):
        self.down = down

    @property
    def source(self) -> int:
        return self.down.target

    @property
    def target(self) -> int:
        return self.down.source

    def compose(self, f: "UpMorphism") -> "UpMorphism":
        if f.target != self.source:
            raise ValueError("boundary mismatch in composition")
        return UpMorphism(f.down.compose(self.down))

    def __eq__(self, other):
        return isinstance(other, UpMorphism) and self.down == other.down

    def __repr__(self):
        return f"UpMorphism({self.source}->{self.target})"


def upwards_view(f):
    """Swap source and target formally; applying it twice gives back the input."""
    if isinstance(f, UpMorphism):
        return f.down
    if isinstance(f, Morphism):
        return UpMorphism(f)
    raise TypeError("expected a Morphism or UpMorphism")


# ---------------------------------------------------------------------------
# serialization and sampling


def _frac_str(c: Fraction) -> str:
    return str(c)


def morphism_to_json(f: Morphism) -> dict:
    terms = []
    for d in sorted(f.terms, key=lambda d: d.encoding()):
        c = f.terms[d]
        blocks = []
        for b in d.blocks:
            dim = specht_dim(f.sigma[b.type_index])
            coords = ["1" if k == b.basis_index else "0" for k in range(dim)]
            blocks.append(
                {"support": list(b.support), "type": b.type_index, "coords": coords}
            )
        terms.append(
            {
                "coef": _frac_str(c),
                "matching": [[s, t] for s, t in d.matching],
                "blocks": blocks,
            }
        )
    return {"source_size": f.source, "target_size": f.target, "terms": terms}


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return value


def _json_field(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValueError(f"{what} has no {key!r} entry")
    return obj[key]


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer")
    return value


def _json_rational(value, what: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{what} must be an integer or a \"p/q\" string")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} has a zero denominator") from None


def morphism_from_json(doc: dict, sigma, max_size: int | None = None) -> Morphism:
    """Read the serialization written by `morphism_to_json`.

    Raises ValueError on a malformed document: a missing entry or one of
    the wrong shape, a negative size or one above `max_size` (checked
    before anything is built), a block type outside sigma or a block
    support outside 1..source_size.
    """
    sigma = PartitionTuple(sigma)
    doc = _json_object(doc, "a morphism")
    n, m = (_json_int(_json_field(doc, k, "a morphism"), k) for k in ("source_size", "target_size"))
    for key, v in (("source_size", n), ("target_size", m)):
        if v < 0:
            raise ValueError(f"{key} must be non-negative")
        if max_size is not None and v > max_size:
            raise ValueError(f"{key}={v} exceeds the degree bound {max_size}")
    total = Morphism.zero(sigma, n, m)
    for term in _json_list(doc.get("terms", []), "terms"):
        term = _json_object(term, "a term")
        coeff = _json_rational(_json_field(term, "coef", "a term"), "coef")
        blocks = []
        for b in _json_list(term.get("blocks", []), "blocks"):
            b = _json_object(b, "a block")
            support = tuple(
                _json_int(x, "a support label")
                for x in _json_list(_json_field(b, "support", "a block"), "support")
            )
            if len(set(support)) != len(support) or not all(1 <= x <= n for x in support):
                raise ValueError(f"block support must be distinct labels in 1..{n}")
            p = _json_int(_json_field(b, "type", "a block"), "type")
            if not 0 <= p < len(sigma):
                raise ValueError(f"block type {p} is outside 0..{len(sigma) - 1}")
            coords = [
                _json_rational(c, "a coordinate")
                for c in _json_list(_json_field(b, "coords", "a block"), "coords")
            ]
            blocks.append((support, p, coords))
        matching = []
        for pair in _json_list(term.get("matching", []), "matching"):
            pair = _json_list(pair, "a matching pair")
            if len(pair) != 2:
                raise ValueError("a matching pair must have two entries")
            matching.append(
                (_json_int(pair[0], "a source label"), _json_int(pair[1], "a target label"))
            )
        total = total + Morphism.from_blocks(sigma, n, m, blocks, matching, coeff)
    return total


MAX_TERMS = 2  # basis diagrams drawn by random_morphism


def random_morphism(sigma, n: int, m: int, rng) -> Morphism:
    """Small random rational combination of basis diagrams (for testing)."""
    basis = hom_basis(sigma, n, m)
    if not basis:
        return Morphism.zero(sigma, n, m)
    k = rng.randint(1, MAX_TERMS)
    total = Morphism.zero(sigma, n, m)
    for _ in range(k):
        d = rng.choice(basis)
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 2, 3])
        total = total + Morphism.from_diagram(sigma, d, Fraction(num, den))
    return total
