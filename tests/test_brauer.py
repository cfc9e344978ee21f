import json
import math
import random
from fractions import Fraction

import pytest

from helpers import BASIS_CASES, hom_basis_reference
from sigmabrauer import setpart
from sigmabrauer.brauer import (
    Morphism,
    hom_basis,
    make_diagram,
    morphism_from_json,
    morphism_to_json,
    random_morphism,
    upwards_view,
)
from sigmabrauer.combinat import Partition, PartitionTuple, hom_dim, parse_tuple
from sigmabrauer.specht import get_specht_module

SIG2 = PartitionTuple(((2,),))
SIG11 = PartitionTuple(((1, 1),))
SIG1 = PartitionTuple(((1,),))
SIG1_1 = PartitionTuple(((1,), (1,)))
SIG3 = PartitionTuple(((3,),))
SIG21 = PartitionTuple(((2,), (1,)))
FAMILY = [SIG2, SIG11, SIG1, SIG1_1, SIG3, SIG21]


def test_hom_dim_fixtures():
    assert hom_dim(SIG2, 2, 0) == 1
    assert hom_dim(SIG2, 4, 0) == 3
    assert hom_dim(SIG1_1, 2, 1) == 4
    # the double factorial counts of perfect matchings
    assert [hom_dim(SIG2, 2 * k, 0) for k in range(1, 5)] == [1, 3, 15, 105]


def test_hom_dim_injection_category():
    # two degree-one generators: injections with a 2-coloring of the complement
    import math

    for n in range(5):
        for m in range(n + 1):
            expected = (
                math.comb(n, m) * math.factorial(m) * 2 ** (n - m)
            )
            assert hom_dim(SIG1_1, n, m) == expected


def test_hom_vanishes_unless_target_smaller():
    for sigma in FAMILY:
        assert hom_basis(sigma, 2, 3) == []
        assert hom_basis(sigma, 0, 1) == []


def test_hom_basis_matches_the_reference_element_for_element():
    # random_morphism indexes this list, so the order is compared too
    for text, n, m in BASIS_CASES:
        sigma = parse_tuple(text)
        basis = hom_basis(sigma, n, m)
        assert basis == hom_basis_reference(sigma, n, m), (text, n, m)
        assert basis == sorted(set(basis)), (text, n, m)


def test_hom_basis_rejects_impure_sigma():
    with pytest.raises(ValueError):
        hom_basis(PartitionTuple(((1,), ())), 2, 0)
    with pytest.raises(ValueError):
        hom_dim(PartitionTuple(((1,), ())), 2, 0)


@pytest.mark.parametrize(
    "text", ["1", "2", "1,1", "3", "2|1", "1|1", "3|1", "2,1|1", "1,1|1", "2,2|1", "3|2|1"]
)
def test_hom_dim_counts_the_basis(text):
    # hom_dim counts by a recurrence on the block of the smallest label
    sigma = parse_tuple(text)
    for n in range(8):
        for m in range(n + 1):
            assert hom_dim(sigma, n, m) == len(hom_basis(sigma, n, m)), (text, n, m)
    assert hom_dim(sigma, 2, 3) == hom_dim(sigma, -1, 0) == hom_dim(sigma, 1, -1) == 0


def test_hom_dim_of_the_involution_category():
    # for sigma = 2|1 the blocks of a k-set are the involutions of it
    assert hom_dim(parse_tuple("2|1"), 14, 4) == math.comb(14, 4) * math.factorial(4) * 9496


def test_hom_basis_enumerates_the_typed_blocks_once(monkeypatch):
    # the typed set partitions of an (n-m)-set depend only on n-m, so one
    # top-level enumeration serves every one of the C(n, m) used sets
    sigma, n, m = parse_tuple("2|1"), 6, 2
    original = setpart.typed_set_partitions
    top_level = []

    def counting(sg, elements):
        if len(elements) == n - m:  # the recursion always passes fewer elements
            top_level.append(elements)
        return original(sg, elements)

    monkeypatch.setattr(setpart, "typed_set_partitions", counting)
    assert hom_basis(sigma, n, m) == hom_basis_reference(sigma, n, m)
    assert len(top_level) <= 1


def test_identity_laws():
    rng = random.Random(11)
    for sigma in FAMILY:
        seen = 0
        while seen < 10:
            n = rng.randint(0, 4)
            m = rng.randint(0, n)
            f = random_morphism(sigma, n, m, rng)
            if f.is_zero():
                continue
            seen += 1
            assert Morphism.identity(sigma, m).compose(f) == f
            assert f.compose(Morphism.identity(sigma, n)) == f


def test_block_after_crossing_fixture():
    cross = Morphism.from_diagram(SIG2, make_diagram(SIG2, 2, 2, (), ((1, 2), (2, 1))))
    block = Morphism.from_diagram(SIG2, make_diagram(SIG2, 2, 0, (((1, 2), 0, 0),), ()))
    assert block.compose(cross) == block
    cross_s = Morphism.from_diagram(SIG11, make_diagram(SIG11, 2, 2, (), ((1, 2), (2, 1))))
    block_s = Morphism.from_diagram(SIG11, make_diagram(SIG11, 2, 0, (((1, 2), 0, 0),), ()))
    assert block_s.compose(cross_s) == block_s.scale(-1)


def test_block_then_identity_fixture():
    block = Morphism.from_diagram(SIG2, make_diagram(SIG2, 2, 0, (((1, 2), 0, 0),), ()))
    assert block.compose(Morphism.identity(SIG2, 2)) == block


def test_associativity_random():
    rng = random.Random(17)
    # includes a type with a two-dimensional Specht module
    for sigma in FAMILY + [PartitionTuple(((2, 1),))]:
        done = 0
        while done < 60:
            n = rng.randint(0, 5)
            m = rng.randint(0, n)
            l = rng.randint(0, m)
            k = rng.randint(0, l)
            f = random_morphism(sigma, n, m, rng)
            g = random_morphism(sigma, m, l, rng)
            h = random_morphism(sigma, l, k, rng)
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            done += 1
            assert h.compose(g.compose(f)) == (h.compose(g)).compose(f)


def test_monoidal_unit_and_interchange():
    rng = random.Random(23)
    unit = Morphism.identity(SIG2, 0)
    f = random_morphism(SIG2, 3, 1, rng)
    assert f.tensor(unit) == f
    assert unit.tensor(f) == f
    assert Morphism.identity(SIG2, 2).tensor(Morphism.identity(SIG2, 3)) == Morphism.identity(SIG2, 5)
    for sigma in [SIG2, SIG21, PartitionTuple(((2, 1),))]:
        done = 0
        while done < 30:
            n1 = rng.randint(0, 3)
            m1 = rng.randint(0, n1)
            l1 = rng.randint(0, m1)
            n2 = rng.randint(0, 3)
            m2 = rng.randint(0, n2)
            l2 = rng.randint(0, m2)
            f = random_morphism(sigma, n1, m1, rng)
            fp = random_morphism(sigma, m1, l1, rng)
            g = random_morphism(sigma, n2, m2, rng)
            gp = random_morphism(sigma, m2, l2, rng)
            done += 1
            assert (fp.tensor(gp)).compose(f.tensor(g)) == (fp.compose(f)).tensor(gp.compose(g))


def test_upwards_view():
    rng = random.Random(29)
    f = random_morphism(SIG2, 3, 1, rng)
    assert upwards_view(upwards_view(f)) == f
    ident = Morphism.identity(SIG2, 2)
    up = upwards_view(ident)
    assert up.source == 2 and up.target == 2
    for _ in range(50):
        n = rng.randint(0, 4)
        m = rng.randint(0, n)
        l = rng.randint(0, m)
        a = random_morphism(SIG2, n, m, rng)
        b = random_morphism(SIG2, m, l, rng)
        assert upwards_view(b.compose(a)) == upwards_view(a).compose(upwards_view(b))


def test_boundary_mismatch_raises():
    rng = random.Random(1)
    f = random_morphism(SIG2, 3, 1, rng)
    g = random_morphism(SIG2, 3, 1, rng)
    with pytest.raises(ValueError):
        g.compose(f)


def test_normal_form_uniqueness_under_specht_relations():
    # expand a block coefficient against a non-standard presentation
    rng = random.Random(301)
    sig = PartitionTuple(((2, 1),))
    m = get_specht_module(Partition((2, 1)), (1, 2, 3))
    for tab in [((2, 3), (1,)), ((2, 1), (3,)), ((3, 1), (2,)), ((3, 2), (1,))]:
        v = m.polytabloid(tab)
        direct = Morphism.from_blocks(sig, 3, 0, [((1, 2, 3), 0, v)], ())
        rebuilt = Morphism.from_blocks(sig, 3, 0, [((1, 2, 3), 0, list(v.coords))], ())
        assert direct == rebuilt
    # random alpha y + beta z decompositions of a basis vector
    for _ in range(20):
        alpha = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        y = [Fraction(rng.randint(-3, 3)) for _ in range(m.dim)]
        target = [Fraction(int(k == 0)) for k in range(m.dim)]
        beta = Fraction(1)
        z = [t - alpha * yy for t, yy in zip(target, y)]
        built = Morphism.from_blocks(sig, 3, 0, [((1, 2, 3), 0, y)], (), coeff=alpha) + Morphism.from_blocks(
            sig, 3, 0, [((1, 2, 3), 0, z)], (), coeff=beta
        )
        expected = Morphism.from_blocks(sig, 3, 0, [((1, 2, 3), 0, target)], ())
        assert built == expected


def test_serialization_round_trip():
    rng = random.Random(77)
    for sigma in [SIG2, SIG21, PartitionTuple(((2, 1),))]:
        for _ in range(15):
            n = rng.randint(0, 4)
            m = rng.randint(0, n)
            f = random_morphism(sigma, n, m, rng)
            doc = json.loads(json.dumps(morphism_to_json(f)))
            assert morphism_from_json(doc, sigma) == f


def test_morphism_from_json_sums_all_terms_in_one_pass(monkeypatch):
    # a document whose terms repeat diagrams and cancel is read without
    # adding Morphisms term by term, which would copy the sum at every term
    sigma = PartitionTuple(((2, 1),))
    f = random_morphism(sigma, 6, 3, random.Random(5))
    doc = morphism_to_json(f)
    halves = [dict(t, coef=str(Fraction(t["coef"]) / 2)) for t in doc["terms"]]
    spread = [{**b, "coords": ["1", "-2"]} for b in doc["terms"][0]["blocks"]]
    pair = [dict(doc["terms"][0], coef=c, blocks=spread) for c in ("3/4", "-3/4")]

    def no_add(self, other):
        raise AssertionError("Morphism.__add__ called")

    monkeypatch.setattr(Morphism, "__add__", no_add)
    got = morphism_from_json(dict(doc, terms=halves + pair[:1] + halves + pair[1:]), sigma)
    assert got.terms == f.terms and len(f.terms) > 0


def test_make_diagram_validation():
    with pytest.raises(ValueError):
        make_diagram(SIG2, 2, 0, (((1,), 0, 0),), ())  # support too small
    with pytest.raises(ValueError):
        make_diagram(SIG2, 3, 1, (((1, 2), 0, 0),), ((3, 2),))  # bad target
    with pytest.raises(ValueError):
        make_diagram(SIG2, 4, 0, (((1, 2), 0, 0), ((2, 3), 0, 0)), ())  # overlap
