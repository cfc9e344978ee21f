import math
import random
from fractions import Fraction

import pytest

from helpers import conjugacy_class_size, regular_representation_gens
from sigmabrauer.combinat import Partition, partitions, specht_dim
from sigmabrauer.characters import centralizer_size, sn_character
from sigmabrauer.exactla import RatMat, rank
from sigmabrauer.oracles import _check_coxeter, class_representative, cycle_type, plain_changes
from sigmabrauer.specht import (
    SpechtModule,
    SpechtVector,
    get_specht_module,
    isotypic_projector,
    perm_sign,
    relabel,
    standard_tableaux,
)


def test_basis_sizes_match_syt_counts():
    for n in range(7):
        for shape in partitions(n):
            m = SpechtModule(shape, tuple(range(1, n + 1)))
            assert m.dim == specht_dim(shape)


def test_generator_matrices_satisfy_coxeter_relations():
    for n in range(2, 7):
        for shape in partitions(n):
            m = get_specht_module(Partition(shape), tuple(range(1, n + 1)))
            _check_coxeter(m.generator_matrices())


def test_coxeter_check_is_exact_above_48_dimensions():
    gens = get_specht_module(Partition((5, 2, 1)), tuple(range(1, 9))).generator_matrices()
    assert gens[0].rows == 64 and _check_coxeter(gens) == 8
    # s_0 s_2 s_0 = s_2 differs from s_2 s_0 s_2 = s_0
    with pytest.raises(ValueError, match="braid relation fails at generators 0,1"):
        _check_coxeter([gens[0], *gens[2:3], *gens[2:]])
    # one diagonal entry of s_3 raised by one
    data = [list(row) for row in gens[3].data]
    data[0][0] += 1
    with pytest.raises(ValueError, match="generator 3 is not an involution"):
        _check_coxeter([*gens[:3], RatMat(64, 64, data), *gens[4:]])


def test_action_fixtures():
    m = get_specht_module(Partition((2, 1)), (1, 2, 3))
    v = SpechtVector(m, (1, 0))
    # identity
    assert m.act({1: 1, 2: 2, 3: 3}, v) == v
    # straightening oracle: the image of the first polytabloid under (1 2)
    w = m.act({1: 2, 2: 1, 3: 3}, v)
    assert w.coords == (Fraction(1), Fraction(-1))
    assert m.act({1: 2, 2: 1, 3: 3}, w) == v  # involution
    sign = get_specht_module(Partition((1, 1, 1)), (1, 2, 3))
    one = SpechtVector(sign, (1,))
    for a, b in [(1, 2), (2, 3), (1, 3)]:
        perm = {x: x for x in (1, 2, 3)}
        perm[a], perm[b] = b, a
        assert sign.act(perm, one).coords == (Fraction(-1),)


def test_action_is_a_representation():
    rng = random.Random(5150)
    for shape in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 2, 1)]:
        m = get_specht_module(Partition(shape), tuple(range(1, sum(shape) + 1)))
        labs = list(m.labels)
        for _ in range(20):
            p1 = dict(zip(labs, rng.sample(labs, len(labs))))
            p2 = dict(zip(labs, rng.sample(labs, len(labs))))
            comp = {x: p1[p2[x]] for x in labs}
            v = SpechtVector(m, [rng.randint(-3, 3) for _ in range(m.dim)])
            assert m.act(comp, v) == m.act(p1, m.act(p2, v))


def test_act_rejects_foreign_permutations():
    m = get_specht_module(Partition((2,)), (1, 2))
    v = SpechtVector(m, (1,))
    with pytest.raises(ValueError):
        m.act({1: 2, 2: 3}, v)
    with pytest.raises(ValueError):
        m.act({1: 1}, v)


def test_relabel_fixtures():
    m = get_specht_module(Partition((1, 1)), (1, 2))
    v = SpechtVector(m, (1,))
    kept = relabel(v, {1: 4, 2: 7})
    assert kept.module.labels == (4, 7) and kept.coords == (Fraction(1),)
    flipped = relabel(v, {1: 7, 2: 4})
    assert flipped.coords == (Fraction(-1),)


def test_relabel_round_trip():
    rng = random.Random(99)
    for shape in [(2, 1), (3, 1), (2, 2)]:
        m = get_specht_module(Partition(shape), tuple(range(1, sum(shape) + 1)))
        for _ in range(50):
            targets = rng.sample(range(10, 40), len(m.labels))
            f = dict(zip(m.labels, targets))
            finv = {b: a for a, b in f.items()}
            v = SpechtVector(m, [rng.randint(-4, 4) for _ in range(m.dim)])
            assert relabel(relabel(v, f), finv) == v


def test_relabel_composition():
    rng = random.Random(41)
    m = get_specht_module(Partition((2, 1)), (1, 2, 3))
    for _ in range(30):
        mid = rng.sample(range(5, 20), 3)
        end = rng.sample(range(30, 60), 3)
        f = dict(zip(m.labels, mid))
        g = dict(zip(sorted(mid), end))
        gf = {x: g[f[x]] for x in m.labels}
        v = SpechtVector(m, [rng.randint(-3, 3) for _ in range(m.dim)])
        assert relabel(relabel(v, f), g) == relabel(v, gf)


def test_relabel_keeps_order_preserving_coordinates_and_intertwines_act():
    # the two facts that define relabel: an order-preserving map re-indexes
    # the basis verbatim, and relabel(p v, f) = (f p f^-1) relabel(v, f)
    rng = random.Random(2718)
    for n in range(6):
        for shape in partitions(n):
            m = get_specht_module(Partition(shape), tuple(range(1, n + 1)))
            for _ in range(6):
                coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m.dim)]
                v = SpechtVector(m, coords)
                start = rng.randint(-5, 20)
                targets = sorted(rng.sample(range(start, start + 2 * n + 1), n))
                kept = relabel(v, dict(zip(m.labels, targets)))
                assert kept.module.labels == tuple(targets) and kept.coords == v.coords
                f = dict(zip(m.labels, rng.sample(targets, n)))
                p = dict(zip(m.labels, rng.sample(m.labels, n)))
                finv = {y: x for x, y in f.items()}
                moved = relabel(v, f)
                conjugate = {y: f[p[finv[y]]] for y in targets}
                assert relabel(m.act(p, v), f) == moved.module.act(conjugate, moved)


def test_characters_fixtures():
    for n in range(1, 7):
        for cls in partitions(n):
            assert sn_character(Partition((n,)), cls) == 1
    assert sn_character(Partition((1, 1)), Partition((2,))) == -1
    assert sn_character(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert sn_character(Partition((2, 1)), Partition((3,))) == -1
    with pytest.raises(ValueError):
        sn_character(Partition((2,)), Partition((3,)))


def test_characters_are_traces_of_the_straightened_action():
    # Murnaghan-Nakayama against the trace of the Garnir-straightened
    # action on a permutation of each cycle type: the cycles run over
    # consecutive labels
    for n in range(1, 7):
        labels = tuple(range(1, n + 1))
        for mu in partitions(n):
            perm, start = {}, 1
            for part in mu:
                for t in range(part):
                    perm[start + t] = start + (t + 1) % part
                start += part
            for lam in partitions(n):
                m = get_specht_module(lam, labels)
                trace = sum(
                    m.straighten(tuple(tuple(perm[x] for x in row) for row in tab)).get(t, 0)
                    for t, tab in enumerate(m.tableaux)
                )
                assert sn_character(lam, mu) == trace, (lam, mu)


def test_character_orthogonality():
    for n in range(1, 7):
        for lam in partitions(n):
            for mu in partitions(n):
                total = sum(
                    conjugacy_class_size(c) * sn_character(lam, c) * sn_character(mu, c)
                    for c in partitions(n)
                )
                expected = math.factorial(n) if lam == mu else 0
                assert total == expected


def test_plain_changes_covers_group():
    for n in range(1, 6):
        seen = set()
        prev = None
        for perm, swap in plain_changes(n):
            if prev is not None:
                moved = [i for i in range(n) if perm[i] != prev[i]]
                assert moved == [swap, swap + 1]
            seen.add(perm)
            prev = perm
        assert len(seen) == math.factorial(n)


def test_perm_sign_and_cycle_type():
    assert perm_sign((1, 0, 2)) == -1
    assert cycle_type((1, 2, 0)) == Partition((3,))
    assert cycle_type((0, 1, 2)) == Partition((1, 1, 1))


def test_class_representatives_and_centralizers():
    for n in range(7):
        for mu in partitions(n):
            rep = class_representative(mu)
            assert sorted(rep) == list(range(n))
            assert cycle_type(rep) == mu
            assert math.factorial(n) // centralizer_size(mu) == conjugacy_class_size(mu)
            assert math.factorial(n) % centralizer_size(mu) == 0


def test_projector_on_regular_representation():
    gens = regular_representation_gens(3)
    p = isotypic_projector(Partition((2, 1)), gens)
    assert p @ p == p
    assert rank(p) == 4  # dim squared
    assert isotypic_projector(Partition((3,)), gens).trace() == 1
    assert isotypic_projector(Partition((1, 1, 1)), gens).trace() == 1


def test_projector_on_trivial_module():
    one = [RatMat.identity(1), RatMat.identity(1)]
    assert isotypic_projector(Partition((3,)), one) == RatMat.identity(1)
    assert isotypic_projector(Partition((2, 1)), one) == RatMat.zeros(1, 1)


def test_projector_rejects_bad_generators():
    bad = [RatMat(1, 1, [[2]]), RatMat.identity(1)]
    with pytest.raises(ValueError):
        isotypic_projector(Partition((2, 1)), bad)
    # n = |lam|, so the generator count is the check that n matches, also
    # for the one-letter group, which has no generators
    for lam, count in (((2,), 2), ((1,), 1), ((), 2)):
        with pytest.raises(ValueError, match="expected n-1 generator matrices"):
            isotypic_projector(Partition(lam), [RatMat.identity(1)] * count)
    assert isotypic_projector(Partition((1,)), [], dim=2) == RatMat.identity(2)
    with pytest.raises(ValueError, match="dimension required"):
        isotypic_projector(Partition((1,)), [])


def _direct_sum_module(n, mults, rng):
    """Generators of a direct sum of Specht modules with given multiplicities."""
    blocks = []
    for shape, k in mults.items():
        m = get_specht_module(Partition(shape), tuple(range(1, n + 1)))
        for _ in range(k):
            blocks.append(m.generator_matrices())
    dim = sum(b[0].rows for b in blocks)
    gens = []
    for i in range(n - 1):
        data = [[Fraction(0)] * dim for _ in range(dim)]
        off = 0
        for b in blocks:
            d = b[i].rows
            for r in range(d):
                for c in range(d):
                    data[off + r][off + c] = b[i].data[r][c]
            off += d
        gens.append(RatMat(dim, dim, data))
    return gens


def test_projector_rank_is_dim_times_multiplicity():
    rng = random.Random(31)
    for trial in range(10):
        n = rng.randint(2, 4)
        mults = {}
        for shape in partitions(n):
            if rng.random() < 0.6:
                mults[shape] = rng.randint(1, 2)
        if not mults:
            mults = {Partition((n,)): 1}
        gens = _direct_sum_module(n, mults, rng)
        for lam in partitions(n):
            p = isotypic_projector(lam, gens)
            expected = specht_dim(lam) * mults.get(lam, 0)
            assert p.trace() == expected
            assert p @ p == p
            for g in gens:
                assert g @ p == p @ g  # commutes with the action


def test_standard_tableaux_order():
    tabs = standard_tableaux(Partition((2, 1)), (1, 2, 3))
    assert tabs == [((1, 2), (3,)), ((1, 3), (2,))]


def test_polytabloid_straightening_consistency():
    # a non-standard tableau expands to the combination predicted by Garnir
    m = get_specht_module(Partition((2, 1)), (1, 2, 3))
    v = m.polytabloid(((2, 3), (1,)))
    # column sort of [[2,3],[1]] gives [[1,3],[2]] with sign -1
    assert v.coords == (Fraction(0), Fraction(-1))
    v2 = m.polytabloid(((2, 1), (3,)))
    assert v2.coords == (Fraction(1), Fraction(-1))
