import math
import random
from fractions import Fraction

import pytest

from helpers import (
    BASIS_CASES,
    as_fractions,
    block_functional_reference,
    realization_reference,
    specht_word_expansions_reference,
    weight_space_basis_reference,
)
from sigmabrauer import setpart
from sigmabrauer.brauer import hom_basis
from sigmabrauer.combinat import Partition, PartitionTuple, hom_dim, parse_tuple, partitions, schur_dim
from sigmabrauer.exactla import RatMat
from sigmabrauer.schurweyl import (
    TensorRep,
    diagram_weight_iso,
    get_tensor_rep,
    specht_word_expansions,
    weight_space_basis,
)
from sigmabrauer.specht import check_specht_action, get_specht_module

SIG2 = PartitionTuple(((2,),))
FAMILY = [
    SIG2,
    PartitionTuple(((1, 1),)),
    PartitionTuple(((1,),)),
    PartitionTuple(((1,), (1,))),
    PartitionTuple(((3,),)),
    PartitionTuple(((2,), (1,))),
]


def test_weight_basis_fixtures():
    assert len(weight_space_basis(SIG2, 4, 0)) == 3
    assert len(weight_space_basis(SIG2, 3, 1)) == 3
    for sigma in FAMILY:
        for n in range(5):
            assert len(weight_space_basis(sigma, n, n)) == math.factorial(n)


def test_weight_basis_partitions_ground_set():
    for el in weight_space_basis(PartitionTuple(((2,), (1,))), 4, 1):
        labels = list(el.word)
        for support, _p, _t in el.blocks:
            labels.extend(support)
        assert sorted(labels) == [1, 2, 3, 4]


def test_weight_basis_matches_the_reference_element_for_element():
    for text, n, m in BASIS_CASES:
        sigma = parse_tuple(text)
        assert weight_space_basis(sigma, n, m) == weight_space_basis_reference(sigma, n, m), (
            text,
            n,
            m,
        )


def test_weight_basis_enumerates_the_typed_factors_once(monkeypatch):
    # the typed factors of an (n-m)-set depend only on n-m, so one
    # enumeration serves every one of the C(n, m) letter sets
    sigma, n, m = parse_tuple("2|1"), 6, 2
    original = setpart.typed_partitions_by_counts
    calls = []

    def counting(sg, elements):
        calls.append(elements)
        return original(sg, elements)

    monkeypatch.setattr(setpart, "typed_partitions_by_counts", counting)
    assert weight_space_basis(sigma, n, m) == weight_space_basis_reference(sigma, n, m)
    assert len(calls) <= 1


def test_block_counts_give_both_basis_lengths():
    # each basis relabels the decorated block tuples of an (n-m)-set through
    # C(n, m) m! used sets and matchings (letter sets and words), so the
    # oracle's per-size count of either enumeration gives its basis length,
    # and the hom_dim recurrence, which shares neither enumerator, agrees
    for sigma in [*FAMILY, parse_tuple("2,1|1")]:
        for k in range(7):
            hom = setpart.decorated_count(setpart.typed_set_partitions, sigma, k)
            weight = setpart.decorated_count(setpart.typed_partitions_by_counts, sigma, k)
            for n in range(k, 7):
                m, relabellings = n - k, math.perm(n, n - k)
                assert relabellings * hom == len(hom_basis(sigma, n, m)), (sigma, n, m)
                assert relabellings * weight == len(weight_space_basis(sigma, n, m)), (sigma, n, m)
                assert relabellings * hom == hom_dim(sigma, n, m), (sigma, n, m)


def test_weight_basis_rejects_impure_sigma():
    with pytest.raises(ValueError):
        weight_space_basis(PartitionTuple(((),)), 1, 0)


def test_iso_is_a_bijection_onto_hom_basis():
    for sigma in FAMILY:
        for n in range(5):
            for m in range(n + 1):
                iso = diagram_weight_iso(sigma, n, m)
                hb = hom_basis(sigma, n, m)
                assert len(iso) == len(hb)
                assert len(set(iso.values())) == len(iso)
                assert set(iso.values()) == set(hb)


def test_permutation_words_map_to_permutation_diagrams():
    iso = diagram_weight_iso(SIG2, 3, 3)
    for el, d in iso.items():
        assert not d.blocks
        assert dict(d.matching) == {s: j + 1 for j, s in enumerate(el.word)}


def test_standard_representation_action():
    rep = get_tensor_rep(Partition((1,)), 3)
    g = RatMat(3, 3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert rep.act_matrix(g) == g


def test_torus_traces_match_principal_specialization():
    from sigmabrauer.symfun import schur_monomials

    for n in range(5):
        from sigmabrauer.combinat import partitions

        for shape in partitions(n):
            for N in range(1, 5):
                rep = get_tensor_rep(shape, N)
                if rep.dim == 0:
                    continue
                for q in (2, 3):
                    g = [[int(i == j) for j in range(N)] for i in range(N)]
                    g[0][0] = q
                    tr = rep.act_matrix(RatMat(N, N, g)).trace()
                    expected = sum(
                        c * q ** exp[0] for exp, c in schur_monomials(shape, N)
                    )
                    assert tr == expected


def test_act_matrix_is_multiplicative():
    rng = random.Random(8)
    rep = get_tensor_rep(Partition((2, 1)), 3)
    for _ in range(5):
        a = RatMat(3, 3, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        b = RatMat(3, 3, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        assert rep.act_matrix(a @ b) == rep.act_matrix(a) @ rep.act_matrix(b)


def test_realization_matches_reference_reduction(monkeypatch):
    from sigmabrauer.combinat import partitions

    for d in range(6):
        for shape in partitions(d):
            for N in range(1, 4 if d == 5 else 6):
                rep = get_tensor_rep(shape, N)
                basis, _, source_words = realization_reference(shape, N)
                assert [as_fractions(b) for b in rep.basis] == basis, (shape, N)
                assert rep.source_words == source_words, (shape, N)
                members = {}
                for j, word in enumerate(source_words):
                    members.setdefault(tuple(sorted(word)), []).append(j)
                assert rep._class_members == members, (shape, N)
                # the reference basis is triangular on the source words of
                # each class, so they serve as the pivot words
                for idx in members.values():
                    for k, j in enumerate(idx):
                        assert source_words[j] in basis[j], (shape, N, j)
                        assert not any(source_words[i] in basis[j] for i in idx[k + 1 :]), (shape, N, j)
    # one image per basis vector: 420 of the 7 776 words of [6]^5 are
    # imaged for S_(3,2)(k^6)
    calls = []
    image = TensorRep.symmetrizer_image
    monkeypatch.setattr(
        TensorRep, "symmetrizer_image", lambda self, w: calls.append(w) or image(self, w)
    )
    assert TensorRep(Partition((3, 2)), 6).dim == 420
    assert len(calls) == 420


@pytest.mark.parametrize("tamper", ["later word", "own word"])
def test_realization_rejects_images_that_are_not_triangular(monkeypatch, tamper):
    # the source words of S_(2,1)(k^3) in the class of (1, 2, 3) are
    # (1, 2, 3) and then (1, 3, 2)
    image = TensorRep.symmetrizer_image

    def tampered(self, word):
        vec = image(self, word)
        if word == (1, 2, 3):
            if tamper == "later word":
                vec[(1, 3, 2)] = 1
            else:
                del vec[word]
        return vec

    monkeypatch.setattr(TensorRep, "symmetrizer_image", tampered)
    with pytest.raises(RuntimeError, match="not triangular"):
        TensorRep(Partition((2, 1)), 3)


def test_coords_and_dual_row_read_back_random_combinations():
    # v = sum_j a_j b_j: coords must return a, and the row of dual_row must
    # take the value sum_j table_j a_j at v
    rng = random.Random(17)
    for d in range(6):
        for shape in partitions(d):
            for N in range(1, 5):
                rep = get_tensor_rep(shape, N)
                for _ in range(3):
                    a = [rng.randint(-3, 3) for _ in range(rep.dim)]
                    v: dict = {}
                    for x, (den, b) in zip(a, rep.basis):
                        for w, c in b.items():
                            v[w] = v.get(w, 0) + Fraction(x * c, den)
                    v = {w: c for w, c in v.items() if c}
                    assert rep.coords(v) == tuple(a), (shape, N)
                    table = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rep.dim)]
                    den, row = rep.dual_row(table)
                    assert type(den) is int and den > 0, (shape, N)
                    assert all(type(c) is int and c for c in row.values()), (shape, N)
                    value = Fraction(sum(c * v.get(w, 0) for w, c in row.items()), den)
                    assert value == sum(t * x for t, x in zip(table, a)), (shape, N)


def test_coordinates_invert_no_matrix(monkeypatch):
    from sigmabrauer import exactla, forms, modcat, schurweyl

    def refuse(m):
        raise RuntimeError("a realization coordinate inverted a matrix")

    monkeypatch.setattr(exactla, "inverse", refuse)
    monkeypatch.setattr(schurweyl, "inverse", refuse, raising=False)
    rep = TensorRep(Partition((2, 1)), 3)
    den, b = rep.basis[4]
    assert rep.coords(as_fractions((den, b))) == tuple(Fraction(int(j == 4)) for j in range(rep.dim))
    den, row = rep.dual_row([Fraction(j - 3, 2) for j in range(rep.dim)])
    assert den > 0 and row
    monkeypatch.setattr(modcat, "get_tensor_rep", TensorRep)
    form = forms.random_form(parse_tuple("2,1"), 3, seed=4)
    fn = modcat.block_functional(form, 0, 1)
    assert as_fractions(fn) == block_functional_reference(form, 0, 1)


def test_symmetrizer_image_has_integer_coefficients():
    rep = get_tensor_rep(Partition((2, 1)), 3)
    for word in [(1, 1, 2), (1, 2, 3), (3, 2, 1), (2, 2, 2)]:
        image = rep.symmetrizer_image(word)
        assert all(type(c) is int and c for c in image.values())
    assert rep.symmetrizer_image((1, 1, 2)) == {(1, 1, 2): 2, (2, 1, 1): -2}


def test_restriction_indices_nest():
    dims = {
        ((1,), 4): 4,
        ((1, 1), 3): 3,
        ((2, 1), 3): 8,
        ((2,), 3): 6,
        ((1,), 3): 3,
        ((2, 1, 1), 2): 0,
    }
    for (shape, N), dim in dims.items():
        assert get_tensor_rep(Partition(shape), N).dim == dim
    rep = get_tensor_rep(Partition((2,)), 5)
    for n in range(6):
        assert len(rep.restriction_indices(n)) == schur_dim(Partition((2,)), n)
    rep3 = get_tensor_rep(Partition((2, 1)), 4)
    for n in range(5):
        assert len(rep3.restriction_indices(n)) == schur_dim(Partition((2, 1)), n)
    # read-only and kept per rank
    assert rep3.restriction_indices(2) is rep3.restriction_indices(2)
    assert isinstance(rep3.restriction_indices(2), tuple)


def test_specht_word_expansions_are_equivariant():
    for shape in (lam for d in range(7) for lam in partitions(d)):
        d = shape.size
        den, images = specht_word_expansions(shape)
        exps = [as_fractions((den, e)) for e in images]
        module = get_specht_module(shape, tuple(range(1, d + 1)))
        gens = module.generator_matrices()
        for k in range(d - 1):
            swap = {x: x for x in range(1, d + 1)}
            swap[k + 1], swap[k + 2] = k + 2, k + 1
            for t in range(module.dim):
                lhs: dict = {}
                for ss in range(module.dim):
                    c = gens[k].data[ss][t]
                    if c == 0:
                        continue
                    for w, v in exps[ss].items():
                        lhs[w] = lhs.get(w, Fraction(0)) + c * v
                lhs = {w: c for w, c in lhs.items() if c != 0}
                rhs = {tuple(swap[x] for x in w): v for w, v in exps[t].items()}
                assert lhs == rhs


def test_specht_word_expansions_match_the_intertwiner_solve():
    for d in range(6):
        for shape in partitions(d):
            den, images = specht_word_expansions(shape)
            exps = tuple(as_fractions((den, e)) for e in images)
            assert exps == specht_word_expansions_reference(shape), shape


def test_specht_bridge_builds_no_realization():
    get_tensor_rep.cache_clear()
    specht_word_expansions.cache_clear()
    specht_word_expansions(Partition((2, 2, 1)))
    assert get_tensor_rep.cache_info().currsize == 0


def test_specht_action_certificate_rejects_a_tampered_family():
    shape = Partition((2, 2, 1))
    # the integer rows share one denominator, which the tampering keeps
    exps = [dict(e) for e in specht_word_expansions(shape)[1]]
    module = get_specht_module(shape, (1, 2, 3, 4, 5))

    def swap(k, w):
        return tuple({k + 1: k + 2, k + 2: k + 1}.get(x, x) for x in w)

    check_specht_action(exps, module, swap, "the expansions")
    word = min(exps[1])
    exps[1][word] += 1
    with pytest.raises(RuntimeError, match="the expansions do not span"):
        check_specht_action(exps, module, swap, "the expansions")
