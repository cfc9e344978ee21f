import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from helpers import (
    ReferenceSpace,
    as_fractions,
    block_functional_reference,
    contraction_morphisms,
    isotypic_multiplicities,
    predicted_realization_dim,
    reference_space,
    slot_generator_matrices,
    slot_permutation_matrix,
    stacked_specializations,
    sym_algebra_degree_by_products,
    traceless_isotypic_brute,
    translate_reference,
)
from sigmabrauer.brauer import Morphism, hom_basis, make_diagram, random_morphism
from sigmabrauer.combinat import (
    Partition,
    PartitionTuple,
    parse_tuple,
    partitions,
    partitions_upto,
    specht_dim,
    subpartitions,
)
from sigmabrauer import modcat, symfun
from sigmabrauer.exactla import RatMat
from sigmabrauer.schurweyl import get_tensor_rep, specht_word_expansions
from sigmabrauer.characters import beta_set
from sigmabrauer.forms import random_form
from sigmabrauer.specht import isotypic_projector
from sigmabrauer.symfun import SchurExpr, exterior_power_char, inner_product, lr_product
from sigmabrauer.modcat import (
    FormPoint,
    _restricted_nullity,
    block_functional,
    dot_product_form,
    ext_dim,
    multiplicity,
    simple_realization_dim,
    socle_check,
    theta_apply,
    traceless_space,
    translate,
)

SIG2 = PartitionTuple(((2,),))
SIG1 = PartitionTuple(((1,),))
FAMILY = [
    SIG2,
    PartitionTuple(((1, 1),)),
    SIG1,
    PartitionTuple(((1,), (1,))),
    PartitionTuple(((3,),)),
    PartitionTuple(((2,), (1,))),
]


def test_multiplicity_fixtures():
    assert multiplicity(SIG2, (2,), (2,)) == 1
    assert multiplicity(SIG2, (2,), ()) == 1
    assert multiplicity(SIG2, (2, 2), (2,)) == 1
    assert multiplicity(SIG2, (1,), (2, 2)) == 0


def test_multiplicity_support():
    # nonzero only on the diagonal or strictly smaller labels
    for sigma in FAMILY:
        for lam in partitions_upto(4):
            for mu in partitions_upto(4):
                m = multiplicity(sigma, lam, mu)
                if mu == lam:
                    assert m == 1
                elif mu.size >= lam.size:
                    assert m == 0
                else:
                    assert m >= 0


def test_ext_fixtures():
    assert ext_dim(SIG2, 0, (2, 1), (2, 1)) == 1
    assert ext_dim(SIG2, 0, (2, 1), (3,)) == 0
    assert ext_dim(SIG2, 1, (), (2,)) == 1
    assert ext_dim(SIG2, 1, (), (1, 1)) == 0
    assert ext_dim(SIG2, 2, (), (3, 1)) == 1
    assert ext_dim(SIG2, 2, (), (2, 2)) == 0
    with pytest.raises(ValueError):
        ext_dim(SIG2, -1, (), ())


# the sigma of the character-side sweeps: one to three entries, entries of
# size 1 to 3, a generator space with one and with several constituents
PAIRING_SIGMAS = ["2", "1,1", "3", "2,1", "2|1", "1,1|1", "1,1,1", "2|1,1"]


def _by_schur_products(sigma, top: int, ext_top: int):
    """Multiplicities for |lam| <= top and Ext dimensions for i <= ext_top,
    as <s_lam, s_mu Sym_d> and <s_lam e_i[V], s_mu> computed with
    `lr_product` and `inner_product` on the full Schur expansions."""
    s = SchurExpr.schur
    mult, ext = {}, {}
    for n in range(top + 1):
        for m in range(n + 1):
            piece = sym_algebra_degree_by_products(sigma, n - m)
            for mu in partitions(m):
                term = lr_product(s(mu), piece)
                for lam in partitions(n):
                    mult[lam, mu] = inner_product(s(lam), term)
    for i in range(ext_top + 1):
        wedge = exterior_power_char(sigma, i)
        for lam in partitions_upto(3):
            term = lr_product(wedge, s(lam))
            for mu in partitions_upto(top):
                ext[i, lam, mu] = inner_product(term, s(mu))
    return mult, ext


def test_multiplicity_and_ext_match_schur_products():
    # the pairing with one skew expansion against the full products
    for text in PAIRING_SIGMAS:
        sigma = parse_tuple(text)
        mult, ext = _by_schur_products(sigma, 7, 3)
        for (lam, mu), want in mult.items():
            assert multiplicity(sigma, lam, mu) == want, (text, lam, mu)
        for (i, lam, mu), want in ext.items():
            assert ext_dim(sigma, i, lam, mu) == want, (text, i, lam, mu)


def test_multiplicity_and_ext_take_no_lr_product(monkeypatch):
    # the pairing reads one skew expansion, so no Littlewood-Richardson
    # product may run, however deep the caches are
    sigma = parse_tuple("2|1")
    mult, ext = _by_schur_products(sigma, 5, 2)
    symfun.sym_algebra_power_sums.cache_clear()
    symfun.exterior_power_sums.cache_clear()

    def refuse(*args):
        raise AssertionError("lr_product called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sigmabrauer" and getattr(module, "lr_product", None) is lr_product:
            monkeypatch.setattr(module, "lr_product", refuse)
    for (lam, mu), want in mult.items():
        assert multiplicity(sigma, lam, mu) == want, (lam, mu)
    for (i, lam, mu), want in ext.items():
        assert ext_dim(sigma, i, lam, mu) == want, (i, lam, mu)


def test_multiplicity_certifies_its_pairing(monkeypatch):
    # one character value off by one makes <s_(4), Sym_4> for sigma = (2),
    # (p_1^4 + 6 p_2 p_1^2 + 3 p_2^2 + 8 p_3 p_1 + 6 p_4)/24 at the class
    # (2, 2), a fraction, which the pairing must refuse
    true_value = symfun.mn_character
    beta = beta_set((4,))
    symfun.sym_algebra_power_sums.cache_clear()
    monkeypatch.setattr(
        symfun, "mn_character", lambda b, c: true_value(b, c) + (b == beta and tuple(c) == (2, 2))
    )
    with pytest.raises(RuntimeError, match="not a count"):
        multiplicity(SIG2, (4,), ())


def _signed_ext(sigma, memo: dict, nu, mu) -> int:
    """sum_i (-1)^i dim Ext^i(L_nu, L_mu); every generator has degree at
    least 1, so i runs to |mu| - |nu|."""
    key = (nu, mu)
    if key not in memo:
        top = mu.size - nu.size
        memo[key] = sum((-1) ** i * ext_dim(sigma, i, nu, mu) for i in range(top + 1))
    return memo[key]


@pytest.mark.parametrize(
    "text, top",
    [("2", 9), ("1,1", 9), ("3", 10), ("2|1", 8), ("2,1", 8)],
)
def test_koszul_duality_of_multiplicities_and_ext(text, top):
    # the free algebra is Koszul, sum_i (-1)^i e_i[V] h_{k-i}[V] = 0 for
    # k > 0, so the multiplicity matrix times the transpose of the signed
    # Ext matrix is the identity:
    # sum_mu [I_lam : L_mu] sum_i (-1)^i dim Ext^i(L_nu, L_mu) = delta
    sigma = parse_tuple(text)
    memo: dict = {}
    for lam in partitions_upto(top):
        row = {mu: multiplicity(sigma, lam, mu) for mu in subpartitions(lam)}
        for nu in partitions_upto(lam.size):
            total = sum(m * _signed_ext(sigma, memo, nu, mu) for mu, m in row.items() if m)
            assert total == (nu == lam), (text, lam, nu, total)


def test_form_point_validation():
    with pytest.raises(ValueError):
        FormPoint(SIG2, 3, [[1, 2]])  # wrong length
    for make in (lambda: FormPoint(SIG2, -1, [[]]), lambda: random_form(SIG2, -1, seed=0)):
        with pytest.raises(ValueError, match="rank"):
            make()
    f = random_form(SIG2, 3, seed=5)
    assert f == random_form(SIG2, 3, seed=5)  # seed determinism
    assert f != random_form(SIG2, 3, seed=6)


def test_theta_identity_and_zero():
    form = random_form(SIG2, 3, seed=11)
    assert theta_apply(form, Morphism.identity(SIG2, 2)) == RatMat.identity(9)
    assert theta_apply(form, Morphism.zero(SIG2, 2, 0)) == RatMat.zeros(1, 9)


def test_theta_dot_product_fixture():
    dp = dot_product_form(2)
    block = Morphism.from_diagram(SIG2, make_diagram(SIG2, 2, 0, (((1, 2), 0, 0),), ()))
    mat = theta_apply(dp, block)
    # columns in word order (1,1), (1,2), (2,1), (2,2)
    assert [mat.data[0][j] for j in range(4)] == [1, 0, 0, 1]


def test_dot_product_form_is_the_identity_gram_matrix():
    for N in range(1, 6):
        fn = as_fractions(block_functional(dot_product_form(N), 0, 0))
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                assert fn.get((i, j), 0) == int(i == j), (N, i, j)


def test_block_functionals_match_the_word_scan_reference():
    # the engine's sweep over (gamma word, source word) pairs against a scan
    # of every word through the realization coordinates; N = 0 and the
    # ranks below the length of an entry give empty functionals
    cases = 0
    grid = [("3,2,1", 2), ("4,1,1", 2), ("3,2", 3), ("2,2", 3), ("2,1,1", 3), ("2|1,1", 3)]
    for text, top in grid:
        sigma = parse_tuple(text)
        for N in range(top + 1):
            # two seeds, once each when they draw the same form (below the length)
            for form in dict.fromkeys(random_form(sigma, N, seed) for seed in (0, 1)):
                for p, shape in enumerate(sigma):
                    for t in range(specht_dim(shape)):
                        cases += 1
                        assert as_fractions(
                            block_functional(form, p, t)
                        ) == block_functional_reference(form, p, t), (text, N, p, t)
    special = [dot_product_form(N) for N in range(4)]
    special += [modcat.monomial_cubic_form(M) for M in (3, 4)]
    for form in special:
        cases += 1
        fn = as_fractions(block_functional(form, 0, 0))
        assert fn == block_functional_reference(form, 0, 0), form
    assert cases == 155


def test_theta_apply_matches_the_reference_scan():
    rng = random.Random(41)
    for text in ("2", "2,1", "2|1"):
        sigma = parse_tuple(text)
        form = random_form(sigma, 3, seed=2)
        done = 0
        while done < 6:
            n = rng.randint(2, 4)
            f = random_morphism(sigma, n, rng.randint(0, n - 1), rng)
            if not any(d.blocks for d in f.terms):
                continue
            done += 1
            assert theta_apply(form, f) == stacked_specializations(form, n, [f]), (text, f)


def test_form_from_tensor_values_rejects_words_outside_the_rank():
    for word in [(1, 3), (0, 1), (1, 1, 1)]:
        with pytest.raises(ValueError, match="not a word of length 2"):
            modcat.form_from_tensor_values(SIG2, 2, 0, {word: 0})


def test_form_from_tensor_values_rejects_an_entry_index_outside_sigma():
    # an index outside 0..len(sigma)-1 names no entry: a negative one must not
    # select an entry from the end, whose solved values would then be dropped
    values = {(1, 1): 1, (1, 2): 0}
    assert any(modcat.form_from_tensor_values(SIG2, 3, 0, values).comps[0])
    for sigma, p in [(SIG2, -1), (SIG2, 1), (parse_tuple("2|1"), -1), (parse_tuple("2|1"), 2)]:
        with pytest.raises(ValueError, match="entry index"):
            modcat.form_from_tensor_values(sigma, 3, p, values)


def test_form_from_tensor_values_round_trip_with_expansion_denominators():
    # the polytabloid expansions of (2,1), (3,2) and (2,2) have denominators
    # 2, 4 and 4, so the solve only holds if the prescribed values are
    # scaled to match
    cases = [("2,1", 3), ("3,2", 2), ("2,2", 3), ("2,1|1", 3)]
    for text, N in cases:
        sigma = parse_tuple(text)
        d = sigma[0].size
        for seed in range(3):
            fn = block_functional_reference(random_form(sigma, N, seed), 0, 0)
            words = list(product(range(1, N + 1), repeat=d))[::2]
            values = {u: fn.get(u, 0) for u in words}
            solved = modcat.form_from_tensor_values(sigma, N, 0, values)
            got = block_functional_reference(solved, 0, 0)
            assert {u: got.get(u, 0) for u in words} == values, (text, N, seed)


def test_finite_rank_vectors_are_integers_over_one_denominator():
    def check(pair):
        den, row = pair
        assert type(den) is int and den > 0
        assert all(type(x) is int and x for x in row.values())

    rng = random.Random(5)
    for text, N in [("2", 3), ("2,1", 3), ("1,1", 3), ("3,2", 2), ("2,1|1", 3), ("2|1,1", 2)]:
        sigma = parse_tuple(text)
        form = random_form(sigma, N, seed=1)
        for p, shape in enumerate(sigma):
            for den, vec in get_tensor_rep(shape, N).basis:
                check((den, vec))
                assert vec[min(vec)] == den
            den, images = specht_word_expansions(shape)
            for image in images:
                check((den, image))
            assert images[0][min(images[0])] == den
            fns = [block_functional(form, p, t) for t in range(specht_dim(shape))]
            for fn in fns:
                check(fn)
            assert len({den for den, _ in fns}) == 1, (text, p)
            check(modcat._omega_tilde(form, p))
        diagrams = modcat._generating_contractions(sigma, 3)
        diagrams += [d for _ in range(4) for d in random_morphism(sigma, 3, rng.randint(0, 2), rng).terms]
        for diagram in diagrams:
            L, g, read = modcat._word_reader(form, diagram)
            rows = {}
            for col, u in enumerate(product(range(1, N + 1), repeat=diagram[0])):
                hit = read(u)
                if hit is not None:
                    rows.setdefault(hit[0], {})[col] = hit[1]
            for row in rows.values():
                check((L, row))
                assert gcd(*row.values()) == g, (text, diagram)


def test_theta_functoriality_random():
    rng = random.Random(97)
    for sigma in [SIG2, PartitionTuple(((1, 1),)), PartitionTuple(((2, 1),))]:
        for N in (2, 3):
            form = random_form(sigma, N, seed=rng.randint(0, 10**6))
            done = 0
            while done < 12:
                n = rng.randint(0, 3)
                m = rng.randint(0, n)
                l = rng.randint(0, m)
                f = random_morphism(sigma, n, m, rng)
                g = random_morphism(sigma, m, l, rng)
                if f.is_zero() or g.is_zero():
                    continue
                done += 1
                assert theta_apply(form, g.compose(f)) == theta_apply(form, g) @ theta_apply(form, f)


def test_theta_monoidal_random():
    rng = random.Random(53)
    form = random_form(SIG2, 2, seed=4)
    for _ in range(20):
        n1 = rng.randint(0, 2)
        m1 = rng.randint(0, n1)
        n2 = rng.randint(0, 2)
        m2 = rng.randint(0, n2)
        a = random_morphism(SIG2, n1, m1, rng)
        b = random_morphism(SIG2, n2, m2, rng)
        assert theta_apply(form, a.tensor(b)) == theta_apply(form, a).kron(theta_apply(form, b))


def test_traceless_fixtures_rank_five():
    form = random_form(SIG2, 5, seed=20250809)
    assert traceless_space(form, 0) == 1
    assert traceless_space(form, 1) == 5  # below every block size
    assert traceless_space(form, 2) == 24
    assert simple_realization_dim(form, Partition((2,))) == 14
    assert simple_realization_dim(form, Partition((1, 1))) == 10
    assert simple_realization_dim(form, Partition((1, 1, 1))) == 10


def test_traceless_matches_brute_oracle_rank_four():
    form = random_form(SIG2, 4, seed=67)
    for lam in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]:
        assert simple_realization_dim(form, Partition(lam)) == traceless_isotypic_brute(
            form, Partition(lam)
        )


def test_traceless_monotone_under_constraints():
    # the traceless space is contained in the ambient isotypic bound
    from sigmabrauer.combinat import schur_dim, specht_dim

    form = random_form(SIG2, 4, seed=8)
    for lam in [(2,), (1, 1), (2, 1)]:
        lam = Partition(lam)
        dim = simple_realization_dim(form, lam)
        assert dim <= schur_dim(lam, 4) * specht_dim(lam)


def test_socle_fixtures():
    form5 = random_form(SIG2, 5, seed=20250809)
    assert socle_check(form5, Partition(())) is True
    assert socle_check(form5, Partition((2,))) is True
    form41 = random_form(SIG1, 4, seed=7)
    assert socle_check(form41, Partition((1,))) is True
    assert traceless_space(form41, 1) == 3


def test_translate_is_an_action():
    rng = random.Random(15)
    form = random_form(SIG2, 3, seed=3)
    a = RatMat(3, 3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = RatMat(3, 3, [[1, 0, 0], [0, 1, 2], [0, 0, 1]])
    assert translate(translate(form, a), b) == translate(form, a @ b)


def test_translate_rejects_a_matrix_that_does_not_fit():
    # g is extended by the identity up to the rank: it must be square and
    # no larger than the rank
    form = random_form(SIG2, 3, seed=3)
    too_large = RatMat(4, 4, [[int(i + j == 3) for j in range(4)] for i in range(4)])
    not_square = RatMat(2, 3, [[0, 1, 0], [1, 0, 0]])
    for g in (too_large, not_square):
        with pytest.raises(ValueError, match="does not fit"):
            translate(form, g)


def _random_rational_matrix(rng, size, den):
    entries = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(size)]
        for _ in range(size)
    ]
    return RatMat(size, size, entries)


def test_translate_matches_action_matrix_reference():
    rng = random.Random(21)
    for text in ("3", "2", "1,1", "2|1", "2,1"):
        sigma = parse_tuple(text)
        for N in (2, 3, 4):
            form = random_form(sigma, N, seed=N)
            rows = _random_rational_matrix(rng, N, 3).data
            singular = RatMat(N, N, list(rows[:-1]) + [[2 * x for x in rows[0]]])
            gs = [
                _random_rational_matrix(rng, N, 1),  # integral
                _random_rational_matrix(rng, N, 4),  # non-integral
                singular,
                _random_rational_matrix(rng, N - 1, 3),  # padded by the identity
            ]
            for g in gs:
                assert translate(form, g).comps == translate_reference(form, g), (text, N, g)


def test_class_traces_match_projector():
    # reference: the character-averaged projector on the slot action; at
    # N = 0 the tensor power has no words but the empty one, and at N = 1
    # the (1,1) form is zero
    for sigma in [SIG2, PartitionTuple(((1, 1),)), PartitionTuple(((2,), (1,)))]:
        for N in (0, 1, 2, 3, 4):
            form = random_form(sigma, N, seed=1)
            for n in range(4):
                space = reference_space(form, n)
                assert traceless_space(form, n) == space.dim, (sigma, N, n)
                mults = isotypic_multiplicities(space)
                assert set(mults) == set(partitions(n))
                assert sum(specht_dim(nu) * m for nu, m in mults.items()) == space.dim
                if space.dim == 0:
                    continue
                gens = slot_generator_matrices(space)
                for lam in partitions(n):
                    proj = isotypic_projector(
                        lam,
                        gens,
                        dim=space.dim,
                        perm_action=lambda ol: slot_permutation_matrix(space, ol),
                    )
                    assert simple_realization_dim(form, lam) == proj.trace(), (sigma, N, lam)


def test_unstable_space_is_rejected():
    # span of e_(1,2), e_(1,3) in (k^3)^{(x)2}: the slot swap leaves the span,
    # yet its class traces (2 and 0) give integral multiplicities adding up
    # to the dimension, so only the oracle's stability certificate can catch it
    form = random_form(SIG2, 3, seed=1)
    e = [tuple(Fraction(int(i == j)) for i in range(9)) for j in range(9)]
    space = ReferenceSpace(form, 2, [e[1], e[2]], [1, 2])
    with pytest.raises(RuntimeError, match="not stable"):
        isotypic_multiplicities(space)


# Below the stable range the character-side prediction goes negative while
# the traceless space has no such piece.
UNSTABLE = {
    ("1,1", 2, (1, 1, 1)): (-2, 0),
    ("1,1", 3, (1, 1, 1)): (-2, 0),
    ("2|1", 2, (2, 1)): (-2, 0),
}


def test_character_side_oracle_sweep():
    cases = 0
    off = {}
    for text in ["2", "1,1", "3", "2|1", "2,1"]:
        sigma = parse_tuple(text)
        for N in range(2, 6):
            form = random_form(sigma, N, seed=1)
            for lam in partitions_upto(3):
                if N ** lam.size > 200:
                    continue
                cases += 1
                pred = predicted_realization_dim(sigma, N, lam)
                eng = simple_realization_dim(form, lam)
                if pred != eng:
                    off[(text, N, tuple(lam))] = (pred, eng)
    assert cases == 140
    assert off == UNSTABLE


def test_restricted_nullity_matches_class_traces():
    # Weyl's construction on the engine path against the class-trace oracle
    # on the full traceless space
    cases = 0
    for text in ["2", "1,1", "3", "2|1", "2,1"]:
        sigma = parse_tuple(text)
        for N in range(2, 6):
            form = random_form(sigma, N, seed=1)
            for n in range(5):
                if N**n > 256:
                    continue
                space = reference_space(form, n)
                assert traceless_space(form, n) == space.dim, (text, N, n)
                mults = isotypic_multiplicities(space)
                for lam in partitions(n):
                    cases += 1
                    eng = simple_realization_dim(form, lam)
                    assert eng == specht_dim(lam) * mults[lam], (text, N, lam)
    assert cases == 215


def test_hom_family_restricted_nullity_matches_class_traces():
    cases = 0
    for text in ["2", "1,1", "2|1"]:
        sigma = parse_tuple(text)
        for N in range(2, 5):
            form = random_form(sigma, N, seed=2)
            for n in range(4):
                homs = [
                    Morphism.from_diagram(sigma, d)
                    for m in range(n)
                    for d in hom_basis(sigma, n, m)
                ]
                space = reference_space(form, n, homs)
                # every basis diagram to a smaller object factors through a
                # block contraction, which is one of them: the kernels agree
                assert traceless_space(form, n) == space.dim, (text, N, n)
                mults = isotypic_multiplicities(space)
                lams = list(partitions(n))
                nullities = _restricted_nullity(form, [d for f in homs for d in f.terms], lams)
                for lam, nullity in zip(lams, nullities):
                    cases += 1
                    assert nullity == mults[lam], (text, N, lam)
    assert cases == 63


def test_traceless_constraints_match_the_morphism_route():
    # the plain contraction tuples against contraction Morphisms built and
    # validated by the diagram category: the same diagrams in the same order,
    # each a single term with coefficient 1, so every form reads the same
    # rows under the same keys
    for text in ["2", "1,1", "3", "2|1", "2,1", "2,1|1", "3,2,1", "3|2|1"]:
        sigma = parse_tuple(text)
        for n in range(5):
            morphisms = contraction_morphisms(sigma, n)
            assert all(list(f.terms.values()) == [1] for f in morphisms), (text, n)
            reference = [d for f in morphisms for d in f.terms]
            assert modcat._generating_contractions(sigma, n) == reference, (text, n)


def test_contractions_are_read_once_at_each_realization_word(monkeypatch):
    # the block contractions are read only at the words of the realization
    # bases, each (contraction, word) pair once, and traceless_space shares
    # the words read across its lam
    cases = [("2", 3, (2, 1)), ("2,1", 3, (2, 1, 1)), ("2|1", 4, (3, 1)), ("3", 3, None)]
    forms = [(random_form(parse_tuple(text), N, seed=0), lam) for text, N, lam in cases]

    def run(form, lam):
        if lam is None:
            return traceless_space(form, 4)
        return simple_realization_dim(form, Partition(lam))

    expected = [run(form, lam) for form, lam in forms]
    original = modcat._word_reader
    reads = []

    def counting(form, diagram):
        L, g, read = original(form, diagram)

        def traced(u):
            reads.append((diagram, u))
            return read(u)

        return L, g, traced

    monkeypatch.setattr(modcat, "_word_reader", counting)
    for (form, lam), value in zip(forms, expected):
        reads.clear()
        assert run(form, lam) == value
        lams = [Partition(lam)] if lam else [mu for mu in partitions(4) if len(mu) <= form.N]
        n = lams[0].size
        words = {w for mu in lams for _, vec in get_tensor_rep(mu, form.N).basis for w in vec}
        diagrams = modcat._generating_contractions(form.sigma, n)
        assert len(reads) == len(set(reads)) == len(diagrams) * len(words), (form.sigma, lam)
        assert {u for _, u in reads} == words
        # one realization touches only part of the tensor space; together
        # the realizations of traceless_space read each word once
        assert len(words) < form.N**n if lam else len(words) == form.N**n


def _no_ratmat(self, *args):
    raise AssertionError("a RatMat was built")


def test_specht_certificates_build_no_action_matrix(monkeypatch):
    # both certificates read the straightened transposition images, so the
    # traceless path builds no RatMat at all, and its values are those it
    # has with RatMat available
    shapes = [Partition(shape) for shape in [(2,), (2, 1), (2, 2, 1), (3, 2, 1)]]
    forms = [(random_form(parse_tuple(text), N, seed=7), n)
             for text, N, n in [("2", 3, 3), ("2,1|1", 2, 4), ("2|1,1", 3, 3)]]

    def values():
        return [specht_word_expansions(shape) for shape in shapes] + [
            (traceless_space(form, n),
             [simple_realization_dim(form, lam) for lam in partitions(n)])
            for form, n in forms
        ]

    expected = values()
    monkeypatch.setattr(RatMat, "__init__", _no_ratmat)
    specht_word_expansions.cache_clear()
    assert values() == expected


def test_unstable_block_span_is_rejected(monkeypatch):
    # one non-symmetric word of a (2,1) block functional perturbed by hand:
    # the functionals no longer span a representation of S_3; the certificate
    # reads straightening and builds no RatMat
    monkeypatch.setattr(RatMat, "__init__", _no_ratmat)
    sigma = parse_tuple("2,1")
    form = random_form(sigma, 3, seed=1)
    den, row = block_functional(form, 0, 0)
    fn = dict(row)
    fn[(1, 1, 2)] = fn.get((1, 1, 2), 0) + 1
    monkeypatch.setitem(form._functionals, (0, 0), (den, fn))
    for lam in [(3,), (2, 1), (3, 1)]:
        with pytest.raises(RuntimeError, match="do not span"):
            simple_realization_dim(form, Partition(lam))
