import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from helpers import (
    kostka_row,
    plethysm_brute,
    schur_from_dominant_monomials,
    ssyt_monomials,
    sym_algebra_degree_by_products,
)
from sigmabrauer import symfun
from sigmabrauer.combinat import Partition, PartitionTuple, parse_tuple, partitions, schur_dim
from sigmabrauer.symfun import (
    SchurExpr,
    inner_product,
    kostka,
    lr_product,
    plethysm_e,
    plethysm_h,
    shift_decompose,
    skew_schur_expand,
    sym_algebra_degree,
)

s = SchurExpr.schur


def test_lr_fixtures():
    assert lr_product(s((1,)), s((1,))) == SchurExpr({(2,): 1, (1, 1): 1})
    assert lr_product(s((3, 1)), SchurExpr.one()) == s((3, 1))
    assert lr_product(s((2,)), s((2,))) == SchurExpr({(4,): 1, (3, 1): 1, (2, 2): 1})
    # a case with a multiplicity
    assert lr_product(s((2, 1)), s((2, 1))).coefficient((3, 2, 1)) == 2


def test_lr_commutative_associative():
    rng = random.Random(2024)
    pool = [p for n in range(5) for p in partitions(n)]
    for _ in range(100):
        a, b, c = (s(rng.choice(pool)) for _ in range(3))
        ab = lr_product(a, b)
        assert ab == lr_product(b, a)
        assert lr_product(ab, c) == lr_product(a, lr_product(b, c))


def test_lr_degree_additive_and_bilinear():
    a = s((2,)) + s((1,)).scale(Fraction(1, 2))
    b = s((1, 1))
    prod = lr_product(a, b)
    assert prod.degrees() == {3, 4}
    assert prod.degree_component(3) == lr_product(s((1,)), b).scale(Fraction(1, 2))


def test_skew_matches_lr():
    # the reciprocity c^lam_{mu,nu} = <s_{lam/mu}, s_nu>: the coefficient
    # of s_lam in s_mu s_nu equals the coefficient of s_nu in the skew
    # expansion of lam/mu.  Products read the skew expansions, so this is
    # not an independent check of the enumeration; the monomial oracle
    # below is
    rng = random.Random(7)
    pool = [p for n in range(1, 5) for p in partitions(n)]
    for _ in range(60):
        mu, nu = rng.choice(pool), rng.choice(pool)
        prod = lr_product(s(mu), s(nu))
        for lam, c in prod.terms.items():
            assert skew_schur_expand(lam, mu).coefficient(nu) == c


def test_lr_against_monomial_products():
    # an oracle sharing no enumeration with symfun: multiply the monomial
    # expansions of s_lam and s_mu in |lam| + |mu| letters and read the
    # Schur expansion of the product back from its dominant monomials
    for n in range(7):
        for a in range(n + 1):
            for lam in partitions(a):
                left = Counter(ssyt_monomials(lam, n))
                for mu in partitions(n - a):
                    dominant = Counter()
                    for y, cy in Counter(ssyt_monomials(mu, n)).items():
                        for x, cx in left.items():
                            z = [i + j for i, j in zip(x, y)]
                            if z == sorted(z, reverse=True):
                                dominant[Partition(v for v in z if v)] += cx * cy
                    want = schur_from_dominant_monomials(dominant)
                    assert lr_product(s(lam), s(mu)) == want, (lam, mu)


def test_skew_trivial_cases():
    assert skew_schur_expand(Partition((2, 1)), Partition((2, 1))) == SchurExpr.one()
    assert skew_schur_expand(Partition((2,)), Partition((3,))) == SchurExpr.zero()
    assert skew_schur_expand(Partition((2, 1)), Partition(())) == s((2, 1))


def test_inner_product():
    assert inner_product(s((3, 1)), s((3, 1))) == 1
    assert inner_product(s((2,)), s((1, 1))) == 0
    assert inner_product(s((2, 2)), lr_product(s((2,)), s((2,)))) == 1


def test_plethysm_fixtures():
    assert plethysm_h(1, s((2,))) == s((2,))
    assert plethysm_h(2, s((2,))) == SchurExpr({(4,): 1, (2, 2): 1})
    assert plethysm_e(2, s((2,))) == s((3, 1))
    for a in range(5):
        assert plethysm_h(a, s((1,))) == s((a,) if a else ())
        assert plethysm_e(a, s((1,))) == s((1,) * a)


def test_plethysm_rejects_virtual_characters():
    with pytest.raises(ValueError):
        plethysm_h(2, s((1,)).scale(-1))
    with pytest.raises(ValueError):
        plethysm_e(2, s((1,)).scale(Fraction(1, 2)))


def test_koszul_exactness_of_characters():
    # sum over i of (-1)^i e_i[f] h_{a-i}[f] vanishes in positive degree
    for f in [s((2,)), s((3,)), s((1, 1))]:
        g = f.max_degree()
        for d in range(1, 9):
            if d % g:
                continue
            a = d // g
            total = SchurExpr.zero()
            for i in range(a + 1):
                term = lr_product(plethysm_e(i, f), plethysm_h(a - i, f))
                total = total + term.scale((-1) ** i)
            assert not total.degree_component(d), (f, d)


def test_plethysm_against_brute_oracle_small():
    # the full sweep (inner degree <= 3, outer <= 3) runs in acceptance
    for shape in [(1,), (2,), (1, 1)]:
        for a in range(4):
            assert plethysm_h(a, s(shape)) == plethysm_brute(a, s(shape), "h")
            assert plethysm_e(a, s(shape)) == plethysm_brute(a, s(shape), "e")
    # mixed inners whose terms differ in length, degree and coefficient
    # (the last one lists the shorter term first)
    mixed = [
        s((2,)) + s((1,)),
        s((1, 1)) + s((1,)),
        s((2, 1)) + s((2,)),
        s((2,)) + s((1,)).scale(2),
        s((2,)) + s((1, 1)),
    ]
    for f in mixed:
        for a in range(4):
            assert plethysm_h(a, f) == plethysm_brute(a, f, "h"), (a, f)
            assert plethysm_e(a, f) == plethysm_brute(a, f, "e"), (a, f)


def test_plethysm_dimensions_at_every_rank():
    # at rank N, e_i[f] has dimension C(D, i) and h_a[f] has C(D+a-1, a),
    # with D the dimension of f; a constituent lost or added has positive
    # dimension from rank len(nu) <= outer*deg on, so the ranks up to
    # outer*deg+1 show it; in the fifth case the term with the most rows
    # has the lower degree
    cases = [
        (plethysm_e, 5, s((2,)) + s((1,))),
        (plethysm_h, 5, s((2,))),
        (plethysm_e, 4, s((1, 1)) + s((1,))),
        (plethysm_h, 3, s((2, 1)) + s((2,))),
        (plethysm_e, 3, s((3,)) + s((1, 1))),
        (plethysm_h, 4, s((1, 1, 1))),
        (plethysm_e, 4, s((1, 1, 1))),
    ]
    for pleth, a, f in cases:
        result = pleth(a, f)
        for N in range(1, a * f.max_degree() + 2):
            D = sum(int(c) * schur_dim(lam, N) for lam, c in f.terms.items())
            want = comb(D, a) if pleth is plethysm_e else comb(D + a - 1, a)
            got = sum(c * schur_dim(nu, N) for nu, c in result.terms.items())
            assert got == want, (pleth.__name__, a, f, N, got, want)


def test_plethysm_packed_words_at_the_edges():
    # one cycle type: h_1[s_3] is the single term rho = (1)
    assert plethysm_h(1, s((3,))) == s((3,))
    # a power sum reaching the full result degree: p_7 in h_7[s_1],
    # p_(4,4) and p_8 in h_2[s_4] and e_2[s_4]
    assert plethysm_h(7, s((1,))) == s((7,))
    assert plethysm_h(2, s((4,))) == SchurExpr({(8,): 1, (6, 2): 1, (4, 4): 1})
    assert plethysm_e(2, s((4,))) == SchurExpr({(7, 1): 1, (5, 3): 1})
    # an inhomogeneous inner: the result has every degree from 3 to 6
    f = s((2,)) + s((1,))
    for pleth, mode in [(plethysm_h, "h"), (plethysm_e, "e")]:
        result = pleth(3, f)
        assert result == plethysm_brute(3, f, mode)
        assert result.degrees() == {3, 4, 5, 6}


@pytest.mark.parametrize(
    "shape, cls, outer",
    [
        # an inner character: s_(1,1) = (p_1^2 - p_2)/2
        ((1, 1), (2,), 2),
        # a character read back at the result's degree
        ((4,), (2, 2), 2),
    ],
)
def test_plethysm_certifies_its_coefficients(monkeypatch, shape, cls, outer):
    # one character value off by one makes e_2[s_(1,1)] a virtual or
    # fractional character, which the plethysm must refuse
    true_value = symfun.mn_character
    beta = symfun.beta_set(shape)
    reads = []

    def perturbed(b, c):
        if (b, tuple(c)) == (beta, cls):
            reads.append(c)
            return true_value(b, c) + 1
        return true_value(b, c)

    monkeypatch.setattr(symfun, "mn_character", perturbed)
    with pytest.raises(RuntimeError, match="not a count"):
        plethysm_e(outer, s((1, 1)))
    assert reads


def test_kostka_basics():
    assert kostka(Partition((2, 1)), (1, 1, 1)) == 2
    assert kostka(Partition((2, 1)), (2, 1)) == 1
    assert kostka(Partition((2, 1)), (3,)) == 0
    assert kostka(Partition((3,)), (1, 1, 1)) == 1
    # against the tableau counts of the brute-force plethysm oracle
    for n in range(7):
        for lam in partitions(n):
            row = kostka_row(lam)
            for mu in partitions(n):
                assert kostka(lam, tuple(mu)) == row.get(mu, 0), (lam, mu)


def test_sym_algebra_degree():
    sig = PartitionTuple(((2,),))
    assert sym_algebra_degree(sig, 0) == SchurExpr.one()
    assert sym_algebra_degree(sig, 2) == s((2,))
    assert sym_algebra_degree(sig, 4) == SchurExpr({(4,): 1, (2, 2): 1})
    assert sym_algebra_degree(sig, 3) == SchurExpr.zero()
    two = PartitionTuple(((1,), (1,)))
    # two degree-1 generators: degree d part has dimension-counting character
    assert sym_algebra_degree(two, 1) == s((1,)).scale(2)
    with pytest.raises(ValueError):
        sym_algebra_degree(PartitionTuple(((1,), ())), 2)


def test_sym_algebra_degree_matches_schur_products():
    # the power-sum product of the pieces, read back, against the pieces
    # read back one by one and multiplied in the Schur basis
    for text in ["2", "1,1", "3", "2,1", "2|1", "1,1|1", "1,1,1", "2|1,1"]:
        sigma = parse_tuple(text)
        for d in range(11):
            assert sym_algebra_degree(sigma, d) == sym_algebra_degree_by_products(sigma, d), (text, d)


def test_shift_fixtures():
    assert shift_decompose(Partition((3, 1)), 0) == {Partition((3, 1)): 1}
    assert shift_decompose(Partition((2,)), 1) == {
        Partition(()): 1,
        Partition((1,)): 1,
        Partition((2,)): 1,
    }
    assert shift_decompose(Partition((1, 1)), 2) == {
        Partition(()): 1,
        Partition((1,)): 2,
        Partition((1, 1)): 1,
    }


def test_shift_invariants():
    for n in range(4):
        for size in range(5):
            for lam in partitions(size):
                dec = shift_decompose(lam, n)
                assert dec.get(lam) == 1
                for nu in dec:
                    if nu != lam:
                        assert nu.size < lam.size
                for N in range(5):
                    total = sum(m * schur_dim(nu, N) for nu, m in dec.items())
                    assert total == schur_dim(lam, n + N)
