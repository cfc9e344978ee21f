import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from helpers import realization_reference, run_python, translate_reference
from sigmabrauer import exactla, modcat, schurweyl, stabilizer
from sigmabrauer.combinat import Partition, PartitionTuple, parse_tuple
from sigmabrauer.forms import FormPoint, random_form
from sigmabrauer.modcat import dot_product_form, monomial_cubic_form
from sigmabrauer.schurweyl import get_tensor_rep
from sigmabrauer.stabilizer import (
    GLElement,
    PreconditionError,
    evaluation_presentation,
    gamma_linearity_check,
    gamma_product_level,
    germinal_axiom_suite,
    in_gamma,
    permutation_element,
    random_block_fixing,
)

SIG3 = PartitionTuple(((3,),))
SIG2 = PartitionTuple(((2,),))


def _no_ratmat(self, *args):
    raise AssertionError("a RatMat was built")


def test_permutation_element_rejects_non_permutations(monkeypatch):
    # every permutation of at most 4 letters is the GLElement of its matrix,
    # with its columns written directly: no RatMat is built
    expected = {
        images: GLElement([[int(x == i) for x in images] for i in range(1, len(images) + 1)])
        for size in range(5) for images in permutations(range(1, size + 1))
    }
    assert expected[2, 3, 1] == GLElement([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    monkeypatch.setattr(exactla.RatMat, "__init__", _no_ratmat)
    for images, g in expected.items():
        h = permutation_element(dict(enumerate(images, 1)))
        assert (h, h.m) == (g, g.m), images
    assert permutation_element({2: 2}) == expected[()]
    for images in ({1: 0}, {2: 0}, {0: 1}, {1: -1}, {1: 2}, {3: 1}, {1: 3, 2: 3}):
        with pytest.raises(ValueError, match="does not permute the labels"):
            permutation_element(images)


def test_gl_element_normalization():
    assert GLElement([[1, 0], [0, 1]]).m == 0
    assert GLElement([[2, 0], [0, 1]]) == GLElement([[2]])
    with pytest.raises(ValueError, match="matrix must be invertible"):
        GLElement([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="matrix must be square"):
        GLElement([[1, 2, 3], [4, 5, 6]])
    # rational entries in any form Fraction() reads, from rows or a RatMat
    g = GLElement([["1/2", 0.25], [0, Fraction(3, 2)]])
    assert (g.den, g.cols, g.m) == (4, {1: {1: 2}, 2: {1: 1, 2: 6}}, 2)
    assert GLElement(exactla.RatMat(2, 2, [[Fraction(1, 2), Fraction(1, 4)], [0, Fraction(3, 2)]])) == g
    with pytest.raises(ValueError, match="matrix must be invertible"):
        GLElement([["1/2", "1/3"], [Fraction(3, 2), 1]])


_GL_PROBE = """
import json, sys
from sigmabrauer import GLElement
g = GLElement([[0, 1], [1, 0]])
print(json.dumps([g.den, g.cols, sorted({"fractions", "sigmabrauer.dense"} & sys.modules.keys())]))
"""


def test_gl_element_on_integer_rows_loads_neither_dense_nor_fractions():
    # the invertibility check eliminates the integer rows of den g
    proc = run_python("-c", _GL_PROBE)
    assert json.loads(proc.stdout) == [1, {"1": {"2": 1}, "2": {"1": 1}}, []], proc.stderr


def _random_element(rng, size, fixed=0):
    """A random invertible rational element whose first `fixed` columns are
    the identity's, so it is a member at level `fixed` of every form."""
    while True:
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.5:  # leave some columns equal to the identity's
            for k in rng.sample(range(size), rng.randint(0, size)):
                for i in range(size):
                    rows[i][k] = Fraction(int(i == k))
        for k in range(fixed):
            for i in range(size):
                rows[i][k] = Fraction(int(i == k))
        try:
            return GLElement(rows)
        except ValueError:
            continue


def test_gl_element_product_extends_by_identity():
    # the dense product of the padded matrices is the reference
    a = GLElement([[0, 1], [1, 0]])
    b = GLElement([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert (a * b).m == 3
    rng = random.Random(13)
    pairs = [(a, b), (b, a)]
    for _ in range(120):
        pairs.append((_random_element(rng, rng.randint(0, 4)), _random_element(rng, rng.randint(0, 4))))
    for a, b in pairs:
        ab = a * b
        N = max(a.m, b.m)
        assert ab.m <= N
        assert ab.embed(N) == a.embed(N) @ b.embed(N)
        assert ab == GLElement(ab.embed(N)) and hash(ab) == hash(GLElement(ab.embed(N)))
    # the denominator is reduced: 2 * 1/2 is the identity
    half = GLElement([[2]]) * GLElement([[Fraction(1, 2)]])
    assert half == GLElement([]) and half.m == 0 and hash(half) == hash(GLElement([]))
    # the 1 <-> 3 swap: the fixed middle column lies between moved ones
    swap = GLElement([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert swap.m == 3 and swap * swap == GLElement([])
    torus = GLElement([[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 6)]])
    assert torus.m == 3 and torus.den == 6
    assert (torus * torus).embed(3) == torus.embed(3) @ torus.embed(3)


def test_identity_membership_all_levels():
    form = random_form(SIG3, 4, seed=1)
    for lvl in range(5):
        assert in_gamma(form, lvl, GLElement([]))


def test_block_fixing_elements_are_members():
    rng = random.Random(0)
    form = random_form(SIG3, 4, seed=3)
    for _ in range(20):
        g = random_block_fixing(2, 4, rng)
        assert in_gamma(form, 2, g)


def test_generic_cubic_rejects_coordinate_swap():
    form = random_form(SIG3, 3, seed=123)
    swap = permutation_element({1: 2, 2: 1})
    assert not in_gamma(form, 2, swap)


def test_level_violation_names_required_rank():
    form = random_form(SIG3, 3, seed=2)
    g = random_block_fixing(0, 5, random.Random(1))
    if g.m <= 3:  # ensure the sample is actually big
        g = GLElement([[1, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    with pytest.raises(PreconditionError) as exc:
        in_gamma(form, 2, g)
    assert "rank" in str(exc.value)


def test_negative_level_is_rejected():
    form = random_form(SIG3, 3, seed=2)
    swap = permutation_element({1: 2, 2: 1})
    with pytest.raises(PreconditionError, match="non-negative"):
        in_gamma(form, -1, swap)
    v = [Fraction(0)] * get_tensor_rep(Partition((3,)), 3).dim
    with pytest.raises(PreconditionError, match="non-negative"):
        gamma_linearity_check(form, evaluation_presentation(form, 0, v), -1, swap, v)


def test_monomial_form_symmetries():
    mono = monomial_cubic_form(4)
    cyc = permutation_element({1: 2, 2: 3, 3: 1})
    swap = permutation_element({1: 2, 2: 1})
    for lvl in range(5):
        assert in_gamma(mono, lvl, cyc)
        assert in_gamma(mono, lvl, swap)
    # torus elements with product one fix the monomial
    torus = GLElement([[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 6)]])
    assert in_gamma(mono, 4, torus)
    bad_torus = GLElement([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not in_gamma(mono, 3, bad_torus)
    shear = GLElement([[1, 1], [0, 1]])
    assert not in_gamma(mono, 3, shear)


def _in_gamma_reference(form, n, g):
    moved = translate_reference(form, g.embed(form.N))
    return all(
        moved[p][j] == form.comps[p][j]
        for p, shape in enumerate(form.sigma)
        for j in get_tensor_rep(shape, form.N).restriction_indices(n)
    )


def _agrees(form, n, g):
    got = in_gamma(form, n, g)
    assert got == _in_gamma_reference(form, n, g), (form, n, g)
    return got


def test_in_gamma_matches_reference_on_members():
    rng = random.Random(31)
    for text in ("3", "2|1", "2,1"):
        form = random_form(parse_tuple(text), 4, seed=8)
        for n in range(5):
            for _ in range(3):
                g = random_block_fixing(n, 4, rng)
                assert _agrees(form, n, g)
                h = random_block_fixing(gamma_product_level(g, n), 4, rng)
                assert _agrees(form, n, h * g)
    mono = monomial_cubic_form(4)
    cyc = permutation_element({1: 2, 2: 3, 3: 1})
    swap = permutation_element({1: 2, 2: 1})
    torus = GLElement([[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 6)]])
    for lvl in range(5):
        assert _agrees(mono, lvl, cyc) and _agrees(mono, lvl, swap) and _agrees(mono, lvl, torus)


def test_in_gamma_matches_reference_on_non_members():
    generic = random_form(SIG3, 4, seed=123)
    mono = monomial_cubic_form(4)
    swap = permutation_element({1: 2, 2: 1})
    shear = GLElement([[1, 1], [0, 1]])
    scale = GLElement([[2]])
    for lvl in (2, 3, 4):
        assert not _agrees(generic, lvl, swap)
        assert not _agrees(generic, lvl, shear)
        assert not _agrees(generic, lvl, scale)
        # x1 x2 x3 vanishes on k^2, where every element is a member
        assert _agrees(mono, lvl, shear) is (lvl == 2)
    assert not _agrees(mono, 3, GLElement([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    rng = random.Random(5)
    verdicts = [
        _agrees(random_form(parse_tuple(text), 4, seed=2), rng.randint(1, 4), random_block_fixing(0, 4, rng))
        for text in ("3", "2", "2|1", "2,1")
        for _ in range(4)
    ]
    assert not all(verdicts)
    # sigma = 2|1: the sum of squares is fixed by the swap of e_1 and e_2, a
    # generic linear form is not, so the only mismatch is in component 1
    sig = parse_tuple("2|1")
    form = FormPoint(sig, 4, [dot_product_form(4).comps[0], [3, -1, 2, 5]])
    moved = translate_reference(form, swap.embed(4))
    assert moved[0] == form.comps[0] and moved[1] != form.comps[1]
    assert not _agrees(form, 2, swap)
    assert not _agrees(form, 2, GLElement([[-1]]))
    assert _agrees(FormPoint(sig, 4, [dot_product_form(4).comps[0], [0, 0, 2, 5]]), 2, swap)


def test_in_gamma_compares_rational_values_exactly():
    # non-integer form components and rational elements: each moved value
    # reaches the comparison as an unreduced integer pair
    rng = random.Random(17)
    torus = GLElement([[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 6)]])
    swap = permutation_element({1: 2, 2: 1})
    for text in ("3", "2|1", "2,1", "1,1|1"):
        base = random_form(parse_tuple(text), 4, seed=9)
        comps = [[Fraction(c, rng.choice((1, 2, 3, 6))) for c in row] for row in base.comps]
        comps[0][0], comps[-1][-1] = Fraction(1, 3), Fraction(-5, 2)
        form = FormPoint(base.sigma, 4, comps)
        for n in range(5):
            g = _random_element(rng, 4, fixed=n)
            assert _agrees(form, n, g)
            h = _random_element(rng, 4, fixed=gamma_product_level(g, n))
            assert _agrees(form, n, h * g)
        for lvl in (3, 4):
            assert not _agrees(form, lvl, swap)
            assert not _agrees(form, lvl, torus)
            assert not _agrees(form, lvl, GLElement([[Fraction(1, 2)]]))
    # a rational multiple of x1 x2 x3: fixed by the torus of product one,
    # moved by the one of product 2/3
    mono = monomial_cubic_form(4)
    for scale in (Fraction(1, 3), Fraction(-5, 2)):
        form = FormPoint(SIG3, 4, [[scale * c for c in mono.comps[0]]])
        for lvl in range(5):
            assert _agrees(form, lvl, torus)
            assert _agrees(form, lvl, GLElement([[1, 0, 0], [0, Fraction(2, 3), 0], [0, 0, 1]])) is (lvl < 3)


def test_queries_by_construction_read_no_realization(monkeypatch):
    # the queries `stab check` makes: the identity, block-fixing samples at
    # their own levels and h g at the witness level move no letter at or
    # below the level, so in_gamma accepts them without a realization
    forms = [random_form(parse_tuple(text), N, seed=3) for text, N in [("3", 4), ("2,1", 5), ("3,3", 6), ("2|1", 4)]]

    def refuse(*args):
        raise AssertionError("a realization was read")

    for module, name in ((modcat, "moved_values"), (modcat, "get_tensor_rep"), (schurweyl, "get_tensor_rep")):
        monkeypatch.setattr(module, name, refuse)
    rng = random.Random(12)
    for form in forms:
        for n in range(form.N + 1):
            assert in_gamma(form, n, GLElement([]))
            g = random_block_fixing(n, form.N, rng)
            assert in_gamma(form, n, g)
            h = random_block_fixing(gamma_product_level(g, n), form.N, rng)
            assert in_gamma(form, n, h * g)
        reports = germinal_axiom_suite(form, list(range(form.N + 1)), samples=10, seed=5)
        assert all(r["passes"] == r["samples"] for r in reports)


def test_omega_tilde_reads_the_form_on_the_reference_realizations():
    # the source-word row of each form component, applied to the basis
    # vector b_j of the reference realization, gives the j-th value
    rng = random.Random(23)
    for text, N in [("3", 3), ("2,1", 3), ("2|1", 4), ("1,1|1", 3), ("3,2", 2)]:
        base = random_form(parse_tuple(text), N, seed=6)
        form = FormPoint(base.sigma, N, [[Fraction(c, rng.randint(1, 4)) for c in row] for row in base.comps])
        for p, shape in enumerate(form.sigma):
            basis, _, _ = realization_reference(shape, N)
            den, row = modcat._omega_tilde(form, p)
            values = [sum((c * b.get(w, 0) for w, c in row.items()), Fraction(0)) / den for b in basis]
            assert values == list(form.comps[p]), (text, N, p)


def test_gamma_product_level_fixture():
    assert gamma_product_level(GLElement([[2, 0], [0, 1]]), 5) == 5
    g = GLElement([[int(i == j) for j in range(7)] for i in range(6)] + [[0, 0, 0, 0, 0, 0, 2]])
    assert gamma_product_level(g, 3) == 7


def test_product_law_randomized():
    rng = random.Random(6)
    form = random_form(SIG3, 5, seed=44)
    for _ in range(30):
        n = rng.randint(1, 3)
        g = random_block_fixing(n, 5, rng)
        assert in_gamma(form, n, g)
        j = gamma_product_level(g, n)
        h = random_block_fixing(j, 5, rng)
        assert in_gamma(form, n, h * g)


def test_axiom_suite_generic_and_monomial():
    form = random_form(SIG3, 5, seed=77)
    reports = germinal_axiom_suite(form, [1, 2, 3, 4, 5], samples=25, seed=10)
    assert [r["axiom"] for r in reports] == ["a", "b", "c"]
    for r in reports:
        assert r["passes"] == r["samples"]
        assert r["failures"] == []
    mono = monomial_cubic_form(4)
    cyc = permutation_element({1: 2, 2: 3, 3: 1})
    swap = permutation_element({1: 2, 2: 1})
    reports = germinal_axiom_suite(mono, [1, 2, 3, 4], samples=25, seed=11, extra_members=[cyc, swap])
    for r in reports:
        assert r["passes"] == r["samples"]
        assert r["failures"] == []


def _in_gamma_stub(form, level, g):
    """A membership predicate of (level, g) alone: the identity is rejected
    at level 2 and every other element at level 3."""
    return (level, bool(g.cols)) not in ((2, False), (3, True))


def test_axiom_suite_failure_reports(monkeypatch):
    # every failure kind, with and without extra members; the reports are
    # pinned to those of the suite that tested every element every time
    monkeypatch.setattr(stabilizer, "in_gamma", _in_gamma_stub)
    form = random_form(SIG3, 5, seed=1)
    extra = [permutation_element({1: 2, 2: 1}), permutation_element({1: 2, 2: 3, 3: 1})]
    a = {"axiom": "a", "samples": 6, "passes": 5, "failures": [{"level": 2, "reason": "identity rejected"}]}
    rejected = {"level": 3, "reason": "constructive sample rejected"}
    nest = [{"level": i, "from_level": j, "reason": "nesting failed"} for i, j in ((2, 4), (3, 5), (3, 4))]
    assert germinal_axiom_suite(form, [1, 2, 3, 4, 5], samples=6, seed=25) == [
        a,
        {"axiom": "b", "samples": 14, "passes": 11, "failures": [nest[0], rejected, nest[0]]},
        {"axiom": "c", "samples": 6, "passes": 5, "failures": [rejected]},
    ]
    assert germinal_axiom_suite(form, [1, 2, 3, 4, 5], samples=6, seed=25, extra_members=extra) == [
        a,
        {"axiom": "b", "samples": 18, "passes": 15, "failures": nest},
        {
            "axiom": "c",
            "samples": 6,
            "passes": 4,
            "failures": [{"level": 2, "witness": 2, "reason": "product law failed"}, rejected],
        },
    ]


def test_axiom_suite_tests_the_identity_once_per_level(monkeypatch):
    identity_calls = []

    def counting(form, level, g):
        if not g.cols:
            identity_calls.append(level)
        return in_gamma(form, level, g)

    monkeypatch.setattr(stabilizer, "in_gamma", counting)
    mono = monomial_cubic_form(4)
    extra = [permutation_element({1: 2, 2: 3, 3: 1}), permutation_element({1: 2, 2: 1})]
    for form, members in ((random_form(SIG3, 4, seed=7), None), (mono, extra)):
        identity_calls.clear()
        reports = germinal_axiom_suite(form, [1, 2, 3, 4], samples=20, seed=3, extra_members=members)
        assert all(r["passes"] == r["samples"] for r in reports)
        assert sorted(identity_calls) == [1, 2, 3, 4]


def test_axiom_suite_level_validation():
    form = random_form(SIG3, 3, seed=5)
    with pytest.raises(PreconditionError):
        germinal_axiom_suite(form, [1, 7], samples=5, seed=0)


def test_gamma_linearity_positive():
    rng = random.Random(0)
    form = random_form(SIG3, 4, seed=3)
    rep = get_tensor_rep(Partition((3,)), 4)
    idx = rep.restriction_indices(2)
    v = [Fraction(0)] * rep.dim
    v[idx[0]] = Fraction(2)
    v[idx[-1]] = Fraction(-1)
    phi = evaluation_presentation(form, 0, v)
    g = random_block_fixing(2, 4, rng)
    assert gamma_linearity_check(form, phi, 2, g, v) is True


def test_gamma_linearity_monomial_cycle():
    mono = monomial_cubic_form(4)
    rep = get_tensor_rep(Partition((3,)), 4)
    idx3 = rep.restriction_indices(3)
    v = [Fraction(0)] * rep.dim
    v[idx3[0]] = Fraction(1)
    v[idx3[2]] = Fraction(3)
    phi = evaluation_presentation(mono, 0, v)
    cyc = permutation_element({1: 2, 2: 3, 3: 1})
    assert gamma_linearity_check(mono, phi, 3, cyc, v) is True


def test_gamma_linearity_negative_control():
    form = random_form(SIG3, 4, seed=3)
    rep = get_tensor_rep(Partition((3,)), 4)
    v = [Fraction(0)] * rep.dim
    v[rep.source_words.index((2, 2, 2))] = Fraction(1)
    phi = evaluation_presentation(form, 0, v)
    shear = GLElement([[1, 1], [0, 1]])
    assert not in_gamma(form, 2, shear)
    assert gamma_linearity_check(form, phi, 2, shear, v) is False


def test_gamma_linearity_preconditions_are_distinct():
    form = random_form(SIG3, 4, seed=3)
    rep = get_tensor_rep(Partition((3,)), 4)
    v = [Fraction(1)] * rep.dim  # not supported on k^2
    phi = evaluation_presentation(form, 0, v)
    g = random_block_fixing(2, 4, random.Random(0))
    with pytest.raises(PreconditionError):
        gamma_linearity_check(form, phi, 2, g, v)
    big = GLElement([[int(i == j) for j in range(5)] for i in range(4)] + [[0, 0, 0, 0, 2]])
    w = [Fraction(0)] * rep.dim
    w[rep.restriction_indices(2)[0]] = Fraction(1)
    with pytest.raises(PreconditionError):
        gamma_linearity_check(form, evaluation_presentation(form, 0, w), 2, big, w)


def test_gamma_linearity_checks_every_w_against_its_target():
    # a module target takes exactly its realization's coordinates, the unit
    # target a scalar; a violation is reported even where the coefficient
    # vanishes, and never surfaces as an IndexError or a silent zero padding
    from sigmabrauer.stabilizer import MapPresentation

    form = random_form(SIG2, 3, seed=0)
    rep = get_tensor_rep(Partition((2,)), 3)
    v = [Fraction(0)] * rep.dim
    v[rep.restriction_indices(1)[0]] = Fraction(1)
    poly = {((0, j),): c for j, c in enumerate(v) if c}
    g = GLElement([[2]])
    std = Partition((1,))
    assert gamma_linearity_check(form, MapPresentation(0, std, ((poly, (1, 0, 0)),)), 1, g, v) is False
    assert gamma_linearity_check(form, MapPresentation(0, "unit", ((poly, 1),)), 1, g, v) is False
    bad = [(std, w, "3 coordinates") for w in ((1, 0, 0, 0), (1, 0), 1)]
    bad += [("unit", w, "a scalar") for w in ((1,), "x")]
    for target, w, message in bad:
        for coeff in (poly, {}):
            phi = MapPresentation(0, target, ((coeff, w),))
            with pytest.raises(PreconditionError, match=message):
                gamma_linearity_check(form, phi, 1, g, v)


def test_gamma_linearity_checks_the_presentation_against_the_form():
    # a monomial factor or a source type that the form does not have is a
    # precondition violation, not an IndexError from the evaluation
    from sigmabrauer.stabilizer import MapPresentation

    form = random_form(SIG2, 3, seed=0)
    g = GLElement([[2]])
    v = (1, 0, 0, 0, 0, 0)
    assert gamma_linearity_check(form, MapPresentation(0, "unit", (({((0, 5),): 1}, 1),)), 1, g, v)
    bad = [(MapPresentation(0, "unit", (({((0, 99),): 1}, 1),)), "monomial factor"),
           (MapPresentation(0, "unit", (({((1, 0),): 1}, 1),)), "monomial factor"),
           (MapPresentation(0, "unit", (({((-1, 0),): 1}, 1),)), "monomial factor"),
           (MapPresentation(5, "unit", (({((0, 0),): 1}, 1),)), "source type"),
           (MapPresentation(-1, "unit", ()), "source type")]
    for phi, message in bad:
        with pytest.raises(PreconditionError, match=message):
            gamma_linearity_check(form, phi, 1, g, v)


def test_random_block_fixing_rejects_a_negative_block():
    # randrange over a negative start would alias the last rows
    with pytest.raises(ValueError, match="non-negative"):
        random_block_fixing(-1, 3, random.Random(0))
    with pytest.raises(ValueError, match="at least the fixed block"):
        random_block_fixing(4, 3, random.Random(0))
    assert random_block_fixing(0, 3, random.Random(0)).m <= 3


def test_gamma_linearity_with_module_target():
    # phi(1 (x) v) = omega(v) * (1 (x) u): a map into the standard-type module
    rng = random.Random(2)
    form = random_form(SIG3, 4, seed=3)
    rep = get_tensor_rep(Partition((3,)), 4)
    std = get_tensor_rep(Partition((1,)), 4)
    v = [Fraction(0)] * rep.dim
    v[rep.restriction_indices(2)[0]] = Fraction(1)
    v[rep.source_words.index((2, 2, 2))] = Fraction(2)
    poly = {((0, j),): c for j, c in enumerate(v) if c}
    u = [Fraction(1), Fraction(-2), Fraction(0), Fraction(0)]
    from sigmabrauer.stabilizer import MapPresentation

    phi = MapPresentation(0, Partition((1,)), ((poly, tuple(u)),))
    good = random_block_fixing(2, 4, rng)
    assert gamma_linearity_check(form, phi, 2, good, v) is True
    shear = GLElement([[1, 1], [0, 1]])
    assert gamma_linearity_check(form, phi, 2, shear, v) is False
