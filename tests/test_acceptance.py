"""Acceptance suite: one test per criterion, one printed verdict line each.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance here is exact equality.
"""

import json
import math
import random
import time

from helpers import plethysm_brute, run_python, traceless_isotypic_brute
from sigmabrauer.brauer import Morphism, hom_basis, random_morphism
from sigmabrauer.combinat import (
    Partition,
    PartitionTuple,
    partitions,
    partitions_upto,
    schur_dim,
    specht_dim,
)
from sigmabrauer.forms import random_form
from sigmabrauer.modcat import (
    ext_dim,
    monomial_cubic_form,
    multiplicity,
    simple_realization_dim,
    socle_check,
    theta_apply,
)
from sigmabrauer.schurweyl import weight_space_basis
from sigmabrauer.characters import sn_character
from sigmabrauer.oracles import _check_coxeter
from sigmabrauer.specht import SpechtModule
from sigmabrauer.stabilizer import (
    GLElement,
    evaluation_presentation,
    gamma_linearity_check,
    germinal_axiom_suite,
    in_gamma,
    permutation_element,
    random_block_fixing,
)
from sigmabrauer.symfun import SchurExpr, plethysm_e, plethysm_h, shift_decompose

FAMILY = [
    PartitionTuple(((2,),)),
    PartitionTuple(((1, 1),)),
    PartitionTuple(((1,),)),
    PartitionTuple(((1,), (1,))),
    PartitionTuple(((3,),)),
    PartitionTuple(((2,), (1,))),
]
SIG2 = PartitionTuple(((2,),))
SIG3 = PartitionTuple(((3,),))


def report(k: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_step1_oracle_equality():
    t0 = time.time()
    checked = 0
    for sigma in FAMILY:
        for n in range(7):
            for m in range(n + 1):
                h = len(hom_basis(sigma, n, m))
                w = len(weight_space_basis(sigma, n, m))
                assert h == w, (sigma, n, m, h, w)
                checked += 1
    elapsed = time.time() - t0
    report(
        1,
        elapsed < 60,
        f"diagram basis equals weight basis on {checked} (sigma,n,m) triples in {elapsed:.1f}s",
    )


def test_criterion_02_classical_brauer_counts():
    counts = [len(hom_basis(SIG2, 2 * k, 0)) for k in range(1, 5)]
    report(2, counts == [1, 3, 15, 105], f"perfect matching counts {counts}")


def test_criterion_03_category_laws():
    rng = random.Random(20250809)
    triples = 0
    for sigma in FAMILY:
        done = 0
        while done < 200:
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
        triples += done
    idents = 0
    while idents < 50:
        sigma = rng.choice(FAMILY)
        n = rng.randint(0, 5)
        m = rng.randint(0, n)
        f = random_morphism(sigma, n, m, rng)
        if f.is_zero():
            continue
        idents += 1
        assert Morphism.identity(sigma, m).compose(f) == f
        assert f.compose(Morphism.identity(sigma, n)) == f
    quads = 0
    while quads < 100:
        sigma = rng.choice(FAMILY)
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
        quads += 1
        assert (fp.tensor(gp)).compose(f.tensor(g)) == (fp.compose(f)).tensor(gp.compose(g))
    report(3, True, f"{triples} associativity triples, 50 identity laws, {quads} interchanges")


def test_criterion_04_theta_functoriality():
    pairs = 0
    tens = 0
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for sigma in [SIG2, PartitionTuple(((1, 1),)), PartitionTuple(((2,), (1,)))]:
            N = rng.randint(2, 3)
            form = random_form(sigma, N, seed=seed * 1000)
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
            pairs += done
            for _ in range(12):
                n1 = rng.randint(0, 2)
                m1 = rng.randint(0, n1)
                n2 = rng.randint(0, 2)
                m2 = rng.randint(0, n2)
                a = random_morphism(sigma, n1, m1, rng)
                b = random_morphism(sigma, n2, m2, rng)
                assert theta_apply(form, a.tensor(b)) == theta_apply(form, a).kron(theta_apply(form, b))
                tens += 1
    report(4, pairs >= 100 and tens >= 100, f"{pairs} compositions and {tens} tensor pairs, 3 seeds")


def test_criterion_05_shift_invariant():
    cases = 0
    for size in range(6):
        for lam in partitions(size):
            for n in range(4):
                dec = shift_decompose(lam, n)
                assert dec.get(lam) == 1
                assert all(nu.size < lam.size for nu in dec if nu != lam)
                for N in range(5):
                    total = sum(m * schur_dim(nu, N) for nu, m in dec.items())
                    assert total == schur_dim(lam, n + N)
                cases += 1
    report(5, True, f"{cases} (lambda,n) shift decompositions with dimension bookkeeping")


def test_criterion_06_multiplicity_support():
    checked = 0
    for sigma in FAMILY:
        for lam in partitions_upto(6):
            assert multiplicity(sigma, lam, lam) == 1
            checked += 1
            for mu in partitions_upto(6):
                if mu != lam and mu.size >= lam.size:
                    assert multiplicity(sigma, lam, mu) == 0
                    checked += 1
    report(6, True, f"{checked} multiplicity constraints over the sigma family")


def test_criterion_07_ext_and_plethysm_oracle():
    t0 = time.time()
    for sigma in FAMILY:
        for lam in partitions_upto(5):
            for mu in partitions_upto(5):
                assert ext_dim(sigma, 0, lam, mu) == (1 if lam == mu else 0)
    for mu in partitions_upto(6):
        assert ext_dim(SIG2, 1, (), mu) == (1 if mu == Partition((2,)) else 0)
        assert ext_dim(SIG2, 2, (), mu) == (1 if mu == Partition((3, 1)) else 0)
    swept = 0
    for size in range(1, 4):
        for shape in partitions(size):
            inner = SchurExpr.schur(shape)
            for a in range(4):
                if a * size > 9:
                    continue
                assert plethysm_h(a, inner) == plethysm_brute(a, inner, "h")
                assert plethysm_e(a, inner) == plethysm_brute(a, inner, "e")
                swept += 2
    elapsed = time.time() - t0
    report(7, elapsed < 120, f"Ext fixtures and {swept} plethysm oracle agreements in {elapsed:.1f}s")


def test_criterion_08_weyl_construction():
    t0 = time.time()
    fixtures = {
        (5, Partition((2,))): 14,
        (5, Partition((1, 1))): 10,
        (5, Partition((1, 1, 1))): 10,
    }
    for N in (4, 5, 6):
        form = random_form(SIG2, N, seed=20250809)
        for lam in partitions_upto(3):
            eng = simple_realization_dim(form, lam)
            bru = traceless_isotypic_brute(form, lam)
            assert eng == bru, (N, lam, eng, bru)
            if (N, lam) in fixtures:
                assert eng == fixtures[(N, lam)], (N, lam, eng)
        for lam in partitions_upto(3):
            assert socle_check(form, lam) is True, (N, lam)
    elapsed = time.time() - t0
    report(8, elapsed < 300, f"engine equals kernel oracle and socle checks at N=4,5,6 in {elapsed:.0f}s")


def test_criterion_09_specht_layer():
    for n in range(7):
        for shape in partitions(n):
            m = SpechtModule(shape, tuple(range(1, n + 1)))
            assert m.dim == specht_dim(shape)
            if n >= 2:
                _check_coxeter(m.generator_matrices())
    from helpers import conjugacy_class_size

    for n in range(1, 7):
        for lam in partitions(n):
            for mu in partitions(n):
                total = sum(
                    conjugacy_class_size(c) * sn_character(lam, c) * sn_character(mu, c)
                    for c in partitions(n)
                )
                assert total == (math.factorial(n) if lam == mu else 0)
    report(9, True, "Specht dimensions, Coxeter relations, character orthogonality up to n=6")


def test_criterion_10_germinal_axioms_and_linearity():
    results = []
    for M, seed in ((4, 11), (5, 77)):
        form = random_form(SIG3, M, seed=seed)
        reports = germinal_axiom_suite(form, list(range(1, M + 1)), samples=100, seed=seed)
        for r in reports:
            assert r["samples"] >= 100 and r["passes"] == r["samples"] and not r["failures"], (M, r)
        results.append((M, [r["samples"] for r in reports]))
    mono = monomial_cubic_form(4)
    cyc = permutation_element({1: 2, 2: 3, 3: 1})
    swap = permutation_element({1: 2, 2: 1})
    reports = germinal_axiom_suite(mono, [1, 2, 3, 4], samples=100, seed=5, extra_members=[cyc, swap])
    for r in reports:
        assert r["samples"] >= 100 and r["passes"] == r["samples"] and not r["failures"], r

    from sigmabrauer.schurweyl import get_tensor_rep
    from fractions import Fraction

    form = random_form(SIG3, 4, seed=3)
    rep = get_tensor_rep(Partition((3,)), 4)
    idx = rep.restriction_indices(2)
    v = [Fraction(0)] * rep.dim
    v[idx[0]] = Fraction(2)
    v[idx[-1]] = Fraction(-1)
    rng = random.Random(0)
    g = random_block_fixing(2, 4, rng)
    assert gamma_linearity_check(form, evaluation_presentation(form, 0, v), 2, g, v) is True
    idx3 = rep.restriction_indices(3)
    v2 = [Fraction(0)] * rep.dim
    v2[idx3[0]] = Fraction(1)
    v2[idx3[2]] = Fraction(3)
    assert gamma_linearity_check(mono, evaluation_presentation(mono, 0, v2), 3, cyc, v2) is True
    vneg = [Fraction(0)] * rep.dim
    vneg[rep.source_words.index((2, 2, 2))] = Fraction(1)
    shear = GLElement([[1, 1], [0, 1]])
    assert not in_gamma(form, 2, shear)
    assert gamma_linearity_check(form, evaluation_presentation(form, 0, vneg), 2, shear, vneg) is False
    report(10, True, f"axiom suites clean at M=4,5 and the monomial form; linearity fixtures hold")


def test_criterion_11_cli_determinism():
    jobs = [
        ("homdim", "--sigma", "2", "--n", "4", "--m", "0"),
        ("ext", "--sigma", "2", "--i", "0", "--lambda", "2,1", "--mu", "2,1"),
        ("ext", "--sigma", "2", "--i", "2", "--lambda", "0", "--mu", "3,1"),
        ("shift", "--lambda", "2", "--n", "1"),
        ("mult", "--sigma", "2", "--lambda", "2,2", "--mu", "2"),
        ("traceless", "--sigma", "2", "--rank", "4", "--n", "2", "--seed", "1"),
        ("traceless", "--sigma", "2", "--rank", "4", "--n", "2", "--lambda", "1,1", "--seed", "1"),
        ("stab", "check", "--sigma", "3", "--rank", "3", "--seed", "2", "--samples", "10"),
        ("oracle", "step1", "--sigma", "2|1", "--max", "4"),
    ]
    fixtures = {
        0: {"dim": 3},
        1: {"dim": 1},
        3: {"0": 1, "1": 1, "2": 1},
    }
    for k, job in enumerate(jobs):
        runs = []
        for _ in range(2):
            proc = run_python("-m", "sigmabrauer.cli", *job)
            assert proc.returncode == 0, (job, proc.stderr)
            runs.append(proc.stdout)
        assert runs[0] == runs[1], job
        if k in fixtures:
            assert json.loads(runs[0]) == fixtures[k], (job, runs[0])
    report(11, True, f"{len(jobs)} documented jobs byte-identical across two runs")
