import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmabrauer.exactla import (
    RatMat,
    _clear,
    inverse,
    kernel_basis_with_free,
    rank,
    solve,
    vstack,
)
from sigmabrauer.combinat import parse_tuple
from sigmabrauer.forms import random_form
from sigmabrauer.modcat import traceless_space

from helpers import (
    inverse_reference,
    kernel_reference,
    rank_reference,
    solve_reference,
    stacked_specializations,
)


def test_rank_fixtures():
    assert rank(RatMat(0, 0, [])) == 0
    assert rank(RatMat.identity(3)) == 3
    assert rank(RatMat(2, 2, [[1, 2], [2, 4]])) == 1


def test_kernel_fixtures():
    assert kernel_basis_with_free(RatMat.identity(2))[0] == []
    assert len(kernel_basis_with_free(RatMat.zeros(2, 3))[0]) == 3
    m = RatMat(1, 3, [[1, 1, 0]])
    ker = kernel_basis_with_free(m)[0]
    assert len(ker) == 2
    for v in ker:
        assert all(x == 0 for x in m.matvec(v))


def test_kernel_free_column_coordinates():
    m = RatMat(2, 4, [[1, 2, 0, 1], [0, 0, 1, 3]])
    basis, free = kernel_basis_with_free(m)
    # any combination of kernel vectors is recovered by reading its free columns
    v = tuple(2 * a - 3 * b for a, b in zip(basis[0], basis[1]))
    coords = [v[c] for c in free]
    assert coords == [2, -3]


def test_clear_is_a_positive_multiple_of_the_rational_step():
    # _clear(row, prow, c) is row - (row[c] / prow[c]) prow made primitive,
    # times a positive factor, and leaves both arguments as they were
    rng = random.Random(17)
    for _ in range(300):
        c = 0
        row, prow = ({c: rng.choice([-6, -3, -2, -1, 1, 2, 4])} for _ in range(2))
        for r in (row, prow):
            for k in rng.sample(range(1, 8), rng.randint(0, 5)):
                r[k] = rng.choice([-5, -2, -1, 1, 3, 7])
        before = (dict(row), dict(prow))
        new = _clear(row, prow, c)
        assert (row, prow) == before
        ratio = Fraction(row[c], prow[c])
        step = {k: row.get(k, 0) - ratio * prow.get(k, 0) for k in row.keys() | prow.keys()}
        step = {k: x for k, x in step.items() if x}
        assert new.keys() == step.keys()
        if new:
            k = min(new)
            scale = new[k] / step[k]
            assert scale > 0 and all(new[j] == scale * x for j, x in step.items())
            assert math.gcd(*new.values()) == 1


def test_rank_agrees_with_rational_elimination():
    rng = random.Random(991)
    for _ in range(100):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        m = RatMat(nr, nc, [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        assert rank(m) == rank_reference(m)


_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@st.composite
def _systems(draw):
    """A rational matrix with some zero rows and scaled copies of rows
    mixed in (0 rows and 0 columns allowed), plus a right-hand side that
    is consistent or not."""
    nc = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=nc, max_size=nc), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rows)))
        if k == len(rows):
            rows.append([Fraction(0)] * nc)
        else:
            c = draw(st.integers(-3, 3))
            rows.append([c * x for x in rows[k]])
    order = draw(st.permutations(range(len(rows))))
    m = RatMat(len(rows), nc, [rows[i] for i in order])
    if draw(st.booleans()):
        x = draw(st.lists(_entries, min_size=nc, max_size=nc))
        rhs = m.matvec(x)
    else:
        rhs = draw(st.lists(_entries, min_size=m.rows, max_size=m.rows))
    return m, rhs


@given(_systems())
@settings(max_examples=300, deadline=None)
def test_core_agrees_with_reference_elimination(system):
    m, rhs = system
    assert kernel_basis_with_free(m) == kernel_reference(m)
    assert rank(m) == rank_reference(m)
    x = solve(m, rhs)
    assert x == solve_reference(m, rhs)
    if x is not None:
        assert list(m.matvec(x)) == list(rhs)
    k = min(m.rows, m.cols)
    square = RatMat(k, k, [row[:k] for row in m.data[:k]])
    expected = inverse_reference(square)
    if expected is None:
        with pytest.raises(ValueError):
            inverse(square)
    else:
        assert inverse(square) == expected


def test_constraint_kernels_agree_with_reference_elimination():
    for text in ("2", "1,1", "2|1"):
        sigma = parse_tuple(text)
        for N in range(2, 5):
            form = random_form(sigma, N, 1)
            for n in range(5):
                m = stacked_specializations(form, n)
                if not m.rows:
                    continue
                assert kernel_basis_with_free(m) == kernel_reference(m), (text, N, n)
                ref_rank = rank_reference(m)
                assert rank(m) == ref_rank
                assert traceless_space(form, n) == N**n - ref_rank


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(nr, nc, seed):
    rng = random.Random(seed)
    m = RatMat(
        nr,
        nc,
        [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nc)]
            for _ in range(nr)
        ],
    )
    ker = kernel_basis_with_free(m)[0]
    assert rank(m) + len(ker) == nc
    for v in ker:
        assert all(x == 0 for x in m.matvec(v))


def test_vstack_and_matmul():
    a = RatMat(1, 2, [[1, 2]])
    b = RatMat(2, 2, [[0, 1], [1, 0]])
    s = vstack([a, b])
    assert s.rows == 3 and s.row(2) == (1, 0)
    assert (b @ b) == RatMat.identity(2)
    with pytest.raises(ValueError):
        vstack([a, RatMat(1, 3, [[1, 2, 3]])])


def test_solve_and_inverse():
    m = RatMat(2, 2, [[2, 1], [1, 1]])
    x = solve(m, (3, 2))
    assert x == (1, 1)
    assert inverse(m) @ m == RatMat.identity(2)
    assert solve(RatMat(2, 1, [[1], [1]]), (1, 2)) is None
    with pytest.raises(ValueError):
        inverse(RatMat(2, 2, [[1, 2], [2, 4]]))


def test_kron_layout():
    a = RatMat(1, 2, [[1, 2]])
    b = RatMat(2, 1, [[3], [4]])
    k = a.kron(b)
    assert k.rows == 2 and k.cols == 2
    assert k.data[0] == (3, 6) and k.data[1] == (4, 8)
