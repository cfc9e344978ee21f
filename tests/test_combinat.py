import ast
import math
import pathlib
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SRC
from sigmabrauer.combinat import (
    Magnitude,
    Partition,
    PartitionTuple,
    exact,
    format_partition,
    format_tuple,
    magnitude,
    parse_partition,
    parse_tuple,
    partitions,
    partitions_upto,
    schur_dim,
    specht_dim,
    subpartitions,
)

partition_strategy = st.lists(st.integers(1, 6), min_size=0, max_size=5).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition(()).size == 0
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition((3, 1)).conjugate().conjugate() == Partition((3, 1))


def test_specht_dim_fixtures():
    assert specht_dim(Partition((5,))) == 1
    assert specht_dim(Partition((1, 1, 1))) == 1
    assert specht_dim(Partition((2, 1))) == 2


def test_specht_dim_conjugate_symmetry():
    for n in range(8):
        for p in partitions(n):
            assert specht_dim(p) == specht_dim(p.conjugate())


def test_specht_dim_squares_sum_to_factorial():
    for n in range(8):
        assert sum(specht_dim(p) ** 2 for p in partitions(n)) == math.factorial(n)


def test_schur_dim_fixtures():
    assert schur_dim(Partition((1, 1)), 3) == 3
    assert schur_dim(Partition((2,)), 3) == 6
    assert schur_dim(Partition((2, 1)), 3) == 8
    assert schur_dim(Partition((2, 1)), 1) == 0
    assert schur_dim(Partition(()), 0) == 1


def test_schur_dim_is_polynomial_of_degree_size():
    # the (|p|+1)-st finite difference of n -> dim vanishes
    for p in [Partition((2,)), Partition((2, 1)), Partition((3, 1)), Partition((2, 2))]:
        d = p.size
        vals = [schur_dim(p, n) for n in range(d + 3)]
        for _ in range(d + 1):
            vals = [b - a for a, b in zip(vals, vals[1:])]
        assert all(v == 0 for v in vals)
        # and the d-th difference is the nonzero constant d!/hooks
        vals = [schur_dim(p, n) for n in range(d + 3)]
        for _ in range(d):
            vals = [b - a for a, b in zip(vals, vals[1:])]
        assert len(set(vals)) == 1 and vals[0] != 0


def test_magnitude_fixtures():
    assert magnitude(PartitionTuple(())) == Magnitude(())
    assert magnitude(PartitionTuple(((2,), (1,), (1,)))) == Magnitude((0, 2, 1))
    # regression: the singleton [(2)] precedes [(1)] in the lexicographic order
    m1 = magnitude(PartitionTuple(((1,),)))
    m2 = magnitude(PartitionTuple(((2,),)))
    assert not (m1 < m2)
    assert m2 < m1


@given(st.lists(partition_strategy, max_size=4), st.lists(partition_strategy, max_size=4))
@settings(max_examples=100, deadline=None)
def test_magnitude_total_order(a, b):
    ma, mb = magnitude(PartitionTuple(a)), magnitude(PartitionTuple(b))
    assert (ma < mb) + (mb < ma) + (ma == mb) == 1


def test_text_grammar_fixtures():
    assert format_partition(Partition(())) == "0"
    assert parse_partition("") == Partition(())
    assert parse_partition("0") == Partition(())
    assert parse_partition("2,1") == Partition((2, 1))
    assert format_tuple(parse_tuple("2|1,1")) == "2|1,1"
    assert parse_tuple("") == PartitionTuple(())
    assert parse_tuple("0").pure is False
    assert parse_tuple("2|1").pure is True
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a")


@given(partition_strategy)
@settings(max_examples=100, deadline=None)
def test_partition_text_round_trip(p):
    assert parse_partition(format_partition(p)) == p


@given(st.lists(partition_strategy, min_size=0, max_size=4))
@settings(max_examples=100, deadline=None)
def test_tuple_text_round_trip(entries):
    t = PartitionTuple(entries)
    if any(len(p) == 0 for p in t) and len(t) > 0:
        # tuples containing the empty partition round-trip too ("0" entries)
        pass
    assert parse_tuple(format_tuple(t)) == t or (len(t) == 0)


def test_partition_enumeration():
    assert [tuple(p) for p in partitions(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions(6)) == 11
    assert len(partitions_upto(6)) == 1 + 1 + 2 + 3 + 5 + 7 + 11


def test_subpartitions():
    subs = subpartitions(Partition((2, 1)))
    assert set(subs) == {
        Partition(()),
        Partition((1,)),
        Partition((2,)),
        Partition((1, 1)),
        Partition((2, 1)),
    }


# ---------------------------------------------------------------------------
# exact quotients

# every kind of single argument Fraction() reads, integral or not
_VALUES = [3, True, Fraction(4, 2), "1/2", 0.5, Decimal("1.25")]


def _same_as_fractions(stored, values):
    """Each stored value equals and hashes like Fraction(value), is an int
    exactly when integral, and is never a float."""
    for x, value in zip(stored, values, strict=True):
        f = Fraction(value)
        assert x == f and hash(x) == hash(f), (x, value)
        assert type(x) is (int if f.denominator == 1 else Fraction), (x, value)


def test_exact_keeps_integral_values_int():
    _same_as_fractions([exact(x) for x in _VALUES], _VALUES)
    _same_as_fractions([exact(-7), exact("4/2"), exact(Decimal(3)), exact(False)], [-7, 2, 3, 0])
    assert exact(2) == 2 and type(exact(Fraction(4, 2))) is int
    # num / den, the sign on the numerator
    quotients = [exact(6, -3), exact(7, -2), exact("1/2", 3), exact(Fraction(3, 2), Fraction(1, 2))]
    _same_as_fractions(quotients, [-2, Fraction(-7, 2), Fraction(1, 6), 3])
    with pytest.raises(ZeroDivisionError):
        exact(1, 0)
    with pytest.raises(ZeroDivisionError):
        exact("1/2", 0)
    with pytest.raises(ValueError):
        exact("one half")
    with pytest.raises(TypeError):
        exact(None)


def test_stored_values_equal_the_fractions_they_replace():
    from sigmabrauer.forms import FormPoint
    from sigmabrauer.specht import SpechtVector, get_specht_module
    from sigmabrauer.symfun import SchurExpr

    form = FormPoint(PartitionTuple(((1,),)), len(_VALUES), [_VALUES])
    _same_as_fractions(form.comps[0], _VALUES)
    expr = SchurExpr({(k,): x for k, x in enumerate(_VALUES, 1)})
    _same_as_fractions([expr.coefficient((k,)) for k in range(1, len(_VALUES) + 1)], _VALUES)
    _same_as_fractions(expr.scale("1/2").terms.values(), [Fraction(x) / 2 for x in _VALUES])
    module = get_specht_module(Partition((3, 1, 1)), (1, 2, 3, 4, 5))
    _same_as_fractions(SpechtVector(module, _VALUES).coords, _VALUES)


def test_no_true_division_in_the_package():
    # int / int is a float: exact quotients go through `exact` or Fraction(num, den)
    found = []
    for path in sorted(pathlib.Path(SRC, "sigmabrauer").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
