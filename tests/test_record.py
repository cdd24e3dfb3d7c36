"""The field contract of the package's records (``freeprod.record``): repr
text, equality and hashing over the declared fields of one class, frozen
fields, keyword construction and defaults.  The expression nodes are
covered in ``test_freedim.test_text_identifies_tree``."""

from fractions import Fraction

import pytest

from freeprod.freedim import NormalForm, RewriteStep, TableReport
from freeprod.freeword import CommLetter, HaarLetter, TrigLetter
from freeprod.matmodel import CheckReport
from freeprod.ncpart import LemmaReport, NCPartition
from freeprod.trigalg import TrigPoly

# (class, field values by keyword in constructor order, the values of an
# unequal instance, repr text, frozen)
CASES = [
    (NormalForm, dict(depth=2, core="LF", param=Fraction(7, 4)),
     dict(depth=1, core="LF", param=Fraction(7, 4)),
     "NormalForm(depth=2, core='LF', param=Fraction(7, 4))", True),
    (RewriteStep, dict(rule="R1", description="desc", path=(0, 1), before="C * C",
                       after="M2(LF(1))", fdim_before=Fraction(0), fdim_after=Fraction(0)),
     dict(rule="R1", description="desc", path=(0,), before="C * C",
          after="M2(LF(1))", fdim_before=Fraction(0), fdim_after=Fraction(0)),
     "RewriteStep(rule='R1', description='desc', path=(0, 1), before='C * C', "
     "after='M2(LF(1))', fdim_before=Fraction(0, 1), fdim_after=Fraction(0, 1))", False),
    (TableReport, dict(name="t", rows=[{"a": 1}], failures=[]),
     dict(name="t", rows=[{"a": 1}], failures=[{"row": 0}]),
     "TableReport(name='t', rows=[{'a': 1}], failures=[])", False),
    (TrigLetter, dict(leg="f", poly=TrigPoly.cos(2) + 1), dict(leg="f", poly=TrigPoly.cos(2)),
     "TrigLetter(leg='f', poly=TrigPoly(1 + c[2]))", True),
    (HaarLetter, dict(leg="u", power=-2), dict(leg="v", power=-2),
     "HaarLetter(leg='u', power=-2)", True),
    (CommLetter, dict(leg="A", vec=(Fraction(1, 2), Fraction(-1, 2))),
     dict(leg="A", vec=(Fraction(-1, 2), Fraction(1, 2))),
     "CommLetter(leg='A', vec=(Fraction(1, 2), Fraction(-1, 2)))", True),
    (NCPartition, dict(n=3, blocks=((1, 3), (2,))), dict(n=3, blocks=((1,), (2,), (3,))),
     "NCPartition(n=3, blocks=((1, 3), (2,)))", True),
    (LemmaReport, dict(n=4, partitions_checked=3, intervals_checked=2, passed=False,
                       counterexample={"k": 1}),
     dict(n=4, partitions_checked=3, intervals_checked=2, passed=True, counterexample=None),
     "LemmaReport(n=4, partitions_checked=3, intervals_checked=2, passed=False, "
     "counterexample={'k': 1})", False),
    (CheckReport, dict(harness="PQ", max_len=3, words_checked=10, failures=[{"w": "x"}]),
     dict(harness="PQ", max_len=3, words_checked=11, failures=[{"w": "x"}]),
     "CheckReport(harness='PQ', max_len=3, words_checked=10, failures=[{'w': 'x'}])", False),
]

LETTERS = (TrigLetter, HaarLetter, CommLetter)

records = pytest.mark.parametrize("cls, fields, other, text, frozen", CASES,
                                  ids=[case[0].__name__ for case in CASES])


@records
def test_repr_and_construction(cls, fields, other, text, frozen):
    x = cls(**fields)
    assert repr(x) == text
    assert repr(cls(*fields.values())) == text
    assert [getattr(x, name) for name in fields] == list(fields.values())


@records
def test_equality_over_the_fields_of_one_class(cls, fields, other, text, frozen):
    x, y = cls(**fields), cls(*fields.values())
    # a letter is made once per value; every other record is a new object
    assert (x is y) if cls in LETTERS else (x is not y)
    assert x == y and not x != y
    assert x != cls(**other) and not x == cls(**other)
    twin = type(cls.__name__, (cls,), {})(**fields)  # same fields, another class
    assert x != twin and twin != x and not x == twin
    assert x.__eq__(twin) is NotImplemented
    assert x != tuple(fields.values())


@records
def test_hash_and_assignment(cls, fields, other, text, frozen):
    x = cls(**fields)
    name, value = next(iter(other.items()))
    if frozen:
        assert hash(x) == hash(cls(**fields))
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(x, field, value)
            with pytest.raises(AttributeError):
                delattr(x, field)
        assert x == cls(**fields)
    else:
        with pytest.raises(TypeError):
            hash(x)
        for field, value in other.items():
            setattr(x, field, value)
        assert x == cls(**other)


def test_defaults():
    assert NormalForm(0, "C") == NormalForm(depth=0, core="C", param=None)
    assert NormalForm(0, "C").param is None
    assert LemmaReport(4, 3, 2, True).counterexample is None
    a, b = CheckReport("PQ", 3, 10), CheckReport(harness="PQ", max_len=3, words_checked=10)
    assert a.failures == [] and a.passed and a == b
    assert a.failures is not b.failures  # a fresh list per report
    a.failures.append({"w": "x"})
    assert b.failures == [] and not a.passed


def test_letters_of_two_legs_never_equal():
    """A letter equals only a letter of its own class: a trig letter whose
    polynomial equals the int 1 is not the Haar letter of power 1, and the
    intern table keeps them apart."""
    trig, haar = TrigLetter("f", TrigPoly.const(1)), HaarLetter("f", 1)
    assert trig.poly == haar.power and trig != haar and haar != trig
    assert {trig: 0}.get(haar) is None
