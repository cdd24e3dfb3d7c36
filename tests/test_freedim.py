"""Rewrite engine: parsing, free-dimension conservation, the golden
normal-form corpus, confluence under randomized rule priority, and
termination on random fragment expressions."""

import hashlib
import json
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from freeprod import expr, freedim
from freeprod.expr import (
    _S_SUM,
    _ATOMS,
    _K_FREE,
    _check_depth,
    _check_size,
    _checked_lf,
    _flatten,
    _tokenize,
)
from freeprod.freedim import (
    MAX_EXPR_DEPTH,
    MAX_EXPR_SIZE,
    AtomC,
    AtomLF,
    AtomLZ,
    AtomR,
    DivergenceError,
    EXAMPLE_61_MAX_N,
    Expr,
    FreeOf,
    Mat2Of,
    NormalForm,
    Normalizer,
    NotReducibleError,
    ParseError,
    SumOf,
    UnsupportedFragmentError,
    expr_text,
    _RULES,
    _candidate,
    _factor_index,
    _pick,
    fdim,
    lf,
    matpow,
    normalize,
    parse,
    pow2sum,
    example_61_sequence,
    prop_62_table,
)


# -- parser ----------------------------------------------------------------------


def test_parse_examples():
    assert parse("C^2 * C^2") == FreeOf([SumOf(AtomC(), AtomC()),
                                         SumOf(AtomC(), AtomC())])
    assert parse("M2(LF(3/2))") == Mat2Of(AtomLF(Fraction(3, 2)))
    assert parse("(LF(2) (+) C) * M2(R)") == FreeOf([
        SumOf(AtomLF(Fraction(2)), AtomC()), Mat2Of(AtomR())])


def test_parse_sugar():
    assert parse("C^4") == SumOf(SumOf(AtomC(), AtomC()),
                                 SumOf(AtomC(), AtomC()))
    assert parse("M4(LZ)") == Mat2Of(Mat2Of(AtomLZ()))
    assert parse("LZ^1") == AtomLZ()


def test_parse_flattens_free_products():
    e = parse("C * LZ * R")
    assert isinstance(e, FreeOf) and len(e.factors) == 3


def test_parse_rationals():
    assert parse("LF(7/4)") == AtomLF(Fraction(7, 4))
    assert parse("LF(0)") == AtomLF(Fraction(0))


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse("C *")
    with pytest.raises(ParseError):
        parse("C @ C")
    with pytest.raises(ParseError):
        parse("LF(3")
    with pytest.raises(ParseError):
        parse("Q * C")


# Digits other than ASCII 0-9 are not integers: str.isdigit accepts a
# superscript that int() rejects, and int() reads an Arabic-Indic digit.
@pytest.mark.parametrize("text,pos", [("LF(²)", 3), ("C^²", 2), ("M²(R)", 1), ("LF(٣)", 3)])
def test_parse_rejects_non_ascii_digits_at_their_position(text, pos):
    with pytest.raises(ParseError, match=r"unexpected character") as exc:
        parse(text)
    assert exc.value.pos == pos


# An integer longer than ``int`` reads (4300 digits by default) is refused
# at its token, in each of the three places the grammar has one.
@pytest.mark.parametrize("prefix,suffix,pos", [
    ("LF(", ")", 3), ("LF(1/", ")", 5), ("R * C^", "", 6), ("M", "(R)", 0)])
def test_parse_refuses_integers_longer_than_int_reads(prefix, suffix, pos):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter's int reads integers of any length")
    for digits in (limit + 1, 2 * limit):
        with pytest.raises(ParseError, match=f"^integer of {digits} digits is longer than "
                                             f"the limit of {limit} ") as exc:
            parse(prefix + "2" * digits + suffix)
        assert exc.value.pos == pos
    # at the limit int reads it: an LF numerator of any size is taken, and
    # the fragment guards refuse the rest
    text = prefix + "2" * limit + suffix
    if prefix == "LF(":
        assert parse(text) == AtomLF(Fraction(int("2" * limit)))
    else:
        with pytest.raises(UnsupportedFragmentError):
            parse(text)


# Fragment errors write an integer of more than MAX_SHOWN_DIGITS (40) digits
# as its digit count, so each message is one short line; shorter integers
# are written in full, as before.
@pytest.mark.parametrize("text,message", [
    ("C^" + "1" * 4300, "expression expands to <4300-digit integer> nodes, more than 8192"),
    ("C^" + "9" * 4300, "expression expands to <4301-digit integer> nodes, more than 8192"),
    ("LF(1/" + "3" * 4300 + ")",
     "LF parameter must be 0 or >= 1, got 1/<4300-digit integer>"),
    ("LF(" + "1" * 4000 + "/" + "3" * 4001 + ")",
     "LF parameter must be 0 or >= 1, got <4000-digit integer>/<4001-digit integer>"),
    ("LF(1/" + "3" * 41 + ")", "LF parameter must be 0 or >= 1, got 1/<41-digit integer>"),
    ("LF(1/" + "3" * 40 + ")", "LF parameter must be 0 or >= 1, got 1/" + "3" * 40),
    ("C^" + "1" * 20, "expression expands to 22222222222222222221 nodes, more than 8192"),
    ("C^8192", "expression expands to 16383 nodes, more than 8192"),
    ("LF(2/4)", "LF parameter must be 0 or >= 1, got 1/2"),
], ids=["pow-4300", "pow-4301", "lf-den-4300", "lf-4000-4001", "lf-den-41", "lf-den-40",
        "pow-20", "pow-8192", "lf-half"])
def test_fragment_errors_write_long_integers_as_digit_counts(text, message):
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4300:
        pytest.skip("this interpreter's int reads fewer than 4300 digits")
    with pytest.raises(UnsupportedFragmentError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("t,message", [
    (Fraction(-7, 2), "got -7/2"), (-3, "got -3"),
    (Fraction(-10 ** 45), "got -<46-digit integer>"),
    (Fraction(1, 10 ** 45), "got 1/<46-digit integer>")],
    ids=["neg-half", "neg-int", "neg-46", "den-46"])
def test_lf_errors_write_long_integers_as_digit_counts(t, message):
    with pytest.raises(UnsupportedFragmentError, match=f"^LF parameter must be 0 or >= 1, "
                                                       f"{re.escape(message)}$"):
        lf(t)


def test_fragment_errors():
    with pytest.raises(UnsupportedFragmentError):
        parse("C^3")  # not a power of two
    with pytest.raises(UnsupportedFragmentError):
        parse("M3(C)")
    with pytest.raises(UnsupportedFragmentError):
        parse("LF(1/2)")  # parameter in (0, 1)


# Expanded sizes around MAX_EXPR_SIZE (8192): pow, sum, Mk and a spliced-in
# parenthesized product each carry their share of the count.
PARSE_SIZES = [
    ("C^4096", 8191),
    ("M2(C^4096)", 8192),
    ("(C^2048 * C^1024) * C^1024 * C * C", 8192),
    ("C^4096 (+) C", None),
    ("M4(C^4096)", None),
    ("(C^2048 * C^1024) * C^1024 * C * C * C", None),
    ("C^4096 * C^2", None),
    ("C^1180591620717411303424", None),
]


@pytest.mark.parametrize("text,size", PARSE_SIZES)
def test_parse_bounds_expanded_size(text, size):
    if size is None:
        with pytest.raises(UnsupportedFragmentError, match="nodes"):
            parse(text)
    else:
        assert size <= MAX_EXPR_SIZE
        assert parse(text)._size == size


def test_pow2sum_refuses_oversized_sums_before_building():
    """``pow2sum`` checks the size rule of ^k itself, so a direct call is
    bounded as ``parse`` is: a sum of more than MAX_EXPR_SIZE nodes is
    refused, with the parser's message, before any node or text is built."""
    assert pow2sum(AtomC(), 4096)._size == 8191
    assert pow2sum(SumOf(AtomC(), AtomR()), 2048)._size == 8191
    for e, k, size in [(AtomC(), 8192, 16383), (AtomC(), 2 ** 20, 2 ** 21 - 1),
                       (AtomC(), 2 ** 30, 2 ** 31 - 1), (SumOf(AtomC(), AtomR()), 4096, 16383),
                       (AtomC(), 3 * 2 ** 20, 3 * 2 ** 21 - 1)]:
        start = time.perf_counter()
        with pytest.raises(UnsupportedFragmentError,
                           match=rf"^expression expands to {size} nodes, more than 8192$"):
            pow2sum(e, k)
        assert time.perf_counter() - start < 0.1
    with pytest.raises(UnsupportedFragmentError) as direct:
        pow2sum(AtomC(), 8192)
    with pytest.raises(UnsupportedFragmentError) as parsed:
        parse("C^8192")
    assert str(direct.value) == str(parsed.value)


def test_matpow_refuses_deep_towers_before_building():
    """``matpow`` checks the nesting rule of Mk itself, after the power of
    two, so a direct call is bounded as ``parse`` is: a tower of more than
    MAX_EXPR_DEPTH levels of M2 is refused, with the parser's message,
    before any level is built."""
    assert matpow(AtomC(), 2 ** MAX_EXPR_DEPTH)._size == MAX_EXPR_DEPTH + 1
    with pytest.raises(UnsupportedFragmentError) as parsed:
        parse(f"M{2 ** (MAX_EXPR_DEPTH + 1)}(C)")
    for k in (2 ** (MAX_EXPR_DEPTH + 1), 2 ** 20000):
        start = time.perf_counter()
        with pytest.raises(UnsupportedFragmentError) as direct:
            matpow(AtomC(), k)
        assert time.perf_counter() - start < 0.1
        assert str(direct.value) == str(parsed.value) == (
            f"expression nests deeper than {MAX_EXPR_DEPTH} levels")
    with pytest.raises(UnsupportedFragmentError, match=r"^matrix size must be a power of two"):
        matpow(AtomC(), 3 * 2 ** 200)


@pytest.mark.parametrize("k,shown", [(3 * 2 ** 20000, "<6022-digit integer>"),
                                     (-3 * 2 ** 20000, "-<6022-digit integer>")],
                         ids=["positive", "negative"])
def test_matpow_names_a_long_size_by_its_digit_count(k, shown):
    """A refused k longer than ``str`` writes is named by its digit count,
    as the other fragment errors name a long integer, so the error is the
    fragment error and not the interpreter's."""
    with pytest.raises(UnsupportedFragmentError) as err:
        matpow(AtomC(), k)
    assert str(err.value) == f"matrix size must be a power of two >= 2, got {shown}"


@pytest.mark.parametrize("k,shown", [(3, "3"), (-10 ** 5000, "-<5001-digit integer>")],
                         ids=["short", "long"])
def test_pow2sum_names_a_long_power_by_its_digit_count(k, shown):
    """A k that is no power of two is named as ``matpow`` names one, so a k
    longer than ``str`` writes gives the fragment error and not the
    interpreter's."""
    with pytest.raises(UnsupportedFragmentError) as err:
        pow2sum(AtomC(), k)
    assert str(err.value) == f"sum power must be a power of two, got {shown}"


@pytest.mark.parametrize("factors", [[], [AtomC()]], ids=["none", "one"])
def test_free_product_needs_two_factors(factors):
    with pytest.raises(ValueError, match=r"^free product needs at least two factors$"):
        FreeOf(factors)


# A ^k that breaks two limits reports the size first, then the nesting, then
# the power.  M(2^99)(C) is 99 levels deep, and ^k adds log2 k levels
# (rounded down for a k that is no power of two).
@pytest.mark.parametrize("text,message", [
    (f"C^{2 ** 101}", f"expression expands to {2 ** 102 - 1} nodes, more than 8192"),
    (f"C^{2 ** 101 + 1}", f"expression expands to {2 ** 102 + 1} nodes, more than 8192"),
    (f"M{2 ** 99}(C)^5", "expression nests deeper than 100 levels"),
    (f"M{2 ** 99}(C)^4", "expression nests deeper than 100 levels"),
    (f"M{2 ** 99}(C)^3", "sum power must be a power of two, got 3"),
    (f"M{2 ** 99}(C)^2", None),
])
def test_sum_power_errors_in_order(text, message):
    if message is None:
        assert parse(text)._size == 201
    else:
        with pytest.raises(UnsupportedFragmentError, match=rf"^{re.escape(message)}$"):
            parse(text)


def parens(n, inner="C"):
    return "(" * n + inner + ")" * n


# Around MAX_EXPR_DEPTH: tree height (one level per sum, product and M2,
# log2 k per Mk and ^k) and nesting of groups (one level per parenthesis,
# log2 k per Mk).
D = MAX_EXPR_DEPTH
PARSE_DEPTHS = {
    "parens": (parens(D), True),
    "parens+1": (parens(D + 1), False),
    "Mk": (f"M{2 ** D}(C)", True),
    "Mk+1": (f"M{2 ** (D + 1)}(C)", False),
    "M2-nest": ("M2(" * D + "C" + ")" * D, True),
    "M2-nest+1": ("M2(" * (D + 1) + "C" + ")" * (D + 1), False),
    "sum-chain": (" (+) ".join(["C"] * (D + 1)), True),
    "sum-chain+1": (" (+) ".join(["C"] * (D + 2)), False),
    "Mk-pow": (f"M{2 ** (D - 4)}(C^16)", True),
    "Mk-pow+1": (f"M{2 ** (D - 3)}(C^16)", False),
    "Mk-product": (f"M{2 ** (D - 1)}(C) * R", True),
    "Mk-product+1": (f"M{2 ** (D - 1)}(C * R) * R", False),
    "M<2^600>": (f"M{2 ** 600}(C) * R", False),
    "400-parens": (parens(400), False),
    "400-M1": ("M1(" * 400 + "C" + ")" * 400, False),
}


@pytest.mark.parametrize("text,accepted", PARSE_DEPTHS.values(), ids=PARSE_DEPTHS)
def test_parse_bounds_nesting_depth(text, accepted):
    if accepted:
        parse(text)
    else:
        with pytest.raises(UnsupportedFragmentError, match="nests deeper"):
            parse(text)


# The deepest accepted expressions of four shapes.
DEEPEST = {
    "parens": parens(D, "C * R"),
    "Mk": f"M{2 ** (D - 1)}(C) * R",
    "M2-nest": "M2(" * (D - 1) + "C" + ")" * (D - 1) + " * R",
    "sum-chain": "R * (" + " (+) ".join(["C"] * D) + ")",
}


@pytest.mark.parametrize("text", DEEPEST.values(), ids=DEEPEST)
def test_deepest_accepted_expressions_run(text):
    """Parse, print, measure and normalize, deterministic and seeded, all
    within the default recursion limit."""
    assert sys.getrecursionlimit() == 1000
    e = parse(text)
    assert parse(expr_text(e)) == e
    assert e._size > 1
    base, _ = normalize(e)
    assert base.fdim() == fdim(e)
    for seed in (0, 1):
        nf, steps = normalize(e, seed=seed)
        assert nf == base
        json.dumps([s.to_json() for s in steps])


@pytest.mark.parametrize("value", ["R * R", None, 3, (AtomC(),)])
def test_measures_refuse_non_expressions(value):
    for measure in (expr_text, fdim):
        with pytest.raises(TypeError, match="not an expression"):
            measure(value)


@pytest.mark.parametrize("value", ["R * R", None, 3, (AtomC(),)])
def test_normalize_refuses_non_expressions(value):
    """An engine takes only a tree, and refuses anything else before it
    starts, with the measures' error; the module ``normalize`` parses text
    first."""
    engine = Normalizer()
    engine.normalize(parse("LZ * R"))
    logged = list(engine.steps)
    with pytest.raises(TypeError, match="^not an expression: " + re.escape(repr(value)) + "$"):
        engine.normalize(value)
    assert engine.steps == logged
    if not isinstance(value, str):
        with pytest.raises(TypeError, match="not an expression"):
            normalize(value)


def test_expr_text_roundtrip():
    for text in ["C^2 * C^2", "M2(LF(3/2))", "(LF(2) (+) C) * M2(R)",
                 "LZ * M4(LF(2)) * R", "C (+) (C (+) C)"]:
        e = parse(text)
        assert parse(expr_text(e)) == e


# -- free dimension ----------------------------------------------------------------


def test_fdim_atoms():
    assert fdim(AtomC()) == 0
    assert fdim(AtomLZ()) == 1
    assert fdim(AtomR()) == 1
    assert fdim(AtomLF(Fraction(7, 2))) == Fraction(7, 2)


def test_fdim_examples():
    # C^2 has 1/2; C^2 * C^2 has 1 = fdim(M2(LZ))
    assert fdim(parse("C^2")) == Fraction(1, 2)
    assert fdim(parse("C^2 * C^2")) == 1
    assert fdim(parse("M2(LZ)")) == 1
    # R * R has 2 = fdim(M2(LF(5)))
    assert fdim(parse("R * R")) == 2
    assert fdim(parse("M2(LF(5))")) == 2
    # M2(C) has 3/4; M2 * M2 has 3/2 = fdim(M2(LF(3)))
    assert fdim(parse("M2(C)")) == Fraction(3, 4)
    assert fdim(parse("M2(C) * M2(C)")) == Fraction(3, 2)
    assert fdim(parse("M2(LF(3))")) == Fraction(3, 2)


# -- golden corpus -------------------------------------------------------------------


GOLDEN = [
    ("C^2 * C^2", "M2(LF(1))", None),
    ("M2(C) * C^2", "M2(LF(2))", Fraction(5, 4)),
    ("M2(C) * M2(C)", "M2(LF(3))", Fraction(3, 2)),
    ("R * R", "M2(LF(5))", Fraction(2)),
    ("R * LZ", "LF(2)", None),
    ("C^4 * C^4", "M2(LF(3))", Fraction(3, 2)),
    ("LZ * M2(LF(2))", "M2(LF(6))", Fraction(9, 4)),
    ("LZ * LZ", "LF(2)", None),
]


@pytest.mark.parametrize("text,want,alias", GOLDEN)
def test_golden_normal_forms(text, want, alias):
    nf, steps = normalize(text)
    assert nf.text() == want
    assert nf.alias() == alias
    assert steps  # every golden case needs at least one rewrite


def test_cor_56_families():
    for k in range(0, 6):
        for l in range(0, 6):
            nf, _ = normalize(f"(LF({k}) (+) LF({l})) * (LF({k}) (+) LF({l}))")
            assert nf.param == 2 * k + 2 * l + 1
            nf, _ = normalize(f"(LF({k}) (+) LF({l})) * LZ")
            assert nf.param == k + l + 3
            nf, _ = normalize(f"M2(LF({k})) * M2(LF({l}))")
            assert nf.param == k + l + 3
            nf, _ = normalize(f"(LF({k}) (+) LF({l})) * M2(LF({l}))")
            assert nf.param == k + 2 * l + 2
        nf, _ = normalize(f"LZ * M2(LF({l}))")
        assert nf.param == l + 4


def test_prop_63_with_lf_atoms():
    # R against a sum and against a matrix algebra
    for k in range(0, 5):
        for l in range(0, 5):
            nf, _ = normalize(f"R * (LF({k}) (+) LF({l}))")
            assert nf.text() == f"M2(LF({k + l + 3}))"
        nf, _ = normalize(f"R * M2(LF({l}))")
        assert nf.text() == f"M2(LF({l + 4}))"


def test_r_lf_ordering_sweep():
    t = Fraction(1)
    while t <= 6:
        nf, _ = normalize(FreeOf([AtomR(), AtomLF(t)]))
        assert nf == NormalForm(0, "LF", t + 1)
        t += Fraction(1, 4)


def test_single_factor_normal_forms():
    assert normalize("C")[0] == NormalForm(0, "C")
    assert normalize("R")[0] == NormalForm(0, "R")
    assert normalize("M2(LF(1))")[0] == NormalForm(1, "LF", Fraction(1))
    assert normalize("M4(LZ)")[0] == NormalForm(2, "LF", Fraction(1))
    # an inner compression with parameter above one concentrates outward
    assert normalize("M2(M2(LF(17)))")[0] == NormalForm(1, "LF", Fraction(5))


def test_lf_atom_built_directly_is_checked_by_normalize():
    """An LF atom that did not come through parse is checked, and its
    parameter made a Fraction, when it is normalized."""
    for t in (Fraction(1, 2), Fraction(-1)):
        with pytest.raises(UnsupportedFragmentError):
            normalize(AtomLF(t))
    nf, steps = normalize(AtomLF(3))
    assert (nf, steps) == normalize(AtomLF(Fraction(3)))
    assert type(nf.param) is Fraction


def test_not_reducible():
    with pytest.raises(NotReducibleError):
        normalize("C^2")
    with pytest.raises(NotReducibleError):
        normalize("C * C^2")
    with pytest.raises(NotReducibleError):
        normalize("M2(C^2)")


# -- rewrite-step invariants -------------------------------------------------------


def test_steps_conserve_fdim_and_record_fragments():
    nf, steps = normalize("R * R")
    assert [s.rule for s in steps] == ["R9", "R11", "R8"]
    for s in steps:
        assert s.fdim_before == s.fdim_after
        assert s.before and s.after
    assert nf.fdim() == 2


def test_step_sides_are_rendered_after_normalize_returns():
    """A pair rule logs its result's factor list, which the derivation then
    takes over and frees slot by slot; the log keeps its own copy, so the
    side reads the same after ``normalize`` returns."""
    _, steps = normalize("(R (+) LF(1)) * (LZ (+) LF(1))")
    (r1,) = [s for s in steps if s.rule == "R1"]
    assert r1.before == "(R (+) LF(1)) * (LF(1) (+) LF(1))"
    assert r1.after == "M2(R * LF(1) * LF(1) * LF(1) * LF(1))"


def test_replayed_steps_render_as_the_steps_they_copy():
    """A memo replay copies a step's unrendered sides, and renders the same
    texts.  A logged product side is a tuple made for its one step, so a
    second step holding the same tuple is a replay."""
    engine = Normalizer()
    _, steps = engine.normalize(parse("C^8 * C^8"))
    assert engine.memo_hits
    first, pairs = {}, []
    for s in steps:
        if type(s._before) is tuple:
            original = first.setdefault(id(s._before), s)
            if original is not s:
                pairs.append((original, s))
    assert len(pairs) > 10
    assert all(copy._after is original._after for original, copy in pairs)
    for original, copy in pairs:
        texts = copy.before, copy.after  # each copy before its original
        assert texts == (original.before, original.after)


def test_normal_form_text_and_fdim():
    nf = NormalForm(2, "LF", Fraction(9))
    assert nf.text() == "M2(M2(LF(9)))"
    assert nf.fdim() == 1 + Fraction(1 + Fraction(8, 4) - 1, 4)
    assert nf.alias() == 1 + (1 + Fraction(8, 4) - 1) / 4


def test_decompression_consistency():
    """Recompressing the alias parameter reproduces the normal form."""
    for text in ["R * R", "M2(C) * M2(C)", "LZ * M2(LF(2))", "C^4 * C^4"]:
        nf, _ = normalize(text)
        s = nf.alias()
        if s is None:
            continue
        again, _ = normalize(AtomLF(s))
        assert again == NormalForm(0, "LF", s)
        # undo the compression step by step
        t = s
        for _ in range(nf.depth):
            t = 4 * t - 3
        assert t == nf.param


# -- confluence and termination -------------------------------------------------------


CONFLUENCE_CORPUS = [t for t, _, _ in GOLDEN] + [
    "R * R * R",
    "C^2 * C^2 * C^2",
    "M4(LZ) * M4(LZ)",
    "LZ^4 * LZ^2",
    "M2(R) * LF(2)",
    "R * (LF(2) (+) LF(3))",
    "R * M2(LF(3))",
    "(LF(2) (+) LF(3)) * (LF(1) (+) LF(4))",
    "(LF(2) (+) C) * M2(R)",
    "LF(3/2) * M2(LF(7/4))",
    "M8(LF(2)) * C^4",
    "LZ * C^2",
    "C^8 * C^2",
]


@pytest.mark.parametrize("text", CONFLUENCE_CORPUS)
def test_confluence_random_rule_priority(text):
    base, _ = normalize(text)
    for seed in range(10):
        nf, steps = normalize(text, seed=seed)
        assert nf == base, (text, seed, nf.text(), base.text())
        for s in steps:
            assert s.fdim_before == s.fdim_after


def rand_fragment(rng, depth=3):
    """Random expression whose top level is a free product of reducible
    factors (sums, matrices, LF/LZ/R atoms, plus unit factors)."""

    def factor(d):
        roll = rng.random()
        if d <= 0 or roll < 0.35:
            return rng.choice([
                AtomLZ(), AtomR(),
                AtomLF(Fraction(rng.randint(1, 5))),
                AtomLF(Fraction(rng.randint(4, 9), 4)),
                AtomC(),
            ])
        if roll < 0.6:
            return SumOf(factor(d - 1), factor(d - 1))
        if roll < 0.85:
            return Mat2Of(factor(d - 1))
        return FreeOf([factor(d - 1), factor(d - 1)])

    def reduces_to_unit(f):
        if isinstance(f, AtomC):
            return True
        if isinstance(f, FreeOf):
            return all(reduces_to_unit(g) for g in f.factors)
        return False

    while True:
        k = rng.randint(2, 4)
        factors = [factor(depth) for _ in range(k)]
        non_unit = [f for f in factors if not reduces_to_unit(f)]
        if len(non_unit) >= 2:
            return FreeOf(factors)


@pytest.mark.parametrize("block", range(10))
def test_termination_and_conservation_on_random_fragments(block):
    """1000 random fragment expressions in total: the divergence guard
    never fires, every step conserves fdim, and the end-to-end dimension
    matches the input."""
    rng = random.Random(9000 + block)
    for _ in range(100):
        e = rand_fragment(rng)
        nf, steps = normalize(e)
        for s in steps:
            assert s.fdim_before == s.fdim_after
        assert nf.fdim() == fdim(e)


@pytest.mark.parametrize("block", range(3))
def test_confluence_on_random_fragments(block):
    rng = random.Random(11000 + block)
    for _ in range(25):
        e = rand_fragment(rng)
        base, _ = normalize(e)
        for seed in (1, 2, 3):
            nf, _ = normalize(e, seed=seed)
            assert nf == base, expr_text(e)


# Full step logs of a corpus that fires every rule, recorded before the
# rules were gathered into one table; any change to a rule, its priority,
# its description or its displayed fragments changes the digest.
DERIVATION_CORPUS = [
    "C^2 * C^2", "M2(C) * C^2", "M2(C) * M2(C)", "R * R", "R * LZ", "C * R * LZ",
    "R * (LF(2) (+) LF(3))", "R * M2(LF(3))", "C^2 * LZ", "M2(C) * LZ",
    "LF(3/2) * M2(LF(7/4))", "M2(M2(LF(17)))", "LZ * LF(2) * C^4", "R * R * R",
    "(LF(2) (+) C) * M2(R)", "M4(LZ) * M4(LZ)",
]
DERIVATION_DIGEST = "62de4299c4ed0be7bbcf388d107729681c09f3b4b33e4ad64571846cd5f9bd98"
ALL_RULES = {f"R{i}" for i in range(1, 15)} | {"R6inv"}


def test_golden_derivation_digest():
    rng = random.Random(4242)
    exprs = DERIVATION_CORPUS + [rand_fragment(rng) for _ in range(100)]
    logs, fired = [], set()
    for e in exprs:
        for seed in (None, 0, 1, 2):
            nf, steps = normalize(e, seed=seed)
            fired.update(s.rule for s in steps)
            logs.append([nf.text(), [s.to_json() for s in steps]])
    assert fired == ALL_RULES
    assert hashlib.sha256(json.dumps(logs).encode()).hexdigest() == DERIVATION_DIGEST


def prop_62_inputs(n_max, m_max, k_max, l_max):
    """The expressions ``prop_62_table`` normalizes, in its order."""
    def base(k):
        return AtomC() if k == 0 else AtomLF(Fraction(k))

    exprs = []
    for left, right in [(pow2sum, pow2sum), (matpow, pow2sum), (matpow, matpow)]:
        for n, m, k, l in product(range(1, n_max + 1), range(1, m_max + 1),
                                  range(k_max + 1), range(l_max + 1)):
            exprs.append(FreeOf([left(base(k), 2 ** n), right(base(l), 2 ** m)]))
    return exprs


def deep_corpus():
    """Balanced trees whose reductions meet the same factor lists many times
    over, at many different paths."""
    exprs = [FreeOf([pow2sum(AtomC(), 2 ** n), pow2sum(AtomC(), 2 ** m)])
             for n in range(1, 6) for m in range(1, 6)]
    exprs += prop_62_inputs(2, 2, 2, 2)
    return exprs + [parse(t) for t in ["M2(C^64) * C^64 * R",
                                       "(LF(3) (+) R)^16 * M2(LZ)^16",
                                       "M4(LZ) * C^8 * LF(9/4)"]]


# Full deterministic step logs and normal forms of ``deep_corpus()``,
# recorded before reductions of repeated factor lists were replayed.
DEEP_DERIVATION_DIGEST = "d90363a1f6d645492d6fb41c7449a07693d4ae3c199caa4a9b479f64a845599f"


def test_golden_deep_derivation_digest():
    exprs = deep_corpus()
    assert len(exprs) == 25 + 108 + 3
    logs = []
    for e in exprs:
        nf, steps = normalize(e)
        logs.append([nf.text(), [s.to_json() for s in steps]])
    digest = hashlib.sha256(json.dumps(logs).encode()).hexdigest()
    assert digest == DEEP_DERIVATION_DIGEST


def mixed_factor(rng, depth):
    """A random factor text: mostly C, R, LF(1) and LF(t) atoms, t of
    denominator up to 6, and some sums and M2 amplifications of them."""
    roll = rng.random()
    if depth <= 0 or roll < 0.6:
        atom = rng.choice(["C", "R", "LF(1)", "LF(t)", "LF(t)"])
        if atom == "LF(t)":
            den = rng.randint(1, 6)
            atom = f"LF({rng.randint(den, 5 * den)}/{den})"
        return atom
    if roll < 0.8:
        return f"({mixed_factor(rng, depth - 1)} (+) {mixed_factor(rng, depth - 1)})"
    return f"M2({mixed_factor(rng, depth - 1)})"


def flat_corpus():
    """Flat products: R^n for n <= 60, and 24 products of 20-40 mixed
    factors."""
    texts = [" * ".join(["R"] * n) for n in range(1, 61)]
    rng = random.Random(8191)
    for _ in range(24):
        texts.append(" * ".join(mixed_factor(rng, 2) for _ in range(rng.randint(20, 40))))
    return texts


# Full step logs and normal forms of ``flat_corpus()``, deterministic and
# with seeds 0, 1 and 2, recorded before the factor loop kept an index of
# the factors by shape.  Seeded runs pick among many instances of the same
# rule here, so the digest pins the order in which instances are drawn.
FLAT_DERIVATION_DIGEST = "5a1b278eb6e63c4c6354ac7daadc67f2646f546d1b72598295abcc6268e8dd8d"


def test_golden_flat_derivation_digest():
    logs = []
    for text in flat_corpus():
        for seed in (None, 0, 1, 2):
            nf, steps = normalize(text, seed=seed)
            logs.append([nf.text(), [s.to_json() for s in steps]])
    assert sum(len(steps) for _, steps in logs) == 27342
    digest = hashlib.sha256(json.dumps(logs).encode()).hexdigest()
    assert digest == FLAT_DERIVATION_DIGEST


def _best_normalize_time(e, runs=3):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        normalize(e)
        best = min(best, time.perf_counter() - start)
    return best


def test_flat_product_at_size_bound_within_budget():
    """The largest flat product ``parse`` admits.  It took 20.9 s while
    every round reclassified every factor, which grows as n^2; it takes
    about 0.4 s on a 2-core x86 machine with Python 3.11.  The budget is
    relative, so a slow or loaded machine does not fail it: 8x the factors
    take about 8x the time (64x at n^2), bounded here by 20x.  The
    absolute bound only rules out a return to the quadratic loop."""
    e = parse(" * ".join(["R"] * 8191))
    assert e._size == MAX_EXPR_SIZE
    nf, steps = normalize(e)
    assert nf == NormalForm(1, "LF", Fraction(32761))
    assert len(steps) == 16381
    small = _best_normalize_time(parse(" * ".join(["R"] * 1024)))
    large = _best_normalize_time(e)
    assert large < 20 * small
    assert large < 5.0


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_candidate_pairs_follow_combinations(n):
    """Instance r of a same-shape pair rule is the r-th pair that
    ``combinations`` lists."""
    slots = list(range(5, 5 + 3 * n, 3))
    pairs = list(combinations(slots, 2))
    facs = [None] * slots[-1] + [SumOf(AtomC(), AtomR())]
    for slot in slots:
        facs[slot] = facs[-1]
    buckets = _factor_index(facs)
    assert buckets[_S_SUM] == slots
    assert [_candidate((_S_SUM, _S_SUM), buckets, r) for r in range(len(pairs))] == pairs


# One factor of each shape set the factor index knows: C, R, LF(1), LF(t > 1),
# a sum and a matrix.
_INDEX_FACTORS = [AtomC(), AtomR(), AtomLF(Fraction(1)), AtomLF(Fraction(9, 4)),
                  SumOf(AtomC(), AtomR()), Mat2Of(AtomC())]


@settings(deadline=None, database=None, max_examples=500)
@given(st.lists(st.one_of(st.none(), st.sampled_from(_INDEX_FACTORS)), max_size=10))
def test_pick_is_the_first_or_the_drawn_listed_instance(slots):
    """``_pick`` against every rule instance listed explicitly, in table
    order: the slots of a one-shape rule, the ``combinations`` of a pair of
    one shape and the product of any other pair, a gated rule's only while
    its gate holds.  The deterministic pick is the first instance and a
    seeded one the instance at the seed's ``randrange`` over their number.
    A None slot is a freed one."""
    buckets = _factor_index(slots)
    instances = []
    for name, rule in _RULES.items():
        shapes = rule.shapes
        if not shapes or (rule.gate is not None and not rule.gate(buckets)):
            continue
        first = buckets[shapes[0]]
        if len(shapes) == 1:
            pairs = [(i, -1) for i in first]
        elif shapes[1] == shapes[0]:
            pairs = combinations(first, 2)
        else:
            pairs = product(first, buckets[shapes[1]])
        instances += [(name, i, j) for i, j in pairs]
    assert _pick(buckets, None) == (instances[0] if instances else None)
    for seed in range(3):
        want = instances[random.Random(seed).randrange(len(instances))] if instances else None
        assert _pick(buckets, random.Random(seed)) == want


# Deterministic step logs and normal forms of 200 random fragments and the
# inputs of prop_62_table(2, 2, 2, 2), recorded before the deterministic
# pick stopped counting instances.
PICK_CORPUS_DIGEST = "40ca624025a0c4b0151500176c0487554fa699d516b3c22e1ebde6f4ef9090f5"


def test_pick_corpus_derivation_digest():
    rng = random.Random(6200)
    exprs = [rand_fragment(rng) for _ in range(200)] + prop_62_inputs(2, 2, 2, 2)
    logs = []
    for e in exprs:
        nf, steps = normalize(e)
        logs.append([nf.text(), [s.to_json() for s in steps]])
    assert (len(exprs), sum(len(steps) for _, steps in logs)) == (308, 5072)
    digest = hashlib.sha256(json.dumps(logs).encode()).hexdigest()
    assert digest == PICK_CORPUS_DIGEST


def test_engine_shares_lf_atoms_and_step_fractions():
    """Equal LF parameters share one atom, and equal logged fdims one
    Fraction, across ``normalize`` calls."""
    _, first = normalize("C^8 * M2(LF(9/4)) * R")
    _, second = normalize("LZ * C^4 * M2(LF(9/4))")
    seen = {}
    for s in first + second:
        assert s.fdim_after is s.fdim_before
        assert seen.setdefault(s.fdim_before, s.fdim_before) is s.fdim_before
    assert parse("LF(9/4)") is parse("M2(LF(18/8))").inner
    assert parse("LF(9/4)") == AtomLF(Fraction(9, 4))


def test_shared_tables_stay_bounded(monkeypatch):
    """A table that fills up starts again empty, and the log is the same."""
    text = "LF(3/2) * LF(5/3) * LF(7/4) * LF(9/5) * LF(11/6) * R * C^4"
    want = normalize(text)
    monkeypatch.setattr(expr, "_TABLE_LIMIT", 4)
    monkeypatch.setattr(expr, "_FRACTIONS", {})
    monkeypatch.setattr(expr, "_LF_ATOMS", {})
    assert normalize(text) == want
    assert 0 < len(expr._FRACTIONS) <= 4 and 0 < len(expr._LF_ATOMS) <= 4


# -- the tokenizer against the character loop it replaced --------------------------


_SINGLE = {")": "RPAREN", "*": "STAR", "^": "CARET", "/": "SLASH"}


def reference_tokenize(text):
    """The character-loop tokenizer that the one-regex ``_tokenize``
    replaced, verbatim.  It differs only on non-ASCII digits and letters."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            if text[i:i + 3] == "(+)":
                out.append(("DSUM", "(+)", i))
                i += 3
            else:
                out.append(("LPAREN", "(", i))
                i += 1
            continue
        if ch in _SINGLE:
            out.append((_SINGLE[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("EOF", "", n))
    return out


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.pos


# The grammar's characters, ASCII junk (including the whitespace controls
# \x0b, \x0c and \x1c-\x1f), and grammar pieces that the characters alone
# seldom spell.
_GRAMMAR_CHARS = "CLZRFM0123456789()+*^/ \t\n"
_JUNK_CHARS = "@#_-.,:;xQa!~\x00\x0b\x0c\x1c\x1f\x7f"
_TOKEN_TEXT = st.one_of(
    st.text(alphabet=_GRAMMAR_CHARS + _JUNK_CHARS, max_size=40),
    st.lists(st.sampled_from(["LF", "M2", "M16", "LZ", "C", "R", "(+)", "(", ")", " * ",
                              "^", "/", "12", "0", " ", "x_1", "M2_", "(+", "@"]),
             max_size=16).map("".join))


@settings(deadline=None, database=None, max_examples=1000)
@given(_TOKEN_TEXT)
def test_tokenizer_matches_character_loop(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)


# -- the parser against the token-tuple parser it replaced --------------------------


class ReferenceParser:
    """The parser that read (kind, text, position) tuples from ``_tokenize``,
    verbatim; the engine's parser reads the token texts alone and finds a
    position only when it raises."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.open = 0

    def expect(self, kind: str):
        tok = self.toks[self.i]
        self.i += 1
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    # parse_* return the expression and the height of its expanded tree,
    # whose node count the expression caches.  ``self.open`` counts the
    # levels of the groups around the current token, one per parenthesis
    # and log2 k per Mk, so that deep nesting is rejected before the parser
    # recurses into it.

    def parse(self) -> Expr:
        e, _ = self.parse_free()
        tok = self.toks[self.i]
        if tok[0] != "EOF":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        _check_size(e._size)
        return e

    def parse_free(self) -> Tuple[Expr, int]:
        toks = self.toks
        first = self.parse_sum()
        if toks[self.i][0] != "STAR":
            return first
        factors = [first]
        while toks[self.i][0] == "STAR":
            self.i += 1
            factors.append(self.parse_sum())
        # a spliced-in product loses its own level
        height = _check_depth(1 + max(h - (f._kind == _K_FREE) for f, h in factors))
        return FreeOf(_flatten(f for f, _ in factors)), height

    def parse_sum(self) -> Tuple[Expr, int]:
        """Operands joined by (+), each a primary with any number of ^k."""
        toks = self.toks
        e = None
        while True:
            right, right_height = self.parse_primary()
            while toks[self.i][0] == "CARET":
                self.i += 1
                k = int(self.expect("INT")[1])
                # both checked before pow2sum builds anything
                _check_size(k * right._size + k - 1)
                right_height = _check_depth(right_height + k.bit_length() - 1)
                right = pow2sum(right, k)
            if e is None:
                e, height = right, right_height
            else:
                height = _check_depth(1 + max(height, right_height))
                e = SumOf(e, right)
            if toks[self.i][0] != "DSUM":
                return e, height
            self.i += 1

    def parse_group(self, levels: int) -> Tuple[Expr, int]:
        """The product up to the closing parenthesis, in a group of
        ``levels`` levels."""
        self.open = _check_depth(self.open + levels)
        parsed = self.parse_free()
        self.expect("RPAREN")
        self.open -= levels
        return parsed

    def parse_primary(self) -> Tuple[Expr, int]:
        kind, value, pos = self.toks[self.i]
        self.i += 1
        if kind == "LPAREN":
            return self.parse_group(1)
        if kind != "NAME":
            raise ParseError(f"expected an atom, found {value!r}", pos)
        atom = _ATOMS.get(value)
        if atom is not None:
            return atom, 0
        if value == "LF":  # LF(n) or LF(n/d)
            self.expect("LPAREN")
            tok = self.expect("INT")
            num, den = int(tok[1]), 1
            if self.toks[self.i][0] == "SLASH":
                self.i += 1
                den = int(self.expect("INT")[1])
                if den == 0:
                    raise ParseError("zero denominator", tok[2])
            self.expect("RPAREN")
            g = gcd(num, den)
            return _checked_lf((num // g, den // g)), 0
        if value[0] == "M" and value[1:].isdigit():
            k = int(value[1:])
            self.expect("LPAREN")
            levels = max(k.bit_length() - 1, 1)  # matpow rejects k < 2
            e, height = self.parse_group(levels)
            return matpow(e, k), _check_depth(height + levels)
        raise ParseError(f"unknown atom {value!r}", pos)


def _parse_outcome(parse_text, text):
    """The tree and its cached values, or the error's class, text and
    position."""
    try:
        e = parse_text(text)
    except (ParseError, UnsupportedFragmentError) as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    return e, e._size, e._fdim, e._canon


def fdim_oracle(e):
    """The free dimension by the module docstring's formulas, in Fraction."""
    if isinstance(e, AtomC):
        return Fraction(0)
    if isinstance(e, (AtomLZ, AtomR)):
        return Fraction(1)
    if isinstance(e, AtomLF):
        return Fraction(e.t)
    if isinstance(e, SumOf):
        return (fdim_oracle(e.left) + fdim_oracle(e.right)) / 4 + Fraction(1, 2)
    if isinstance(e, Mat2Of):
        return 1 + (fdim_oracle(e.inner) - 1) / 4
    return sum(map(fdim_oracle, e.factors), Fraction(0))


_atoms = st.one_of(
    st.just(AtomC()), st.just(AtomLZ()), st.just(AtomR()),
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=1, max_value=64)).map(AtomLF))
_trees = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda lr: SumOf(*lr)),
        sub.map(Mat2Of),
        st.lists(sub, min_size=2, max_size=4).map(FreeOf)),
    max_leaves=12)


_TREE_MUTANTS = st.tuples(_trees, st.integers(min_value=0),
                          st.one_of(st.none(), st.sampled_from(_GRAMMAR_CHARS + _JUNK_CHARS)))


def _mutated_text(drawn):
    """The text of a drawn tree with one character deleted (None) or
    inserted."""
    e, at, char = drawn
    text = expr_text(e)
    at %= len(text) + 1
    return text[:at] + text[at + 1:] if char is None else text[:at] + char + text[at:]


@settings(deadline=None, database=None, max_examples=1000)
@given(st.one_of(_TOKEN_TEXT, _trees.map(expr_text), _TREE_MUTANTS.map(_mutated_text)))
@example("LF(3/0)")
@example(" LF( 12 /00 ) * R")
@example("M16(R")
@example("M2 * R")
@example("C^ * R")
@example("(C (+) R")
def test_parser_matches_token_tuple_parser(text):
    """Both parsers give equal trees with equal cached values, or the same
    error, message and position.  Most token soups and mutants are errors,
    so the texts of drawn trees are mixed in."""
    want = _parse_outcome(lambda t: ReferenceParser(t).parse(), text)
    assert _parse_outcome(parse, text) == want


def size_oracle(e):
    """The node count by a walk of the tree."""
    if isinstance(e, Mat2Of):
        return 1 + size_oracle(e.inner)
    if isinstance(e, SumOf):
        return 1 + size_oracle(e.left) + size_oracle(e.right)
    if isinstance(e, FreeOf):
        return 1 + sum(map(size_oracle, e.factors))
    return 1


@settings(deadline=None, database=None, max_examples=300)
@given(_trees)
def test_cached_size_agrees_with_walk(e):
    """``_size`` is counted when a node is built; products built directly
    may nest unflattened, and each nested product keeps its own node."""
    assert e._size == size_oracle(e)


@settings(deadline=None, database=None, max_examples=300)
@given(_trees)
def test_canonical_flag_marks_the_trees_canonicalizing_keeps(e):
    """``_canon`` holds exactly when canonicalizing returns the tree itself
    and logs no step; the strategy draws LZ, LF(0) and nested products."""
    check_canonical_flag(e)


@pytest.mark.parametrize("e,canonical", [
    (AtomLF(2), False), (AtomLF(Fraction(2)), True), (AtomLF(Fraction(0)), False),
    (AtomLZ(), False), (AtomC(), True), (AtomR(), True),
    (FreeOf([FreeOf([AtomR(), AtomR()]), AtomC()]), False),
    (FreeOf([AtomR(), AtomR()]), True), (Mat2Of(SumOf(AtomC(), AtomLF(2))), False),
    (SumOf(FreeOf([AtomR(), AtomC()]), AtomR()), True),
])
def test_canonical_flag_fixed_cases(e, canonical):
    """An int LF parameter is made a Fraction, and a nested product is
    spliced in, so neither is canonical; a product of atoms is."""
    assert e._canon == canonical
    check_canonical_flag(e)


def check_canonical_flag(e):
    engine = Normalizer()
    engine._budget = 100  # as ``normalize`` sets it
    kept = engine._canonicalize(e, ()) is e and not engine.steps
    assert e._canon == kept


def subtrees(e):
    yield e
    for child in (e.factors if isinstance(e, FreeOf) else (e.left, e.right)
                  if isinstance(e, SumOf) else (e.inner,) if isinstance(e, Mat2Of) else ()):
        yield from subtrees(child)


@settings(deadline=None, database=None, max_examples=300)
@given(_trees)
def test_reducible_flag_marks_every_subtree_reducing_changes(e):
    """In a canonical tree, a subtree whose ``_reducible`` flag is unset
    comes back from ``_reduce`` as itself, with no step logged.  Each
    subtree is reduced on its own, so a flag wrongly unset on a child is
    caught where the parent's flag would hide it."""
    engine = Normalizer()
    engine._budget = 100  # as ``normalize`` sets it
    for sub in subtrees(engine._canonicalize(e, ())):
        if not sub._reducible:
            logged = len(engine.steps)
            assert engine._reduce(sub, ()) is sub and len(engine.steps) == logged


def test_reducible_flag_fixed_cases():
    """An M2 directly around M2(LF(t > 1)) is flagged though it holds no
    product, and decompresses; one level further out it is not."""
    e = parse("M2(M2(LF(17)))")
    assert e._reducible and not e.inner._reducible
    engine = Normalizer()
    engine._budget = 100  # as ``normalize`` sets it
    assert engine._reduce(e, ()) == parse("M2(LF(5))")
    assert [s.rule for s in engine.steps] == ["R6inv"]
    assert [(s.before, s.after) for s in engine.steps] == [("M2(LF(17))", "LF(5)")]
    for text in ["M2(LF(17)) (+) C", "M2(LF(1)) (+) M2(M2(C))", "M4(R)", "LF(3) (+) LZ"]:
        e = parse(text)
        assert not e._reducible
        assert engine._reduce(e, ()) is e
    assert parse("C (+) (R * R)")._reducible and parse("M2(C^2 * C)")._reducible


def test_cached_size_of_unflattened_products():
    a, b, c = AtomC(), AtomR(), AtomLF(Fraction(3))
    nested = FreeOf([FreeOf([a, b]), c])
    assert nested._size == size_oracle(nested) == 5
    assert FreeOf([a, b, c])._size == 4
    deep = Mat2Of(FreeOf([SumOf(nested, a), FreeOf([nested, Mat2Of(b)])]))
    assert deep._size == size_oracle(deep) == 17


@settings(deadline=None, database=None, max_examples=300)
@given(_trees)
def test_fdim_agrees_with_fraction_oracle(e):
    want = fdim_oracle(e)
    got = fdim(e)
    assert type(got) is Fraction and got == want
    # the cached pair is in lowest terms, so equal pairs are equal values
    assert e._fdim == (want.numerator, want.denominator)
    engine = Normalizer()
    try:
        nf, _ = engine.normalize(e)
    except NotReducibleError:
        nf = None
    for s in engine.steps:
        assert type(s.fdim_before) is Fraction and type(s.fdim_after) is Fraction
        assert s.fdim_before == s.fdim_after
    if nf is not None:
        assert nf.fdim() == want


def rand_tree(rng, depth=3):
    """Random tree over few atoms and shapes, so that equal trees recur."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice([AtomC(), AtomLZ(), AtomR(), AtomLF(Fraction(1)),
                           AtomLF(Fraction(8, 4)), AtomLF(Fraction(2)),
                           AtomLF(Fraction(9, 4))])
    if roll < 0.55:
        return SumOf(rand_tree(rng, depth - 1), rand_tree(rng, depth - 1))
    if roll < 0.75:
        return Mat2Of(rand_tree(rng, depth - 1))
    return FreeOf([rand_tree(rng, depth - 1) for _ in range(rng.randint(2, 3))])


def test_text_identifies_tree():
    """Equal texts exactly when equal trees, which makes factor texts an
    exact memo key; the cached values leave ==, hash and repr alone."""
    a, b, c = AtomC(), AtomR(), AtomLF(Fraction(3))
    pairs = [
        (FreeOf([FreeOf([a, b]), c]), FreeOf([a, b, c]), False),
        (FreeOf([a, FreeOf([b, c])]), FreeOf([FreeOf([a, b]), c]), False),
        (SumOf(SumOf(a, b), c), SumOf(a, SumOf(b, c)), False),
        (AtomLZ(), AtomLF(Fraction(1)), False),
        (AtomLF(Fraction(8, 4)), AtomLF(Fraction(2)), True),
        (Mat2Of(FreeOf([a, b])), FreeOf([Mat2Of(a), b]), False),
    ]
    rng = random.Random(77)
    trees = [rand_tree(rng) for _ in range(300)]
    pairs += [(x, y, None) for x in trees for y in trees]
    equal_pairs = 0
    for x, y, want in pairs:
        same = x == y
        assert want is None or same == want
        assert (expr_text(x) == expr_text(y)) == same, (x, y)
        if same:
            equal_pairs += 1
            assert hash(x) == hash(y) and repr(x) == repr(y)
    assert equal_pairs > 2 * len(trees)  # distinct objects that are equal
    assert "_text" not in repr(trees[0]) and "_fdim" not in repr(trees[0])
    # Each node class: its repr text, keyword construction, equality only
    # within the class (not to a subclass over the same fields, nor to the
    # field tuple), and no assignment, to a field or to a cached value.
    for cls, fields, text in [
            (AtomC, {}, "AtomC()"), (AtomLZ, {}, "AtomLZ()"), (AtomR, {}, "AtomR()"),
            (AtomLF, dict(t=Fraction(5, 2)), "AtomLF(t=Fraction(5, 2))"),
            (Mat2Of, dict(inner=AtomR()), "Mat2Of(inner=AtomR())"),
            (SumOf, dict(left=a, right=AtomLF(Fraction(1))),
             "SumOf(left=AtomC(), right=AtomLF(t=Fraction(1, 1)))"),
            (FreeOf, dict(factors=(a, Mat2Of(AtomLZ()))),
             "FreeOf(factors=(AtomC(), Mat2Of(inner=AtomLZ())))")]:
        x = cls(**fields)
        assert repr(x) == repr(cls(*fields.values())) == text
        assert x == cls(*fields.values()) and hash(x) == hash(cls(*fields.values()))
        twin = type(cls.__name__, (cls,), {})(**fields)
        assert x != twin and twin != x and x != tuple(fields.values())
        for name in [*fields, "_text", "_fdim"]:
            with pytest.raises(AttributeError):
                setattr(x, name, b)
        assert repr(x) == text
    assert len({AtomC(), AtomLZ(), AtomR()}) == 3


def test_memo_counters():
    engine = Normalizer()
    for _ in range(2):  # counted afresh on each call
        nf, steps = engine.normalize(parse("C^64 * C^64"))
        assert (engine.memo_hits, engine.memo_misses) == (5, 17)
        assert engine.rule_counts == {"R1": 63, "R3": 31, "R5": 31, "R6inv": 31,
                                      "R7": 93, "R13": 128}
        assert sum(engine.rule_counts.values()) == len(steps) == 377
    seeded = Normalizer(seed=1)
    _, steps = seeded.normalize(parse("C^64 * C^64"))
    assert (seeded.memo_hits, seeded.memo_misses) == (0, 0)
    assert sum(seeded.rule_counts.values()) == len(steps)


def normal_form_fdim_oracle(nf):
    """The free dimension of M2^depth(core) by x -> 1 + (x - 1)/4 in
    Fraction, once per level."""
    x = {"C": Fraction(0), "R": Fraction(1)}.get(nf.core, nf.param)
    for _ in range(nf.depth):
        x = 1 + (x - 1) / 4
    return x


@pytest.mark.parametrize("core,param", [("C", None), ("R", None)] + [
    ("LF", Fraction(t)) for t in ("1", "5/4", "2", "7/3", "5", "1023/512")])
def test_normal_form_fdim_and_alias_match_fraction_recurrence(core, param):
    for depth in range(9):
        nf = NormalForm(depth, core, param)
        want = normal_form_fdim_oracle(nf)
        got = nf.fdim()
        assert type(got) is Fraction and got == want
        has_alias = core == "LF" and param > 1 and depth > 0
        assert nf.alias() == (want if has_alias else None)


def test_rule_counts_after_divergence():
    """After a ``DivergenceError`` the counts are those of the logged steps,
    in the order each rule first fired."""
    e = parse("C^64 * C^64 * M2(R) * LZ")
    for limit in (0, 1, 7, 100, 300):
        engine = Normalizer(max_steps=limit)
        with pytest.raises(DivergenceError):
            engine.normalize(e)
        want = Counter(s.rule for s in engine.steps)
        assert len(engine.steps) == limit
        assert list(engine.rule_counts.items()) == list(want.items())


# One node of each concrete expression class, with its kind.
KIND_EXAMPLES = {
    AtomC: (AtomC(), expr._K_C),
    AtomLZ: (AtomLZ(), expr._K_LZ),
    AtomR: (AtomR(), expr._K_R),
    AtomLF: (AtomLF(Fraction(9, 4)), expr._K_LF),
    Mat2Of: (Mat2Of(AtomLZ()), expr._K_M2),
    SumOf: (SumOf(AtomLZ(), AtomC()), expr._K_SUM),
    FreeOf: (FreeOf([FreeOf([AtomLZ(), AtomR()]), AtomC()]), expr._K_FREE),
}


def test_every_expression_class_has_a_dispatched_kind():
    """The engine dispatches on ``_kind``.  Every concrete Expr class sets
    its own, the kinds are distinct and the atoms' come first, and each
    class takes its branch: an LZ anywhere is rewritten by R14, and a
    product is reduced.  A class added later fails here until it is given
    a kind and its branch."""
    assert set(Expr.__subclasses__()) == set(KIND_EXAMPLES)
    kinds = [kind for _, kind in KIND_EXAMPLES.values()]
    assert sorted(kinds) == list(range(len(kinds)))
    for cls, (node, kind) in KIND_EXAMPLES.items():
        assert vars(cls)["_kind"] == node._kind == kind
        assert (kind < expr._K_M2) == cls.__name__.startswith("Atom")
        engine = Normalizer()
        engine._budget = 100  # as ``normalize`` sets it
        canonical = engine._canonicalize(node, ())
        assert [s.rule for s in engine.steps] == ["R14"] * ("LZ" in node._text)
        assert "LZ" not in canonical._text and fdim(canonical) == fdim(node)
        reduced = engine._reduce(canonical, ())
        assert (reduced is canonical) == (cls is not FreeOf)
        assert fdim(reduced) == fdim(node)


def test_normalize_runs_a_given_engine():
    """A seeded ``Normalizer`` gives the seeded run's log and leaves its
    counts readable."""
    engine = Normalizer(seed=2)
    nf, steps = engine.normalize(parse("M2(C^16) * C^16 * R"))
    assert (nf, steps) == normalize("M2(C^16) * C^16 * R", seed=2)
    assert sum(engine.rule_counts.values()) == len(steps)


def test_divergence_guard_can_fire():
    with pytest.raises(DivergenceError):
        Normalizer(max_steps=1).normalize(parse("R * R"))


@pytest.mark.parametrize("text", ["C^64 * C^64", "M2(C^16) * C^16 * R"])
def test_step_budget_is_exact(text):
    _, steps = normalize(text)
    nf, again = Normalizer(max_steps=len(steps)).normalize(parse(text))
    assert [s.to_json() for s in again] == [s.to_json() for s in steps]
    with pytest.raises(DivergenceError):
        Normalizer(max_steps=len(steps) - 1).normalize(parse(text))


def test_step_budget_inside_repeated_reductions():
    """Every budget below the full log stops the derivation after exactly
    that many steps, the logged prefix unchanged, wherever the limit falls
    (many limits fall inside the reduction of a repeated factor list)."""
    e = parse("C^16 * C^16")
    _, steps = normalize(e)
    full = [s.to_json() for s in steps]
    for limit in range(len(full)):
        engine = Normalizer(max_steps=limit)
        with pytest.raises(DivergenceError):
            engine.normalize(e)
        assert [s.to_json() for s in engine.steps] == full[:limit]


# -- verified tables ---------------------------------------------------------------


def test_example_61_sequence():
    report = example_61_sequence(5)
    assert report.passed, report.failures[:3]
    diag = {row["n"]: row for row in report.rows if row["n"] == row["m"]}
    assert diag[1]["parameter"] == "1" and diag[1]["alias"] is None
    assert diag[2]["parameter"] == "3" and diag[2]["alias"] == "3/2"
    assert diag[3]["parameter"] == "4"
    # mixed case n=3, m=2: 5 - 2(1/4 + 1/2) = 7/2
    mixed = next(r for r in report.rows if (r["n"], r["m"]) == (3, 2))
    assert mixed["parameter"] == "7/2"


def test_example_61_guard():
    """n_max is bounded by the node count of the largest row, before any
    tree is built: 2^(n_max + 2) - 1 nodes at n = m = n_max."""
    assert EXAMPLE_61_MAX_N == 11
    row = FreeOf([pow2sum(AtomC(), 2 ** 11)] * 2)
    assert row._size == 2 ** 13 - 1 <= MAX_EXPR_SIZE
    assert FreeOf([pow2sum(AtomC(), 2 ** 12)] * 2)._size > MAX_EXPR_SIZE
    for n_max in (0, 12, 16, 17, 10 ** 9):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"n_max must be in 1\.\.11"):
            example_61_sequence(n_max)
        assert time.perf_counter() - start < 0.1


def test_prop_62_table_small():
    report = prop_62_table(2, 2, 2, 2)
    assert report.passed, report.failures[:3]
    # spot-check the example cell: family 2, n=2, m=1, k=2, l=1 -> 5 + 1/4
    cell = next(r for r in report.rows
                if r["family"] == "mat*sum" and (r["n"], r["m"], r["k"], r["l"])
                == (2, 1, 2, 1))
    assert cell["parameter"] == "21/4"


def test_prop_62_guard():
    with pytest.raises(ValueError):
        prop_62_table(5, 1, 1, 1)


def test_prop_62_guard_bounds_each_argument():
    """n and m count the 2^n summands or the M_{2^n} levels of a side, so
    they start at 1: with n = 0 a side is LF_k itself, outside the formula.
    k and l start at 0, LF_0 being C."""
    for args, name, low in [((0, 1, 1, 1), "n_max", 1), ((1, 0, 1, 1), "m_max", 1),
                            ((1, 1, -1, 1), "k_max", 0), ((1, 1, 1, -1), "l_max", 0),
                            ((1, 5, 1, 1), "m_max", 1), ((1, 1, 1, 5), "l_max", 0)]:
        with pytest.raises(ValueError, match=rf"^{name} must be in {low}\.\.4$"):
            prop_62_table(*args)
    report = prop_62_table(1, 1, 0, 0)
    assert report.passed and len(report.rows) == 3
    assert len(prop_62_table(4, 1, 1, 0).rows) == 3 * 4 * 2


# -- the tables' run without a step log ---------------------------------------------


def example_61_inputs(n_max):
    """The expressions ``example_61_sequence`` normalizes, in its order."""
    sizes = range(1, n_max + 1)
    pairs = [(n, n) for n in sizes] + [(n, m) for n in sizes for m in sizes if n != m]
    return [FreeOf([pow2sum(AtomC(), 2 ** n), pow2sum(AtomC(), 2 ** m)]) for n, m in pairs]


LOG_FREE_CORPORA = {
    "deep": deep_corpus,
    "prop62": lambda: prop_62_inputs(3, 3, 4, 4),
    "example61": lambda: example_61_inputs(7),
    "flat": lambda: [parse(t) for t in flat_corpus()],
}


@pytest.mark.parametrize("corpus", LOG_FREE_CORPORA)
def test_log_free_run_matches_logged_run(corpus):
    """The tables' run keeps no log but derives as ``normalize`` does: the
    same normal form and memo counts, the same steps spent, and so a
    ``DivergenceError`` exactly when the budget is below the logged steps."""
    for e in LOG_FREE_CORPORA[corpus]():
        logged = Normalizer()
        nf, steps = logged.normalize(e)
        engine = Normalizer()
        assert engine._run(e, False) == nf
        assert (engine.memo_hits, engine.memo_misses) == (logged.memo_hits,
                                                          logged.memo_misses)
        assert engine.steps == [] and engine._spent == len(steps)
        assert Normalizer(max_steps=len(steps))._run(e, False) == nf
        if steps:
            with pytest.raises(DivergenceError):
                Normalizer(max_steps=len(steps) - 1)._run(e, False)


def test_log_free_budget_inside_repeated_reductions():
    """Every budget below the logged steps raises, wherever the limit falls
    (many limits fall inside the reduction of a repeated factor list)."""
    e = parse("C^16 * C^16 * M2(R) * LZ")
    _, steps = normalize(e)
    for limit in range(len(steps)):
        with pytest.raises(DivergenceError):
            Normalizer(max_steps=limit)._run(e, False)


def test_unlogged_runs_on_one_engine_match_fresh_engines():
    """The memo lasts across the unlogged runs of one engine, and each run
    gives the normal form and spends the steps of a fresh engine's run."""
    shared = Normalizer()
    misses = 0
    for e in prop_62_inputs(2, 2, 2, 2):
        fresh = Normalizer()
        assert shared._run(e, False) == fresh._run(e, False)
        assert shared._spent == fresh._spent
        misses += fresh.memo_misses - shared.memo_misses
    assert misses > 0  # the runs took entries of earlier runs


# The rows of the left operand C^4 at k = 0 of ``prop_62_table``'s sum*sum
# family, in the order its engine reduces them.
C4_ROWS = ["C^4 * C^2", "C^4 * LF(1)^2", "C^4 * LF(2)^2", "C^4 * C^4", "C^4 * LF(1)^4",
           "C^4 * LF(2)^4"]


def test_shared_memo_raises_under_the_budgets_of_a_fresh_engine():
    """For each row, under every budget up to its steps, the engine that has
    reduced the rows before it raises ``DivergenceError`` exactly when a
    fresh engine does, and otherwise gives the same normal form."""
    rows = [parse(t) for t in C4_ROWS]

    def outcome(e, earlier, limit):
        """The normal form, or None for a ``DivergenceError``, and the memo
        misses of a run after ``earlier`` on one engine."""
        engine = Normalizer()
        for x in earlier:
            engine._run(x, False)
        engine.max_steps = limit
        try:
            return engine._run(e, False), engine.memo_misses
        except DivergenceError:
            return None, engine.memo_misses

    for j, e in enumerate(rows):
        fresh = Normalizer()
        nf = fresh._run(e, False)
        for limit in range(fresh._spent + 2):
            want = nf if limit >= fresh._spent else None
            assert outcome(e, [], limit)[0] == outcome(e, rows[:j], limit)[0] == want
        # every row after the first takes entries of the rows before it
        assert (outcome(e, rows[:j], None)[1] < fresh.memo_misses) == (j > 0)


def test_logged_run_after_unlogged_rows_starts_afresh():
    """A logged run on an engine that has reduced rows without a log shows
    what a fresh engine's shows: the step log, memo counts and rule counts;
    and it leaves the memo empty."""
    e = parse("C^4 * C^4")
    engine = Normalizer()
    for text in C4_ROWS:
        engine._run(parse(text), False)
    assert engine._memo
    fresh = Normalizer()
    assert engine.normalize(e)[0] == fresh.normalize(e)[0]
    assert [s.to_json() for s in engine.steps] == [s.to_json() for s in fresh.steps]
    assert (engine.memo_hits, engine.memo_misses) == (fresh.memo_hits, fresh.memo_misses)
    assert list(engine.rule_counts.items()) == list(fresh.rule_counts.items())
    assert engine._memo == {}


# SHA-256 of ``json.dumps(report.to_json())`` for each table at its largest
# size, recorded before the rows of one left operand shared an engine.
TABLE_DIGESTS = {
    "example61": (lambda: example_61_sequence(11),
                  "d1920b9b1c44c51073ddbe832df5c39b5340db7d1a6367c2b0e481ab2872f3ec"),
    "prop62": (lambda: prop_62_table(4, 4, 4, 4),
               "578b7b873232076010299fa540407a7f423db865854cf3c0a322fc1c7ffeb871"),
}


@pytest.mark.parametrize("table", TABLE_DIGESTS)
def test_table_bytes_at_the_largest_size(table):
    build, digest = TABLE_DIGESTS[table]
    assert hashlib.sha256(json.dumps(build().to_json()).encode()).hexdigest() == digest


def test_tables_build_each_operand_once(monkeypatch):
    """Each distinct side is built once per table, and each left operand
    has one engine: (family, n, k) in prop62, n in example61."""
    calls = []
    for name in ("pow2sum", "matpow"):
        build = getattr(freedim, name)
        monkeypatch.setattr(freedim, name, lambda e, k, name=name, build=build:
                            calls.append((name, e._text, k)) or build(e, k))
    engines = []
    monkeypatch.setattr(freedim, "Normalizer",
                        lambda: engines.append(Normalizer()) or engines[-1])
    assert prop_62_table(2, 2, 2, 2).passed
    assert len(calls) == len(set(calls))
    assert Counter(name for name, _, _ in calls) == {"pow2sum": 6, "matpow": 6}
    assert len(engines) == 3 * 2 * 3
    calls.clear()
    engines.clear()
    assert example_61_sequence(5).passed
    assert calls == [("pow2sum", "C", 2 ** n) for n in range(1, 6)]
    assert len(engines) == 5


def test_table_failures_keep_the_row_order(monkeypatch):
    """Rows reduced by left operand are reported in the tables' row order,
    and so are their failures."""
    run = Normalizer._run

    def wrong_for_c(self, e, keep_log):
        """A wrong normal form where the right side is built from C, which
        fails rows of several left operands in turn."""
        nf = run(self, e, keep_log)
        return nf if "LF" in e.factors[1]._text else NormalForm(0, "C")

    monkeypatch.setattr(Normalizer, "_run", wrong_for_c)
    e61, p62 = example_61_sequence(4), prop_62_table(2, 3, 1, 2)
    for report, failed in [(e61, 4 * 4), (p62, 3 * 2 * 3 * 2)]:
        assert report.failures == [r for r in report.rows if r["normal_form"] == "C"]
        assert len(report.failures) == failed
    assert [(r["n"], r["m"]) for r in e61.rows] == [(n, n) for n in range(1, 5)] + [
        (n, m) for n in range(1, 5) for m in range(1, 5) if n != m]
    assert [(r["family"], r["n"], r["m"], r["k"], r["l"]) for r in p62.rows] == [
        (f, n, m, k, l) for f in ["sum*sum", "mat*sum", "mat*mat"]
        for n, m, k, l in product(range(1, 3), range(1, 4), range(2), range(3))]


def test_tables_check_conservation_without_a_log(monkeypatch):
    share = freedim._m2_share

    def wrong_weight(f):
        parts, weight = share(f)
        return parts, weight + 1

    monkeypatch.setattr(freedim, "_m2_share", wrong_weight)
    for build in (lambda: example_61_sequence(2), lambda: prop_62_table(1, 1, 1, 1)):
        with pytest.raises(AssertionError, match="broke fdim conservation"):
            build()


# -- the plan table --------------------------------------------------------------


def derivation(e, seed=None):
    """What a logged run shows: the normal form or the error, the step log,
    the memo counts and the rule counts."""
    engine = Normalizer(seed)
    try:
        outcome = engine.normalize(e)[0].text()
    except NotReducibleError as exc:
        outcome = f"NotReducibleError: {exc}"
    return (outcome, [s.to_json() for s in engine.steps], engine.memo_hits,
            engine.memo_misses, list(engine.rule_counts.items()))


def random_fragments(seed, count):
    rng = random.Random(seed)
    return [rand_fragment(rng) for _ in range(count)]


PLAN_CORPORA = {
    "derivation": lambda: [parse(t) for t in DERIVATION_CORPUS],
    "deep": deep_corpus,
    "flat": lambda: [parse(t) for t in flat_corpus()],
    "pick": lambda: random_fragments(6200, 200) + prop_62_inputs(2, 2, 2, 2),
    "prop62": lambda: prop_62_inputs(3, 3, 4, 4),
    "example61": lambda: example_61_inputs(7),
    "fragments": lambda: random_fragments(9300, 1000),
}


# The recording bound as set, and one that records every list, so that the
# replay of lists longer than the bound is checked too.
@pytest.mark.parametrize("bound", [None, MAX_EXPR_SIZE])
@pytest.mark.parametrize("corpus", PLAN_CORPORA)
def test_plan_table_replays_every_derivation(corpus, bound, monkeypatch):
    """Each input derives alike with no plan table, from an emptied table
    and from a warm one: the same step log, normal form, memo counts and
    rule counts."""
    exprs = PLAN_CORPORA[corpus]()
    monkeypatch.setattr(freedim, "_PLAN_MAX_FACTORS", 0)
    want = [derivation(e) for e in exprs]
    monkeypatch.undo()
    monkeypatch.setattr(freedim, "_PLANS", {})
    if bound is not None:
        monkeypatch.setattr(freedim, "_PLAN_MAX_FACTORS", bound)
    for e, logged in zip(exprs, want):
        freedim._PLANS.clear()
        assert derivation(e) == logged, expr_text(e)
        assert freedim._PLANS or e._kind != _K_FREE or bound is None
        assert derivation(e) == logged, expr_text(e)


def test_plan_table_keeps_every_budget(monkeypatch):
    """Every budget below the log stops a derivation after exactly that
    many steps, from a warm table and from an emptied one; and a run the
    budget stopped leaves no plan that a full run would then replay."""
    monkeypatch.setattr(freedim, "_PLANS", {})
    e = parse("C^16 * C^16 * M2(R) * LZ * (R (+) LF(3/2)) * LF(2)")
    want = derivation(e)
    full = want[1]
    for limit in range(len(full)):
        for warm in (True, False):
            if not warm:
                freedim._PLANS.clear()
            engine = Normalizer(max_steps=limit)
            with pytest.raises(DivergenceError):
                engine.normalize(e)
            assert [s.to_json() for s in engine.steps] == full[:limit]
        assert derivation(e) == want, limit


def test_raising_derivation_stores_no_plan(monkeypatch):
    """A factor list that no rule reduces raises the same error twice and
    leaves no plan; and a ``NotReducibleError`` input gives the same
    message from an emptied and a warm table."""
    monkeypatch.setattr(freedim, "_PLANS", {})
    for _ in range(2):
        engine = Normalizer()
        with pytest.raises(NotReducibleError, match=r"^no rule applies to LZ \* LZ$"):
            engine._derive([AtomLZ(), AtomLZ()], ())
        assert freedim._PLANS == {}
    for text in ("C * C^2", "M2(C^2) * C", "C^2"):
        freedim._PLANS.clear()
        messages = set()
        for _ in range(2):
            with pytest.raises(NotReducibleError) as err:
                normalize(text)
            messages.add(str(err.value))
        assert len(messages) == 1, text


def test_seeded_pick_with_no_rule_raises_as_the_deterministic_one():
    """With no rule instance left, ``_pick`` gives None under a seed as
    without one, and the derivation raises the deterministic run's
    message."""
    for seed in (None, 0):
        with pytest.raises(NotReducibleError, match=r"^no rule applies to LZ \* LZ$"):
            Normalizer(seed=seed)._derive([AtomLZ(), AtomLZ()], ())


def test_seeded_runs_leave_the_plan_table_alone(monkeypatch):
    """A seeded run neither reads nor writes a plan: the table is the same
    after it, and its log is the same from an emptied table and a warm
    one."""
    monkeypatch.setattr(freedim, "_PLANS", {})
    texts = DERIVATION_CORPUS + flat_corpus()[55:65]
    seeded = {(t, seed): derivation(parse(t), seed) for t in texts for seed in (0, 1, 2)}
    assert freedim._PLANS == {}
    for t in texts:
        derivation(parse(t))
    table = dict(freedim._PLANS)
    assert table
    for (t, seed), want in seeded.items():
        assert derivation(parse(t), seed) == want
    assert freedim._PLANS == table


def test_plan_table_records_only_short_lists(monkeypatch):
    """A list of at most ``_PLAN_MAX_FACTORS`` factors is recorded, and a
    longer one is not."""
    monkeypatch.setattr(freedim, "_PLANS", {})
    bound = freedim._PLAN_MAX_FACTORS
    normalize(" * ".join(["R"] * bound))
    assert (expr._S_R,) * bound in {tuple(s[-1] for s in key) for key in freedim._PLANS}
    freedim._PLANS.clear()
    normalize(" * ".join(["R"] * (bound + 1)))
    assert freedim._PLANS and max(map(len, freedim._PLANS)) <= 2


def test_plan_table_stays_bounded(monkeypatch):
    """A full table starts again empty, and the logs are the same."""
    texts = [" * ".join(t) for t in product(["C", "R", "LF(1)", "LF(3/2)", "C^2", "M2(R)"],
                                            repeat=3)]
    monkeypatch.setattr(freedim, "_PLAN_MAX_FACTORS", 0)
    want = [derivation(parse(t)) for t in texts]
    monkeypatch.undo()
    monkeypatch.setattr(freedim, "_PLANS", {})
    monkeypatch.setattr(freedim, "_TABLE_LIMIT", 5)
    for _ in range(2):
        for t, logged in zip(texts, want):
            assert derivation(parse(t)) == logged
            assert 0 < len(freedim._PLANS) <= 5


# Factors as ``_derive`` meets them, by their last shape: C, R, LF(1),
# LF(t > 1), a sum and a matrix of reduced factors.
_reduced = st.recursive(
    st.sampled_from([AtomC(), AtomR(), AtomLF(Fraction(1)), AtomLF(Fraction(9, 4))]),
    lambda sub: st.one_of(st.tuples(sub, sub).map(lambda lr: SumOf(*lr)), sub.map(Mat2Of)),
    max_leaves=4)
_BY_SHAPE = [
    st.just(AtomC()), st.just(AtomR()), st.just(AtomLF(Fraction(1))),
    st.fractions(min_value=1, max_value=16).filter(lambda t: t > 1).map(AtomLF),
    st.tuples(_reduced, _reduced).map(lambda lr: SumOf(*lr)), _reduced.map(Mat2Of),
]
_SHAPE_LISTS = st.lists(st.integers(0, 5), min_size=2, max_size=8).flatmap(
    lambda codes: st.tuples(*[st.tuples(*[_BY_SHAPE[c] for c in codes])] * 2))

# The shapes each rule's result has, which a plan takes for granted.
_RESULT_SHAPES = {"R7": (expr._S_LF, expr._S_LFT), "R8": (expr._S_LF, expr._S_LFT),
                  "R9": (expr._S_MAT,), "R6": (expr._S_MAT,), "R12": (_S_SUM,)}


@settings(deadline=None, database=None, max_examples=200)
@given(_SHAPE_LISTS)
def test_plans_depend_only_on_factor_shapes(lists):
    """Each result has the shape its rule fixes: R7 and R8 give LF(t > 1),
    the other pair rules M2, R9 and R6 M2 and R12 a sum, and R13 leaves its
    partner as it was.  So two lists of the same shapes get the same plan."""
    apply_one, apply_pair = Normalizer._apply_one, Normalizer._apply_pair

    def checked_one(self, rule, i, j, facs, path):
        partner = facs[j] if j >= 0 else None
        apply_one(self, rule, i, j, facs, path)
        if rule == "R13":
            assert facs[i] is None and facs[j] is partner
        else:
            assert facs[i]._shapes == _RESULT_SHAPES[rule]

    def checked_pair(self, rule, i, j, facs, path):
        apply_pair(self, rule, i, j, facs, path)
        assert facs[max(i, j)] is None
        assert facs[min(i, j)]._shapes == _RESULT_SHAPES.get(rule, (expr._S_MAT,))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Normalizer, "_apply_one", checked_one)
        patch.setattr(Normalizer, "_apply_pair", checked_pair)
        patch.setattr(freedim, "_PLAN_STEPS", {})
        patch.setattr(freedim, "_PLAN_MAX_FACTORS", len(lists[0]))
        plans = []
        for facs in lists:
            patch.setattr(freedim, "_PLANS", {})
            engine = Normalizer()
            engine._budget = 10 ** 6
            engine._derive(list(facs), ())
            plans.append(freedim._PLANS[tuple(f._shapes for f in facs)])
    assert plans[0] == plans[1]


# -- a closed form for every normal form --------------------------------------------


def _spliced_factors(e):
    """e as a list of free-product factors, nested products spliced in."""
    if isinstance(e, FreeOf):
        return [g for f in e.factors for g in _spliced_factors(f)]
    return [e]


def closed_form(e):
    """The normal-form text that Dykema's LF(s) * LF(t) = LF(s + t) and
    M2(LF(t)) = LF(1 + (t - 1)/4) give for e, or None where ``normalize``
    raises ``NotReducibleError``.  Of the factors, LF(0) counts as C and LZ
    as LF(1).  Two or more that are not C give M2(LF(4f - 3)), f the fdim
    of e, when one is a sum or an M2 or none is an LF; LF(f) otherwise.
    One such factor is the normal form itself, where an M2 decompresses a
    reduced M2(LF(t > 1)) inside it once, and a sum has none."""
    rest = [f for f in _spliced_factors(e)
            if not isinstance(f, AtomC) and not (isinstance(f, AtomLF) and f.t == 0)]
    if len(rest) >= 2:
        f = fdim_oracle(e)
        if (any(isinstance(g, (SumOf, Mat2Of)) for g in rest)
                or not any(isinstance(g, (AtomLF, AtomLZ)) for g in rest)):
            return f"M2(LF({4 * f - 3}))"
        return f"LF({f})"
    if not rest:
        return "C"
    (g,) = rest
    if isinstance(g, SumOf):
        return None
    if isinstance(g, Mat2Of):
        inner = closed_form(g.inner)
        if inner is None:
            return None
        reduced = parse(inner)
        if isinstance(reduced, Mat2Of) and isinstance(reduced.inner, AtomLF) \
                and reduced.inner.t > 1:
            return f"M2(LF({fdim_oracle(reduced)}))"
        return f"M2({inner})"
    return "R" if isinstance(g, AtomR) else f"LF({fdim_oracle(g)})"


def check_closed_form(e, seeds=(None,)):
    """The normal form of e, under each seed, is its closed form."""
    want = closed_form(e)
    for seed in seeds:
        if want is None:
            with pytest.raises(NotReducibleError):
                normalize(e, seed=seed)
        else:
            assert normalize(e, seed=seed)[0].text() == want, (expr_text(e), seed)
    return want


@pytest.mark.parametrize("text,want", [
    ("M2(C) * C", "M2(C)"), ("C * (C (+) LF(2))", None), ("C * LF(0)", "C"),
    ("LZ * C^1", "LF(1)"), ("C * R", "R"), ("M2(M2(LF(17))) * C", "M2(LF(5))"),
    ("M2(C (+) C)", None), ("M2(C * M2(R * R))", "M2(LF(5/4))"), ("M4(C * R)", "M2(M2(R))"),
    ("R * R * R", "M2(LF(9))"), ("R * LF(3/2) * LZ", "LF(7/2)"), ("C^2 * C^2", "M2(LF(1))"),
])
def test_closed_form_fixed_cases(text, want):
    """Both forms of two or more factors that are not C, and the single
    factor: an atom, an M2 that decompresses its reduced inner M2(LF(t)),
    and a sum, which is not a normal form."""
    assert check_closed_form(parse(text)) == want


@settings(deadline=None, database=None, max_examples=300)
@given(_trees)
def test_closed_form_of_drawn_trees(e):
    check_closed_form(e)


def test_closed_form_of_golden_corpora():
    """The corpora of the golden digests, as the digests record them: the
    derivation and flat corpora deterministic and under seeds 0-2, the
    deep and pick corpora deterministic.  Then 1000 random fragments,
    which give both forms."""
    rng = random.Random(4242)
    for e in CONFLUENCE_CORPUS + DERIVATION_CORPUS + [rand_fragment(rng) for _ in range(100)]:
        check_closed_form(parse(e) if isinstance(e, str) else e, seeds=(None, 0, 1, 2))
    for text in flat_corpus():
        check_closed_form(parse(text), seeds=(None, 0, 1, 2))
    rng = random.Random(6200)
    for e in deep_corpus() + [rand_fragment(rng) for _ in range(200)]:
        check_closed_form(e)
    rng = random.Random(9100)
    forms = Counter(check_closed_form(rand_fragment(rng))[:3] for _ in range(1000))
    assert set(forms) == {"M2(", "LF("}


def test_closed_form_of_tables():
    """Each row of both tables at the benchmark's sizes, against the closed
    form of its input."""
    for report, inputs in [(example_61_sequence(7), example_61_inputs(7)),
                           (prop_62_table(3, 3, 4, 4), prop_62_inputs(3, 3, 4, 4))]:
        assert report.passed and len(report.rows) == len(inputs)
        for row, e in zip(report.rows, inputs):
            assert row["normal_form"] == closed_form(e), row
