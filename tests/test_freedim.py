"""Rewrite engine: parsing, free-dimension conservation, the golden
normal-form corpus, confluence under randomized rule priority, and
termination on random fragment expressions."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from freeprod.freedim import (
    MAX_EXPR_SIZE,
    AtomC,
    AtomLF,
    AtomLZ,
    AtomR,
    DivergenceError,
    FreeOf,
    Mat2Of,
    NormalForm,
    NotReducibleError,
    ParseError,
    SumOf,
    UnsupportedFragmentError,
    expr_size,
    expr_text,
    fdim,
    normalize,
    parse,
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
        assert expr_size(parse(text)) == size


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


def test_divergence_guard_can_fire():
    with pytest.raises(DivergenceError):
        normalize("R * R", max_steps=1)


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
    with pytest.raises(ValueError):
        example_61_sequence(0)
    with pytest.raises(ValueError):
        example_61_sequence(17)


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
