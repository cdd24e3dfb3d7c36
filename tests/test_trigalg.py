"""Exact trig algebra: product-to-sum reduction and the normalized trace.

Expected trace values are frozen from the closed-form antiderivatives and
cross-checked numerically against quadrature, which is independent of the
symbolic reduction path.
"""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from freeprod.trigalg import (MAX_TRIG_DEPTH, MAX_TRIG_TERMS, PI_ONE, PI_ZERO, PiValue,
                              TrigPoly, mul, parse_trig, trace)


C = TrigPoly.cos(1)
S = TrigPoly.sin(1)


def rand_poly(rng, max_k=4, terms=3):
    out = TrigPoly.zero()
    for _ in range(rng.randint(1, terms)):
        k = rng.randint(0, max_k)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if rng.random() < 0.5 or k == 0:
            out = out + TrigPoly.cos(k, q)
        else:
            out = out + TrigPoly.sin(k, q)
    return out


def test_product_to_sum_examples():
    # c*c = 1/2 + 1/2 c2 ; c*s = 1/2 s2
    assert mul(C, C) == TrigPoly.const(Fraction(1, 2)) + TrigPoly.cos(2, Fraction(1, 2))
    assert mul(C, S) == TrigPoly.sin(2, Fraction(1, 2))
    # 2c^2 - 1 = c2
    assert mul(C, C) * 2 - TrigPoly.const(1) == TrigPoly.cos(2)


def test_negative_index_folding():
    # cos is even, sin is odd, sin 0 = 0
    assert TrigPoly({("c", -3): 1}) == TrigPoly.cos(3)
    assert TrigPoly({("s", -3): 1}) == TrigPoly.sin(3, -1)
    assert TrigPoly({("s", 0): 5}) == TrigPoly.zero()


@pytest.mark.parametrize("seed", range(8))
def test_mul_commutative_associative(seed):
    rng = random.Random(seed)
    f, g, h = (rand_poly(rng) for _ in range(3))
    assert mul(f, g) == mul(g, f)
    assert mul(mul(f, g), h) == mul(f, mul(g, h))


@pytest.mark.parametrize("seed", range(6))
def test_mul_matches_pointwise_numeric(seed):
    rng = random.Random(100 + seed)
    f, g = rand_poly(rng), rand_poly(rng)
    prod = mul(f, g)
    for i in range(7):
        theta = 0.1 + i * 0.2
        assert prod.eval_numeric(theta) == pytest.approx(
            f.eval_numeric(theta) * g.eval_numeric(theta), abs=1e-12)


def test_trace_examples():
    # constant 1 -> 1 (normalized measure)
    assert trace(TrigPoly.const(1)) == PI_ONE
    # c*s = (1/2) s2, trace (2/pi)*(1/2)*2 = 1/pi
    assert trace(mul(C, S)) == PiValue.lam(1)
    # tr(c) = 2/pi, tr(s) = 2/pi
    assert trace(C) == PiValue.lam(2)
    assert trace(S) == PiValue.lam(2)


def test_trace_even_cosines_vanish():
    for k in range(1, 51):
        assert trace(TrigPoly.cos(2 * k)).is_zero()


def test_trace_squares():
    half = PiValue.of(Fraction(1, 2))
    assert trace(mul(C, C)) == half
    assert trace(mul(S, S)) == half
    assert trace(mul(C, C)) + trace(mul(S, S)) == PI_ONE


@pytest.mark.parametrize("seed", range(6))
def test_trace_matches_quadrature(seed):
    rng = random.Random(200 + seed)
    f = rand_poly(rng)
    want, err = quad(f.eval_numeric, 0.0, math.pi / 2)
    got = trace(f).eval_numeric() * (math.pi / 2)
    assert got == pytest.approx(want, abs=1e-9 + 10 * err)


@pytest.mark.parametrize("seed", range(10))
def test_trace_positivity_numeric(seed):
    rng = random.Random(300 + seed)
    f = rand_poly(rng)
    assert trace(mul(f, f)).eval_numeric() >= -1e-12


def test_pivalue_arithmetic_and_zero_test():
    lam = PiValue.lam(1)
    v = lam * lam * 4 + PiValue.of(Fraction(1, 2))
    assert v.coeff(2) == 4
    assert v.coeff(0) == Fraction(1, 2)
    assert (v - v).is_zero()
    assert v.eval_numeric() == pytest.approx(0.5 + 4 / math.pi**2)
    assert str(PI_ZERO) == "0"
    assert str(lam) == "L"
    assert str(-lam) == "-L"
    assert str(v) == "1/2 + 4*L^2"


def test_eval_numeric_examples():
    assert PI_ZERO.eval_numeric() == 0.0
    assert PiValue.lam(1).eval_numeric() == pytest.approx(0.3183098861837907)
    assert PiValue.of(Fraction(1, 2)).eval_numeric() == 0.5


def test_parse_trig_encoding():
    from freeprod.trigalg import parse_trig

    assert parse_trig("c") == C
    assert parse_trig("s[3]") == TrigPoly.sin(3)
    assert parse_trig("1/2 + 1/2*c[2]") == mul(C, C)
    assert parse_trig("c*s") == mul(C, S)
    assert parse_trig("-s + 2*c") == TrigPoly.sin(1, -1) + TrigPoly.cos(1, 2)
    assert parse_trig("c*s*(c*c - 1/2)*s") == \
        mul(mul(mul(C, S), mul(C, C) - TrigPoly.const(Fraction(1, 2))), S)


def test_parse_trig_errors():
    from freeprod.trigalg import parse_trig

    with pytest.raises(ValueError):
        parse_trig("c s")  # juxtaposition is not a product
    with pytest.raises(ValueError):
        parse_trig("(c")
    with pytest.raises(ValueError):
        parse_trig("q")
    with pytest.raises(ValueError):
        parse_trig("3/")


# -- the integer PiValue against the Fraction-dict oracle -----------------------


class DictPiValue:
    """The Fraction-dict PiValue that the integer one replaced, kept as an
    independent oracle: one Fraction per degree, zeros dropped."""

    def __init__(self, coeffs=None):
        self._coeffs = {int(deg): Fraction(q) for deg, q in dict(coeffs or {}).items()
                        if Fraction(q)}
        self._key = tuple(sorted(self._coeffs.items()))

    def items(self):
        return iter(self._key)

    def coeff(self, deg):
        return self._coeffs.get(deg, Fraction(0))

    def __bool__(self):
        return bool(self._coeffs)

    def __add__(self, other):
        d = dict(self._coeffs)
        for deg, q in other._coeffs.items():
            d[deg] = d.get(deg, Fraction(0)) + q
        return DictPiValue(d)

    def __neg__(self):
        return DictPiValue({deg: -q for deg, q in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        d = {}
        for d1, q1 in self._coeffs.items():
            for d2, q2 in other._coeffs.items():
                d[d1 + d2] = d.get(d1 + d2, Fraction(0)) + q1 * q2
        return DictPiValue(d)

    def __eq__(self, other):
        return self._key == other._key

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for deg, q in self._key:
            if deg == 0:
                body = str(q)
            else:
                lpow = "L" if deg == 1 else f"L^{deg}"
                body = lpow if q == 1 else "-" + lpow if q == -1 else f"{q}*{lpow}"
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
        return out


_rationals = st.builds(Fraction, st.integers(-30, 30),
                       st.integers(1, 12) | st.integers(-12, -1))
_coeff_dicts = st.dictionaries(st.integers(0, 3), _rationals, max_size=4)


def _agrees(got: PiValue, want: DictPiValue) -> None:
    assert str(got) == str(want)
    assert list(got.items()) == list(want.items())
    assert all(type(q) is Fraction for _, q in got.items())
    assert [got.coeff(d) for d in range(8)] == [want.coeff(d) for d in range(8)]
    assert bool(got) == bool(want) == (not got.is_zero())


@settings(deadline=None, database=None, max_examples=300)
@given(_coeff_dicts, _coeff_dicts, _rationals, st.integers(-5, 5))
def test_pivalue_agrees_with_fraction_oracle(da, db, q, n):
    a, b = PiValue(da), PiValue(db)
    oa, ob = DictPiValue(da), DictPiValue(db)
    _agrees(a, oa)
    _agrees(a + b, oa + ob)
    _agrees(a - b, oa - ob)
    _agrees(-a, -oa)
    _agrees(a * b, oa * ob)
    _agrees(a * q, oa * DictPiValue({0: q}))
    _agrees(q * a, oa * DictPiValue({0: q}))
    _agrees(n + a, oa + DictPiValue({0: n}))
    _agrees(q - a, DictPiValue({0: q}) - oa)
    assert (a == b) == (oa == ob)
    assert (a == q) == (oa == DictPiValue({0: q}))
    # equal values built along different routes hash equal
    for x, y in ((a + b - b, a), (a * b, b * a), ((a + b) * a, a * a + b * a)):
        assert x == y
        assert hash(x) == hash(y)


def test_pivalue_rejects_negative_degree():
    with pytest.raises(ValueError):
        PiValue({-1: 1})
    with pytest.raises(ValueError):
        PiValue.lam(1, -2)


# -- sympy as an independent oracle for trace ------------------------------------


def _sympy_poly(f: TrigPoly, theta):
    import sympy as sp

    out = sp.Integer(0)
    for (kind, k), q in f.items():
        wave = sp.cos(k * theta) if kind == "c" else sp.sin(k * theta)
        out += sp.Rational(q.numerator, q.denominator) * wave
    return out


@pytest.mark.parametrize("seed", range(3))
def test_trace_matches_sympy_integral(seed):
    """(2/pi) times the integral over [0, pi/2] of f*g, with the product
    and the integral both done by sympy on complex exponentials, equals
    trace(mul(f, g)) at L = 1/pi.  sympy's product-to-sum (fu.TR8) is the
    algorithm of mul itself, so the route goes through exp instead."""
    import sympy as sp

    rng = random.Random(400 + seed)
    f, g = rand_poly(rng), rand_poly(rng)
    theta = sp.Symbol("theta", real=True)
    integrand = (_sympy_poly(f, theta) * _sympy_poly(g, theta)).rewrite(sp.exp)
    want = 2 / sp.pi * sp.integrate(sp.expand(integrand), (theta, 0, sp.pi / 2))
    got = sum((sp.Rational(q.numerator, q.denominator) / sp.pi**deg
               for deg, q in trace(mul(f, g)).items()), sp.Integer(0))
    assert sp.simplify(sp.expand(want - got)) == 0


# -- the one-regex parse_trig against the character-loop parser it replaced ------


def reference_parse_trig(text: str) -> TrigPoly:
    """The parser that the one-regex ``parse_trig`` replaced, verbatim with
    its tokenizer below.  It read digits with ``str.isdigit`` and ``int``.

    Parse the text encoding of a trig polynomial.

    Grammar: sums/differences of terms; a term is a product of factors
    joined by an explicit ``*`` (no juxtaposition); a factor is a rational
    ``p/q``, one of ``c``, ``s``, ``c[k]``, ``s[k]``, or a parenthesized
    subexpression.  Examples: ``1/2 + 1/2*c[2]``, ``c*s - 3/2*s[4]``.

    Text nested deeper than ``MAX_TRIG_DEPTH`` levels is rejected before
    parsing starts, and a product of more than ``MAX_TRIG_TERMS`` pairs of
    terms before it is multiplied out, both with ``ValueError``.
    """
    tokens = reference_trig_tokenize(text)
    depth = 0
    for tok in tokens:
        if tok == "(":
            depth += 1
            if depth > MAX_TRIG_DEPTH:
                raise ValueError(
                    f"trig expression nests deeper than {MAX_TRIG_DEPTH} levels")
        elif tok == ")":
            depth -= 1
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def advance():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def parse_expr() -> TrigPoly:
        negate = False
        if peek() in ("+", "-"):
            negate = advance() == "-"
        total = parse_term()
        if negate:
            total = -total
        while peek() in ("+", "-"):
            op = advance()
            term = parse_term()
            total = total - term if op == "-" else total + term
        return total

    def parse_term() -> TrigPoly:
        out = parse_factor()
        while peek() == "*":
            advance()
            factor = parse_factor()
            pairs = len(out._terms) * len(factor._terms)
            if pairs > MAX_TRIG_TERMS:
                raise ValueError(
                    f"trig product multiplies {pairs} pairs of terms, "
                    f"more than {MAX_TRIG_TERMS}")
            out = out * factor
        return out

    def parse_factor() -> TrigPoly:
        tok = advance()
        if tok == "(":
            inner = parse_expr()
            if advance() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        if isinstance(tok, Fraction):
            return TrigPoly.const(tok)
        if isinstance(tok, tuple):
            kind, k = tok
            return TrigPoly.cos(k) if kind == "c" else TrigPoly.sin(k)
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    result = parse_expr()
    if peek() is not None:
        raise ValueError(f"trailing input in trig expression {text!r}")
    return result


def reference_trig_tokenize(text: str):
    """The character-loop tokenizer of ``reference_parse_trig``, verbatim."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*()":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            i = j
            if i < n and text[i] == "/":
                i += 1
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                if j == i:
                    raise ValueError(f"missing denominator in {text!r}")
                den = int(text[i:j])
                if not den:
                    raise ValueError(f"zero denominator in {text!r}")
                out.append(Fraction(num, den))
                i = j
            else:
                out.append(Fraction(num))
        elif ch in "cs":
            kind = ch
            i += 1
            k = 1
            if i < n and text[i] == "[":
                j = text.find("]", i)
                if j < 0:
                    raise ValueError(f"missing ']' in {text!r}")
                k = int(text[i + 1:j])
                i = j + 1
            out.append((kind, k))
        else:
            raise ValueError(f"unexpected character {ch!r} in trig expression")
    out.append(None)
    return out


def _poly_or_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return "ValueError"


def _reads_alike(text):
    """ASCII, and only ASCII digits between each '[' and the next ']': the
    reference's ``int`` then reads exactly what the token rule reads."""
    return text.isascii() and all(inside.isdigit() or not inside
                                  for inside in re.findall(r"\[([^\]]*)", text))


# Grammar pieces, signs, ASCII junk, and the characters that ``int`` and
# ``str.isdigit`` accept but the token rule refuses: a non-ASCII digit, a
# superscript digit and the underscore.
_TRIG_PIECES = ["c", "s", "c[", "s[", "[", "]", "c[2]", "s[10]", "0", "3", "12", "1/2", "/",
                "+", "-", "*", "(", ")", " ", "\t", "q", "\u0663", "\u00b2", "_"]
_WELL_FORMED_TRIG = st.recursive(
    st.sampled_from(["c", "s", "c[3]", "s[2]", "c[0]", "1/2", "3", "0", "007/4"]),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map("({0[0]} + {0[1]})".format),
        st.tuples(sub, sub).map("({0[0]} - {0[1]})".format),
        st.tuples(sub, sub).map("{0[0]}*{0[1]}".format),
        sub.map("(-{})".format)),
    max_leaves=8)
_TRIG_TEXT = st.one_of(st.text(st.characters(max_codepoint=127), max_size=20),
                       st.lists(st.sampled_from(_TRIG_PIECES), max_size=16).map("".join),
                       _WELL_FORMED_TRIG)


@settings(deadline=None, database=None, max_examples=600)
@given(_TRIG_TEXT)
def test_parse_trig_agrees_with_reference(text):
    """Where both read digits alike, the same TrigPoly or both ValueError;
    anywhere else the token rule refuses the text."""
    got = _poly_or_error(parse_trig, text)
    if _reads_alike(text):
        assert got == _poly_or_error(reference_parse_trig, text)
    else:
        assert got == "ValueError"


@pytest.mark.parametrize("text", ["c[\u0663]", "c[1_0]", "c[+3]", "s[-3]", "c[ 3]",
                                  "1/\u0662", "\u0663", "(c*\u0663)"])
def test_parse_trig_refuses_what_int_was_lenient_about(text):
    """The reference read these as other polynomials."""
    assert isinstance(reference_parse_trig(text), TrigPoly)
    with pytest.raises(ValueError):
        parse_trig(text)
