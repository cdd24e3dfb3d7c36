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
                              TrigPoly, _frac, _signed_sum, mul, parse_trig, trace)


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


@pytest.mark.parametrize("deg", [1.9, 1.0, True, "1", Fraction(1)])
def test_pivalue_degree_must_be_an_int(deg):
    """A degree is an int, not a value that int() rounds (1.9 read as L)."""
    with pytest.raises(TypeError):
        PiValue({deg: 1})
    with pytest.raises(TypeError):
        PiValue.lam(1, deg)
    assert str(PiValue({1: 1})) == "L"


@pytest.mark.parametrize("k", [1.5, 1.0, False, "1", Fraction(1)])
def test_trigpoly_index_must_be_an_int(k):
    """An index is an int, not a value that int() rounds (c[1.5] read as c)."""
    for kind in ("c", "s"):
        with pytest.raises(TypeError):
            TrigPoly({(kind, k): 1})
    with pytest.raises(TypeError):
        TrigPoly.cos(k)
    with pytest.raises(TypeError):
        TrigPoly.sin(k)
    assert TrigPoly({("c", 1): 1}) == TrigPoly.cos(1)


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


# -- the integer TrigPoly against the Fraction-dict one it replaced --------------


class ReferenceTrigPoly:
    """The Fraction-dict ``TrigPoly`` that the common-denominator one
    replaced, verbatim with its ``_fold_term``, ``mul`` and ``trace`` below
    but for the names.

    sum a_k cos(k theta) + sum b_k sin(k theta), rational, finitely many.

    Terms are keyed ('c', k) with k >= 0 and ('s', k) with k >= 1; zero
    coefficients are never stored, so equality and hashing are canonical.
    The functions are real-valued, hence self-adjoint.
    """

    __slots__ = ("_terms", "_key")

    def __init__(self, terms=None):
        d = {}
        if terms:
            for (kind, k), q in dict(terms).items():
                if type(k) is not int:
                    raise TypeError(f"trig index must be an int, got {type(k).__name__}")
                reference_fold_term(d, kind, k, _frac(q))
        self._terms = d
        self._key = tuple(sorted(d.items()))

    @classmethod
    def zero(cls) -> "ReferenceTrigPoly":
        return cls()

    @classmethod
    def const(cls, q) -> "ReferenceTrigPoly":
        return cls({("c", 0): _frac(q)})

    @classmethod
    def cos(cls, k: int = 1, q=1) -> "ReferenceTrigPoly":
        return cls({("c", k): _frac(q)})

    @classmethod
    def sin(cls, k: int = 1, q=1) -> "ReferenceTrigPoly":
        return cls({("s", k): _frac(q)})

    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return iter(self._key)

    def __add__(self, other):
        other = reference_as_trig(other)
        d = dict(self._terms)
        for key, q in other._terms.items():
            d[key] = d.get(key, Fraction(0)) + q
        return ReferenceTrigPoly(d)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceTrigPoly({key: -q for key, q in self._terms.items()})

    def __sub__(self, other):
        return self + (-reference_as_trig(other))

    def __rsub__(self, other):
        return reference_as_trig(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return ReferenceTrigPoly({key: c * q for key, c in self._terms.items()})
        other = reference_as_trig(other)
        return reference_mul(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ReferenceTrigPoly.const(other)
        if not isinstance(other, ReferenceTrigPoly):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        return _signed_sum((q, None if kind == "c" and k == 0
                            else kind if k == 1 else f"{kind}[{k}]")
                           for (kind, k), q in self._key)


def reference_as_trig(x) -> ReferenceTrigPoly:
    if isinstance(x, ReferenceTrigPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return ReferenceTrigPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to TrigPoly")


def reference_fold_term(d: dict, kind: str, k: int, q: Fraction) -> None:
    # cos is even, sin is odd; sin(0) = 0.
    if kind == "c":
        if k < 0:
            k = -k
    elif kind == "s":
        if k < 0:
            k, q = -k, -q
        if k == 0:
            return
    else:
        raise ValueError(f"unknown term kind {kind!r}")
    if not q:
        return
    key = (kind, k)
    new = d.get(key, Fraction(0)) + q
    if new:
        d[key] = new
    else:
        d.pop(key, None)


def reference_mul(f: ReferenceTrigPoly, g: ReferenceTrigPoly) -> ReferenceTrigPoly:
    """Exact product via product-to-sum:

        cos a cos b = (cos(a-b) + cos(a+b)) / 2
        sin a sin b = (cos(a-b) - cos(a+b)) / 2
        sin a cos b = (sin(a+b) + sin(a-b)) / 2
        cos a sin b = (sin(a+b) - sin(a-b)) / 2

    Negative indices fold back by parity.
    """
    half = Fraction(1, 2)
    d: dict = {}
    for (k1, a), q1 in f._terms.items():
        for (k2, b), q2 in g._terms.items():
            q = q1 * q2 * half
            if k1 == "c" and k2 == "c":
                reference_fold_term(d, "c", a - b, q)
                reference_fold_term(d, "c", a + b, q)
            elif k1 == "s" and k2 == "s":
                reference_fold_term(d, "c", a - b, q)
                reference_fold_term(d, "c", a + b, -q)
            elif k1 == "s" and k2 == "c":
                reference_fold_term(d, "s", a + b, q)
                reference_fold_term(d, "s", a - b, q)
            else:  # cos * sin
                reference_fold_term(d, "s", a + b, q)
                reference_fold_term(d, "s", a - b, -q)
    return ReferenceTrigPoly(d)


def reference_trace(f: ReferenceTrigPoly) -> PiValue:
    """(2/pi) * integral of f over [0, pi/2], exactly, as an element of Q[L].

    For k >= 1:
        (2/pi) int cos(k t) dt = (2/k) sin(k pi/2) * L
        (2/pi) int sin(k t) dt = (2/k) (1 - cos(k pi/2)) * L
    and sin(k pi/2), cos(k pi/2) take values in {0, +1, -1} by k mod 4,
    so the result has degree <= 1 in L.
    """
    const = Fraction(0)
    lam = Fraction(0)
    for (kind, k), q in f._terms.items():
        if kind == "c":
            if k == 0:
                const += q
            else:
                r = k % 4
                if r == 1:
                    lam += q * Fraction(2, k)
                elif r == 3:
                    lam -= q * Fraction(2, k)
        else:
            r = k % 4
            if r == 2:
                lam += q * Fraction(4, k)
            elif r % 2 == 1:
                lam += q * Fraction(2, k)
    return PiValue({0: const, 1: lam})


# Coefficients as the constructor takes them: ints, Fractions and "p/q" text.
_trig_coeffs = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds("{}/{}".format, st.integers(-12, 12), st.integers(1, 12)))


@st.composite
def _trig_term_dicts(draw):
    """Term dicts over c[k], s[k] with negative indices and c[0]; sometimes
    a term and its mirror c[-k] / s[-k] cancel after folding."""
    d = draw(st.dictionaries(st.tuples(st.sampled_from("cs"), st.integers(-7, 7)),
                             _trig_coeffs, max_size=5))
    if d and draw(st.booleans()):
        (kind, k), q = next(iter(d.items()))
        q = _frac(q)
        d[(kind, -k)] = (-q if kind == "c" else q) + (0 if k else -q)
    return d


def _same_poly(got: TrigPoly, want: ReferenceTrigPoly) -> None:
    assert list(got.items()) == list(want.items())
    assert all(type(q) is Fraction for _, q in got.items())
    assert str(got) == str(want)
    assert got.is_zero() == want.is_zero()
    assert trace(got) == reference_trace(want)
    assert str(trace(got)) == str(reference_trace(want))


@settings(deadline=None, database=None, max_examples=300)
@given(_trig_term_dicts(), _trig_term_dicts(), _trig_coeffs, st.integers(-5, 5))
def test_trigpoly_agrees_with_fraction_reference(da, db, q, n):
    a, b = TrigPoly(da), TrigPoly(db)
    ra, rb = ReferenceTrigPoly(da), ReferenceTrigPoly(db)
    q = _frac(q)
    _same_poly(a, ra)
    _same_poly(b, rb)
    _same_poly(a + b, ra + rb)
    _same_poly(a - b, ra - rb)
    _same_poly(-a, -ra)
    _same_poly(a * q, ra * q)
    _same_poly(q * a, q * ra)
    _same_poly(a * n, ra * n)
    _same_poly(n - a, n - ra)
    _same_poly(a + q, ra + q)
    _same_poly(a * b, ra * rb)
    _same_poly(mul(b, a), reference_mul(rb, ra))
    _same_poly(mul(a, a), reference_mul(ra, ra))
    assert (a == b) == (ra == rb)
    assert (a == q) == (ra == q)
    assert (a == n) == (ra == n)
    # equal values built along different routes are one representation
    for x, y in ((a + b - b, a), (mul(a, b), mul(b, a)), (mul(a + b, a), mul(a, a) + mul(b, a))):
        assert x == y
        assert hash(x) == hash(y)


def test_trigpoly_error_messages_unchanged():
    for bad in ({("x", 1): 1}, {("c", 1.0): 1}, {("c", 1): 1.5}, {("s", 0): None}):
        for cls in (TrigPoly, ReferenceTrigPoly):
            with pytest.raises((TypeError, ValueError)) as err:
                cls(bad)
            if cls is TrigPoly:
                want = err
            else:
                assert (err.type, str(err.value)) == (want.type, str(want.value))
    for build in (lambda cls: cls.cos(1.5), lambda cls: cls.sin(1, 1.5),
                  lambda cls: cls.const(None), lambda cls: cls.cos(1) + 1.5):
        errs = []
        for cls in (TrigPoly, ReferenceTrigPoly):
            with pytest.raises(TypeError) as err:
                build(cls)
            errs.append(str(err.value))
        assert errs[0] == errs[1]


def test_product_to_sum_all_four_kinds():
    """One product per pair of kinds, with both index orders."""
    s2, s3, c2, c3 = (TrigPoly.sin(2), TrigPoly.sin(3), TrigPoly.cos(2), TrigPoly.cos(3))
    h = Fraction(1, 2)
    assert mul(c3, c2) == TrigPoly.cos(1, h) + TrigPoly.cos(5, h)
    assert mul(s3, s2) == TrigPoly.cos(1, h) - TrigPoly.cos(5, h)
    assert mul(s3, c2) == TrigPoly.sin(5, h) + TrigPoly.sin(1, h)
    assert mul(s2, c3) == TrigPoly.sin(5, h) - TrigPoly.sin(1, h)
    assert mul(c3, s2) == TrigPoly.sin(5, h) - TrigPoly.sin(1, h)
    assert mul(c2, s3) == TrigPoly.sin(5, h) + TrigPoly.sin(1, h)
    assert mul(s2, s2) == TrigPoly.const(h) - TrigPoly.cos(4, h)


def test_trigpoly_is_stored_in_lowest_terms():
    """A product and a sum that land on an integer polynomial store it over
    the denominator 1, as the constructor does."""
    assert mul(C, C) * 2 - 1 == TrigPoly.cos(2)
    for f in (mul(C, C) * 2 - 1, mul(S, S) * 4 + mul(C, C) * 4, TrigPoly.cos(2, Fraction(4, 2))):
        assert f._den == 1
        assert hash(f) == hash(TrigPoly(dict(f.items())))


def test_trace_weights_by_index_mod_4():
    lam = {1: 2, 2: 0, 3: -2, 4: 0, 5: 2, 7: -2}
    for k, w in lam.items():
        assert trace(TrigPoly.cos(k)) == PiValue.lam(Fraction(w, k))
    sin = {1: 2, 2: 4, 3: 2, 4: 0, 6: 4}
    for k, w in sin.items():
        assert trace(TrigPoly.sin(k)) == PiValue.lam(Fraction(w, k))
    assert trace(TrigPoly.cos(3) + TrigPoly.cos(1) * 3 + 5) == PiValue({0: 5, 1: Fraction(16, 3)})


# -- a constant hashes as the rational it equals ---------------------------------


@settings(deadline=None, database=None, max_examples=200)
@given(st.one_of(st.integers(-50, 50), _rationals))
def test_constants_hash_as_their_rational(q):
    for value in (PiValue.of(q), TrigPoly.const(q), PiValue.of(q) + PiValue.lam(1) - PiValue.lam(1),
                  mul(TrigPoly.const(q), TrigPoly.const(2)) * Fraction(1, 2)):
        assert value == q
        assert hash(value) == hash(q) == hash(Fraction(q))
        assert len({value, q}) == 1
    assert len({PI_ZERO, 0}) == len({TrigPoly.zero(), 0}) == 1
    assert hash(TrigPoly.cos(0)) == hash(1)
