"""Exact trigonometric polynomials on [0, pi/2] and the scalar ring Q[L].

A TrigPoly is a finite rational combination of cos(k*theta) (k >= 0) and
sin(k*theta) (k >= 1).  Products reduce through the product-to-sum
identities, so this span is closed under multiplication and the arithmetic
stays exact.  The normalized trace is (2/pi) * integral over [0, pi/2];
its values are polynomials in L = 1/pi with rational coefficients,
represented by PiValue.  Because 1/pi is transcendental, a PiValue is zero
iff every coefficient is zero, which makes "this trace vanishes" an exactly
decidable statement.

Both classes store a value in one layout: integer numerators keyed by term
(the degree of L, or ('c', k) and ('s', k)), sorted by key, over one
positive common denominator, in lowest terms.  One base class holds that
layout and the arithmetic that does not read a key: the sum, negation,
equality, hashing and the coercion of ints and Fractions.  A zero value of
either class is falsy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
import math
import re


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def _signed_sum(terms) -> str:
    """The text of a sum of (coefficient, name) terms, name None for the
    constant term: ``q``, ``name``, ``-name`` or ``q*name`` per term, a
    negative term joined by `` - ``, the others by `` + ``; "0" when there
    are no terms."""
    out = ""
    for q, name in terms:
        if name is None:
            body = str(q)
        elif q == 1:
            body = name
        elif q == -1:
            body = "-" + name
        else:
            body = f"{q}*{name}"
        if not out:
            out = body
        elif body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out or "0"


class _Exact:
    """A finite rational combination of terms, stored as (key, numerator)
    pairs sorted by key over one positive common denominator, in lowest
    terms (the denominator and the numerators have no common factor) and
    with no zero numerator, so each value has exactly one representation.
    Sums and products work on the integers and reduce once by a gcd,
    Henrici's common-denominator arithmetic (Knuth, TAOCP vol. 2, section
    4.5.1).  ``_CONST`` is the key of the constant term.  Immutable."""

    __slots__ = ("_terms", "_den")

    def __init__(self, d: dict):
        # d maps canonical keys to ints and Fractions
        den = lcm(*(q.denominator for q in d.values()))
        self._terms = tuple(sorted((key, q.numerator * (den // q.denominator))
                                   for key, q in d.items() if q))
        self._den = den

    @classmethod
    def _make(cls, terms: tuple, den: int):
        """A value from terms and a denominator already in canonical form."""
        v = object.__new__(cls)
        v._terms = terms
        v._den = den
        return v

    @classmethod
    def _reduced(cls, d: dict, den: int):
        """Canonical form of the numerators ``d`` (key -> int) over ``den``:
        drop the zeros, divide out the common factor, sort by key."""
        terms = [(key, n) for key, n in d.items() if n]
        if not terms:
            return cls._make((), 1)
        g = gcd(den, *d.values())
        if g != 1:
            terms = [(key, n // g) for key, n in terms]
            den //= g
        terms.sort()
        return cls._make(tuple(terms), den)

    @classmethod
    def _coerce(cls, x):
        """x itself, or an int or Fraction x as the constant x."""
        if isinstance(x, cls):
            return x
        if isinstance(x, (int, Fraction)):
            return cls._make(((cls._CONST, x.numerator),) if x else (), x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to {cls.__name__}")

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self):
        den = self._den
        return ((key, Fraction(n, den)) for key, n in self._terms)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        da, db = self._den, other._den
        if da == db:
            sa = sb = 1
        else:
            g = gcd(da, db)
            sa, sb = db // g, da // g
        if len(a) == 1 and len(b) == 1:
            # one term each: most sums in the walks add two constants
            (ka, x), = a
            (kb, y), = b
            if ka == kb:
                n = x * sa + y * sb
                den = da * sa
                g = gcd(n, den)
                return self._make(((ka, n // g),) if n else (), den // g)
        d = dict(a) if sa == 1 else {key: n * sa for key, n in a}
        for key, n in b:
            d[key] = d.get(key, 0) + n * sb
        return self._reduced(d, da * sa)

    __radd__ = __add__

    def __neg__(self):
        return self._make(tuple([(key, -n) for key, n in self._terms]), self._den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        return self._terms == other._terms and self._den == other._den

    def __hash__(self):
        # A constant hashes as its rational, which it equals.
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1 and terms[0][0] == self._CONST:
            return hash(Fraction(terms[0][1], self._den))
        return hash((terms, self._den))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class PiValue(_Exact):
    """An element of Q[L], L standing for 1/pi, keyed by the degree of L."""

    __slots__ = ()
    _CONST = 0

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for deg, q in dict(coeffs).items():
                if type(deg) is not int:
                    raise TypeError(f"L-degree must be an int, got {type(deg).__name__}")
                if deg < 0:
                    raise ValueError(f"negative L-degree {deg}")
                d[deg] = _frac(q)
        super().__init__(d)

    @classmethod
    def of(cls, q) -> "PiValue":
        return cls({0: _frac(q)})

    @classmethod
    def lam(cls, q=1, deg: int = 1) -> "PiValue":
        """q * L^deg."""
        return cls({deg: _frac(q)})

    def coeff(self, deg: int) -> Fraction:
        for key, n in self._terms:
            if key == deg:
                return Fraction(n, self._den)
        return Fraction(0)

    def __mul__(self, other):
        if other.__class__ is not PiValue:
            other = PiValue._coerce(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return PI_ZERO
        if len(a) == 1 and len(b) == 1:
            # most products in the walks have a factor of 1
            if a == ((0, 1),) and self._den == 1:
                return other
            if b == ((0, 1),) and other._den == 1:
                return self
            (i, x), = a
            (j, y), = b
            den = self._den * other._den
            n = x * y
            g = gcd(n, den)
            return PiValue._make(((i + j, n // g),), den // g)
        d: dict = {}
        for i, x in a:
            for j, y in b:
                d[i + j] = d.get(i + j, 0) + x * y
        return PiValue._reduced(d, self._den * other._den)

    # Bound here because perfbench's tracer wraps these seven by name in the
    # class's own __dict__.
    __add__, __radd__, __sub__, __rsub__, __neg__ = (
        _Exact.__add__, _Exact.__add__, _Exact.__sub__, _Exact.__rsub__, _Exact.__neg__)
    __rmul__ = __mul__

    def eval_numeric(self) -> float:
        """Substitute L = 1/pi.  Diagnostics only, never used for zero tests."""
        lam = 1.0 / math.pi
        return float(sum(float(q) * lam**deg for deg, q in self.items()))

    def __str__(self):
        return _signed_sum((q, None if deg == 0 else "L" if deg == 1 else f"L^{deg}")
                           for deg, q in self.items())


PI_ZERO = PiValue()
PI_ONE = PiValue.of(1)


class TrigPoly(_Exact):
    """sum a_k cos(k theta) + sum b_k sin(k theta), rational, finitely many.

    Terms are keyed ('c', k) with k >= 0 and ('s', k) with k >= 1.
    Products reduce through the product-to-sum identities on the integers
    and divide by one gcd.  The functions are real-valued, hence
    self-adjoint.
    """

    __slots__ = ()
    _CONST = ("c", 0)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for key, q in dict(terms).items():
                kind, k = key
                if type(k) is not int:
                    raise TypeError(f"trig index must be an int, got {type(k).__name__}")
                if type(q) is not int:
                    q = _frac(q)
                # cos is even, sin is odd; sin(0) = 0.
                if kind == "s":
                    if k == 0:
                        continue
                    if k < 0:
                        q = -q
                elif kind != "c":
                    raise ValueError(f"unknown term kind {kind!r}")
                if q:
                    # a canonical key is stored as given, so the caller's
                    # tuple is shared rather than copied
                    if k < 0 or key.__class__ is not tuple:
                        key = (kind, -k if k < 0 else k)
                    d[key] = d.get(key, 0) + q
        super().__init__(d)

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls()

    @classmethod
    def const(cls, q) -> "TrigPoly":
        return cls({("c", 0): q if type(q) is int else _frac(q)})

    @classmethod
    def cos(cls, k: int = 1, q=1) -> "TrigPoly":
        return cls({("c", k): q if type(q) is int else _frac(q)})

    @classmethod
    def sin(cls, k: int = 1, q=1) -> "TrigPoly":
        return cls({("s", k): q if type(q) is int else _frac(q)})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._reduced({key: n * other.numerator for key, n in self._terms},
                                 self._den * other.denominator)
        return mul(self, self._coerce(other))

    __rmul__ = __mul__

    def eval_numeric(self, theta: float) -> float:
        total = 0.0
        for (kind, k), q in self.items():
            f = math.cos if kind == "c" else math.sin
            total += float(q) * f(k * theta)
        return total

    def __str__(self):
        return _signed_sum((q, None if kind == "c" and k == 0
                            else kind if k == 1 else f"{kind}[{k}]")
                           for (kind, k), q in self.items())


def mul(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Exact product via product-to-sum:

        cos a cos b = (cos(a-b) + cos(a+b)) / 2
        sin a sin b = (cos(a-b) - cos(a+b)) / 2
        sin a cos b = (sin(a+b) + sin(a-b)) / 2
        cos a sin b = (sin(a+b) - sin(a-b)) / 2

    Negative indices fold back by parity.  The numerators multiply as
    integers over the denominator 2 * f's * g's, reduced once at the end.
    """
    d: dict = {}
    get = d.get
    for (k1, a), x in f._terms:
        for (k2, b), y in g._terms:
            n = x * y
            if k1 == k2:
                key = ("c", a - b if a >= b else b - a)
                d[key] = get(key, 0) + n
                key = ("c", a + b)
                d[key] = get(key, 0) + (n if k1 == "c" else -n)
            else:
                key = ("s", a + b)
                d[key] = get(key, 0) + n
                # sin(a-b) for sin a cos b, -sin(a-b) = sin(b-a) for cos a sin b
                e = a - b if k1 == "s" else b - a
                if e > 0:
                    key = ("s", e)
                    d[key] = get(key, 0) + n
                elif e < 0:
                    key = ("s", -e)
                    d[key] = get(key, 0) - n
    return TrigPoly._reduced(d, 2 * f._den * g._den)


def trace(f: TrigPoly) -> PiValue:
    """(2/pi) * integral of f over [0, pi/2], exactly, as an element of Q[L].

    For k >= 1:
        (2/pi) int cos(k t) dt = (2/k) sin(k pi/2) * L
        (2/pi) int sin(k t) dt = (2/k) (1 - cos(k pi/2)) * L
    and sin(k pi/2), cos(k pi/2) take values in {0, +1, -1} by k mod 4,
    so the result has degree <= 1 in L.  The L coefficient is summed over
    the least common multiple of the indices, as integers.
    """
    const = 0
    weighted = []  # (numerator * weight, k) of the terms with an L part
    for (kind, k), n in f._terms:
        if kind == "c":
            if k == 0:
                const = n
            else:
                r = k % 4
                if r == 1:
                    weighted.append((2 * n, k))
                elif r == 3:
                    weighted.append((-2 * n, k))
        else:
            r = k % 4
            if r == 2:
                weighted.append((4 * n, k))
            elif r % 2 == 1:
                weighted.append((2 * n, k))
    if not weighted:
        return PiValue._reduced({0: const}, f._den)
    m = lcm(*(k for _, k in weighted))
    lam = sum(n * (m // k) for n, k in weighted)
    return PiValue._reduced({0: const * m, 1: lam}, f._den * m)


# Deepest nesting of parentheses that ``parse_trig`` accepts.  The parser
# recurses three frames per level, so the deepest accepted text takes about
# 300 of Python's default 1000 frames.
MAX_TRIG_DEPTH = 100

# Most pairs of terms that one product in ``parse_trig`` may multiply; an
# n-term by an m-term polynomial is n*m pairs, and each pair gives at most
# two terms.  A chain c[1]*c[2]*c[4]*... doubles its terms with every
# factor, so it is rejected at the 15th factor, before that product is
# formed; the 14 factors before it make 8192 terms.
MAX_TRIG_TERMS = 4096


# One token per match, after any whitespace: an operator, a rational p or
# p/q, or c, s, c[k], s[k].  Numbers are ASCII, so ``int`` reads every one.
# A ``c[`` or ``s[`` that is not followed by ASCII digits and ``]`` matches
# only BAD, as does any other character but whitespace; trailing whitespace
# matches nothing.
_TRIG_TOKEN = re.compile(r"""\s*(?:
    (?P<OP>[-+*()]) | (?P<RAT>(?P<P>[0-9]+)(?:/(?P<Q>[0-9]*))?)
  | (?P<WAVE>(?P<KIND>[cs])(?:\[(?P<K>[0-9]+)\]|(?!\[))) | (?P<BAD>[cs]\[|\S))""",
                         re.VERBOSE)


def is_trig_atom(text: str) -> bool:
    """Whether ``text`` is exactly one rational or one c, s, c[k], s[k]."""
    m = _TRIG_TOKEN.fullmatch(text)
    return m is not None and m.lastgroup in ("RAT", "WAVE")


def parse_trig(text: str) -> TrigPoly:
    """Parse the text encoding of a trig polynomial.

    Grammar: sums/differences of terms; a term is a product of factors
    joined by an explicit ``*`` (no juxtaposition); a factor is a rational
    ``p/q``, one of ``c``, ``s``, ``c[k]``, ``s[k]``, or a parenthesized
    subexpression.  Examples: ``1/2 + 1/2*c[2]``, ``c*s - 3/2*s[4]``.

    Text nested deeper than ``MAX_TRIG_DEPTH`` levels is rejected while it
    is tokenized, before parsing starts, and a product of more than
    ``MAX_TRIG_TERMS`` pairs of terms before it is multiplied out, both
    with ``ValueError``.
    """
    toks: list = []  # operators as text, atoms as TrigPoly, None at the end
    depth = 0
    for m in _TRIG_TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m[kind]
        if kind == "OP":
            if tok == "(":
                depth += 1
                if depth > MAX_TRIG_DEPTH:
                    raise ValueError(
                        f"trig expression nests deeper than {MAX_TRIG_DEPTH} levels")
            elif tok == ")":
                depth -= 1
        elif kind == "RAT":
            den = m["Q"]
            if den == "":
                raise ValueError(f"missing ASCII-digit denominator in {text!r}")
            if den and not int(den):
                raise ValueError(f"zero denominator in {text!r}")
            tok = TrigPoly.const(Fraction(int(m["P"]), int(den or 1)))
        elif kind == "WAVE":
            k = int(m["K"] or 1)
            tok = TrigPoly.cos(k) if m["KIND"] == "c" else TrigPoly.sin(k)
        elif tok[1:] == "[":
            raise ValueError(f"missing ']' or an index that is not ASCII digits "
                             f"after {tok!r} in {text!r}")
        else:
            raise ValueError(f"unexpected character {tok!r} in trig expression")
        toks.append(tok)
    toks.append(None)
    i = 0

    def parse_expr() -> TrigPoly:
        nonlocal i
        negate = toks[i] == "-"
        if negate or toks[i] == "+":
            i += 1
        total = parse_term()
        if negate:
            total = -total
        while toks[i] in ("+", "-"):
            op = toks[i]
            i += 1
            term = parse_term()
            total = total - term if op == "-" else total + term
        return total

    def parse_term() -> TrigPoly:
        nonlocal i
        out = parse_factor()
        while toks[i] == "*":
            i += 1
            factor = parse_factor()
            pairs = len(out._terms) * len(factor._terms)
            if pairs > MAX_TRIG_TERMS:
                raise ValueError(
                    f"trig product multiplies {pairs} pairs of terms, "
                    f"more than {MAX_TRIG_TERMS}")
            out = out * factor
        return out

    def parse_factor() -> TrigPoly:
        nonlocal i
        tok = toks[i]
        i += 1
        if isinstance(tok, TrigPoly):
            return tok
        if tok == "(":
            inner = parse_expr()
            if toks[i] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            i += 1
            return inner
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    result = parse_expr()
    if toks[i] is not None:
        raise ValueError(f"trailing input in trig expression {text!r}")
    return result
