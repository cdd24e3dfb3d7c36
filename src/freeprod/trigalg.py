"""Exact trigonometric polynomials on [0, pi/2] and the scalar ring Q[L].

A TrigPoly is a finite rational combination of cos(k*theta) (k >= 0) and
sin(k*theta) (k >= 1).  Products reduce through the product-to-sum
identities, so this span is closed under multiplication and the arithmetic
stays exact.  The normalized trace is (2/pi) * integral over [0, pi/2];
its values are polynomials in L = 1/pi with rational coefficients,
represented by PiValue.  Because 1/pi is transcendental, a PiValue is zero
iff every coefficient is zero, which makes "this trace vanishes" an exactly
decidable statement.
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


class PiValue:
    """An element of Q[L], L standing for 1/pi.  Immutable.

    Stored as integer numerators indexed by degree over one positive common
    denominator, in lowest terms (the denominator and the numerators have
    no common factor) and with no trailing zero numerator, so each value
    has exactly one representation.  Sums and products work on the
    integers and reduce once by a gcd, Henrici's common-denominator
    arithmetic (Knuth, TAOCP vol. 2, section 4.5.1).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for deg, q in dict(coeffs).items():
                if type(deg) is not int:
                    raise TypeError(f"L-degree must be an int, got {type(deg).__name__}")
                if deg < 0:
                    raise ValueError(f"negative L-degree {deg}")
                q = _frac(q)
                if q:
                    d[deg] = q
        den = lcm(*(q.denominator for q in d.values()))
        num = [0] * (max(d) + 1 if d else 0)
        for deg, q in d.items():
            num[deg] = q.numerator * (den // q.denominator)
        self._num = tuple(num)
        self._den = den

    @classmethod
    def of(cls, q) -> "PiValue":
        return cls({0: _frac(q)})

    @classmethod
    def lam(cls, q=1, deg: int = 1) -> "PiValue":
        """q * L^deg."""
        return cls({deg: _frac(q)})

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def coeff(self, deg: int) -> Fraction:
        if 0 <= deg < len(self._num):
            return Fraction(self._num[deg], self._den)
        return Fraction(0)

    def items(self):
        den = self._den
        return ((deg, Fraction(n, den)) for deg, n in enumerate(self._num) if n)

    def __add__(self, other):
        if other.__class__ is not PiValue:
            other = _as_pi(other)
        a, b = self._num, other._num
        if not b:
            return self
        if not a:
            return other
        da, db = self._den, other._den
        if da == db:
            if len(a) == 1 and len(b) == 1:
                n = a[0] + b[0]
                if not n:
                    return PI_ZERO
                g = gcd(n, da)
                return _pi((n // g,), da // g)
            num = [x + y for x, y in zip(a, b)]
            den = da
        else:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            num = [x * sa + y * sb for x, y in zip(a, b)]
            den = da * sa
        if len(a) > len(b):
            num.extend(x * (den // da) for x in a[len(b):])
        elif len(b) > len(a):
            num.extend(y * (den // db) for y in b[len(a):])
        return _reduced(num, den)

    __radd__ = __add__

    def __neg__(self):
        return _pi(tuple(-x for x in self._num), self._den)

    def __sub__(self, other):
        return self + (-_as_pi(other))

    def __rsub__(self, other):
        return _as_pi(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not PiValue:
            other = _as_pi(other)
        a, b = self._num, other._num
        if not a or not b:
            return PI_ZERO
        den = self._den * other._den
        if len(a) == 1 and len(b) == 1:
            n = a[0] * b[0]
            g = gcd(n, den)
            return _pi((n // g,), den // g)
        num = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    num[i + j] += x * y
        return _reduced(num, den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiValue.of(other)
        if not isinstance(other, PiValue):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # A value of degree 0 hashes as its rational, which it equals.
        num = self._num
        if len(num) > 1:
            return hash((num, self._den))
        return hash(Fraction(num[0], self._den)) if num else 0

    def eval_numeric(self) -> float:
        """Substitute L = 1/pi.  Diagnostics only, never used for zero tests."""
        lam = 1.0 / math.pi
        return float(sum(float(q) * lam**deg for deg, q in self.items()))

    def __str__(self):
        return _signed_sum((q, None if deg == 0 else "L" if deg == 1 else f"L^{deg}")
                           for deg, q in self.items())

    def __repr__(self):
        return f"PiValue({self})"


def _pi(num: tuple, den: int) -> PiValue:
    """A PiValue from numerators and a denominator already in canonical
    form."""
    v = object.__new__(PiValue)
    v._num = num
    v._den = den
    return v


def _reduced(num: list, den: int) -> PiValue:
    """Canonical form of num / den: strip trailing zeros, divide out the
    common factor."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return PI_ZERO
    g = gcd(den, *num)
    if g != 1:
        return _pi(tuple(x // g for x in num), den // g)
    return _pi(tuple(num), den)


def _as_pi(x) -> PiValue:
    if isinstance(x, PiValue):
        return x
    if isinstance(x, int):
        return _pi((x,), 1) if x else PI_ZERO
    if isinstance(x, Fraction):
        return _pi((x.numerator,), x.denominator) if x else PI_ZERO
    raise TypeError(f"cannot coerce {type(x).__name__} to PiValue")


PI_ZERO = PiValue()
PI_ONE = PiValue.of(1)


class TrigPoly:
    """sum a_k cos(k theta) + sum b_k sin(k theta), rational, finitely many.

    Terms are keyed ('c', k) with k >= 0 and ('s', k) with k >= 1.  Stored
    as PiValue stores its values: integer numerators over one positive
    common denominator, in lowest terms, zero numerators dropped and the
    terms sorted by key, so each polynomial has exactly one representation.
    Products reduce through the product-to-sum identities on the integers
    and divide by one gcd.  The functions are real-valued, hence
    self-adjoint.
    """

    __slots__ = ("_terms", "_den")

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
        den = lcm(*(q.denominator for q in d.values()))
        self._terms = tuple(sorted((key, q.numerator * (den // q.denominator))
                                   for key, q in d.items() if q))
        self._den = den

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

    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        den = self._den
        return ((key, Fraction(n, den)) for key, n in self._terms)

    def __add__(self, other):
        if other.__class__ is not TrigPoly:
            other = _as_trig(other)
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
        d = dict(a) if sa == 1 else {key: n * sa for key, n in a}
        for key, n in b:
            d[key] = d.get(key, 0) + n * sb
        return _trig_reduced(d, da * sa)

    __radd__ = __add__

    def __neg__(self):
        return _trig(tuple((key, -n) for key, n in self._terms), self._den)

    def __sub__(self, other):
        return self + (-_as_trig(other))

    def __rsub__(self, other):
        return _as_trig(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _trig_reduced({key: n * other.numerator for key, n in self._terms},
                                 self._den * other.denominator)
        other = _as_trig(other)
        return mul(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TrigPoly.const(other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self._terms == other._terms and self._den == other._den

    def __hash__(self):
        # A constant hashes as its rational, which it equals.
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1 and terms[0][0] == _CONST_KEY:
            return hash(Fraction(terms[0][1], self._den))
        return hash((terms, self._den))

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

    def __repr__(self):
        return f"TrigPoly({self})"


_CONST_KEY = ("c", 0)  # the key of the constant term


def _trig(terms: tuple, den: int) -> TrigPoly:
    """A TrigPoly from sorted (key, numerator) terms and a denominator
    already in canonical form."""
    f = object.__new__(TrigPoly)
    f._terms = terms
    f._den = den
    return f


def _trig_reduced(d: dict, den: int) -> TrigPoly:
    """Canonical form of the numerators ``d`` (key -> int) over ``den``:
    drop the zeros, divide out the common factor, sort by key."""
    terms = [(key, n) for key, n in d.items() if n]
    if not terms:
        return _TRIG_ZERO
    g = gcd(den, *(n for _, n in terms))
    if g != 1:
        terms = [(key, n // g) for key, n in terms]
        den //= g
    terms.sort()
    return _trig(tuple(terms), den)


_TRIG_ZERO = _trig((), 1)


def _as_trig(x) -> TrigPoly:
    if isinstance(x, TrigPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return TrigPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to TrigPoly")


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
    return _trig_reduced(d, 2 * f._den * g._den)


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
        return _reduced([const], f._den)
    m = lcm(*(k for _, k in weighted))
    lam = sum(n * (m // k) for n, k in weighted)
    return _reduced([const * m, lam], f._den * m)


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
