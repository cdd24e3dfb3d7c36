"""Free-product expressions: the node classes, their exact free dimension
and the parser.

Expressions are built from the atoms C (scalars), LZ (one Haar unitary),
R (the hyperfinite factor), LF(t) (interpolated free factors, t rational,
t = 0 meaning C, otherwise t >= 1), the uniform two-summand direct sum
(+), 2x2 amplification M2(.), and the free product *.  Sugar: A^k for a
balanced k-summand sum and Mk(...) for iterated M2, k a power of two.

The free dimension is

    fdim(C) = 0          fdim(LZ) = fdim(R) = 1       fdim(LF_t) = t
    fdim(A (+) B) = (fdim A + fdim B)/4 + 1/2
    fdim(M2(B))   = 1 + (fdim B - 1)/4
    fdim(A * B)   = fdim A + fdim B

and each node computes its own once, when it is built.  The rewrite engine,
``freeprod.freedim``, reads the nodes; nothing here reads the engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, log10
from operator import itemgetter
import re
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

from .record import FrozenRecord


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnsupportedFragmentError(ValueError):
    """Syntactically valid but outside the dyadic fragment."""


# ---------------------------------------------------------------------------
# Expression trees


# A free dimension as the nodes and the engine hold it: a reduced
# (numerator, denominator) pair of ints, denominator positive.  ``fdim`` and
# the step log turn it into a Fraction.
Pair = Tuple[int, int]


def _add(p: Pair, q: Pair) -> Pair:
    """p + q in lowest terms, as ``Fraction`` adds (Knuth, TAOCP vol. 2,
    4.5.1).  With g = gcd(d1, d2) and s = d1/g, the sum is t/(s d2) for
    t = n1 (d2/g) + n2 s, and gcd(t, s d2) = gcd(t, g)."""
    (n1, d1), (n2, d2) = p, q
    if d1 == d2:
        n = n1 + n2
        if d1 == 1:
            return n, 1
        g = gcd(n, d1)
        return n // g, d1 // g
    g = gcd(d1, d2)
    if g == 1:
        return n1 * d2 + n2 * d1, d1 * d2
    s = d1 // g
    t = n1 * (d2 // g) + n2 * s
    g2 = gcd(t, g)
    return t // g2, s * (d2 // g2)


def _m2_fdim(inner: Pair) -> Pair:
    """fdim(M2(B)) = 1 + (fdim B - 1)/4 = (fdim B + 3)/4.  For a reduced n/d,
    gcd(n + 3d, d) = gcd(n, d) = 1, so only gcd(n + 3d, 4) divides out."""
    n, d = inner
    a = n + 3 * d
    g = gcd(a, 4)
    return a // g, 4 * d // g


def _sum_fdim(left: Pair, right: Pair) -> Pair:
    """fdim(A (+) B) = (fdim A + fdim B)/4 + 1/2 = (fdim A + fdim B + 2)/4,
    reduced as in ``_m2_fdim``."""
    n, d = _add(left, right)
    a = n + 2 * d
    g = gcd(a, 4)
    return a // g, 4 * d // g


def _product_fdim(factors: Iterable[Expr]) -> Pair:
    it = iter(factors)
    p = next(it)._fdim
    for f in it:
        p = _add(p, f._fdim)
    return p


# The Fraction of each fdim pair, and the LF atom of each parameter pair, made
# so far.  Both are pure functions of the pair, so one object per
# pair serves every caller; a table that reaches ``_TABLE_LIMIT`` entries
# starts again empty, which bounds its memory in a long-lived process.
_FRACTIONS: Dict[Pair, Fraction] = {}
_LF_ATOMS: Dict[Pair, AtomLF] = {}
_TABLE_LIMIT = 1 << 16


def _fraction(p: Pair) -> Fraction:
    """The shared Fraction of a pair, for the public boundary: ``fdim``,
    the step log and the parameter of an LF atom."""
    q = _FRACTIONS.get(p)
    if q is None:
        if len(_FRACTIONS) >= _TABLE_LIMIT:
            _FRACTIONS.clear()
        q = _FRACTIONS[p] = Fraction(*p)
    return q


def _lf_atom(p: Pair) -> AtomLF:
    """The shared LF atom whose parameter has the reduced pair p."""
    atom = _LF_ATOMS.get(p)
    if atom is None:
        if len(_LF_ATOMS) >= _TABLE_LIMIT:
            _LF_ATOMS.clear()
        atom = _LF_ATOMS[p] = AtomLF(_fraction(p))
    return atom


# Node kinds, one small int per class, on which the engine dispatches.  The
# atoms come first, so ``kind < _K_M2`` marks an atom.
_K_C, _K_LZ, _K_R, _K_LF, _K_M2, _K_SUM, _K_FREE = range(7)

# Factor shapes, one small int each, under which the rule table sees a factor;
# ``_SHAPE_NAMES`` spells them, and its first three are the normal-form cores.
_SHAPE_NAMES = ("C", "R", "LF", "LF(1)", "LF(t>1)", "sum", "matrix")
_S_C, _S_R, _S_LF, _S_LF1, _S_LFT, _S_SUM, _S_MAT = range(len(_SHAPE_NAMES))


class Expr(FrozenRecord):
    """A fragment expression.  Each node computes six values once, when it
    is built, from its children's: ``_fdim``, its free dimension by the
    formulas of the module docstring as a reduced (numerator, denominator)
    pair of ints; ``_text``; ``_size``, the number of nodes in its tree;
    ``_shapes``, the ``_S_*`` shapes under which the rule table sees it as
    a factor (none for LZ and products, which are never factors of a
    reduction); ``_canon``, true when its tree holds no LZ, no LF(0), no LF
    parameter that is not a ``Fraction`` and no product nested in a
    product, so that canonicalizing leaves it as it is; and ``_reducible``,
    true when its tree holds a product or an M2 directly around an
    M2(LF(t)) with t > 1, the only subtrees that reducing changes.  They
    live outside ``_fields``, so ==, hash and repr ignore them.  Each class
    sets ``_kind``, one of the ``_K_*`` ints, and the flag ``_grouped``
    marks sums and products, whose text an operand puts in parentheses.

    The nodes store their fields and cached values with one
    ``vars(self).update``, which builds a node faster than one
    ``object.__setattr__`` per value (see ``freeprod.record``)."""

    __slots__ = ()
    _shapes: Tuple[int, ...] = ()
    _grouped = False
    _size = 1
    _canon = True
    _reducible = False


class AtomC(Expr):
    _kind = _K_C
    _fdim = (0, 1)
    _text = "C"
    _shapes = (_S_C,)


class AtomLZ(Expr):
    _kind = _K_LZ
    _fdim = (1, 1)
    _text = "LZ"
    _canon = False


class AtomR(Expr):
    _kind = _K_R
    _fdim = (1, 1)
    _text = "R"
    _shapes = (_S_R,)


class AtomLF(Expr):
    _fields = ("t",)
    _kind = _K_LF

    def __init__(self, t: Fraction):
        n, d = t.numerator, t.denominator
        vars(self).update(t=t, _fdim=(n, d), _text=f"LF({n})" if d == 1 else f"LF({n}/{d})",
                          _shapes=(_S_LF, _S_LF1 if n == d else _S_LFT),
                          _canon=n >= d and type(t) is Fraction)  # t >= 1, as d > 0


class Mat2Of(Expr):
    _fields = ("inner",)
    _kind = _K_M2
    _shapes = (_S_MAT,)

    def __init__(self, inner: Expr):
        vars(self).update(inner=inner, _fdim=_m2_fdim(inner._fdim),
                          _text=f"M2({inner._text})", _size=1 + inner._size,
                          _canon=inner._canon,
                          _reducible=inner._reducible or _is_compression(inner))


class SumOf(Expr):
    _fields = ("left", "right")
    _kind = _K_SUM
    _shapes = (_S_SUM,)
    _grouped = True

    def __init__(self, left: Expr, right: Expr):
        vars(self).update(left=left, right=right, _fdim=_sum_fdim(left._fdim, right._fdim),
                          _text=f"{_wrapped(left)} (+) {_wrapped(right)}",
                          _size=1 + left._size + right._size,
                          _canon=left._canon and right._canon,
                          _reducible=left._reducible or right._reducible)


class FreeOf(Expr):
    _fields = ("factors",)
    _kind = _K_FREE
    _grouped = True
    _reducible = True

    def __init__(self, factors: Sequence[Expr]):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("free product needs at least two factors")
        size, canon = 1, True
        for f in factors:
            size += f._size
            canon = canon and f._canon and f._kind != _K_FREE
        vars(self).update(factors=factors, _fdim=_product_fdim(factors),
                          _text=_product_text(factors), _size=size, _canon=canon)


def _is_compression(e: Expr) -> bool:
    """Whether e is M2(LF(t)) with t > 1, which decompresses inside an
    enclosing M2 (rule R6inv)."""
    if e._kind != _K_M2:
        return False
    inner = e.inner
    return inner._kind == _K_LF and inner._fdim[0] > inner._fdim[1]


def _wrapped(e: Expr) -> str:
    """The text of e as an operand: sums and products in parentheses."""
    return f"({e._text})" if e._grouped else e._text


def _product_text(factors: Iterable[Expr]) -> str:
    return " * ".join(map(_wrapped, factors))


def _flatten(factors: Iterable[Expr]) -> List[Expr]:
    """Free-product factors with the factors of nested products spliced in."""
    return [g for f in factors for g in (f.factors if f._kind == _K_FREE else (f,))]


# The most digits an integer in an error message is written with; a longer
# one is written as its digit count, so a message stays one short line.
MAX_SHOWN_DIGITS = 40


def _int_text(n: int) -> str:
    """n in decimal, or its digit count when it has more than
    MAX_SHOWN_DIGITS digits; counted without ``str``, which refuses an
    integer longer than ``int`` reads."""
    m = abs(n)
    if m < 10 ** MAX_SHOWN_DIGITS:
        return str(n)
    digits = max(int((m.bit_length() - 1) * log10(2)) - 1, MAX_SHOWN_DIGITS)
    while 10 ** digits <= m:
        digits += 1
    return f"{'-' if n < 0 else ''}<{digits}-digit integer>"


def lf(t) -> AtomLF:
    t = Fraction(t)
    return _checked_lf((t.numerator, t.denominator))


def _checked_lf(p: Pair) -> AtomLF:
    """The LF atom of the reduced pair p, which must be 0 or >= 1."""
    n, d = p
    if n < 0 or 0 < n < d:
        value = _int_text(n) if d == 1 else f"{_int_text(n)}/{_int_text(d)}"
        raise UnsupportedFragmentError(f"LF parameter must be 0 or >= 1, got {value}")
    return _lf_atom(p)


def pow2sum(e: Expr, k: int) -> Expr:
    """Balanced k-summand uniform sum, k a power of two.  A sum of more
    than ``MAX_EXPR_SIZE`` nodes is refused before any node is built."""
    _check_sum_size(e, k)
    if k < 1 or k & (k - 1):
        raise UnsupportedFragmentError(f"sum power must be a power of two, got {_int_text(k)}")
    if k == 1:
        return e
    half = pow2sum(e, k // 2)
    return SumOf(half, half)


def matpow(e: Expr, k: int) -> Expr:
    """k x k amplification as iterated M2, k a power of two.  More than
    ``MAX_EXPR_DEPTH`` levels of M2 are refused before any is built."""
    if k < 2 or k & (k - 1):
        raise UnsupportedFragmentError(
            f"matrix size must be a power of two >= 2, got {_int_text(k)}")
    _check_depth(k.bit_length() - 1)
    out = e
    while k > 1:
        out = Mat2Of(out)
        k //= 2
    return out


def _checked_expr(e: Expr) -> Expr:
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return e


def expr_text(e: Expr) -> str:
    return _checked_expr(e)._text


def fdim(e: Expr) -> Fraction:
    """Exact free dimension of a fragment expression."""
    return _fraction(_checked_expr(e)._fdim)


# ---------------------------------------------------------------------------
# Parser


# Largest expanded tree, in nodes, that ``parse`` accepts.  On a 2-core
# x86 machine with Python 3.11, whose speed varies with the shared load, a
# first ``normalize`` in a fresh process (median and range of 15 processes)
# takes 0.010 s (0.010-0.012) for C^2048 * C^2048 (8191 nodes, 12281
# steps), since it repeats factor lists, and 0.019 s (0.018-0.020) for a
# product of 1000 distinct M2(LF(t)) factors (2001 nodes).  The factor
# index keeps a flat product from reclassifying its factors every round:
# 8191 factors R (16381 steps) take 0.13 s (0.12-0.21), or 0.16 s
# (0.15-0.20) with seed 1, and 8191 factors LF(3/2) take 0.10 s (0.10-0.11).
MAX_EXPR_SIZE = 8192


def _check_size(size: int) -> int:
    if size > MAX_EXPR_SIZE:
        raise UnsupportedFragmentError(
            f"expression expands to {_int_text(size)} nodes, more than {MAX_EXPR_SIZE}")
    return size


def _check_sum_size(e: Expr, k: int) -> None:
    """The size rule of ``pow2sum(e, k)``: k copies of e and k - 1 sums."""
    _check_size(k * e._size + k - 1)


# Largest height of the expanded tree, and deepest nesting of parentheses
# and Mk groups (log2 k levels each), that ``parse`` accepts.  The parser
# and the engine recurse once per level: the deepest accepted expressions
# parse, normalize and print with about 500 of Python's default 1000
# frames.
MAX_EXPR_DEPTH = 100


def _check_depth(depth: int) -> int:
    if depth > MAX_EXPR_DEPTH:
        raise UnsupportedFragmentError(
            f"expression nests deeper than {MAX_EXPR_DEPTH} levels")
    return depth


# One token per match, after any whitespace: an operator, an ASCII integer,
# an ASCII name, or any other single character but whitespace, which is not
# a token and which ``_tokenize`` rejects.  Trailing whitespace matches
# nothing.  A match is a token exactly when its first character is in
# ``_TOKEN_STARTS``, and then the first character tells INT from NAME and
# ``int`` reads every INT.  The parser reads the token texts alone and asks
# ``_tokenize`` for positions only when it raises.
_TOKEN = re.compile(r"\s*(\(\+\)|[()*^/]|[0-9]+|[A-Za-z][A-Za-z0-9_]*|\S)")
_TOKEN_STARTS = frozenset("()*^/0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                          "abcdefghijklmnopqrstuvwxyz")
_first_char = itemgetter(0)
_OPERATORS = {"(+)": "DSUM", "(": "LPAREN", ")": "RPAREN", "*": "STAR", "^": "CARET",
              "/": "SLASH"}


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """The (kind, text, position) tokens of text, ending with EOF; it raises
    at the first character that starts no token."""
    out = []
    operator = _OPERATORS.get
    for m in _TOKEN.finditer(text):
        tok = m[1]
        if tok[0] not in _TOKEN_STARTS:
            raise ParseError(f"unexpected character {tok!r}", m.start(1))
        out.append((operator(tok) or ("INT" if tok[0] <= "9" else "NAME"), tok, m.start(1)))
    out.append(("EOF", "", len(text)))
    return out


# The longest integer literal ``int`` reads, or 0 for no limit (before Python
# 3.10.7 there is none).
_int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# One shared node per atom without parameters.
_ATOMS = {"C": AtomC(), "LZ": AtomLZ(), "R": AtomR()}


class _Parser:
    """Recursive descent over the token texts of one ``findall``, the empty
    text standing for EOF.  ``self.i`` is the index of the current token."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        if not _TOKEN_STARTS.issuperset(map(_first_char, self.toks)):
            _tokenize(text)  # raises at the first stray character
        self.toks.append("")
        self.i = 0
        self.open = 0

    def error(self, message: str, i: int) -> ParseError:
        """The error at token i, whose position is found only now."""
        return ParseError(message, _tokenize(self.text)[i][2])

    def expect(self, tok: str) -> None:
        """Pass over the operator ``tok``."""
        i = self.i
        self.i = i + 1
        if self.toks[i] != tok:
            raise self.error(f"expected {_OPERATORS[tok]}, found {self.toks[i]!r}", i)

    def expect_int(self) -> int:
        i = self.i
        self.i = i + 1
        tok = self.toks[i]
        if not tok.isdigit():  # ASCII, as every token is
            raise self.error(f"expected INT, found {tok!r}", i)
        return self.read_int(tok, i)

    def read_int(self, digits: str, i: int) -> int:
        """The integer of ``digits`` in token i, refused before ``int`` would
        refuse it."""
        limit = _int_digit_limit()
        if limit and len(digits) > limit:
            raise self.error(
                f"integer of {len(digits)} digits is longer than the limit of {limit}", i)
        return int(digits)

    # parse_* return the expression and the height of its expanded tree,
    # whose node count the expression caches.  ``self.open`` counts the
    # levels of the groups around the current token, one per parenthesis
    # and log2 k per Mk, so that deep nesting is rejected before the parser
    # recurses into it.

    def parse(self) -> Expr:
        e, _ = self.parse_free()
        tok = self.toks[self.i]
        if tok:
            raise self.error(f"unexpected trailing {tok!r}", self.i)
        _check_size(e._size)
        return e

    def parse_free(self) -> Tuple[Expr, int]:
        toks = self.toks
        first = self.parse_sum()
        if toks[self.i] != "*":
            return first
        factors = [first]
        while toks[self.i] == "*":
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
            while toks[self.i] == "^":
                self.i += 1
                k = self.expect_int()
                # both checked before pow2sum builds anything
                _check_sum_size(right, k)
                right_height = _check_depth(right_height + k.bit_length() - 1)
                right = pow2sum(right, k)
            if e is None:
                e, height = right, right_height
            else:
                height = _check_depth(1 + max(height, right_height))
                e = SumOf(e, right)
            if toks[self.i] != "(+)":
                return e, height
            self.i += 1

    def parse_group(self, levels: int) -> Tuple[Expr, int]:
        """The product up to the closing parenthesis, in a group of
        ``levels`` levels."""
        self.open = _check_depth(self.open + levels)
        parsed = self.parse_free()
        self.expect(")")
        self.open -= levels
        return parsed

    def parse_primary(self) -> Tuple[Expr, int]:
        i = self.i
        tok = self.toks[i]
        self.i = i + 1
        if tok == "(":
            return self.parse_group(1)
        atom = _ATOMS.get(tok)
        if atom is not None:
            return atom, 0
        if tok == "LF":  # LF(n) or LF(n/d)
            self.expect("(")
            at = self.i
            num, den = self.expect_int(), 1
            if self.toks[self.i] == "/":
                self.i += 1
                den = self.expect_int()
                if den == 0:
                    raise self.error("zero denominator", at)
            self.expect(")")
            g = gcd(num, den)
            return _checked_lf((num // g, den // g)), 0
        if tok[:1] == "M" and tok[1:].isdigit():
            k = self.read_int(tok[1:], i)
            self.expect("(")
            levels = max(k.bit_length() - 1, 1)  # matpow rejects k < 2
            e, height = self.parse_group(levels)
            return matpow(e, k), _check_depth(height + levels)
        if tok[:1].isalpha():
            raise self.error(f"unknown atom {tok!r}", i)
        raise self.error(f"expected an atom, found {tok!r}", i)


def parse(text: str) -> Expr:
    """Parse the expression grammar, expanding ^k and Mk sugar.  Text whose
    expanded tree has more than ``MAX_EXPR_SIZE`` nodes, or nests deeper than
    ``MAX_EXPR_DEPTH`` levels, is rejected before it is built."""
    return _Parser(text).parse()

