"""Free-product expression calculus: parser, exact free-dimension
functional, and a term-rewriting normalizer producing M2^n(LF_t) forms.

Expressions are built from the atoms C (scalars), LZ (one Haar unitary),
R (the hyperfinite factor), LF(t) (interpolated free factors, t rational,
t = 0 meaning C, otherwise t >= 1), the uniform two-summand direct sum
(+), 2x2 amplification M2(.), and the free product *.  Sugar: A^k for a
balanced k-summand sum and Mk(...) for iterated M2, k a power of two.

The rewrite rules are exact isomorphisms of tracial von Neumann algebras;
each application is logged with its local fragment and free dimension on
both sides.  The free dimension satisfies

    fdim(C) = 0          fdim(LZ) = fdim(R) = 1       fdim(LF_t) = t
    fdim(A (+) B) = (fdim A + fdim B)/4 + 1/2
    fdim(M2(B))   = 1 + (fdim B - 1)/4
    fdim(A * B)   = fdim A + fdim B

and is conserved by every rule, which the engine asserts per step.

Each rule is stated once, in the ordered table ``_RULES``: its name, its
description and the shapes of the factors it takes; the table order is the
rule priority.  The seven pair rules R1-R5, R10 and R11 are one
construction.  A factor f brings parts and a weight w(f): A1 (+) A2 brings
A1, A2 and 1; M2(B) brings B and 2; LF(1) and R bring nothing and 3.  Then
a * b becomes M2(parts(a) * parts(b) * LF(w(a) + w(b) - 1)), which
conserves fdim because 4 fdim(f) = fdim(parts(f)) + w(f) + 1.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, log10
from operator import itemgetter
import random
import re
import sys
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .record import FrozenRecord, Record


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnsupportedFragmentError(ValueError):
    """Syntactically valid but outside the dyadic fragment."""


class NotReducibleError(ValueError):
    """The expression does not reduce to an M2^n(LF/C/R) normal form."""


class DivergenceError(RuntimeError):
    """Step limit exceeded; must never happen on the supported fragment."""


# ---------------------------------------------------------------------------
# Expression trees


# A free dimension inside the engine: a reduced (numerator, denominator)
# pair of ints, denominator positive.  ``fdim`` and the step log turn it into
# a Fraction.
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


# The Fraction of each fdim pair, and the LF atom of each parameter pair, that
# the engine has made.  Both are pure functions of the pair, so one object per
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
        raise UnsupportedFragmentError(f"sum power must be a power of two, got {k}")
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
# takes 0.018 s (0.017-0.025) for C^2048 * C^2048 (8191 nodes, 12281
# steps), since it repeats factor lists, and 0.034 s (0.033-0.040) for a
# product of 1000 distinct M2(LF(t)) factors (2001 nodes).  The factor
# index keeps a flat product from reclassifying its factors every round:
# 8191 factors R (16381 steps) take 0.21 s (0.15-0.22), or 0.35 s
# (0.26-0.43) with a seed, and 8191 factors LF(3/2) take 0.15 s (0.10-0.16).
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


# ---------------------------------------------------------------------------
# Normal forms and rewrite steps


class NormalForm(FrozenRecord):
    """M2^depth(core) with core one of LF(t >= 1), C, R."""

    _fields = ("depth", "core", "param")

    def __init__(self, depth: int, core: str, param: Optional[Fraction] = None):
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "param", param)

    def text(self) -> str:
        body = f"LF({self.param})" if self.core == "LF" else self.core
        return "M2(" * self.depth + body + ")" * self.depth

    def alias(self) -> Optional[Fraction]:
        """The fully decompressed parameter: LF(s) with the 2x2 compression
        inverted once per depth level, so s is the free dimension.  Defined
        when the core is LF with parameter > 1 and depth >= 1."""
        q = self.param
        if self.core != "LF" or q is None or q.numerator <= q.denominator or self.depth == 0:
            return None
        return self.fdim()

    def fdim(self) -> Fraction:
        """The free dimension: the M2 formula applied ``depth`` times to the
        reduced pair of the core."""
        q = self.param
        p = (q.numerator, q.denominator) if self.core == "LF" else _ATOMS[self.core]._fdim
        for _ in range(self.depth):
            p = _m2_fdim(p)
        return _fraction(p)

    def __str__(self):
        return self.text()


# A side of a logged step, as the engine hands it over: its text, a node, a
# tuple of factors for their product, or a list of factors for M2 of their
# product.
Side = Union[str, Expr, Tuple[Expr, ...], List[Expr]]


def _side_text(side: Side) -> str:
    if isinstance(side, Expr):
        return side._text
    if type(side) is list:
        return f"M2({_product_text(side)})"
    return _product_text(side)


class RewriteStep(Record):
    """One logged rule application.  ``before`` and ``after`` read the
    private slots ``_before`` and ``_after``, which hold a ``Side``: the
    engine logs nodes and factor sequences, and a side is rendered to its
    text on its first read and kept.  Most logs are never printed, so most
    sides are never rendered."""

    _fields = ("rule", "description", "path", "before", "after", "fdim_before", "fdim_after")
    __slots__ = ("rule", "description", "path", "_before", "_after", "fdim_before",
                 "fdim_after")

    def __init__(self, rule: str, description: str, path: Tuple[int, ...], before: Side,
                 after: Side, fdim_before: Fraction, fdim_after: Fraction):
        self.rule = rule
        self.description = description
        self.path = path
        self._before = before
        self._after = after
        self.fdim_before = fdim_before
        self.fdim_after = fdim_after

    @property
    def before(self) -> str:
        side = self._before
        if type(side) is not str:
            side = self._before = _side_text(side)
        return side

    # A Record's fields are assignable, so the sides keep their setters.
    @before.setter
    def before(self, text: str) -> None:
        self._before = text

    @property
    def after(self) -> str:
        side = self._after
        if type(side) is not str:
            side = self._after = _side_text(side)
        return side

    @after.setter
    def after(self, text: str) -> None:
        self._after = text

    def to_json(self) -> dict:
        return {**super().to_json(), "path": list(self.path),
                "fdim_before": str(self.fdim_before), "fdim_after": str(self.fdim_after)}


# The factor index of a factor list: for each ``_S_*`` shape, the sorted
# slots of the factors that have it.
Buckets = List[List[int]]


class _Rule(NamedTuple):
    text: str
    shapes: Tuple[int, ...] = ()
    gate: Optional[Callable[[Buckets], bool]] = None


def _has_sum_or_matrix(buckets: Buckets) -> bool:
    return bool(buckets[_S_SUM] or buckets[_S_MAT])


# In priority order.  A pair rule whose two shapes agree takes two distinct
# factors of that shape.  R14 and R6inv take no factors: they fire while
# canonicalizing and when collapsing an M2 shell.
_RULES: Dict[str, _Rule] = {
    "R13": _Rule("C * A -> A", (_S_C,)),
    "R8": _Rule("LF(t) * R -> LF(t + 1)", (_S_R, _S_LF)),
    "R10": _Rule("R * (A1 (+) A2) -> M2(A1 * A2 * LF(3))", (_S_R, _S_SUM)),
    "R11": _Rule("R * M2(B) -> M2(B * LF(4))", (_S_R, _S_MAT)),
    "R9": _Rule("R -> M2(R)", (_S_R,),
                lambda b: not b[_S_LF] and (len(b[_S_R]) > 1 or _has_sum_or_matrix(b))),
    "R1": _Rule("(A1 (+) A2) * (B1 (+) B2) -> M2(A1 * A2 * B1 * B2 * LF(1))",
                (_S_SUM, _S_SUM)),
    "R2": _Rule("(A1 (+) A2) * LF(1) -> M2(A1 * A2 * LF(3))", (_S_SUM, _S_LF1)),
    "R4": _Rule("(A1 (+) A2) * M2(B) -> M2(A1 * A2 * B * LF(2))", (_S_SUM, _S_MAT)),
    "R3": _Rule("M2(A) * M2(B) -> M2(A * B * LF(3))", (_S_MAT, _S_MAT)),
    "R5": _Rule("M2(A) * LF(1) -> M2(A * LF(4))", (_S_MAT, _S_LF1)),
    "R7": _Rule("LF(a) * LF(b) -> LF(a + b)", (_S_LF, _S_LF)),
    "R6": _Rule("LF(t) -> M2(LF(4t - 3)), t > 1", (_S_LFT,), _has_sum_or_matrix),
    "R12": _Rule("LF(1) -> LF(1) (+) LF(1)", (_S_LF1,), _has_sum_or_matrix),
    "R14": _Rule("LZ -> LF(1)"),
    "R6inv": _Rule("M2(LF(t)) -> LF(1 + (t - 1)/4), t > 1"),
}
_DESCRIPTIONS = {name: rule.text for name, rule in _RULES.items()}


def _unfold(f: Expr) -> Expr:
    """R9, R6 and R12: R or an LF atom as an M2 or a sum to pair with."""
    if f._kind == _K_R:
        return Mat2Of(f)
    n, d = f._fdim
    if n > d:
        # 4t - 3 = (4n - 3d)/d; gcd(4n - 3d, d) = gcd(4n, d) divides 4
        a = 4 * n - 3 * d
        g = gcd(a, d)
        return Mat2Of(_lf_atom((a // g, d // g)))
    one = _lf_atom((1, 1))
    return SumOf(one, one)


def _m2_share(f: Expr) -> Tuple[Tuple[Expr, ...], int]:
    """The parts and the weight a factor brings to an M2 pairing."""
    kind = f._kind
    if kind == _K_SUM:
        return (f.left, f.right), 1
    if kind == _K_M2:
        return (f.inner,), 2
    return (), 3  # LF(1) or R


def _factor_index(facs: Sequence[Optional[Expr]]) -> Buckets:
    """The buckets of a factor list, in which None marks a freed slot."""
    # one list per shape, written out: a display builds faster than a loop
    buckets: Buckets = [[], [], [], [], [], [], []]
    for i, f in enumerate(facs):
        if f is not None:
            for shape in f._shapes:
                buckets[shape].append(i)
    return buckets


def _candidate(shapes: Tuple[int, ...], buckets: Buckets, r: int) -> Tuple[int, int]:
    """The slots (i, j) of instance r of a rule taking ``shapes``, j = -1
    for a rule of one shape.  Instances are ordered as the slots of one
    shape, as ``combinations`` of the slots of one shape, or as the slots of
    the first shape, each with every slot of the second."""
    first = buckets[shapes[0]]
    if len(shapes) == 1:
        return first[r], -1
    if shapes[1] != shapes[0]:
        second = buckets[shapes[1]]
        q, r = divmod(r, len(second))
        return first[q], second[r]
    # Pair (a, b), a < b, of positions in ``first``: with m = 2n - 1, row a
    # holds n - 1 - a pairs and starts at a(m - a)/2.  Row a is the largest
    # a with a(m - a) <= 2r; the isqrt estimate is at most one too large.
    m = 2 * len(first) - 1
    a = (m - isqrt(m * m - 8 * r)) // 2
    while a * (m - a) > 2 * r:
        a -= 1
    return first[a], first[a + 1 + r - a * (m - a) // 2]


def _first_slot(buckets: Buckets) -> int:
    """The lowest occupied slot.  Every factor has a shape, so it is the
    first slot of some bucket."""
    return min([slots[0] for slots in buckets if slots])


# A rule instance the factor loop fires: the rule's name and the slots (i, j)
# of its factors, j = -1 for a rule of one shape.
Pick = Tuple[str, int, int]


def _pick(buckets: Buckets, rng: Optional[random.Random]) -> Optional[Pick]:
    """The rule instance a round of the factor loop fires, or None when no
    rule applies.  The instances are listed in table order, each rule's in
    ``_candidate``'s order and a gated rule's only while its gate holds: a
    rule of one shape has n, a pair of one shape C(n, 2) and any other pair
    n1 n2.  With no ``rng`` the first fires, read straight from the
    buckets; otherwise the one at ``rng.randrange`` of their number."""
    drawn = []
    for name, rule in _RULES.items():
        shapes = rule.shapes
        first = buckets[shapes[0]] if shapes else None
        if not first or (rule.gate is not None and not rule.gate(buckets)):
            continue
        n = len(first)
        if len(shapes) == 1:
            count, second = n, None
        else:
            second = buckets[shapes[1]]  # ``first`` itself for a pair of one shape
            count = n * (n - 1) // 2 if second is first else n * len(second)
        if not count:
            continue
        if rng is None:
            return name, first[0], (-1 if second is None else first[1] if second is first
                                    else second[0])
        drawn.append((name, shapes, count))
    if not drawn:
        return None
    r = rng.randrange(sum([count for _, _, count in drawn]))
    for name, shapes, count in drawn:
        if r < count:
            break
        r -= count
    return (name, *_candidate(shapes, buckets, r))


# A step of a plan: the method that fires it (``_apply_one`` or
# ``_apply_pair``), the rule's name and its slots (i, j), j the partner's slot
# for R13 and -1 for an unfold.
PlanStep = Tuple[Callable, str, int, int]

# The plans of deterministic derivations, keyed by the tuple of the factors'
# shapes, which fixes every pick (see ``Normalizer``).  Only lists of at most
# ``_PLAN_MAX_FACTORS`` factors are recorded, so that a list which does not
# recur, such as a flat product of thousands of factors, makes no key and no
# plan.  On a 2-core x86 machine with Python 3.11, replaying a plan took
# about 0.73 of the time of deriving by picks at every length from 3 to 64
# factors, and recording one cost 3-8 % of a derivation that never recurs.
# The lists that recur in the benchmark's rewrite pass and in the tables at
# their largest sizes (example61 at 11, prop62 at 4, 4, 4, 4) have 2-5
# factors.  In 20 interleaved in-process rounds of a full rewrite pass, with
# the table emptied before each, bounds 2, 3 and 4 took 1.18, 1.08 and 1.06
# of the time of bound 16, and bounds 5 and 8 the same as 16 (1.005 and
# 1.01); 5 is the smallest that gives it all.  The table starts again empty
# when it reaches ``_TABLE_LIMIT`` plans; a factor has one of six shape
# tuples, so lists of at most 5 factors make fewer than 10 000 keys, and the
# limit matters only for a larger bound.  Each step is one shared tuple from
# ``_PLAN_STEPS``, which as slots are below ``_PLAN_MAX_FACTORS`` holds a few
# hundred steps at most.
_PLANS: Dict[Tuple[Tuple[int, ...], ...], Tuple[PlanStep, ...]] = {}
_PLAN_STEPS: Dict[PlanStep, PlanStep] = {}
_PLAN_MAX_FACTORS = 5


class Normalizer:
    """Innermost-first reduction of free products to M2^n(LF_t) form.

    Each round of the factor loop fires one instance of the ``_RULES``
    table.  The instances are listed in table order; a ``seed`` draws among
    them from ``random.Random(seed)``, and with the default None the first
    fires, which makes derivations deterministic.  Four constructions carry
    out the rules: R13 drops a C factor; R9, R6 and R12 unfold one factor;
    R7 and R8 merge two atoms into an LF atom; R1-R5, R10 and R11 pair two
    factors inside one M2 by the weight rule of the module docstring.  A
    derivation longer than ``max_steps`` (by default 200 + 40 per node)
    raises ``DivergenceError``.  The directed unfoldings are gated so that
    both orders reach the same normal form:

    * R6 (compression of an LF atom) and R12 (doubling LF(1) into a sum)
      fire only when a sum or matrix factor is present to pair with;
    * R9 (R -> M2(R)) fires only when no LF atom is available for the
      direct absorption R8 and some co-factor (sum, matrix, or a second
      R) can consume the unfolded copy.

    A step is logged from each side and its fdim pair, and the two pairs
    are checked equal at every step.  A side is logged unrendered, as a
    node or as the factors of a product, and its text is rendered only
    when it is read (see ``RewriteStep``).  A pair rule computes its
    "before" pair from the two factors and its "after" pair from the parts
    and the LF weight by the M2 formula, so no node is built only to be
    logged, and a wrong weight still fails the check.  The log turns the
    pair into a Fraction.
    Every LF atom the engine makes, and every Fraction it logs, is taken
    from a module-level table keyed by the reduced pair, so equal
    parameters and equal fdims share one object across all calls.

    The verified tables read only the normal form, so they run the engine
    by ``_run(e, keep_log=False)``: the same derivation, each step checked
    for fdim conservation and spent from the budget, but no step kept.
    ``normalize`` runs it with ``keep_log=True``.

    The factor loop keeps an index instead of reclassifying the factors
    each round.  A factor keeps its slot, its position in the input list:
    a pair result takes the lower of its two slots and frees the other, an
    unfold stays in its slot, and R13 frees the slot of the C.  Slot order
    is therefore list order.  The index is a list of buckets, one per
    ``_S_*`` shape id, each holding the sorted slots of the factors that
    have that shape (a factor caches its shapes), updated at each step.  A
    round picks a ``Pick``, the rule's name and its slots (i, j), and fires
    it by ``_apply_pair`` when j >= 0, by ``_apply_one`` otherwise, which
    for R13 is given the slot of the partner, the lowest live slot.  One
    pick, ``_pick``, serves both kinds of run: it counts each rule's
    instances from the bucket sizes, in table order, and maps the instance
    fired, the first or the one drawn, back to its slots arithmetically.
    So one round costs O(number of rules) plus the bucket updates, and a
    seeded run makes the same ``randrange`` draws over the same instance
    order as listing every instance would.

    The deterministic picks of a factor list depend on nothing but the
    ``_shapes`` of its factors, in order.  A pick reads only which buckets
    are empty, their first two slots and, in R9's gate, whether two R
    factors are present; each result has a shape its rule fixes (M2 for
    the M2 pairings, R9 and R6, an LF atom of t >= 2 for R7 and R8, a sum
    for R12); and R13's partner is the lowest live slot.  So the module
    table ``_PLANS`` keeps, across runs, the steps the factor loop fired on
    a list, each a ``PlanStep`` with R13's partner slot in it, under the
    tuple of the list's shapes.  A later list with those shapes replays
    the plan: ``_apply_one`` and ``_apply_pair`` fire with no factor index,
    no pick and no bucket update, and log, check and spend each step as
    before.  Only lists of at most ``_PLAN_MAX_FACTORS`` factors are
    recorded, a list that raises records nothing, the table starts again
    empty at ``_TABLE_LIMIT`` plans, and seeded runs neither read nor write
    it.

    A deterministic derivation of a factor list depends on nothing but the
    factors, and balanced trees meet the same list many times.  Within one
    run, the first reduction of a factor list is remembered under the tuple
    of the factors' texts (the text of a tree determines the tree),
    together with the steps spent from the budget before and after it,
    which in a logging run are the bounds of its steps in the log.  A later
    reduction of the same list takes the result and spends the same number
    of steps, so the budget runs out at the step a full re-derivation
    reaches; a logging run also logs those steps again, their paths moved
    under its own path and their sides still unrendered.  Seeded runs
    derive every list afresh, so their random draws are unaffected.  After
    ``normalize``, ``memo_hits`` and ``memo_misses`` count the lists taken
    from and entered into the memo, and ``rule_counts`` the logged steps
    per rule.

    The engine dispatches on each node's ``_kind`` and reads its cached
    ``_size``, ``_fdim``, ``_text`` and ``_shapes``, so it never walks a
    tree only to measure it; canonicalizing returns at once a subtree whose
    ``_canon`` flag is set, and reducing passes over a subtree whose
    ``_reducible`` flag is unset.
    """

    def __init__(self, seed: Optional[int] = None, max_steps: Optional[int] = None):
        self.rng = random.Random(seed) if seed is not None else None
        self.max_steps = max_steps
        self.steps: List[RewriteStep] = []
        self.memo_hits = self.memo_misses = 0
        # the steps a run may take, and those it has spent
        self._budget = self._spent = 0
        self._keep_log = True
        # factor texts -> (result, length of the first path, steps spent
        # before and after its reduction)
        self._memo: Dict[Tuple[str, ...], Tuple[Expr, int, int, int]] = {}

    @property
    def rule_counts(self) -> Counter[str]:
        """The steps of the last ``normalize`` call per rule, in the order
        the rules first fired; after a ``DivergenceError``, those logged."""
        return Counter(s.rule for s in self.steps)

    # -- entries --------------------------------------------------------------

    def normalize(self, e: Expr) -> Tuple[NormalForm, List[RewriteStep]]:
        return self._run(e, True), self.steps

    def _run(self, e: Expr, keep_log: bool) -> NormalForm:
        """The normal form of e, with the steps logged in ``self.steps`` when
        ``keep_log`` is true, and none kept otherwise."""
        _checked_expr(e)
        self.steps = []
        self.memo_hits = self.memo_misses = 0
        self._keep_log = keep_log
        self._spent = 0
        self._budget = self.max_steps if self.max_steps is not None \
            else 200 + 40 * e._size
        try:
            e1 = self._canonicalize(e, ())
            red = self._reduce(e1, ())
        finally:
            self._memo.clear()
        depth = 0
        core = red
        while core._kind == _K_M2:
            depth += 1
            core = core.inner
        if core._kind not in (_K_LF, _K_C, _K_R):
            raise NotReducibleError(
                "expression reduces to "
                f"{expr_text(red)}, which is not of the form M2^n(LF/C/R)")
        param = core.t if core._kind == _K_LF else None
        return NormalForm(depth, _SHAPE_NAMES[core._shapes[0]], param)

    # -- helpers --------------------------------------------------------------

    def _log(self, rule: str, path: Tuple[int, ...], before: Side, fdim_before: Pair,
             after: Side, fdim_after: Pair) -> None:
        """Check one step's fdim conservation from the pairs of its two
        sides, which the caller computes independently of each other, spend
        it from the budget and, in a logging run, log it with its sides
        left unrendered."""
        if fdim_before != fdim_after:
            raise AssertionError(
                f"rule {rule} broke fdim conservation: "
                f"{_fraction(fdim_before)} != {_fraction(fdim_after)}")
        self._spent += 1
        if self._spent > self._budget:
            raise DivergenceError("rewrite step limit exceeded")
        if self._keep_log:
            q = _FRACTIONS.get(fdim_before)
            if q is None:
                q = _fraction(fdim_before)
            self.steps.append(RewriteStep(rule, _DESCRIPTIONS[rule], path, before, after, q, q))

    # _canonicalize and _reduce return a subtree they leave unchanged as the
    # same object, which keeps its cached fdim and text.

    def _canonicalize(self, e: Expr, path: Tuple[int, ...]) -> Expr:
        """LZ becomes LF(1) (rule R14); LF(0) is read as C by definition;
        nested products are spliced in.  A subtree whose ``_canon`` flag is
        unset always changes, so it is rebuilt."""
        if e._canon:
            return e
        kind = e._kind
        if kind == _K_FREE:
            return FreeOf([self._canonicalize(f, path + (i,))
                           for i, f in enumerate(_flatten(e.factors))])
        if kind == _K_SUM:
            return SumOf(self._canonicalize(e.left, path + (0,)),
                         self._canonicalize(e.right, path + (1,)))
        if kind == _K_M2:
            return Mat2Of(self._canonicalize(e.inner, path + (0,)))
        if kind == _K_LF:
            if e._fdim[0] == 0:
                return _ATOMS["C"]
            return lf(e.t)  # rejects t < 0 and 0 < t < 1, makes t a Fraction
        new = _lf_atom((1, 1))  # LZ
        self._log("R14", path, e, e._fdim, new, new._fdim)
        return new

    def _reduce(self, e: Expr, path: Tuple[int, ...]) -> Expr:
        """Reduce every product in e, innermost first, and decompress every
        M2(LF(t > 1)) directly inside an M2.  A child whose ``_reducible``
        flag is unset holds neither, so it is passed over without a call."""
        kind = e._kind
        if kind == _K_FREE:
            factors = [self._reduce(f, path + (i,)) if f._reducible else f
                       for i, f in enumerate(e.factors)]
            return self._reduce_factors(factors, path)
        if kind == _K_SUM:
            left, right = e.left, e.right
            if left._reducible:
                left = self._reduce(left, path + (0,))
            if right._reducible:
                right = self._reduce(right, path + (1,))
            return e if left is e.left and right is e.right else SumOf(left, right)
        if kind == _K_M2:
            inner = e.inner
            sub = path + (0,)
            if inner._reducible:
                inner = self._reduce(inner, sub)
            inner = self._collapse_shell(inner, sub)
            return e if inner is e.inner else Mat2Of(inner)
        return e

    def _collapse_shell(self, e: Expr, path: Tuple[int, ...]) -> Expr:
        """Inside an enclosing M2, a child M2(LF(t)) with t > 1 decompresses
        so that amplification depth concentrates in the outermost shell."""
        while _is_compression(e):
            # the new parameter 1 + (t - 1)/4 = (t + 3)/4 is the fdim of e
            new = _lf_atom(e._fdim)
            self._log("R6inv", path, e, e._fdim, new, new._fdim)
            e = new
        return e

    # -- the factor loop -------------------------------------------------------

    def _reduce_factors(self, factors: List[Expr], path: Tuple[int, ...]) -> Expr:
        if self.rng is not None:
            return self._derive(factors, path)
        key = tuple([f._text for f in factors])
        hit = self._memo.get(key)
        if hit is None:
            self.memo_misses += 1
            start = self._spent
            result = self._derive(factors, path)
            self._memo[key] = (result, len(path), start, self._spent)
            return result
        self.memo_hits += 1
        result, base, start, stop = hit
        if self._keep_log:
            # replay as _log would: the step that overruns the budget is not
            # logged, and the raw sides are copied, so that a replay renders
            # no text
            logged = self.steps[start:min(stop, start + self._budget - self._spent)]
            self.steps += [RewriteStep(s.rule, s.description, path + s.path[base:],
                                       s._before, s._after, s.fdim_before, s.fdim_after)
                           for s in logged]
        self._spent += stop - start
        if self._spent > self._budget:
            raise DivergenceError("rewrite step limit exceeded")
        return result

    def _derive(self, facs: List[Optional[Expr]], path: Tuple[int, ...]) -> Expr:
        """Reduce the factor list ``facs``, which it takes over: each slot
        holds its factor, or None once freed.  A deterministic run replays
        the plan of the list's shapes when ``_PLANS`` has one."""
        key = plan = None
        if self.rng is None and len(facs) <= _PLAN_MAX_FACTORS:
            key = tuple([f._shapes for f in facs])
            plan = _PLANS.get(key)
        if plan is None:
            self._fire_picks(facs, path, key)
        else:
            for fire, rule, i, j in plan:
                fire(self, rule, i, j, facs, path)
        for f in facs:  # the one factor left
            if f is not None:
                return f

    def _fire_picks(self, facs: List[Optional[Expr]], path: Tuple[int, ...],
                    key: Optional[Tuple[Tuple[int, ...], ...]]) -> None:
        """Reduce ``facs`` by picks from its factor index, which this keeps
        up to date; with a ``key``, record the steps fired as the plan of
        ``key`` once the list is reduced."""
        buckets = _factor_index(facs)
        rng = self.rng
        one, pair = Normalizer._apply_one, Normalizer._apply_pair
        steps: List[PlanStep] = []
        live = len(facs)
        while live > 1:
            picked = _pick(buckets, rng)
            if picked is None:
                raise NotReducibleError(
                    "no rule applies to " + _product_text([f for f in facs if f is not None]))
            rule, i, j = picked
            old = facs[i]
            for shape in old._shapes:
                slots = buckets[shape]
                del slots[bisect_left(slots, i)]
            if j < 0:
                fire, at = one, i
                if old._kind == _K_C:  # R13: the partner is the lowest live slot
                    j = _first_slot(buckets)
                    live -= 1
            else:
                for shape in facs[j]._shapes:
                    slots = buckets[shape]
                    del slots[bisect_left(slots, j)]
                fire, at = pair, i if i < j else j
                live -= 1
            fire(self, rule, i, j, facs, path)
            new = facs[at]
            if new is not None:
                for shape in new._shapes:
                    insort(buckets[shape], at)
            if key is not None:
                step = (fire, rule, i, j)
                steps.append(_PLAN_STEPS.setdefault(step, step))
        if key is not None:
            if len(_PLANS) >= _TABLE_LIMIT:
                _PLANS.clear()
            _PLANS[key] = tuple(steps)

    def _apply_one(self, rule: str, i: int, j: int, facs: List[Optional[Expr]],
                   path: Tuple[int, ...]) -> None:
        """Fire a one-factor rule at slot i: R13 frees the slot of the C
        there, whose partner is at slot j; an unfold (j = -1) stays in its
        slot."""
        old = facs[i]
        if j >= 0:  # R13
            facs[i] = None
            partner = facs[j]
            self._log(rule, path, (old, partner), _add(old._fdim, partner._fdim),
                      partner, partner._fdim)
        else:
            new = facs[i] = _unfold(old)
            self._log(rule, path, old, old._fdim, new, new._fdim)

    def _apply_pair(self, rule: str, i: int, j: int, facs: List[Optional[Expr]],
                    path: Tuple[int, ...]) -> None:
        """Fire a two-factor rule at slots i and j: the result takes the
        lower slot and the other is freed."""
        a, b = facs[i], facs[j]
        if a._kind >= _K_M2 or b._kind >= _K_M2:
            # R1-R5, R10, R11: the weight rule of the module docstring
            (parts_a, w_a), (parts_b, w_b) = _m2_share(a), _m2_share(b)
            inner = [*parts_a, *parts_b, _lf_atom((w_a + w_b - 1, 1))]
            # a copy, since _derive takes over ``inner`` and frees its slots
            self._log(rule, path, (a, b), _add(a._fdim, b._fdim),
                      inner[:], _m2_fdim(_product_fdim(inner)))
            sub = path + (0,)
            reduced = self._reduce_factors(inner, sub)
            if reduced._kind == _K_M2:
                reduced = self._collapse_shell(reduced, sub)
            replacement = Mat2Of(reduced)
        else:  # R7, R8: an LF atom absorbs LF(s) or R, adding its fdim s or 1
            atom, other = (a, b) if a._kind == _K_LF else (b, a)
            merged = _add(atom._fdim, other._fdim)
            replacement = _lf_atom(merged)
            self._log(rule, path, (atom, other), merged, replacement, replacement._fdim)
        if j < i:
            i, j = j, i
        facs[i], facs[j] = replacement, None


def normalize(e: Union[Expr, str],
              seed: Optional[int] = None) -> Tuple[NormalForm, List[RewriteStep]]:
    """Normalize an expression (or source text).  ``seed`` switches to a
    seeded random choice among simultaneously applicable rules, used by the
    confluence checks.  A ``Normalizer`` also takes a step budget, and its
    counts can be read after the call."""
    if isinstance(e, str):
        e = parse(e)
    return Normalizer(seed).normalize(e)


# ---------------------------------------------------------------------------
# Verified tables


class TableReport(Record):
    _fields = ("name", "rows", "failures")

    def __init__(self, name: str, rows: List[dict], failures: List[dict]):
        self.name = name
        self.rows = rows
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {**super().to_json(), "passed": self.passed}


# Largest n_max of ``example_61_sequence``.  Its largest row,
# C^(2^n_max) * C^(2^n_max), has 2^(n_max + 2) - 1 nodes, which must not
# exceed MAX_EXPR_SIZE: 11 for 8192 nodes.
EXAMPLE_61_MAX_N = (MAX_EXPR_SIZE + 1).bit_length() - 3


def example_61_sequence(n_max: int) -> TableReport:
    """Balanced scalar sums: C^(2^n) * C^(2^n) normalizes to M2(LF(a_n))
    with a_n = 5 - 4/2^(n-1) (so a_1 = 1, and the decompressed alias is
    LF(2 - 1/2^(n-1)) once a_n > 1); mixed sizes give
    C^(2^n) * C^(2^m) = M2(LF(5 - 2(1/2^(n-1) + 1/2^(m-1)))).  The row
    C^(2^n) * C^(2^m) has 2^(n+1) + 2^(m+1) - 1 nodes, so n_max is bounded,
    before any tree is built, by the parser's MAX_EXPR_SIZE.

    A row reads only the normal form, so the engine keeps no step log (see
    ``Normalizer``); each step is still checked for fdim conservation."""
    if not (1 <= n_max <= EXAMPLE_61_MAX_N):
        raise ValueError(f"n_max must be in 1..{EXAMPLE_61_MAX_N}: the row n = m = n_max "
                         f"has 2^(n_max + 2) - 1 nodes, at most {MAX_EXPR_SIZE}")
    engine = Normalizer()
    rows: List[dict] = []
    failures: List[dict] = []
    sizes = range(1, n_max + 1)
    for n, m in [(n, n) for n in sizes] + [(n, m) for n in sizes for m in sizes if n != m]:
        nf = engine._run(FreeOf([pow2sum(AtomC(), 2 ** n), pow2sum(AtomC(), 2 ** m)]),
                         keep_log=False)
        want = 5 - 2 * (Fraction(1, 2 ** (n - 1)) + Fraction(1, 2 ** (m - 1)))
        want_alias = 1 + (want - 1) / 4 if want > 1 else None
        alias = nf.alias()
        row = {"n": n, "m": m, "normal_form": nf.text(), "parameter": str(nf.param),
               "expected": str(want), "alias": None if alias is None else str(alias)}
        rows.append(row)
        if not (nf.depth == 1 and nf.core == "LF" and nf.param == want
                and alias == want_alias):
            failures.append(row)
    return TableReport("example61", rows, failures)


def prop_62_table(n_max: int, m_max: int, k_max: int, l_max: int) -> TableReport:
    """Dyadic sums and amplifications of interpolated free factors.

    Writing S(k, n) = (LF_k)^(2^n) and M(k, n) = M_{2^n}(LF_k), with
    LF_0 = C, the engine-normalized parameter must match:

        S(k,n) * S(l,m) -> M2(LF(5 + 2(k-1)/2^(n-1) + 2(l-1)/2^(m-1)))
        M(k,n) * S(l,m) -> M2(LF(5 + (k-1)/4^(n-1) + 2(l-1)/2^(m-1)))
        M(k,n) * M(l,m) -> M2(LF(5 + (k-1)/4^(n-1) + (l-1)/4^(m-1)))

    for 1 <= n <= n_max, 1 <= m <= m_max, 0 <= k <= k_max and
    0 <= l <= l_max.  n and m start at 1: with n = 0 a side is LF_k itself,
    neither a sum nor an amplification, and outside the formula.  A row
    reads only the normal form, so the engine keeps no step log (see
    ``Normalizer``); each step is still checked for fdim conservation.
    """
    for name, val, low in (("n_max", n_max, 1), ("m_max", m_max, 1),
                           ("k_max", k_max, 0), ("l_max", l_max, 0)):
        if not (low <= val <= 4):
            raise ValueError(f"{name} must be in {low}..4")
    engine = Normalizer()
    rows: List[dict] = []
    failures: List[dict] = []
    # A side: its builder of S or M from LF_k and 2^n, and the c and b of
    # its term c(k - 1)/b^(n - 1) in the parameter.
    sums, mats = (pow2sum, 2, 2), (matpow, 1, 4)
    for label, (left, lc, lb), (right, rc, rb) in (
            ("sum*sum", sums, sums), ("mat*sum", mats, sums), ("mat*mat", mats, mats)):
        for n, m, k, l in product(range(1, n_max + 1), range(1, m_max + 1),
                                  range(k_max + 1), range(l_max + 1)):
            nf = engine._run(FreeOf([left(_lf_atom((k, 1)) if k else AtomC(), 2 ** n),
                                     right(_lf_atom((l, 1)) if l else AtomC(), 2 ** m)]),
                             keep_log=False)
            want = (5 + Fraction(lc * (k - 1), lb ** (n - 1))
                    + Fraction(rc * (l - 1), rb ** (m - 1)))
            row = {"family": label, "n": n, "m": m, "k": k, "l": l,
                   "normal_form": nf.text(), "parameter": str(nf.param), "expected": str(want)}
            rows.append(row)
            if not (nf.depth == 1 and nf.core == "LF" and nf.param == want):
                failures.append(row)
    return TableReport("prop62", rows, failures)
