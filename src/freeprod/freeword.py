"""Exact traces of words in a free product of moment-oracle legs.

A *leg* is a tracial algebra given by its moments: the interval algebra of
exact trig polynomials, a Haar-unitary leg (tr(w^k) = 0 for k != 0), or a
finite commutative leg with m uniformly weighted atoms.  Legs are mutually
free by construction; a Word is an alternating tuple of letters from
distinct legs, and an NCPoly is a finite linear combination of words with
coefficients in Q[L] (L = 1/pi).  A letter is made once per value, so
letters, and words with them, compare by identity.

Words are stored over the legs' basis letters.  A basis letter b stands
for b - t(b): t = 0 in the *plain* basis that ``normalize`` and ``mul``
use, t = tr in the *centered* basis of ``trace_word``.  Both bases are
served by one fold that appends letters to a combination of reduced words,
through two memoized tables built from the legs' ``mul``, ``trace`` and
``split``: a letter's expansion, and the product of a basis letter with a
same-leg letter.  The folds of one evaluation (one ``normalize``, ``mul``
or trace) may make at most ``MAX_FOLD_WORDS`` words in all; past that
they raise ``EvaluationLimitError``.

Two independent trace algorithms are provided and cross-checked:

* ``trace_word`` - the fold over the centered basis.  By freeness every
  nonempty reduced word of centered letters has trace zero (Voiculescu's
  reduced free product), so the trace is the coefficient of the empty
  word.  An append shortens a word by at most one letter, so words longer
  than the letters still to come are dropped on the way.  Memoized on the
  word.

* ``trace_bipartite`` - the non-crossing partition formula for a word
  alternating between two free families: the sum over pi in NC(n) of the
  partitioned cumulant of the first family times the partitioned trace of
  the second family over the Kreweras complement of pi.  The sum is
  pruned: it walks only the partitions whose blocks all have a nonzero
  cumulant.

Free cumulants are obtained from moments by inverting m_n = sum over pi in
NC(n) of k_pi, with k_pi multiplicative over blocks, through the block that
holds the first element; mixed cumulants across distinct legs vanish.

A leg may grade its letters (``Leg.grade``): a Haar leg by the power of
u, a two-atom leg by the parity of its centered letter.  Each grading
comes from trace-preserving automorphisms of the leg, which extend to the
free product (Voiculescu-Dykema-Nica 1992), so a word of nonzero degree in
some leg has trace 0.  ``FreeProduct.grade`` gives the degrees the words
of a combination share; the freeness walk skips the entries they force to
zero.  Neither trace evaluator reads a grade.
"""

from __future__ import annotations

import re
import sys
import threading
import weakref
from fractions import Fraction
from math import gcd, lcm
from typing import (Callable, Collection, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from .ncpart import enumerate_nc, kreweras, weighted_nc
from .record import FrozenRecord
from . import trigalg
from .trigalg import PI_ONE, PI_ZERO, PiValue, TrigPoly, _frac

MAX_WORD_LETTERS = 64
# The most words the folds of one evaluation may make, over all layers:
# tracing c u repeated 22 times makes 139144, and repeated 24 times 364223
# (1.6 s on one core, Python 3.11).
MAX_FOLD_WORDS = 2 ** 18
MAX_CUMULANT_N = 10
MAX_PARTITION_N = 10
# The most atoms of a model file's finite_comm leg.  Its in-leg product
# tables cost about m^4: d{g} c d{g} s traces in 0.3 s at m = 32, 2 s at 64.
# The slowest word found at m = 32 under MAX_FOLD_WORDS, d{g} u d{g} u* d{g}
# v, took 2.7 s with --bipartite (2-core x86 machine, Python 3.11), which
# now refuses it by its work bound, cli.MAX_BIPARTITE_WORK.
MAX_COMM_ATOMS = 32


class EvaluationLimitError(RuntimeError):
    """Word length, tuple length or fold work exceeded the evaluator guard."""


class FamilySplitError(ValueError):
    """Invalid family assignment for the partition-formula evaluator."""


class UnknownNameError(KeyError):
    """Unknown leg or element name."""

    # KeyError's own __str__ would print the message quoted, as a key
    __str__ = Exception.__str__


# ---------------------------------------------------------------------------
# Legs


class Leg:
    """One free factor.  Subclasses supply the leg's algebra on values, the
    value a letter holds (``letter.value``: a ``TrigPoly``, a Haar power or
    a rational vector): ``mul`` (the in-leg product of two values),
    ``trace``, and ``split`` (a value over the leg's linear basis, as
    (coefficient, basis letter) pairs with ``None`` standing for the
    identity).  So an in-leg product is a value, never a letter; only
    ``split`` makes letters, and only basis letters.  Words over basis
    letters form a linear basis of the free product, so combinations built
    from them cancel exactly; so do words over the centered letters
    b - tr(b), which is all the trace needs.

    A leg may also supply ``grade``: a letter's degree, in Z or in
    Z/``grade_modulus``, under a family of trace-preserving automorphisms
    of the leg that scale a letter of degree d by the d-th power of a unit.
    Each extends to the free product, fixing the other legs, so a word
    whose letters of one leg sum to a nonzero degree there has trace 0.
    The base leg grades nothing."""

    kind = "abstract"
    # ``grade`` is read in Z/grade_modulus; 0 reads it in Z
    grade_modulus = 0

    def __init__(self, leg_id: str):
        self.id = leg_id

    def grade(self, letter: "Letter") -> Optional[int]:
        """The letter's degree, or None: a leg with no grading, or a letter
        that is not homogeneous."""
        return None

    def __repr__(self):
        return f"{type(self).__name__}({self.id!r})"


class TrigLeg(Leg):
    """The interval algebra of exact trig polynomials with trace
    (2/pi) * integral over [0, pi/2].  Basis letters are single cos/sin
    terms with unit coefficient; ``split`` gives each term's coefficient
    as a PiValue, straight from the polynomial's integers."""

    kind = "trig"

    def letter(self, poly: TrigPoly) -> "TrigLetter":
        return TrigLetter(self.id, poly)

    def c(self, k: int = 1) -> "TrigLetter":
        return TrigLetter(self.id, TrigPoly.cos(k))

    def s(self, k: int = 1) -> "TrigLetter":
        return TrigLetter(self.id, TrigPoly.sin(k))

    def mul(self, a: TrigPoly, b: TrigPoly) -> TrigPoly:
        return a * b

    def trace(self, poly: TrigPoly) -> PiValue:
        return trigalg.trace(poly)

    def split(self, poly: TrigPoly):
        den = poly._den
        return [(PiValue._make(((0, n // g),), den // g), None if key == ("c", 0)
                 else TrigLetter(self.id, TrigPoly._make(((key, 1),), 1)))
                for key, n in poly._terms for g in (gcd(n, den),)]


class HaarLeg(Leg):
    """One Haar unitary: tr(w^k) = 1 if k = 0 else 0.  Basis letters are
    the nonzero powers."""

    kind = "haar"

    def gen(self, power: int = 1) -> "HaarLetter":
        if type(power) is not int:
            raise TypeError(f"Haar power must be an int, got {type(power).__name__}")
        return HaarLetter(self.id, power)

    def mul(self, a: int, b: int) -> int:
        return a + b

    def trace(self, power: int) -> PiValue:
        return PI_ONE if power == 0 else PI_ZERO

    def split(self, power: int):
        return [(Fraction(1), None if power == 0 else HaarLetter(self.id, power))]

    def grade(self, letter: "HaarLetter") -> int:
        # the gauge w -> lambda w, |lambda| = 1, scales w^k by lambda^k
        return letter.power


class FiniteCommLeg(Leg):
    """m commuting atoms with uniform weights 1/m; elements are rational
    m-vectors, the trace is the mean of the entries.  Basis letters are the
    centered atom indicators e_i - 1/m (i = 2..m), which keeps them
    trace-free.  Two atoms are graded mod 2: swapping them keeps the trace
    and sends the centered letter to its negative."""

    kind = "finite_comm"
    grade_modulus = 2

    def __init__(self, leg_id: str, m: int, elements: Optional[dict] = None):
        super().__init__(leg_id)
        if m < 1:
            raise ValueError("need at least one atom")
        self.m = m
        self.elements: Dict[str, Tuple[Fraction, ...]] = {}
        for name, vec in (elements or {}).items():
            self.add_element(name, vec)

    def add_element(self, name: str, vec) -> None:
        v = tuple(_frac(x) for x in vec)
        if len(v) != self.m:
            raise ValueError(f"element {name!r} must have {self.m} entries")
        self.elements[name] = v

    def letter(self, vec) -> "CommLetter":
        v = tuple(_frac(x) for x in vec)
        if len(v) != self.m:
            raise ValueError(f"vector must have {self.m} entries")
        return CommLetter(self.id, v)

    def element(self, name: str) -> "CommLetter":
        if name not in self.elements:
            raise UnknownNameError(f"no element {name!r} in leg {self.id!r}")
        return CommLetter(self.id, self.elements[name])

    def mul(self, a: Tuple[Fraction, ...], b: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
        return tuple(x * y for x, y in zip(a, b))

    def trace(self, vec: Tuple[Fraction, ...]) -> PiValue:
        return PiValue.of(sum(vec, Fraction(0)) / len(vec))

    def split(self, vec: Tuple[Fraction, ...]):
        m = len(vec)
        mean = sum(vec, Fraction(0)) / m
        out: List[Tuple[Fraction, Optional[Letter]]] = []
        if mean:
            out.append((mean, None))
        base = Fraction(-1, m)
        for i in range(1, m):
            q = vec[i] - vec[0]
            if q:
                centered = tuple(base + 1 if j == i else base for j in range(m))
                out.append((q, CommLetter(self.id, centered)))
        return out

    def grade(self, letter: "CommLetter") -> Optional[int]:
        if self.m != 2:
            return None
        x, y = letter.vec
        return 0 if x == y else 1 if x == -y else None


# ---------------------------------------------------------------------------
# Letters and words


# Every letter alive, by its class, leg and value key; weakly, so a letter
# goes with the last object that holds it.
_LETTERS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_LETTERS_LOCK = threading.Lock()


class _Letter(FrozenRecord):
    """A letter of the leg named ``leg``, with one value, its second field,
    made once per value (hash-consing, Filliatre and Conchon 2006): each
    class's ``__new__`` gives a key unique to the value, and this one hands
    out the live letter under it or makes it.  So letters compare and hash
    by identity, in C."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, leg: str, value, *key):
        key = (cls, leg) + key
        # a hit reads the table's dict of weak references, in C
        ref = _LETTERS.data.get(key)
        letter = ref and ref()
        if letter is None:
            with _LETTERS_LOCK:  # one letter per key even under threads
                letter = _LETTERS.get(key)
                if letter is None:
                    letter = object.__new__(cls)
                    object.__setattr__(letter, "leg", leg)
                    object.__setattr__(letter, cls._fields[1], value)
                    _LETTERS[key] = letter
        return letter

    @property
    def value(self):
        """The letter's value, its second field: what its leg's ``mul``,
        ``trace`` and ``split`` read."""
        return self._values(self)[1]

    def __reduce__(self):
        # pickle and copy rebuild through the constructor: the live letter
        return self.__class__, self._values(self)


class TrigLetter(_Letter):
    _fields = ("leg", "poly")

    def __new__(cls, leg: str, poly: TrigPoly):
        return _Letter.__new__(cls, leg, poly, poly._terms, poly._den)

    def text(self) -> str:
        # a single term with coefficient 1 is its name: 1, c, s, c[k], s[k]
        terms = list(self.poly.items())
        if len(terms) == 1 and terms[0][1] == 1:
            return str(self.poly)
        return f"({self.poly})"

    def sort_key(self) -> tuple:
        return (0, self.leg, tuple(self.poly.items()))

    def adjoint(self) -> "TrigLetter":
        return self  # trig polynomials are real-valued


class HaarLetter(_Letter):
    _fields = ("leg", "power")

    def __new__(cls, leg: str, power: int):
        return _Letter.__new__(cls, leg, power, power)

    def text(self) -> str:
        if self.power == 1:
            return self.leg
        if self.power == -1:
            return self.leg + "*"
        return f"{self.leg}^{self.power}"

    def sort_key(self) -> tuple:
        return (1, self.leg, self.power)

    def adjoint(self) -> "HaarLetter":
        return HaarLetter(self.leg, -self.power)


class CommLetter(_Letter):
    _fields = ("leg", "vec")

    def __new__(cls, leg: str, vec: Tuple[Fraction, ...]):
        # keyed by the numerators over the least common denominator, which
        # are unique for a given vector
        den = lcm(*[x.denominator for x in vec])
        return _Letter.__new__(
            cls, leg, vec, tuple([x.numerator * (den // x.denominator) for x in vec]), den)

    def text(self) -> str:
        return "d{" + self.leg + ":" + ",".join(str(q) for q in self.vec) + "}"

    def sort_key(self) -> tuple:
        return (2, self.leg, self.vec)

    def adjoint(self) -> "CommLetter":
        return self  # rational vectors are self-adjoint


Letter = Union[TrigLetter, HaarLetter, CommLetter]
Word = Tuple[Letter, ...]


class _Unit:
    """Identity placeholder used when padding family-interleaved sequences."""

    __repr__ = lambda self: "UNIT"  # noqa: E731


UNIT = _Unit()


def _bipartite_slots(word: Sequence[Letter], f1: Collection[int]) -> List[object]:
    """The sequence x1 y1 x2 y2 ... xn yn that ``trace_bipartite`` sums
    over: in order, each letter at a position in ``f1`` takes the next x
    slot and any other the next y slot, with ``UNIT`` in the slots
    skipped and at the end.  Refused past MAX_PARTITION_N slot pairs."""
    seq: List[object] = []
    for i, letter in enumerate(word):
        if (i in f1) != (len(seq) % 2 == 0):
            seq.append(UNIT)
        seq.append(letter)
    if len(seq) % 2:
        seq.append(UNIT)
    if len(seq) // 2 > MAX_PARTITION_N:
        raise EvaluationLimitError(
            f"partition formula over {len(seq) // 2} slots exceeds {MAX_PARTITION_N}"
        )
    return seq


def _cumulant_vanishes(entries: Sequence[object]) -> bool:
    """Whether the free cumulant of ``entries``, letters and ``UNIT``, is
    zero by their legs alone."""
    if len(entries) < 2:
        return False
    # cumulants of order >= 2 vanish when an entry is the identity, and
    # mixed cumulants of free legs vanish
    return any(e is UNIT for e in entries) or len({e.leg for e in entries}) > 1


def bipartite_partition_counts(terms: Iterable[Tuple[Word, Collection[int]]]) -> List[int]:
    """For each (word, f1) of ``terms``, how many partitions
    ``trace_bipartite`` can build: those of NC(n) with no x-slot block
    whose cumulant vanishes by its legs.  At most |NC(n)|, the Catalan
    number; 1 for the empty word.

    The count depends only on the leg of each x slot (None for ``UNIT``),
    and ``ncpart.weighted_nc`` walks it once per such shape."""
    counts: Dict[tuple, int] = {}
    out = []
    for word, f1 in terms:
        xs = _bipartite_slots(word, f1)[0::2]
        shape = tuple(None if x is UNIT else x.leg for x in xs)
        got = counts.get(shape)
        if got is None:
            got = counts[shape] = len(weighted_nc(
                len(xs), lambda block: 0 if _cumulant_vanishes([xs[i - 1] for i in block]) else 1,
                1)) if xs else 1
        out.append(got)
    return out


def word_str(word: Word) -> str:
    return " ".join(l.text() for l in word) if word else "1"


def _word_sort_key(word: Word):
    return (len(word), tuple(l.sort_key() for l in word))


class NCPoly:
    """Finite linear combination of alternating words, coefficients in Q[L].

    The empty word is the unit.  Zero-coefficient terms are dropped on
    construction, so equality is structural.  A word is a tuple of letters,
    which are made once per value, so words compare in C.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for word, coeff in dict(terms).items():
                coeff = coeff if isinstance(coeff, PiValue) else PiValue.of(coeff)
                if not coeff.is_zero():
                    d[tuple(word)] = coeff
        self._terms = d

    @classmethod
    def _of_words(cls, terms: Dict[Word, PiValue]) -> "NCPoly":
        """From word tuples and PiValues; zero-coefficient terms are dropped."""
        nc = object.__new__(cls)
        nc._terms = {w: c for w, c in terms.items() if c}
        return nc

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def unit(cls, coeff=1) -> "NCPoly":
        return cls({(): coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> List[Tuple[Word, PiValue]]:
        return sorted(self._terms.items(), key=lambda kv: _word_sort_key(kv[0]))

    def nterms(self) -> int:
        return len(self._terms)

    def coeff(self, word: Word) -> PiValue:
        return self._terms.get(tuple(word), PI_ZERO)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        # NCPolys are immutable, so a zero summand gives back the other one
        if not other._terms:
            return self
        if not self._terms:
            return other
        d = dict(self._terms)
        for w, c in other._terms.items():
            cur = d.get(w)
            d[w] = c if cur is None else cur + c
        return NCPoly._of_words(d)

    def __neg__(self) -> "NCPoly":
        return NCPoly._of_words({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def scaled(self, coeff) -> "NCPoly":
        coeff = coeff if isinstance(coeff, PiValue) else PiValue.of(coeff)
        return NCPoly._of_words({w: c * coeff for w, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def adjoint(self) -> "NCPoly":
        # Coefficients are real, each letter goes to its adjoint and the
        # word reverses.
        return NCPoly._of_words({tuple([l.adjoint() for l in reversed(w)]): c
                                 for w, c in self._terms.items()})

    def __str__(self):
        if not self._terms:
            return "0"
        parts = [f"({c}) {word_str(w)}" for w, c in self.terms()]
        return " + ".join(parts)

    def __repr__(self):
        return f"NCPoly({self})"


# ---------------------------------------------------------------------------
# The free product evaluator


class _Basis:
    """Reduced words over the legs' basis letters, each basis letter b
    standing for b - t(b): t = 0 in the plain basis, t = tr in the centered
    one.  Two tables over letters, filled on first sight, hold entries
    (scalar or None, ((basis letter, coefficient), ...)):

    * ``expansions[x]`` - the letter x, from the ``split`` parts of its
      value; the scalar is the identity coefficient (plain) or tr x
      (centered);
    * ``products[a, x]`` - (a - t(a)) x for a basis letter a of x's leg,
      the expansion of the value ``mul`` gives for ax minus t(a) times the
      expansion of x.  The product is expanded from its value, so it is
      never made a letter.

    ``budget`` is the words the folds may still make.  Each evaluation of
    the free product sets it to ``MAX_FOLD_WORDS`` when it starts, so a
    free product runs one evaluation at a time.
    """

    def __init__(self, leg: Callable[[str], Leg], centered: bool):
        self._leg = leg
        self._centered = centered
        self.expansions: Dict[Letter, tuple] = {}
        self.products: Dict[Tuple[Letter, Letter], tuple] = {}
        self.budget = MAX_FOLD_WORDS

    def _expand(self, leg: Leg, value) -> Tuple[PiValue, Dict[Letter, PiValue]]:
        scalar, parts = PI_ZERO, {}
        for q, b in leg.split(value):
            if b is None:
                scalar = PiValue._coerce(q)
            else:
                parts[b] = PiValue._coerce(q)
        return (leg.trace(value) if self._centered else scalar), parts

    def expand(self, x: Letter) -> tuple:
        got = self.expansions[x] = _entry(*self._expand(self._leg(x.leg), x.value))
        return got

    def product(self, key: Tuple[Letter, Letter]) -> tuple:
        a, x = key
        leg = self._leg(x.leg)
        scalar, parts = self._expand(leg, leg.mul(a.value, x.value))
        ta = leg.trace(a.value) if self._centered else PI_ZERO
        if ta:
            sx, px = self._expand(leg, x.value)
            scalar = scalar - ta * sx
            for b, q in px.items():
                parts[b] = parts.get(b, PI_ZERO) - ta * q
        got = self.products[key] = _entry(scalar, parts)
        return got

    def fold(self, acc: Dict[Word, PiValue], letters: Sequence[Letter]) -> Dict[Word, PiValue]:
        """Append the letters one at a time to ``acc``, a combination of
        reduced words.  A letter x after a word ending in a letter a of its
        leg replaces a by ``products[a, x]``; after any other word it goes
        in by its expansion.  In the centered basis, words longer than the
        letters still to come are dropped; in the plain basis none is."""
        expansions, products = self.expansions, self.products
        last = len(letters) - 1 if self._centered else sys.maxsize
        budget = self.budget
        for pos, x in enumerate(letters):
            room = last - pos
            leg = x.leg
            nxt: Dict[Word, PiValue] = {}
            for w, c in acc.items():
                if w and w[-1].leg == leg:
                    key = (w[-1], x)
                    scalar, parts = products.get(key) or self.product(key)
                    base = w[:-1]
                else:
                    scalar, parts = expansions.get(x) or self.expand(x)
                    base = w
                size = len(base)
                if scalar is not None and size <= room:
                    add = c * scalar
                    cur = nxt.get(base)
                    nxt[base] = add if cur is None else cur + add
                if size < room:
                    if len(nxt) > budget:
                        raise EvaluationLimitError(
                            f"evaluation would make more than {MAX_FOLD_WORDS} words")
                    for b, q in parts:
                        w2 = base + (b,)
                        add = c * q
                        cur = nxt.get(w2)
                        nxt[w2] = add if cur is None else cur + add
            acc = nxt
            budget -= len(acc)
        self.budget = budget
        return acc


def _entry(scalar: PiValue, parts: Dict[Letter, PiValue]) -> tuple:
    return scalar or None, tuple((b, q) for b, q in parts.items() if q)


class FreeProduct:
    """A free product of named legs, with exact trace evaluation."""

    def __init__(self, legs: Iterable[Leg]):
        self.legs: Dict[str, Leg] = {}
        for leg in legs:
            if leg.id in self.legs:
                raise ValueError(f"duplicate leg id {leg.id!r}")
            self.legs[leg.id] = leg
        self._tr_memo: Dict[Word, PiValue] = {}
        # single-letter traces for the partition formula, apart from the
        # fold's memo so that the two evaluators share no state
        self._letter_traces: Dict[Letter, PiValue] = {}
        # free cumulants of same-leg letter tuples, memoized per instance
        self._cumulant = moments_to_cumulants(self.leg_moment)
        self._plain = _Basis(self.leg, centered=False)
        self._centered = _Basis(self.leg, centered=True)

    def leg(self, leg_id: str) -> Leg:
        try:
            return self.legs[leg_id]
        except KeyError:
            raise UnknownNameError(f"unknown leg {leg_id!r}") from None

    # -- normalization ------------------------------------------------------

    def normalize(self, letters: Sequence[Letter]) -> NCPoly:
        """Merge same-leg neighbours, absorb identity components as scalars,
        and return the resulting combination of alternating words."""
        for letter in letters:
            if letter.leg not in self.legs:
                raise UnknownNameError(f"unknown leg {letter.leg!r}")
        self._plain.budget = MAX_FOLD_WORDS
        return NCPoly._of_words(self._plain.fold({(): PI_ONE}, letters))

    def word(self, letters: Sequence[Letter]) -> Word:
        """Normalize a letter sequence that is expected to stay a single
        scalar-free word, and return it."""
        nc = self.normalize(letters)
        terms = nc.terms()
        if len(terms) != 1 or terms[0][1] != PI_ONE:
            raise ValueError(
                f"letter sequence does not normalize to a single unit-coefficient "
                f"word: {nc}"
            )
        return terms[0][0]

    def mul(self, a: NCPoly, b: NCPoly) -> NCPoly:
        if not b._terms:
            return b
        if not a._terms:
            return a
        out: Dict[Word, PiValue] = {}
        self._plain.budget = MAX_FOLD_WORDS
        for w2, c2 in b._terms.items():
            piece = {w1: c1 * c2 for w1, c1 in a._terms.items()}
            for w, c in self._plain.fold(piece, w2).items():
                cur = out.get(w)
                out[w] = c if cur is None else cur + c
        return NCPoly._of_words(out)

    # -- letter/leg oracles --------------------------------------------------

    def letter_trace(self, letter: Letter) -> PiValue:
        got = self._letter_traces.get(letter)
        if got is None:
            got = self._letter_traces[letter] = self.leg(letter.leg).trace(letter.value)
        return got

    def leg_moment(self, letters: Tuple[Letter, ...]) -> PiValue:
        """Trace of the ordered in-leg product of same-leg letters, the
        product of their values."""
        legs = {l.leg for l in letters}
        if len(legs) != 1:
            raise ValueError("moment tuple must come from a single leg")
        leg = self.leg(letters[0].leg)
        combined = letters[0].value
        for letter in letters[1:]:
            combined = leg.mul(combined, letter.value)
        return leg.trace(combined)

    def leg_cumulant(self, letters: Tuple[Letter, ...]) -> PiValue:
        """Free cumulant of same-leg letters, by ``moments_to_cumulants``
        over ``leg_moment``."""
        return self._cumulant(tuple(letters))

    def grade(self, *ncs: NCPoly) -> Dict[str, Optional[int]]:
        """The degree that every word of ``ncs`` has in each leg their
        words touch: the sum of the leg's ``grade`` over the word's letters
        of that leg, in Z/``grade_modulus``.  None where two words differ
        or a letter has no grade.  An untouched leg, where every word has
        degree 0, is left out."""
        degrees = []
        for nc in ncs:
            for w in nc._terms:
                d: Dict[str, Optional[int]] = {}
                for letter in w:
                    g = self.leg(letter.leg).grade(letter)
                    cur = d.get(letter.leg, 0)
                    d[letter.leg] = None if g is None or cur is None else cur + g
                degrees.append(d)
        out: Dict[str, Optional[int]] = {}
        for leg_id, leg in self.legs.items():
            if any(leg_id in d for d in degrees):
                m = leg.grade_modulus
                seen = {g % m if m and g is not None else g
                        for g in (d.get(leg_id, 0) for d in degrees)}
                out[leg_id] = seen.pop() if len(seen) == 1 else None
        return out

    # -- trace by a fold over the centered basis -------------------------------

    def trace_word(self, word: Word) -> PiValue:
        """Exact trace of an alternating word, by a fold over the centered
        basis.

        The letters are appended left to right to a combination of reduced
        words of centered basis letters (``_Basis.fold``); a same-leg
        neighbour is merged by the centered product table.  Nonempty
        reduced words have trace zero by freeness, so the trace is the
        coefficient of the empty word.  A word longer than the letters
        still to come can no longer reach the empty word and is dropped."""
        word = tuple(word)
        for a, b in zip(word, word[1:]):
            if a.leg == b.leg:
                raise ValueError("word is not alternating-normalized")
        self._centered.budget = MAX_FOLD_WORDS
        return self._trace_word(word)

    def _trace_word(self, word: Word) -> PiValue:
        n = len(word)
        if n > MAX_WORD_LETTERS:
            raise EvaluationLimitError(f"word length {n} exceeds {MAX_WORD_LETTERS}")
        cached = self._tr_memo.get(word)
        if cached is not None:
            return cached
        acc = self._centered.fold({(): PI_ONE}, word)
        result = acc.get((), PI_ZERO)
        self._tr_memo[word] = result
        return result

    def trace(self, nc: NCPoly) -> PiValue:
        """Linear extension of the word trace to combinations."""
        total = PI_ZERO
        self._centered.budget = MAX_FOLD_WORDS
        for w, c in nc._terms.items():
            t = self._trace_word(w)
            if t:
                total = total + c * t
        return total

    # -- trace by the partition formula ---------------------------------------

    def trace_bipartite(self, word: Word, f1_positions: Iterable[int]) -> PiValue:
        """Trace via the non-crossing partition formula.

        ``f1_positions`` are 0-based positions of the letters forming the
        cumulant-side family; the remaining letters form the trace side.
        The two families must use disjoint leg sets.  Identity placeholders
        are interleaved so the sequence reads x1 y1 x2 y2 ... xn yn; then

            tr = sum over pi in NC(n) of k_pi[x] * tr_{K(pi)}[y].

        Cumulant-side blocks that mix legs vanish; trace-side blocks must
        stay within one leg.  Only the partitions with k_pi[x] != 0 are
        built: ``ncpart.weighted_nc`` multiplies a block's cumulant in as
        the block closes and drops a branch at the first zero, with each
        block's cumulant computed once per call.
        """
        word = tuple(word)
        f1 = set(f1_positions)
        for i in f1:
            if not (0 <= i < len(word)):
                raise FamilySplitError(f"position {i} outside word")
        legs1 = {word[i].leg for i in f1}
        legs2 = {l.leg for i, l in enumerate(word) if i not in f1}
        if legs1 & legs2:
            raise FamilySplitError(
                f"families share legs {sorted(legs1 & legs2)}; they must be free"
            )
        seq = _bipartite_slots(word, f1)
        xs, ys = seq[0::2], seq[1::2]
        n = len(xs)
        if n == 0:
            return PI_ONE
        total = PI_ZERO
        for p, kappa in weighted_nc(
                n, lambda block: self._cum_block(tuple(xs[i - 1] for i in block)), PI_ONE):
            comp = kreweras(p)
            tau = PI_ONE
            for block in comp.blocks:
                tau = tau * self._trace_block(tuple(ys[i - 1] for i in block))
                if tau.is_zero():
                    break
            total = total + kappa * tau
        return total

    def _cum_block(self, entries: Tuple[object, ...]) -> PiValue:
        if len(entries) == 1:
            e = entries[0]
            return PI_ONE if e is UNIT else self.letter_trace(e)
        if _cumulant_vanishes(entries):
            return PI_ZERO
        return self.leg_cumulant(entries)  # type: ignore[arg-type]

    def _trace_block(self, entries: Tuple[object, ...]) -> PiValue:
        letters = tuple(e for e in entries if e is not UNIT)
        if not letters:
            return PI_ONE
        legs = {l.leg for l in letters}
        if len(legs) > 1:
            raise FamilySplitError(
                "trace-side block mixes legs; assign multi-leg letters to the "
                "cumulant side"
            )
        return self.leg_moment(letters)


# ---------------------------------------------------------------------------
# Generic moment/cumulant transforms


def moments_to_cumulants(moment: Callable[[tuple], object]) -> Callable[[tuple], object]:
    """Turn a moment functional on tuples into its free cumulant functional.

    The moment-cumulant formula m_n = sum over pi in NC(n) of k_pi is
    inverted through the block V of pi that holds 1: the rest of pi is any
    non-crossing partition of each gap V leaves (the runs between
    consecutive elements of V and after its last one), and those sum to the
    gaps' moments.  Hence

        k_n(x) = m_n(x) - sum over V containing 1, V != {1..n}, of
                 k_{|V|}(x_V) * product over gaps G of m(x_G),

    2^(n-1) - 1 terms instead of |NC(n)| - 1 block products.  Values may be
    any ring elements that are falsy at zero; a term stops at its first
    zero factor.  Memoized per returned functional.
    """
    memo: dict = {}

    def cumulant(xs: tuple):
        xs = tuple(xs)
        if xs in memo:
            return memo[xs]
        n = len(xs)
        if n == 0:
            raise ValueError("empty tuple")
        if n > MAX_CUMULANT_N:
            raise EvaluationLimitError(f"cumulant length {n} exceeds {MAX_CUMULANT_N}")
        result = moment(xs)
        # bit i-1 of mask puts position i in V; the full mask is 1_n itself
        for mask in range((1 << (n - 1)) - 1):
            block = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1]
            prod = cumulant(tuple(xs[i] for i in block))
            for a, b in zip(block, block[1:] + [n]):
                if not prod:
                    break
                if b - a > 1:
                    prod = prod * moment(xs[a + 1:b])
            if prod:
                result = result - prod
        memo[xs] = result
        return result

    return cumulant


def cumulants_to_moments(cumulant: Callable[[tuple], object]) -> Callable[[tuple], object]:
    """Inverse transform: m_n = sum over pi in NC(n) of k_pi."""

    def moment(xs: tuple):
        xs = tuple(xs)
        n = len(xs)
        if n == 0:
            raise ValueError("empty tuple")
        if n > MAX_CUMULANT_N:
            raise EvaluationLimitError(f"moment length {n} exceeds {MAX_CUMULANT_N}")
        total = None
        for p in enumerate_nc(n):
            prod = None
            for block in p.blocks:
                val = cumulant(tuple(xs[i - 1] for i in block))
                prod = val if prod is None else prod * val
            total = prod if total is None else total + prod
        return total

    return moment


# ---------------------------------------------------------------------------
# The standard model and model files


def standard_model(extra_legs: Iterable[Leg] = ()) -> FreeProduct:
    """Trig leg ``f`` plus Haar legs ``u`` and ``v``, the ambient free
    product used by the 2x2 matrix model."""
    legs: List[Leg] = [TrigLeg("f"), HaarLeg("u"), HaarLeg("v")]
    legs.extend(extra_legs)
    return FreeProduct(legs)


# A model-file rational written as a string: ASCII digits, an optional
# leading '-' and an optional '/denominator'.
_MODEL_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _is_model_rational(x) -> bool:
    """A JSON integer (not a bool) or a string of ``_MODEL_RATIONAL``."""
    if isinstance(x, str):
        return _MODEL_RATIONAL.fullmatch(x) is not None
    return isinstance(x, int) and not isinstance(x, bool)


def legs_from_model_dict(doc: dict) -> List[Leg]:
    """Parse the JSON model document: an object whose ``legs`` array holds
    declaration objects with ``kind`` in {"finite_comm", "haar"};
    finite_comm legs carry ``m`` and an object of named rational vectors,
    each entry a JSON integer or a string ``p`` or ``p/q`` of ASCII digits
    (``p`` may take a leading '-', ``q`` is nonzero).  A document of the
    wrong shape raises ``ValueError`` naming the leg."""
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
    decls = doc.get("legs", [])
    if not isinstance(decls, list):
        raise ValueError(f"model 'legs' must be a JSON array, got {type(decls).__name__}")
    legs: List[Leg] = []
    for pos, decl in enumerate(decls):
        if not isinstance(decl, dict):
            raise ValueError(f"leg #{pos} must be a JSON object, got {type(decl).__name__}")
        kind = decl.get("kind")
        leg_id = decl.get("id")
        if not leg_id or not isinstance(leg_id, str):
            raise ValueError(f"leg #{pos} needs a string 'id'")
        if kind == "finite_comm":
            m = decl.get("m")
            if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= MAX_COMM_ATOMS:
                raise ValueError(f"finite_comm leg {leg_id!r} needs an integer 'm' "
                                 f"from 1 to {MAX_COMM_ATOMS}, got {m!r}")
            elements = decl.get("elements", {})
            if not isinstance(elements, dict):
                raise ValueError(f"leg {leg_id!r}: 'elements' must be a JSON object")
            leg = FiniteCommLeg(leg_id, m)
            for name, vec in elements.items():
                if not isinstance(vec, list):
                    raise ValueError(
                        f"leg {leg_id!r}: element {name!r} must be a JSON array, "
                        f"got {type(vec).__name__}")
                try:
                    if not all(map(_is_model_rational, vec)):
                        raise ValueError
                    leg.add_element(name, vec)
                except (ValueError, ZeroDivisionError):
                    raise ValueError(
                        f"leg {leg_id!r}: element {name!r} needs {m} rational "
                        f"entries, got {vec!r}") from None
            legs.append(leg)
        elif kind == "haar":
            legs.append(HaarLeg(leg_id))
        else:
            raise ValueError(f"unknown leg kind {kind!r}")
    return legs
