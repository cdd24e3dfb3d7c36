"""Exact traces of words in a free product of moment-oracle legs.

A *leg* is a tracial algebra given by its moments: the interval algebra of
exact trig polynomials, a Haar-unitary leg (tr(w^k) = 0 for k != 0), or a
finite commutative leg with m uniformly weighted atoms.  Legs are mutually
free by construction; a Word is an alternating sequence of letters from
distinct legs, and an NCPoly is a finite linear combination of words with
coefficients in Q[L] (L = 1/pi).

Two independent trace algorithms are provided and cross-checked:

* ``trace_word`` - a fold over the centered basis.  Each letter x is
  written as tr(x) plus a combination of centered basis letters b - tr(b),
  and the centered letters are appended one at a time to a combination of
  reduced words, a per-leg product table merging same-leg neighbours.  By
  freeness every nonempty reduced word of centered letters has trace zero
  (Voiculescu's reduced free product), so the trace is the coefficient of
  the empty word.  An append shortens a word by at most one letter, so
  words longer than the letters still to come are dropped on the way.
  Memoized on the word.

* ``trace_bipartite`` - the non-crossing partition formula for a word
  alternating between two free families: the sum over pi in NC(n) of the
  partitioned cumulant of the first family times the partitioned trace of
  the second family over the Kreweras complement of pi.

Free cumulants are obtained from moments by inverting m_n = sum over pi in
NC(n) of k_pi, with k_pi multiplicative over blocks, through the block that
holds the first element; mixed cumulants across distinct legs vanish.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .ncpart import NCPartition, enumerate_nc, kreweras
from . import trigalg
from .trigalg import PI_ONE, PI_ZERO, PiValue, TrigPoly, _frac

MAX_WORD_LETTERS = 64
MAX_CUMULANT_N = 10
MAX_PARTITION_N = 10


class EvaluationLimitError(RuntimeError):
    """Word length or tuple length exceeded the evaluator guard."""


class FamilySplitError(ValueError):
    """Invalid family assignment for the partition-formula evaluator."""


class UnknownNameError(KeyError):
    """Unknown leg or element name."""


# ---------------------------------------------------------------------------
# Legs


class Leg:
    """One free factor.  Subclasses supply the leg's algebra on letters:
    ``mul`` (the in-leg product of two letters), ``trace``, and ``split``
    (the letter over the leg's linear basis, as (coefficient, basis letter)
    pairs with ``None`` standing for the identity).  Words over basis
    letters form a linear basis of the free product, so combinations built
    from them cancel exactly."""

    kind = "abstract"

    def __init__(self, leg_id: str):
        self.id = leg_id

    def __repr__(self):
        return f"{type(self).__name__}({self.id!r})"

    def center(self, letter) -> Tuple[PiValue, List[Tuple[PiValue, "Letter"]]]:
        """``(tr x, [(q, b), ...])`` with x = tr x + sum of q (b - tr b):
        the trace of the letter plus its centered basis letters, each basis
        letter b standing for b - tr b."""
        parts = [(PiValue.of(q), b) for q, b in self.split(letter) if b is not None]
        return self.trace(letter), parts

    def centered_mul(self, a, b) -> Tuple[PiValue, List[Tuple[PiValue, "Letter"]]]:
        """The product table of the centered basis: (a - tr a)(b - tr b) for
        basis letters a, b, as a scalar plus centered basis letters,

            sum r_key key^ - tr(b) a^ - tr(a) b^ + (tr(ab) - tr(a) tr(b))

        where ab = sum r_key key and ^ denotes centering."""
        ta, tb = self.trace(a), self.trace(b)
        tab, parts = self.center(self.mul(a, b))
        coeffs = {basis: q for q, basis in parts}
        for basis, t in ((a, tb), (b, ta)):
            if not t.is_zero():
                coeffs[basis] = coeffs.get(basis, PI_ZERO) - t
        return tab - ta * tb, [(q, basis) for basis, q in coeffs.items() if not q.is_zero()]


class TrigLeg(Leg):
    """The interval algebra of exact trig polynomials with trace
    (2/pi) * integral over [0, pi/2].  Basis letters are single cos/sin
    terms with unit coefficient."""

    kind = "trig"

    def letter(self, poly: TrigPoly) -> "TrigLetter":
        return TrigLetter(self.id, poly)

    def c(self, k: int = 1) -> "TrigLetter":
        return TrigLetter(self.id, TrigPoly.cos(k))

    def s(self, k: int = 1) -> "TrigLetter":
        return TrigLetter(self.id, TrigPoly.sin(k))

    def mul(self, a: "TrigLetter", b: "TrigLetter") -> "TrigLetter":
        return TrigLetter(self.id, a.poly * b.poly)

    def trace(self, letter: "TrigLetter") -> PiValue:
        return trigalg.trace(letter.poly)

    def split(self, letter: "TrigLetter"):
        out: List[Tuple[Fraction, Optional[Letter]]] = []
        for (kind, k), q in letter.poly.items():
            if kind == "c" and k == 0:
                out.append((q, None))
            else:
                out.append((q, TrigLetter(self.id, TrigPoly({(kind, k): 1}))))
        return out


class HaarLeg(Leg):
    """One Haar unitary: tr(w^k) = 1 if k = 0 else 0.  Basis letters are
    the nonzero powers."""

    kind = "haar"

    def gen(self, power: int = 1) -> "HaarLetter":
        return HaarLetter(self.id, power)

    def mul(self, a: "HaarLetter", b: "HaarLetter") -> "HaarLetter":
        return HaarLetter(self.id, a.power + b.power)

    def trace(self, letter: "HaarLetter") -> PiValue:
        return PI_ONE if letter.power == 0 else PI_ZERO

    def split(self, letter: "HaarLetter"):
        return [(Fraction(1), None if letter.power == 0 else letter)]


class FiniteCommLeg(Leg):
    """m commuting atoms with uniform weights 1/m; elements are rational
    m-vectors, the trace is the mean of the entries.  Basis letters are the
    centered atom indicators e_i - 1/m (i = 2..m), which keeps them
    trace-free."""

    kind = "finite_comm"

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

    def mul(self, a: "CommLetter", b: "CommLetter") -> "CommLetter":
        return CommLetter(self.id, tuple(x * y for x, y in zip(a.vec, b.vec)))

    def trace(self, letter: "CommLetter") -> PiValue:
        return PiValue.of(sum(letter.vec, Fraction(0)) / len(letter.vec))

    def split(self, letter: "CommLetter"):
        vec = letter.vec
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


# ---------------------------------------------------------------------------
# Letters and words


@dataclass(frozen=True)
class TrigLetter:
    leg: str
    poly: TrigPoly

    def text(self) -> str:
        terms = list(self.poly.items())
        if len(terms) == 1 and terms[0][1] == 1:
            (kind, k), _ = terms[0]
            if kind == "c" and k == 0:
                return "1"
            return kind if k == 1 else f"{kind}[{k}]"
        return f"({self.poly})"

    def sort_key(self) -> tuple:
        return (0, self.leg, tuple(self.poly.items()))

    def adjoint(self) -> "TrigLetter":
        return self  # trig polynomials are real-valued


@dataclass(frozen=True)
class HaarLetter:
    leg: str
    power: int

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


@dataclass(frozen=True)
class CommLetter:
    leg: str
    vec: Tuple[Fraction, ...]

    def text(self) -> str:
        return "d{" + self.leg + ":" + ",".join(str(q) for q in self.vec) + "}"

    def sort_key(self) -> tuple:
        return (2, self.leg, self.vec)

    def adjoint(self) -> "CommLetter":
        return self  # rational vectors are self-adjoint


Letter = Union[TrigLetter, HaarLetter, CommLetter]
Word = Tuple[Letter, ...]
IdWord = Tuple[int, ...]


class _Unit:
    """Identity placeholder used when padding family-interleaved sequences."""

    __repr__ = lambda self: "UNIT"  # noqa: E731


UNIT = _Unit()


# The letter intern table.  Every letter met anywhere gets one small int,
# the same in every FreeProduct, so words are stored and compared as tuples
# of ints and a letter's dataclass is hashed once.  Letters are immutable
# values, so the table is an identity map: no answer depends on what it
# holds.
_LETTERS: List[Letter] = []
_LETTER_LEGS: List[str] = []  # the leg name of each interned letter
_LETTER_IDS: Dict[Letter, int] = {}
_INTERN_LOCK = threading.Lock()


def _intern(letter: Letter) -> int:
    i = _LETTER_IDS.get(letter)
    if i is None:
        # One id per letter even under threads; the id is published last,
        # so whoever finds it can index the lists.
        with _INTERN_LOCK:
            i = _LETTER_IDS.get(letter)
            if i is None:
                leg = letter.leg
                _LETTERS.append(letter)
                _LETTER_LEGS.append(leg)
                i = _LETTER_IDS[letter] = len(_LETTERS) - 1
    return i


def word_str(word: Word) -> str:
    return " ".join(l.text() for l in word) if word else "1"


def _word_sort_key(word: Word):
    return (len(word), tuple(l.sort_key() for l in word))


class NCPoly:
    """Finite linear combination of alternating words, coefficients in Q[L].

    The empty word is the unit.  Zero-coefficient terms are dropped on
    construction, so equality is structural.  Words are given and returned
    as letter tuples and stored as tuples of interned letter ids.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for word, coeff in dict(terms).items():
                coeff = coeff if isinstance(coeff, PiValue) else PiValue.of(coeff)
                if not coeff.is_zero():
                    d[tuple(map(_intern, word))] = coeff
        self._terms = d

    @classmethod
    def _of_ids(cls, terms: Dict[IdWord, PiValue]) -> "NCPoly":
        """From id words; zero-coefficient terms are dropped."""
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
        return sorted(((tuple(_LETTERS[i] for i in w), c) for w, c in self._terms.items()),
                      key=lambda kv: _word_sort_key(kv[0]))

    def nterms(self) -> int:
        return len(self._terms)

    def coeff(self, word: Word) -> PiValue:
        ids = tuple(_LETTER_IDS.get(l, -1) for l in word)
        return self._terms.get(ids, PI_ZERO)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        d = dict(self._terms)
        for w, c in other._terms.items():
            cur = d.get(w)
            d[w] = c if cur is None else cur + c
        return NCPoly._of_ids(d)

    def __neg__(self) -> "NCPoly":
        return NCPoly._of_ids({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def scaled(self, coeff) -> "NCPoly":
        coeff = coeff if isinstance(coeff, PiValue) else PiValue.of(coeff)
        return NCPoly._of_ids({w: c * coeff for w, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def adjoint(self) -> "NCPoly":
        # Coefficients are real, each letter goes to its adjoint and the
        # word reverses.
        return NCPoly._of_ids({
            tuple(_intern(_LETTERS[i].adjoint()) for i in reversed(w)): c
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


class FreeProduct:
    """A free product of named legs, with exact trace evaluation."""

    def __init__(self, legs: Iterable[Leg]):
        self.legs: Dict[str, Leg] = {}
        for leg in legs:
            if leg.id in self.legs:
                raise ValueError(f"duplicate leg id {leg.id!r}")
            self.legs[leg.id] = leg
        self._tr_memo: Dict[IdWord, PiValue] = {}
        # free cumulants of same-leg letter tuples, memoized per instance
        self._cumulant = moments_to_cumulants(self.leg_moment)
        # Tables over letter ids, filled on first sight: a letter's split
        # over its leg's basis, the split of the in-leg product of two
        # letters, a letter's centering and the centered product of two
        # basis letters.  Splits are (scale, id or None) pairs.
        self._splits: Dict[int, tuple] = {}
        self._merges: Dict[Tuple[int, int], tuple] = {}
        self._centered: Dict[int, tuple] = {}
        self._products: Dict[Tuple[int, int], tuple] = {}

    def add_leg(self, leg: Leg) -> Leg:
        if leg.id in self.legs:
            raise ValueError(f"duplicate leg id {leg.id!r}")
        self.legs[leg.id] = leg
        return leg

    def leg(self, leg_id: str) -> Leg:
        try:
            return self.legs[leg_id]
        except KeyError:
            raise UnknownNameError(f"unknown leg {leg_id!r}") from None

    # -- normalization ------------------------------------------------------

    def normalize(self, letters: Sequence[Letter], coeff=1) -> NCPoly:
        """Merge same-leg neighbours, absorb identity components as scalars,
        and return the resulting combination of alternating words."""
        coeff = coeff if isinstance(coeff, PiValue) else PiValue.of(coeff)
        ids = []
        for letter in letters:
            if letter.leg not in self.legs:
                raise UnknownNameError(f"unknown leg {letter.leg!r}")
            ids.append(_intern(letter))
        out: Dict[IdWord, PiValue] = {}
        self._append_word(out, (), coeff, ids)
        return NCPoly._of_ids(out)

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
        out: Dict[IdWord, PiValue] = {}
        for w1, c1 in a._terms.items():
            for w2, c2 in b._terms.items():
                self._append_word(out, w1, c1 * c2, w2)
        return NCPoly._of_ids(out)

    def _append_word(self, out: Dict[IdWord, PiValue], word: IdWord, coeff: PiValue,
                     letters: Sequence[int]) -> None:
        """Add coeff * word * (the letters, one at a time) into ``out``."""
        piece: Dict[IdWord, PiValue] = {word: coeff}
        for i in letters:
            nxt: Dict[IdWord, PiValue] = {}
            for w, c in piece.items():
                self._append_letter(nxt, w, c, i)
            piece = nxt
        for w, c in piece.items():
            cur = out.get(w)
            out[w] = c if cur is None else cur + c

    def _append_letter(self, out: Dict[IdWord, PiValue], word: IdWord, coeff: PiValue,
                       i: int) -> None:
        if word and _LETTER_LEGS[word[-1]] == _LETTER_LEGS[i]:
            key = (word[-1], i)
            parts = self._merges.get(key)
            if parts is None:
                leg = self.leg(_LETTER_LEGS[i])
                parts = self._merges[key] = self._split(
                    leg, leg.mul(_LETTERS[word[-1]], _LETTERS[i]))
            base = word[:-1]
        else:
            parts = self._splits.get(i)
            if parts is None:
                parts = self._splits[i] = self._split(
                    self.leg(_LETTER_LEGS[i]), _LETTERS[i])
            base = word
        for scale, reduced in parts:
            w2 = base if reduced is None else base + (reduced,)
            cur = out.get(w2)
            add = coeff * scale
            out[w2] = add if cur is None else cur + add

    @staticmethod
    def _split(leg: Leg, letter: Letter) -> tuple:
        return tuple((PiValue.of(q), None if b is None else _intern(b))
                     for q, b in leg.split(letter))

    # -- letter/leg oracles --------------------------------------------------

    def letter_trace(self, letter: Letter) -> PiValue:
        return self.leg(letter.leg).trace(letter)

    def leg_moment(self, letters: Tuple[Letter, ...]) -> PiValue:
        """Trace of the ordered in-leg product of same-leg letters."""
        legs = {l.leg for l in letters}
        if len(legs) != 1:
            raise ValueError("moment tuple must come from a single leg")
        leg = self.leg(letters[0].leg)
        combined = letters[0]
        for letter in letters[1:]:
            combined = leg.mul(combined, letter)
        return leg.trace(combined)

    def leg_cumulant(self, letters: Tuple[Letter, ...]) -> PiValue:
        """Free cumulant of same-leg letters, by ``moments_to_cumulants``
        over ``leg_moment``."""
        return self._cumulant(tuple(letters))

    # -- trace by a fold over the centered basis -------------------------------

    def trace_word(self, word: Word) -> PiValue:
        """Exact trace of an alternating word, by a fold over the centered
        basis.

        The letters are appended left to right to a combination of reduced
        words of centered basis letters; a same-leg neighbour is merged by
        the leg's product table.  Nonempty reduced words have trace zero by
        freeness, so the trace is the coefficient of the empty word.  A word
        longer than the letters still to come can no longer reach the empty
        word and is dropped."""
        word = tuple(word)
        for a, b in zip(word, word[1:]):
            if a.leg == b.leg:
                raise ValueError("word is not alternating-normalized")
        return self._trace_word(tuple(map(_intern, word)))

    def _trace_word(self, word: IdWord) -> PiValue:
        n = len(word)
        if n > MAX_WORD_LETTERS:
            raise EvaluationLimitError(f"word length {n} exceeds {MAX_WORD_LETTERS}")
        cached = self._tr_memo.get(word)
        if cached is not None:
            return cached
        legs = _LETTER_LEGS
        # reduced words of centered basis letters, as id words
        acc: Dict[IdWord, PiValue] = {(): PI_ONE}
        for pos, i in enumerate(word):
            room = n - 1 - pos  # letters still to come
            scalar, parts = self._center(i)
            nxt: Dict[IdWord, PiValue] = {}
            for w, c in acc.items():
                size = len(w)
                if scalar is not None and size <= room:
                    _accumulate(nxt, w, c * scalar)
                last_leg = legs[w[-1]] if w else None
                for b, q in parts:
                    if legs[b] == last_leg:
                        s, prod = self._centered_product(w[-1], b)
                        cq = c * q
                        base = w[:-1]
                        if s is not None:
                            _accumulate(nxt, base, cq * s)
                        if size <= room:
                            for b2, r in prod:
                                _accumulate(nxt, base + (b2,), cq * r)
                    elif size < room:
                        _accumulate(nxt, w + (b,), c * q)
            acc = {w: c for w, c in nxt.items() if not c.is_zero()}
            if not acc:
                break
        result = acc.get((), PI_ZERO)
        self._tr_memo[word] = result
        return result

    def _center(self, i: int):
        """Memoized ``Leg.center`` over letter ids; a zero trace is None."""
        got = self._centered.get(i)
        if got is None:
            letter = _LETTERS[i]
            t, parts = self.leg(letter.leg).center(letter)
            got = (None if t.is_zero() else t,
                   tuple((_intern(b), q) for q, b in parts))
            self._centered[i] = got
        return got

    def _centered_product(self, a: int, b: int):
        """Memoized ``Leg.centered_mul`` over letter ids; a zero scalar is
        None."""
        got = self._products.get((a, b))
        if got is None:
            la, lb = _LETTERS[a], _LETTERS[b]
            s, parts = self.leg(la.leg).centered_mul(la, lb)
            got = (None if s.is_zero() else s,
                   tuple((_intern(l), q) for q, l in parts))
            self._products[(a, b)] = got
        return got

    def trace(self, nc: NCPoly) -> PiValue:
        """Linear extension of the word trace to combinations."""
        total = PI_ZERO
        for w, c in nc._terms.items():
            total = total + c * self._trace_word(w)
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
        stay within one leg.
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
        xs: List[object] = []
        ys: List[object] = []
        expect_x = True
        for i, letter in enumerate(word):
            fam1 = i in f1
            if expect_x:
                if fam1:
                    xs.append(letter)
                    expect_x = False
                else:
                    xs.append(UNIT)
                    ys.append(letter)
            else:
                if fam1:
                    ys.append(UNIT)
                    xs.append(letter)
                else:
                    ys.append(letter)
                    expect_x = True
        if not expect_x:
            ys.append(UNIT)
        n = len(xs)
        if n > MAX_PARTITION_N:
            raise EvaluationLimitError(
                f"partition formula over {n} slots exceeds {MAX_PARTITION_N}"
            )
        if n == 0:
            return PI_ONE
        total = PI_ZERO
        for p in enumerate_nc(n):
            kappa = PI_ONE
            for block in p.blocks:
                kappa = kappa * self._cum_block(tuple(xs[i - 1] for i in block))
                if kappa.is_zero():
                    break
            if kappa.is_zero():
                continue
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
        if any(e is UNIT for e in entries):
            # cumulants of order >= 2 vanish when an entry is the identity
            return PI_ZERO
        legs = {e.leg for e in entries}
        if len(legs) > 1:
            # mixed cumulants of free legs vanish
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


def _accumulate(d: dict, key, value: PiValue) -> None:
    cur = d.get(key)
    d[key] = value if cur is None else cur + value


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
# R-diagonal support


def r_diagonal_filter(letters: Sequence[HaarLetter]) -> bool:
    """Whether a free cumulant of Haar-unitary letters can be nonzero.

    Mixed legs or a nonzero total power force the cumulant to vanish.  For
    generator/inverse tuples (all powers +-1) the cumulant survives only
    when the powers strictly alternate.  Balanced tuples involving higher
    powers are outside that criterion and are conservatively kept.
    """
    letters = tuple(letters)
    if not letters:
        raise ValueError("empty tuple")
    for l in letters:
        if not isinstance(l, HaarLetter):
            raise TypeError(f"expected Haar letters, got {l!r}")
    if len({l.leg for l in letters}) > 1:
        return False
    if sum(l.power for l in letters) != 0:
        return False
    powers = [l.power for l in letters]
    if all(abs(p) == 1 for p in powers):
        return all(a == -b for a, b in zip(powers, powers[1:]))
    return True


def contributing_partitions(fp: FreeProduct, letters: Sequence[Letter]) -> List[NCPartition]:
    """Partitions of the letter positions whose partitioned cumulant is not
    forced to vanish: blocks must stay within one leg, and Haar blocks must
    pass the alternating generator/inverse filter."""
    letters = tuple(letters)
    m = len(letters)
    out = []
    for p in enumerate_nc(m):
        ok = True
        for block in p.blocks:
            picked = tuple(letters[i - 1] for i in block)
            legs = {l.leg for l in picked}
            if len(legs) > 1:
                ok = False
                break
            leg = fp.leg(picked[0].leg)
            if leg.kind == "haar":
                if not r_diagonal_filter(picked):  # type: ignore[arg-type]
                    ok = False
                    break
        if not ok:
            continue
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# The standard model and model files


def standard_model(extra_legs: Iterable[Leg] = ()) -> FreeProduct:
    """Trig leg ``f`` plus Haar legs ``u`` and ``v``, the ambient free
    product used by the 2x2 matrix model."""
    legs: List[Leg] = [TrigLeg("f"), HaarLeg("u"), HaarLeg("v")]
    legs.extend(extra_legs)
    return FreeProduct(legs)


def legs_from_model_dict(doc: dict) -> List[Leg]:
    """Parse the JSON model document: an object whose ``legs`` array holds
    declaration objects with ``kind`` in {"finite_comm", "haar"};
    finite_comm legs carry ``m`` and an object of named rational vectors.
    A document of the wrong shape raises ``ValueError`` naming the leg."""
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
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(
                    f"finite_comm leg {leg_id!r} needs an integer 'm' >= 1, got {m!r}")
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
                    leg.add_element(name, vec)
                except (TypeError, ValueError, ZeroDivisionError):
                    raise ValueError(
                        f"leg {leg_id!r}: element {name!r} needs {m} rational "
                        f"entries, got {vec!r}") from None
            legs.append(leg)
        elif kind == "haar":
            legs.append(HaarLeg(leg_id))
        else:
            raise ValueError(f"unknown leg kind {kind!r}")
    return legs
