"""2x2 matrices over the free-product algebra, the model constants, and
exhaustive freeness harnesses.

The ambient algebra is the free product of the trig leg (generated by
c = cos theta, s = sin theta), two Haar unitaries u, v, and the two-atom
commutative legs of the sum and matrix harnesses.  The model constants are

    U = (0 u; 0 0)        V = (0 v; 0 0)       W = (c -s; s c)
    X = W V W*            P = U U*             Q = X X* = W P W*
    P0 = P - 1/2          Q0 = Q - 1/2

with the normalized matrix trace Tr(A) = (tr(A11) + tr(A22)) / 2.

Freeness of two sets of matrices is checked at desk scale: every
alternating product of centered generators, over all four start/end
patterns up to a length bound, must have exactly vanishing trace - and,
stronger, both diagonal entries must have vanishing scalar trace.  When a
product involves an off-diagonal generator, the off-diagonal entries are
checked as well.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .freeword import FiniteCommLeg, FreeProduct, NCPoly, standard_model
from .record import Record
from .trigalg import PiValue, TrigPoly

# The most words one freeness walk may visit.  The largest harness length
# in use, matrix:5, checks 39214 words in 0.12 s (0.115-0.19, median and
# range of 15 fresh processes, on a 2-core x86 machine with Python 3.11).
MAX_HARNESS_WORDS = 50_000


def harness_word_count(n_a: int, n_b: int, max_len: int) -> int:
    """Words the freeness walk over generator families of sizes n_a and n_b
    visits up to length max_len: both start patterns at each length k,

        sum over k of a^ceil(k/2) b^floor(k/2) + b^ceil(k/2) a^floor(k/2).

    The sum stops once it passes MAX_HARNESS_WORDS, so it is exact up to
    that bound and costs nothing for a huge length."""
    total = 0
    for k in range(1, max_len + 1):
        up, down = (k + 1) // 2, k // 2
        term = n_a ** up * n_b ** down + n_b ** up * n_a ** down
        total += term
        if not term or total > MAX_HARNESS_WORDS:
            break
    return total


# A word of a freeness walk: its last generator name, linked to the word
# before it (None for the empty word).
_Word = Optional[Tuple[str, "_Word"]]


def _word_text(word: _Word) -> str:
    """The names of ``word`` in order, separated by spaces."""
    names = []
    while word is not None:
        name, word = word
        names.append(name)
    return " ".join(reversed(names))


# The entries a word checks: all four under a full check, else the diagonal
# ones of a genuine product and none of a lone generator, whose Tr = 0 is the
# walk's precondition.
_DIAGONAL = ((0, 0), (1, 1))
_ALL_ENTRIES = ((0, 0), (1, 1), (0, 1), (1, 0))


def _report_entries(report: "CheckReport", word: _Word,
                    entries: Sequence[Tuple[int, int]], traces: Sequence[PiValue]) -> None:
    """Add a failure for each entry of ``word`` whose trace is not zero."""
    for (i, j), t in zip(entries, traces):
        if not t.is_zero():
            report.failures.append({
                "word": _word_text(word), "entry": f"{i + 1}{j + 1}", "value": str(t),
            })


def _adjoint_positions(families: Sequence[Sequence[Tuple[str, "Mat2"]]],
                       offdiag: frozenset) -> Optional[List[List[int]]]:
    """For each family, the position in that family of each generator's
    adjoint, found by exact ``Mat2`` equality; a self-adjoint generator is
    its own.

    None when words cannot be paired with their adjoints: some generator's
    adjoint is not in its own family, the map is not an involution (two
    equal generators that are not self-adjoint), or it joins a generator
    named in ``offdiag`` to one that is not."""
    out = []
    for family in families:
        adj = []
        for i, (name, g) in enumerate(family):
            star = g.adjoint()
            j = i if star == g else next(
                (k for k, (_, h) in enumerate(family) if h == star), None)
            if j is None or (name in offdiag) != (family[j][0] in offdiag):
                return None
            adj.append(j)
        if any(adj[j] != i for i, j in enumerate(adj)):
            return None
        out.append(adj)
    return out


def _certified_degrees(fp: FreeProduct, families: Sequence[Sequence[Tuple[str, "Mat2"]]]
                       ) -> Tuple[List[List[Tuple[int, ...]]], Tuple[int, ...]]:
    """Each generator's degrees (``FreeProduct.grade`` over the words of all
    its entries) in the legs that grade every generator of both families
    homogeneously and some generator by a nonzero degree, per family and
    position, and those legs' moduli.  Every entry of a product of such
    generators then has the sum of their degrees; no degree is taken from
    a name."""
    degrees = [[fp.grade(*(x for row in g.e for x in row)) for _, g in family]
               for family in families]
    flat = [d for family in degrees for d in family]
    legs = [leg_id for leg_id in fp.legs
            if all(d.get(leg_id, 0) is not None for d in flat)
            and any(d.get(leg_id) for d in flat)]
    return ([[tuple(d.get(leg_id, 0) for leg_id in legs) for d in family]
             for family in degrees],
            tuple(fp.legs[leg_id].grade_modulus for leg_id in legs))


def _product_entry(mul: Callable, left: Callable[[int, int], NCPoly], right: "Mat2",
                   i: int, j: int) -> NCPoly:
    """Entry (i, j) of a product whose left factor has entry (i, k) =
    ``left(i, k)``: sum_k left(i, k) right_kj, reading left(i, k) only where
    right_kj is not zero.  The skipped terms are zero and add nothing."""
    h0, h1 = right.e[0][j], right.e[1][j]
    if h0.is_zero():
        return h1 if h1.is_zero() else mul(left(i, 1), h1)
    out = mul(left(i, 0), h0)
    return out if h1.is_zero() else out + mul(left(i, 1), h1)


class Mat2:
    """2x2 matrix over NCPoly, tied to a FreeProduct for multiplication."""

    __slots__ = ("fp", "e")

    def __init__(self, fp: FreeProduct, entries: Sequence[Sequence[NCPoly]]):
        self.fp = fp
        self.e = ((entries[0][0], entries[0][1]), (entries[1][0], entries[1][1]))

    @classmethod
    def zero(cls, fp: FreeProduct) -> "Mat2":
        z = NCPoly.zero()
        return cls(fp, ((z, z), (z, z)))

    @classmethod
    def identity(cls, fp: FreeProduct) -> "Mat2":
        one = NCPoly.unit()
        z = NCPoly.zero()
        return cls(fp, ((one, z), (z, one)))

    @classmethod
    def diag(cls, fp: FreeProduct, a: NCPoly, d: NCPoly) -> "Mat2":
        z = NCPoly.zero()
        return cls(fp, ((a, z), (z, d)))

    def entry(self, other: "Mat2", i: int, j: int) -> NCPoly:
        """Entry (i, j) of ``self @ other``, formed alone."""
        e = self.e
        return _product_entry(self.fp.mul, lambda i, k: e[i][k], other, i, j)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        e = self.entry
        return Mat2(self.fp, ((e(other, 0, 0), e(other, 0, 1)),
                              (e(other, 1, 0), e(other, 1, 1))))

    def __add__(self, other: "Mat2") -> "Mat2":
        a, b = self.e, other.e
        return Mat2(self.fp, tuple(
            tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2)))

    def __sub__(self, other: "Mat2") -> "Mat2":
        a, b = self.e, other.e
        return Mat2(self.fp, tuple(
            tuple(a[i][j] - b[i][j] for j in range(2)) for i in range(2)))

    def scaled(self, q) -> "Mat2":
        return Mat2(self.fp, tuple(tuple(x.scaled(q) for x in row) for row in self.e))

    def adjoint(self) -> "Mat2":
        a = self.e
        return Mat2(self.fp, (
            (a[0][0].adjoint(), a[1][0].adjoint()),
            (a[0][1].adjoint(), a[1][1].adjoint()),
        ))

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.e == other.e

    def Tr(self) -> PiValue:
        half = Fraction(1, 2)
        return (self.fp.trace(self.e[0][0]) + self.fp.trace(self.e[1][1])) * half

    def __str__(self):
        return (f"[[{self.e[0][0]}, {self.e[0][1]}],"
                f" [{self.e[1][0]}, {self.e[1][1]}]]")

    __repr__ = __str__


class _WordProduct:
    """The product of a word of a freeness walk, formed entry by entry:
    ``left`` is the product of the word without its last generator ``g``,
    None for a lone generator, whose entries are g's.  Entry (i, j) is
    formed once, when the word's check or a child reads it, and reads
    ``left``'s entry (i, k) only where g_kj is not zero, so a subtree that
    no check reads forms nothing.  ``left`` is dropped once all four entries
    are formed, so a long walk keeps no chain of ancestors alive.

    ``entry`` recurses only past unformed entries, and a word is visited,
    and its check reads its entries, before its children: a read goes back
    only over ancestors whose checks read nothing or not that row.  Only
    one-generator families (PQ) let a walk pass about 30 letters, and there
    every other word is traced: PQ:1500 reads back at most three letters."""

    __slots__ = ("fp", "left", "g", "formed", "unformed")

    def __init__(self, fp: FreeProduct, left: Optional["_WordProduct"], g: Mat2):
        self.fp, self.left, self.g = fp, left, g
        # entry (i, j) in slot 2i + j, None until formed; ``unformed`` counts them
        self.formed = [x for row in g.e for x in row] if left is None else [None] * 4
        self.unformed = 0 if left is None else 4

    def entry(self, i: int, j: int) -> NCPoly:
        got = self.formed[2 * i + j]
        if got is None:
            got = self.formed[2 * i + j] = _product_entry(
                self.fp.mul, self.left.entry, self.g, i, j)
            self.unformed -= 1
            if not self.unformed:
                self.left = None
        return got


class CheckReport(Record):
    """Identity-check outcome; failures carry the offending item."""

    _fields = ("harness", "max_len", "words_checked", "failures")

    def __init__(self, harness: str, max_len: int, words_checked: int,
                 failures: Optional[List[dict]] = None):
        self.harness = harness
        self.max_len = max_len
        self.words_checked = words_checked
        self.failures = [] if failures is None else failures
        # freeness walks: entry traces computed, taken from an adjoint
        # partner, and known to be zero from the word's degree; outside
        # _fields, so reports compare and print as before
        self.entries_traced = 0
        self.entries_derived = 0
        self.entries_skipped = 0

    @property
    def passed(self) -> bool:
        return not self.failures


# A harness's generators: the two families of named centered matrices and
# the names of the partial-isometry generators among them.
Generators = Tuple[List[Tuple[str, Mat2]], List[Tuple[str, Mat2]], frozenset]


class MatrixModel:
    """Model constants plus the verification harnesses, over the standard
    model and the two-atom legs A, B (matrix harness) and A1, A2, B1, B2
    (sum harness), each with the centered element h = (1, -1)."""

    def __init__(self):
        self.fp = standard_model(FiniteCommLeg(leg_id, 2, {"h": (1, -1)})
                                 for leg_id in ("A", "B", "A1", "A2", "B1", "B2"))
        f = self.fp.leg("f")
        u = self.fp.leg("u")
        v = self.fp.leg("v")
        c, s = f.c(), f.s()
        self._u = u
        self._v = v
        nc = lambda *letters: self.fp.normalize(letters)  # noqa: E731
        z = NCPoly.zero()
        fp_ = self.fp
        self.U = Mat2(fp_, ((z, nc(u.gen(1))), (z, z)))
        self.V = Mat2(fp_, ((z, nc(v.gen(1))), (z, z)))
        self.W = Mat2(fp_, ((nc(c), -nc(s)), (nc(s), nc(c))))
        self.X = self.W @ self.V @ self.W.adjoint()
        self.P = self.U @ self.U.adjoint()
        self.Q = self.X @ self.X.adjoint()
        half = Fraction(1, 2)
        self.P0 = self.P - Mat2.identity(fp_).scaled(half)
        self.Q0 = self.Q - Mat2.identity(fp_).scaled(half)

    def constants(self) -> Dict[str, Mat2]:
        return {
            "U": self.U, "V": self.V, "W": self.W, "X": self.X,
            "P": self.P, "Q": self.Q, "P0": self.P0, "Q0": self.Q0,
        }

    def trig_mat(self, entries: Sequence[Sequence[TrigPoly]]) -> Mat2:
        f = self.fp.leg("f")
        return Mat2(self.fp, tuple(
            tuple(self.fp.normalize([f.letter(p)]) for p in row) for row in entries))

    # -- explicit identities --------------------------------------------------

    def verify_rotation(self, r_max: int) -> CheckReport:
        """(2P0 2Q0)^r is the rotation block (c_{2r} s_{2r}; -s_{2r} c_{2r})
        and (2Q0 2P0)^r 2Q0 is the reflection block
        (c_{2r+2} s_{2r+2}; s_{2r+2} -c_{2r+2}), entrywise exactly."""
        if not (1 <= r_max <= 50):
            raise ValueError("r_max must be in 1..50")
        report = CheckReport("rotation", r_max, 0)
        p2, q2 = self.P0.scaled(2), self.Q0.scaled(2)
        pq = p2 @ q2
        qp = q2 @ p2
        pq_pow = Mat2.identity(self.fp)
        qp_pow = Mat2.identity(self.fp)
        for r in range(1, r_max + 1):
            pq_pow = pq_pow @ pq
            qp_pow = qp_pow @ qp
            c, s = TrigPoly.cos(2 * r), TrigPoly.sin(2 * r)
            c2, s2 = TrigPoly.cos(2 * r + 2), TrigPoly.sin(2 * r + 2)
            for which, got, want in (
                    ("(2P0.2Q0)^r", pq_pow, ((c, s), (-s, c))),
                    ("(2Q0.2P0)^r 2Q0", qp_pow @ q2, ((c2, s2), (s2, -c2)))):
                report.words_checked += 1
                if got != self.trig_mat(want):
                    report.failures.append({"r": r, "which": which, "got": str(got)})
        return report

    def verify_partial_isometries(self) -> CheckReport:
        """U*U + UU* = 1 and X*X + XX* = 1, the absorption identities
        PU = U, QX = X, UP = 0, XQ = 0, and (2P0)^2 = (2Q0)^2 = 1."""
        fp = self.fp
        one = Mat2.identity(fp)
        zero = Mat2.zero(fp)
        checks = [
            ("U*U + UU* = 1", self.U.adjoint() @ self.U + self.U @ self.U.adjoint(), one),
            ("X*X + XX* = 1", self.X.adjoint() @ self.X + self.X @ self.X.adjoint(), one),
            ("U^2 = 0", self.U @ self.U, zero),
            ("(U*)^2 = 0", self.U.adjoint() @ self.U.adjoint(), zero),
            ("PU = U", self.P @ self.U, self.U),
            ("QX = X", self.Q @ self.X, self.X),
            ("UP = 0", self.U @ self.P, zero),
            ("XQ = 0", self.X @ self.Q, zero),
            ("(2P0)^2 = 1", self.P0.scaled(2) @ self.P0.scaled(2), one),
            ("(2Q0)^2 = 1", self.Q0.scaled(2) @ self.Q0.scaled(2), one),
            ("Q = W P W*", self.W @ self.P @ self.W.adjoint(), self.Q),
            ("X = W V W*", self.W @ self.V @ self.W.adjoint(), self.X),
        ]
        report = CheckReport("partial_isometries", 0, 0)
        for name, got, want in checks:
            report.words_checked += 1
            if got != want:
                report.failures.append({"identity": name, "got": str(got)})
        return report

    # -- freeness harness ------------------------------------------------------

    def check_freeness(self, gen_a: Sequence[Tuple[str, Mat2]],
                       gen_b: Sequence[Tuple[str, Mat2]],
                       max_len: int, harness: str = "freeness",
                       offdiag_names: Iterable[str] = ()) -> CheckReport:
        """Every alternating product g1 h1 g2 h2 ... (all four start/end
        patterns, lengths 1..max_len) of centered generators must have
        Tr = 0.  Genuine products (length >= 2) must have both diagonal
        entries of scalar trace 0, and every word containing a generator
        listed in ``offdiag_names`` (the partial-isometry generators) is
        checked on all four entries.  A lone generator's Tr = 0 is the
        precondition, so it checks no entry unless it is a full check:
        diag(1, -1) has Tr = 0 but its diagonal entries are not
        scalar-trace-free.

        ``words_checked`` counts every word.  Adjoint pairing: when each
        family is closed under adjoint (exact ``Mat2`` equality, generators
        matched by position, not by name) and ``offdiag_names`` is closed
        under that map, the walk meets every word w and its adjoint w*, at
        the same length and with the same entries checked.
        The trace is a *-trace with real values, so tr((w*)_ij) = tr(w_ji):
        whichever of the two comes second in the walk has its entries
        derived from those of the first, transposed, rather than traced.
        Otherwise every word is traced.

        Degrees: a generator's degree in a graded leg (``Leg.grade``, the
        u-charge of a Haar leg or the parity of a two-atom leg) is computed
        exactly from the words of all its nonzero entries.  A leg counts
        only when every generator of both families is homogeneous in it,
        whatever the generators' names, so every entry of a word has the
        sum of its generators' degrees.  A word of nonzero degree in some
        counted leg has trace 0 in every entry, by the leg's automorphisms:
        it traces nothing and fills no pending entry, and its adjoint, of
        the negative degree, is skipped too.  It forms only the entries its
        children read.  The report's ``entries_traced``,
        ``entries_derived`` and ``entries_skipped`` count the three kinds
        of entry.

        Every word is a ``_WordProduct``, which forms an entry of its
        product only when its own check or a child reads it, and traces
        each checked entry it does not derive or skip as tr of that entry.

        Precondition: every generator is centered (Tr = 0) - violations
        raise rather than report.
        """
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        if harness_word_count(len(gen_a), len(gen_b), max_len) > MAX_HARNESS_WORDS:
            raise ValueError(f"{harness} up to max_len {max_len} would check more "
                             f"than {MAX_HARNESS_WORDS} words")
        for name, g in list(gen_a) + list(gen_b):
            t = g.Tr()
            if not t.is_zero():
                raise ValueError(f"generator {name} is not centered: Tr = {t}")
        offdiag = frozenset(offdiag_names)
        report = CheckReport(harness, max_len, 0)
        families = (list(gen_a), list(gen_b))
        adj = _adjoint_positions(families, offdiag)
        degrees, moduli = _certified_degrees(self.fp, families)
        # Each family as its index and its members: (position, position of
        # the adjoint, name, matrix, degrees).  Without pairing the second
        # position is never read.
        fams = [(f, [(pos, adj[f][pos] if adj else pos, name, g, degrees[f][pos])
                     for pos, (name, g) in enumerate(family)])
                for f, family in enumerate(families)]
        # The entry traces, as tuples, of words whose adjoint was checked first,
        # by key, popped when used: a long PQ walk holds half its words here.
        pending: Dict[Tuple[int, int], Tuple[PiValue, ...]] = {}

        # Depth first, in the order of a recursive walk: each entry holds a
        # product still to be extended by one generator.  The explicit stack
        # keeps long walks (PQ) clear of the recursion limit.  A word is
        # held as its last name linked to the word before it, so pushing a
        # word costs O(1) however long it is.  The same holds for its key,
        # (remaining, rank): ``rank`` reads the start family's index and
        # then the word's positions as the digits of one mixed-radix number,
        # each position's radix the size of its family, and ``size`` is the
        # product of those radices.  ``rev`` is the number of the adjoint's
        # positions, without its start digit.  ``degree`` is the word's, the
        # sum of its generators' degrees.
        zero = tuple(0 for _ in moduli)
        stack = [(None, None, None, 1, 0, 1, zero, False, fams[1], fams[0], max_len),
                 (None, None, None, 0, 0, 1, zero, False, fams[0], fams[1], max_len)]
        trace = self.fp.trace
        while stack:
            (prod, g, word, rank, rev, size, degree, full_check,
             nxt, other, remaining) = stack.pop()
            if g is not None:
                report.words_checked += 1
                entries = (_ALL_ENTRIES if full_check else
                           _DIAGONAL if prod is not None else ())
                prod = _WordProduct(self.fp, prod, g)
                key = (remaining, rank)
                if any(degree):
                    # Every entry has trace 0, and so has every entry of the
                    # adjoint, whose degree is the negative: neither is
                    # traced, and no pending entry is filled.
                    report.entries_skipped += len(entries)
                    traces = []
                elif (traces := pending.pop(key, None)) is not None:
                    report.entries_derived += len(traces)
                else:
                    traces = [trace(prod.entry(i, j)) for i, j in entries]
                    report.entries_traced += len(traces)
                    if adj:
                        # the adjoint starts in the family of the last generator;
                        # transposing swaps the off-diagonal pair, if checked
                        adj_key = (remaining, other[0] * size + rev)
                        if adj_key != key:
                            pending[adj_key] = (*traces[:2], *traces[3:1:-1])
                _report_entries(report, word, entries, traces)
            if remaining:
                radix = len(nxt[1])
                for pos, adj_pos, name, h, d in reversed(nxt[1]):
                    stack.append((prod, h, (name, word), rank * radix + pos,
                                  adj_pos * size + rev, size * radix,
                                  tuple([(x + y) % m if m else x + y
                                         for x, y, m in zip(degree, d, moduli)]),
                                  full_check or name in offdiag, other, nxt, remaining - 1))
        assert not pending, f"{len(pending)} adjoint partners never walked"
        return report

    # -- embedded submodels ---------------------------------------------------

    def embed_sum_model(self, a1: NCPoly, a2: NCPoly) -> Mat2:
        """diag(a1, a2): the copy of a two-summand direct sum inside the
        matrix algebra."""
        return Mat2.diag(self.fp, a1, a2)

    def embed_conjugated_sum(self, b1: NCPoly, b2: NCPoly) -> Mat2:
        """W diag(b1, b2) W*: the rotated copy of a second direct sum."""
        return self.W @ Mat2.diag(self.fp, b1, b2) @ self.W.adjoint()

    def embed_matrix_model(self, entries: Sequence[Sequence[NCPoly]]) -> Mat2:
        """Y* (a_ij) Y with Y = diag(1, u): the twisted copy of a full 2x2
        matrix algebra over a leg."""
        y = Mat2.diag(self.fp, NCPoly.unit(),
                      self.fp.normalize([self._u.gen(1)]))
        m = Mat2(self.fp, entries)
        return y.adjoint() @ m @ y

    def embed_matrix_model_conj(self, entries: Sequence[Sequence[NCPoly]]) -> Mat2:
        """W Z* (b_ij) Z W* with Z = diag(1, v): the second twisted copy."""
        z = Mat2.diag(self.fp, NCPoly.unit(),
                      self.fp.normalize([self._v.gen(1)]))
        m = Mat2(self.fp, entries)
        return self.W @ z.adjoint() @ m @ z @ self.W.adjoint()

    # -- standard generator sets -----------------------------------------------

    def generators(self, harness: str) -> Generators:
        """The centered spanning sets of the named harness in ``HARNESSES``,
        plus the names of the partial-isometry generators (whose presence in
        a word makes all four entry traces vanish, not just the diagonal
        ones)."""
        if harness not in HARNESSES:
            raise ValueError(f"unknown harness {harness!r}; expected one of "
                             f"{sorted(HARNESSES)}")
        return HARNESSES[harness][1](self)


def _partial_isometry_generators(mm: MatrixModel, u_side: bool,
                                 x_side: bool) -> Generators:
    """{2P0}, or {U, U*, 2P0} with ``u_side``, against {2Q0}, or
    {X, X*, 2Q0} with ``x_side``."""
    p2 = ("2P0", mm.P0.scaled(2))
    q2 = ("2Q0", mm.Q0.scaled(2))
    gen_a = [("U", mm.U), ("U*", mm.U.adjoint()), p2] if u_side else [p2]
    gen_b = [("X", mm.X), ("X*", mm.X.adjoint()), q2] if x_side else [q2]
    offdiag = frozenset({"U", "U*", "X", "X*"}) if u_side or x_side else frozenset()
    return gen_a, gen_b, offdiag


def _leg_h(mm: MatrixModel, leg_id: str) -> NCPoly:
    """The centered element h = (1, -1) of a two-atom leg."""
    return mm.fp.normalize([mm.fp.leg(leg_id).element("h")])


def sum_model_generators(mm: MatrixModel) -> Generators:
    """Desk-scale direct-sum freeness instance over the two-atom legs A1,
    A2, B1, B2: the first family embeds centered pairs as diag(a1, a2),
    the second as W diag(b1, b2) W*.  The three generators per side span
    the centered part of each two-summand sum."""
    one = NCPoly.unit()
    z = NCPoly.zero()
    gen_a = [
        ("a-sign", mm.embed_sum_model(one, -one)),
        ("a-left", mm.embed_sum_model(_leg_h(mm, "A1"), z)),
        ("a-right", mm.embed_sum_model(z, _leg_h(mm, "A2"))),
    ]
    gen_b = [
        ("b-sign", mm.embed_conjugated_sum(one, -one)),
        ("b-left", mm.embed_conjugated_sum(_leg_h(mm, "B1"), z)),
        ("b-right", mm.embed_conjugated_sum(z, _leg_h(mm, "B2"))),
    ]
    return gen_a, gen_b, frozenset()


def matrix_model_generators(mm: MatrixModel) -> Generators:
    """Desk-scale matrix-times-matrix freeness instance: 2x2 matrices over
    the two-atom leg A embedded by conjugation with diag(1, u), against the
    same shape over the leg B embedded by W diag(1, v)* . diag(1, v) W*.
    The seven generators per side span the centered 2x2 matrices."""
    one = NCPoly.unit()
    z = NCPoly.zero()

    def side(h: NCPoly, embed) -> List[Tuple[str, Mat2]]:
        shapes = [
            ("11h", ((h, z), (z, z))),
            ("22h", ((z, z), (z, h))),
            ("sign", ((one, z), (z, -one))),
            ("12", ((z, one), (z, z))),
            ("12h", ((z, h), (z, z))),
            ("21", ((z, z), (one, z))),
            ("21h", ((z, z), (h, z))),
        ]
        return [(name, embed(entries)) for name, entries in shapes]

    gen_a = [("a" + n, m) for n, m in side(_leg_h(mm, "A"), mm.embed_matrix_model)]
    gen_b = [("b" + n, m) for n, m in side(_leg_h(mm, "B"), mm.embed_matrix_model_conj)]
    return gen_a, gen_b, frozenset()


# Every freeness harness: its name, the length ``free-check`` walks by
# default, and the builder of its generators.
HARNESSES: Dict[str, Tuple[int, Callable[[MatrixModel], Generators]]] = {
    "PQ": (12, lambda mm: _partial_isometry_generators(mm, False, False)),
    "UX": (4, lambda mm: _partial_isometry_generators(mm, True, True)),
    "PX": (6, lambda mm: _partial_isometry_generators(mm, False, True)),
    "UQ": (6, lambda mm: _partial_isometry_generators(mm, True, False)),
    "sum": (4, sum_model_generators),
    "matrix": (3, matrix_model_generators),
}
