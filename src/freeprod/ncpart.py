"""Non-crossing partitions of {1..n}: enumeration, Kreweras complements,
and the interval-block linking property used by the cumulant machinery.

A partition is *crossing* when there are a < b < c < d with a, c in one
block and b, d in a different block.  Non-crossing partitions of an n-set
are counted by the Catalan numbers.  Equivalently, blocks nest like
parentheses.  Call a block *open* at x when it has an element before x and
one at or after x.  A partition is non-crossing exactly when, scanning
1..n, each element either continues the innermost open block or opens a
new one; a block continued from below the innermost would cross every
block opened after it that is still open (Nica-Speicher, *Lectures on the
Combinatorics of Free Probability*, 2006, Lecture 9).  This open-block
rule is the one definition used here: one recursion builds partitions by
it, either all of NC(n) (`enumerate_nc`) or only those whose blocks all
carry a nonzero weight (`weighted_nc`, which drops a branch as soon as a
block closes with weight zero), and `NCPartition.from_blocks` validates by
it.

The partitions of NC(n) with 1 ~ n, which the interval lemma is about, are
those of NC(n-1) with n added to the block of 1 (`linked_nc`), so the
lemma sweep builds Catalan(n-1) partitions instead of Catalan(n).

The Kreweras complement K(p) lives on interleaved dual points 1', ..., n'
(i' sits between i and i+1, n' after n) and is the coarsest partition of
the primes whose union with p is still non-crossing on the 2n interleaved
points.  It is computed in closed form as the cycles of the permutation
pi^-1 gamma, where pi has the blocks of p as its cycles, each in
increasing order, and gamma = (1 2 ... n) (Biane, "Some properties of
crossings and partitions", Discrete Math. 175, 1997; Nica-Speicher,
Lecture 9).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from .record import FrozenRecord, Record

MAX_ENUM_N = 12
MAX_LEMMA_N = 10


class SizeLimitError(ValueError):
    """Requested ground-set size is outside the guarded range."""


Blocks = Tuple[Tuple[int, ...], ...]


class NCPartition(FrozenRecord):
    """A non-crossing partition of {1..n}.

    Blocks are stored sorted internally and ordered by least element;
    construction validates coverage, disjointness and non-crossingness.
    """

    _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: Blocks):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "NCPartition":
        """Validate and canonicalize.  One pass maps each element to its
        block; one scan of 1..n then keeps the stack of open blocks and
        checks the open-block rule of the module docstring."""
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        owner = {}
        for b in canon:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not (1 <= x <= n):
                    raise ValueError(f"element {x} outside 1..{n}")
                if x in owner:
                    raise ValueError(f"element {x} repeated")
                owner[x] = b
        if len(owner) != n:
            raise ValueError(f"blocks do not cover 1..{n}")
        stack: List[Tuple[int, ...]] = []  # open blocks, innermost last
        for x in range(1, n + 1):
            b = owner[x]
            if x == b[0]:
                if x != b[-1]:
                    stack.append(b)
            elif stack[-1] is not b:
                raise ValueError(f"blocks {canon} are crossing")
            elif x == b[-1]:
                stack.pop()
        return cls(n, canon)

    @classmethod
    def full(cls, n: int) -> "NCPartition":
        return cls(n, (tuple(range(1, n + 1)),))

    def block_index(self) -> Tuple[int, ...]:
        """Block-of-element vector: entry i-1 is the index (by least element)
        of the block containing i."""
        idx = [0] * self.n
        for j, b in enumerate(self.blocks):
            for x in b:
                idx[x - 1] = j
        return tuple(idx)

    def encode(self) -> str:
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    @classmethod
    def decode(cls, text: str) -> "NCPartition":
        blocks = []
        for chunk in text.split("|"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError("empty block in partition text")
            block = [x.strip() for x in chunk.split(",")]
            for x in block:
                if not (x.isascii() and x.isdigit()):
                    raise ValueError(f"partition element {x!r} is not ASCII digits")
            blocks.append([int(x) for x in block])
        return cls.from_blocks(sum(len(b) for b in blocks), blocks)

    def __str__(self):
        return self.encode()


def enumerate_nc(n: int) -> List[NCPartition]:
    """All non-crossing partitions of {1..n}, lexicographic by
    block-of-element vector.  Guarded to n <= 12.  The weight-free case of
    ``_open_block_walk``."""
    return _open_block_walk(n, None, 1)


def weighted_nc(n: int, weight: Callable[[Tuple[int, ...]], Any],
                unit) -> List[Tuple[NCPartition, Any]]:
    """The partitions p of NC(n) whose blocks' weights have a nonzero
    product, each with that product (``unit`` times the weights), in the
    order of ``enumerate_nc``.  Guarded to n <= 12.

    ``weight`` maps a block, an increasing tuple of elements, to a ring
    element that is falsy at zero; it is called at most once per block.  A
    partition with a zero block is never built: the walk stops a branch at
    the first block of weight zero."""
    return _open_block_walk(n, weight, unit)


def _open_block_walk(n: int, weight: Optional[Callable[[Tuple[int, ...]], Any]],
                     unit: Any) -> list:
    """The open-block rule of the module docstring as one recursion.
    Element i closes the innermost block that may still grow and is placed
    against the older ones, or joins that block, or, when it has closed
    none, opens a new block.  Tried in that order, the joins run oldest
    block first, so the leaves come in increasing block-vector order.

    A closed block is final, so with ``weight`` its weight is multiplied
    in as it closes (the blocks still open close at the end), and a
    branch whose product turns zero is not followed; the leaves are then
    (partition, product) pairs.  Without it they are the partitions."""
    if not (1 <= n <= MAX_ENUM_N):
        raise SizeLimitError(f"n must be in 1..{MAX_ENUM_N}, got {n}")
    out: list = []
    blocks: List[List[int]] = []  # by least element
    growable: List[List[int]] = []  # blocks that may still grow, innermost last
    memo: dict = {}

    def closed(value, b: List[int]):
        key = tuple(b)
        w = memo.get(key)
        if w is None:
            w = memo[key] = weight(key)
        return value * w

    def place(i: int, value, may_open: bool) -> None:
        if i > n:
            if weight is None:
                out.append(NCPartition(n, tuple(map(tuple, blocks))))
                return
            for b in reversed(growable):
                value = closed(value, b)
                if not value:
                    return
            out.append((NCPartition(n, tuple(map(tuple, blocks))), value))
            return
        if len(growable) > 1:  # closing the last one would leave i nowhere
            b = growable.pop()
            v = value if weight is None else closed(value, b)
            if v:
                place(i, v, False)
            growable.append(b)
        if growable:
            b = growable[-1]
            b.append(i)
            place(i + 1, value, True)
            b.pop()
        if may_open:
            b = [i]
            blocks.append(b)
            growable.append(b)
            place(i + 1, value, True)
            growable.pop()
            blocks.pop()

    place(1, unit, True)
    return out


def kreweras(p: NCPartition) -> NCPartition:
    """Kreweras complement: the coarsest partition of the primes 1'..n'
    whose union with p is non-crossing on the interleaved points.

    Read off in closed form as the cycles of pi^-1 gamma, with pi the
    permutation whose cycles are the blocks of p in increasing order and
    gamma = (1 2 ... n) (Biane 1997; Nica-Speicher 2006, Lecture 9).  The
    orbit of s under x -> pi^-1(x + 1), indices mod n, is one block of
    K(p); the walk is linear in n.

    The result is built directly, in ``NCPartition``'s canonical form.  Each
    walk starts at the least element not yet seen, so the blocks come
    ordered by least element.  Since pi lies below gamma in the absolute
    order, so does pi^-1 gamma, whose cycles therefore run in increasing
    cyclic order (Biane 1997): started at its least element, each block is
    already sorted.
    """
    n = p.n
    prev = [0] * (n + 1)  # prev[x] = pi^-1(x), the element before x in its block
    for b in p.blocks:
        for i, x in enumerate(b):
            prev[x] = b[i - 1]
    seen = [False] * (n + 1)
    blocks: List[Tuple[int, ...]] = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        block = []
        x = s
        while not seen[x]:
            seen[x] = True
            block.append(x)
            x = prev[x % n + 1]
        blocks.append(tuple(block))
    return NCPartition(n, tuple(blocks))


def interval_blocks(p: NCPartition) -> List[Tuple[int, ...]]:
    """Blocks that are runs of consecutive integers."""
    return [b for b in p.blocks if b[-1] - b[0] == len(b) - 1]


class LemmaReport(Record):
    """Outcome of the Kreweras interval-lemma sweep for one n."""

    _fields = ("n", "partitions_checked", "intervals_checked", "passed", "counterexample")

    def __init__(self, n: int, partitions_checked: int, intervals_checked: int,
                 passed: bool, counterexample: Optional[dict] = None):
        self.n = n
        self.partitions_checked = partitions_checked
        self.intervals_checked = intervals_checked
        self.passed = passed
        self.counterexample = counterexample


def linked_nc(n: int) -> List[NCPartition]:
    """The partitions of NC(n) with 1 ~ n, lexicographic by block-of-element
    vector, for 2 <= n <= 13: each q in NC(n-1) with n added to the block
    of 1.

    Adding n crosses nothing: a crossing a < b < c < n with b ~ 1 ~ n and
    a ~ c would already cross in q, at 1 < a < b < c.  Deleting n from a
    partition with 1 ~ n gives back q, so this is a bijection, and the
    block vector of the result is q's followed by a 0, so the order is
    q's."""
    return [NCPartition(n, (q.blocks[0] + (n,),) + q.blocks[1:])
            for q in enumerate_nc(n - 1)]


def verify_kreweras_interval_lemma(n: int) -> LemmaReport:
    """For every p in NC(n) with 1 ~ n and every interval block
    (k, ..., k+l) of K(p), check that k and k+l+1 (wrapped, n+1 -> 1) lie
    in the same block of p.  Edge cases k = 1 and k+l = n are checked
    exhaustively rather than assumed.  The partitions come from
    ``linked_nc``.
    """
    if not (2 <= n <= MAX_LEMMA_N):
        raise SizeLimitError(f"n must be in 2..{MAX_LEMMA_N}, got {n}")
    parts = 0
    intervals = 0
    for p in linked_nc(n):
        where = p.block_index()
        parts += 1
        comp = kreweras(p)
        for block in interval_blocks(comp):
            intervals += 1
            k = block[0]
            l = len(block) - 1
            target = (k + l) % n + 1  # k+l+1 wrapped into 1..n
            if where[k - 1] != where[target - 1]:
                return LemmaReport(
                    n,
                    parts,
                    intervals,
                    False,
                    {
                        "partition": p.encode(),
                        "kreweras": comp.encode(),
                        "interval": list(block),
                        "k": k,
                        "expected_partner": target,
                    },
                )
    return LemmaReport(n, parts, intervals, True)
