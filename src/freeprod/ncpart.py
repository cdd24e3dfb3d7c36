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
rule is the one definition used here: `enumerate_nc` builds partitions by
it and `NCPartition.from_blocks` validates by it.

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

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

MAX_ENUM_N = 12
MAX_LEMMA_N = 10


class SizeLimitError(ValueError):
    """Requested ground-set size is outside the guarded range."""


Blocks = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class NCPartition:
    """A non-crossing partition of {1..n}.

    Blocks are stored sorted internally and ordered by least element;
    construction validates coverage, disjointness and non-crossingness.
    """

    n: int
    blocks: Blocks

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
    def decode(cls, text: str, n: Optional[int] = None) -> "NCPartition":
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
        size = n if n is not None else sum(len(b) for b in blocks)
        return cls.from_blocks(size, blocks)

    def __str__(self):
        return self.encode()


def enumerate_nc(n: int) -> List[NCPartition]:
    """All non-crossing partitions of {1..n}, lexicographic by
    block-of-element vector.  Guarded to n <= 12.

    Built by the open-block rule of the module docstring: element i joins
    one of the blocks that may still grow, which closes every block opened
    after it, or opens a new block.  Trying the growable blocks oldest
    first, then the new block, visits the block vectors in increasing
    order."""
    if not (1 <= n <= MAX_ENUM_N):
        raise SizeLimitError(f"n must be in 1..{MAX_ENUM_N}, got {n}")
    out: List[NCPartition] = []
    blocks: List[List[int]] = []  # by least element

    def place(i: int, growable: List[List[int]]) -> None:
        if i > n:
            out.append(NCPartition(n, tuple(map(tuple, blocks))))
            return
        for k, b in enumerate(growable):
            b.append(i)
            place(i + 1, growable[:k + 1])
            b.pop()
        blocks.append([i])
        place(i + 1, growable + blocks[-1:])
        blocks.pop()

    place(1, [])
    return out


def kreweras(p: NCPartition) -> NCPartition:
    """Kreweras complement: the coarsest partition of the primes 1'..n'
    whose union with p is non-crossing on the interleaved points.

    Read off in closed form as the cycles of pi^-1 gamma, with pi the
    permutation whose cycles are the blocks of p in increasing order and
    gamma = (1 2 ... n) (Biane 1997; Nica-Speicher 2006, Lecture 9).  The
    orbit of s under x -> pi^-1(x + 1), indices mod n, is one block of
    K(p); the walk is linear in n.
    """
    n = p.n
    prev = [0] * (n + 1)  # prev[x] = pi^-1(x), the element before x in its block
    for b in p.blocks:
        for i, x in enumerate(b):
            prev[x] = b[i - 1]
    seen = [False] * (n + 1)
    blocks: List[List[int]] = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        block = []
        x = s
        while not seen[x]:
            seen[x] = True
            block.append(x)
            x = prev[x % n + 1]
        blocks.append(block)
    return NCPartition.from_blocks(n, blocks)


def interval_blocks(p: NCPartition) -> List[Tuple[int, ...]]:
    """Blocks that are runs of consecutive integers."""
    return [b for b in p.blocks if b[-1] - b[0] == len(b) - 1]


@dataclass
class LemmaReport:
    """Outcome of the Kreweras interval-lemma sweep for one n."""

    n: int
    partitions_checked: int
    intervals_checked: int
    passed: bool
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "partitions_checked": self.partitions_checked,
            "intervals_checked": self.intervals_checked,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def verify_kreweras_interval_lemma(n: int) -> LemmaReport:
    """For every p in NC(n) with 1 ~ n and every interval block
    (k, ..., k+l) of K(p), check that k and k+l+1 (wrapped, n+1 -> 1) lie
    in the same block of p.  Edge cases k = 1 and k+l = n are checked
    exhaustively rather than assumed.
    """
    if not (2 <= n <= MAX_LEMMA_N):
        raise SizeLimitError(f"n must be in 2..{MAX_LEMMA_N}, got {n}")
    parts = 0
    intervals = 0
    for p in enumerate_nc(n):
        where = p.block_index()
        if where[0] != where[n - 1]:
            continue
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
