"""Non-crossing partitions of {1..n}: enumeration, Kreweras complements,
and the interval-block linking property used by the cumulant machinery.

A partition is *crossing* when there are a < b < c < d with a, c in one
block and b, d in a different block.  Non-crossing partitions of an n-set
are counted by the Catalan numbers.  The Kreweras complement K(p) lives on
interleaved dual points 1', ..., n' (i' sits between i and i+1, n' after n)
and is the coarsest partition of the primes whose union with p is still
non-crossing on the 2n interleaved points.

It is computed in closed form as the cycles of the permutation pi^-1 gamma,
where pi has the blocks of p as its cycles, each in increasing order, and
gamma = (1 2 ... n) (Biane, "Some properties of crossings and partitions",
Discrete Math. 175, 1997; Nica-Speicher, *Lectures on the Combinatorics of
Free Probability*, 2006, Lecture 9).
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
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        seen = set()
        for b in canon:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not (1 <= x <= n):
                    raise ValueError(f"element {x} outside 1..{n}")
                if x in seen:
                    raise ValueError(f"element {x} repeated")
                seen.add(x)
        if len(seen) != n:
            raise ValueError(f"blocks do not cover 1..{n}")
        if _has_crossing(canon):
            raise ValueError(f"blocks {canon} are crossing")
        return cls(n, canon)

    @classmethod
    def singletons(cls, n: int) -> "NCPartition":
        return cls(n, tuple((i,) for i in range(1, n + 1)))

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

    def block_of(self, x: int) -> Tuple[int, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise ValueError(f"element {x} outside 1..{self.n}")

    def same_block(self, x: int, y: int) -> bool:
        return self.block_of(x) is self.block_of(y)

    def refines(self, other: "NCPartition") -> bool:
        """True when every block of self is contained in a block of other."""
        where = {}
        for j, b in enumerate(other.blocks):
            for x in b:
                where[x] = j
        return all(len({where[x] for x in b}) == 1 for b in self.blocks)

    def encode(self) -> str:
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    @classmethod
    def decode(cls, text: str, n: Optional[int] = None) -> "NCPartition":
        blocks = []
        for chunk in text.split("|"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError("empty block in partition text")
            blocks.append([int(x) for x in chunk.split(",")])
        size = n if n is not None else sum(len(b) for b in blocks)
        return cls.from_blocks(size, blocks)

    def __str__(self):
        return self.encode()


def _has_crossing(blocks: Blocks) -> bool:
    m = len(blocks)
    for i in range(m):
        for j in range(i + 1, m):
            if _blocks_cross(blocks[i], blocks[j]):
                return True
    return False


def _blocks_cross(b1: Tuple[int, ...], b2: Tuple[int, ...]) -> bool:
    # b1, b2 sorted and disjoint; they cross iff, scanning the merged
    # sequence, the runs alternate more than twice (ABAB pattern).
    if b1[-1] < b2[0] or b2[-1] < b1[0]:
        return False
    merged = sorted((x, 0) for x in b1) + sorted((x, 1) for x in b2)
    merged.sort()
    switches = 0
    prev = None
    for _, tag in merged:
        if tag != prev:
            switches += 1
            prev = tag
    return switches > 3


def enumerate_nc(n: int) -> List[NCPartition]:
    """All non-crossing partitions of {1..n}, lexicographic by
    block-of-element vector.  Guarded to n <= 12."""
    if not (1 <= n <= MAX_ENUM_N):
        raise SizeLimitError(f"n must be in 1..{MAX_ENUM_N}, got {n}")
    out: List[NCPartition] = []
    # blocks under construction, as lists; assign[i] = block index of i+1
    blocks: List[List[int]] = []

    def place(i: int) -> None:
        if i > n:
            out.append(NCPartition(n, tuple(tuple(b) for b in blocks)))
            return
        for j, b in enumerate(blocks):
            # appending i to block j keeps things non-crossing iff every
            # block touched strictly between b's current max and i opened
            # after that max (no block straddles the gap).
            p = b[-1]
            ok = True
            for other in blocks:
                if other is b:
                    continue
                if any(p < x < i for x in other) and other[0] < p:
                    ok = False
                    break
            if ok:
                b.append(i)
                place(i + 1)
                b.pop()
        blocks.append([i])
        place(i + 1)
        blocks.pop()

    place(1)
    out.sort(key=lambda p: p.block_index())
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
        if not p.same_block(1, n):
            continue
        parts += 1
        comp = kreweras(p)
        for block in interval_blocks(comp):
            intervals += 1
            k = block[0]
            l = len(block) - 1
            target = (k + l) % n + 1  # k+l+1 wrapped into 1..n
            if not p.same_block(k, target):
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
