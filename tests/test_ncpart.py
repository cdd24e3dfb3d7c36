"""Non-crossing partitions against independent brute-force oracles.

The oracle enumerates ALL set partitions via restricted-growth strings and
filters by a direct four-index crossing scan; the library's enumerator
and validator follow the open-block stack rule instead, so the routes are
independent.  The Kreweras oracles check maximality over every compatible
complement and agreement with the greedy merge fixpoint of the
interleaving definition, which tests crossings pairwise with its own ABAB
scan (`_blocks_cross`); the library reads K(p) off the cycles of
pi^-1 gamma instead.
"""

import math
from functools import lru_cache
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from freeprod import cli, ncpart
from freeprod.ncpart import (
    LemmaReport,
    NCPartition,
    SizeLimitError,
    enumerate_nc,
    interval_blocks,
    kreweras,
    linked_nc,
    verify_kreweras_interval_lemma,
    weighted_nc,
)


# -- independent oracle ------------------------------------------------------


def singletons(n):
    return NCPartition(n, tuple((i,) for i in range(1, n + 1)))


def refines(p, other):
    """True when every block of p is contained in a block of other."""
    where = {x: j for j, b in enumerate(other.blocks) for x in b}
    return all(len({where[x] for x in b}) == 1 for b in p.blocks)


def all_set_partitions(n):
    """Every set partition of {1..n}, via restricted growth strings."""
    out = []

    def grow(assign, nblocks):
        i = len(assign)
        if i == n:
            blocks = [[] for _ in range(nblocks)]
            for x, b in enumerate(assign, start=1):
                blocks[b].append(x)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(nblocks + 1):
            grow(assign + [b], max(nblocks, b + 1))

    grow([], 0)
    return out


def has_crossing_raw(blocks):
    """Direct quadruple scan: a < b < c < d with a,c and b,d split."""
    where = {}
    for bi, block in enumerate(blocks):
        for x in block:
            where[x] = bi
    label = [where[x] for x in sorted(where)]
    n = len(label)
    for a in range(n):
        for b in range(a + 1, n):
            if label[b] == label[a]:
                continue
            for c in range(b + 1, n):
                if label[c] != label[a]:
                    continue
                for d in range(c + 1, n):
                    if label[d] == label[b]:
                        return True
    return False


def brute_force_nc(n):
    return {p for p in all_set_partitions(n) if not has_crossing_raw(p)}


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


# -- enumeration -------------------------------------------------------------


def test_enumerate_n1():
    assert [p.blocks for p in enumerate_nc(1)] == [((1,),)]


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_matches_brute_force(n):
    got = {p.blocks for p in enumerate_nc(n)}
    want = brute_force_nc(n)
    assert got == want
    assert len(got) == catalan(n)


def test_enumerate_counts_through_nine():
    for n in range(1, 10):
        assert len(enumerate_nc(n)) == catalan(n)


def test_enumerate_bell_filter_example():
    # n = 4: 15 set partitions, 14 of them non-crossing
    assert len(all_set_partitions(4)) == 15
    assert len(enumerate_nc(4)) == 14


def _assert_strictly_increasing_block_vectors(n):
    vecs = [p.block_index() for p in enumerate_nc(n)]
    assert all(a < b for a, b in zip(vecs, vecs[1:]))


def test_enumerate_order_is_lexicographic_by_block_vector():
    for n in range(1, 12):
        _assert_strictly_increasing_block_vectors(n)


@pytest.mark.slow
def test_enumerate_order_is_lexicographic_by_block_vector_n12():
    _assert_strictly_increasing_block_vectors(12)


def test_enumerate_guard():
    with pytest.raises(SizeLimitError):
        enumerate_nc(0)
    with pytest.raises(SizeLimitError):
        enumerate_nc(13)


# -- construction and encoding -----------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        NCPartition.from_blocks(4, [[1, 3], [2, 4]])  # crossing
    with pytest.raises(ValueError):
        NCPartition.from_blocks(4, [[1, 2], [3]])  # missing 4
    with pytest.raises(ValueError):
        NCPartition.from_blocks(3, [[1, 2], [2, 3]])  # repeated


@pytest.mark.parametrize("n", range(1, 9))
def test_from_blocks_accepts_exactly_the_noncrossing(n):
    """Against every set partition of {1..n}: accepted with its blocks kept
    when the quadruple scan finds no crossing, refused as crossing
    otherwise."""
    for blocks in all_set_partitions(n):
        if has_crossing_raw(blocks):
            with pytest.raises(ValueError, match="are crossing"):
                NCPartition.from_blocks(n, blocks)
        else:
            assert NCPartition.from_blocks(n, blocks).blocks == blocks


def test_encode_decode_roundtrip():
    p = NCPartition.from_blocks(4, [[1, 3], [2], [4]])
    assert p.encode() == "1,3|2|4"
    assert NCPartition.decode("1,3|2|4") == p


# -- Kreweras ----------------------------------------------------------------


def test_kreweras_examples():
    # one block <-> all singletons
    for n in (2, 3, 5):
        assert kreweras(NCPartition.full(n)) == singletons(n)
        assert kreweras(singletons(n)) == NCPartition.full(n)
    p = NCPartition.from_blocks(4, [[1, 3], [2], [4]])
    assert kreweras(p) == NCPartition.from_blocks(4, [[1, 2], [3, 4]])


@pytest.mark.parametrize("n", range(1, 11))
def test_kreweras_is_built_canonical(n):
    """``kreweras`` builds its result without ``from_blocks``; the blocks
    must already be what validating them gives: non-crossing, each sorted,
    ordered by least element."""
    for p in enumerate_nc(n):
        comp = kreweras(p)
        canon = NCPartition.from_blocks(n, comp.blocks)
        assert comp == canon and comp.blocks == canon.blocks, p


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


def greedy_kreweras(p):
    """Kreweras complement via the interleaving definition.

    Starts from all-singleton primes and greedily merges any two blocks
    whose union keeps p-union-sigma non-crossing, until no merge applies.
    The compatible partitions form a lattice ideal with a unique maximum,
    so the greedy fixpoint is that maximum.  Merging two blocks of a valid
    state only adds crossings involving the merged block, so each trial is
    checked against the other blocks alone.
    """
    n = p.n
    pblocks = [tuple(2 * x - 1 for x in b) for b in p.blocks]
    blocks = [(i,) for i in range(1, n + 1)]
    merged = True
    while merged:
        merged = False
        m = len(blocks)
        for i in range(m):
            for j in range(i + 1, m):
                trial = tuple(sorted(blocks[i] + blocks[j]))
                trial_even = tuple(2 * x for x in trial)
                rest = [blocks[k] for k in range(m) if k != i and k != j]
                ok = not any(
                    _blocks_cross(trial_even, tuple(2 * x for x in b)) for b in rest
                ) and not any(_blocks_cross(trial_even, b) for b in pblocks)
                if ok:
                    blocks = sorted(rest + [trial], key=lambda b: b[0])
                    merged = True
                    break
            if merged:
                break
    return NCPartition.from_blocks(n, blocks)


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_matches_greedy_oracle(n):
    for p in enumerate_nc(n):
        assert kreweras(p) == greedy_kreweras(p), p


@settings(deadline=None, database=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_weighted_nc_is_the_filtered_product(n, salt):
    """The pruned walk gives exactly the partitions whose block weights
    have a nonzero product, with that product, in enumeration order, and
    weighs each block at most once.  Weights are 0..3 from a hash of the
    block, so about a quarter of the blocks are zero."""
    def weight(block):
        return hash((salt, block)) % 4

    want = []
    for p in enumerate_nc(n):
        prod = math.prod(weight(b) for b in p.blocks)
        if prod:
            want.append((p.blocks, prod))
    calls = []

    def counted(block):
        calls.append(block)
        return weight(block)

    got = weighted_nc(n, counted, 1)
    assert [(p.blocks, v) for p, v in got] == want
    assert len(calls) == len(set(calls))


def test_weighted_nc_guard():
    with pytest.raises(SizeLimitError):
        weighted_nc(0, len, 1)
    with pytest.raises(SizeLimitError):
        weighted_nc(13, len, 1)


_nc_cached = lru_cache(maxsize=None)(enumerate_nc)


@st.composite
def nc_partitions(draw, max_n=10):
    parts = _nc_cached(draw(st.integers(1, max_n)))
    return parts[draw(st.integers(0, len(parts) - 1))]


@st.composite
def large_nc_partitions(draw, max_n=60):
    """A partition of up to ``max_n`` points, past what can be enumerated,
    built by the open-block rule: each element opens a block or, after
    closing some of the open blocks, continues the innermost one left."""
    n = draw(st.integers(1, max_n))
    blocks, stack = [], []
    for x in range(1, n + 1):
        closes = draw(st.integers(-1, len(stack) - 1))  # -1: open a block
        if closes < 0:
            stack.append([x])
            blocks.append(stack[-1])
        else:
            del stack[len(stack) - closes:]
            stack[-1].append(x)
    return NCPartition.from_blocks(n, blocks)


@settings(deadline=None, database=None)
@given(st.one_of(nc_partitions(), large_nc_partitions()))
def test_kreweras_twice_is_rotation(p):
    """K(K(p)) is p rotated by x -> x - 1 (mod n), and the block counts of
    p and K(p) add up to n + 1.  The rotation is canonicalized by
    ``from_blocks``, so this also checks that ``kreweras`` builds canonical
    blocks on partitions too large to enumerate."""
    n = p.n
    comp = kreweras(p)
    assert len(p.blocks) + len(comp.blocks) == n + 1
    rotated = NCPartition.from_blocks(
        n, [[(x - 2) % n + 1 for x in b] for b in p.blocks])
    assert kreweras(comp) == rotated


def union_noncrossing_raw(p, comp):
    combined = [tuple(2 * x - 1 for x in b) for b in p.blocks]
    combined += [tuple(2 * x for x in b) for b in comp.blocks]
    return not has_crossing_raw(combined)


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_is_maximal_compatible(n):
    """K(p) is compatible and every compatible partition refines it."""
    all_nc = enumerate_nc(n)
    for p in all_nc:
        comp = kreweras(p)
        assert union_noncrossing_raw(p, comp)
        for sigma in all_nc:
            if union_noncrossing_raw(p, sigma):
                assert refines(sigma, comp), (p, sigma, comp)


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_rank_identity_and_bijectivity(n):
    all_nc = enumerate_nc(n)
    images = set()
    for p in all_nc:
        comp = kreweras(p)
        assert len(p.blocks) + len(comp.blocks) == n + 1
        assert union_noncrossing_raw(p, comp)
        images.add(comp.blocks)
    assert len(images) == len(all_nc)


# -- interval blocks and the linking lemma -------------------------------------


def test_interval_blocks_examples():
    assert interval_blocks(singletons(4)) == [(1,), (2,), (3,), (4,)]
    p = NCPartition.from_blocks(4, [[1, 3], [2], [4]])
    assert interval_blocks(p) == [(2,), (4,)]
    p = NCPartition.from_blocks(4, [[1, 4], [2, 3]])
    assert interval_blocks(p) == [(2, 3)]


def reference_interval_lemma(n):
    """The lemma sweep over all of NC(n), keeping the partitions with
    1 ~ n by their block vector; K(p) is looked up on the module, so a
    patched complement reaches both this and the library."""
    parts = 0
    intervals = 0
    for p in enumerate_nc(n):
        where = p.block_index()
        if where[0] != where[n - 1]:
            continue
        parts += 1
        comp = ncpart.kreweras(p)
        for block in interval_blocks(comp):
            intervals += 1
            k = block[0]
            l = len(block) - 1
            target = (k + l) % n + 1
            if where[k - 1] != where[target - 1]:
                return LemmaReport(n, parts, intervals, False, {
                    "partition": p.encode(),
                    "kreweras": comp.encode(),
                    "interval": list(block),
                    "k": k,
                    "expected_partner": target,
                })
    return LemmaReport(n, parts, intervals, True)


@pytest.mark.parametrize("n", range(2, 11))
def test_linked_nc_is_the_filtered_enumeration(n):
    """NC(n-1) with n added to the block of 1 gives exactly the partitions
    of NC(n) with 1 ~ n, in enumeration order."""
    want = [p.blocks for p in enumerate_nc(n)
            if p.block_index()[0] == p.block_index()[n - 1]]
    assert [p.blocks for p in linked_nc(n)] == want
    assert len(want) == catalan(n - 1)


@pytest.mark.parametrize("n", range(2, 11))
def test_interval_lemma_report_matches_filter_reference(n):
    assert verify_kreweras_interval_lemma(n) == reference_interval_lemma(n)


def singletons_of(p):
    return singletons(p.n)


@pytest.mark.parametrize("n", [4, 7])
def test_interval_lemma_counterexample_matches_filter_reference(n, monkeypatch):
    """With a wrong complement the sweep stops at its first counterexample;
    walking the same partitions in the same order, both routes stop at the
    same one."""
    monkeypatch.setattr(ncpart, "kreweras", singletons_of)
    report = verify_kreweras_interval_lemma(n)
    assert not report.passed
    assert report == reference_interval_lemma(n)


@pytest.mark.parametrize("n", range(2, 11))
def test_nc_lemma_cli_bytes_match_filter_reference(n, monkeypatch, capsys):
    outputs = []
    for lemma in (verify_kreweras_interval_lemma, reference_interval_lemma):
        monkeypatch.setattr(ncpart, "verify_kreweras_interval_lemma", lemma)
        for extra in ([], ["--json"]):
            assert cli.main(["nc-lemma", "--n", str(n), *extra]) == 0
            outputs.append(capsys.readouterr())
    assert outputs[:2] == outputs[2:]


def test_interval_lemma_small_and_medium():
    for n in range(2, 9):
        report = verify_kreweras_interval_lemma(n)
        assert report.passed, report.counterexample
        assert report.intervals_checked > 0


def test_interval_lemma_n2_trivial():
    report = verify_kreweras_interval_lemma(2)
    assert report.passed
    assert report.partitions_checked == 1  # only the full block links 1 ~ 2


def test_interval_lemma_guard():
    with pytest.raises(SizeLimitError):
        verify_kreweras_interval_lemma(1)
    with pytest.raises(SizeLimitError):
        verify_kreweras_interval_lemma(11)
