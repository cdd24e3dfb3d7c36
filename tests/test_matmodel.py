"""The 2x2 matrix model: displayed constant forms, exact identities, and
the freeness harnesses at module-test scale (the acceptance suite runs the
full lengths)."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freeprod.freeword import FreeProduct, NCPoly
from freeprod.matmodel import (
    HARNESSES,
    MAX_HARNESS_WORDS,
    CheckReport,
    Mat2,
    MatrixModel,
    _WordProduct,
    _word_text,
    harness_word_count,
    matrix_model_generators,
    sum_model_generators,
)
from freeprod.trigalg import PI_ZERO, PiValue, TrigPoly


@pytest.fixture(scope="module")
def mm():
    return MatrixModel()


def nc_word(mm, letters):
    return NCPoly({mm.fp.word(letters): 1})


# -- constants -----------------------------------------------------------------


def test_x_matches_displayed_form(mm):
    f, v = mm.fp.leg("f"), mm.fp.leg("v")
    want = Mat2(mm.fp, (
        (nc_word(mm, [f.c(), v.gen(1), f.s()]).scaled(-1),
         nc_word(mm, [f.c(), v.gen(1), f.c()])),
        (nc_word(mm, [f.s(), v.gen(1), f.s()]).scaled(-1),
         nc_word(mm, [f.s(), v.gen(1), f.c()])),
    ))
    assert mm.X == want


def test_q_matches_displayed_form(mm):
    # Q = (c^2 cs; cs s^2) written over the cos/sin basis
    f = mm.fp.leg("f")
    c2 = mm.fp.normalize([f.c(), f.c()])
    cs = mm.fp.normalize([f.c(), f.s()])
    s2 = mm.fp.normalize([f.s(), f.s()])
    assert mm.Q == Mat2(mm.fp, ((c2, cs), (cs, s2)))


def test_p_and_p0(mm):
    one = NCPoly.unit()
    z = NCPoly.zero()
    assert mm.P == Mat2(mm.fp, ((one, z), (z, z)))
    half = Fraction(1, 2)
    assert mm.P0 == Mat2(mm.fp, ((NCPoly.unit(half), z), (z, NCPoly.unit(-half))))


def test_u_adjoint(mm):
    u = mm.fp.leg("u")
    z = NCPoly.zero()
    assert mm.U.adjoint() == Mat2(mm.fp, ((z, z), (nc_word(mm, [u.gen(-1)]), z)))


def test_w_is_unitary(mm):
    assert mm.W @ mm.W.adjoint() == Mat2.identity(mm.fp)
    assert mm.W.adjoint() @ mm.W == Mat2.identity(mm.fp)


def test_traces(mm):
    assert mm.P.Tr() == PiValue.of(Fraction(1, 2))
    assert mm.Q.Tr() == PiValue.of(Fraction(1, 2))
    assert Mat2.identity(mm.fp).Tr() == PiValue.of(1)
    assert (mm.U @ mm.X).Tr() == PI_ZERO


def test_constants_map(mm):
    names = set(mm.constants())
    assert names == {"U", "V", "W", "X", "P", "Q", "P0", "Q0"}


# -- identities ------------------------------------------------------------------


def test_partial_isometries(mm):
    report = mm.verify_partial_isometries()
    assert report.passed, report.failures


def test_rotation_small(mm):
    report = mm.verify_rotation(5)
    assert report.passed, report.failures


def test_rotation_r1_explicit(mm):
    p2, q2 = mm.P0.scaled(2), mm.Q0.scaled(2)
    want = mm.trig_mat(((TrigPoly.cos(2), TrigPoly.sin(2)),
                        (TrigPoly.sin(2, -1), TrigPoly.cos(2))))
    assert p2 @ q2 == want


def test_rotation_guard(mm):
    with pytest.raises(ValueError):
        mm.verify_rotation(0)
    with pytest.raises(ValueError):
        mm.verify_rotation(51)


def test_rotation_at_the_largest_r(mm):
    """r = 50, the guard's largest and the benchmark's size: all 100
    identities hold exactly."""
    report = mm.verify_rotation(50)
    assert report.passed, report.failures
    assert report.words_checked == 100


def reference_rotation_powers(mm, r_max):
    """((2P0 2Q0)^r, (2Q0 2P0)^r 2Q0) for r = 1..r_max, formed as
    ``verify_rotation`` formed them before the chain: three running
    products, each power by right multiplication."""
    p2, q2 = mm.P0.scaled(2), mm.Q0.scaled(2)
    pq, qp = p2 @ q2, q2 @ p2
    pq_pow = qp_pow = Mat2.identity(mm.fp)
    out = []
    for _ in range(r_max):
        pq_pow = pq_pow @ pq
        qp_pow = qp_pow @ qp
        out.append((pq_pow, qp_pow @ q2))
    return out


@pytest.mark.parametrize("r_max", [1, 2, 5, 6])
def test_rotation_chain_matches_the_running_products(mm, r_max, monkeypatch):
    """``verify_rotation(r)`` forms its powers as one alternating chain of
    2r ``Mat2`` products (the three running products made 3r + 2, 17 at
    r = 5): power, reflection, power, ..., reflection.  Each is the matrix
    the running products give."""
    want = reference_rotation_powers(mm, r_max)
    made = []
    matmul = Mat2.__matmul__
    monkeypatch.setattr(Mat2, "__matmul__",
                        lambda self, other: made.append(matmul(self, other)) or made[-1])
    assert mm.verify_rotation(r_max).passed
    assert len(made) == 2 * r_max
    assert list(zip(made[0::2], made[1::2])) == want


def test_partial_isometry_x_is_checked_against_its_words():
    """The identity "X = W V W*" compares W V W* with X's closed form from
    words, not with X as built from that same product: with W' = W* in
    place of W and X' = W' V W'*, it fails."""
    mm = MatrixModel()
    assert mm.verify_partial_isometries().passed
    mm.W = mm.W.adjoint()
    mm.X = mm.W @ mm.V @ mm.W.adjoint()
    report = mm.verify_partial_isometries()
    assert "X = W V W*" in {f["identity"] for f in report.failures}


@pytest.mark.parametrize("seed", range(6))
def test_matrix_trace_is_tracial(mm, seed):
    rng = random.Random(7000 + seed)
    consts = list(mm.constants().values())
    a = rng.choice(consts) @ rng.choice(consts)
    b = rng.choice(consts)
    assert (a @ b).Tr() == (b @ a).Tr()


@pytest.mark.parametrize("name", HARNESSES)
def test_product_entry(mm, name):
    """a.entry(b, i, j) is entry (i, j) of a @ b, and both equal
    sum_k a_ik b_kj formed here, for every ordered pair of generators of
    the harness's two families.  ``@`` is built from ``entry``, so the sum
    is what tells a wrong entry formula."""
    gen_a, gen_b, _ = mm.generators(name)
    gens = [g for _, g in gen_a + gen_b]
    for a in gens:
        for b in gens:
            prod = a @ b
            for i in range(2):
                for j in range(2):
                    want = NCPoly.zero()
                    for k in range(2):
                        want = want + mm.fp.mul(a.e[i][k], b.e[k][j])
                    assert a.entry(b, i, j) == prod.e[i][j] == want


# -- freeness harnesses ------------------------------------------------------------


def test_pq_harness(mm):
    gen_a, gen_b, offdiag = mm.generators("PQ")
    report = mm.check_freeness(gen_a, gen_b, 12, "PQ", offdiag)
    assert report.passed, report.failures[:3]
    assert report.words_checked == 24  # two words per length


def test_ux_harness_short(mm):
    gen_a, gen_b, offdiag = mm.generators("UX")
    report = mm.check_freeness(gen_a, gen_b, 3, "UX", offdiag)
    assert report.passed, report.failures[:3]
    # 2*(3 + 9 + 27) alternating words
    assert report.words_checked == 78


def test_px_uq_harness_short(mm):
    for name in ("PX", "UQ"):
        gen_a, gen_b, offdiag = mm.generators(name)
        report = mm.check_freeness(gen_a, gen_b, 4, name, offdiag)
        assert report.passed, report.failures[:3]


def test_uncentered_generator_rejected(mm):
    with pytest.raises(ValueError):
        mm.check_freeness([("P", mm.P)], [("Q", mm.Q)], 2)


def test_freeness_length_guard(mm):
    gen_a, gen_b, offdiag = mm.generators("PQ")
    for max_len in (0, -1):
        with pytest.raises(ValueError):
            mm.check_freeness(gen_a, gen_b, max_len, "PQ", offdiag)


@pytest.mark.parametrize("name", HARNESSES)
def test_word_count_closed_form(mm, name):
    gen_a, gen_b, offdiag = mm.generators(name)
    for max_len in range(1, 5):
        report = mm.check_freeness(gen_a, gen_b, max_len, name, offdiag)
        assert harness_word_count(len(gen_a), len(gen_b), max_len) == report.words_checked


def test_word_budget_rejects_before_the_walk(mm):
    gen_a, gen_b, offdiag = mm.generators("UX")
    assert harness_word_count(3, 3, 99) > MAX_HARNESS_WORDS
    assert harness_word_count(1, 1, 10**18) > MAX_HARNESS_WORDS
    # matrix:5, the longest length in use, stays inside the budget
    assert harness_word_count(7, 7, 5) == 39214 <= MAX_HARNESS_WORDS
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than"):
        mm.check_freeness(gen_a, gen_b, 99, "UX", offdiag)
    assert time.perf_counter() - start < 1.0


def test_long_pq_walk_stays_off_the_recursion_limit(mm):
    gen_a, gen_b, offdiag = mm.generators("PQ")
    report = mm.check_freeness(gen_a, gen_b, 1500, "PQ", offdiag)
    assert report.passed, report.failures[:3]
    assert report.words_checked == 3000


def test_failures_name_their_words_in_walk_order(mm):
    """Generators that are not free (the same 2P0 on both sides) fail on
    every genuine word and on the full check of a lone off-diagonal one;
    each failure names its word letter by letter.  The digest of the
    failures was recorded while the walk still copied a name list per
    word."""
    p2 = mm.P0.scaled(2)
    report = mm.check_freeness([("a", p2), ("a*", p2)], [("b", p2)], 4, "same", {"a*"})
    assert report.words_checked == 21 and len(report.failures) == 38
    assert [(f["word"], f["entry"]) for f in report.failures[:12]] == [
        ("a b", "11"), ("a b", "22"), ("a b a", "11"), ("a b a", "22"),
        ("a b a b", "11"), ("a b a b", "22"), ("a b a*", "11"), ("a b a*", "22"),
        ("a b a* b", "11"), ("a b a* b", "22"), ("a*", "11"), ("a*", "22")]
    digest = hashlib.sha256(json.dumps(report.failures).encode()).hexdigest()
    assert digest == "0e051f7c3c7a3b48f4d8da9bb83e5b12e130726c8928fbe03b1e9daa164234be"


def test_unknown_harness(mm):
    with pytest.raises(ValueError, match=r"\['PQ', 'PX', 'UQ', 'UX', 'matrix', 'sum'\]"):
        mm.generators("XY")


def test_model_legs_are_fixed_at_construction():
    """The sum and matrix harnesses read two-atom legs the model built;
    building every harness adds no leg."""
    mm = MatrixModel()
    legs = ["f", "u", "v", "A", "B", "A1", "A2", "B1", "B2"]
    assert list(mm.fp.legs) == legs
    for leg_id in legs[3:]:
        leg = mm.fp.leg(leg_id)
        assert (leg.m, leg.elements) == (2, {"h": (1, -1)})
    for name in HARNESSES:
        mm.generators(name)
    assert list(mm.fp.legs) == legs


@pytest.mark.parametrize("name,build", [("sum", sum_model_generators),
                                        ("matrix", matrix_model_generators)])
def test_generators_dispatch_sum_and_matrix(name, build):
    gen_a, gen_b, offdiag = MatrixModel().generators(name)
    want_a, want_b, want_offdiag = build(MatrixModel())
    assert [n for n, _ in gen_a] == [n for n, _ in want_a]
    assert [n for n, _ in gen_b] == [n for n, _ in want_b]
    assert offdiag == want_offdiag


def test_report_json_shape(mm):
    gen_a, gen_b, offdiag = mm.generators("PQ")
    report = mm.check_freeness(gen_a, gen_b, 2, "PQ", offdiag)
    doc = report.to_json()
    assert doc["harness"] == "PQ"
    assert doc["max_len"] == 2
    assert doc["failures"] == []


# -- adjoint pairing and lazily formed entries -----------------------------------


def reference_check_freeness(mm, gen_a, gen_b, max_len, harness="freeness",
                             offdiag_names=()):
    """The walk before adjoint pairing and leaf entries, kept verbatim as the
    oracle: it forms every word's full product and traces every checked
    entry."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if harness_word_count(len(gen_a), len(gen_b), max_len) > MAX_HARNESS_WORDS:
        raise ValueError(f"{harness} up to max_len {max_len} would check more "
                         f"than {MAX_HARNESS_WORDS} words")
    for name, g in list(gen_a) + list(gen_b):
        if not g.Tr().is_zero():
            raise ValueError(f"generator {name} is not centered: Tr = {g.Tr()}")
    offdiag = frozenset(offdiag_names)
    report = CheckReport(harness, max_len, 0)
    stack = [(None, None, None, False, gen_b, gen_a, max_len),
             (None, None, None, False, gen_a, gen_b, max_len)]
    while stack:
        prod, g, word, full_check, nxt, other, remaining = stack.pop()
        if g is not None:
            prod = g if prod is None else prod @ g
            report.words_checked += 1
            _reference_check_product(mm, report, prod, word, remaining == max_len - 1,
                                     full_check)
        if remaining:
            for name, h in reversed(nxt):
                stack.append((prod, h, (name, word), full_check or name in offdiag,
                              other, nxt, remaining - 1))
    return report


def _reference_check_product(mm, report, prod, word, single, full_check):
    if single:
        t = prod.Tr()
        if not t.is_zero():
            report.failures.append({"word": _word_text(word), "entry": "Tr",
                                    "value": str(t)})
        if not full_check:
            return
    entries = [(0, 0), (1, 1)] + ([(0, 1), (1, 0)] if full_check else [])
    for i, j in entries:
        t = mm.fp.trace(prod.e[i][j])
        if not t.is_zero():
            report.failures.append({
                "word": _word_text(word), "entry": f"{i + 1}{j + 1}", "value": str(t),
            })


def assert_matches_reference(mm, gen_a, gen_b, max_len, offdiag=()):
    """Check the walk against the reference and return its report."""
    got = mm.check_freeness(gen_a, gen_b, max_len, "h", offdiag)
    want = reference_check_freeness(mm, gen_a, gen_b, max_len, "h", offdiag)
    assert got.to_json() == want.to_json()
    return got


def _adjoint_closure(family, picked):
    """``picked`` (names and matrices of ``family``) with the adjoint of each
    generator in it added from ``family`` where it is there."""
    out = list(picked)
    for _, g in picked:
        for name, h in family:
            if h == g.adjoint() and (name, h) not in out:
                out.append((name, h))
    return out


@settings(deadline=None, database=None, max_examples=40)
@given(st.data())
def test_walk_matches_reference(mm, data):
    """Generator subsets of the harness families, shuffled, some closed under
    adjoint and some not; off-diagonal name sets closed and not; lengths
    1..4; free pairings and a family against itself or another harness's."""
    families = {(name, side): mm.generators(name)[side] for name in HARNESSES
                for side in (0, 1)}
    keys = sorted(families)
    key_a = data.draw(st.sampled_from(keys), "family a")
    partner = (key_a[0], 1 - key_a[1])
    key_b = data.draw(st.one_of(st.just(partner), st.just(key_a), st.sampled_from(keys)),
                      "family b")
    sides = []
    for key in (key_a, key_b):
        family = families[key]
        order = data.draw(st.permutations(range(len(family))))
        picked = [family[i] for i in order[:data.draw(st.integers(1, len(family)))]]
        if data.draw(st.booleans(), "close under adjoint"):
            picked = _adjoint_closure(family, picked)
        sides.append(picked)
    names = sorted({name for side in sides for name, _ in side})
    offdiag = data.draw(st.one_of(st.just(mm.generators(key_a[0])[2]), st.just(set(names)),
                                  st.sets(st.sampled_from(names))), "offdiag")
    max_len = data.draw(st.integers(1, 4), "max_len")
    while max_len > 1 and harness_word_count(len(sides[0]), len(sides[1]), max_len) > 400:
        max_len -= 1
    assert_matches_reference(mm, sides[0], sides[1], max_len, offdiag)


@pytest.mark.parametrize("name, max_len, failures", [
    ("UX", 4, 56), ("sum", 4, 56), ("matrix", 3, 80), ("PX", 5, 16), ("UQ", 5, 120)])
def test_non_free_walk_matches_reference(mm, name, max_len, failures):
    """A family walked against itself is not free: the failures, their order
    and their values equal the reference's."""
    gen_a, _, offdiag = mm.generators(name)
    report = assert_matches_reference(mm, gen_a, gen_a, max_len, offdiag)
    assert len(report.failures) == failures


@pytest.mark.parametrize("name", HARNESSES)
def test_all_entries_walk_matches_reference(mm, name):
    """With every name off-diagonal, free words fail on off-diagonal entries
    whose traces differ from their transposes', so a partner must take its
    entries transposed."""
    gen_a, gen_b, _ = mm.generators(name)
    names = {n for n, _ in gen_a + gen_b}
    report = assert_matches_reference(mm, gen_a, gen_b, 3, names)
    assert report.failures and report.entries_derived > 0


def test_pairing_keys_generators_by_position_not_name(mm):
    """Names may repeat within a family and across the two: the pairing
    follows positions, so it still pairs, and stays exact when the
    families are not free."""
    u, x, p2, q2 = mm.U, mm.X, mm.P0.scaled(2), mm.Q0.scaled(2)
    gen_a = [("g", u), ("g", u.adjoint()), ("p", p2)]
    gen_b = [("g", x), ("g", x.adjoint()), ("p", q2)]
    report = assert_matches_reference(mm, gen_a, gen_b, 4, {"g"})
    assert report.passed and report.entries_derived > 0
    same = [("g", x), ("p", p2), ("g", x.adjoint())]
    report = assert_matches_reference(mm, gen_a, same, 4, {"g"})
    assert report.failures and report.entries_derived > 0


@pytest.mark.parametrize("gen_a, offdiag", [
    (["U", "U", "U*"], {"U", "U*", "X", "X*"}),  # U has two partners
    (["U", "U*", "2P0"], {"U", "X", "X*"}),  # U* missing from offdiag
    (["U", "2P0"], {"U", "X", "X*"}),  # U* missing from the family
], ids=["not-involution", "offdiag-open", "family-open"])
def test_unpairable_generators_take_the_plain_walk(mm, gen_a, offdiag):
    mats = {"U": mm.U, "U*": mm.U.adjoint(), "2P0": mm.P0.scaled(2)}
    _, gen_b, _ = mm.generators("UX")
    gen_a = [(name, mats[name]) for name in gen_a]
    for first, second in ((gen_a, gen_b), (gen_b, gen_a)):
        report = assert_matches_reference(mm, first, second, 3, offdiag)
        assert report.entries_derived == 0


def test_entry_counts_ux3(mm):
    """UX:3 checks 78 words and 296 entries.  U and U* have u-charge +1 and
    -1, X and X* v-charge +1 and -1, and 2P0 and 2Q0 degree 0, so a word has
    degree 0 only when its charges cancel.  Length 1: the full checks of
    lone U, U*, X and X* (16 entries) are skipped, and 2P0 and 2Q0 check no
    entry.  Length 2: of the 68 entries, 2P0 2Q0 and its adjoint 2Q0 2P0
    have degree 0, 2 entries each, one traced and one derived; the other 64
    are skipped.  Length 3: the 6 self-adjoint words (U 2Q0 U*, U* 2Q0 U,
    2P0 2Q0 2P0 and the b-side three) have degree 0 and 20 entries, all
    traced; the other 192 of the 212 are skipped.  So 22 traced, 2
    derived and 272 skipped, the 158 traced plus 138 derived of a walk
    that skips nothing.  Dropping X* from the off-diagonal names leaves
    that set open under adjoint, so the plain walk traces every checked
    entry of degree 0, 4 at length 2 and the same 20 at length 3; with
    X* diagonal-only, 256 of its 280 entries are skipped.  At length 1
    alone, UX skips the four partial isometries' 16 entries and matrix
    checks nothing."""
    gen_a, gen_b, offdiag = mm.generators("UX")
    report = mm.check_freeness(gen_a, gen_b, 3, "UX", offdiag)
    counts = (report.entries_traced, report.entries_derived, report.entries_skipped)
    assert (report.words_checked, *counts) == (78, 22, 2, 272)
    assert sum(counts) == 158 + 138
    plain = mm.check_freeness(gen_a, gen_b, 3, "UX", offdiag - {"X*"})
    assert (plain.words_checked, plain.entries_traced, plain.entries_derived,
            plain.entries_skipped) == (78, 24, 0, 256)
    lone = mm.check_freeness(gen_a, gen_b, 1, "UX", offdiag)
    assert (lone.words_checked, lone.entries_traced, lone.entries_derived,
            lone.entries_skipped) == (6, 0, 0, 16)
    gen_a, gen_b, offdiag = mm.generators("matrix")
    lone = mm.check_freeness(gen_a, gen_b, 1, "matrix", offdiag)
    assert (lone.words_checked, lone.entries_traced, lone.entries_derived,
            lone.entries_skipped) == (14, 0, 0, 0)


@pytest.mark.parametrize("name, skipped", [
    ("PQ", 0), ("UX", 272), ("PX", 56), ("UQ", 56), ("sum", 128), ("matrix", 1528)])
def test_graded_harnesses_skip_entries(mm, name, skipped):
    """At length 3 every harness but PQ skips entries: UX, PX and UQ by
    u- and v-charge, sum by the parities of A1, A2, B1 and B2 alone, and
    matrix by both.  PQ's 2P0 and 2Q0 have degree 0 in every leg."""
    gen_a, gen_b, offdiag = mm.generators(name)
    report = mm.check_freeness(gen_a, gen_b, 3, name, offdiag)
    assert report.passed and report.entries_skipped == skipped


def test_inhomogeneous_generator_turns_its_grade_off(mm):
    """U + 2P0 has entries 1, u and -1: it is not homogeneous in u-charge,
    though its first nonzero entry has charge 0.  Beside U and U* against
    2Q0, no leg grades every generator, so the walk skips nothing; against
    the X family the v-charge still counts.  Walked against itself, where
    (U + 2P0) U* = P + 2P0 U* has tr((1, 1)) = 1, the failures are the
    reference's."""
    mixed = [("U+2P0", mm.U + mm.P0.scaled(2)), ("U", mm.U), ("U*", mm.U.adjoint())]
    q2 = [("2Q0", mm.Q0.scaled(2))]
    offdiag = {"U", "U*", "X", "X*"}
    report = assert_matches_reference(mm, mixed, q2, 4, offdiag)
    assert report.passed and report.entries_skipped == 0 and report.entries_traced > 0
    _, x_side, _ = mm.generators("UX")
    report = assert_matches_reference(mm, mixed, x_side, 3, offdiag)
    assert report.passed and report.entries_skipped > 0
    report = assert_matches_reference(mm, mixed, mixed, 3, offdiag)
    assert report.entries_skipped == 0
    assert {"word": "U+2P0 U*", "entry": "11", "value": "1"} in report.failures


def _count_muls(monkeypatch):
    """The list that gains one item per ``FreeProduct.mul`` call from now on."""
    calls = []
    mul = FreeProduct.mul
    monkeypatch.setattr(FreeProduct, "mul",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    return calls


@pytest.mark.parametrize("name, max_len, muls", [("UX", 4, 172), ("PX", 7, 586), ("PQ", 12, 120)])
def test_walk_forms_entries_only_as_they_are_read(mm, name, max_len, muls, monkeypatch):
    """The walk calls ``Mat2 @`` never: every word is a ``_WordProduct``,
    which forms an entry only when the word's check or a child reads it.
    Forming entry (i, j) of a word ending in g costs one
    ``FreeProduct.mul`` per nonzero g_kj: one for the diagonal 2P0, one for
    the nonzero column of U (the second) or U* (the first), none for their
    zero columns, two for 2Q0, X and X*, which have no zero entry.  A lone
    generator forms nothing, and a node forms entries only when it or some
    word extending it is traced by its own check, not derived or skipped.

    - PQ:12: the two starts give 22 nodes of lengths 2 to 12.  The 10
      ending in 2P0 that a traced word reads form all four entries, and so
      do the 9 ending in 2Q0 of lengths 2 to 10; the 2Q0 word of length 11,
      whose child is derived, and the traced word of length 12 form their
      diagonals.  10*4 + 9*4*2 + 2*2 + 2*2 = 120.
    - PX:7: 40 nodes ending in 2P0 form all four entries (160) and so do 52
      ending in X, X* or 2Q0 (416; a word with X or X* checks all four, and
      a child ending in 2Q0 reads whole rows).  Three words of 2P0 and 2Q0
      alone form only their diagonals: (2P0 2Q0)^3 (4), (2P0 2Q0)^3 2P0
      (2) and (2Q0 2P0)^3 2Q0 (4).  160 + 416 + 10 = 586.
    - UX:4: its traced words of degree 0 read U X U*, U* X U and the rest
      of their kind (6 nodes, all four entries, two products each: 12), and
      through them one column of U X, U* X and the rest (6 nodes, 2 entries,
      4 products each: 24); 2P0 then X, X* or 2Q0 (3 nodes, 8 each) and
      2P0 after them (3, 4 each): 36; X, X* or 2Q0 then 2P0 (3, 4 each), X
      2P0 X* and X* 2P0 X (2, 8 each) and the diagonal of 2Q0 2P0 2Q0 (4):
      32.  The traced words of length 4 form their own entries: U X U* X*,
      its five kin and 2P0 X 2P0 X* and 2P0 X* 2P0 X all four (8 nodes, 8
      each: 64), 2P0 2Q0 2P0 2Q0 its diagonal (4).
      24 + 12 + 36 + 32 + 68 = 172.

    The walk that formed whole products (``Mat2 @``) for every word two or
    more letters short made 156, 740 and 236 calls; the one that traced the
    longest words from cut states of their parents' entries made 116, 460
    and 104, with more folds."""
    gen_a, gen_b, offdiag = mm.generators(name)
    products = []
    matmul = Mat2.__matmul__
    monkeypatch.setattr(Mat2, "__matmul__",
                        lambda self, other: products.append(1) or matmul(self, other))
    calls = _count_muls(monkeypatch)
    assert mm.check_freeness(gen_a, gen_b, max_len, name, offdiag).passed
    assert (len(products), len(calls)) == (0, muls)


def test_word_product_forms_each_entry_once_then_drops_left(mm, monkeypatch):
    """A node forms an entry on its first read only, reading just the entries
    of ``left`` that meet a nonzero entry of its generator, and drops
    ``left`` after forming its fourth entry; a lone generator's node holds
    the generator's entries and forms nothing."""
    p2, q2 = mm.P0.scaled(2), mm.Q0.scaled(2)
    want = p2 @ q2
    want_pqp = want @ p2
    calls = _count_muls(monkeypatch)
    root = _WordProduct(mm.fp, None, p2)
    assert root.formed == [x for row in p2.e for x in row] and root.left is None
    node = _WordProduct(mm.fp, root, q2)
    # 2Q0 has no zero entry: each entry of 2P0 2Q0 costs two products
    for (i, j), cost in [((0, 0), 2), ((0, 0), 0), ((1, 0), 2), ((0, 1), 2), ((1, 0), 0)]:
        before = len(calls)
        assert node.entry(i, j) == want.e[i][j]
        assert len(calls) - before == cost and node.left is root
    assert node.entry(1, 1) == want.e[1][1] and len(calls) == 8 and node.left is None
    assert [node.entry(i, j) for i in (0, 1) for j in (0, 1)] == node.formed
    assert len(calls) == 8
    # 2P0 is diagonal: entry (0, 0) of 2P0 2Q0 2P0 reads entry (0, 0) of a
    # fresh 2P0 2Q0 alone, and U's zero first column reads nothing
    middle = _WordProduct(mm.fp, root, q2)
    leafward = _WordProduct(mm.fp, middle, p2)
    assert leafward.entry(0, 0) == want_pqp.e[0][0]
    assert middle.formed[1:] == [None, None, None] and len(calls) == 11
    assert _WordProduct(mm.fp, node, mm.U).entry(1, 0).is_zero()
    assert len(calls) == 11


def assert_star_traced(mm, m):
    for row in m.e:
        for x in row:
            assert mm.fp.trace(x.adjoint()) == mm.fp.trace(x)


def test_generator_entries_are_star_traced(mm):
    """tr(x*) = tr(x) for every entry of every harness generator: the
    trace is a *-trace and every value is real, which the adjoint pairing
    rests on."""
    for name in HARNESSES:
        gen_a, gen_b, _ = mm.generators(name)
        for _, g in gen_a + gen_b:
            assert_star_traced(mm, g)


@settings(deadline=None, database=None, max_examples=30)
@given(st.data())
def test_product_entries_are_star_traced(mm, data):
    """tr(x*) = tr(x) for every entry of random products of harness
    generators, from any harnesses."""
    gens = [g for name in HARNESSES for side in mm.generators(name)[:2] for _, g in side]
    word = data.draw(st.lists(st.sampled_from(gens), min_size=2, max_size=4))
    prod = word[0]
    for g in word[1:]:
        prod = prod @ g
    assert_star_traced(mm, prod)


# -- embedded submodels --------------------------------------------------------------


def test_embed_sum_scalar_pairs_recover_reflections(mm):
    one = NCPoly.unit()
    assert mm.embed_sum_model(one, -one) == mm.P0.scaled(2)
    assert mm.embed_conjugated_sum(one, -one) == mm.Q0.scaled(2)


def test_embed_matrix_model_patterns(mm):
    one = NCPoly.unit()
    z = NCPoly.zero()
    # E12 over the trivial leg embeds to the u-shifted pattern
    got = mm.embed_matrix_model(((z, one), (z, z)))
    assert got == mm.U
    # and on the conjugated side to X; the sign pattern embeds to 2Q0
    assert mm.embed_matrix_model_conj(((z, one), (z, z))) == mm.X
    assert mm.embed_matrix_model_conj(((one, z), (z, -one))) == mm.Q0.scaled(2)


def test_sum_model_harness_short():
    mm = MatrixModel()
    gen_a, gen_b, offdiag = sum_model_generators(mm)
    report = mm.check_freeness(gen_a, gen_b, 4, "sum", offdiag)
    assert report.passed, report.failures[:3]


def test_matrix_model_harness_short():
    mm = MatrixModel()
    gen_a, gen_b, offdiag = matrix_model_generators(mm)
    report = mm.check_freeness(gen_a, gen_b, 2, "matrix", offdiag)
    assert report.passed, report.failures[:3]


@pytest.mark.slow
def test_ux_harness_desk_scale(mm):
    gen_a, gen_b, offdiag = mm.generators("UX")
    report = mm.check_freeness(gen_a, gen_b, 6, "UX", offdiag)
    assert report.passed, report.failures[:3]


@pytest.mark.slow
def test_px_uq_harness_desk_scale(mm):
    for name in ("PX", "UQ"):
        gen_a, gen_b, offdiag = mm.generators(name)
        report = mm.check_freeness(gen_a, gen_b, 7, name, offdiag)
        assert report.passed, (name, report.failures[:3])


@pytest.mark.slow
def test_sum_model_harness_desk_scale():
    mm = MatrixModel()
    gen_a, gen_b, offdiag = sum_model_generators(mm)
    report = mm.check_freeness(gen_a, gen_b, 6, "sum", offdiag)
    assert report.passed, report.failures[:3]


@pytest.mark.slow
def test_matrix_model_harness_desk_scale():
    mm = MatrixModel()
    gen_a, gen_b, offdiag = matrix_model_generators(mm)
    report = mm.check_freeness(gen_a, gen_b, 4, "matrix", offdiag)
    assert report.passed, report.failures[:3]


# One length past desk scale.  Each budget is several times the harness's
# time on a 2-core machine with Python 3.11 (UX:7 0.05 s, sum:7 0.05-0.08 s,
# PX:8 0.014-0.024 s, UX:8 0.15-0.20 s, matrix:5 0.12-0.19 s).


@pytest.mark.slow
@pytest.mark.parametrize("name, max_len, words, budget_s", [
    ("UX", 7, 6558, 10),
    ("sum", 7, 6558, 10),
    ("PX", 8, 400, 5),
    ("UX", 8, 19680, 30),
    ("matrix", 5, 39214, 30),
])
def test_harness_past_desk_scale(name, max_len, words, budget_s):
    mm = MatrixModel()
    gen_a, gen_b, offdiag = mm.generators(name)
    start = time.perf_counter()
    report = mm.check_freeness(gen_a, gen_b, max_len, name, offdiag)
    elapsed = time.perf_counter() - start
    assert report.passed, report.failures[:3]
    assert report.words_checked == words
    assert elapsed < budget_s, f"{name}:{max_len} took {elapsed:.1f} s"
