"""The 2x2 matrix model: displayed constant forms, exact identities, and
the freeness harnesses at module-test scale (the acceptance suite runs the
full lengths)."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from freeprod.freeword import NCPoly
from freeprod.matmodel import (
    HARNESSES,
    MAX_HARNESS_WORDS,
    Mat2,
    MatrixModel,
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


@pytest.mark.parametrize("seed", range(6))
def test_matrix_trace_is_tracial(mm, seed):
    rng = random.Random(7000 + seed)
    consts = list(mm.constants().values())
    a = rng.choice(consts) @ rng.choice(consts)
    b = rng.choice(consts)
    assert (a @ b).Tr() == (b @ a).Tr()


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
# time on a 2-core machine with Python 3.11 (UX:7 1.3 s, sum:7 0.9 s, PX:8
# 0.06 s, UX:8 4.0 s).


@pytest.mark.slow
@pytest.mark.parametrize("name, max_len, words, budget_s", [
    ("UX", 7, 6558, 10),
    ("sum", 7, 6558, 10),
    ("PX", 8, 400, 5),
    ("UX", 8, 19680, 30),
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
