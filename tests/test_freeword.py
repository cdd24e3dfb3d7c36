"""Word traces in the free product: the centered-basis fold against the
partition-formula evaluator, moment/cumulant transforms, and the Haar
letter filter.

Frozen expected values come from hand oracles: for u Haar and free from
{a, b}, tr(a u b u*) = tr(a) tr(b); Haar cumulants equal signed Catalan
numbers via Moebius inversion.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from freeprod.freeword import (
    MAX_CUMULANT_N,
    MAX_PARTITION_N,
    UNIT,
    CommLetter,
    EvaluationLimitError,
    FamilySplitError,
    FiniteCommLeg,
    FreeProduct,
    HaarLeg,
    HaarLetter,
    Leg,
    NCPoly,
    TrigLeg,
    TrigLetter,
    UnknownNameError,
    cumulants_to_moments,
    legs_from_model_dict,
    moments_to_cumulants,
    standard_model,
)
from freeprod import freeword
from freeprod.ncpart import NCPartition, enumerate_nc, kreweras
from freeprod.trigalg import PI_ONE, PI_ZERO, PiValue, TrigPoly

from wordgen import (model_with_comm, rand_balanced_letters, rand_letters, rand_trig,
                     rand_word)


@pytest.fixture()
def fp():
    return model_with_comm()


def letters_cucu(fp):
    f, u = fp.leg("f"), fp.leg("u")
    return [f.c(), u.gen(1), f.c(), u.gen(-1)]


# -- normalization -------------------------------------------------------------


def test_normalize_unit_cancellation(fp):
    u = fp.leg("u")
    assert fp.normalize([u.gen(1), u.gen(-1)]) == NCPoly.unit()


def test_normalize_splits_constants(fp):
    f, u = fp.leg("f"), fp.leg("u")
    nc = fp.normalize([u.gen(1), f.c(), f.c(), u.gen(1)])
    w_sq = fp.word([u.gen(2)])
    w_mid = fp.word([u.gen(1), f.c(2), u.gen(1)])
    assert nc.coeff(w_sq) == PiValue.of(Fraction(1, 2))
    assert nc.coeff(w_mid) == PiValue.of(Fraction(1, 2))
    assert nc.nterms() == 2


def test_normalize_cc(fp):
    f = fp.leg("f")
    nc = fp.normalize([f.c(), f.c()])
    assert nc.coeff(()) == PiValue.of(Fraction(1, 2))
    assert nc.coeff(fp.word([f.c(2)])) == PiValue.of(Fraction(1, 2))


def test_normalize_unknown_leg(fp):
    with pytest.raises(UnknownNameError):
        fp.normalize([HaarLetter("w", 1)])
    with pytest.raises(UnknownNameError):
        fp.leg("A").element("nope")


@pytest.mark.parametrize("power", [1.5, 2.0, True, "1", Fraction(1)])
def test_haar_power_must_be_an_int(power):
    """A Haar letter's power is an int: gen(1.5) made a letter u^1.5."""
    with pytest.raises(TypeError):
        HaarLeg("u").gen(power)
    assert HaarLeg("u").gen(-2) == HaarLetter("u", -2)


def test_adjoint_reverses_and_inverts(fp):
    f, u = fp.leg("f"), fp.leg("u")
    nc = fp.normalize([f.c(), u.gen(2), f.s()])
    adj = nc.adjoint()
    assert adj == fp.normalize([f.s(), u.gen(-2), f.c()])


def test_letter_ids_are_shared_across_free_products(fp):
    """Letter ids are global: an NCPoly built in one FreeProduct multiplies,
    traces and prints the same in another with a different leg set, and a
    letter of a leg the other one lacks still raises UnknownNameError."""
    other = FreeProduct([HaarLeg("v"), TrigLeg("f"), HaarLeg("u")])
    f2, u2, v2 = other.leg("f"), other.leg("u"), other.leg("v")
    # letters seen first by the second product
    p = other.normalize([f2.s(3), u2.gen(2), f2.c(), v2.gen(-1)])
    q = other.normalize([v2.gen(1), f2.s(), u2.gen(-2)])
    f, u, v = fp.leg("f"), fp.leg("u"), fp.leg("v")
    assert p == fp.normalize([f.s(3), u.gen(2), f.c(), v.gen(-1)])
    assert str(p) == str(fp.normalize([f.s(3), u.gen(2), f.c(), v.gen(-1)]))
    pq = other.mul(p, q)
    assert pq == fp.mul(p, q)
    assert str(pq) == str(fp.mul(p, q))
    assert other.trace(pq) == fp.trace(pq)
    for w, _ in pq.terms():
        assert other.trace_word(w) == fp.trace_word(w)
    comm = fp.normalize([fp.leg("A").element("x"), u.gen(1)])
    with pytest.raises(UnknownNameError):
        other.mul(p, comm)
    with pytest.raises(UnknownNameError):
        other.trace(comm)
    with pytest.raises(UnknownNameError):
        other.normalize([fp.leg("B").element("z")])


def test_letter_interning_is_one_id_per_letter_under_threads():
    """Threads making the same new letters at once all get the identical
    letter objects: one letter per value."""
    import sys
    import threading

    results = []
    barrier = threading.Barrier(8)

    def work():
        barrier.wait(timeout=10)
        results.append([HaarLetter("intern-stress", k) for k in range(1, 400)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert len(results) == 8
    assert all(a is b for r in results for a, b in zip(r, results[0]))
    assert [l.power for l in results[0]] == list(range(1, 400))
    assert len(set(map(id, results[0]))) == 399


def test_trig_split_basis_letters_are_made_canonical_by_the_intern_table():
    """``TrigLeg.split`` hands out one single-term letter per (kind, k): the
    letter of that value made first, the same one on every split, and a
    distinct letter for the same term of another leg."""
    leg, other = TrigLeg("split-f"), TrigLeg("split-g")
    # an equal letter made before the leg first splits out c[2]
    seen = TrigLetter("split-f", TrigPoly.cos(2))
    poly = TrigPoly({("c", 0): 3, ("c", -2): Fraction(1, 2), ("s", 5): -1})
    parts = leg.split(poly)
    assert [q for q, _ in parts] == [3, Fraction(1, 2), -1]
    assert parts[0][1] is None
    for (kind, k), (_, b) in zip([("c", 2), ("s", 5)], parts[1:]):
        assert b is TrigLetter("split-f", TrigPoly({(kind, k): 1}))
    assert parts[1][1] is seen
    again = leg.split(TrigPoly.sin(5, 7) + TrigPoly.cos(2))
    assert all(b2 is b for (_, b2), (_, b) in zip(again, parts[1:]))
    theirs = other.split(poly)
    for (_, b), (_, b2) in zip(parts[1:], theirs[1:]):
        assert b2 is TrigLetter("split-g", b.poly)
        assert b2 is not b and b2 != b


def test_pickle_and_copy_give_back_the_letters():
    """``pickle`` and ``copy`` rebuild a letter through its constructor, so
    the copy is the original letter, and a copied NCPoly built from letters
    of each class equals the original and traces the same."""
    import copy
    import pickle

    fp = model_with_comm()
    f, u, a = fp.leg("f"), fp.leg("u"), fp.leg("A")
    letters = (f.letter(TrigPoly.cos(2) + Fraction(1, 3)), u.gen(-2), a.element("y"))
    nc = NCPoly({letters: Fraction(1, 2), letters[:2]: 3, (): PiValue.lam(1)})
    for x in (*letters, nc):
        for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert copied == x
            if x is not nc:
                assert copied is x
    for copied in (pickle.loads(pickle.dumps(nc)), copy.deepcopy(nc)):
        assert fp.trace(copied) == fp.trace(nc) and not fp.trace(nc).is_zero()


def test_letters_go_with_the_last_object_that_holds_them():
    """The letter table holds letters weakly: once a free product over new
    legs, its letters and its results are dropped, no letter of those legs
    is left in it."""
    import gc

    names = {"release-f", "release-u", "release-A"}

    def legs_in_table():
        return {key[1] for key in list(freeword._LETTERS.keys())} & names

    fp = FreeProduct([TrigLeg("release-f"), HaarLeg("release-u"),
                      FiniteCommLeg("release-A", 3, {"x": (1, 0, -2)})])
    letters = [fp.leg("release-f").c(), fp.leg("release-u").gen(1),
               fp.leg("release-A").element("x"), fp.leg("release-u").gen(-1)]
    assert fp.trace_word(letters) == fp.trace(fp.normalize(letters)) != PI_ZERO
    assert legs_in_table() == names
    del fp, letters
    gc.collect()
    assert legs_in_table() == set()


def test_in_leg_products_make_no_letter(fp, monkeypatch):
    """``_Basis.product`` expands an in-leg product from the value its leg's
    ``mul`` gives, so ``mul`` of two trig NCPolys and a centered trace of a
    trig word store only basis letters in the letter table, each one trig
    term with coefficient 1, never a product."""
    import weakref

    f, u, v = fp.leg("f"), fp.leg("u"), fp.leg("v")
    p = fp.normalize([f.c(37), u.gen(1), f.s(41)])
    q = fp.normalize([f.s(43), v.gen(1), f.letter(TrigPoly.cos(47) + TrigPoly.sin(53, 3))])
    # the fold meets c[59] s[67] once u u* cancels
    word = fp.word([f.c(59), u.gen(1), f.s(61), u.gen(-1), f.s(67)])
    stored = []
    setitem = weakref.WeakValueDictionary.__setitem__

    def recording(table, key, letter):
        if table is freeword._LETTERS:
            stored.append(letter)
        setitem(table, key, letter)

    monkeypatch.setattr(weakref.WeakValueDictionary, "__setitem__", recording)
    assert fp.mul(p, q).nterms() > 1
    assert fp.trace(NCPoly({word: 1})) != PI_ZERO
    assert stored
    for letter in stored:
        assert isinstance(letter, TrigLetter)
        assert [coeff for _, coeff in letter.poly.items()] == [1], letter


def test_trig_letter_text():
    """A single term with coefficient 1 prints as its name, as ``str`` of
    its polynomial does; any other polynomial prints in parentheses."""
    f = TrigLeg("text-f")
    cases = [(TrigPoly.cos(1), "c"), (TrigPoly.sin(1), "s"), (TrigPoly.cos(0), "1"),
             (TrigPoly.cos(3), "c[3]"), (TrigPoly.sin(2), "s[2]"),
             (TrigPoly.cos(1, 2), "(2*c)"), (TrigPoly.cos(1, Fraction(1, 2)), "(1/2*c)"),
             (TrigPoly.cos(1) + TrigPoly.sin(1), "(c + s)")]
    assert [f.letter(poly).text() for poly, _ in cases] == [text for _, text in cases]


# -- trace by the centered-basis fold --------------------------------------------


def test_trace_single_letters(fp):
    f, u = fp.leg("f"), fp.leg("u")
    assert fp.trace_word(fp.word([u.gen(1)])) == PI_ZERO
    assert fp.trace_word(fp.word([f.c()])) == PiValue.lam(2)
    assert fp.trace_word(()) == PI_ONE


def test_trace_conjugation_oracle(fp):
    # tr(a u b u*) = tr(a) tr(b); with a = b = c this is (2/pi)^2
    w = fp.word(letters_cucu(fp))
    assert fp.trace_word(w) == PiValue.lam(4, deg=2)


def test_trace_mixed_haar_vanishes(fp):
    f, u, v = fp.leg("f"), fp.leg("u"), fp.leg("v")
    w = fp.word([u.gen(1), f.s(), v.gen(1), f.s(), u.gen(-1), v.gen(-1)])
    assert fp.trace_word(w) == PI_ZERO


@pytest.mark.parametrize("poly", [TrigPoly.cos(1) + TrigPoly.sin(1), TrigPoly.cos(1, 2)],
                         ids=["sum", "scalar-multiple"])
def test_word_refuses_a_sequence_that_is_not_one_unit_word(fp, poly):
    with pytest.raises(ValueError, match=r"^letter sequence does not normalize to a single "
                                         r"unit-coefficient word: "):
        fp.word([fp.leg("f").letter(poly)])


def test_trace_rejects_non_alternating(fp):
    f = fp.leg("f")
    with pytest.raises(ValueError):
        fp.trace_word((f.c(), f.s()))


def test_trace_word_length_guard(fp):
    u, f = fp.leg("u"), fp.leg("f")
    letters = []
    for i in range(40):
        letters.append(u.gen(1))
        letters.append(f.c())
    with pytest.raises(EvaluationLimitError):
        fp.trace_word(tuple(letters))


def test_fold_work_guard(monkeypatch):
    """One evaluation may make MAX_FOLD_WORDS words over all its folds,
    here 2000, and each evaluation counts afresh.  Tracing c u repeated 12
    times makes 1127 words, and so does s u repeated 12 times after it;
    repeated 14 times it would make 2957.  Normalizing (c+s) u repeated 6
    times makes 252 words and 64 terms, each traced alone in at most 59
    words; the trace of their sum counts all 3776.  Normalizing (c+s) u
    repeated 8 times makes 1020 words, and 9 times 2044.  Multiplying the
    64 terms by the 4 of (c+s) u (c+s) u makes 1024 words, and by the 8 of
    three repeats 3072."""
    monkeypatch.setattr(freeword, "MAX_FOLD_WORDS", 2000)
    fp = standard_model()
    f, u = fp.leg("f"), fp.leg("u")
    for letter in (f.c(), f.s()):
        assert fp.trace_word([letter, u.gen(1)] * 12) == PI_ZERO
    with pytest.raises(EvaluationLimitError, match="more than 2000 words"):
        fp.trace_word([f.c(), u.gen(1)] * 14)
    both = [f.letter(TrigPoly.cos(1) + TrigPoly.sin(1)), u.gen(1)]
    nc = fp.normalize(both * 6)
    assert nc.nterms() == 64
    with pytest.raises(EvaluationLimitError):
        fp.trace(nc)
    for w, c in nc.terms():
        assert fp.trace(NCPoly({w: c})) == PI_ZERO
    two = fp.normalize(both * 2)
    for _ in range(2):
        assert fp.normalize(both * 8).nterms() == 256
    for _ in range(2):
        assert fp.mul(nc, two).nterms() == 256
    with pytest.raises(EvaluationLimitError):
        fp.normalize(both * 9)
    with pytest.raises(EvaluationLimitError):
        fp.mul(nc, fp.normalize(both * 3))


# -- grades ----------------------------------------------------------------------


def _pairing_model():
    return standard_model([FiniteCommLeg("A", 2)])


def _pairing_letters():
    f, u, v, a = (_pairing_model().leg(name) for name in "fuvA")
    return ([f.letter(TrigPoly({key: 1}))
             for key in (("c", 0), ("c", 1), ("c", 2), ("s", 1), ("s", 2))]
            + [leg.gen(k) for leg in (u, v) for k in (-2, -1, 1, 2)]
            + [a.letter([x, y]) for x in range(-2, 3) for y in range(-2, 3)])


PAIRING_LETTERS = _pairing_letters()


def _nc_poly(fp, terms):
    out = NCPoly.zero()
    for letters, q in terms:
        out = out + fp.normalize([PAIRING_LETTERS[i] for i in letters]).scaled(q)
    return out


def test_leg_grades():
    """A Haar leg grades u^k by k, a two-atom leg its odd letters 1 and its
    even ones 0 mod 2; a letter of both parts, a three-atom leg and the
    trig leg have no grade."""
    u, a, b, f = HaarLeg("u"), FiniteCommLeg("A", 2), FiniteCommLeg("B", 3), TrigLeg("f")
    assert [u.grade(u.gen(k)) for k in (-2, -1, 0, 3)] == [-2, -1, 0, 3]
    assert u.grade_modulus == 0 and a.grade_modulus == 2
    centered = a.split((1, -1))[0][1]
    assert centered.vec == (Fraction(-1, 2), Fraction(1, 2)) and a.grade(centered) == 1
    assert [a.grade(a.letter(v)) for v in ([3, -3], [2, 2], [0, 0], [1, 2])] == [1, 0, 0, None]
    assert b.grade(b.letter([1, -1, 0])) is None
    assert f.grade(f.c()) is None and f.grade(f.letter(TrigPoly.cos(0))) is None


def test_free_product_grade_of_combinations(fp):
    """The degree every word shares, per leg the words touch; None where
    two words differ; an untouched leg is left out."""
    f, u, a = fp.leg("f"), fp.leg("u"), fp.leg("A")
    uu = fp.normalize([u.gen(1), f.c(), u.gen(1), a.element("x")])
    assert fp.grade(uu) == {"f": None, "u": 2, "A": 1}
    assert fp.grade(uu, fp.normalize([u.gen(2)])) == {"f": None, "u": 2, "A": None}
    assert fp.grade(uu, NCPoly.unit()) == {"f": None, "u": None, "A": None}
    assert fp.grade(fp.normalize([a.element("x"), u.gen(1), a.element("x")])) == {
        "u": 1, "A": 0}
    assert fp.grade(NCPoly.unit()) == fp.grade() == {}


def _graded_letters():
    """The indices of the pairing letters whose legs grade them (Haar
    powers, odd and even two-atom letters) and of the trig letters, which
    no leg grades."""
    fp = _pairing_model()
    return [i for i, letter in enumerate(PAIRING_LETTERS)
            if letter.leg == "f" or fp.leg(letter.leg).grade(letter) is not None]


GRADED_LETTERS = _graded_letters()
HOMOGENEOUS_TERMS = st.lists(st.tuples(st.lists(st.sampled_from(GRADED_LETTERS), max_size=4),
                                       st.sampled_from([Fraction(p, q) for p in range(-3, 4)
                                                        for q in (1, 2, 3)])),
                             min_size=1, max_size=4)


def _degrees(fp, nc):
    """The degrees of ``nc`` in the graded legs u, v and A."""
    got = fp.grade(nc)
    return tuple(got.get(leg_id, 0) for leg_id in "uvA")


def _homogeneous_poly(fp, terms):
    """The sum of the normalized terms that have the first term's degrees."""
    def degrees(letters):
        return _degrees(fp, NCPoly({tuple(PAIRING_LETTERS[i] for i in letters): 1}))

    first = degrees(terms[0][0])
    return _nc_poly(fp, [(letters, q) for letters, q in terms if degrees(letters) == first])


@settings(deadline=None, database=None, max_examples=100)
@given(st.data())
def test_product_of_homogeneous_polys_has_the_summed_degree(data):
    """Every word of p q has degree(p) + degree(q) in each graded leg."""
    fp = _pairing_model()
    p, q = (_homogeneous_poly(fp, data.draw(HOMOGENEOUS_TERMS, name)) for name in "pq")
    want = tuple((x + y) % 2 if leg_id == "A" else x + y
                 for leg_id, x, y in zip("uvA", _degrees(fp, p), _degrees(fp, q)))
    for w, _ in fp.mul(p, q).terms():
        assert _degrees(fp, NCPoly({w: 1})) == want


@pytest.mark.parametrize("seed", range(6))
def test_words_of_nonzero_degree_trace_to_zero(fp, seed):
    """Normalized words are over basis letters, which every graded leg of
    the model grades (u, v and the two-atom A; B has three atoms).  Those
    of nonzero degree trace to 0 through both evaluators, neither of which
    reads a grade; a fair share of those of degree 0 does not, so the
    degree is what sets them apart."""
    rng = random.Random(4400 + seed)
    vanishing = nonzero = 0
    for _ in range(40):
        word = rand_word(fp, rng, 6)
        f1 = [i for i, letter in enumerate(word) if letter.leg != "f"]
        t = fp.trace_word(word)
        assert fp.trace_bipartite(word, f1) == t
        if any(_degrees(fp, NCPoly({word: 1}))):
            assert t == PI_ZERO, word
            vanishing += 1
        else:
            nonzero += t != PI_ZERO
    assert vanishing >= 5 and nonzero >= 3


@pytest.mark.parametrize("seed", range(20))
def test_traciality(fp, seed):
    # 20 x 10 = 200 randomized pairs of total length <= 8
    rng = random.Random(1000 + seed)
    for _ in range(10):
        w1 = rand_word(fp, rng, 4)
        w2 = rand_word(fp, rng, 4)
        a, b = NCPoly({w1: 1}), NCPoly({w2: 1})
        assert fp.trace(fp.mul(a, b)) == fp.trace(fp.mul(b, a))


@pytest.mark.parametrize("seed", range(12))
def test_unbalanced_haar_power_means_zero(fp, seed):
    rng = random.Random(2000 + seed)
    while True:
        w = rand_word(fp, rng, 6)
        powers_u = sum(l.power for l in w if isinstance(l, HaarLetter) and l.leg == "u")
        powers_v = sum(l.power for l in w if isinstance(l, HaarLetter) and l.leg == "v")
        if powers_u != 0 or powers_v != 0:
            break
    assert fp.trace_word(w) == PI_ZERO


@pytest.mark.parametrize("seed", range(10))
def test_star_positivity_numeric(fp, seed):
    rng = random.Random(3000 + seed)
    nc = fp.normalize(rand_letters(fp, rng, 5))
    val = fp.trace(fp.mul(nc, nc.adjoint())).eval_numeric()
    assert val >= -1e-12


# -- moment/cumulant machinery ----------------------------------------------------


def test_cumulant_k1_is_trace(fp):
    f = fp.leg("f")
    x = f.c()
    assert fp.leg_cumulant((x,)) == fp.letter_trace(x)


def test_haar_cumulants_examples(fp):
    u = fp.leg("u")
    assert fp.leg_cumulant((u.gen(1), u.gen(-1))) == PI_ONE
    assert fp.leg_cumulant((u.gen(1), u.gen(-1), u.gen(1), u.gen(-1))) == \
        PiValue.of(-1)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_haar_cumulants_signed_catalan(fp, n):
    u = fp.leg("u")
    letters = tuple(u.gen(1 if i % 2 == 0 else -1) for i in range(2 * n))
    want = PiValue.of(Fraction((-1) ** (n - 1) * catalan(n - 1)))
    assert fp.leg_cumulant(letters) == want


@pytest.mark.parametrize("seed", range(8))
def test_moment_cumulant_roundtrip_random_data(seed):
    """Transforms are mutually inverse on arbitrary rational moment data."""
    rng = random.Random(4000 + seed)
    values = {}

    def moment(xs):
        key = xs
        if key not in values:
            values[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return values[key]

    cum = moments_to_cumulants(moment)
    back = cumulants_to_moments(cum)
    for n in range(1, 7):
        xs = tuple(range(n))
        assert back(xs) == moment(xs)


def test_moment_cumulant_roundtrip_on_leg(fp):
    f = fp.leg("f")
    xs = (f.c(), f.s(), f.c(2), f.s())
    cum = moments_to_cumulants(fp.leg_moment)
    back = cumulants_to_moments(cum)
    assert back(xs) == fp.leg_moment(xs)
    assert cum(xs) == fp.leg_cumulant(xs)


def test_leg_moment_refuses_two_legs(fp):
    with pytest.raises(ValueError, match=r"^moment tuple must come from a single leg$"):
        fp.leg_moment((fp.leg("f").c(), fp.leg("u").gen(1)))


@pytest.mark.parametrize("transform, name", [(moments_to_cumulants, "cumulant"),
                                             (cumulants_to_moments, "moment")])
def test_transforms_refuse_empty_and_overlong_tuples(transform, name):
    functional = transform(lambda xs: 1)
    with pytest.raises(ValueError, match=r"^empty tuple$"):
        functional(())
    assert functional((0,) * MAX_CUMULANT_N) is not None
    with pytest.raises(EvaluationLimitError,
                       match=rf"^{name} length {MAX_CUMULANT_N + 1} exceeds {MAX_CUMULANT_N}$"):
        functional((0,) * (MAX_CUMULANT_N + 1))


def test_cumulant_length_guard(fp):
    u = fp.leg("u")
    letters = tuple(u.gen(1 if i % 2 == 0 else -1) for i in range(12))
    with pytest.raises(EvaluationLimitError):
        fp.leg_cumulant(letters)


# -- the partition-formula evaluator -----------------------------------------------


def test_bipartite_single_letter(fp):
    f = fp.leg("f")
    w = fp.word([f.c()])
    assert fp.trace_bipartite(w, []) == PiValue.lam(2)
    assert fp.trace_bipartite(w, [0]) == PiValue.lam(2)


def test_bipartite_conjugation(fp):
    w = fp.word(letters_cucu(fp))
    assert fp.trace_bipartite(w, [1, 3]) == PiValue.lam(4, deg=2)


def test_bipartite_guards(fp):
    """The empty word has trace 1; a position outside the word and a word
    of more than MAX_PARTITION_N slot pairs are refused."""
    f, u = fp.leg("f"), fp.leg("u")
    assert fp.trace_bipartite((), []) == PI_ONE
    for pos in (2, -1):
        with pytest.raises(FamilySplitError, match=rf"^position {pos} outside word$"):
            fp.trace_bipartite((f.c(), u.gen(1)), [pos])
    n = MAX_PARTITION_N + 1
    with pytest.raises(EvaluationLimitError,
                       match=rf"^partition formula over {n} slots exceeds {MAX_PARTITION_N}$"):
        fp.trace_bipartite((u.gen(1), f.c()) * n, range(0, 2 * n, 2))


def test_bipartite_rejects_shared_leg(fp):
    w = fp.word(letters_cucu(fp))
    with pytest.raises(FamilySplitError):
        fp.trace_bipartite(w, [0, 1])


@pytest.mark.parametrize("seed", range(40))
def test_bipartite_agrees_with_centering(fp, seed):
    rng = random.Random(5000 + seed)
    w = rand_word(fp, rng, 8)
    f1 = [i for i, l in enumerate(w) if not isinstance(l, TrigLetter)]
    assert fp.trace_bipartite(w, f1) == fp.trace_word(w)


def test_long_words_agree_with_bipartite(fp):
    """Words of 10-16 letters, where the fold drops words that can no
    longer reach the empty word: the raw letter sequence through both
    evaluators, and through normalization followed by ``trace``."""
    nonzero = 0
    for seed in range(24):
        rng = random.Random(6000 + seed)
        letters = tuple(rand_balanced_letters(fp, rng, 10, 16))
        f1 = [i for i, l in enumerate(letters) if not isinstance(l, TrigLetter)]
        want = fp.trace_bipartite(letters, f1)
        assert fp.trace_word(letters) == want, seed
        assert fp.trace(fp.normalize(letters)) == want, seed
        nonzero += want != PI_ZERO
    assert nonzero >= 6  # the check is not carried by vanishing traces


def reference_trace_bipartite(fp, word, f1_positions):
    """``FreeProduct.trace_bipartite`` as it was before the pruned walk: the
    full sum over NC(n), every partition's cumulant product formed block by
    block."""
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
    # a letter of f1 takes the next x slot (even), any other the next y slot
    seq = []
    for i, letter in enumerate(word):
        if (i in f1) != (len(seq) % 2 == 0):
            seq.append(UNIT)
        seq.append(letter)
    if len(seq) % 2:
        seq.append(UNIT)
    xs, ys = seq[0::2], seq[1::2]
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
            kappa = kappa * fp._cum_block(tuple(xs[i - 1] for i in block))
            if kappa.is_zero():
                break
        if kappa.is_zero():
            continue
        comp = kreweras(p)
        tau = PI_ONE
        for block in comp.blocks:
            tau = tau * fp._trace_block(tuple(ys[i - 1] for i in block))
            if tau.is_zero():
                break
        total = total + kappa * tau
    return total


def _outcome(evaluate, fp, word, f1):
    try:
        return evaluate(fp, word, f1)
    except Exception as exc:  # the class is what the two routes must share
        return type(exc)


def _slots(sides):
    """Slot pairs x y that ``trace_bipartite`` lays the letters out in: a
    cumulant-side letter takes the next x slot, any other the next y slot,
    and UNIT fills the gaps."""
    length = 0
    for cumulant_side in sides:
        length += 1 + (cumulant_side != (length % 2 == 0))
    return (length + 1) // 2


def _case_letters():
    """The letters ``bipartite_cases`` draws from, by leg kind: trig terms
    with a nonzero coefficient in [-2, 2] of denominator at most 3, powers
    -2..2 of u and v, and named and raw letters of the two comm legs."""
    fp = model_with_comm()
    f, u, v, a, b = (fp.leg(name) for name in "fuvAB")
    coeffs = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-2 * q, 2 * q + 1)} - {0})
    keys = [("c", 0), ("c", 1), ("c", 2), ("c", 3), ("s", 1), ("s", 2), ("s", 3)]
    return ([f.letter(TrigPoly({key: q})) for key in keys for q in coeffs],
            [leg.gen(k) for leg in (u, v) for k in range(-2, 3)],
            [a.element("x"), a.element("y"), b.element("z"), b.letter([0, 1, 0])])


# Built once: a strategy built inside the composite is built and validated
# again on every example.
CASE_LETTER = st.one_of(*(st.sampled_from(letters) for letters in _case_letters()))
CASE_PAIRS = st.lists(st.tuples(CASE_LETTER, st.integers(0, 19)), min_size=1, max_size=14)
CASE_CUMULANT_LEGS = st.sets(st.sampled_from("fuvAB"))


@st.composite
def bipartite_cases(draw, max_slots=7):
    """Up to 14 letters of the trig, Haar and commutative legs, cut to the
    longest prefix that fits ``max_slots`` slot pairs, over a fresh model.
    Each leg is put on a random side, so the trace side may mix legs
    (mixed-block error), and about one letter in twenty goes to the other
    side (shared-leg error)."""
    cumulant_legs = draw(CASE_CUMULANT_LEGS)
    pairs = draw(CASE_PAIRS)
    sides = [(letter.leg in cumulant_legs) != (stray == 0) for letter, stray in pairs]
    while _slots(sides) > max_slots:
        sides.pop()
    word = tuple(letter for letter, _ in pairs[:len(sides)])
    return model_with_comm(), word, [i for i, side in enumerate(sides) if side]


@settings(deadline=None, database=None, max_examples=150)
@given(bipartite_cases())
def test_bipartite_matches_full_sum_reference(case):
    fp, word, f1 = case
    assert (_outcome(FreeProduct.trace_bipartite, fp, word, f1)
            == _outcome(reference_trace_bipartite, fp, word, f1))


def test_bipartite_matches_full_sum_reference_on_errors(fp):
    """The two error paths the random cases reach: a leg on both sides, and
    a Kreweras block of the trace side that mixes legs."""
    f, u, a = fp.leg("f"), fp.leg("u"), fp.leg("A")
    shared = ((u.gen(1), f.c(), u.gen(-1)), [0])
    mixed = ((f.c(), u.gen(1), f.c(), a.element("x")), [0, 2])
    for word, f1 in (shared, mixed):
        got = _outcome(FreeProduct.trace_bipartite, fp, word, f1)
        assert got is FamilySplitError
        assert got == _outcome(reference_trace_bipartite, fp, word, f1)


def test_bipartite_prunes_zero_cumulant_branches(fp, monkeypatch):
    """A 20-letter word, x1 y1 ... x10 y10 with no padding: the walk weighs
    about a hundred blocks.  Without the pruning it would weigh all 1023
    nonempty subsets of {1..10}, since each is a block of some partition
    in NC(10), which has 16796 partitions."""
    letters = tuple(rand_balanced_letters(fp, random.Random(0), 20, 20))
    f1 = [i for i, l in enumerate(letters) if not isinstance(l, TrigLetter)]
    assert f1 == list(range(0, 20, 2))
    blocks = []
    cum_block = FreeProduct._cum_block

    def counted(self, entries):
        blocks.append(entries)
        return cum_block(self, entries)

    monkeypatch.setattr(FreeProduct, "_cum_block", counted)
    got = fp.trace_bipartite(letters, f1)
    assert got == fp.trace_word(letters) != PI_ZERO
    assert len(blocks) <= 256


def test_bipartite_takes_each_trace_side_moment_once(fp, monkeypatch):
    """(u c u* c)^5 over 10 slot pairs: the trace side of its Kreweras
    complements holds 5 distinct letter tuples, and each one's moment is
    taken once in the call, not once per block (2002 blocks)."""
    u, f = fp.leg("u"), fp.leg("f")
    word = (u.gen(1), f.c(), u.gen(-1), f.c()) * 5
    f1 = range(0, 20, 2)
    want = reference_trace_bipartite(fp, word, f1)
    calls = []
    moment = fp.leg_moment
    monkeypatch.setattr(fp, "leg_moment", lambda letters: calls.append(letters) or moment(letters))
    assert fp.trace_bipartite(word, f1) == want == fp.trace_word(word) != PI_ZERO
    assert len(calls) == len(set(calls)) == 5


@lru_cache(maxsize=None)
def nc_blocks(n):
    """The block tuples of every partition of NC(n), enumerated once per n
    and shared by the examples of a property test."""
    return tuple(p.blocks for p in enumerate_nc(n))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", None]), min_size=1, max_size=9))
def test_bipartite_partition_counts_match_enumeration(shape):
    """The count for a word whose x slots hold letters of the legs in
    ``shape`` (None: a skipped slot, padded with UNIT) is the number of
    partitions in NC(n) whose blocks each hold one leg, or a UNIT alone."""
    word, f1 = [], []
    for leg in shape:
        if leg is not None:
            f1.append(len(word))
            word.append(HaarLetter(leg, 1))
        word.append(HaarLetter("y", 1))
    [got] = freeword.bipartite_partition_counts([(tuple(word), f1)])
    want = sum(all(len(b) == 1 or (len({shape[i - 1] for i in b}) == 1
                                   and shape[b[0] - 1] is not None) for b in blocks)
               for blocks in nc_blocks(len(shape)))
    assert got == want
    if set(shape) == {"a"}:
        assert got == len(nc_blocks(len(shape)))


def test_bipartite_partition_counts_bound_the_walk(fp, monkeypatch):
    """No walk of ``trace_bipartite`` builds more partitions than the count
    of its word, on seeded words of up to 10 slots."""
    built = []
    walk = freeword.weighted_nc
    monkeypatch.setattr(freeword, "weighted_nc",
                        lambda *args: built.append(walk(*args)) or built[-1])
    terms = []
    for seed in range(60):
        w = rand_word(fp, random.Random(7100 + seed), 12)
        terms.append((w, [i for i, l in enumerate(w) if not isinstance(l, TrigLetter)]))
    counts = freeword.bipartite_partition_counts(terms)
    for (w, f1), count in zip(terms, counts):
        built.clear()
        fp.trace_bipartite(w, f1)
        slots = len(freeword._bipartite_slots(w, f1)) // 2
        assert len(built[0]) <= count <= len(enumerate_nc(slots))
    assert sum(counts) > len(counts)  # the words are not all single slots


def test_letter_trace_is_memoized_apart_from_the_fold(fp, monkeypatch):
    """Each letter is traced by its leg once per free product, and the
    partition formula leaves the fold's word memo untouched."""
    calls = []
    trace = FiniteCommLeg.trace
    monkeypatch.setattr(FiniteCommLeg, "trace",
                        lambda self, vec: calls.append(vec) or trace(self, vec))
    y = fp.leg("A").element("y")
    assert fp.letter_trace(y) == fp.letter_trace(y) == PiValue.of(Fraction(3, 2))
    assert calls == [y.vec]
    f = fp.leg("f")
    assert fp.trace_bipartite((y, f.c(), y, f.c()), [0, 2]) != PI_ZERO
    assert fp._tr_memo == {}


# -- the leg protocol -----------------------------------------------------------


class CyclicLeg(Leg):
    """A unitary z with z^3 = 1, tr(z^k) = 1 if 3 divides k and 0
    otherwise, given by ``mul``, ``trace`` and ``split`` alone, on the
    powers its letters hold."""

    kind = "cyclic3"

    def mul(self, a, b):
        return (a + b) % 3

    def trace(self, power):
        return PI_ONE if power % 3 == 0 else PI_ZERO

    def split(self, power):
        power %= 3
        return [(Fraction(1), HaarLetter(self.id, power) if power else None)]


def test_protocol_leg_normalizes():
    fp = standard_model([CyclicLeg("z")])
    z = HaarLetter("z", 1)
    assert fp.normalize([z, z, z]) == NCPoly.unit()
    assert fp.normalize([z, z]) == NCPoly({(HaarLetter("z", 2),): 1})


def test_protocol_leg_fold_agrees_with_bipartite():
    """The fold and the partition formula on seeded words alternating
    between trig letters and powers of z."""
    fp = standard_model([CyclicLeg("z")])
    f = fp.leg("f")
    nonzero = 0
    for seed in range(200):
        rng = random.Random(9000 + seed)
        use_trig = rng.random() < 0.5
        letters = []
        for _ in range(rng.randint(1, 10)):
            if use_trig:
                letters.append(f.letter(rand_trig(rng)))
            else:
                letters.append(HaarLetter("z", rng.choice([-1, 1, 2])))
            use_trig = not use_trig
        f1 = [i for i, l in enumerate(letters) if not isinstance(l, TrigLetter)]
        want = fp.trace_bipartite(letters, f1)
        assert fp.trace_word(letters) == want, seed
        assert fp.trace(fp.normalize(letters)) == want, seed
        nonzero += want != PI_ZERO
    assert nonzero >= 40  # the check is not carried by vanishing traces


# -- R-diagonal filter --------------------------------------------------------------


def r_diagonal_filter(letters) -> bool:
    """Whether a free cumulant of Haar-unitary letters can be nonzero; the
    filter behind ``contributing_partitions``, which no engine calls.

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


def test_r_diagonal_filter_cases(fp):
    u, v = fp.leg("u"), fp.leg("v")
    assert r_diagonal_filter((u.gen(1), u.gen(-1)))
    assert not r_diagonal_filter((u.gen(1), u.gen(1)))
    assert not r_diagonal_filter((u.gen(1), v.gen(-1)))
    assert not r_diagonal_filter((u.gen(1), u.gen(-1), u.gen(-1), u.gen(1)))
    assert r_diagonal_filter((u.gen(2), u.gen(-2)))
    with pytest.raises(TypeError):
        r_diagonal_filter((fp.leg("f").c(),))


def contributing_partitions(fp, letters):
    """Partitions of the letter positions whose partitioned cumulant is not
    forced to vanish: blocks must stay within one leg, and Haar blocks must
    pass the alternating generator/inverse filter."""
    out = []
    for p in enumerate_nc(len(letters)):
        for block in p.blocks:
            picked = tuple(letters[i - 1] for i in block)
            if len({l.leg for l in picked}) > 1:
                break
            if fp.leg(picked[0].leg).kind == "haar" and not r_diagonal_filter(picked):
                break
        else:
            out.append(p)
    return out


def test_contributing_partitions_nested_conjugation(fp):
    """u f1 v f2 v* f3 u*: only two partitions of the seven positions can
    carry a nonzero cumulant - the unitaries must pair with their own
    inverses and the trig positions fill the gaps non-crossingly."""
    f, u, v = fp.leg("f"), fp.leg("u"), fp.leg("v")
    cs = f.letter(TrigPoly.cos(1) * TrigPoly.sin(1))
    f2 = f.letter(
        TrigPoly.cos(1) * TrigPoly.sin(1)
        * (TrigPoly.cos(1) * TrigPoly.cos(1) - TrigPoly.const(Fraction(1, 2)))
        * TrigPoly.sin(1))
    f3 = f.letter(TrigPoly.cos(1) * TrigPoly.cos(1) * TrigPoly.sin(1))
    letters = (u.gen(1), cs, v.gen(1), f2, v.gen(-1), f3, u.gen(-1))
    got = {p.blocks for p in contributing_partitions(fp, letters)}
    want = {
        NCPartition.from_blocks(7, [[1, 7], [3, 5], [2], [4], [6]]).blocks,
        NCPartition.from_blocks(7, [[1, 7], [3, 5], [2, 6], [4]]).blocks,
    }
    assert got == want


# -- model files ----------------------------------------------------------------------


def test_legs_from_model_dict():
    doc = {
        "legs": [
            {"id": "A1", "kind": "finite_comm", "m": 2,
             "elements": {"x": ["1", "-1"], "y": ["1/2", "3"]}},
            {"id": "w", "kind": "haar"},
        ]
    }
    legs = legs_from_model_dict(doc)
    assert legs[0].kind == "finite_comm"
    assert legs[0].elements["y"] == (Fraction(1, 2), Fraction(3))
    assert legs[1].kind == "haar"
    with pytest.raises(ValueError):
        legs_from_model_dict({"legs": [{"id": "q", "kind": "mystery"}]})


@pytest.mark.parametrize("m", [None, "2", 2.5, True, 0, -1])
def test_legs_from_model_dict_rejects_bad_m(m):
    decl = {"id": "D", "kind": "finite_comm", "elements": {}}
    if m is not None:
        decl["m"] = m
    with pytest.raises(ValueError, match="'D'"):
        legs_from_model_dict({"legs": [decl]})


def test_comm_leg_guards():
    with pytest.raises(ValueError, match=r"^need at least one atom$"):
        FiniteCommLeg("D", 0)
    with pytest.raises(ValueError, match=r"^vector must have 2 entries$"):
        FiniteCommLeg("D", 2).letter((1,))


def test_comm_leg_trace_is_uniform_average():
    fp = standard_model([FiniteCommLeg("D", 3, {"x": (3, 0, 0)})])
    nc = fp.normalize([fp.leg("D").element("x")])
    assert fp.trace(nc) == PI_ONE  # mean of (3,0,0)
    sq = fp.mul(nc, nc)
    assert fp.trace(sq) == PiValue.of(3)  # mean of (9,0,0)


@pytest.mark.parametrize("vec, same, other", [
    ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 6), Fraction(2, 6)),
     (Fraction(1, 2), Fraction(1, 4))),
    ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)),
     (Fraction(1, 3), Fraction(1, 3))),  # equal numerators, another denominator
    ((1, -2, 0), (Fraction(1), Fraction(-2), Fraction(0)), (Fraction(1, 2), -1, 0)),
])
def test_comm_letters_compare_and_hash_by_leg_and_value(vec, same, other):
    """Comm letters are equal, and hash alike, exactly when their legs and
    their vectors are equal, whatever rationals spell the entries."""
    x = CommLetter("A", vec)
    assert x == CommLetter("A", same) and hash(x) == hash(CommLetter("A", same))
    assert x != CommLetter("A", other)
    assert x != CommLetter("B", vec)
