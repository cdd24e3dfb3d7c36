"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with ``pytest -s`` or in captured output).  The identities
are exact, so every comparison is exact equality in Q or Q[1/pi]; the only
tolerances are the stated runtime budgets.

A lone centered generator in the freeness harnesses carries the
matrix-trace identity Tr = 0; the per-entry vanishing claims start at
length two, where alternating products of both generator families exist
(diag(1, -1) alone has diagonal entries of scalar trace +-1).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from freeprod.freedim import normalize
from freeprod.freeword import (
    TrigLetter,
    cumulants_to_moments,
    moments_to_cumulants,
)
from freeprod.matmodel import MatrixModel
from freeprod.ncpart import enumerate_nc, kreweras, verify_kreweras_interval_lemma
from freeprod.trigalg import PiValue

from test_cli import GOLDEN_INVOCATIONS, run_process
from test_freedim import CONFLUENCE_CORPUS, rand_fragment
from test_ncpart import brute_force_nc, catalan, union_noncrossing_raw
from wordgen import model_with_comm, rand_word


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.1f}s"
        return False


@pytest.fixture(scope="module")
def mm():
    return MatrixModel()


def test_criterion_1_nc_counts():
    """|NC(n)| = Catalan(n) for n = 1..9, brute-force checked for n <= 7."""
    with Budget("criterion 1 (NC counts)", 30):
        want = [1, 2, 5, 14, 42, 132, 429, 1430, 4862]
        for n in range(1, 10):
            assert len(enumerate_nc(n)) == want[n - 1] == catalan(n)
        for n in range(1, 8):
            assert {p.blocks for p in enumerate_nc(n)} == brute_force_nc(n)


def test_criterion_2_kreweras_suite():
    """Rank identity, bijectivity, interleaved non-crossing union for
    n <= 8; interval lemma exhaustive for n <= 8."""
    with Budget("criterion 2 (Kreweras suite)", 120):
        for n in range(1, 9):
            parts = enumerate_nc(n)
            images = set()
            for p in parts:
                comp = kreweras(p)
                assert len(p.blocks) + len(comp.blocks) == n + 1
                assert union_noncrossing_raw(p, comp)
                images.add(comp.blocks)
            assert len(images) == len(parts)
        for n in range(2, 9):
            report = verify_kreweras_interval_lemma(n)
            assert report.passed, report.counterexample


def test_criterion_3_rotation_identity(mm):
    """(2P0 2Q0)^r and (2Q0 2P0)^r 2Q0 match their closed forms, r <= 20."""
    with Budget("criterion 3 (rotation identity)", 5):
        report = mm.verify_rotation(20)
        assert report.passed, report.failures[:3]


def test_criterion_4_pq_freeness(mm):
    """Alternating words in {2P0}, {2Q0} up to length 12: exact vanishing
    of both diagonal entries on genuine products."""
    with Budget("criterion 4 (P,Q freeness)", 10):
        gen_a, gen_b, offdiag = mm.generators("PQ")
        report = mm.check_freeness(gen_a, gen_b, 12, "PQ", offdiag)
        assert report.passed, report.failures[:3]
        assert report.words_checked == 24


def test_criterion_5_ux_px_uq_freeness(mm):
    """{U, U*, 2P0} vs {X, X*, 2Q0} to length 5; {2P0} vs {X, X*, 2Q0} and
    {U, U*, 2P0} vs {2Q0} to length 6; exact Tr and entrywise vanishing."""
    with Budget("criterion 5 (U,X / P,X / U,Q freeness)", 600):
        for name, max_len, expected_words in (("UX", 5, 726),
                                              ("PX", 6, 130),
                                              ("UQ", 6, 130)):
            gen_a, gen_b, offdiag = mm.generators(name)
            report = mm.check_freeness(gen_a, gen_b, max_len, name, offdiag)
            assert report.passed, (name, report.failures[:3])
            assert report.words_checked == expected_words


def test_criterion_6_evaluator_cross_agreement():
    """trace_word = trace_bipartite on 200 seeded random admissible words
    of length <= 8, exactly; moment/cumulant round trip on seeded random
    data up to n = 6."""
    with Budget("criterion 6 (evaluator agreement)", 120):
        fp = model_with_comm()
        rng = random.Random(20260811)
        for _ in range(200):
            w = rand_word(fp, rng, 8)
            f1 = [i for i, l in enumerate(w) if not isinstance(l, TrigLetter)]
            assert fp.trace_bipartite(w, f1) == fp.trace_word(w)

        values = {}

        def moment(xs):
            if xs not in values:
                values[xs] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            return values[xs]

        back = cumulants_to_moments(moments_to_cumulants(moment))
        for n in range(1, 7):
            xs = tuple(range(n))
            assert back(xs) == moment(xs)


def test_criterion_7_haar_cumulants():
    """Moebius inversion of Haar moments: k_2n(u, u*, ...) equals
    (-1)^(n-1) Catalan(n-1) for n <= 5."""
    with Budget("criterion 7 (Haar cumulants)", 5):
        fp = model_with_comm()
        u = fp.leg("u")
        for n in range(1, 6):
            letters = tuple(u.gen(1 if i % 2 == 0 else -1) for i in range(2 * n))
            want = PiValue.of(Fraction((-1) ** (n - 1)
                                       * (math.comb(2 * (n - 1), n - 1) // n)))
            assert fp.leg_cumulant(letters) == want


def test_criterion_8_rewrite_golden_corpus():
    """The full normalization corpus, exactly."""
    with Budget("criterion 8 (rewrite golden corpus)", 60):
        # scalar and matrix base cases
        assert normalize("C^2 * C^2")[0].text() == "M2(LF(1))"
        assert normalize("M2(C) * C^2")[0].text() == "M2(LF(2))"
        assert normalize("M2(C) * M2(C)")[0].text() == "M2(LF(3))"

        # two-summand sums and single amplifications, parameters <= 5
        for k1 in range(0, 6):
            for k2 in range(0, 6):
                for l1 in range(0, 6):
                    for l2 in range(0, 6):
                        nf, _ = normalize(
                            f"(LF({k1}) (+) LF({k2})) * (LF({l1}) (+) LF({l2}))")
                        assert nf.text() == f"M2(LF({k1 + k2 + l1 + l2 + 1}))"
        for k1 in range(0, 6):
            for k2 in range(0, 6):
                nf, _ = normalize(f"(LF({k1}) (+) LF({k2})) * LZ")
                assert nf.text() == f"M2(LF({k1 + k2 + 3}))"
                for l in range(0, 6):
                    nf, _ = normalize(f"(LF({k1}) (+) LF({k2})) * M2(LF({l}))")
                    assert nf.text() == f"M2(LF({k1 + k2 + l + 2}))"
        for k in range(0, 6):
            for l in range(0, 6):
                nf, _ = normalize(f"M2(LF({k})) * M2(LF({l}))")
                assert nf.text() == f"M2(LF({k + l + 3}))"
        for l in range(0, 6):
            nf, _ = normalize(f"LZ * M2(LF({l}))")
            assert nf.text() == f"M2(LF({l + 4}))"

        # balanced scalar sums: closed form and decompressed alias
        for n in range(1, 6):
            nf, _ = normalize(f"C^{2 ** n} * C^{2 ** n}")
            a_n = 5 - Fraction(4, 2 ** (n - 1))
            assert nf.text() == f"M2(LF({a_n}))"
            if n >= 2:
                assert nf.alias() == 2 - Fraction(1, 2 ** (n - 1))
            else:
                assert nf.alias() is None
        for n in range(1, 6):
            for m in range(1, 6):
                nf, _ = normalize(f"C^{2 ** n} * C^{2 ** m}")
                want = 5 - 2 * (Fraction(1, 2 ** (n - 1)) + Fraction(1, 2 ** (m - 1)))
                assert nf.param == want and nf.depth == 1

        # dyadic powers of interpolated factors, all three families
        def sum_term(k, n):
            return 2 * Fraction(k - 1, 2 ** (n - 1))

        def mat_term(k, n):
            return Fraction(k - 1, 4 ** (n - 1))

        def side(k, n, shape):
            body = "C" if k == 0 else f"LF({k})"
            return f"{body}^{2 ** n}" if shape == "sum" else f"M{2 ** n}({body})"

        for n in range(1, 4):
            for m in range(1, 4):
                for k in range(0, 5):
                    for l in range(0, 5):
                        nf, _ = normalize(
                            f"{side(k, n, 'sum')} * {side(l, m, 'sum')}")
                        assert nf.param == 5 + sum_term(k, n) + sum_term(l, m)
                        nf, _ = normalize(
                            f"{side(k, n, 'mat')} * {side(l, m, 'sum')}")
                        assert nf.param == 5 + mat_term(k, n) + sum_term(l, m)
                        nf, _ = normalize(
                            f"{side(k, n, 'mat')} * {side(l, m, 'mat')}")
                        assert nf.param == 5 + mat_term(k, n) + mat_term(l, m)
                # the three M2(LF(5)) specializations at k = l = 1
                for shapes in (("sum", "sum"), ("mat", "sum"), ("mat", "mat")):
                    nf, _ = normalize(
                        f"{side(1, n, shapes[0])} * {side(1, m, shapes[1])}")
                    assert nf.text() == "M2(LF(5))"

        # the hyperfinite factor against sums, matrices, and itself
        for k in range(0, 5):
            for l in range(0, 5):
                nf, _ = normalize(f"R * (LF({k}) (+) LF({l}))")
                assert nf.text() == f"M2(LF({k + l + 3}))"
            nf, _ = normalize(f"R * M2(LF({k}))")
            assert nf.text() == f"M2(LF({k + 4}))"
        nf, _ = normalize("R * R")
        assert nf.text() == "M2(LF(5))"
        assert nf.alias() == 2


def test_criterion_9_fdim_conservation():
    """Every rewrite step across the corpus plus 1000 seeded random
    fragment expressions conserves fdim exactly; the divergence guard
    never fires."""
    with Budget("criterion 9 (fdim conservation)", 60):
        from freeprod.freedim import fdim

        for text in CONFLUENCE_CORPUS:
            nf, steps = normalize(text)
            for s in steps:
                assert s.fdim_before == s.fdim_after
        rng = random.Random(99)
        for _ in range(1000):
            e = rand_fragment(rng)
            nf, steps = normalize(e)  # DivergenceError would fail the test
            for s in steps:
                assert s.fdim_before == s.fdim_after
            assert nf.fdim() == fdim(e)


def test_criterion_10_cli_determinism():
    """Every golden CLI invocation is byte-identical across two fresh
    processes with different hash seeds."""
    with Budget("criterion 10 (CLI determinism)", 120):
        for argv in GOLDEN_INVOCATIONS:
            assert run_process(*argv, hash_seed=1) == run_process(*argv, hash_seed=2)
