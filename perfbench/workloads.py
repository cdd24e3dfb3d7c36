"""The four seeded workloads of the freeprod benchmark.

Each workload has a ``setup(rng, size)`` that builds every engine object and
generated input (this is what ``setup_s`` pays for), and a
``run(inputs, out)`` that drives the engines once, checks every exact
result and records in ``out``, an ``Outcome``, the operations attempted and
failed, the exact work counts, and two kinds of digest of the exact
outputs.  *Fixed* digests cover outputs that do not depend on the seed and
must equal the values recorded in ``EXPECTED``; the *seeded* digest covers
the outputs of generated inputs and must repeat on every pass of one seed.

Digests hold only representation-independent text: report JSON, PiValue
strings and normal-form text with free dimensions, never an NCPoly string.

Engine functions are always called through their module attribute
(``matmodel.MatrixModel``, ``freedim.normalize``, ...), so the spans that
``tracer`` patches in are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from freeprod import freedim, freeword, matmodel, ncpart, trigalg

# Sizes per workload.  Harness entries are (model, max_len, words_checked).
# The full sizes are below the desk-scale lengths of the test suite so that
# one pass takes a few seconds; see README.md.
SIZES = {
    "full": {
        "freeness": {"harnesses": [("UX", 4, 240), ("sum", 4, 240), ("matrix", 2, 112),
                                   ("UQ", 7, 238), ("PQ", 12, 24)]},
        "trig": {"harnesses": [("PX", 7, 238)], "rotation": (50, 100), "isometries": 12},
        "partitions": {"lemma": (9, 1430), "words": (200, 400), "max_len": 8,
                       "cumulant_n": 4},
        "rewrite": {"example61": (7, 49), "prop62": ((3, 3, 4, 4), 675), "fragments": 1000},
    },
    "smoke": {
        "freeness": {"harnesses": [("UX", 2, 24), ("sum", 2, 24), ("matrix", 1, 14),
                                   ("UQ", 3, 22), ("PQ", 4, 8)]},
        "trig": {"harnesses": [("PX", 3, 22)], "rotation": (3, 6), "isometries": 12},
        "partitions": {"lemma": (5, 14), "words": (10, 20), "max_len": 6, "cumulant_n": 3},
        "rewrite": {"example61": (2, 4), "prop62": ((1, 1, 1, 1), 12), "fragments": 50},
    },
}

# Fixed-output digests (first 16 hex digits of SHA-256) per size and
# component, recorded from the engines at the commit that added the
# benchmark.  A later change that alters any of these outputs is wrong.
EXPECTED = {
    "full": {
        "freeness": {"UX:4": "3fd6d2774f9385bb", "sum:4": "37f2d5ad417a237f",
                     "matrix:2": "38e665d9fb317926", "UQ:7": "34b7b74830769c84",
                     "PQ:12": "f8c5c8b9c8f6ca89"},
        "trig": {"PX:7": "a474530bcd0cdafe", "rotation:50": "820dfcbd633a4891",
                 "partial_isometries": "8e2b7da74fdbbe48"},
        "partitions": {"lemma:9": "d254a92d2f1e9123", "reference_words": "8a47ba81096525eb",
                       "haar_cumulants": "15714f33149ac241"},
        "rewrite": {"example61:7": "a037a36d75a8a968", "prop62:3,3,4,4": "93e5e9492d161b5d"},
    },
    "smoke": {
        "freeness": {"UX:2": "122f328dd5863911", "sum:2": "082876b6872413f9",
                     "matrix:1": "68ab24631ed94b83", "UQ:3": "f40212af09f05aa8",
                     "PQ:4": "e18163e9a0e1bd1e"},
        "trig": {"PX:3": "a21f8ff649566d81", "rotation:3": "d057d23f7bc25114",
                 "partial_isometries": "8e2b7da74fdbbe48"},
        "partitions": {"lemma:5": "fda7175c7caf9aab", "reference_words": "69850217a27646ad",
                       "haar_cumulants": "f8fe83c972c2cff7"},
        "rewrite": {"example61:2": "9704080af2cfde99", "prop62:1,1,1,1": "09a40463c9d2598b"},
    },
}


class Outcome:
    """Tally of one pass."""

    def __init__(self, size: str, workload: str):
        self.expected = EXPECTED[size][workload]
        self.attempted = 0
        self.failed = 0
        self.counts: dict = {}
        self.errors: list = []
        self.digests: dict = {}
        self._seeded = hashlib.sha256()

    def tally(self, what: str, attempted: int, failed: int) -> None:
        failed = min(failed, attempted)
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < 5:
            self.errors.append(f"{what}: {failed} of {attempted} failed")

    def fixed(self, component: str, attempted: int, failed: int, doc) -> None:
        """Tally a seed-independent component and gate it on its digest."""
        digest = _digest(doc)
        self.digests[component] = digest
        if self.expected.get(component) != digest:
            failed = attempted
        self.tally(component, attempted, failed)

    def seeded(self, text: str) -> None:
        self._seeded.update(text.encode())
        self._seeded.update(b"\n")

    def to_json(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "counts": self.counts,
            "errors": self.errors,
            "digests": self.digests,
            "seeded_digest": self._seeded.hexdigest()[:16],
        }


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# freeness and trig: the matrix-model harnesses


def _harness_inputs(rng: random.Random, model: str):
    """A fresh MatrixModel with the harness generators.  The seed shuffles
    the generators within each family and picks which family leads; the
    set of words checked, and so the work, does not change."""
    mm = matmodel.MatrixModel()
    if model == "sum":
        gen_a, gen_b, offdiag = matmodel.sum_model_generators(mm)
    elif model == "matrix":
        gen_a, gen_b, offdiag = matmodel.matrix_model_generators(mm)
    else:
        gen_a, gen_b, offdiag = mm.generators(model)
    gen_a, gen_b = list(gen_a), list(gen_b)
    rng.shuffle(gen_a)
    rng.shuffle(gen_b)
    if rng.random() < 0.5:
        gen_a, gen_b = gen_b, gen_a
    return mm, gen_a, gen_b, offdiag


def _run_harness(out: Outcome, mm, gen_a, gen_b, offdiag, model: str, max_len: int,
                 want_words: int) -> None:
    label = f"{model}:{max_len}"
    try:
        report = mm.check_freeness(gen_a, gen_b, max_len, model, offdiag)
    except Exception as exc:  # an engine error fails every word of the harness
        out.tally(f"{label} raised {exc!r}", want_words, want_words)
        return
    out.counts[f"words.{label}"] = report.words_checked
    bad_words = len({f["word"] for f in report.failures})
    failed = bad_words + abs(report.words_checked - want_words)
    doc = report.to_json()
    doc["failures"] = sorted(json.dumps(f, sort_keys=True) for f in report.failures)
    out.fixed(label, want_words, failed, doc)


def _run_identities(out: Outcome, name: str, check, want: int) -> None:
    try:
        report = check()
    except Exception as exc:
        out.tally(f"{name} raised {exc!r}", want, want)
        return
    out.counts[f"identities.{name}"] = report.words_checked
    failed = len(report.failures) + abs(report.words_checked - want)
    out.fixed(name, want, failed, report.to_json())


def setup_freeness(rng: random.Random, size: str):
    spec = SIZES[size]["freeness"]
    return [(_harness_inputs(rng, model), model, max_len, want)
            for model, max_len, want in spec["harnesses"]]


def run_freeness(inputs, out: Outcome) -> None:
    for (mm, gen_a, gen_b, offdiag), model, max_len, want in inputs:
        _run_harness(out, mm, gen_a, gen_b, offdiag, model, max_len, want)


def setup_trig(rng: random.Random, size: str):
    spec = SIZES[size]["trig"]
    harnesses = [(_harness_inputs(rng, model), model, max_len, want)
                 for model, max_len, want in spec["harnesses"]]
    return harnesses, matmodel.MatrixModel(), spec


def run_trig(inputs, out: Outcome) -> None:
    harnesses, mm, spec = inputs
    run_freeness(harnesses, out)
    r_max, want = spec["rotation"]
    _run_identities(out, f"rotation:{r_max}", lambda: mm.verify_rotation(r_max), want)
    _run_identities(out, "partial_isometries", mm.verify_partial_isometries,
                    spec["isometries"])


# ---------------------------------------------------------------------------
# partitions: Kreweras lemma, partition-formula cross-check, Haar cumulants


# cos/sin basis letters of leg f (kind, k), split by whether their trace
# vanishes.  The centering evaluator expands every subset of the letters
# with nonzero trace, so that count sets the cost of a word.
_TRACED = [("c", 1), ("c", 3), ("s", 1), ("s", 2), ("s", 3)]
_TRACE_FREE = [("c", 2), ("c", 4), ("s", 4)]


def _rand_word(fp, rng: random.Random, index: int, length: int) -> tuple:
    """Word number ``index`` of the cross-check: ``length`` alternating
    basis letters, cos/sin letters of leg f between Haar powers of u, v and
    centered atom indicators of the commutative legs A, B.

    The index fixes which leg starts and which trig letters have nonzero
    trace (two in three), so the cost of a pass hardly depends on the seed;
    the letters themselves are random."""
    f = fp.leg("f")
    others = [fp.leg(name) for name in ("u", "v", "A", "B")]
    word = []
    use_trig = index % 2 == 0
    trig_seen = 0
    for _ in range(length):
        if use_trig:
            pool = _TRACE_FREE if (index // 2 + trig_seen) % 3 == 2 else _TRACED
            trig_seen += 1
            word.append(f.letter(trigalg.TrigPoly({rng.choice(pool): 1})))
        else:
            leg = rng.choice(others)
            if leg.kind == "haar":
                word.append(leg.gen(rng.choice([-2, -1, 1, 2])))
            else:
                i = rng.randrange(1, leg.m)
                word.append(leg.letter([Fraction(int(j == i)) - Fraction(1, leg.m)
                                        for j in range(leg.m)]))
        use_trig = not use_trig
    return tuple(word)


def setup_partitions(rng: random.Random, size: str):
    spec = SIZES[size]["partitions"]
    fp = freeword.standard_model([
        freeword.FiniteCommLeg("A", 2, {"x": (1, -1), "y": (2, 1)}),
        freeword.FiniteCommLeg("B", 3, {"z": (1, 0, -1), "w": (1, 2, 0)}),
    ])
    # The reference words are the same for every seed, so their traces are
    # gated by digest; the seeded words are gated by the cross-check alone.
    reference, seeded = spec["words"]
    ref_rng = random.Random("partitions:reference")
    words = [[_rand_word(fp, r, i, 1 + i % spec["max_len"]) for i in range(count)]
             for r, count in ((ref_rng, reference), (rng, seeded))]
    return fp, words, spec


def _haar_cumulant_want(n: int):
    """k_2n(u, u*, ..., u, u*) = (-1)^(n-1) Catalan(n-1)."""
    return trigalg.PiValue.of((-1) ** (n - 1) * math.comb(2 * n - 2, n - 1) // n)


def _cross_check(fp, words) -> tuple:
    """Trace each word by the partition formula (non-trig letters on the
    cumulant side) and by centering; return the number of words where the
    two differ or raise, and the traces as text."""
    bad, values = 0, []
    for word in words:
        f1 = [i for i, letter in enumerate(word)
              if not isinstance(letter, freeword.TrigLetter)]
        try:
            by_partitions = fp.trace_bipartite(word, f1)
            by_centering = fp.trace_word(word)
        except Exception as exc:
            bad += 1
            values.append(f"raised {exc!r}")
            continue
        bad += by_partitions != by_centering
        values.append(str(by_partitions))
    return bad, values


def run_partitions(inputs, out: Outcome) -> None:
    fp, words, spec = inputs
    n, want_parts = spec["lemma"]
    label = f"lemma:{n}"
    try:
        report = ncpart.verify_kreweras_interval_lemma(n)
    except Exception as exc:
        out.tally(f"{label} raised {exc!r}", want_parts, want_parts)
    else:
        out.counts[f"partitions.{label}"] = report.partitions_checked
        failed = (0 if report.passed else 1) + abs(report.partitions_checked - want_parts)
        out.fixed(label, want_parts, failed, report.to_json())

    reference, seeded = words
    bad, values = _cross_check(fp, reference)
    out.fixed("reference_words", len(reference), bad, values)
    bad, values = _cross_check(fp, seeded)
    for value in values:
        out.seeded(value)
    out.tally("trace_bipartite == trace_word", len(seeded), bad)
    out.counts["cross_checked"] = len(reference) + len(seeded)

    u = fp.leg("u")
    values, bad = [], 0
    for k in range(1, spec["cumulant_n"] + 1):
        letters = tuple(u.gen(1 if i % 2 == 0 else -1) for i in range(2 * k))
        try:
            got = fp.leg_cumulant(letters)
        except Exception as exc:
            bad += 1
            values.append(f"raised {exc!r}")
            continue
        bad += got != _haar_cumulant_want(k)
        values.append(str(got))
    out.fixed("haar_cumulants", spec["cumulant_n"], bad, values)


# ---------------------------------------------------------------------------
# rewrite: deep balanced tables and shallow random fragments


def _rand_fragment(rng: random.Random, depth: int = 3) -> str:
    """Source text of a free product of 2..4 reducible factors (sums,
    matrices, LF/LZ/R atoms, plus unit factors), at least two of which do
    not reduce to C."""

    def factor(d: int):
        roll = rng.random()
        if d <= 0 or roll < 0.35:
            atom = rng.choice(["LZ", "R", "LF(int)", "LF(quarter)", "C"])
            if atom == "LF(int)":
                atom = f"LF({rng.randint(1, 5)})"
            elif atom == "LF(quarter)":
                atom = f"LF({rng.randint(4, 9)}/4)"
            return atom, atom == "C"
        if roll < 0.6:
            (a, _), (b, _) = factor(d - 1), factor(d - 1)
            return f"({a} (+) {b})", False
        if roll < 0.85:
            a, _ = factor(d - 1)
            return f"M2({a})", False
        (a, unit_a), (b, unit_b) = factor(d - 1), factor(d - 1)
        return f"({a} * {b})", unit_a and unit_b

    while True:
        factors = [factor(depth) for _ in range(rng.randint(2, 4))]
        if sum(not unit for _, unit in factors) >= 2:
            return " * ".join(text for text, _ in factors)


def setup_rewrite(rng: random.Random, size: str):
    spec = SIZES[size]["rewrite"]
    return [_rand_fragment(rng) for _ in range(spec["fragments"])], spec


def _run_table(out: Outcome, label: str, build, want_rows: int) -> None:
    try:
        report = build()
    except Exception as exc:
        out.tally(f"{label} raised {exc!r}", want_rows, want_rows)
        return
    out.counts[f"rows.{label}"] = len(report.rows)
    failed = len(report.failures) + abs(len(report.rows) - want_rows)
    out.fixed(label, want_rows, failed, report.to_json())


def run_rewrite(inputs, out: Outcome) -> None:
    fragments, spec = inputs
    n_max, want = spec["example61"]
    _run_table(out, f"example61:{n_max}", lambda: freedim.example_61_sequence(n_max), want)
    dims, want = spec["prop62"]
    _run_table(out, "prop62:" + ",".join(map(str, dims)),
               lambda: freedim.prop_62_table(*dims), want)

    bad = 0
    for text in fragments:
        try:
            expr = freedim.parse(text)
            nf, steps = freedim.normalize(expr)
            ok = nf.fdim() == freedim.fdim(expr) and all(
                s.fdim_before == s.fdim_after for s in steps)
        except Exception as exc:
            bad += 1
            out.seeded(f"raised {exc!r}")
            continue
        bad += not ok
        out.seeded(f"{nf.text()} {nf.fdim()}")
    out.counts["fragments"] = len(fragments)
    out.tally("fragments conserve fdim", len(fragments), bad)


WORKLOADS = {
    "freeness": (setup_freeness, run_freeness),
    "trig": (setup_trig, run_trig),
    "partitions": (setup_partitions, run_partitions),
    "rewrite": (setup_rewrite, run_rewrite),
}
