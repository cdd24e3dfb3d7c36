"""CLI behaviour: golden outputs, exit codes, byte-level determinism, and
the model-file path.  Most tests run the module in a subprocess, which also
exercises the packaging entry point; a few call ``cli.main`` in process to
time it or to patch an engine."""

import io
import json
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from freeprod import cli, freedim
from freeprod.trigalg import MAX_TRIG_DEPTH, MAX_TRIG_TERMS

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "freeprod.cli", *args],
        capture_output=True, text=True, env=_env(), timeout=timeout)


def run_cli(*args, expect=0, timeout=None):
    proc = _run(args, timeout)
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc.stdout


def run_cli_error(*args):
    """Run an invocation that must exit 2 at once with one error line and
    no traceback; return that line."""
    proc = _run(args, timeout=30)
    assert proc.returncode == 2, (proc.returncode, proc.stdout, proc.stderr)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    return lines[0]


def test_nc_enum_count():
    assert run_cli("nc-enum", "--n", "4", "--count") == "14\n"


def test_nc_enum_listing():
    out = run_cli("nc-enum", "--n", "3")
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert "1,2,3" in lines
    assert "1,3|2" in lines


def test_nc_kreweras():
    assert run_cli("nc-kreweras", "--p", "1,3|2|4") == "1,2|3,4\n"


@pytest.mark.parametrize("sep, n, out_sep", [(",", 240, "|"), ("|", 20000, ",")],
                         ids=["one_block", "singletons"])
def test_nc_kreweras_long_partition_within_budget(sep, n, out_sep):
    """K(one block) is all singletons and back.  20000 singletons (about
    108 KB, inside the 128 KiB limit on one Linux argument) need a
    validator linear in the number of blocks."""
    arg = sep.join(str(i) for i in range(1, n + 1))
    out = run_cli("nc-kreweras", "--p", arg, timeout=5)
    assert out == out_sep.join(str(i) for i in range(1, n + 1)) + "\n"


@pytest.mark.parametrize("text, element", [
    ("1,\u0662", "\u0662"), ("1,+2", "+2"), ("1_0,2", "1_0"),
    ("1,2,3,4,5,6,7,8,9,1_0", "1_0")])
def test_nc_kreweras_element_not_ascii_digits_exit_2(text, element):
    line = run_cli_error("nc-kreweras", "--p", text)
    assert repr(element) in line


def test_nc_kreweras_spaces_around_elements():
    assert run_cli("nc-kreweras", "--p", " 1 , 3 | 2 |4 ") == "1,2|3,4\n"


def test_closed_stdout_exits_quietly():
    """Output far beyond a pipe buffer into a reader that stops after 50
    bytes: no traceback, and an exit code of the CLI contract."""
    proc = subprocess.Popen([sys.executable, "-m", "freeprod.cli", "nc-enum", "--n", "10"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2)
    assert stderr == ""


def test_nc_lemma_pass():
    out = run_cli("nc-lemma", "--n", "5")
    assert out.startswith("PASS")


def test_nc_lemma_guard_exit_2():
    run_cli("nc-lemma", "--n", "50", expect=2)


def test_trace_golden():
    out = run_cli("trace", "--word", "c u c u*", "--bipartite")
    assert "exact: 4*L^2" in out
    assert "agree: yes" in out


def test_trace_json():
    out = json.loads(run_cli("trace", "--word", "c s", "--json"))
    assert out["exact"] == "L"
    assert out["coefficients"] == {"1": "1"}


def test_trace_bad_letter_exit_2():
    run_cli("trace", "--word", "qq", expect=2)


def test_trace_trig_expression_letters():
    # nested-conjugation word with polynomial trig letters; the value is
    # tr(f2)*tr(f1*f3) by the surviving-partition factorization
    out = run_cli("trace", "--word",
                  "u (c*s) v (c*s*(c*c - 1/2)*s) v* (c*c*s) u*", "--bipartite")
    assert "exact: -4/225*L^2" in out
    assert "agree: yes" in out


def test_trace_long_word_within_budget():
    # 12 pairs of c u: u^12 is unbalanced, so the trace vanishes
    start = time.perf_counter()
    out = run_cli("trace", "--word", " ".join(["c u"] * 12), timeout=60)
    assert "exact: 0\n" in out
    assert time.perf_counter() - start < 5.0


def test_trace_scalar_letter():
    out = run_cli("trace", "--word", "1/2 c u c u*")
    assert "exact: 2*L^2" in out


def test_normalize_golden():
    assert run_cli("normalize", "--expr", "R * R").splitlines()[0] == "M2(LF(5))"


def test_normalize_fragment_error_exit_2():
    run_cli("normalize", "--expr", "M3(C)", expect=2)
    run_cli("normalize", "--expr", "C^2", expect=2)


@pytest.mark.parametrize("expr", ["C^1180591620717411303424", "C^65536 * C^2"])
def test_normalize_oversized_expression_exit_2(expr):
    line = run_cli_error("normalize", "--expr", expr)
    assert "nodes" in line


@pytest.mark.parametrize("expr", [f"M{2 ** 600}(C) * R", "(" * 400 + "C" + ")" * 400],
                         ids=["M<2^600>", "400-parens"])
def test_normalize_deeply_nested_expression_exit_2(expr):
    line = run_cli_error("normalize", "--expr", expr)
    assert "nests deeper" in line


def test_normalize_json_steps():
    doc = json.loads(run_cli("normalize", "--expr", "C^2 * C^2",
                             "--steps", "--json"))
    assert doc["normal_form"] == "M2(LF(1))"
    assert doc["fdim"] == "1"
    rules = [s["rule"] for s in doc["steps"]]
    assert "R1" in rules
    for s in doc["steps"]:
        assert s["fdim_before"] == s["fdim_after"]


def test_normalize_seeded_is_confluent():
    base = run_cli("normalize", "--expr", "M4(LZ) * M4(LZ)")
    for seed in ("1", "7"):
        out = run_cli("normalize", "--expr", "M4(LZ) * M4(LZ)", "--seed", seed)
        assert out.splitlines()[0] == base.splitlines()[0]


@pytest.mark.parametrize("extra", [(), ("--steps", "--json"), ("--seed", "2", "--steps")],
                         ids=["text", "steps-json", "seeded-steps"])
def test_normalize_stats_line(extra):
    """--stats adds one line on stderr and leaves stdout as it is; without
    it stderr stays empty."""
    argv = ("normalize", "--expr", "C^64 * C^64", *extra)
    plain, stats = _run(argv), _run((*argv, "--stats"))
    assert plain.returncode == stats.returncode == 0
    assert plain.stderr == ""
    assert stats.stdout == plain.stdout
    (line,) = stats.stderr.splitlines()
    if "--seed" not in extra:
        assert line == ("stats: steps=377 memo_hits=5 memo_misses=17 "
                        "rule_counts=R1:63,R13:128,R3:31,R7:93,R5:31,R6inv:31")
    else:
        assert line.startswith("stats: steps=") and "memo_hits=0 memo_misses=0" in line


# Any text; strings of grammar pieces, mostly malformed or unsupported; and
# well-formed expressions, which reduce or are not reducible.
_EXPR_PIECES = ["C", "R", "LZ", "LF(", "LF(3/2)", "LF(1/2)", "M2(", "M4(", "M3(", "(", ")",
                " * ", " (+) ", "^2", "^4", "^16", "^3", "/", "0", "7", " ", "@", "²", "-"]
_WELL_FORMED = st.recursive(
    st.sampled_from(["C", "R", "LZ", "LF(0)", "LF(1)", "LF(3/2)", "LF(9/4)"]),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map("({0[0]} (+) {0[1]})".format),
        sub.map("M2({})".format),
        st.tuples(sub, sub).map("{0[0]} * {0[1]}".format),
        st.tuples(sub, st.sampled_from([2, 4])).map("({0[0]})^{0[1]}".format)),
    max_leaves=8)
_EXPR_TEXT = st.one_of(st.text(max_size=30),
                       st.lists(st.sampled_from(_EXPR_PIECES), max_size=14).map("".join),
                       _WELL_FORMED)


@settings(deadline=None, database=None, max_examples=300)
@given(_EXPR_TEXT)
def test_normalize_any_text_exits_cleanly(text):
    """Every expression text ends in exit 0, 1 or 2 with no traceback, and
    an exit 2 prints exactly one error line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(["normalize", "--expr", text])
        except SystemExit as exc:  # argparse, when the text reads as an option
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    error_lines = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(error_lines) == (code != 0), err.getvalue()


def _main_exits_cleanly(argv):
    """Run ``cli.main`` in process: exit 0, 1 or 2, no traceback, and
    exactly one error line when the exit is nonzero."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse, when the text reads as an option
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    error_lines = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(error_lines) == (code != 0), err.getvalue()


# Letters of the standard model, trig expressions, junk, signs, and digits
# that are not ASCII.
_WORD_PIECES = ["c", "s", "c[2]", "s[3]", "u", "u*", "v", "v*", "u^2", "v^-1", "u^0",
                "1/2", "3", "(c*s)", "(c - 1/2)", "(", ")", "d{g}", "w", " ", " ", "*",
                "^", "-", "[", "]", "/", "0", "\u0663", "\u00b2", "_"]
_WORD_TEXT = st.one_of(st.text(max_size=20),
                       st.lists(st.sampled_from(_WORD_PIECES), max_size=10).map("".join),
                       st.lists(st.sampled_from(_WORD_PIECES[:14]), min_size=1,
                                max_size=6).map(" ".join))


@settings(deadline=None, database=None, max_examples=300)
@given(_WORD_TEXT)
def test_trace_any_word_exits_cleanly(text):
    _main_exits_cleanly(["trace", "--word", text])


_PARTITION_PIECES = ["1", "2", "3", "4", "5", "12", "0", ",", ",", "|", "|", " ", "-1", "+2",
                     "\u0662", "_", "x", "99999999999999999999"]
_PARTITION_TEXT = st.one_of(
    st.text(max_size=20),
    st.lists(st.sampled_from(_PARTITION_PIECES), max_size=14).map("".join),
    st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1))).flatmap(
        lambda xs: st.lists(st.sampled_from(",|"), min_size=len(xs) - 1,
                            max_size=len(xs) - 1).map(
            lambda seps: "".join(f"{x}{sep}" for x, sep in zip(xs, seps)) + str(xs[-1]))))


@settings(deadline=None, database=None, max_examples=300)
@given(_PARTITION_TEXT)
def test_nc_kreweras_any_text_exits_cleanly(text):
    _main_exits_cleanly(["nc-kreweras", "--p", text])


def test_free_check_pq():
    out = json.loads(run_cli("free-check", "--model", "PQ", "--max-len", "8"))
    assert out["failures"] == []
    assert out["words_checked"] == 16


def test_free_check_ux_short():
    out = json.loads(run_cli("free-check", "--model", "UX", "--max-len", "3"))
    assert out["failures"] == []


def test_free_check_sum_short():
    out = json.loads(run_cli("free-check", "--model", "sum", "--max-len", "2"))
    assert out["failures"] == []


def test_free_check_unknown_model_exit_2():
    run_cli("free-check", "--model", "ZZ", expect=2)


@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_free_check_bad_max_len_exit_2(max_len):
    line = run_cli_error("free-check", "--model", "PQ", "--max-len", max_len)
    assert "max_len" in line


def test_free_check_word_budget_exit_2():
    start = time.perf_counter()
    assert cli.main(["free-check", "--model", "UX", "--max-len", "99"]) == 2
    assert time.perf_counter() - start < 1.0
    line = run_cli_error("free-check", "--model", "UX", "--max-len", "99")
    assert "more than" in line and "words" in line


def test_divergence_exits_2(monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise freedim.DivergenceError("rewrite step limit exceeded")

    monkeypatch.setattr(freedim, "normalize", diverge)
    assert cli.main(["normalize", "--expr", "R * R"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: rewrite step limit exceeded"]


def test_conservation_failure_exits_1(monkeypatch, capsys):
    share = freedim._m2_share

    def wrong_weight(f):
        parts, weight = share(f)
        return parts, weight + 1

    monkeypatch.setattr(freedim, "_m2_share", wrong_weight)
    assert cli.main(["normalize", "--expr", "R * R"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: rule R11 broke fdim conservation: 2 != 5/2"]


@pytest.mark.parametrize("word,needle", [
    ("1/0", "zero denominator"),
    ("(1/0)", "zero denominator"),
    ("(c*1/0)", "zero denominator"),
    ("(c[)", "missing ']'"),
])
def test_trace_bad_trig_token_exit_2(word, needle):
    line = run_cli_error("trace", "--word", word)
    assert needle in line and "Traceback" not in line


@pytest.mark.parametrize("word", ["c[\u0663]", "(c[1_0])", "(c[+3])", "(c[-3])",
                                  "(1/\u0662)", "u^\u0663 u"])
def test_trace_digits_not_ascii_exit_2(word):
    """Digits in c[k], s[k], u^k and rationals are ASCII digits; ``int``
    alone also read these as other letters."""
    run_cli_error("trace", "--word", word)


def _cosine_sum(n):
    return "(" + " + ".join(f"c[{k}]" for k in range(1, n + 1)) + ")"


def _cosine_chain(n):
    return "(" + "*".join(f"c[{2 ** k}]" for k in range(n)) + ")"


# Trig letters at and one past the nesting bound and the bound on the pairs
# of terms one product multiplies.  A chain c[1]*c[2]*c[4]*... doubles its
# terms with every factor: its 15th factor would multiply 8192 pairs.
assert 16 * 256 == MAX_TRIG_TERMS < 17 * 241 == MAX_TRIG_TERMS + 1
TRIG_BOUNDS = {
    "depth": ("(" * MAX_TRIG_DEPTH + "c" + ")" * MAX_TRIG_DEPTH, None),
    "depth+1": ("(" * (MAX_TRIG_DEPTH + 1) + "c" + ")" * (MAX_TRIG_DEPTH + 1),
                "nests deeper"),
    "400-parens": ("(" * 400 + "c" + ")" * 400, "nests deeper"),
    "pairs": (f"({_cosine_sum(16)}*{_cosine_sum(256)})", None),
    "pairs+1": (f"({_cosine_sum(17)}*{_cosine_sum(241)})", "4097 pairs"),
    "chain-14": (_cosine_chain(14), None),
    "chain-15": (_cosine_chain(15), "8192 pairs"),
}


@pytest.mark.parametrize("letter,needle", TRIG_BOUNDS.values(), ids=TRIG_BOUNDS)
def test_trace_trig_letter_bounds(letter, needle):
    if needle is None:
        assert "exact: " in run_cli("trace", "--word", f"{letter} u", timeout=30)
    else:
        line = run_cli_error("trace", "--word", f"{letter} u")
        assert needle in line


def test_tables_example61():
    out = run_cli("tables", "--table", "example61", "--n-max", "3")
    assert out.strip().endswith("0 failures")


@pytest.mark.parametrize("n_max", ["12", "16", "1000000000"])
def test_tables_example61_past_node_bound_exit_2(n_max, capsys):
    """n-max 12 would build rows of 16383 nodes, past MAX_EXPR_SIZE; it is
    refused at once with one error line."""
    start = time.perf_counter()
    assert cli.main(["tables", "--table", "example61", "--n-max", n_max]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: n_max must be in 1..11: the row n = m = n_max has 2^(n_max + 2) - 1 "
        "nodes, at most 8192"]


def test_model_file_trace(tmp_path):
    model = {
        "legs": [
            {"id": "D", "kind": "finite_comm", "m": 2,
             "elements": {"g": ["1", "-1"]}},
        ]
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    out = json.loads(run_cli("trace", "--word", "d{g} u d{g} u*",
                             "--model-file", str(path), "--json"))
    # tr(g u g u*) = tr(g)^2 = 0
    assert out["exact"] == "0"
    out2 = run_cli("trace", "--word", "d{g} d{g}", "--model-file", str(path))
    assert "exact: 1" in out2


def test_missing_model_file_exit_2(tmp_path):
    missing = str(tmp_path / "missing.json")
    line = run_cli_error("trace", "--word", "c u", "--model-file", missing)
    assert "missing.json" in line


@pytest.mark.parametrize("m", [None, "two", 0])
def test_model_file_bad_m_exit_2(tmp_path, m):
    leg = {"id": "D", "kind": "finite_comm", "elements": {}}
    if m is not None:
        leg["m"] = m
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"legs": [leg]}), encoding="utf-8")
    line = run_cli_error("trace", "--word", "c u", "--model-file", str(path))
    assert "'D'" in line


BAD_SHAPE_MODELS = {
    "document-not-object": ([], "JSON object"),
    "legs-not-array": ({"legs": 3}, "JSON array"),
    "leg-not-object": ({"legs": [5]}, "leg #0"),
    "elements-not-object": (
        {"legs": [{"id": "D", "kind": "finite_comm", "m": 2, "elements": 5}]}, "'D'"),
    "element-not-array": (
        {"legs": [{"id": "D", "kind": "finite_comm", "m": 2, "elements": {"g": 5}}]},
        "'D'"),
    "element-bad-entry": (
        {"legs": [{"id": "D", "kind": "finite_comm", "m": 2,
                   "elements": {"g": ["1/0", "1"]}}]}, "'D'"),
}


@pytest.mark.parametrize("case", BAD_SHAPE_MODELS)
def test_model_file_bad_shape_exit_2(tmp_path, case):
    doc, needle = BAD_SHAPE_MODELS[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    line = run_cli_error("trace", "--word", "c u", "--model-file", str(path))
    assert needle in line


GOLDEN_INVOCATIONS = [
    ("nc-enum", "--n", "5", "--count"),
    ("nc-enum", "--n", "4", "--json"),
    ("nc-kreweras", "--p", "1,4|2,3"),
    ("nc-lemma", "--n", "4", "--json"),
    ("trace", "--word", "c u c u*", "--bipartite", "--json"),
    ("normalize", "--expr", "R * R", "--steps", "--json"),
    ("normalize", "--expr", "C^4 * C^4", "--steps"),
    ("free-check", "--model", "PQ", "--max-len", "6"),
    ("tables", "--table", "example61", "--n-max", "2", "--json"),
]


@pytest.mark.parametrize("argv", GOLDEN_INVOCATIONS,
                         ids=[" ".join(a) for a in GOLDEN_INVOCATIONS])
def test_byte_identical_across_runs(argv):
    assert run_cli(*argv) == run_cli(*argv)
