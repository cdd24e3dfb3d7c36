"""CLI behaviour: golden outputs, exit codes, byte-level determinism, and
the model-file path.  The tests call ``cli.main`` in process through
``run_main``; only the checks of the process itself (what a cold import
loads, a stdout closed early, byte-identical output under two hash seeds)
start a fresh interpreter."""

import io
import json
import os
import pathlib
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from freeprod import cli, freedim, freeword, ncpart
from freeprod.freeword import MAX_COMM_ATOMS, MAX_FOLD_WORDS
from freeprod.matmodel import HARNESSES
from freeprod.trigalg import MAX_TRIG_DEPTH, MAX_TRIG_TERMS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_process(*args, hash_seed):
    """Run ``python -m freeprod.cli`` in a fresh interpreter with the given
    ``PYTHONHASHSEED``; it must exit 0.  Return its stdout."""
    env = _env()
    env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run([sys.executable, "-m", "freeprod.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, (proc.returncode, proc.stdout, proc.stderr)
    return proc.stdout


def run_main(*args, timeout=None):
    """Run ``cli.main`` in process and return (exit code, stdout, stderr).
    argparse's ``SystemExit`` is an exit code.  A ``timeout`` in seconds
    fails the test by ``SIGALRM`` once it runs out, so a broken guard fails
    at its bound instead of hanging the suite."""
    def expire(signum, frame):
        pytest.fail(f"freeprod {' '.join(args)} ran past its {timeout} s timeout")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout or 0)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def run_cli(*args, expect=0, timeout=None):
    code, out, err = run_main(*args, timeout=timeout)
    assert code == expect, (code, out, err)
    return out


def run_cli_error(*args):
    """Run an invocation that must exit 2 at once with one error line and
    no traceback; return that line."""
    code, out, err = run_main(*args, timeout=30)
    assert code == 2, (code, out, err)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def test_run_main_reads_exit_codes_and_enforces_its_timeout(monkeypatch):
    """argparse's usage error is exit 2, and an engine that runs past the
    timeout fails the test at that bound and leaves no alarm set."""
    code, out, err = run_main("nc-enum")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("freeprod nc-enum: error: the following arguments "
                                    "are required: --n")
    monkeypatch.setattr(ncpart, "enumerate_nc", lambda n: time.sleep(30))
    start = time.perf_counter()
    with pytest.raises(pytest.fail.Exception, match="ran past its 0.2 s timeout"):
        run_main("nc-enum", "--n", "3", timeout=0.2)
    assert time.perf_counter() - start < 5.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_import_leaves_out_dataclasses_and_inspect():
    """The package's records are plain classes (``freeprod.record``), so a
    cold start does not import ``dataclasses`` and, with it, ``inspect``."""
    code = ("import sys; before = set(sys.modules); import freeprod, freeprod.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_nc_enum_count():
    assert run_cli("nc-enum", "--n", "4", "--count") == "14\n"


def test_nc_enum_json():
    """The JSON document lists the partitions in ``enumerate_nc`` order."""
    doc = json.loads(run_cli("nc-enum", "--n", "4", "--json"))
    assert doc == {"n": 4, "count": 14,
                   "partitions": [p.encode() for p in ncpart.enumerate_nc(4)]}
    assert list(doc) == ["n", "count", "partitions"]


def test_nc_enum_json_count():
    assert json.loads(run_cli("nc-enum", "--n", "4", "--json", "--count")) == {
        "n": 4, "count": 14}


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


@pytest.mark.parametrize("pair, count", [("c u", 32), ("(c+s) u", 14)])
def test_trace_word_work_bound(pair, count):
    """c u repeated 32 times (64 letters) would fold for minutes, and (c+s) u
    repeated 14 times normalizes to 2^14 terms that would too: each is
    refused with one error line once its folds pass MAX_FOLD_WORDS."""
    start = time.perf_counter()
    line = run_cli_error("trace", "--word", " ".join([pair] * count))
    assert time.perf_counter() - start < 5.0
    assert line == f"error: evaluation would make more than {MAX_FOLD_WORDS} words"


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


def test_normalize_overlong_integer_is_a_parse_error():
    """An integer longer than ``int`` reads is refused at its token, not
    with the interpreter's conversion message."""
    if not 0 < sys.get_int_max_str_digits() < 5000:
        pytest.skip("this interpreter's int reads 5000 digits")
    code, out, err = run_main("normalize", "--expr", "LF(" + "9" * 5000 + ")")
    assert (code, out) == (2, "")
    assert err == ("error: integer of 5000 digits is longer than the limit of "
                   f"{sys.get_int_max_str_digits()} (at position 3)\n")


@pytest.mark.parametrize("expr, line", [
    ("C^" + "1" * 4300, "error: expression expands to <4300-digit integer> nodes, more than 8192"),
    ("LF(1/" + "3" * 4300 + ")",
     "error: LF parameter must be 0 or >= 1, got 1/<4300-digit integer>"),
    ("LF(" + "1" * 4000 + "/" + "3" * 4001 + ")",
     "error: LF parameter must be 0 or >= 1, got "
     "<4000-digit integer>/<4001-digit integer>")],
    ids=["pow", "lf-den", "lf-both"])
def test_normalize_fragment_error_with_long_integers_is_one_short_line(expr, line):
    """A fragment error names an over-long integer by its digit count, so
    ``normalize --expr`` exits 2 with one short line, not thousands of
    digits."""
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4300:
        pytest.skip("this interpreter's int reads fewer than 4300 digits")
    assert run_main("normalize", "--expr", expr) == (2, "", line + "\n")


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
    plain_code, plain_out, plain_err = run_main(*argv)
    code, out, err = run_main(*argv, "--stats")
    assert plain_code == code == 0
    assert plain_err == ""
    assert out == plain_out
    (line,) = err.splitlines()
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
    _main_exits_cleanly(["normalize", "--expr", text])


def _main_exits_cleanly(argv):
    """Exit 0, 1 or 2 (argparse's, when the text reads as an option,
    included), no traceback, and exactly one error line when the exit is
    nonzero."""
    code, out, err = run_main(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == (code != 0), err
    return code


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


# Harness names and junk, at lengths around 1 and far past the word bound.
_HARNESS_TEXT = st.one_of(st.sampled_from(list(HARNESSES)), st.text(max_size=8))
_HARNESS_LEN = st.one_of(st.integers(-2, 2), st.integers(10**6, 10**30))


@settings(deadline=None, database=None, max_examples=120)
@given(_HARNESS_TEXT, _HARNESS_LEN)
def test_free_check_any_model_exits_cleanly(model, max_len):
    _main_exits_cleanly(["free-check", "--model", model, "--max-len", str(max_len)])


# Table names and junk, with bounds that are small or far out of range.
_TABLE_TEXT = st.one_of(st.sampled_from(["example61", "prop62"]), st.text(max_size=8))
_TABLE_BOUND = st.one_of(st.integers(-1, 2), st.integers(10**6, 10**30),
                         st.integers(-10**30, -10**6))


@settings(deadline=None, database=None, max_examples=120)
@given(_TABLE_TEXT, st.lists(_TABLE_BOUND, min_size=4, max_size=4), st.booleans())
def test_tables_any_bounds_exit_cleanly(table, bounds, as_json):
    argv = ["tables", "--table", table]
    for flag, bound in zip(("--n-max", "--m-max", "--k-max", "--l-max"), bounds):
        argv += [flag, str(bound)]
    _main_exits_cleanly(argv + ["--json"] * as_json)


# Model documents: mostly leg declarations built from well-formed and
# malformed pieces, with entries that are rationals, other numbers and junk;
# also any JSON, as the document or as its legs.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda sub: st.lists(sub, max_size=4) | st.dictionaries(st.text(max_size=5), sub,
                                                              max_size=4),
    max_leaves=10)
_ENTRY = st.integers() | st.sampled_from(
    ["1", "-1", "1/2", "-3/4", "1/0", "0", 3, True, False, 1.5, None, "", "x",
     "1e30000000", "\u0663", "1_0", "1.5", " 3 ", "+1", "1/-2"])
_LEG = st.fixed_dictionaries(
    {"id": st.sampled_from(["D", "E", "w", "u", ""]),
     "kind": st.sampled_from(["finite_comm", "finite_comm", "haar", "x"]),
     "m": st.sampled_from([2, 2, 3, 1, 0, "2", True, None]),
     "elements": st.dictionaries(st.sampled_from(["g", "h", ""]),
                                 st.lists(_ENTRY, min_size=1, max_size=3) | _JSON,
                                 max_size=2)})
_LEGS_DOC = st.fixed_dictionaries({"legs": st.lists(_LEG, max_size=3)})
_MODEL_DOC = st.one_of(_LEGS_DOC, _LEGS_DOC, _LEGS_DOC, _JSON,
                       st.fixed_dictionaries({"legs": _JSON}))
_MODEL_WORD = st.one_of(
    st.sampled_from(["d{g}", "d{g} u d{g} u*", "d{h} w d{g} w*", "w w*", "d{zz}", "c u"]),
    _WORD_TEXT)


@settings(deadline=None, database=None, max_examples=100)
@given(_MODEL_DOC, _MODEL_WORD)
def test_trace_any_model_file_exits_cleanly(doc, word):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _main_exits_cleanly(["trace", "--word", word, "--model-file", path])


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


def test_free_check_stats_line():
    """--stats adds one line on stderr and leaves stdout as it is; without
    it stderr stays empty.  UX:3 checks 296 entries in 78 words.  U and U*
    carry u-charge +1 and -1, X and X* v-charge +1 and -1, and 2P0 and 2Q0
    none, so only 8 words have degree 0: 2P0 2Q0 and its adjoint 2Q0 2P0
    (2 entries each, one traced and one derived), and the 6 self-adjoint
    words of length 3 (U 2Q0 U*, U* 2Q0 U, 2P0 2Q0 2P0 and the b-side
    three: 20 entries, all traced).  The other 272 entries are skipped."""
    argv = ["free-check", "--model", "UX", "--max-len", "3"]
    code, plain_out, plain_err = run_main(*argv)
    assert code == 0
    code, stats_out, stats_err = run_main(*argv, "--stats")
    assert code == 0
    assert plain_err == ""
    assert stats_out == plain_out
    assert stats_err == ("stats: words_checked=78 entries_traced=22 entries_derived=2 "
                         "entries_skipped=272\n")


# The README's commands whose output it states: the command as the README
# writes it after ``freeprod``, the stream, and the lines it must hold, in
# order.
_README_OUTPUTS = [
    pytest.param("nc-enum --n 4 --count", "stdout", ["14"], id="nc-enum"),
    pytest.param('nc-kreweras --p "1,3|2|4"', "stdout", ["1,2|3,4"], id="nc-kreweras"),
    pytest.param('trace --word "c u c u*" --bipartite', "stdout", ["exact: 4*L^2"],
                 id="trace"),
    pytest.param("free-check --model UX --max-len 3 --stats", "stderr",
                 ["stats: words_checked=78 entries_traced=22 entries_derived=2 "
                  "entries_skipped=272"], id="free-check-stats"),
    pytest.param('normalize --expr "C^64 * C^64" --stats', "stderr",
                 ["stats: steps=377 memo_hits=5 memo_misses=17 "
                  "rule_counts=R1:63,R13:128,R3:31,R7:93,R5:31,R6inv:31"],
                 id="normalize-stats"),
    pytest.param('normalize --expr "R * R" --steps', "stdout",
                 ["M2(LF(5))", "alias: LF(2)", "  1. [R9] R  ->  M2(R)   (fdim 1)"],
                 id="normalize-steps"),
]


@pytest.mark.parametrize("command,stream,lines", _README_OUTPUTS)
def test_readme_commands_print_what_the_readme_states(command, stream, lines):
    """Each command whose output README.md states prints it, and README.md
    still holds the command, so neither can change without the other."""
    assert f"freeprod {command}" in (ROOT / "README.md").read_text(encoding="utf-8")
    code, out, err = run_main(*shlex.split(command))
    assert code == 0, (code, out, err)
    got = (out if stream == "stdout" else err).splitlines()
    assert [line for line in got if line in lines] == lines


def test_free_check_unknown_model_exit_2():
    run_cli("free-check", "--model", "ZZ", expect=2)
    assert run_cli_error("free-check", "--model", "ZZ") == (
        "error: unknown harness 'ZZ'; expected one of "
        "['PQ', 'PX', 'UQ', 'UX', 'matrix', 'sum']")


@pytest.mark.parametrize("model", HARNESSES)
def test_free_check_default_length(model):
    assert json.loads(run_cli("free-check", "--model", model))["max_len"] == HARNESSES[model][0]


def test_free_check_takes_no_model_file(tmp_path):
    """No harness reads model-file legs, so free-check has no --model-file;
    a model file once ended the matrix harness in a traceback."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"legs": [{"id": "A", "kind": "haar"}]}), encoding="utf-8")
    argv = ["free-check", "--model", "matrix", "--max-len", "1", "--model-file", str(path)]
    assert _main_exits_cleanly(argv) == 2


@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_free_check_bad_max_len_exit_2(max_len):
    line = run_cli_error("free-check", "--model", "PQ", "--max-len", max_len)
    assert "max_len" in line


def test_free_check_word_budget_exit_2():
    start = time.perf_counter()
    line = run_cli_error("free-check", "--model", "UX", "--max-len", "99")
    assert time.perf_counter() - start < 1.0
    assert "more than" in line and "words" in line


def test_divergence_exits_2(monkeypatch):
    def diverge(*args, **kwargs):
        raise freedim.DivergenceError("rewrite step limit exceeded")

    monkeypatch.setattr(freedim.Normalizer, "normalize", diverge)
    assert run_main("normalize", "--expr", "R * R") == (
        2, "", "error: rewrite step limit exceeded\n")


def test_conservation_failure_exits_1(monkeypatch):
    share = freedim._m2_share

    def wrong_weight(f):
        parts, weight = share(f)
        return parts, weight + 1

    monkeypatch.setattr(freedim, "_m2_share", wrong_weight)
    assert run_main("normalize", "--expr", "R * R") == (
        1, "", "error: rule R11 broke fdim conservation: 2 != 5/2\n")


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
def test_tables_example61_past_node_bound_exit_2(n_max):
    """n-max 12 would build rows of 16383 nodes, past MAX_EXPR_SIZE; it is
    refused at once with one error line."""
    start = time.perf_counter()
    result = run_main("tables", "--table", "example61", "--n-max", n_max)
    assert time.perf_counter() - start < 1.0
    assert result == (
        2, "", "error: n_max must be in 1..11: the row n = m = n_max has 2^(n_max + 2) - 1 "
        "nodes, at most 8192\n")


@pytest.mark.parametrize("flag,name", [("--n-max", "n_max"), ("--m-max", "m_max")])
def test_tables_prop62_without_rows_exit_2(flag, name):
    """n = 0 or m = 0 is outside Proposition 6.2, and would pass a table of
    no rows; it is refused with one error line."""
    assert run_main("tables", "--table", "prop62", flag, "0") == (
        2, "", f"error: {name} must be in 1..4\n")


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


def test_trace_bipartite_work_is_bounded_before_it_starts(tmp_path, monkeypatch):
    """--bipartite weighs its work over the terms of the normalized word
    before it traces any by the partition formula: d{g} u d{h} v d{g} u*
    d{h} v* over 16 atoms, 65536 terms, took 13.2 s and now exits 2 with
    one error line."""
    legs = [{"id": "D", "kind": "finite_comm", "m": 16,
             "elements": {"g": list(range(16)), "h": [k * k for k in range(16)]}}]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"legs": legs}), encoding="utf-8")
    traced = []
    monkeypatch.setattr(freeword.FreeProduct, "trace_bipartite",
                        lambda self, w, f1: traced.append(w) or freeword.PI_ZERO)
    code, out, err = run_main("trace", "--word", "d{g} u d{h} v d{g} u* d{h} v*",
                              "--bipartite", "--model-file", str(path), timeout=20)
    assert (code, out, traced) == (2, "", [])
    assert err == (f"error: --bipartite over the 65536 terms of the normalized word would "
                   f"do 30353488 units of work, more than {cli.MAX_BIPARTITE_WORK}\n")


@pytest.mark.parametrize("word, line", [
    # the centered trace refuses it first, as it did before the work bound
    (" ".join(["u v"] * 1000), "word length 2000 exceeds 64"),
    # the term's slots are refused before they are counted
    (" ".join(["u v"] * 6), "partition formula over 12 slots exceeds 10"),
], ids=["2000-letters", "12-slots"])
def test_trace_bipartite_refuses_long_words_before_counting(word, line):
    """A word past the slot limit of the partition formula exits 2 with the
    error line of the evaluator that refuses it, at once."""
    code, out, err = run_main("trace", "--word", word, "--bipartite", timeout=10)
    assert (code, out, err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("slack, code", [(-1, 2), (0, 0)])
def test_trace_bipartite_work_counts_terms_and_partitions(monkeypatch, slack, code):
    """c u c u* is one term whose cumulant side is 1, u, u*: two partitions
    have no block of zero cumulant by shape, {1}{2}{3} and {1}{2,3}, and
    the term costs ``BIPARTITE_TERM_COST`` more."""
    monkeypatch.setattr(cli, "MAX_BIPARTITE_WORK", 2 + cli.BIPARTITE_TERM_COST + slack)
    assert run_main("trace", "--word", "c u c u*", "--bipartite")[0] == code


def test_missing_model_file_exit_2(tmp_path):
    missing = str(tmp_path / "missing.json")
    line = run_cli_error("trace", "--word", "c u", "--model-file", missing)
    assert "missing.json" in line


def test_model_file_nested_too_deeply_exit_2(tmp_path):
    """json's decoder raises RecursionError on deep nesting; it once ended
    in a traceback and exit 1."""
    path = tmp_path / "model.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert run_main("trace", "--word", "c u", "--model-file", str(path)) == (
        2, "", f"error: model file {str(path)!r} nests too deeply\n")


@pytest.mark.parametrize("data", [
    b"",
    b"\xff\xfe",
    b'{"legs": [{"id": "D", "kind": "finite_comm", "m": 1' + b"0" * 5000 + b"}]}",
    b'{"legs": [',
], ids=["empty", "not-utf8", "long-integer", "truncated"])
def test_model_file_not_json_exit_2(tmp_path, data):
    """A file json cannot read names the file; the decoder's message alone
    did not."""
    path = tmp_path / "model.json"
    path.write_bytes(data)
    code, out, err = run_main("trace", "--word", "u", "--model-file", str(path))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot read model file {str(path)!r} as JSON: ")


@pytest.mark.parametrize("m", [None, "two", 0, MAX_COMM_ATOMS + 1])
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


@pytest.mark.parametrize("entry", ["1e30000000", "\u0663", "1_0", True, False, "1.5", " 3 "])
def test_model_file_entry_not_ascii_rational_exit_2(tmp_path, entry):
    """An element entry is a JSON integer or an ASCII-digit string p or p/q;
    Fraction() alone also read these, and spent minutes on 1e30000000."""
    leg = {"id": "D", "kind": "finite_comm", "m": 2, "elements": {"g": [entry, "1"]}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"legs": [leg]}), encoding="utf-8")
    start = time.perf_counter()
    result = run_main("trace", "--word", "d{g} u d{g} u*", "--model-file", str(path))
    assert time.perf_counter() - start < 2.0
    assert result == (
        2, "", f"error: leg 'D': element 'g' needs 2 rational entries, got {[entry, '1']!r}\n")


@pytest.mark.parametrize("word, line", [
    ("d{zz}", "error: no model element named 'zz'"),
    ("d{g} u", "error: element name 'g' is ambiguous"),
])
def test_unknown_name_error_line(tmp_path, word, line):
    legs = [{"id": leg_id, "kind": "finite_comm", "m": 2, "elements": {"g": [1, -1]}}
            for leg_id in ("D", "E")]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"legs": legs}), encoding="utf-8")
    assert run_main("trace", "--word", word, "--model-file", str(path)) == (2, "", line + "\n")


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


# Recorded stdout of one invocation per report type, JSON key order
# included (``json.dumps`` keeps the order ``to_json`` gives).
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
RECORDED_JSON = {
    "nc-lemma_n4.json": ["nc-lemma", "--n", "4", "--json"],
    "tables_example61_n2.json": ["tables", "--table", "example61", "--n-max", "2", "--json"],
    "free-check_PQ_3.json": ["free-check", "--model", "PQ", "--max-len", "3"],
    "normalize_RR_steps.json": ["normalize", "--expr", "R * R", "--steps", "--json"],
}


@pytest.mark.parametrize("name", RECORDED_JSON)
def test_json_bytes_match_recorded(name):
    assert run_cli(*RECORDED_JSON[name]) == (GOLDEN_DIR / name).read_text(encoding="utf-8")
