"""Command-line front end.

Subcommands expose the partition engine (nc-enum, nc-kreweras, nc-lemma),
the word-trace evaluators (trace), the matrix freeness harnesses
(free-check), the rewrite engine (normalize), and the verified tables
(tables).  Output is deterministic: fixed enumeration orders, rationals in
lowest terms, and JSON with a fixed field order.

Exit codes: 0 success/pass, 1 verification failure, 2 usage or fragment
errors, or stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional, Sequence

from . import freedim, freeword, matmodel, ncpart
from .freeword import EvaluationLimitError, UnknownNameError
from .trigalg import is_trig_atom, parse_trig


class CliError(Exception):
    """Usage-level error (exit 2)."""


# ---------------------------------------------------------------------------
# nc-* subcommands


def cmd_nc_enum(args) -> int:
    parts = ncpart.enumerate_nc(args.n)
    if args.json:
        doc = {"n": args.n, "count": len(parts)}
        if not args.count:
            doc["partitions"] = [p.encode() for p in parts]
        print(json.dumps(doc, indent=2))
        return 0
    if args.count:
        print(len(parts))
        return 0
    for p in parts:
        print(p.encode())
    return 0


def cmd_nc_kreweras(args) -> int:
    p = ncpart.NCPartition.decode(args.p)
    k = ncpart.kreweras(p)
    if args.json:
        print(json.dumps({"partition": p.encode(), "kreweras": k.encode()}, indent=2))
    else:
        print(k.encode())
    return 0


def cmd_nc_lemma(args) -> int:
    report = ncpart.verify_kreweras_interval_lemma(args.n)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} n={report.n}: {report.partitions_checked} partitions, "
              f"{report.intervals_checked} interval blocks checked")
        if report.counterexample:
            print(f"counterexample: {report.counterexample}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# trace


_ELEM_RE = re.compile(r"d\{([^}]+)\}$")
_HAAR_RE = re.compile(r"([A-Za-z_]\w*?)(\*|\^(-?[0-9]+))?$")


def _word_tokens(text: str) -> List[str]:
    """Whitespace-separated letters, with parenthesized trig expressions
    (which may contain spaces) kept as single tokens."""
    out: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise CliError(f"unbalanced parentheses in word {text!r}")
        if ch.isspace() and depth == 0:
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise CliError(f"unbalanced parentheses in word {text!r}")
    if cur:
        out.append("".join(cur))
    return out


def _parse_word(fp: freeword.FreeProduct, text: str) -> List[freeword.Letter]:
    letters: List[freeword.Letter] = []
    for tok in _word_tokens(text):
        if tok.startswith("(") or is_trig_atom(tok):
            letters.append(fp.leg("f").letter(parse_trig(tok)))
            continue
        m = _ELEM_RE.match(tok)
        if m:
            name = m.group(1)
            owners = [leg for leg in fp.legs.values()
                      if leg.kind == "finite_comm" and name in leg.elements]
            if not owners:
                raise UnknownNameError(f"no model element named {name!r}")
            if len(owners) > 1:
                raise UnknownNameError(f"element name {name!r} is ambiguous")
            letters.append(owners[0].element(name))
            continue
        m = _HAAR_RE.match(tok)
        if m and m.group(1) in fp.legs and fp.legs[m.group(1)].kind == "haar":
            leg = fp.legs[m.group(1)]
            if m.group(2) is None:
                power = 1
            elif m.group(2) == "*":
                power = -1
            else:
                power = int(m.group(3))
            letters.append(leg.gen(power))
            continue
        raise CliError(f"cannot parse word letter {tok!r}")
    if not letters:
        raise CliError("empty word")
    return letters


def _load_model_file(path: str) -> List[freeword.Leg]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read model file {path!r}: {exc.strerror or exc}") from None
    except RecursionError:  # json's decoder, on arrays or objects nested too deeply
        raise CliError(f"model file {path!r} nests too deeply") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past int's digit limit
        raise CliError(f"cannot read model file {path!r} as JSON: {exc}") from exc
    return freeword.legs_from_model_dict(doc)


# The most work ``trace --bipartite`` may do, counted after the centered
# trace and before any term is traced by the partition formula: for each
# term of the normalized word, the partitions the pruned walk can build for
# it (``freeword.bipartite_partition_counts``) plus BIPARTITE_TERM_COST for
# the term itself, all times the atoms of the widest finite_comm leg in the
# word, whose moments multiply m-vectors.  Measured on a 2-core x86 machine,
# Python 3.11: a partition costs about 1 us where a term has many (c[k] u
# six times over: 132 partitions, 120 us a term), and a term about 40 us
# besides (u c[i] u* s[j] of the word below: 42 us with two partitions),
# ten units at the dearest unit found, 3.5 us.  That is the slowest word
# found under the bound, u X u* Y with X and Y sums of 209 cos terms (43681
# terms, 524172 units): 1.8 s of partition formula, 2.3 s in all.  d{g} u
# d{h} v d{g} u* d{h} v* over 16 atoms (65536 terms, 30 million units) took
# 13.2 s before the bound and now exits 2 after 2.4 s.
MAX_BIPARTITE_WORK = 2 ** 19
BIPARTITE_TERM_COST = 10


def cmd_trace(args) -> int:
    extra = _load_model_file(args.model_file) if args.model_file else []
    fp = freeword.standard_model(extra)
    letters = _parse_word(fp, args.word)
    nc = fp.normalize(letters)
    exact = fp.trace(nc)
    doc = {
        "word": args.word,
        # only --json prints it, and its text can be long
        "normalized": str(nc) if args.json else None,
        "exact": str(exact),
        "coefficients": {str(deg): str(q) for deg, q in exact.items()},
        "numeric": exact.eval_numeric(),
    }
    agree = True
    if args.bipartite:
        # weighed after the centered trace, whose refusals (a word past
        # MAX_WORD_LETTERS, say) come first, and before any term is traced;
        # the trig letters of each term take the trace side
        terms = [(w, coeff, [i for i, l in enumerate(w)
                             if not isinstance(l, freeword.TrigLetter)])
                 for w, coeff in nc.terms()]
        width = max([fp.legs[leg_id].m for leg_id in {l.leg for l in letters}
                     if fp.legs[leg_id].kind == "finite_comm"], default=1)
        work = width * sum(count + BIPARTITE_TERM_COST for count in
                           freeword.bipartite_partition_counts((w, f1) for w, _, f1 in terms))
        if work > MAX_BIPARTITE_WORK:
            raise CliError(f"--bipartite over the {len(terms)} terms of the normalized word "
                           f"would do {work} units of work, more than {MAX_BIPARTITE_WORK}")
        total = freeword.PI_ZERO
        for w, coeff, f1 in terms:
            total = total + coeff * fp.trace_bipartite(w, f1)
        agree = total == exact
        doc["bipartite"] = str(total)
        doc["agree"] = agree
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"word: {args.word}")
        print(f"exact: {doc['exact']}")
        print(f"numeric: {doc['numeric']!r}")
        if args.bipartite:
            print(f"bipartite: {doc['bipartite']}")
            print(f"agree: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# free-check


def cmd_free_check(args) -> int:
    mm = matmodel.MatrixModel()
    gen_a, gen_b, offdiag = mm.generators(args.model)
    max_len = args.max_len if args.max_len is not None else matmodel.HARNESSES[args.model][0]
    report = mm.check_freeness(gen_a, gen_b, max_len, args.model, offdiag)
    print(json.dumps(report.to_json(), indent=2))
    if args.stats:
        print(f"stats: words_checked={report.words_checked} "
              f"entries_traced={report.entries_traced} "
              f"entries_derived={report.entries_derived} "
              f"entries_skipped={report.entries_skipped}", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# normalize and tables


def cmd_normalize(args) -> int:
    engine = freedim.Normalizer(args.seed)
    nf, steps = engine.normalize(freedim.parse(args.expr))
    if args.json:
        doc = {
            "input": args.expr,
            "normal_form": nf.text(),
            "depth": nf.depth,
            "core": nf.core,
            "param": str(nf.param) if nf.param is not None else None,
            "alias": f"LF({nf.alias()})" if nf.alias() is not None else None,
            "fdim": str(nf.fdim()),
        }
        if args.steps:
            doc["steps"] = [s.to_json() for s in steps]
        print(json.dumps(doc, indent=2))
    else:
        print(nf.text())
        if nf.alias() is not None:
            print(f"alias: LF({nf.alias()})")
        if args.steps:
            for i, s in enumerate(steps, 1):
                print(f"{i:3}. [{s.rule}] {s.before}  ->  {s.after}"
                      f"   (fdim {s.fdim_before})")
    if args.stats:
        # rules in the order they first fired
        counts = ",".join(f"{rule}:{n}" for rule, n in engine.rule_counts.items())
        print(f"stats: steps={len(steps)} memo_hits={engine.memo_hits} "
              f"memo_misses={engine.memo_misses} rule_counts={counts}", file=sys.stderr)
    return 0


def cmd_tables(args) -> int:
    if args.table == "example61":
        report = freedim.example_61_sequence(args.n_max)
    elif args.table == "prop62":
        report = freedim.prop_62_table(args.n_max, args.m_max, args.k_max,
                                       args.l_max)
    else:
        raise CliError(f"unknown table {args.table!r}")
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for row in report.rows:
            print(" ".join(f"{k}={v}" for k, v in row.items()))
        print(f"{'PASS' if report.passed else 'FAIL'} {report.name}: "
              f"{len(report.rows)} rows, {len(report.failures)} failures")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freeprod",
        description="Exact free-product toolkit: non-crossing partitions, "
                    "word traces, matrix freeness harnesses, and the "
                    "free-product rewrite engine.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nc-enum", help="enumerate non-crossing partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_nc_enum)

    p = sub.add_parser("nc-kreweras", help="Kreweras complement of a partition")
    p.add_argument("--p", required=True, metavar="BLOCKS",
                   help="partition text, e.g. '1,3|2|4'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_nc_kreweras)

    p = sub.add_parser("nc-lemma",
                       help="exhaustive Kreweras interval-lemma check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_nc_lemma)

    p = sub.add_parser("trace", help="exact trace of a word")
    p.add_argument("--word", required=True,
                   help="whitespace-separated letters: c s c[k] s[k] u u* v v* "
                        "u^k d{name}")
    p.add_argument("--model-file", help="JSON leg declarations")
    p.add_argument("--bipartite", action="store_true",
                   help="cross-check with the partition-formula evaluator")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("free-check", help="run a freeness harness")
    p.add_argument("--model", required=True,
                   help="one of " + ", ".join(matmodel.HARNESSES))
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--stats", action="store_true",
                   help="print the words checked and the entry traces computed, "
                        "taken from adjoint partners and known to be zero from the "
                        "word's degree as one 'stats:' line on stderr")
    p.set_defaults(fn=cmd_free_check)

    p = sub.add_parser("normalize", help="normalize a free-product expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--steps", action="store_true")
    p.add_argument("--seed", type=int, default=None,
                   help="randomize rule priority (confluence checking)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print the engine's step, memo and per-rule counts "
                        "as one 'stats:' line on stderr")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("tables", help="verified normalization tables")
    p.add_argument("--table", required=True, help="example61 or prop62")
    p.add_argument("--n-max", type=int, default=4,
                   help=f"example61: 1..{freedim.EXAMPLE_61_MAX_N}, the largest row "
                        f"C^(2^n) * C^(2^n) having at most {freedim.MAX_EXPR_SIZE} nodes; "
                        "prop62: 1..4")
    p.add_argument("--m-max", type=int, default=2)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--l-max", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_tables)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Like a death by
        # SIGPIPE this is a failure for ``pipefail``, and exit 1 is kept for
        # verification failures.  Point stdout at devnull so the flush at
        # interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except AssertionError as exc:
        # an engine's own invariant check failed (fdim conservation)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CliError, UnknownNameError, EvaluationLimitError, freedim.DivergenceError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
