"""Command-line surface: parse, validate, compare, enumerate, verify.

The argument parser is built once, at import.  Each subcommand carries its
handler, ``run(args, params, emit) -> exit code``; ``emit(record, text)``
writes one text line, or under ``--format json-lines`` the record that the
zero-argument function ``record`` builds, so text output never prints the
operands that only the record names.
"""

import argparse
import contextlib
import functools
import itertools
import sys

from .params import SystemParams
from .errors import PiordError
from .order import EQ, LT, cmp_ord, k_delta, trim_caches
from .validate import ValidationReport, check_ot
from .sd import Base, in_sd
from .arith import theorem_bound
from .oracle import (
    check_order_axioms, check_structural_props, descent_probe, enumerate_corpus,
    sd_cross_check, DEFAULT_SIZE_CAP,
)
from .syntax import (
    parse_ord, parse_ord_claims, parse_seq, print_exp, print_ord, print_seq,
)
from .terms import BIG_K, m_vec

__all__ = ["main"]

# main's calls, numbered from 1.  Every 16th call starts at a memo
# checkpoint: one costs about 2 us, a few percent of a small query, so a
# long run of calls pays it once per 16.
_CALLS = itertools.count(1)


def main(argv=None, stdout=None, stderr=None):
    if not next(_CALLS) % 16:
        trim_caches()
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        with contextlib.redirect_stdout(stdout):
            args = _PARSER.parse_args(argv)
        params = SystemParams(args.big_n)
    except SystemExit:                  # --help has printed its text
        return 0
    except (ValueError, PiordError) as exc:
        stderr.write("error: %s\n" % (exc,))
        return 2
    if args.format == "json-lines":
        import json  # text output, the common case, never loads it

        def emit(record, text):
            stdout.write(json.dumps(record(), sort_keys=True) + "\n")
    else:
        def emit(record, text):
            stdout.write(text + "\n")
    try:
        return args.run(args, params, emit)
    except (PiordError, RecursionError) as exc:
        # a RecursionError means an operand nests deeper than the stack
        stderr.write("error: %s\n" % (exc,))
        return 2


def _corpus(args, params):
    cap = args.size_cap
    if cap is None:
        cap = DEFAULT_SIZE_CAP.get(params.n, 9)
    return enumerate_corpus(params, cap)


def _check(args, params, emit):
    t, zero_claims = parse_ord_claims(args.term, params)
    rep = check_ot(t, params)
    if rep.ok and zero_claims:
        # the spelling claimed a coefficient-carrying rule; refute it
        name = "0 < b" if zero_claims[0].pi is BIG_K else "non-zero vector"
        rep = ValidationReport(None, (name, "all-zero vector"))
    term = print_ord(t)

    def record():
        checks = [] if rep.ok else [
            {"name": rep.failure[0], "ok": False, "detail": rep.failure[1]}]
        return {"kind": "check", "term": term, "ok": rep.ok,
                "rule": rep.rule, "checks": checks}
    if rep.ok:
        emit(record, "ok %s (%s)" % (term, rep.rule))
        return 0
    emit(record, "fail %s: %s" % (term, rep.first_failure()))
    return 1


def _cmp(args, params, emit):
    a = parse_ord(args.left, params)
    b = parse_ord(args.right, params)
    c = cmp_ord(a, b)
    sym = "<" if c == LT else ("=" if c == EQ else ">")
    emit(lambda: {"kind": "cmp", "left": print_ord(a), "right": print_ord(b),
                  "result": sym}, sym)
    return 0


def _kset(args, params, emit):
    d = parse_ord(args.delta, params)
    t = parse_ord(args.term, params)
    ks = sorted(k_delta(d, t), key=functools.cmp_to_key(cmp_ord))
    elements = [print_ord(g) for g in ks]
    emit(lambda: {"kind": "kset", "delta": print_ord(d), "term": print_ord(t),
                  "elements": elements}, "{" + ", ".join(elements) + "}")
    return 0


def _mvec(args, params, emit):
    t = parse_ord(args.term, params)
    mv = m_vec(t, params)
    text = "undefined" if mv is None else print_seq(mv)
    emit(lambda: {"kind": "mvec", "term": print_ord(t), "mvec": text}, text)
    return 0


def _sd(args, params, emit):
    vec = parse_seq(args.seq, params)
    d = in_sd(vec)
    if d is None:
        emit(lambda: {"kind": "sd", "seq": print_seq(vec), "in_sd": False},
             "not in SD")
        return 0
    lines = []
    for step in d.steps:
        if isinstance(step, Base):
            lines.append("base a=%s" % print_ord(step.a))
        else:
            lines.append("extend k=%d zeta=%s a=%s %s"
                         % (step.k, print_exp(step.zeta), print_ord(step.a),
                            "keep-tail" if step.keep_tail else "zero-tail"))
    emit(lambda: {"kind": "sd", "seq": print_seq(vec), "in_sd": True,
                  "steps": lines}, "\n".join(lines))
    return 0


def _enumerate(args, params, emit):
    terms = _corpus(args, params).terms
    if args.below is not None:
        bound = parse_ord(args.below, params)
        terms = [t for t in terms if cmp_ord(t, bound) == LT]
    lines = [print_ord(t) for t in terms]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    else:
        for i, line in enumerate(lines):
            emit(lambda: {"kind": "term", "index": i, "term": line}, line)
    return 0


def _props(args, params, emit):
    corpus = _corpus(args, params)
    reports = check_order_axioms(corpus, args.triples, args.seed)
    reports += check_structural_props(corpus)
    sd_rep, unconfirmed = sd_cross_check(corpus)
    reports.append(sd_rep)
    for rep in reports:
        emit(lambda: {"kind": "prop", "name": rep.name, "ok": rep.ok,
                      "checked": rep.checked, "failures": rep.failures[:5]},
             rep.line())
    emit(lambda: {"kind": "sd-unconfirmed", "count": len(unconfirmed)},
         "sd-unconfirmed %d (conditions hold, no derivation found)"
         % len(unconfirmed))
    return 0 if all(rep.ok for rep in reports) else 1


def _descend(args, params, emit):
    corpus = _corpus(args, params)
    t = parse_ord(args.term, params)
    rep = descent_probe(t, corpus, args.steps, args.seed)
    start, final = print_ord(t), print_ord(rep.final)
    text = ("chain length %d from %s, final %s, %s"
            % (rep.chain_len, start, final,
               "bottom" if rep.hit_bottom else "budget"))
    emit(lambda: {"kind": "descend", "start": start, "length": rep.chain_len,
                  "final": final, "bottom": rep.hit_bottom}, text)
    return 0


def _bound(args, params, emit):
    t = theorem_bound(args.n, params)
    term = print_ord(t)
    emit(lambda: {"kind": "bound", "n": args.n, "term": term}, term)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, for main to write as one ``error:`` line,
    instead of printing the usage line and exiting; subparsers inherit it."""

    def error(self, message):
        raise PiordError(message)


def _build_parser():
    p = _Parser(
        prog="piord",
        description="Ordinal notation system for first-order reflection.")
    p.add_argument("--big-n", type=int, default=4, metavar="N",
                   help="reflection rank N >= 3 (default 4)")
    p.add_argument("--format", choices=("text", "json-lines"),
                   default="text", help="output format")
    sub = p.add_subparsers(dest="command", required=True)

    def count(text):
        n = int(text)
        if n < 0:
            raise argparse.ArgumentTypeError("must be at least 0, got %d" % n)
        return n

    def command(name, run, summary, *operands):
        c = sub.add_parser(name, help=summary)
        c.set_defaults(run=run)
        for operand in operands:
            c.add_argument(operand)
        return c

    command("check", _check, "validate a term", "term")
    command("cmp", _cmp, "compare two terms", "left", "right")
    command("kset", _kset, "component set K_delta(term)", "delta", "term")
    command("mvec", _mvec, "recorded coefficient vector", "term")
    command("sd", _sd, "derivation search for a coefficient vector", "seq")

    c = command("enumerate", _enumerate, "census of small validated terms")
    c.add_argument("--size-cap", type=count, default=None)
    c.add_argument("--below", default=None, metavar="TERM")
    c.add_argument("--out", default=None, metavar="FILE")

    c = command("props", _props, "run the oracle suites")
    c.add_argument("--size-cap", type=count, default=None)
    c.add_argument("--triples", type=count, default=20_000)
    c.add_argument("--seed", type=int, default=0)

    c = command("descend", _descend, "seeded descending-chain probe", "term")
    c.add_argument("--steps", type=count, default=1000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--size-cap", type=count, default=None)

    c = command("bound", _bound, "proof-theoretic bound term")
    c.add_argument("--n", type=int, required=True)
    return p


_PARSER = _build_parser()


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
