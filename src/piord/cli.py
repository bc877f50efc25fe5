"""Command-line surface: parse, validate, compare, enumerate, verify."""

import argparse
import functools
import json
import sys

from .params import SystemParams
from .errors import OrdSyntaxError, PiordError
from .order import EQ, LT, cmp_ord, k_delta
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


def _build_parser():
    p = argparse.ArgumentParser(
        prog="piord",
        description="Ordinal notation system for first-order reflection.")
    p.add_argument("--big-n", type=int, default=4, metavar="N",
                   help="reflection rank N >= 3 (default 4)")
    p.add_argument("--format", choices=("text", "json-lines"),
                   default="text", help="output format")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a term")
    c.add_argument("term")

    c = sub.add_parser("cmp", help="compare two terms")
    c.add_argument("left")
    c.add_argument("right")

    c = sub.add_parser("kset", help="component set K_delta(term)")
    c.add_argument("delta")
    c.add_argument("term")

    c = sub.add_parser("mvec", help="recorded coefficient vector")
    c.add_argument("term")

    c = sub.add_parser("sd", help="derivation search for a coefficient vector")
    c.add_argument("seq")

    c = sub.add_parser("enumerate", help="census of small validated terms")
    c.add_argument("--size-cap", type=int, default=None)
    c.add_argument("--below", default=None, metavar="TERM")
    c.add_argument("--out", default=None, metavar="FILE")

    c = sub.add_parser("props", help="run the oracle suites")
    c.add_argument("--size-cap", type=int, default=None)
    c.add_argument("--triples", type=int, default=20_000)
    c.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("descend", help="seeded descending-chain probe")
    c.add_argument("term")
    c.add_argument("--steps", type=int, default=1000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--size-cap", type=int, default=None)

    c = sub.add_parser("bound", help="proof-theoretic bound term")
    c.add_argument("--n", type=int, required=True)
    return p


class _Out:
    def __init__(self, fmt, stream):
        self.fmt = fmt
        self.stream = stream

    def emit(self, record, text):
        if self.fmt == "json-lines":
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            self.stream.write(text + "\n")


def _default_cap(n, cap):
    if cap is not None:
        return cap
    return DEFAULT_SIZE_CAP.get(n, 9)


def main(argv=None, stdout=None, stderr=None):
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        params = SystemParams(args.big_n)
    except ValueError as exc:
        stderr.write("error: %s\n" % (exc,))
        return 2
    out = _Out(args.format, stdout)
    try:
        return _dispatch(args, params, out, stderr)
    except OrdSyntaxError as exc:
        stderr.write("error: %s\n" % (exc,))
        return 2
    except PiordError as exc:
        stderr.write("error: %s\n" % (exc,))
        return 2


def _dispatch(args, params, out, stderr):
    cmd = args.command
    if cmd == "check":
        t, zero_claims = parse_ord_claims(args.term, params)
        rep = check_ot(t, params)
        if rep.ok and zero_claims:
            # the spelling claimed a coefficient-carrying rule; refute it
            claimed = zero_claims[0]
            name = "0 < b" if claimed.pi is BIG_K else "non-zero vector"
            rep = ValidationReport(False, None,
                                   ((name, False, "all-zero vector"),))
        record = {
            "kind": "check", "term": print_ord(t), "ok": rep.ok,
            "rule": rep.rule,
            "checks": [{"name": n, "ok": okf, "detail": d}
                       for n, okf, d in rep.checks],
        }
        if rep.ok:
            out.emit(record, "ok %s (%s)" % (print_ord(t), rep.rule))
            return 0
        out.emit(record, "fail %s: %s" % (print_ord(t), rep.first_failure()))
        return 1
    if cmd == "cmp":
        a = parse_ord(args.left, params)
        b = parse_ord(args.right, params)
        c = cmp_ord(a, b)
        sym = "<" if c == LT else ("=" if c == EQ else ">")
        out.emit({"kind": "cmp", "left": print_ord(a), "right": print_ord(b),
                  "result": sym}, sym)
        return 0
    if cmd == "kset":
        d = parse_ord(args.delta, params)
        t = parse_ord(args.term, params)
        ks = sorted(k_delta(d, t), key=_sort_key)
        text = "{" + ", ".join(print_ord(g) for g in ks) + "}"
        out.emit({"kind": "kset", "delta": print_ord(d),
                  "term": print_ord(t),
                  "elements": [print_ord(g) for g in ks]}, text)
        return 0
    if cmd == "mvec":
        t = parse_ord(args.term, params)
        mv = m_vec(t, params)
        text = "undefined" if mv is None else print_seq(mv)
        out.emit({"kind": "mvec", "term": print_ord(t), "mvec": text}, text)
        return 0
    if cmd == "sd":
        vec = parse_seq(args.seq, params)
        d = in_sd(vec)
        if d is None:
            out.emit({"kind": "sd", "seq": print_seq(vec), "in_sd": False},
                     "not in SD")
            return 0
        lines = []
        for step in d.steps:
            if isinstance(step, Base):
                lines.append("base a=%s" % print_ord(step.a))
            else:
                lines.append("extend k=%d zeta=%s a=%s %s"
                             % (step.k, print_exp(step.zeta),
                                print_ord(step.a),
                                "keep-tail" if step.keep_tail else "zero-tail"))
        out.emit({"kind": "sd", "seq": print_seq(vec), "in_sd": True,
                  "steps": lines}, "\n".join(lines))
        return 0
    if cmd == "enumerate":
        cap = _default_cap(params.n, args.size_cap)
        corpus = enumerate_corpus(params, cap)
        terms = corpus.terms
        if args.below is not None:
            bound = parse_ord(args.below, params)
            terms = tuple(t for t in terms if cmp_ord(t, bound) == LT)
        lines = [print_ord(t) for t in terms]
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
        else:
            for i, line in enumerate(lines):
                out.emit({"kind": "term", "index": i, "term": line}, line)
        return 0
    if cmd == "props":
        cap = _default_cap(params.n, args.size_cap)
        corpus = enumerate_corpus(params, cap)
        reports = check_order_axioms(corpus, args.triples, args.seed)
        reports += check_structural_props(corpus)
        sd_rep, unconfirmed = sd_cross_check(corpus)
        reports.append(sd_rep)
        bad = 0
        for rep in reports:
            out.emit({"kind": "prop", "name": rep.name, "ok": rep.ok,
                      "checked": rep.checked, "failures": rep.failures[:5]},
                     rep.line())
            bad += 0 if rep.ok else 1
        out.emit({"kind": "sd-unconfirmed", "count": len(unconfirmed)},
                 "sd-unconfirmed %d (conditions hold, no derivation found)"
                 % len(unconfirmed))
        return 1 if bad else 0
    if cmd == "descend":
        cap = _default_cap(params.n, args.size_cap)
        corpus = enumerate_corpus(params, cap)
        t = parse_ord(args.term, params)
        rep = descent_probe(t, corpus, args.steps, args.seed)
        text = ("chain length %d from %s, final %s, %s"
                % (rep.chain_len, print_ord(t), print_ord(rep.final),
                   "bottom" if rep.hit_bottom else "budget"))
        out.emit({"kind": "descend", "start": print_ord(t),
                  "length": rep.chain_len, "final": print_ord(rep.final),
                  "bottom": rep.hit_bottom}, text)
        return 0
    if cmd == "bound":
        t = theorem_bound(args.n, params)
        out.emit({"kind": "bound", "n": args.n, "term": print_ord(t)},
                 print_ord(t))
        return 0
    raise AssertionError("unhandled command %r" % (cmd,))


def _sort_key(t):
    return functools.cmp_to_key(cmp_ord)(t)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
