"""Command-line surface: parse, validate, compare, enumerate, verify.

One constant table, ``_COMMANDS``, names each command's handler, summary,
operands and options; ``_parse`` reads argv from it, and ``_help`` writes
the --help text from it.  A handler is ``run(args, params, emit) -> exit
code``; ``emit(record, text)`` writes one text line, or under ``--format
json-lines`` the record that the zero-argument function ``record`` builds,
so text output never prints the operands that only the record names.
"""

import functools
import itertools
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .params import SystemParams
from .errors import PiordError
from .order import EQ, LT, cmp_ord, k_delta, trim_caches
from .validate import ValidationReport, check_ot
from .sd import Base, in_sd
from .arith import theorem_bound
from .oracle import (
    check_order_axioms, check_structural_props, default_size_cap,
    descent_probe, enumerate_corpus, sd_cross_check,
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
        args = _parse(sys.argv[1:] if argv is None else argv, stdout)
        if args is None:                # --help has printed its text
            return 0
        params = SystemParams(args.big_n)
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
        cap = default_size_cap(params.n)
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
    corpus = _corpus(args, params)
    terms = corpus.terms
    if args.below is not None:
        terms = terms[:corpus.index_below(parse_ord(args.below, params))]
    lines = [print_ord(t) for t in terms]
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
        except OSError as exc:
            raise PiordError("cannot write %s: %s"
                             % (args.out, exc.strerror)) from None
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


def _count(text):
    n = int(text)
    if n < 0:
        raise ValueError("must be at least 0, got %d" % n)
    return n


def _format(text):
    if text not in ("text", "json-lines"):
        raise ValueError("must be text or json-lines, got %r" % text)
    return text


# A command: its handler, a one-line summary, its operands in order, and
# its options by flag.  An option: the function that converts its value
# (a ValueError is a usage error), its default, and whether it is
# required; a required option has no default.
Command = namedtuple("Command", "run summary operands options")
Option = namedtuple("Option", "type default required")

# The global options, which come before the command; the command is the
# first operand.
_TOP = Command(None, "Ordinal notation system for first-order reflection; "
               "BIG_N is the reflection rank N >= 3, FORMAT is text or "
               "json-lines.", ("command",), {
                   "--big-n": Option(int, 4, False),
                   "--format": Option(_format, "text", False)})
_SIZE_CAP = Option(_count, None, False)
_SEED = Option(int, 0, False)
_COMMANDS = {
    "check": Command(_check, "validate a term", ("term",), {}),
    "cmp": Command(_cmp, "compare two terms", ("left", "right"), {}),
    "kset": Command(_kset, "component set K_delta(term)", ("delta", "term"),
                    {}),
    "mvec": Command(_mvec, "recorded coefficient vector", ("term",), {}),
    "sd": Command(_sd, "derivation search for a coefficient vector",
                  ("seq",), {}),
    "enumerate": Command(_enumerate, "census of small validated terms", (), {
        "--size-cap": _SIZE_CAP, "--below": Option(str, None, False),
        "--out": Option(str, None, False)}),
    "props": Command(_props, "run the oracle suites", (), {
        "--size-cap": _SIZE_CAP, "--triples": Option(_count, 20_000, False),
        "--seed": _SEED}),
    "descend": Command(_descend, "seeded descending-chain probe", ("term",), {
        "--steps": Option(_count, 1000, False), "--seed": _SEED,
        "--size-cap": _SIZE_CAP}),
    "bound": Command(_bound, "proof-theoretic bound term", (),
                     {"--n": Option(int, None, True)}),
}


def _dest(flag):
    return flag[2:].replace("-", "_")


def _is_option(arg):
    """Whether arg is an option rather than a value: it starts with '-',
    and it is not '-', a negative number, or a text with a blank and no
    '=' (``--below=K + 1`` is an option)."""
    if arg[:1] != "-" or arg == "-" or (" " in arg and "=" not in arg):
        return False
    whole, dot, frac = arg[1:].partition(".")
    if dot:
        return not (frac.isdecimal() and (whole == "" or whole.isdecimal()))
    return not whole.isdecimal()


def _parse(argv, stdout):
    """argv as one namespace: the value of every global option, operand
    and option of the command, by name, and the command's handler as
    ``run``.  For -h or --help, write the help text to stdout and return
    None.  A usage error raises PiordError."""
    name, command, operands = None, _TOP, []
    values = {_dest(flag): option.default
              for flag, option in _TOP.options.items()}
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if not _is_option(arg):
            if name is not None:
                operands.append(arg)
                continue
            if arg not in _COMMANDS:
                raise PiordError("unknown command %r, expected one of %s"
                                 % (arg, ", ".join(_COMMANDS)))
            name, command = arg, _COMMANDS[arg]
            values.update((_dest(flag), option.default)
                          for flag, option in command.options.items()
                          if not option.required)
            continue
        if arg == "-h" or arg == "--help":
            stdout.write(_help(name, command))
            return None
        flag, eq, value = arg.partition("=")
        option = command.options.get(flag)
        if option is None:
            raise PiordError("unrecognized option %s%s" % (
                flag, "" if name is None else " for " + name))
        if not eq:
            if i == len(argv) or _is_option(argv[i]):
                raise PiordError("option %s expects a value" % flag)
            value = argv[i]
            i += 1
        try:
            values[_dest(flag)] = option.type(value)
        except ValueError as exc:
            raise PiordError("option %s: %s" % (flag, exc)) from None
    if name is None:
        raise PiordError("a command is required, one of %s"
                         % ", ".join(_COMMANDS))
    if len(operands) != len(command.operands):
        raise PiordError("%s expects %d operand(s), %s, got %d" % (
            name, len(command.operands), " ".join(command.operands).upper(),
            len(operands)))
    for flag, option in command.options.items():
        if option.required and _dest(flag) not in values:
            raise PiordError("%s requires option %s" % (name, flag))
    values.update(zip(command.operands, operands))
    return SimpleNamespace(run=command.run, **values)


def _help(name, command):
    """The --help text of one command, or of piord when name is None."""
    words = ["usage: piord"] + ([name] if name else [])
    for flag, option in command.options.items():
        word = "%s %s" % (flag, _dest(flag).upper())
        words.append(word if option.required else "[%s]" % word)
    words += [operand.upper() for operand in command.operands]
    lines = [" ".join(words) + (" ..." if name is None else ""), "",
             command.summary]
    if name is None:
        lines += ["", "commands:"] + ["  %-10s %s" % (n, c.summary)
                                      for n, c in _COMMANDS.items()]
    defaults = ["%s %s" % (flag, option.default)
                for flag, option in command.options.items()
                if option.default is not None]
    if defaults:
        lines += ["", "defaults: " + ", ".join(defaults)]
    return "\n".join(lines) + "\n"


def console_main():
    try:
        code = main()
        sys.stdout.flush()      # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # Python's recipe for a reader that closed the pipe: the rest of
        # the output goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
