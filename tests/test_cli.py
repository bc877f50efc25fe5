import argparse
import gc
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from piord import cli, oracle, order
from piord.cli import main
from piord.arith import MAX_STAGE, theorem_bound
from piord.errors import PiordError
from piord.oracle import default_size_cap, enumerate_corpus
from piord.order import LT, clear_caches, cmp_ord
from piord.params import SystemParams
from piord.syntax import MAX_NUMERAL, parse_ord, print_ord, print_seq
from piord.terms import BIG_K, ONE, ZERO, m_vec

PLAN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "plan.py"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_cmp_spec_example():
    code, out, _ = run(["cmp", "Om(1)", "psi(Om(2); 0)"])
    assert code == 0 and out.strip() == "<"
    code, out, _ = run(["cmp", "psi(Om(2); 0)", "Om(2)"])
    assert out.strip() == "<"
    code, out, _ = run(["cmp", "K", "K"])
    assert out.strip() == "="


def test_check_ok_and_fail():
    code, out, _ = run(["check", "psi(K; [0,1]; 1)"])
    assert code == 0 and "Psi10" in out
    code, out, _ = run(["check", "psi(K; [1,0]; 1)"])
    assert code == 1
    code, out, _ = run(["check", "Om(K)"])
    assert code == 1 and out == "fail Om(K): index in range: K\n"


def test_check_json_lines():
    code, out, _ = run(["--format", "json-lines", "check", "psi(K; 0)"])
    rec = json.loads(out)
    assert code == 0 and rec["ok"] and rec["rule"] == "Psi9"


def test_check_json_lines_lists_only_the_failure():
    code, out, _ = run(["--format", "json-lines", "check", "psi(K; [0,1]; 1)"])
    rec = json.loads(out)
    assert code == 0 and rec["ok"] and rec["checks"] == []
    code, out, _ = run(["--format", "json-lines", "check", "psi(K; [0,2]; 1)"])
    rec = json.loads(out)
    assert code == 1 and not rec["ok"] and rec["rule"] == "Psi10"
    assert rec["checks"] == [
        {"name": "0 < b <= a", "ok": False, "detail": "b=2 a=1"}]


def test_usage_errors_exit_2():
    code, _, err = run(["cmp", "K"])
    assert code == 2 and "error:" in err
    code, _, err = run(["check", "phi(0"])
    assert code == 2 and "error:" in err
    code, _, err = run(["--big-n", "2", "check", "0"])
    assert code == 2
    code, _, err = run(["check", "\u00b2"])  # a digit that is not decimal
    assert code == 2 and err.startswith("error:")
    code, out, _ = run(["--help"])
    assert code == 0 and out.startswith("usage: piord")


# argv that the parser itself rejects
PARSER_USAGE_ERRORS = [
    ["cmp", "K"], ["--bogus", "cmp", "0", "1"], ["nosuch"],
    ["--format", "xml", "cmp", "0", "1"], ["props", "--triples", "-1"],
    ["props", "--size-cap", "6", "--triples", "-1"],
    ["descend", "1", "--steps", "-5", "--size-cap", "5"],
    ["enumerate", "--size-cap", "-1"], [], ["cmp", "0", "1", "2"],
    ["bound"], ["bound", "--n"], ["bound", "--n", "x"], ["--big-n", "x"],
    ["cmp", "0", "1", "--big-n", "3"], ["enumerate", "--below", "--out", "x"],
    ["props", "--seed=1.5"], ["check", "-x"], ["--help=1"],
]


def test_parser_usage_errors_print_one_line():
    for argv in PARSER_USAGE_ERRORS:
        code, out, err = run(argv)
        assert code == 2 and out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    code, out, err = run(["cmp", "--help"])
    assert code == 0 and out.startswith("usage: piord cmp") and err == ""


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise PiordError(message)


def _reference_parser():
    """The argparse parser that the command table replaced, kept as the
    reference for the values the table parser produces."""
    p = _ReferenceParser(prog="piord")
    p.add_argument("--big-n", type=int, default=4, metavar="N")
    p.add_argument("--format", choices=("text", "json-lines"),
                   default="text")
    sub = p.add_subparsers(dest="command", required=True)

    def count(text):
        n = int(text)
        if n < 0:
            raise argparse.ArgumentTypeError("must be at least 0, got %d" % n)
        return n

    def command(name, run, *operands):
        c = sub.add_parser(name)
        c.set_defaults(run=run)
        for operand in operands:
            c.add_argument(operand)
        return c

    command("check", cli._check, "term")
    command("cmp", cli._cmp, "left", "right")
    command("kset", cli._kset, "delta", "term")
    command("mvec", cli._mvec, "term")
    command("sd", cli._sd, "seq")
    c = command("enumerate", cli._enumerate)
    c.add_argument("--size-cap", type=count, default=None)
    c.add_argument("--below", default=None, metavar="TERM")
    c.add_argument("--out", default=None, metavar="FILE")
    c = command("props", cli._props)
    c.add_argument("--size-cap", type=count, default=None)
    c.add_argument("--triples", type=count, default=20_000)
    c.add_argument("--seed", type=int, default=0)
    c = command("descend", cli._descend, "term")
    c.add_argument("--steps", type=count, default=1000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--size-cap", type=count, default=None)
    c = command("bound", cli._bound)
    c.add_argument("--n", type=int, required=True)
    return p


def _both_forms(argv):
    """argv, and argv with every ``--opt value`` written ``--opt=value``."""
    joined, i = [], 0
    while i < len(argv):
        if argv[i].startswith("--") and i + 1 < len(argv):
            joined.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    return [argv, joined]


# every command, with its options before, between and after its operands
TABLE_ARGVS = [
    ["check", "psi(K; [0,1]; 1)"], ["cmp", "0", "K"], ["kset", "0", "K"],
    ["mvec", "-1"], ["sd", "[1,1]"], ["enumerate"],
    ["enumerate", "--size-cap", "3", "--below", "K", "--out", "f"],
    ["enumerate", "--out", "-", "--size-cap", "0", "--out", "g"],
    ["props", "--triples", "5", "--seed", "-7", "--size-cap", "4"],
    ["props"], ["descend", "--steps", "5", "K", "--seed", "2"],
    ["descend", "K", "--size-cap", "4", "--steps", "0"],
    ["descend", "--seed", "-1", "--size-cap", "3", "psi(K; K)"],
    ["bound", "--n", "-3"], ["bound", "--n", "7"],
    ["--big-n", "3", "cmp", "1", "K"], ["--format", "json-lines", "sd", "[1]"],
    ["--format", "text", "--big-n", "5", "--format", "json-lines", "props",
     "--seed", " 3"],
    ["--big-n", "99", "bound", "--n", "1"], ["check", ""],
    ["check", "-1 + K"], ["props", "--seed", "-1 "],
    ["enumerate", "--below", "K + 1"], ["kset", "-.5", "-2.25"],
]


def _plan():
    spec = importlib.util.spec_from_file_location("plan", PLAN)
    plan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plan)
    return plan


def _query_argvs():
    """The argv of the first 3000 operations of the query benchmark's plan
    at seed 101."""
    plan = _plan()
    census = [print_ord(t)
              for t in enumerate_corpus(SystemParams(4), plan.CENSUS_CAP).terms]
    ops = plan.operations(101, census)
    return [op["argv"] for op, _ in zip(ops, range(3000))]


def test_table_parser_matches_argparse():
    ref = _reference_parser()
    argvs = _query_argvs()
    for argv in TABLE_ARGVS:
        argvs += _both_forms(argv)
    for argv in argvs:
        want = vars(ref.parse_args(argv))
        del want["command"]
        assert vars(cli._parse(argv, None)) == want, argv
    for argv in PARSER_USAGE_ERRORS:
        with pytest.raises(PiordError):
            cli._parse(argv, None)
        with pytest.raises(PiordError):
            ref.parse_args(argv)


# sha256 over (exit code, stdout, stderr) of the _query_argvs() calls, run
# in-process: every answer, error line and exit code the query workload
# sees stays byte-identical
QUERY_DIGEST = (
    "93adae60b2596dfccb2e83c0162620d6d95fb85f4fc5a8bde32da85563a007d3")


def test_query_operations_digest():
    digest = hashlib.sha256()
    for argv in _query_argvs():
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, out, err)
        digest.update(repr((code, out.getvalue(), err.getvalue())).encode())
    assert digest.hexdigest() == QUERY_DIGEST


def test_query_operations_stay_below_the_memo_bound():
    # a query session starts with empty tables and never reaches a
    # checkpoint's bound, so no checkpoint empties a table it could reuse;
    # its largest table, the comparison memo, reaches about 7 500 entries
    argvs = _query_argvs()
    clear_caches()
    peak = 0
    try:
        for argv in argvs:
            main(argv, io.StringIO(), io.StringIO())
            peak = max(peak, *(m.cache_info().currsize
                               for m in order._MEMOS))
    finally:
        clear_caches()
    assert order.MEMO_BOUND // 2 < peak < order.MEMO_BOUND


_TABLE_WORK = (
    "import io, json, sys\n"
    "from piord import cli, order\n"
    "for argv in json.load(sys.stdin):\n"
    "    cli.main(argv, io.StringIO(), io.StringIO())\n"
    "for table in order._MEMOS:\n"
    "    info = table.cache_info()\n"
    "    print(table.__qualname__, info.misses, info.currsize)\n")


def test_query_work_does_not_depend_on_the_process():
    # terms hash by address, and strings by a seed drawn per process; two
    # processes that run the same operations compute the same entries in
    # every table.  Hits are left out: ks_below stops at the first element
    # of a K-set not below, in an order set by addresses, so _cmp_ord's
    # hits differ by a few between processes (ROADMAP item 6)
    argvs = json.dumps(_query_argvs())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    outs = [subprocess.run([sys.executable, "-c", _TABLE_WORK], input=argvs,
                           capture_output=True, text=True, env=env)
            for _ in range(2)]
    assert [p.returncode for p in outs] == [0, 0], outs[0].stderr[-300:]
    assert len(outs[0].stdout.splitlines()) == len(order._MEMOS)
    assert outs[0].stdout == outs[1].stdout


def test_parsed_namespaces_share_no_state():
    # the defaults are worked out once per process; a caller that changes
    # its namespace changes no later call's
    args = cli._parse(["props"], None)
    assert (args.seed, args.triples) == (0, 20_000)
    args.seed, args.triples = 9, 5
    vars(args).clear()
    cli._parse(["--big-n", "3", "props", "--seed", "7", "--triples", "6"],
               None)
    args = cli._parse(["props"], None)
    assert (args.seed, args.triples, args.big_n) == (0, 20_000, 4)


def test_params_are_kept_per_rank():
    # one process, the same vector term: rank 3's params do not leak into
    # the default rank's call, nor back
    term = "psi(K; [1]; 1)"
    assert run(["--big-n", "3", "check", term]) == (
        0, "ok psi(K; [1]; 1) (Psi10)\n", "")
    code, out, err = run(["check", term])
    assert code == 2 and out == "" and "need 2 for N=4" in err
    assert run(["--big-n", "3", "check", term])[0] == 0
    assert cli._params(3) is cli._params(3) != cli._params(4)


def test_table_parser_takes_no_abbreviation():
    ref = _reference_parser()
    for argv in (["props", "--size", "6"], ["--big", "3", "cmp", "0", "1"],
                 ["--form", "json-lines", "cmp", "0", "1"]):
        ref.parse_args(argv)
        code, out, err = run(argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_help_of_every_command():
    for name, command in cli._COMMANDS.items():
        code, out, err = run([name, "--help"])
        assert code == 0 and err == "", name
        assert out.startswith("usage: piord %s" % name), out
        for flag in command.options:
            assert flag in out, (name, flag)
    code, out, err = run(["-h"])
    assert code == 0 and out.startswith("usage: piord ") and err == ""
    for name in cli._COMMANDS:
        assert name in out


def test_numbers_past_their_limit_are_usage_errors():
    for argv in (["check", "99999999999999999999"],
                 ["check", str(MAX_NUMERAL + 1)],
                 ["check", "%d+%d" % (MAX_NUMERAL, MAX_NUMERAL)],
                 ["--big-n", "99999999999999999999", "bound", "--n", "1"]):
        code, out, err = run(argv)
        assert code == 2 and out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_bound_stage_outside_its_range_is_a_usage_error():
    for n in (-3, MAX_STAGE + 1, 99999999999999999999):
        code, out, err = run(["bound", "--n", str(n)])
        assert code == 2 and out == "", n
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_negative_counts_are_usage_errors():
    for argv in (["props", "--size-cap", "6", "--triples", "-1"],
                 ["descend", "1", "--steps", "-5", "--size-cap", "5"],
                 ["enumerate", "--size-cap", "-1"]):
        code, out, err = run(argv)
        assert code == 2 and out == "", argv
        assert [x for x in err.splitlines() if "error:" in x] == [
            err.splitlines()[-1]], err
        assert "must be at least 0" in err, err


def test_arity_flag_controls_n():
    code, _, _ = run(["--big-n", "3", "check", "psi(K; [1]; 1)"])
    assert code == 0
    code, _, err = run(["--big-n", "4", "check", "psi(K; [1]; 1)"])
    assert code == 2  # wrong arity is an error, not a reinterpretation


def test_kset_and_mvec():
    code, out, _ = run(["kset", "0", "psi(K; K)"])
    assert code == 0 and out.strip() == "{K}"
    code, out, _ = run(["kset", "K", "psi(K; K)"])
    assert out.strip() == "{}"
    code, out, _ = run(["mvec", "Om(2)"])
    assert out.strip() == "[1,0]"
    code, out, _ = run(["mvec", "K"])
    assert out.strip() == "undefined"
    code, out, err = run(["kset", "0", "psi(K; [1,0]; 1)"])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: no formation rule shapes ")


def test_cmp_of_an_omega_index_that_ties_a_psi_term():
    # Om(p) against the psi term p it indexes is undecided from either side
    for argv in (["cmp", "psi(K; 0)", "Om(psi(K; 0))"],
                 ["cmp", "Om(psi(K; 0))", "psi(K; 0)"]):
        clear_caches()
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err == ("error: Omega index ties a psi term: "
                       "Om(psi(K; 0)) vs psi(K; 0)\n"), argv


def test_sd_command():
    code, out, _ = run(["sd", "[L^(2)*(1),1]"])
    assert code == 0 and "base" in out and "extend k=2" in out
    code, out, _ = run(["sd", "[1,1]"])
    assert out.strip() == "not in SD"


# operands spelled with their blanks left out: a record holds the printed
# spelling, never the operand as given
JSON_RECORDS = [
    (["cmp", "Om(1)", "psi(Om(2);0)"],
     {"kind": "cmp", "left": "Om(1)", "right": "psi(Om(2); 0)",
      "result": "<"}),
    (["kset", "0", "psi(K;K)"],
     {"kind": "kset", "delta": "0", "term": "psi(K; K)", "elements": ["K"]}),
    (["mvec", "Om(2)"], {"kind": "mvec", "term": "Om(2)", "mvec": "[1,0]"}),
    (["mvec", "K"], {"kind": "mvec", "term": "K", "mvec": "undefined"}),
    (["sd", "[L^(2)*(1), 1]"],
     {"kind": "sd", "seq": "[L^(2)*(1),1]", "in_sd": True,
      "steps": ["base a=1", "extend k=2 zeta=2 a=1 keep-tail"]}),
    (["sd", "[1, 1]"], {"kind": "sd", "seq": "[1,1]", "in_sd": False}),
    (["bound", "--n", "2"],
     {"kind": "bound", "n": 2, "term": "psi(Om(1); w^(w^(K+1)))"}),
    (["descend", "psi(K;K)", "--steps", "50", "--seed", "1",
      "--size-cap", "5"],
     {"kind": "descend", "start": "psi(K; K)", "length": 2, "final": "0",
      "bottom": True}),
]


@pytest.mark.parametrize("argv, record", JSON_RECORDS)
def test_json_lines_records(argv, record):
    code, out, _ = run(["--format", "json-lines"] + argv)
    assert code == 0
    assert out == json.dumps(record, sort_keys=True) + "\n"


def _printed(monkeypatch):
    """Record each term and vector the command handlers print."""
    calls = []
    for name in ("print_ord", "print_seq"):
        def spy(x, real=getattr(cli, name)):
            calls.append(x)
            return real(x)
        monkeypatch.setattr(cli, name, spy)
    return calls


def test_text_output_prints_no_operand(monkeypatch, p4):
    calls = _printed(monkeypatch)
    for argv, printed in (
            (["cmp", "psi(K; K)", "psi(Om(2); 0)"], []),
            (["kset", "0", "psi(K; K)"], [BIG_K]),          # its element
            (["mvec", "Om(2)"], [m_vec(parse_ord("Om(2)", p4), p4)]),
            (["mvec", "K"], []),
            (["sd", "[1,1]"], []),
            (["sd", "[L^(2)*(1),1]"], [ONE, ONE])):          # its steps
        calls.clear()
        code, _, _ = run(argv)
        assert code == 0 and calls == printed, argv


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_each_term_is_printed_once(monkeypatch, fmt, p4):
    calls = _printed(monkeypatch)
    code, _, _ = run(["--format", fmt, "check", "psi(K; [0,1]; 1)"])
    assert code == 0 and calls == [parse_ord("psi(K; [0,1]; 1)", p4)]
    calls.clear()
    code, _, _ = run(["--format", fmt, "bound", "--n", "2"])
    assert code == 0 and calls == [theorem_bound(2, p4)]
    calls.clear()
    code, _, _ = run(["--format", fmt, "descend", "psi(K; K)", "--steps",
                      "50", "--seed", "1", "--size-cap", "5"])
    assert code == 0 and calls == [parse_ord("psi(K; K)", p4), ZERO]


def test_bound_command():
    code, out, _ = run(["bound", "--n", "1"])
    assert code == 0 and out.strip() == "psi(Om(1); w^(K+1))"


def test_enumerate_below_and_out(tmp_path):
    code, out, _ = run(["enumerate", "--size-cap", "3"])
    assert code == 0
    assert out.splitlines() == ["0", "1", "psi(K; 0)", "psi(K; K)", "K", "K+K"]
    code, out, _ = run(["enumerate", "--size-cap", "3", "--below", "K"])
    assert out.splitlines() == ["0", "1", "psi(K; 0)", "psi(K; K)"]
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    run(["enumerate", "--size-cap", "5", "--out", str(f1)])
    run(["enumerate", "--size-cap", "5", "--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("term, failure", [
    ("psi(K+K; 0)", "regular base: K+K"),
    ("phi(K,0)", "args below top: K"),
])
def test_below_and_descend_validate_their_term(term, failure):
    # an invalid term fails with check's one line, and no census term is
    # printed: the first term's comparisons are undecided, and the second
    # would slice the census as K does
    line = "fail %s: %s\n" % (term, failure)
    assert run(["check", term]) == (1, line, "")
    assert run(["enumerate", "--size-cap", "5", "--below", term]) == (
        1, line, "")
    assert run(["descend", term, "--size-cap", "5"]) == (1, line, "")


def test_enumerate_below_slices_the_census(corpus4):
    # the census terms that compare below the bound, for 0, K, a census
    # term, and a term outside the census
    terms = corpus4.terms
    assert theorem_bound(2, corpus4.params) not in terms
    for bound in ("0", "K", print_ord(terms[len(terms) // 2]),
                  "psi(Om(1); w^(w^(K+1)))"):
        b = parse_ord(bound, corpus4.params)
        want = [print_ord(t) for t in terms if cmp_ord(t, b) == LT]
        code, out, _ = run(["enumerate", "--size-cap", "9", "--below", bound])
        assert code == 0 and out.splitlines() == want, bound
    assert want and len(want) < len(terms)


@pytest.mark.parametrize("n, cap", [(3, 11), (4, 11), (5, 9), (8, 9)])
def test_default_size_cap(monkeypatch, n, cap):
    # enumerate, props and descend without --size-cap take the default
    # cap of the rank; a stand-in census keeps the run small
    caps = []

    def census(params, size_cap):
        caps.append(size_cap)
        return enumerate_corpus(params, 3)

    monkeypatch.setattr(cli, "enumerate_corpus", census)
    for argv in (["enumerate"], ["props"], ["descend", "K"]):
        code, _, err = run(["--big-n", str(n)] + argv)
        assert code == 0, err
    assert caps == [cap] * 3 and default_size_cap(n) == cap


def _prop_line(line):
    name, status, checked, example = re.fullmatch(
        r"(.*?) +(PASS|FAIL)  \((\d+) checked\)(?:  e\.g\. (.*))?",
        line).groups()
    return name, status == "PASS", int(checked), example


@pytest.mark.parametrize("faulted", [False, True])
def test_props_json_lines_match_the_text(monkeypatch, faulted):
    if faulted:       # every collapse term fails "recorded vectors derivable"
        monkeypatch.setattr("piord.oracle.in_sd", lambda vec: None)
    argv = ["props", "--size-cap", "6"]
    code, text, _ = run(argv)
    json_code, out, _ = run(["--format", "json-lines"] + argv)
    assert code == json_code == int(faulted)
    records = [json.loads(x) for x in out.splitlines()]
    lines = text.splitlines()
    assert len(records) == len(lines) == 15
    for rec, line in zip(records[:-1], lines):
        name, ok, checked, example = _prop_line(line)
        assert rec["kind"] == "prop"
        assert (rec["name"], rec["ok"], rec["checked"]) == (name, ok, checked)
        assert len(rec["failures"]) <= 5
        assert rec["failures"][:1] == ([] if ok else [example])
    assert records[-1] == {"kind": "sd-unconfirmed", "count": int(
        re.fullmatch(r"sd-unconfirmed (\d+) .*", lines[-1]).group(1))}
    failed = [rec for rec in records[:-1] if not rec["ok"]]
    assert bool(failed) == faulted
    if faulted:
        assert [r["name"] for r in failed] == ["recorded vectors derivable"]
        assert len(failed[0]["failures"]) == 5 < failed[0]["checked"]


def test_descend_command():
    code, out, _ = run(["descend", "K", "--steps", "50", "--seed", "1",
                        "--size-cap", "5"])
    assert code == 0 and "chain length" in out


def test_props_small():
    code, out, _ = run(["props", "--size-cap", "6", "--triples", "2000"])
    assert code == 0
    assert "FAIL" not in out


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "piord.cli", "cmp", "0", "K"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "<"


def test_piord_leaves_no_garbage_cycles():
    # console_main runs piord without the cyclic collector, so everything
    # a command builds must be freed by reference counts alone: a command
    # that left a cycle would leak it for the rest of the process
    corpus = enumerate_corpus(SystemParams(4), 8)
    spellings = [print_ord(t) for t in corpus.terms]
    vectors = [print_seq(v) for v in corpus.seqs]
    rng = random.Random(31)
    argvs = [["--big-n", "3", "props", "--size-cap", "8"],
             ["props", "--size-cap", "8"]]
    for _ in range(20):
        left, right = rng.sample(spellings, 2)
        argvs += [["cmp", left, right], ["check", left],
                  ["kset", rng.choice(spellings), right], ["mvec", left],
                  ["sd", rng.choice(vectors)],
                  ["bound", "--n", str(rng.randrange(10))]]
    argvs += [["cmp", "phi(0", "K"], ["kset", "0", "psi(K; [1,0]; 1)"],
              ["check", "Om(K)"], ["bound", "--n", "5000"], ["nosuch"],
              ["cmp", "--nosuch", "0", "K"]]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        codes = {run(argv)[0] for argv in argvs}
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_callers_collector(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run(["cmp", "0", "K"])
        run(["enumerate", "--size-cap", "5"])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _console_main_with_exit_hook(argv):
    # the exit hook runs after console_main and before the interpreter's
    # own collections at shutdown; it writes the collections counted
    # since console_main's start, and the objects still tracked, which
    # those shutdown collections would scan (frozen ones are not)
    code = ("import atexit, gc, sys; from piord import cli; n = [0]; "
            "gc.callbacks.append("
            "lambda phase, info: n.__setitem__(0, n[0] + (phase == 'start')));"
            " atexit.register(lambda: sys.stderr.write("
            "'gc %%d tracked %%d\\n' %% (n[0], len(gc.get_objects())))); "
            "sys.argv = ['piord'] + %r; cli.console_main()" % (argv,))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    lines = proc.stderr.splitlines(keepends=True)
    collections, tracked = re.fullmatch(r"gc (\d+) tracked (\d+)\n",
                                        lines.pop()).groups()
    return proc, "".join(lines), int(collections), int(tracked)


def test_console_main_runs_without_the_collector():
    proc, err, collections, tracked = _console_main_with_exit_hook(
        ["enumerate", "--size-cap", "9"])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert len(proc.stdout.splitlines()) == 505
    assert err == "" and collections == 0
    assert tracked < 100        # about 26 000 without the freeze at exit


@pytest.mark.parametrize("argv, code, out, err", [
    (["cmp", "0", "K"], 0, "<\n", ""),
    (["check", "Om(K)"], 1, "fail Om(K): index in range: K\n", ""),
    (["cmp", "--nosuch", "0", "K"], 2, "",
     "error: unrecognized option --nosuch for cmp\n"),
], ids=["cmp", "check-fails", "usage-error"])
def test_console_main_leaves_nothing_to_collect_at_exit(argv, code, out, err):
    # every exit code ends with the heap frozen (about 12 400 tracked
    # objects after `cmp 0 K` without the freeze) and the output main gives
    assert run(argv) == (code, out, err)
    proc, proc_err, collections, tracked = _console_main_with_exit_hook(argv)
    assert (proc.returncode, proc.stdout, proc_err) == (code, out, err)
    assert collections == 0 and tracked < 100


def test_text_commands_import_no_dataclasses_inspect_or_json():
    # measured against the bare interpreter, whose site start-up is not ours
    code = ("import io, sys; before = set(sys.modules); import piord.cli; "
            "piord.cli.main(['cmp', '0', '1'], io.StringIO()); "
            "print(sorted({'argparse', 'dataclasses', 'gettext', 'inspect', "
            "'json', 'locale'} "
            "& (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.strip() == "[]"
    proc = _fresh_cli(["--format", "json-lines", "cmp", "0", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"kind": "cmp", "left": "0",
                                       "right": "1", "result": "<"}


def _fresh_cli(argv):
    return subprocess.run([sys.executable, "-m", "piord.cli"] + argv,
                          capture_output=True, text=True)


def test_a_sum_past_the_numeral_limit_is_refused_before_it_is_built():
    # 4000 summands 1000 (20 KB) would spell a sum of four million ones
    proc = _fresh_cli(["check", "+".join(["1000"] * 4000)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: numeral above 1000 (at position 5)\n"


def test_unwritable_out_is_a_usage_error(tmp_path):
    for out in (tmp_path / "missing" / "x", tmp_path):
        proc = _fresh_cli(["enumerate", "--size-cap", "3", "--out", str(out)])
        assert proc.returncode == 2 and proc.stdout == "", out
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_out_file_holds_what_stdout_prints(tmp_path):
    # neither the file nor the stream may lose buffered output on the way
    # out of a fresh process
    path = tmp_path / "census"
    argv = [sys.executable, "-m", "piord.cli", "enumerate", "--size-cap", "9"]
    printed = subprocess.run(argv, capture_output=True)
    written = subprocess.run(argv + ["--out", str(path)], capture_output=True)
    assert printed.returncode == written.returncode == 0
    assert printed.stderr == written.stdout == written.stderr == b""
    assert len(printed.stdout.splitlines()) == 505
    assert path.read_bytes() == printed.stdout


def test_closed_stdout_exits_1_without_traceback():
    # the census at cap 11 prints 83 kB, more than the pipe and one read
    # hold, so the writer still has output when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "piord.cli", "enumerate", "--size-cap", "11"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_depth_230_in_fresh_process():
    # bound, check, cmp, kset and mvec on towers in cold processes; the
    # next tests take towers deeper
    proc = _fresh_cli(["bound", "--n", "230"])
    assert proc.returncode == 0, proc.stderr[-300:]
    term = proc.stdout.strip()
    assert term.count("w^(") == 230
    proc = _fresh_cli(["check", term])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.startswith("ok ")
    # cmp, kset and mvec at 320 levels
    deep = ["psi(Om(1); " + "w^(" * k + "K+1" + ")" * k + ")"
            for k in (320, 319)]
    proc = _fresh_cli(["cmp"] + deep)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == ">\n"
    proc = _fresh_cli(["mvec", deep[0]])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "[0,0]\n"
    proc = _fresh_cli(["kset", "0", deep[0]])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "{" + "w^(" * 320 + "K+1" + ")" * 320 + "}\n"


def test_depth_450_in_fresh_process():
    # the parser, the printer, K_delta and the comparator each walk a run
    # of w^ levels in one frame, so cmp, kset and mvec are not limited by
    # recursion on towers (the next test takes them to 900); a parser that
    # spent two frames per level, ord and prin, failed near 491, one that
    # spent three near 327, and a comparator that recursed per level near
    # 328
    k = 450
    tower = "w^(" * k + "K+1" + ")" * k
    proc = _fresh_cli(["cmp", "psi(Om(1); %s)" % tower,
                       "psi(Om(1); w^(%s))" % tower])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "<\n"
    proc = _fresh_cli(["mvec", "psi(Om(1); %s)" % tower])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "[0,0]\n"
    proc = _fresh_cli(["kset", "0", "psi(Om(1); %s)" % tower])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "{%s}\n" % tower


def test_depth_900_in_fresh_process():
    # past the 491 levels of a parser that spent two frames per level
    k = 900
    tower = "w^(" * k + "K+1" + ")" * k
    deep = "psi(Om(1); %s)" % tower
    proc = _fresh_cli(["cmp", "psi(Om(1); w^(%s))" % tower, deep])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == ">\n"
    proc = _fresh_cli(["mvec", deep])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "[0,0]\n"
    proc = _fresh_cli(["kset", "0", deep])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "{%s}\n" % tower


def test_too_deep_input_is_a_usage_error():
    # towers are walked in one frame, but every other nesting level costs
    # frames: 600 nested Om( exceed the recursion limit of a cold parser,
    # and 300 that of a cold validator
    for argv in (["cmp", "Om(" * 600 + "1" + ")" * 600, "1"],
                 ["check", "Om(" * 300 + "1" + ")" * 300]):
        proc = _fresh_cli(argv)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_printing_keeps_the_depth_of_the_parser():
    # a nesting level costs the printer two recursion units, the memo
    # table's call and its body, as it costs the parser two frames; a
    # printer that spent three units per level failed json-lines cmp and
    # kset past 329 levels of Om(
    nest = "Om(" * 480 + "1" + ")" * 480
    for argv in (["cmp", nest, "1"], ["kset", "0", nest]):
        proc = _fresh_cli(["--format", "json-lines"] + argv)
        assert proc.returncode == 0, proc.stderr[-300:]
        assert proc.stdout.count("\n") == 1 and proc.stderr == ""
        assert json.loads(proc.stdout)["kind"] == argv[0]


def test_bound_at_max_stage_in_fresh_process():
    # the largest stage: 1000 tower levels, built, printed, parsed and
    # validated each in one frame per tower
    proc = _fresh_cli(["bound", "--n", str(MAX_STAGE)])
    assert proc.returncode == 0, proc.stderr[-300:]
    term = proc.stdout.strip()
    assert term.count("w^(") == MAX_STAGE
    proc = _fresh_cli(["check", term])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "ok %s (Psi9)\n" % term


def test_props_at_rank_68_in_fresh_process():
    # 66- and 97-entry vectors: irreducibility compares tails with towers
    # of up to 96 levels, by walking head exponents instead of building
    # them, and the SD cross-check decides each distinct prefix once.  At
    # N=100, MAX_N, the witness chain nests 197 psi terms, which the
    # comparator takes within a cold process's recursion limit
    for n in (68, 99, 100):
        proc = _fresh_cli(["--big-n", str(n), "props", "--size-cap", "3"])
        assert proc.returncode == 0, proc.stderr[-300:]
        lines = proc.stdout.splitlines()
        assert len(lines) == 15
        assert all(" PASS  (" in x for x in lines[:-1]), lines
        assert lines[-1].startswith("sd-unconfirmed 0 ")


def test_explicit_zero_vector_claim_fails():
    # spelling with an explicit zero vector claims the coefficient rule
    code, out, _ = run(["check", "psi(K; [0,0]; 1)"])
    assert code == 1 and "0 < b" in out
    # the sugar spelling of the same term validates as the plain collapse
    code, out, _ = run(["check", "psi(K; 1)"])
    assert code == 0 and "Psi9" in out


# the guard of each of the psi order's four clauses, with the function of
# order that holds it: clause 1 opens _cmp_psi_psi, and clauses 2-4 are in
# _psi_lt_by, which both sides of a comparison ask; clause 2's is its
# inner guard, because dropping `if c == LT:` would send LT cases into
# clauses 3 and 4 instead of removing clause 2
_PSI_GUARDS = {
    1: ("_cmp_psi_psi", "if pit <= EQ:"),
    2: ("_psi_lt_by", "if kas == GT:"),
    3: ("_psi_lt_by",
        "if kas == GT and not (_ks_lt(t, s) if k is None else k):"),
    4: ("_psi_lt_by", "if c == EQ and s.pi is t.pi:"),
}


def _sample(x):
    y = x + 1
    return y + 1


def test_source_mutant_replaces_exactly_one_occurrence(source_mutant):
    mutant = source_mutant(_sample, "y = x + 1", "y = x + 2")
    assert (mutant(1), _sample(1)) == (4, 3)
    assert mutant.__code__.co_firstlineno == _sample.__code__.co_firstlineno
    assert mutant.__globals__ is _sample.__globals__
    with pytest.raises(ValueError, match="'x - 1' occurs 0 times in _sample"):
        source_mutant(_sample, "x - 1", "x")
    with pytest.raises(ValueError, match="'\\+ 1' occurs 2 times in _sample"):
        source_mutant(_sample, "+ 1", "+ 2")


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("clause", [1, 2, 3, 4])
def test_props_reports_a_census_it_cannot_sort(monkeypatch, source_mutant,
                                               clause, n):
    # without any one clause some census pair is undecided, so the census
    # cannot be sorted: one FAIL line and exit 1, not an error and exit 2
    name, guard = _PSI_GUARDS[clause]
    monkeypatch.setattr(order, name, source_mutant(
        getattr(order, name), guard, "if False:"))
    clear_caches()
    try:
        argv = ["--big-n", str(n), "props", "--size-cap", "8"]
        code, text, err = run(argv)
        json_code, out, json_err = run(["--format", "json-lines"] + argv)
    finally:
        clear_caches()
    assert code == json_code == 1 and err == json_err == ""
    name, ok, checked, example = _prop_line(text.rstrip("\n"))
    assert (name, ok, checked) == ("census order", False, 1)
    assert example.startswith("psi comparison undecided: ")
    assert text.count("\n") == out.count("\n") == 1
    assert json.loads(out) == {"kind": "prop", "name": "census order",
                               "ok": False, "checked": 1,
                               "failures": [example]}


@pytest.mark.parametrize("old, new", [("or GT", "or LT"), ("or LT", "or GT")],
                         ids=["sum-below-its-head", "head-above-its-sum"])
def test_props_sees_a_sum_tie_its_head_the_wrong_way(monkeypatch,
                                                      source_mutant, old, new):
    # the oracle compares with a comparator that turns the tie of a sum
    # and its own head around: the pair suite must see the two directions
    # disagree, a FAIL line and exit 1
    monkeypatch.setattr(oracle, "cmp_ord",
                        source_mutant(order._cmp_ord, old, new))
    clear_caches()
    try:
        argv = ["--big-n", "4", "props", "--size-cap", "8"]
        code, text, err = run(argv)
        json_code, out, json_err = run(["--format", "json-lines"] + argv)
    finally:
        clear_caches()
    assert code == json_code == 1 and err == json_err == ""
    name, ok, checked, example = _prop_line(text.splitlines()[0])
    assert (name, ok) == ("trichotomy+antisymmetry", False) and example
    record = json.loads(out.splitlines()[0])
    assert (record["name"], record["ok"], record["checked"]) == (
        name, False, checked)
    assert record["failures"][0] == example
