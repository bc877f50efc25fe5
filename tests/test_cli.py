import io
import json
import subprocess
import sys

import pytest

from piord import cli
from piord.cli import main
from piord.arith import MAX_STAGE, theorem_bound
from piord.syntax import MAX_NUMERAL, parse_ord
from piord.terms import BIG_K, ONE, ZERO, m_vec


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


def test_parser_usage_errors_print_one_line():
    for argv in (["cmp", "K"], ["--bogus", "cmp", "0", "1"], ["nosuch"],
                 ["--format", "xml", "cmp", "0", "1"],
                 ["props", "--triples", "-1"]):
        code, out, err = run(argv)
        assert code == 2 and out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    code, out, err = run(["cmp", "--help"])
    assert code == 0 and out.startswith("usage: piord cmp") and err == ""


def test_numbers_past_their_limit_are_usage_errors():
    for argv in (["check", "99999999999999999999"],
                 ["check", str(MAX_NUMERAL + 1)],
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


def test_text_commands_import_no_dataclasses_inspect_or_json():
    # measured against the bare interpreter, whose site start-up is not ours
    code = ("import io, sys; before = set(sys.modules); import piord.cli; "
            "piord.cli.main(['cmp', '0', '1'], io.StringIO()); "
            "print(sorted({'dataclasses', 'inspect', 'json'} "
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


def test_depth_230_in_fresh_process():
    # a cold process handles up to 244 tower levels; a memo wrapper that
    # added a frame per recursion level would lower that limit
    proc = _fresh_cli(["bound", "--n", "230"])
    assert proc.returncode == 0, proc.stderr[-300:]
    term = proc.stdout.strip()
    assert term.count("w^(") == 230
    proc = _fresh_cli(["check", term])
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.startswith("ok ")
    # parsing sets the cold limit of cmp, kset and mvec, 327 levels; a
    # parser that spent one more frame per level would fail near 245
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


def test_too_deep_input_is_a_usage_error():
    # 300 tower levels exceed the recursion limit of a cold process
    proc = _fresh_cli(["bound", "--n", "300"])
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_explicit_zero_vector_claim_fails():
    # spelling with an explicit zero vector claims the coefficient rule
    code, out, _ = run(["check", "psi(K; [0,0]; 1)"])
    assert code == 1 and "0 < b" in out
    # the sugar spelling of the same term validates as the plain collapse
    code, out, _ = run(["check", "psi(K; 1)"])
    assert code == 0 and "Psi9" in out
