"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import random
import time
import pathlib

import pytest

import piord.order as order
from piord.params import SystemParams
from piord.order import EQ, GT, LT, clear_caches, cmp_ord, trim_caches
from piord.validate import check_ot
from piord.arith import theorem_bound
from piord.oracle import (
    check_order_axioms, check_structural_props, default_size_cap,
    descent_probe, enumerate_corpus, sd_cross_check, witness_terms,
)
from piord.syntax import parse_ord, print_ord
from piord.cli import main as cli_main

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"

_corpora = {}


def corpus_for(n):
    if n not in _corpora:
        params = SystemParams(n)
        _corpora[n] = enumerate_corpus(params, default_size_cap(n))
    return _corpora[n]


def report(num, name, detail=""):
    print("ACCEPTANCE %d %-24s PASS  %s" % (num, name, detail))


def test_criterion_1_order_axioms():
    details = []
    for n in (3, 4):
        t0 = time.monotonic()
        params = SystemParams(n)
        corpus = enumerate_corpus(params, default_size_cap(n))
        _corpora[n] = corpus
        assert len(corpus.terms) >= 2_000, \
            "corpus for N=%d has only %d terms" % (n, len(corpus.terms))
        reps = check_order_axioms(corpus, triple_sample=100_000,
                                  seed=20240809)
        dt = time.monotonic() - t0
        for rep in reps:
            assert rep.ok, "N=%d %s" % (n, rep.line())
        assert dt <= 60.0, "N=%d order axioms took %.1fs" % (n, dt)
        details.append("N=%d: %d terms, %.1fs" % (n, len(corpus.terms), dt))
        clear_caches()
    report(1, "order axioms", "; ".join(details))


GATED_PROPS = (
    "head exponent monotonicity",
    "sequence order upward closure",
    "irreducible vector bound",
    "SD necessary conditions",
    "recorded vectors derivable",
    "stage growth along chains",
    "components below stage",
    "rule vs collapsing series",
)


def test_criterion_2_structural_props():
    details = []
    for n in (3, 4):
        reps = {r.name: r for r in check_structural_props(corpus_for(n))}
        for name in GATED_PROPS:
            rep = reps[name]
            assert rep.ok, "N=%d %s" % (n, rep.line())
            assert rep.checked > 0, "N=%d %s is vacuous" % (n, name)
        for rep in reps.values():
            assert rep.ok, "N=%d %s" % (n, rep.line())
        details.append("N=%d: %d props" % (n, len(reps)))
    report(2, "structural propositions", "; ".join(details))


def test_criterion_3_sandwich():
    counts = []
    for n in (3, 4):
        reps = {r.name: r for r in check_structural_props(corpus_for(n))}
        rep = reps["sandwich law"]
        assert rep.ok and rep.checked > 0, "N=%d %s" % (n, rep.line())
        counts.append("N=%d: %d instances" % (n, rep.checked))
    report(3, "sandwich law", "; ".join(counts))


def test_criterion_4_sd_cross_check():
    counts = []
    for n in (3, 4):
        rep, unconfirmed = sd_cross_check(corpus_for(n))
        assert rep.ok, "N=%d %s" % (n, rep.line())
        counts.append("N=%d: %d vectors, %d unconfirmed"
                      % (n, rep.checked, len(unconfirmed)))
    report(4, "SD cross-check", "; ".join(counts))


def test_criterion_5_bound_pipeline():
    t0 = time.monotonic()
    params = SystemParams(4)
    bounds = [theorem_bound(n, params) for n in range(7)]
    for b in bounds:
        assert check_ot(b, params).ok
    for a, b in zip(bounds, bounds[1:]):
        assert cmp_ord(a, b) == LT
    dt = time.monotonic() - t0
    assert dt <= 5.0, "bound pipeline took %.1fs" % dt
    report(5, "bound pipeline", "n=0..6 strictly increasing, %.2fs" % dt)


def _cli_text(argv):
    out = io.StringIO()
    code = cli_main(argv, stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


def _run_cli_subprocess(argv, hashseed):
    import os
    import subprocess
    import sys
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run([sys.executable, "-m", "piord.cli"] + argv,
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_6_determinism(tmp_path):
    # independent processes with different hash seeds must agree bytewise
    cap = str(default_size_cap(4))
    e1 = _run_cli_subprocess(["enumerate", "--size-cap", cap], 1)
    e2 = _run_cli_subprocess(["enumerate", "--size-cap", cap], 2)
    assert e1 == e2

    args = ["props", "--size-cap", "8", "--triples", "20000", "--seed", "7"]
    p1 = _run_cli_subprocess(args, 3)
    p2 = _run_cli_subprocess(args, 4)
    assert p1 == p2

    # and the --out file path produces the same bytes again in-process
    f1 = tmp_path / "e.txt"
    assert _cli_text(["enumerate", "--size-cap", cap,
                      "--out", str(f1)])[0] == 0
    assert f1.read_bytes() == e1
    report(6, "determinism",
           "enumerate cap %s and props byte-identical across processes" % cap)


def test_criterion_7_descent_probes():
    corpus = corpus_for(4)
    start = theorem_bound(2, corpus.params)
    steps = len(corpus.terms) + 1
    hist = {}
    for seed in range(100):
        rep = descent_probe(start, corpus, steps, seed=seed)
        assert rep.hit_bottom, "seed %d did not terminate" % seed
        hist[rep.chain_len] = hist.get(rep.chain_len, 0) + 1
    lines = ["%d %d" % (k, hist[k]) for k in sorted(hist)]
    expected = (ARTIFACTS / "descent_hist_n4.txt").read_text()
    assert "\n".join(lines) + "\n" == expected
    report(7, "descent probes",
           "100 chains terminated; lengths %d..%d"
           % (min(hist), max(hist)))


def test_criterion_8_round_trip_and_cli_cmp(monkeypatch):
    # every census term, witness and bound stage is spelled alike from
    # empty tables, from warm ones and after a checkpoint that empties
    # every table, and each spelling parses back to the same object
    for n in (3, 4):
        corpus = corpus_for(n)
        params = corpus.params
        terms = [*corpus.terms, *witness_terms(params),
                 *(theorem_bound(k, params) for k in range(9))]
        cold = []
        for t in terms:
            clear_caches()
            cold.append(print_ord(t))
        warm = [print_ord(t) for t in terms]
        with monkeypatch.context() as m:
            m.setattr(order, "MEMO_BOUND", 0)
            trim_caches()
            assert print_ord.cache_info().currsize == 0
            trimmed = [print_ord(t) for t in terms]
        assert cold == warm == trimmed == [repr(t) for t in terms]
        for t, text in zip(terms, cold):
            assert parse_ord(text, params) is t
    corpus = corpus_for(4)
    rng = random.Random(20240809)
    terms = corpus.terms
    sym = {LT: "<", EQ: "=", GT: ">"}
    for _ in range(10_000):
        a = terms[rng.randrange(len(terms))]
        b = terms[rng.randrange(len(terms))]
        code, out = _cli_text(["cmp", print_ord(a), print_ord(b)])
        assert code == 0
        assert out.strip() == sym[cmp_ord(a, b)]
    report(8, "round-trip + CLI cmp",
           "full corpora round-trip; 10^4 sampled pairs agree")
