"""The single memo mechanism: what clear_caches() empties and keeps, what
the trim_caches() checkpoints bound, and that no output depends on either.
The seven mk_* intern caches are the one unbounded table, by design."""

import io
import itertools
import sys

import pytest

import piord.oracle as oracle
import piord.order as order
import piord.terms as terms
from piord.cli import main
from piord.order import _MEMOS, _cmp_ord, _k_delta, clear_caches, trim_caches
from piord.params import SystemParams
from piord.terms import Psi
from piord.oracle import (
    check_order_axioms, check_structural_props, enumerate_corpus,
)
from piord.syntax import parse_ord
from piord.validate import check_ot


def _reports(corpus):
    return (check_order_axioms(corpus, triple_sample=2_000, seed=3),
            check_structural_props(corpus))


def test_clear_caches_empties_every_table_and_keeps_results(p4):
    clear_caches()
    corpus = enumerate_corpus(p4, 7)
    cold = _reports(corpus)
    warm = _reports(corpus)
    assert {m.__name__ for m in _MEMOS} == {
        "_cmp_ord", "_k_delta", "check_ot", "check_exp", "_search"}
    assert all(m.cache_info().currsize > 0 for m in _MEMOS)
    term = parse_ord("psi(K; [0,1]; 1)", p4)

    clear_caches()
    assert all(m.cache_info().currsize == 0 for m in _MEMOS)
    # interning is not a registered memo table: identity outlives a clear
    assert parse_ord("psi(K; [0,1]; 1)", p4) is term
    assert enumerate_corpus(p4, 7) == corpus
    assert _reports(corpus) == cold == warm


def test_cli_calls_share_validation_entries():
    # each call builds its own SystemParams(4); equal params key one entry
    argv = ["check", "psi(K; [0,1]; 1)"]
    clear_caches()
    main(argv, io.StringIO())
    first = check_ot.cache_info()
    main(argv, io.StringIO())
    second = check_ot.cache_info()
    assert second.currsize == first.currsize > 0
    assert second.hits == first.hits + 1


@pytest.mark.parametrize("n", (3, 4))
def test_results_do_not_depend_on_cache_state(n):
    # every pair's forward comparison and every census K_delta(t), computed
    # by the uncached bodies from empty tables in two orders and warm
    terms = enumerate_corpus(SystemParams(n), 7).terms
    pairs = list(itertools.combinations(terms, 2))
    ksets = list(itertools.product(
        [d for d in terms if isinstance(d, Psi)], terms))
    k_fresh = _k_delta.__wrapped__

    def results(order):
        return ({p: _cmp_ord(*p) for p in order(pairs)},
                {q: k_fresh(*q) for q in order(ksets)})

    try:
        clear_caches()
        ascending = results(list)
        clear_caches()
        descending = results(reversed)
        warm = results(list)
    finally:
        clear_caches()
    assert ascending == descending == warm


def _props(n):
    out = io.StringIO()
    code = main(["--big-n", str(n), "props", "--size-cap", "7"], out,
                io.StringIO())
    return code, out.getvalue()


@pytest.mark.parametrize("n", (3, 4))
def test_props_do_not_depend_on_the_memo(monkeypatch, n):
    # the same report with the tables as they are, with no memo at all,
    # and with a bound so small that every checkpoint empties them
    clear_caches()
    default = _props(n)
    clear_caches()
    memos = {id(m) for m in _MEMOS}
    with monkeypatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name == "piord" or name.startswith("piord."):
                for attr, value in list(vars(module).items()):
                    if id(value) in memos:
                        m.setattr(module, attr, value.__wrapped__)
        unmemoized = _props(n)
    # no binding was missed: not one entry was stored
    assert all(m.cache_info().currsize == 0 for m in _MEMOS)
    monkeypatch.setattr(order, "MEMO_BOUND", 16)
    trimmed = _props(n)
    clear_caches()
    assert default[0] == 0
    assert default == unmemoized == trimmed


def test_trim_bounds_every_table_and_keeps_the_small_ones(monkeypatch, p4):
    clear_caches()
    enumerate_corpus(p4, 8)
    before = [m.cache_info().currsize for m in _MEMOS]
    bound = sorted(before)[len(before) // 2]
    monkeypatch.setattr(order, "MEMO_BOUND", bound)
    try:
        trim_caches()
        after = [m.cache_info().currsize for m in _MEMOS]
    finally:
        clear_caches()
    assert max(before) > bound
    assert max(after) <= bound
    # a table above the bound is emptied, one within it keeps its entries
    assert after == [0 if size > bound else size for size in before]


def test_every_checkpoint_is_reached(monkeypatch, p4):
    calls = []
    monkeypatch.setattr(oracle, "trim_caches", lambda: calls.append(1))
    corpus = enumerate_corpus(p4, 7)
    assert len(calls) == 7 - 1            # once per size step from 2 to 7
    pairs = len(corpus.terms) * (len(corpus.terms) - 1) // 2
    assert pairs > 1024
    calls.clear()
    check_order_axioms(corpus, triple_sample=0)
    assert len(calls) == -(-pairs // 1024)    # after each 1024 cases
    monkeypatch.setattr("piord.cli.trim_caches", lambda: calls.append(1))
    calls.clear()
    for _ in range(32):
        main(["cmp", "0", "1"], io.StringIO())
    assert len(calls) == 2                # once every 16 calls


def test_intern_caches_stay_unbounded(monkeypatch, p4):
    # the intern caches are exactly the seven public constructors
    interns = [f for f in vars(terms).values() if hasattr(f, "cache_info")]
    assert sorted(f.__name__ for f in interns) == sorted(
        name for name in terms.__all__ if name.startswith("mk_"))
    assert all(getattr(terms, f.__name__) is f for f in interns)
    assert len(interns) == 7
    assert all(f.cache_info().maxsize is None for f in interns)
    assert not {id(f) for f in interns} & {id(m) for m in _MEMOS}
    enumerate_corpus(p4, 7)
    sizes = [f.cache_info().currsize for f in interns]
    monkeypatch.setattr(order, "MEMO_BOUND", 0)
    trim_caches()
    assert all(m.cache_info().currsize == 0 for m in _MEMOS)
    assert [f.cache_info().currsize for f in interns] == sizes
