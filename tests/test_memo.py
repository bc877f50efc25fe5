"""The single memo mechanism: what clear_caches() empties and keeps."""

import io
import itertools

import pytest

from piord.cli import main
from piord.order import _MEMOS, _cmp_ord, _k_delta, clear_caches
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
