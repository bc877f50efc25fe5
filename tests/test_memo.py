"""The single memo mechanism: what clear_caches() empties and keeps."""

from piord.order import _MEMOS, clear_caches
from piord.oracle import (
    check_order_axioms, check_structural_props, enumerate_corpus,
)
from piord.syntax import parse_ord


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

