"""piord decides the order as tests/reference.py does, and a one-line
comparator fault makes the two differ."""

import functools
import gc

import pytest

import reference
from conftest import all_subterms
from piord import oracle, order
from piord.errors import ComparisonUndecided
from piord.params import SystemParams
from piord.syntax import parse_ord
from piord.terms import BIG_K, ZERO, Psi, tower_up

MUTANTS = (("_psi_lt_by", "if c == EQ and s.pi is t.pi:", "if False:"),
           ("_cmp_veblen_any", "cmp_ord(s.b, t) == LT and ", ""),
           ("_k_delta_psi", "_k_delta(delta, a) | ", ""))


@pytest.fixture(autouse=True)
def _emptied_tables():
    # collections would scan the filling tables again and again
    gc.disable()
    reference.clear()
    yield
    reference.clear()
    order.clear_caches()
    gc.enable()


def _table(fn, xs):
    return [[fn(x, y) for y in xs] for x in xs]


def _ranked(xs):
    """xs sorted by the reference, which must put each below the next, and
    the table of every pair's verdict that this order gives."""
    ordered = sorted(xs, key=functools.cmp_to_key(reference.cmp))
    assert {reference.cmp(s, t) for s, t in zip(ordered, ordered[1:])} \
        <= {reference.LT}
    rank = {t: i for i, t in enumerate(ordered)}
    return ordered, rank, _table(
        lambda s, t: (rank[s] > rank[t]) - (rank[s] < rank[t]), xs)


def _check(n, cap, towers=()):
    """Every ordered pair of the census with the witnesses' subterms, of
    their exponents and of the towers, and every K-set, agree."""
    corpus = oracle.enumerate_corpus(SystemParams(n), cap)
    witnesses = oracle.witness_terms(corpus.params)
    subterms = {x for w in witnesses for x in all_subterms(w)}
    pool = [*corpus.terms, *sorted(subterms - set(corpus.terms), key=repr)]
    ordered, rank, want = _ranked(pool)
    assert _table(reference.cmp, pool) == want      # every pair decided
    assert sorted(corpus.terms, key=rank.get) == list(corpus.terms)
    for step in (1, -1):        # every pair ascending, then descending
        order.clear_caches()
        rows = {}
        for s in pool[::step]:
            rows[s] = [order.cmp_ord(s, t) for t in pool[::step]][::step]
            order.trim_caches()
        got = [rows[s] for s in pool]
        assert got == want
        assert [[-v for v in col] for col in zip(*got)] == got
    assert _table(order.cmp_ord, towers) == _ranked(towers)[2]
    exps = [*oracle._exp_pool(corpus), *(e for w in witnesses for e in w.nu)]
    exps = list(dict.fromkeys(exps))
    assert _table(order.cmp_exp, exps) == _ranked(exps)[2]
    psis = [t for t in pool if type(t) is Psi]
    assert _table(oracle._six_cases_lt, psis) == \
        _table(lambda s, t: rank[s] < rank[t], psis)
    for d in [ZERO, BIG_K] + psis:
        sets = [reference.kset(d, a) for a in pool]
        assert [order.k_delta(d, a) for a in pool] == sets
        # K_d(a) < g holds exactly from the first g above the set on
        tops = [max(map(rank.get, ks), default=-1) for ks in sets]
        edges = [(a, g, rank[g] > top) for a, top in zip(pool, tops)
                 for g in ordered[max(top, 0):top + 2]]
        assert [order.ks_below(d, (a,), g) for a, g, _ in edges] == \
            [below for _, _, below in edges]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_library_order_is_the_reference(n, census_towers):
    # N=5 takes towers up to 41 levels high instead of the census's
    bases = [parse_ord(x, SystemParams(n)) for x in (
        "K+1", "K+2", "w^(K+1)+1", "K+K", "w^(K+1)", "w^(w^(K+1))+K")]
    tall = dict.fromkeys(tower_up(b, h) for b in bases
                         for h in (1, 2, 3, 7, 40, 41))
    _check(n, 9, census_towers.get(n, list(tall)))


@pytest.mark.parametrize("name, old, new", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_a_comparator_mutant_disagrees(monkeypatch, source_mutant,
                                       name, old, new):
    monkeypatch.setattr(order, name,
                        source_mutant(getattr(order, name), old, new))
    with pytest.raises((AssertionError, ComparisonUndecided)):
        _check(3, 7)
