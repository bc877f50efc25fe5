"""piord decides the order as tests/reference.py does, and a one-line
comparator fault makes the two differ."""

import pytest

import reference
from conftest import build_record
from piord import order
from piord.errors import ComparisonUndecided

MUTANTS = (("_psi_lt_by", "if c == EQ and s.pi is t.pi:", "if False:"),
           ("_cmp_veblen_any", "cmp_ord(s.b, t) == LT and ", ""),
           ("_k_delta_psi", "_k_delta(delta, a) | ", ""))


def _assert_agrees(r):
    """The reference puts each item of r below the next, and every ordered
    pair, K-set and K-set test of r agree."""
    assert {*r.steps, *r.tower_steps, *r.exp_steps} <= {reference.LT}
    assert r.ref == r.want                          # every pair decided
    assert sorted(r.corpus, key=r.rank.get) == list(r.corpus)
    for got in r.lib:
        assert got == r.want
        assert [[-v for v in col] for col in zip(*got)] == got
    assert r.tower_lib == r.tower_want
    assert r.exp_lib == r.exp_want
    assert r.six == [[r.rank[s] < r.rank[t] for t in r.psis] for s in r.psis]
    assert r.kset_lib == r.kset_ref


@pytest.mark.parametrize("n", [3, 4, 5])
def test_library_order_is_the_reference(n, records):
    _assert_agrees(records[n])


@pytest.mark.parametrize("name, old, new", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_a_comparator_mutant_disagrees(monkeypatch, source_mutant,
                                       name, old, new):
    monkeypatch.setattr(order, name,
                        source_mutant(getattr(order, name), old, new))
    with pytest.raises((AssertionError, ComparisonUndecided)):
        _assert_agrees(build_record(3, 7))
