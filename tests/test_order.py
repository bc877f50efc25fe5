import pytest
from hypothesis import given, settings, strategies as st

from piord.errors import BadDelta, InvalidTerm
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ONE, E_ZERO, ONE, ZERO, EOrd, LamSum, Psi, mk_eord, mk_psi,
)
from piord.order import EQ, GT, LT, cmp_exp, cmp_ord, hull_member, k_delta
from piord.arith import (
    add, from_int, omega_exp, omega_idx, psi0, psiK, theorem_bound, veblen,
)
from piord.oracle import (
    _exp_pool, _kset_below, enumerate_corpus, witness_terms,
)
from piord.syntax import parse_ord

P3 = SystemParams(3)
P4 = SystemParams(4)


def t(text, params=P4):
    return parse_ord(text, params)


def test_zero_least():
    assert cmp_ord(ZERO, ONE) == LT
    assert cmp_ord(BIG_K, ZERO) == GT
    assert cmp_ord(ZERO, ZERO) == EQ


def test_strata():
    assert cmp_ord(t("phi(0,0)"), BIG_K) == LT
    assert cmp_ord(t("Om(1)"), BIG_K) == LT
    assert cmp_ord(t("psi(K; 0)"), BIG_K) == LT
    assert cmp_ord(BIG_K, t("w^(K+1)")) == LT
    assert cmp_ord(t("K+K"), t("w^(K+1)")) == LT


def test_sum_lexicographic():
    assert cmp_ord(t("K+1"), t("K+K")) == LT
    assert cmp_ord(t("K"), t("K+K")) == LT
    assert cmp_ord(t("K+K"), t("K+K+K")) == LT
    assert cmp_ord(t("phi(0,0)"), t("K")) == LT
    # a sum above its own head, zero below a sum: both orders
    for low, high in (("K", "K+1"), ("0", "K+1"),
                      ("psi(K; K)", "psi(K; K)+1")):
        assert cmp_ord(t(low), t(high)) == LT, (low, high)
        assert cmp_ord(t(high), t(low)) == GT, (low, high)


def _parts_walk(s, u):
    """The order read off the CNF: lexicographic over the parts, a proper
    prefix below, cmp_ord asked only of principal parts."""
    for a, b in zip(s.parts, u.parts):
        c = cmp_ord(a, b)
        if c != EQ:
            return c
    return (len(s.parts) > len(u.parts)) - (len(s.parts) < len(u.parts))


@pytest.mark.parametrize("params", [P3, P4], ids=["n3", "n4"])
def test_sums_compare_as_the_parts_walk(params):
    # cmp_ord decides a sum against a principal term by the heads alone;
    # every census pair with a sum or zero on a side must agree with the walk
    terms = enumerate_corpus(params, 8).terms
    kinds = set()
    for x in terms:
        for y in terms:
            if len(x.parts) == 1 == len(y.parts):
                continue
            assert cmp_ord(x, y) == _parts_walk(x, y), (x, y)
            kinds.add((min(len(x.parts), 2), min(len(y.parts), 2),
                       x.parts[:1] == y.parts[:1]))
    # sum/principal, principal/sum and sum/sum, each with equal heads and
    # with different ones, and zero against a sum
    assert {(2, 1, True), (1, 2, True), (2, 2, True), (0, 2, False),
            (2, 1, False), (1, 2, False), (2, 2, False)} <= kinds


def test_veblen_comparison():
    assert cmp_ord(t("1"), t("phi(1,0)")) == LT
    assert cmp_ord(t("phi(1,0)"), t("phi(2,0)")) == LT
    assert cmp_ord(t("phi(0,1)"), t("phi(1,0)")) == LT
    assert cmp_ord(t("phi(1,0)"), t("phi(1,1)")) == LT
    assert cmp_ord(t("phi(1,0)"), t("Om(1)")) == LT
    assert cmp_ord(t("2"), t("phi(0,1)")) == LT


def test_omega_sandwich():
    om1, om2 = t("Om(1)"), t("Om(2)")
    p1 = psi0(om1, ZERO, P4)
    p2 = psi0(om2, ZERO, P4)
    assert cmp_ord(om1, p2) == LT                # spec example pair
    assert cmp_ord(p2, om2) == LT
    assert cmp_ord(p1, om1) == LT
    assert cmp_ord(om1, t("Om(2)")) == LT
    assert cmp_ord(p1, p2) == LT


def test_omega_vs_fixed_point_psi():
    pk = psi0(BIG_K, ZERO, P4)
    assert cmp_ord(t("Om(1)"), pk) == LT
    assert cmp_ord(pk, omega_idx(add(pk, ONE))) == LT


def test_psi_clause2_examples():
    assert cmp_ord(psi0(BIG_K, ZERO, P4), psi0(BIG_K, ONE, P4)) == LT
    assert cmp_ord(psi0(BIG_K, ZERO, P4), psiK(ONE, ONE, P4)) == LT


def test_eq_iff_identity():
    a = psi0(BIG_K, ZERO, P4)
    b = psi0(BIG_K, ZERO, P4)
    assert a is b and cmp_ord(a, b) == EQ


def test_cmp_exp_order():
    e1, ek = mk_eord(ONE), mk_eord(BIG_K)
    from piord.terms import E_ZERO, mk_lamsum
    lam1 = mk_lamsum(((e1, ONE),))
    assert cmp_exp(E_ZERO, lam1) == LT
    assert cmp_exp(ek, lam1) == LT              # base-powers above ordinals
    assert cmp_exp(mk_lamsum(((mk_eord(from_int(2)), ONE),)), lam1) == GT
    assert cmp_exp(mk_lamsum(((e1, from_int(5)), (E_ZERO, ONE))), lam1) == GT


def test_cmp_exp_against_a_class_reference(corpus3, corpus4):
    # the pair-lexicographic order must agree with the reading by node
    # class: 0 first, then plain ordinal terms by cmp_ord, then the sums
    for corpus in (corpus3, corpus4):
        pool = list(_exp_pool(corpus))
        pool += [e for w in witness_terms(corpus.params) for e in w.nu]
        pool = list(dict.fromkeys(pool))
        for x in pool:
            for y in pool:
                c = cmp_exp(x, y)
                assert (c == EQ) == (x is y), (x, y)
                assert cmp_exp(y, x) == -c, (x, y)
                if x is E_ZERO and y is not E_ZERO:
                    assert c == LT, y
                if isinstance(x, EOrd) and isinstance(y, LamSum):
                    assert c == LT, (x, y)
                if isinstance(x, EOrd) and isinstance(y, EOrd):
                    assert c == cmp_ord(x.a, y.a), (x, y)


def test_k_delta_examples():
    pk = psi0(BIG_K, BIG_K, P4)                 # psi_K(K)
    assert k_delta(ZERO, pk) == frozenset((BIG_K,))
    assert k_delta(BIG_K, pk) == frozenset()
    assert k_delta(ZERO, BIG_K) == frozenset()
    with pytest.raises(BadDelta):
        k_delta(ONE, pk)
    # no formation rule shapes a top collapse with its entry at slot 2
    with pytest.raises(InvalidTerm):
        k_delta(ZERO, mk_psi(BIG_K, (E_ONE, E_ZERO), ONE))


def test_hull_member_examples():
    pk = psi0(BIG_K, BIG_K, P4)
    assert hull_member(ONE, BIG_K, pk)
    assert not hull_member(BIG_K, ZERO, pk)
    assert hull_member(add(BIG_K, ONE), ZERO, pk)
    with pytest.raises(BadDelta):
        hull_member(BIG_K, ONE, pk)


@pytest.mark.parametrize("params", [P3, P4], ids=["n3", "n4"])
def test_hull_member_matches_the_set_based_test(params):
    terms = enumerate_corpus(params, 7).terms
    deltas = [ZERO, BIG_K] + [x for x in terms if isinstance(x, Psi)][:4]
    outcomes = {True: 0, False: 0}
    for d in deltas:
        for a in terms:
            ks = k_delta(d, a)
            for g in terms:
                below = _kset_below(ks, g)
                assert hull_member(g, d, a) == below, (g, d, a)
                outcomes[below] += 1
    # both answers occur often, so neither side of the walk goes unchecked
    assert outcomes == {True: 41276, False: 11740}


def test_bound_chain_increasing():
    prev = theorem_bound(0, P4)
    for n in range(1, 4):
        cur = theorem_bound(n, P4)
        assert cmp_ord(prev, cur) == LT
        prev = cur


def _pairs_strategy(corpus):
    return st.tuples(st.sampled_from(corpus.terms),
                     st.sampled_from(corpus.terms))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mirror_consistency(data, corpus4):
    a, b = data.draw(_pairs_strategy(corpus4))
    assert cmp_ord(a, b) == -cmp_ord(b, a)
    assert (cmp_ord(a, b) == EQ) == (a is b)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_le_total(data, corpus3):
    a, b = data.draw(_pairs_strategy(corpus3))
    assert cmp_ord(a, b) <= EQ or cmp_ord(b, a) <= EQ
