import itertools

import pytest
from hypothesis import given, settings, strategies as st

from piord.errors import BadDelta, InvalidTerm
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ONE, E_ZERO, ONE, ZERO, EOrd, LamSum, Psi, mk_eord, mk_psi,
)
import piord.order
from piord.order import (
    EQ, GT, LT, cmp_exp, cmp_ord, hull_member, k_delta, k_delta_set,
    kset_below, le, lt,
)
from piord.cnf import lx_lt
from piord.arith import (
    add, from_int, omega_exp, omega_idx, psi0, psiK, theorem_bound, veblen,
)
from piord.oracle import _exp_pool, enumerate_corpus, witness_terms
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
    assert lt(t("phi(0,0)"), BIG_K)
    assert lt(t("Om(1)"), BIG_K)
    assert lt(t("psi(K; 0)"), BIG_K)
    assert lt(BIG_K, t("w^(K+1)"))
    assert lt(t("K+K"), t("w^(K+1)"))


def test_sum_lexicographic():
    assert lt(t("K+1"), t("K+K"))
    assert lt(t("K"), t("K+K"))
    assert lt(t("K+K"), t("K+K+K"))
    assert lt(t("phi(0,0)"), t("K"))


def test_veblen_comparison():
    assert lt(t("1"), t("phi(1,0)"))
    assert lt(t("phi(1,0)"), t("phi(2,0)"))
    assert lt(t("phi(0,1)"), t("phi(1,0)"))
    assert lt(t("phi(1,0)"), t("phi(1,1)"))
    assert lt(t("phi(1,0)"), t("Om(1)"))
    assert lt(t("2"), t("phi(0,1)"))


def test_omega_sandwich():
    om1, om2 = t("Om(1)"), t("Om(2)")
    p1 = psi0(om1, ZERO, P4)
    p2 = psi0(om2, ZERO, P4)
    assert lt(om1, p2) and lt(p2, om2)          # spec example pair
    assert lt(p1, om1)
    assert lt(om1, t("Om(2)"))
    assert lt(p1, p2)


def test_omega_vs_fixed_point_psi():
    pk = psi0(BIG_K, ZERO, P4)
    assert lt(t("Om(1)"), pk)
    assert lt(pk, omega_idx(add(pk, ONE)))


def test_psi_clause2_examples():
    assert lt(psi0(BIG_K, ZERO, P4), psi0(BIG_K, ONE, P4))
    assert lt(psi0(BIG_K, ZERO, P4), psiK(ONE, ONE, P4))


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


def _ref_psi_lt(s, t):
    """The four-clause test with its K-set tests over union sets."""
    pi, nu, b = s.pi, s.nu, s.a
    ka, xi, a = t.pi, t.nu, t.a
    if cmp_ord(pi, t) <= EQ:
        return True
    c = cmp_ord(b, a)
    if c == LT:
        if cmp_ord(s, ka) == LT:
            ks = k_delta_set(t, (pi, b)) | k_delta_set(t, s.nu_comps)
            if kset_below(ks, a):
                return True
    else:
        if cmp_ord(ka, s) == GT:
            ks = k_delta_set(s, (ka, a)) | k_delta_set(s, t.nu_comps)
            if any(cmp_ord(b, g) <= EQ for g in ks):
                return True
        if c == EQ and pi is ka:
            if kset_below(k_delta_set(t, s.nu_comps), a) and lx_lt(nu, xi):
                return True
    return False


@pytest.mark.parametrize("params", [P3, P4], ids=["n3", "n4"])
def test_psi_clauses_match_the_set_based_tests(params):
    psis = [x for x in enumerate_corpus(params, 8).terms if isinstance(x, Psi)]
    for s, u in itertools.permutations(psis, 2):
        assert piord.order._psi_lt(s, u) == _ref_psi_lt(s, u), (s, u)


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
    for d in deltas:
        for a in terms:
            ks = k_delta(d, a)
            for g in terms:
                assert hull_member(g, d, a) == kset_below(ks, g), (g, d, a)


def test_bound_chain_increasing():
    prev = theorem_bound(0, P4)
    for n in range(1, 4):
        cur = theorem_bound(n, P4)
        assert lt(prev, cur)
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
    assert le(a, b) or le(b, a)
