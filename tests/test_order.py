import pytest

from piord.errors import BadDelta, InvalidTerm
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ONE, E_ZERO, ONE, ZERO, EOrd, LamSum, Psi, mk_eord, mk_psi,
)
from piord.order import EQ, GT, LT, cmp_exp, cmp_ord, k_delta, ks_below
from piord.arith import add, omega_idx, psi0, psiK, theorem_bound
from piord.oracle import enumerate_corpus
from piord.syntax import parse_ord

import reference
from conftest import from_int

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


@pytest.mark.parametrize("n", [3, 4], ids=["n3", "n4"])
def test_sums_compare_as_the_parts_walk(n, records):
    # cmp_ord decides a sum against a principal term by the heads alone;
    # every pair of the cap-9 pool with a sum or zero on a side must get
    # the verdict of the reference, which walks the parts lexicographically
    r, kinds = records[n], set()
    for x, row, want in zip(r.pool, r.lib[0], r.ref):
        for y, got, ref in zip(r.pool, row, want):
            if len(x.parts) == 1 == len(y.parts):
                continue
            assert got == ref, (x, y)
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


def test_cmp_exp_against_a_class_reference(records):
    # the pair-lexicographic order must agree with the reference on every
    # pair of the census's and the witnesses' exponents, and the reference
    # reads them by node class: 0 first, then plain ordinal terms in the
    # order of their ordinals, then the sums
    for r in (records[3], records[4]):
        assert r.exp_lib == r.exp_want
        assert r.exp_order[0] is E_ZERO
        sums = [type(e) is LamSum for e in r.exp_order[1:]]
        assert sums == sorted(sums)
        ords = [e.a for e in r.exp_order if type(e) is EOrd]
        assert ords == sorted(ords, key=r.rank.get)


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
    # hull membership K_delta(alpha) < gamma, decided by ks_below
    pk = psi0(BIG_K, BIG_K, P4)
    assert ks_below(BIG_K, (pk,), ONE)
    assert not ks_below(ZERO, (pk,), BIG_K)
    assert ks_below(ZERO, (pk,), add(BIG_K, ONE))


@pytest.mark.parametrize("params", [P3, P4], ids=["n3", "n4"])
def test_hull_member_matches_the_set_based_test(params):
    # K_d(a) < g as the reference finds it, from its own K-set of a
    terms = enumerate_corpus(params, 7).terms
    deltas = [ZERO, BIG_K] + [x for x in terms if isinstance(x, Psi)][:4]
    outcomes = {True: 0, False: 0}
    for d in deltas:
        for a in terms:
            for g in terms:
                below = reference.below(d, (a,), g)
                assert ks_below(d, (a,), g) == below, (g, d, a)
                outcomes[below] += 1
    reference.clear()
    # both answers occur often, so neither side of the walk goes unchecked
    assert outcomes == {True: 41276, False: 11740}


def test_bound_chain_increasing():
    prev = theorem_bound(0, P4)
    for n in range(1, 4):
        cur = theorem_bound(n, P4)
        assert cmp_ord(prev, cur) == LT
        prev = cur


def test_mirror_consistency(records):
    # every ordered pair of the N=4 pool, from both passes: EQ on the
    # diagonal only, and each verdict the mirror of the reverse pair's
    for got in records[4].lib:
        assert [row[i] for i, row in enumerate(got)] == [EQ] * len(got)
        assert sum(row.count(EQ) for row in got) == len(got)
        assert [[-v for v in col] for col in zip(*got)] == got


def test_le_total(records):
    # every ordered pair of the N=3 pool, from both passes
    for got in records[3].lib:
        assert all(x <= EQ or y <= EQ for row, col in zip(got, zip(*got))
                   for x, y in zip(row, col))
