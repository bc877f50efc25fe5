import pytest

from piord.errors import CapExceeded, NoWitness, UndefinedOnZero
from piord.terms import BIG_K, E_ZERO, ONE, ZERO, mk_eord, mk_lamsum
from piord.order import EQ, GT, LT, cmp_exp
from piord.cnf import (
    all_parts, exp_add, exp_succ, from_pairs, he, he_iter, head_tail,
    irreducible, irreducible_reduct, is_part, iterated_tail_parts, lam_of,
    lam_tower, lx_lt, pairs, seq_lt, seq_lt_k, sp_le, sp_lt, sp_position,
    step_down, te, te_iter, tl, vec_sp, vec_step_down,
)
from piord.arith import from_int

E1 = mk_eord(ONE)
E2 = mk_eord(from_int(2))
E3 = mk_eord(from_int(3))
E5 = mk_eord(from_int(5))
EK = mk_eord(BIG_K)


def lam(e, c):
    return mk_lamsum(((e, c),))


# Lambda^2*3 + Lambda^1*2
X = mk_lamsum(((E2, from_int(3)), (E1, from_int(2))))


def test_head_tail_of_cnf():
    h, t, hd_, tl_ = head_tail(X)
    assert h is E2 and t is E1
    assert hd_ == lam(E2, from_int(3))
    assert tl_ == lam(E1, from_int(2))


def test_head_tail_degenerate():
    assert he(E2) is E_ZERO and te(E2) is E_ZERO
    assert he(E1) is E_ZERO            # the value 1, by convention
    with pytest.raises(UndefinedOnZero):
        he(E_ZERO)


def test_he_iter():
    x = lam(lam(E1, ONE), ONE)         # L^(L^(1)*(1))*(1)
    assert he_iter(x, 2) is E1
    assert he_iter(x, 3) is E_ZERO
    assert he_iter(x, 4) is None


def test_is_part():
    assert is_part(lam(E2, from_int(3)), X)
    assert is_part(E_ZERO, X)
    assert is_part(X, X)
    assert not is_part(lam(E1, from_int(2)), X)
    assert len(all_parts(X)) == 3


def test_iterated_tail_parts():
    assert iterated_tail_parts((X,), X)
    assert iterated_tail_parts((X, te(X)), X)
    # 5 is not a part of te(L^(1)*(2)) = 1
    assert not iterated_tail_parts((lam(E1, from_int(2)), E5), X)


def test_seq_lt():
    assert seq_lt((E1,), X) == (cmp_exp(E1, X) == LT)
    assert seq_lt((E_ZERO, E_ZERO), E1)          # zero vector below 1
    assert not seq_lt((E_ZERO,), E_ZERO)
    assert seq_lt((E1, E_ZERO), lam(E2, ONE))


def test_seq_lt_k():
    assert not seq_lt_k((E_ZERO, E_ZERO), (E_ZERO, E_ZERO), 2)
    assert seq_lt_k((E_ZERO, E_ZERO), (E_ZERO, E1), 3)
    assert not seq_lt_k((E1, E_ZERO), (E_ZERO, E1), 2)
    with pytest.raises(IndexError):
        seq_lt_k((E1,), (E1, E1), 2)


def test_step_down():
    assert step_down(mk_lamsum(((E2, from_int(2)), (E1, from_int(5)))),
                     lam(E2, from_int(3)))
    assert step_down(E2, E3)                     # plain ordinals: plain order
    assert not step_down(E3, E3)
    assert not step_down(E_ZERO, X)              # two summands: prefix missing
    assert step_down(E_ZERO, lam(E2, from_int(3)))
    assert not step_down(E1, E_ZERO)


def test_vec_step_down():
    assert vec_step_down((E_ZERO,), E1)
    assert vec_step_down((lam(E1, ONE), E_ZERO), lam(E1, from_int(2)))
    assert not vec_step_down((E1,), E1)
    assert vec_step_down((E_ZERO, E_ZERO), E_ZERO)   # vacuous padding


def test_sp_relations():
    x = lam(E1, from_int(2))
    assert sp_le(x, x)
    assert not sp_lt(x, x)
    assert sp_lt(lam(E1, ONE), x)
    assert not sp_lt(E1, E_ZERO)
    assert vec_sp((lam(E1, ONE), E_ZERO), x)
    assert sp_position((lam(E1, ONE),), x) == 0
    with pytest.raises(NoWitness):
        sp_position((x,), E_ZERO)


def test_sp_position_prefers_longest_part():
    # the whole is no witness (prefix coefficient differs); the head part is
    y = mk_lamsum(((E3, from_int(2)), (E2, from_int(2))))
    assert sp_position((lam(E3, ONE),), y) == 1
    assert sp_position((lam(E3, ONE),), lam(E3, from_int(2))) == 0


def test_lx_lt():
    l1 = lam(E1, ONE)
    assert lx_lt((E_ZERO, E_ZERO), (l1, E_ZERO))      # nu side vanishes
    assert not lx_lt((E_ZERO, E1), (l1, E_ZERO))      # 1 < he(L^1*1)=1 fails
    assert lx_lt((E_ZERO, E1), (lam(E2, ONE), E_ZERO))
    assert not lx_lt((E1, E_ZERO), (E1, E_ZERO))      # equal vectors
    assert not lx_lt((E1, E_ZERO), (E_ZERO, E_ZERO))  # xi side vanishes
    with pytest.raises(IndexError):
        lx_lt((E1,), (E1, E_ZERO))


def test_lam_tower():
    assert lam_tower(E2, 0) is E2
    assert lam_tower(E1, 1) == lam(E1, ONE)
    assert lam_tower(E_ZERO, 1) is E1          # Lambda^0 = 1
    assert lam_tower(E_ZERO, 2) == lam(E1, ONE)
    with pytest.raises(CapExceeded):
        lam_tower(E1, 65)                      # one above TOWER_CAP


def test_exp_succ_and_add():
    assert exp_succ(E_ZERO) is E1
    assert exp_succ(E1) is E2
    x = lam(E1, ONE)
    assert pairs(exp_succ(x)) == pairs(x) + ((E_ZERO, ONE),)
    assert exp_add(x, E_ZERO) is x
    assert exp_add(E1, x) is x                 # absorbed below the head
    assert exp_add(lam(E2, ONE), x) == mk_lamsum(((E2, ONE), (E1, ONE)))
    assert exp_add(x, x) == lam(E1, from_int(2))


def test_irreducible():
    assert irreducible((E_ZERO, E_ZERO))
    assert irreducible((lam(E2, ONE), E1))     # Tl = L^2 >= Lambda_1(1+1)
    assert not irreducible((lam(E1, ONE), E1))
    assert irreducible_reduct((lam(E1, ONE), E1)) == (E_ZERO, E1)
    v = (lam(E2, ONE), E1)
    assert irreducible_reduct(v) == v


def test_reduct_always_irreducible(corpus4):
    for vec in corpus4.seqs:
        assert irreducible(irreducible_reduct(vec))


def _exp_sample(corpus):
    from piord.oracle import _exp_pool
    return _exp_pool(corpus, limit=60)


def test_is_part_partial_order(corpus4):
    exps = _exp_sample(corpus4)
    for x in exps:
        assert is_part(x, x)
    for x in exps[:25]:
        for y in exps[:25]:
            if is_part(x, y) and is_part(y, x):
                assert x is y
            for z in exps[:25]:
                if is_part(x, y) and is_part(y, z):
                    assert is_part(x, z)


def test_step_down_implies_below(corpus4):
    exps = _exp_sample(corpus4)
    for x in exps:
        for y in exps:
            if step_down(x, y):
                assert cmp_exp(x, y) == LT
