import itertools

import pytest

from piord.errors import UndefinedOnZero
from piord.terms import E_ZERO, ONE, mk_eord, mk_lamsum
from piord.order import GT, LT, cmp_exp
from piord.cnf import (
    all_parts, exp_add, from_pairs, he, he_iter, irreducible, lx_lt, pairs,
    seq_lt, step_down, te, vec_sp, vec_step_down,
)
from piord.arith import add
from piord.oracle import _exp_pool, _sd_vector_pool, _sparse_vectors
from piord.params import SystemParams

from conftest import from_int

E1 = mk_eord(ONE)
E2 = mk_eord(from_int(2))
E3 = mk_eord(from_int(3))
E5 = mk_eord(from_int(5))


def lam(e, c):
    return mk_lamsum(((e, c),))


# Lambda^2*3 + Lambda^1*2
X = mk_lamsum(((E2, from_int(3)), (E1, from_int(2))))


def test_head_tail_of_cnf():
    assert he(X) is E2 and te(X) is E1


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


def test_te_iter():
    # L^(L^(2))*(1) + L^(L^(1))*(1): the tail walk leaves the head's chain
    x = mk_lamsum(((lam(E2, ONE), ONE), (lam(E1, ONE), ONE)))
    assert te(te(x)) is E1 and he_iter(x, 2) is E2
    assert te(te(te(x))) is E_ZERO
    with pytest.raises(UndefinedOnZero):
        te(E_ZERO)


def test_is_part():
    # the parts of x are the upper segments of its CNF, 0 and x included
    assert all_parts(X) == [X, lam(E2, from_int(3)), E_ZERO]
    assert lam(E1, from_int(2)) not in all_parts(X)


def test_seq_lt():
    assert seq_lt((E1,), X) == (cmp_exp(E1, X) == LT)
    assert seq_lt((E_ZERO, E_ZERO), E1)          # zero vector below 1
    assert not seq_lt((E_ZERO,), E_ZERO)
    assert seq_lt((E1, E_ZERO), lam(E2, ONE))


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
    assert not vec_sp((x,), x)
    assert vec_sp((lam(E1, ONE),), x)
    assert not vec_sp((E1,), E_ZERO)
    assert vec_sp((lam(E1, ONE), E_ZERO), x)
    assert not vec_sp((x,), E_ZERO)


def test_lx_lt():
    l1 = lam(E1, ONE)
    assert lx_lt((E_ZERO, E_ZERO), (l1, E_ZERO))      # nu side vanishes
    assert not lx_lt((E_ZERO, E1), (l1, E_ZERO))      # 1 < he(L^1*1)=1 fails
    assert lx_lt((E_ZERO, E1), (lam(E2, ONE), E_ZERO))
    assert not lx_lt((E1, E_ZERO), (E1, E_ZERO))      # equal vectors
    assert not lx_lt((E1, E_ZERO), (E_ZERO, E_ZERO))  # xi side vanishes
    # nu is non-zero at the first difference, xi only later: nu's head
    # walk to xi's first non-zero entry must be at most that entry
    assert lx_lt((E1, E_ZERO), (E_ZERO, E1))          # he(1) = 0 <= 1
    assert lx_lt((l1, E_ZERO), (E_ZERO, E1))          # he(L^1*1) = 1 <= 1
    assert not lx_lt((lam(E2, ONE), E_ZERO), (E_ZERO, E1))
    assert not lx_lt((E1, E_ZERO, E_ZERO), (E_ZERO, E_ZERO, E1))  # walk ends
    with pytest.raises(IndexError):
        lx_lt((E1,), (E1, E_ZERO))


# The towers and successors that irreducibility is defined by; the library
# decides it by walking head exponents instead, so these build the
# reference it is checked against.

def lam_tower(x, i):
    """The i-fold base-exponential of x."""
    for _ in range(i):
        x = from_pairs(((x, ONE),))
    return x


def exp_succ(x):
    """x + 1 in the exponent algebra (may leave the strict grammar)."""
    ps = x.pairs
    if ps and ps[-1][0] is E_ZERO:
        return from_pairs(ps[:-1] + ((E_ZERO, add(ps[-1][1], ONE)),))
    return from_pairs(ps + ((E_ZERO, ONE),))


def test_lam_tower():
    assert lam_tower(E2, 0) is E2
    assert lam_tower(E1, 1) == lam(E1, ONE)
    assert lam_tower(E_ZERO, 1) is E1          # Lambda^0 = 1
    assert lam_tower(E_ZERO, 2) == lam(E1, ONE)


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


def _ref_tail_violation(vec):
    """The first (i, k) with Tl(vec[i]) below the k-fold tower over
    vec[i+k] + 1, found by building each tower."""
    n = len(vec)
    for i in range(n):
        if vec[i] is E_ZERO:
            continue
        t = from_pairs(vec[i].pairs[-1:])
        for k in range(1, n - i):
            if cmp_exp(t, lam_tower(exp_succ(vec[i + k]), k)) == LT:
                return i, k
    return None


def _ref_reduct(vec):
    """vec with tail summands dropped, at the reference's first violation
    each time, until the reference finds none."""
    vec = tuple(vec)
    while (hit := _ref_tail_violation(vec)) is not None:
        i = hit[0]
        vec = vec[:i] + (from_pairs(vec[i].pairs[:-1]),) + vec[i + 1:]
    return vec


def _agree_with_towers(vecs):
    """Check irreducible against the tower-building reference, on each
    vector and on its reduct; return the tower heights k of the
    reference's violations."""
    heights = set()
    for vec in vecs:
        hit = _ref_tail_violation(vec)
        assert irreducible(vec) == (hit is None), vec
        assert irreducible(_ref_reduct(vec)), vec
        if hit is not None:
            heights.add(hit[1])
    return heights


@pytest.mark.parametrize("n", range(3, 9))
def test_irreducible_matches_tower_reference(n, census_exponents):
    corpus, e_by_size = census_exponents(SystemParams(n), 9)
    exps = [x for x in _exp_pool(corpus, limit=160) if x.size <= 5]
    pool = _sd_vector_pool(e_by_size, n, 6)
    vecs = (list(corpus.seqs) + list(_sparse_vectors(exps, n - 2, 2))
            + [v for cost in pool for v in pool[cost]])
    assert len(vecs) > 80
    # these small vectors violate at one level at most; the next test
    # reaches higher towers
    assert _agree_with_towers(vecs) == (set() if n == 3 else {1})


def test_irreducible_matches_tower_reference_on_high_towers():
    # nested base-powers, so that violations need towers of 2 and 3 levels
    l1, l2 = lam(E1, ONE), lam(E2, ONE)
    exps = [E_ZERO, E1, E2, l1, l2, lam(l1, ONE), lam(l2, ONE),
            lam(lam(l1, ONE), ONE),
            mk_lamsum(((lam(l2, ONE), ONE), (l1, from_int(2))))]
    vecs = itertools.product(exps, repeat=4)
    assert _agree_with_towers(vecs) == {1, 2, 3}


@pytest.mark.parametrize("t, x, k, below", [
    # he_iter(5, 2) is None: the head walk reaches zero before 2 levels
    (E5, E3, 2, True),
    # he^2(t) = 2 equals the entry: L^(L^(2)) < L^(L^(2+1))
    (lam(lam(E2, ONE), ONE), E2, 2, True),
    (lam(lam(E2, ONE), ONE), E1, 2, False),
    (lam(lam(E2, ONE), ONE), E3, 2, True),
], ids=["walk-reaches-zero", "walk-equals-entry", "walk-above-entry",
        "walk-below-entry"])
def test_tower_bound_is_a_head_walk(t, x, k, below):
    assert (cmp_exp(t, lam_tower(exp_succ(x), k)) == LT) is below
    h = he_iter(t, k)
    assert (h is None or cmp_exp(h, x) != GT) is below
    vec = (t,) + (E_ZERO,) * (k - 1) + (x,)
    assert irreducible(vec) == (_ref_tail_violation(vec) is None)
    assert irreducible(_ref_reduct(vec))


def _exp_sample(corpus):
    from piord.oracle import _exp_pool
    return _exp_pool(corpus, limit=60)


def test_is_part_partial_order(corpus4):
    exps = _exp_sample(corpus4)
    parts = {x: set(all_parts(x)) for x in exps}
    for x in exps:
        assert x in parts[x]
    for x in exps[:25]:
        for y in exps[:25]:
            if x in parts[y] and y in parts[x]:
                assert x is y
            for z in exps[:25]:
                if x in parts[y] and y in parts[z]:
                    assert x in parts[z]


def test_step_down_implies_below(corpus4):
    exps = _exp_sample(corpus4)
    for x in exps:
        for y in exps:
            if step_down(x, y):
                assert cmp_exp(x, y) == LT
