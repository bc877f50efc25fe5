import pytest

from piord.terms import BIG_K, E_ZERO, ONE, ZERO, mk_eord, mk_lamsum
from piord.sd import Base, Extend, in_sd, replay, sd_necessary_conditions
from piord.oracle import _exp_pool, _sparse_vectors, enumerate_corpus
from piord.params import SystemParams

from conftest import from_int

E1 = mk_eord(ONE)
E2 = mk_eord(from_int(2))
EK = mk_eord(BIG_K)


def lam(e, c):
    return mk_lamsum(((e, c),))


def test_base_rule():
    d = in_sd((E_ZERO, EK))
    assert d is not None and d.steps == (Base(BIG_K),)
    assert in_sd((E_ZERO, E_ZERO)).steps == (Base(ZERO),)
    # single-entry vectors (N = 3) are all base instances
    assert in_sd((E2,)) is not None


def test_extension_example():
    # (L^(2)*(1), 1): extend the base (0,1) at position 2 with zeta = 2
    vec = (lam(E2, ONE), E1)
    d = in_sd(vec)
    assert d is not None
    last = d.steps[-1]
    assert isinstance(last, Extend)
    assert last.k == 2 and last.zeta is E2 and last.a is ONE
    assert last.keep_tail
    assert replay(d, 4) == vec


def test_zero_exponent_entry_rejected():
    # extension heads always carry a positive base-power exponent
    assert in_sd((E1, E1)) is None
    assert in_sd((E1, E_ZERO)) is None


def test_tail_must_step_down():
    # (L^(1)*(1), 1) needs (1) below zeta = 1, which fails
    assert in_sd((lam(E1, ONE), E1)) is None
    # but with a zero tail the vector is derivable
    assert in_sd((lam(E1, ONE), E_ZERO)) is not None


def test_replay_roundtrip(corpus4):
    for vec in corpus4.seqs:
        d = in_sd(vec)
        if d is not None:
            assert replay(d, 4) == vec


def test_necessary_conditions():
    ok = sd_necessary_conditions((lam(E2, ONE), E1))
    assert ok.all_hold
    bad = sd_necessary_conditions((lam(E1, ONE), E1))
    assert not bad.irreducible and not bad.all_hold
    zero = sd_necessary_conditions((E_ZERO, E_ZERO))
    assert zero.all_hold
    # the prefix condition asks only for the proper prefixes: [0,L^(K)*(K)]
    # meets all four conditions, yet its last entry is no ordinal and
    # nothing before it can be extended
    vec = (E_ZERO, lam(EK, BIG_K))
    assert in_sd(vec) is None
    assert sd_necessary_conditions(vec).all_hold


def test_prefix_condition_ends_before_the_last_non_zero_entry():
    # with a last entry 0, zero-padding a prefix that reaches past the last
    # non-zero entry gives the vector back, whose own derivation is no
    # condition: these vectors are not derivable, but their shorter
    # prefixes are
    for vec in ((E1, E_ZERO), (E_ZERO, E1, E_ZERO),
                (lam(EK, BIG_K), E_ZERO, E_ZERO)):
        assert in_sd(vec) is None
        assert sd_necessary_conditions(vec).prefixes_in_sd, vec
    # a shorter prefix still counts: [1,0,0] is not derivable
    assert in_sd((E1, E_ZERO, E_ZERO)) is None
    vec = (E1, lam(EK, BIG_K), E_ZERO)
    assert not sd_necessary_conditions(vec).prefixes_in_sd


def test_accepted_implies_conditions(corpus4):
    for vec in corpus4.seqs:
        if in_sd(vec) is not None:
            assert sd_necessary_conditions(vec).all_hold


def _prefixes_in_sd_per_length(seq):
    """The prefix condition as stated: one search per prefix length up to
    the last non-zero entry, including the lengths that repeat a prefix."""
    n = len(seq)
    nz = [j for j, e in enumerate(seq) if e is not E_ZERO]
    return all(in_sd(seq[:i] + (E_ZERO,) * (n - i)) is not None
               for i in range(nz[-1] + 1 if nz else 0))


@pytest.mark.parametrize("n", range(3, 9))
def test_prefix_condition_matches_the_per_length_reference(n):
    # the census vectors, and the sparse vectors of the SD cross-check
    corpus = enumerate_corpus(SystemParams(n), 9)
    exps = [x for x in _exp_pool(corpus, limit=160) if x.size <= 5]
    vecs = list(corpus.seqs) + list(_sparse_vectors(exps, n - 2, 2))
    want = [_prefixes_in_sd_per_length(vec) for vec in vecs]
    got = [sd_necessary_conditions(vec).prefixes_in_sd for vec in vecs]
    assert got == want
    # both outcomes occur from N=4 on
    assert n == 3 or len(set(want)) == 2
