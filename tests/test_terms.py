import pytest

from piord.errors import MalformedChain
from piord.terms import (
    BIG_K, E_ONE, E_ZERO, ONE, ZERO,
    EOrd, OmegaIdx, Psi,
    all_subterms, collapsing_series, from_parts, is_principal, is_regular,
    is_successor_term, is_zero_vec, k_components, m_at, m_vec,
    mk_eord, mk_lamsum, mk_psi, mk_sum, mk_veblen, mk_omega_idx,
    pd, pd_iter, prec, prec_eq, strip_zeros, zero_vec,
)
from piord.order import PSI9, PSI10, PSI11, PSI12, rule_tag
from piord.params import SystemParams
from piord.arith import add, from_int, psiK, psi_step, psi0
from piord.cnf import from_pairs
from piord.oracle import enumerate_corpus, witness_terms
from piord.syntax import parse_ord, print_exp, print_ord

P3 = SystemParams(3)
P4 = SystemParams(4)


def test_interning_gives_identity():
    assert mk_veblen(ZERO, ZERO) is ONE
    assert mk_sum((ONE, ONE)) is mk_sum((ONE, ONE))
    assert mk_eord(BIG_K) is mk_eord(BIG_K)


def test_cached_constructors_are_positional_only():
    # a keyword call would key a second cache entry for the same shape
    with pytest.raises(TypeError):
        mk_veblen(b=ONE, g=ZERO)
    with pytest.raises(TypeError):
        mk_eord(a=ONE)
    with pytest.raises(TypeError):
        mk_psi(BIG_K, (E_ZERO, E_ONE), a=ONE)
    # sequences are passed as tuples: a list is not a cache key
    with pytest.raises(TypeError):
        mk_sum([ONE, ONE])
    with pytest.raises(TypeError):
        mk_lamsum([(E_ONE, ONE)])


def test_repr_is_the_grammar_printer():
    for params in (P3, P4):
        corpus = enumerate_corpus(params, 7)
        for term in corpus.terms:
            assert repr(term) == print_ord(term)
        for vec in corpus.seqs:
            for e in vec:
                assert repr(e) == print_exp(e)
    # a printed failure detail can be pasted back into the parser
    t = parse_ord("psi(K; [0,1]; 2)", P4)
    assert parse_ord(repr(t), P4) is t


def test_cnf_views_round_trip():
    assert ZERO.parts == () and E_ZERO.pairs == ()
    for params in (P3, P4):
        terms = enumerate_corpus(params, 7).terms
        terms += tuple(witness_terms(params))
        assert len(terms) > 50
        for t in terms:
            assert from_parts(t.parts) is t, t
            assert (len(t.parts) == 1) == is_principal(t), t
            for x in getattr(t, "nu", ()):
                assert from_pairs(x.pairs) is x, x


def test_term_size_atoms():
    assert ZERO.size == 1
    assert BIG_K.size == 1
    assert ONE.size == 3          # phi, 0, 0


def test_term_size_psi_zero_vector():
    t = psi0(BIG_K, ZERO, P4)
    assert t.size == 3            # psi, K, 0


def test_term_size_lamsum():
    # one base-power: Lambda, exponent 1 (3 symbols), coefficient 2 (7)
    x = mk_lamsum(((mk_eord(ONE), from_int(2)),))
    assert x.size == 1 + 3 + 7


def test_sum_size_counts_separators():
    assert from_int(2).size == 7
    assert add(BIG_K, BIG_K).size == 3


def test_pd_and_series():
    t = psi0(BIG_K, ZERO, P4)
    assert pd(t) is BIG_K
    assert pd(BIG_K) is None
    assert collapsing_series(t) == [BIG_K, t]

    pi1 = psiK(ONE, ONE, P4)
    t11 = psi_step(pi1, from_int(2), from_int(2), P4)
    assert pd(t11) is pi1
    chain = collapsing_series(t11)
    assert len(chain) - 1 == 2 and chain[0] is BIG_K


def test_series_rejects_non_psi():
    with pytest.raises(MalformedChain):
        collapsing_series(mk_omega_idx(ONE))


def test_prec():
    pi1 = psiK(ONE, ONE, P4)
    t11 = psi_step(pi1, from_int(2), from_int(2), P4)
    assert prec(t11, BIG_K)
    assert prec(t11, pi1)
    assert not prec(BIG_K, t11)
    assert prec_eq(t11, t11)
    assert pd_iter(t11, 2) is BIG_K


def test_components():
    assert k_components(E_ZERO) == frozenset()
    one = mk_eord(ONE)
    assert k_components(one) == frozenset((ONE,))
    # L^(L^(1)*(1))*(2) has components {1, 2}
    inner = mk_lamsum(((one, ONE),))
    x = mk_lamsum(((inner, from_int(2)),))
    assert k_components(x) == frozenset((ONE, from_int(2)))


def test_successor_shape():
    assert is_successor_term(ONE)
    assert is_successor_term(add(BIG_K, ONE))
    assert not is_successor_term(BIG_K)
    assert not is_successor_term(ZERO)


def _nonzero_positions(t):
    return tuple(i for i, e in enumerate(t.m, 2) if e is not E_ZERO)


def test_m_profile():
    om2 = mk_omega_idx(from_int(2))
    assert _nonzero_positions(om2) == (2,)
    assert m_at(om2, 2) is mk_eord(ONE)
    om_limit = mk_omega_idx(mk_veblen(ZERO, ONE))
    assert _nonzero_positions(om_limit) == ()
    t = psiK(ONE, ONE, P4)
    assert _nonzero_positions(t) == (3,)


# The recorded coefficients as they were read off each node's class before
# the constructors stored them in the ``m`` slot: the reference for the slot.

def _ref_m_at(t, i):
    if isinstance(t, Psi):
        j = i - 2
        return t.nu[j] if 0 <= j < len(t.nu) else E_ZERO
    if isinstance(t, OmegaIdx) and i == 2 and is_successor_term(t.b):
        return E_ONE
    return E_ZERO


def _ref_m_profile(t):
    if isinstance(t, Psi):
        return tuple(i + 2 for i, e in enumerate(t.nu) if e is not E_ZERO)
    if isinstance(t, OmegaIdx) and is_successor_term(t.b):
        return (2,)
    return ()


def _ref_m_vec(t, params):
    if isinstance(t, Psi):
        return t.nu
    vec = zero_vec(params.n)
    if isinstance(t, OmegaIdx) and is_successor_term(t.b):
        return (E_ONE,) + vec[1:]
    return vec


def _ref_is_regular(pi):
    if pi is BIG_K:
        return True
    if isinstance(pi, (OmegaIdx, Psi)):
        return bool(_ref_m_profile(pi))
    return False


def _ref_rule_tag(t):
    if is_zero_vec(t.nu):
        return PSI9
    if t.pi is BIG_K:
        body, last = t.nu[:-1], t.nu[-1]
        return PSI10 if is_zero_vec(body) and isinstance(last, EOrd) else None
    prof = _ref_m_profile(t.pi)
    if not prof:
        return None
    return PSI11 if prof[-1] >= 3 else PSI12


@pytest.mark.parametrize("n", [3, 4])
def test_m_slot_matches_class_reference(n, corpus3, corpus4):
    params = SystemParams(n)
    corpus = corpus3 if n == 3 else corpus4
    terms = set(corpus.terms)
    for w in witness_terms(params):
        terms |= all_subterms(w)
    rules = set()
    for t in terms:
        assert not t.m or t.m[-1] is not E_ZERO, t
        assert is_regular(t) == _ref_is_regular(t), t
        if t is BIG_K:
            continue
        for i in params.logical_indices():
            assert m_at(t, i) is _ref_m_at(t, i), (t, i)
        assert _nonzero_positions(t) == _ref_m_profile(t), t
        assert m_vec(t, params) == _ref_m_vec(t, params), t
        if isinstance(t, Psi):
            rules.add(rule_tag(t))
            assert rule_tag(t) == _ref_rule_tag(t), t
    # every formation rule (the stepping rule needs N >= 4) and a
    # successor-Omega base are exercised
    assert rules == {PSI9, PSI10, PSI12} | ({PSI11} if n >= 4 else set())
    assert any(isinstance(t, OmegaIdx) and t.m for t in terms)


def test_strip_zeros():
    one = mk_eord(ONE)
    assert strip_zeros((one, E_ZERO)) == (one,)
    assert strip_zeros((E_ZERO, E_ZERO)) == ()
    assert strip_zeros((E_ZERO, one)) == (E_ZERO, one)


def test_size_decreases_to_subterms(corpus4):
    from piord.terms import all_subterms
    for t in corpus4.terms[:300]:
        for sub in all_subterms(t):
            if sub is not t:
                assert sub.size < t.size


def test_prec_strict_partial_order(corpus4):
    psis = [t for t in corpus4.terms if pd(t) is not None]
    for t in psis:
        assert not prec(t, t)
    # chains are linear, so transitivity follows from chain membership
    for t in psis[:100]:
        chain = []
        cur = t
        while pd(cur) is not None:
            cur = pd(cur)
            chain.append(cur)
        for i, u in enumerate(chain):
            for v in chain[i + 1:]:
                assert prec(t, u) and prec(t, v)
                if pd(u) is not None:
                    assert prec(u, v)


def test_series_reaches_top_on_mahlo_chains(corpus4):
    from piord.terms import OmegaIdx, Psi
    for t in corpus4.terms:
        if not isinstance(t, Psi):
            continue
        chain_breaks = False
        cur = t
        while isinstance(cur, Psi):
            cur = cur.pi
        if isinstance(cur, OmegaIdx):
            with pytest.raises(MalformedChain):
                collapsing_series(t)
        else:
            assert collapsing_series(t)[0] is BIG_K
