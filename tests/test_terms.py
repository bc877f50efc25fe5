import pytest

from piord.errors import MalformedChain
from piord.terms import (
    BIG_K, E_ONE, E_ZERO, ONE, ZERO,
    EOrd, OmegaExp, OmegaIdx, Psi,
    collapsing_series, from_parts, is_principal, is_regular,
    is_successor_term, is_zero_vec, m_at, m_vec,
    mk_eord, mk_lamsum, mk_psi, mk_sum, mk_veblen, mk_omega_exp, mk_omega_idx,
    strip_zeros, tower_down, tower_up, zero_vec,
)
from piord.order import (
    PSI9, PSI10, PSI11, PSI12, clear_caches, cmp_ord, k_delta, rule_tag,
)
from piord import arith
from piord.params import SystemParams
from piord.arith import add, psiK, psi_step, psi0, theorem_bound
from piord.cnf import from_pairs
from piord.oracle import enumerate_corpus, witness_terms
from piord.syntax import parse_ord, print_exp, print_ord
from piord.validate import check_ot

from conftest import all_subterms, from_int

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
    assert collapsing_series(t) == [BIG_K, t]

    pi1 = psiK(ONE, ONE, P4)
    t11 = psi_step(pi1, from_int(2), from_int(2), P4)
    assert collapsing_series(t11) == [BIG_K, pi1, t11]


def test_series_rejects_non_psi():
    with pytest.raises(MalformedChain):
        collapsing_series(mk_omega_idx(ONE))


def test_components():
    assert E_ZERO.comps == frozenset()
    one = mk_eord(ONE)
    assert one.comps == frozenset((ONE,))
    # L^(L^(1)*(1))*(2) has components {1, 2}
    inner = mk_lamsum(((one, ONE),))
    x = mk_lamsum(((inner, from_int(2)),))
    assert x.comps == frozenset((ONE, from_int(2)))


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
    for t in corpus4.terms[:300]:
        for sub in all_subterms(t):
            if sub is not t:
                assert sub.size < t.size


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


# ---------------------------------------------------------------------------
# Towers: heights and shared level lists
# ---------------------------------------------------------------------------

def _ref_height(t):
    """The number of w^ levels of t, found by walking .b."""
    h = 0
    while type(t) is OmegaExp:
        h, t = h + 1, t.b
    return h


def _ref_down(t, k):
    for _ in range(k):
        t = t.b
    return t


def _ref_up(a, k):
    for _ in range(k):
        a = mk_omega_exp(a)
    return a


def _ref_cmp_towers(s, t):
    """The comparator's level-by-level walk for two distinct w^ nodes."""
    s, t = s.b, t.b
    while type(s) is OmegaExp and type(t) is OmegaExp and s is not t:
        s, t = s.b, t.b
    return cmp_ord(s, t)


def _assert_tower_node(t):
    h = t.height
    assert h == _ref_height(t), t
    assert t.levels[h - 1] is t
    base = _ref_down(t, h)
    assert tower_down(t, h) is base and t.levels[0].b is base
    assert tower_down(t, 1) is t.b and tower_down(t, 0) is t
    assert tower_up(base, h) is t and tower_up(t.b, 1) is t


@pytest.fixture(scope="module")
def census_towers():
    """The w^ nodes in the N=3 and N=4 cap-11 censuses, by N."""
    towers = {}
    for params in (P3, P4):
        found = set()
        for t in enumerate_corpus(params, 11).terms:
            found |= {x for x in all_subterms(t) if type(x) is OmegaExp}
        towers[params.n] = sorted(found, key=repr)
    return towers


@pytest.mark.parametrize("n", [3, 4])
def test_census_tower_nodes_know_their_height_and_levels(n, census_towers):
    towers = census_towers[n]
    assert len(towers) > 400
    assert max(t.height for t in towers) >= 3
    for t in towers:
        _assert_tower_node(t)
        for k in range(t.height + 1):
            assert tower_down(t, k) is _ref_down(t, k)


@pytest.mark.parametrize("n", [3, 4])
def test_census_tower_pairs_compare_as_the_level_walk(n, census_towers):
    # psi terms of different ranks do not compare, so pairs stay in one
    towers = census_towers[n]
    for s in towers:
        for t in towers:
            if s is not t:
                assert cmp_ord(s, t) == _ref_cmp_towers(s, t), (s, t)


@pytest.mark.parametrize("text", ["K+1", "w^(K+1)+1"])
def test_tall_towers_know_their_height_and_levels(text):
    base = parse_ord(text, P4)
    levels = [base]
    for _ in range(2000):
        levels.append(mk_omega_exp(levels[-1]))
    top = levels[-1]
    # one list serves the whole tower, its levels in order (another test
    # may have built this tower higher)
    assert top.levels[:2000] == levels[1:]
    assert top.levels is levels[1].levels
    for h, t in enumerate(levels[1:], 1):
        assert t.height == h
        _assert_tower_node(t)
    for k in range(2001):
        assert tower_down(top, k) is levels[2000 - k]
    for h in (0, 1, 2, 999, 2000):
        for k in (0, 1, 2, 1000 - h // 2):
            assert tower_up(levels[h], k) is _ref_up(levels[h], k)


def test_tower_up_builds_missing_levels_once():
    # a base no term has used, so its tower starts empty
    base = parse_ord("w^(K+1)+w^(K+1)+K+5", P4)
    top = tower_up(base, 300)
    assert top.height == 300 and len(top.levels) == 300
    assert top is _ref_up(base, 300)
    assert tower_up(base, 150) is top.levels[149]
    # levels past the top are appended to the same list
    taller = tower_up(top, 10)
    assert taller.levels is top.levels and len(top.levels) == 310
    assert taller is _ref_up(top, 10)
    assert tower_down(taller, 310) is base


def test_towers_of_different_heights_compare_as_the_level_walk():
    bases = [parse_ord(x, P4) for x in (
        "K+1", "K+2", "w^(K+1)+1", "K+K", "w^(K+1)", "w^(w^(K+1))+K")]
    towers = [tower_up(b, h) for b in bases for h in (1, 2, 3, 7, 40, 41)]
    for s in towers:
        for t in towers:
            if s is not t:
                assert cmp_ord(s, t) == _ref_cmp_towers(s, t), (s, t)


def test_tower_work_does_not_grow_with_height(line_events, monkeypatch):
    # every layer takes a tower's levels in one step, so each call runs
    # about as many lines of piord at 20 000 levels as at 20; only the
    # C-level work of the tokenizer and of string repetition grows
    monkeypatch.setattr(arith, "MAX_STAGE", 20_000)
    t = parse_ord("K+1", P4)
    for _ in range(20_000):             # the tower is built once
        t = mk_omega_exp(t)

    def calls(k):
        tower = "w^(" * k + "K+1" + ")" * k
        text = "psi(Om(1); %s)" % tower
        deep = parse_ord(text, P4)
        higher = parse_ord("psi(Om(1); w^(%s))" % tower, P4)
        theorem_bound(k, P4)            # builds its interned nodes
        return {
            # another spelling, so the whole-text memo misses
            "parse": (parse_ord, " %s " % text, P4),
            "cmp_ord": (cmp_ord, deep, higher),
            "cmp_ord towers": (cmp_ord, deep.a, higher.a),
            "check_ot": (check_ot, deep, P4),
            "k_delta": (k_delta, ZERO, deep),
            "print_ord": (print_ord, deep),
            "theorem_bound": (theorem_bound, k, P4),
        }

    def counts(k):
        found = {}
        for name, (fn, *args) in calls(k).items():
            clear_caches()              # every memo table misses
            found[name] = line_events(fn, *args)
        return found

    low, high = counts(20), counts(20_000)
    for name in low:
        assert abs(high[name] - low[name]) <= 10, (name, low, high)
