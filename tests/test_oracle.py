import hashlib
import io
import itertools
import pathlib
import random
import types

import pytest

from piord.errors import BudgetExceeded, ComparisonUndecided, ValidationError
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ONE, E_ZERO, ONE, ZERO, Psi, is_principal, mk_eord, mk_lamsum,
    mk_omega_exp, mk_omega_idx, mk_psi, mk_sum, mk_veblen,
)
import piord.order
import piord.oracle as oracle
from piord.order import _k_delta, clear_caches, cmp_exp, cmp_ord, GT, LT
from piord.validate import check_ot
from piord.arith import psi_step, step_vector, theorem_bound
from piord.oracle import (
    check_order_axioms, check_structural_props, descent_probe, enumerate_corpus,
    sd_cross_check, witness_terms,
)
from piord.cnf import te
from piord.sd import in_sd
from piord.syntax import print_ord, print_seq
from piord.cli import main as cli_main

GOLDEN = pathlib.Path(__file__).parent / "golden"

P3 = SystemParams(3)
P4 = SystemParams(4)


# one seeded fault per report: (report name, piord.oracle binding, stand-in)
FAULTS = (
    ("head exponent monotonicity", "te", lambda x: x),
    ("sequence order upward closure", "cmp_exp", lambda x, y: LT),
    ("irreducible vector bound", "seq_lt", lambda vec, xi: False),
    ("SD necessary conditions", "replay", lambda d, n: ()),
    ("recorded vectors derivable", "in_sd", lambda vec: None),
    ("stage growth along chains", "cmp_ord", lambda a, b: GT),
    ("components below stage", "cmp_ord", lambda a, b: GT),
    ("component sets of sums", "k_delta", lambda d, t: frozenset({t})),
    ("rule vs collapsing series", "rule_vs_series", lambda t, params: False),
    ("sandwich law", "cmp_ord", lambda a, b: GT),
    ("psi comparison cases", "_six_cases_lt", lambda s, t: True),
    ("SD cross-check", "sd_necessary_conditions",
     lambda vec: types.SimpleNamespace(all_hold=False)),
)


def test_trivial_caps():
    assert len(enumerate_corpus(P4, 0).terms) == 0
    assert [print_ord(t) for t in enumerate_corpus(P4, 1).terms] == ["0", "K"]


def test_census_matches_golden():
    for n, cap, params in ((4, 3, P4), (4, 5, P4), (3, 5, P3)):
        got = "\n".join(print_ord(t)
                        for t in enumerate_corpus(params, cap).terms) + "\n"
        want = (GOLDEN / ("census_n%d_cap%d.txt" % (n, cap))).read_text()
        assert got == want


# (N, cap) -> terms, seqs, sha256 of the printed terms, of the printed seqs
CENSUS_DIGESTS = {
    (3, 10): (1227, 64,
        "c7acced0fc54176694439b396378fbd0baeb6e2498d5ea146ea67c9c5cd143dd",
        "a6ecabedf4d5190381eb18e81d58f615d52d3eee7f72c35e855a52d6b0fdb77f"),
    (4, 10): (1227, 64,
        "ed1d1789ef7126545cdcf58e94af193a89dc943947096b9c028f9d7516374a06",
        "0aa4753dd2ba962b6329160f04a052ac6488c4ec8ce623465cd9cea825d26554"),
    # two terms whose vector carries a base-power entry (the first at cap 11)
    (4, 12): (7594, 345,
        "fd0e16acc708e6cc39f398b6eb4ddc9fc34e0cbac19732347b8a0d276c2c4901",
        "17ef3c58e241359c90db3aa6c99fc45d7ba129416c4b94acaf52f178110f0070"),
    (5, 9): (505, 27,
        "c44dbcb856856c887b3aef97940dfa466cc57f78211e7f65e8349ca26aa20bbb",
        "fe357d2a2144362b5432330871bf1e637d1bbb999f20b7b647d803e867e4229c"),
}


def _sha256_lines(items, show):
    return hashlib.sha256("\n".join(map(show, items)).encode()).hexdigest()


def test_census_digest():
    for (n, cap), want in CENSUS_DIGESTS.items():
        corpus = enumerate_corpus(SystemParams(n), cap)
        got = (len(corpus.terms), len(corpus.seqs),
               _sha256_lines(corpus.terms, print_ord),
               _sha256_lines(corpus.seqs, print_seq))
        assert got == want, (n, cap)


def _raw_terms(n, cap):
    """Every ordinal term of at most cap symbols the raw constructors build
    from smaller raw terms, with no side condition: sum parts in any order,
    every vector of n - 2 exponents (zero entries cost nothing) and
    base-power pairs in any order."""
    ords = {1: [ZERO, BIG_K]}
    exps = {1: [E_ZERO, mk_eord(BIG_K)]}
    pair_seqs = {1: [], 2: []}       # L^(e)*(c) [+ ...] by size

    def splits(s):
        return ((i, s - i) for i in range(1, s))

    for s in range(2, cap + 1):
        out = [mk_sum((p,) + r.parts) for sp, sr in splits(s - 1)
               for p in ords[sp] if is_principal(p)
               for r in ords[sr] if r is not ZERO]
        out += [mk_veblen(b, g) for sb, sg in splits(s - 1)
                for b in ords[sb] for g in ords[sg]]
        out += [mk(b) for b in ords[s - 1]
                for mk in (mk_omega_exp, mk_omega_idx)]
        vecs = {0: [()]}             # cost -> vectors
        for _ in range(n - 2):
            nxt = {}
            for cost, vs in vecs.items():
                nxt.setdefault(cost, []).extend(v + (E_ZERO,) for v in vs)
                for se in range(1, s - 2 - cost):
                    nxt.setdefault(cost + se, []).extend(
                        v + (e,) for v in vs
                        for e in exps[se] if e is not E_ZERO)
            vecs = nxt
        out += [mk_psi(pi, nu, a) for cost, vs in vecs.items()
                for sp, sa in splits(s - 1 - cost)
                for pi in ords[sp] for nu in vs for a in ords[sa]]
        ords[s] = out
        seqs = [((e, c),) for se, sc in splits(s - 1)
                for e in exps[se] for c in ords[sc]]
        seqs += [((e, c),) + rest for se, sr in splits(s - 1)
                 for sc, st in splits(sr - 1)
                 for e in exps[se] for c in ords[sc]
                 for rest in pair_seqs[st]]
        pair_seqs[s] = seqs
        exps[s] = [mk_eord(t) for t in out if t is not ZERO] + [
            mk_lamsum(ps) for ps in seqs
            if len(ps) > 1 or ps[0][0] is not E_ZERO]
    return [t for s in sorted(ords) for t in ords[s]]


@pytest.mark.parametrize("params", [P3, P4], ids=["n3", "n4"])
def test_census_is_every_valid_term(params):
    # no generator pruning: the census must be exactly the raw terms that
    # validate (15 275 raw terms at N=3 and 18 999 at N=4, 94 valid)
    try:
        valid = {t for t in _raw_terms(params.n, 7) if check_ot(t, params).ok}
    finally:
        clear_caches()
    assert valid == set(enumerate_corpus(params, 7).terms)
    assert len(valid) == 94


def test_census_terms_all_validate(corpus4):
    for t in corpus4.terms:
        assert check_ot(t, corpus4.params).ok


def test_census_sorted_strictly(corpus4):
    terms = corpus4.terms
    for a, b in zip(terms, terms[1:]):
        assert cmp_ord(a, b) == LT


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_corpus(P4, 9, budget=100)


def test_determinism_same_process():
    a = enumerate_corpus(P4, 7)
    b = enumerate_corpus(P4, 7)
    assert [print_ord(t) for t in a.terms] == [print_ord(t) for t in b.terms]
    assert a.seqs == b.seqs


def test_order_axioms_small(corpus3, corpus4):
    for c in (corpus3, corpus4):
        for rep in check_order_axioms(c, triple_sample=20000, seed=1):
            assert rep.ok, rep.line()
            assert rep.checked > 0


def test_structural_props_small(corpus3, corpus4):
    for c in (corpus3, corpus4):
        for rep in check_structural_props(c):
            assert rep.ok, rep.line()


def test_six_cases_agree_on_every_psi_pair_at_cap_9(corpus3, corpus4):
    # the suite "psi comparison cases" checks the 80 smallest psi terms
    # only; here every ordered pair of the cap-9 census plus the witnesses
    # (the first witness, psi(K; [..,K]; K), is a census term too)
    for c, pairs in ((corpus3, 27_722), (corpus4, 28_392)):
        psis = [t for t in dict.fromkeys(c.terms + tuple(
            witness_terms(c.params))) if isinstance(t, Psi)]
        assert len(psis) * (len(psis) - 1) == pairs
        bad = [(print_ord(s), print_ord(t)) for s in psis for t in psis
               if s is not t
               and oracle._six_cases_lt(s, t) != (cmp_ord(s, t) == LT)]
        assert bad == []


@pytest.mark.parametrize("name, binding, fault", FAULTS,
                         ids=[f[0] for f in FAULTS])
def test_every_suite_can_fail(monkeypatch, corpus3, name, binding, fault):
    monkeypatch.setattr(oracle, binding, fault)
    if name == "SD cross-check":
        reps = [sd_cross_check(corpus3)[0]]
    else:
        reps = check_structural_props(corpus3)
    rep = next(r for r in reps if r.name == name)
    assert not rep.ok and rep.checked > 0, rep.line()


def test_undecided_comparison_fails_its_suite(monkeypatch, corpus3):
    before = check_structural_props(corpus3)

    def undecided(s, t):
        raise ComparisonUndecided("no clause decides")

    monkeypatch.setattr(oracle, "_six_cases_lt", undecided)
    after = check_structural_props(corpus3)
    assert [(r.name, r.checked) for r in after] == \
        [(r.name, r.checked) for r in before]
    for rep in after:
        assert rep.ok == (rep.name != "psi comparison cases"), rep.line()
        assert rep.ok or rep.failures[0] == "no clause decides"
    out, err = io.StringIO(), io.StringIO()
    assert cli_main(["props", "--size-cap", "7"], out, err) == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 15 and lines[-1].startswith("sd-unconfirmed")
    assert [x for x in lines if " FAIL " in x] == [
        x for x in lines if x.startswith("psi comparison cases")]
    assert err.getvalue() == ""


@pytest.mark.parametrize("n", (3, 4))
def test_props_match_golden(n):
    out = io.StringIO()
    argv = ["--big-n", str(n), "props", "--size-cap", "8"]
    assert cli_main(argv, out, io.StringIO()) == 0
    assert out.getvalue() == (GOLDEN / ("props_n%d_cap8.txt" % n)).read_text()


def test_sd_cross_check_small(corpus4):
    rep, unconfirmed = sd_cross_check(corpus4)
    assert rep.ok, rep.line()
    assert rep.checked > 0
    assert isinstance(unconfirmed, list)


def test_sd_cross_check_reports_an_unconfirmed_vector(p4):
    # [0,L^(K)*(K)] meets the four conditions and has no derivation; the
    # corpus holds no term, only that exponent in its vectors
    lam = mk_lamsum(((mk_eord(BIG_K), BIG_K),))
    corpus = oracle.Corpus(p4, 0, (), ((lam, E_ZERO),))
    rep, unconfirmed = sd_cross_check(corpus)
    assert rep.ok and rep.checked > 0, rep.line()
    assert unconfirmed == [(E_ZERO, lam)]


def test_witnesses_cover_deep_rules(p3, p4):
    rules3 = {check_ot(w, p3).rule for w in witness_terms(p3)}
    assert {"Psi10", "Psi12"} <= rules3
    for params in [p4] + [SystemParams(n) for n in (5, 6, 7, 8)]:
        # one Psi10 start, then twice N-3 Psi11 steps and one Psi12 term
        rules = [check_ot(w, params).rule for w in witness_terms(params)]
        steps = ["Psi11"] * (params.n - 3) + ["Psi12"]
        assert rules == ["Psi10"] + steps + steps, params.n


@pytest.mark.parametrize("n, vectors", [(5, 1261), (6, 2481), (7, 4101),
                                        (8, 6121)])
def test_props_pass_above_rank_4(n, vectors):
    out = io.StringIO()
    argv = ["--big-n", str(n), "props", "--size-cap", "7"]
    assert cli_main(argv, out, io.StringIO()) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 15
    assert all(" PASS  (" in x for x in lines[:-1]), lines
    # the SD cross-check tries the vectors with at most two non-zero
    # entries, 1 + (N-2)*20 + C(N-2,2)*400 over its 21 exponents
    assert lines[-2] == "SD cross-check               PASS  (%d checked)" \
        % vectors


def test_sd_cross_check_vectors_keep_the_product_order(corpus4):
    exps = oracle._exp_pool(corpus4)[:6]
    assert exps[0] is E_ZERO
    for length in range(6):
        sparse = [v for v in itertools.product(exps, repeat=length)
                  if sum(e is not E_ZERO for e in v) <= 2]
        assert list(oracle._sparse_vectors(exps, length, 2)) == sparse
        if length <= 2:
            assert len(sparse) == len(exps) ** length


def _product_pool(e_by_size, n, budget):
    """Every vector of N-2 census exponents within the budget, then the
    derivable non-zero ones, keyed by cost in product order."""
    vecs = [((), 0)]
    for _ in range(n - 2):
        nxt = []
        for vec, used in vecs:
            nxt.append((vec + (E_ZERO,), used))
            for se in range(1, budget - used + 1):
                for e in e_by_size.get(se, ()):
                    if e is not E_ZERO:
                        nxt.append((vec + (e,), used + se))
        vecs = nxt
    out = {}
    for vec, used in vecs:
        if used and in_sd(vec) is not None:
            out.setdefault(used, []).append(vec)
    return out


@pytest.mark.parametrize("n", [5, 6])
def test_sd_vector_pool_is_the_filtered_product(n, census_exponents):
    _, e_by_size = census_exponents(SystemParams(n), 11)
    for budget in range(1, 9):
        want = _product_pool(e_by_size, n, budget)
        got = oracle._sd_vector_pool(e_by_size, n, budget)
        assert list(got.items()) == list(want.items()), budget
    assert sum(map(len, want.values())) == {5: 398, 6: 399}[n]


def test_enumerate_at_rank_20():
    out = io.StringIO()
    argv = ["--big-n", "20", "enumerate", "--size-cap", "11"]
    assert cli_main(argv, out, io.StringIO()) == 0
    assert len(out.getvalue().splitlines()) == 3029


def test_step_vectors_of_an_absorbing_base(p4):
    # the tail exponent of the base's next-to-last entry, 1, is at most its
    # last entry, 1: the appended base-power merges into that entry, so no
    # vector the stepping rule gives validates; the base is not a valid
    # term either (no valid base of this shape is known), and psi_step
    # rejects it
    pi = mk_psi(BIG_K, (mk_lamsum(((E_ONE, ONE),)), E_ONE), ONE)
    stages = [ZERO, ONE, BIG_K]
    ot_by_size = {s: stages for s in range(1, 8)}
    vecs = oracle._step_vectors(pi, 8, ot_by_size, 4)
    assert vecs
    for nus in vecs.values():
        for nu in nus:
            assert all(not check_ot(mk_psi(pi, nu, a), p4).ok
                       for a in stages), print_seq(nu)
    with pytest.raises(ValidationError):
        psi_step(pi, BIG_K, BIG_K, p4)


@pytest.mark.parametrize("n, cap", [(4, 9), (5, 8), (6, 7), (7, 7)])
def test_no_valid_step_base_absorbs(n, cap):
    # every stepping base of the census and of the witness chain: the tail
    # exponent of its next-to-last entry lies above its last entry, so the
    # appended base-power is kept whole
    params = SystemParams(n)
    terms = enumerate_corpus(params, cap).terms + tuple(witness_terms(params))
    bases = [t for t in terms if len(t.m) >= 2]
    assert bases
    for pi in bases:
        prev, last = pi.m[-2], pi.m[-1]
        assert prev is E_ZERO or cmp_exp(te(prev), last) == GT, pi
        entry = step_vector(pi, BIG_K, n)[len(pi.m) - 2]
        assert entry.pairs == prev.pairs + ((last, BIG_K),)


def test_descent_probe(corpus4):
    rep = descent_probe(ZERO, corpus4, 10, seed=0)
    assert rep.chain_len == 0 and rep.hit_bottom

    rep = descent_probe(BIG_K, corpus4, len(corpus4.terms) + 1, seed=3)
    assert rep.hit_bottom
    assert rep.final is corpus4.terms[0]

    start = theorem_bound(2, corpus4.params)
    for seed in range(5):
        rep = descent_probe(start, corpus4, len(corpus4.terms) + 1, seed=seed)
        assert rep.hit_bottom


def test_index_below(corpus4):
    assert corpus4.index_below(ZERO) == 0
    assert corpus4.index_below(corpus4.terms[-1]) == len(corpus4.terms) - 1
    small = enumerate_corpus(P4, 7)
    for i, t in enumerate(small.terms):
        assert small.index_below(t) == i
    outside = theorem_bound(2, P4)
    assert outside not in small.terms
    assert small.index_below(outside) == sum(
        cmp_ord(t, outside) == LT for t in small.terms)


def test_undecided_pair_fails_every_axiom_case_that_needs_it(monkeypatch):
    # one forward pair left undecided: the pair suite fails that pair, and
    # transitivity fails each of the n - 2 triples holding both its terms,
    # each with the message the comparator raised
    corpus = enumerate_corpus(P4, 6)
    terms = corpus.terms
    n = len(terms)
    pair = (terms[3], terms[7])

    def undecided(x, y):
        if (x, y) == pair:
            raise ComparisonUndecided("no clause decides")
        return cmp_ord(x, y)

    monkeypatch.setattr(oracle, "cmp_ord", undecided)
    tri, trans = check_order_axioms(corpus)
    assert tri.name == "trichotomy+antisymmetry"
    assert tri.checked == n * (n - 1) // 2
    assert tri.failures == ("no clause decides",)
    assert trans.checked == n * (n - 1) * (n - 2) // 6
    assert trans.failures == ("no clause decides",) * (n - 2)


def test_mutated_comparator_is_caught(monkeypatch, corpus4):
    import piord.oracle as oracle
    victim = (corpus4.terms[3], corpus4.terms[7])
    real = cmp_ord

    def broken(a, b):
        if (a, b) == victim or (b, a) == victim:
            return 1  # claim GT in both directions
        return real(a, b)

    monkeypatch.setattr(oracle, "cmp_ord", broken)
    reps = oracle.check_order_axioms(corpus4, triple_sample=10, seed=0)
    tri = next(r for r in reps if "trichotomy" in r.name)
    assert not tri.ok and tri.failures


def test_intransitive_comparator_is_caught(monkeypatch):
    corpus = enumerate_corpus(P4, 4)
    a, _, c = corpus.terms[:3]

    def broken(x, y):
        return GT if (x, y) == (a, c) else cmp_ord(x, y)

    monkeypatch.setattr(oracle, "cmp_ord", broken)
    _, trans = check_order_axioms(corpus)
    assert trans.name == "transitivity" and not trans.ok
    assert trans.failures[0] == "0, 1, Om(1)"


def test_unsorted_corpus_is_caught():
    # two swapped terms: every comparison is consistent, but a pair now
    # disagrees with the ascending order the corpus claims
    corpus = enumerate_corpus(P4, 6)
    terms = list(corpus.terms)
    terms[10], terms[20] = terms[20], terms[10]
    swapped = corpus._replace(terms=tuple(terms))
    tri, _ = check_order_axioms(swapped, triple_sample=0)
    assert tri.name == "trichotomy+antisymmetry"
    assert tri.checked == len(terms) * (len(terms) - 1) // 2
    assert not tri.ok
    assert tri.failures[0].endswith(": 1/-1")


def test_antisymmetry_fault_is_caught(monkeypatch):
    # a psi comparison answering LT both ways must not hide behind the memo
    corpus = enumerate_corpus(P4, 7)
    clear_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(piord.order, "_cmp_psi_psi", lambda s, t: LT)
            tri, _ = check_order_axioms(corpus, triple_sample=0)
    finally:
        clear_caches()
    assert tri.name == "trichotomy+antisymmetry"
    assert not tri.ok
    assert tri.failures[0].endswith(": -1/-1")


@pytest.mark.parametrize("params", [P3, P4], ids=["n3", "n4"])
def test_axiom_suites_add_no_memo_entries(params):
    # the triples' comparisons are computed, not stored: the memo holds
    # the same entries with or without them
    corpus = enumerate_corpus(params, 7)
    sizes = []
    try:
        for triples in (0, 20_000):
            clear_caches()
            check_order_axioms(corpus, triple_sample=triples)
            sizes.append((cmp_ord.cache_info().currsize,
                          _k_delta.cache_info().currsize))
    finally:
        clear_caches()
    assert sizes[0] == sizes[1]


def test_transitivity_fault_is_caught(monkeypatch):
    # a psi comparison answering GT for one pair (a, c) with a census term
    # between them must not hide behind the memo a full run has filled
    corpus = enumerate_corpus(P4, 6)
    terms = corpus.terms
    psis = [i for i, t in enumerate(terms) if isinstance(t, Psi)]
    ia = psis[0]
    ic = next(i for i in psis if i > ia + 1)
    a, b, c = terms[ia], terms[ia + 1], terms[ic]
    real = piord.order._cmp_psi_psi
    clear_caches()
    try:
        check_order_axioms(corpus)
        with monkeypatch.context() as m:
            m.setattr(piord.order, "_cmp_psi_psi",
                      lambda s, t: GT if (s, t) == (a, c) else real(s, t))
            _, trans = check_order_axioms(corpus)
    finally:
        clear_caches()
    assert trans.name == "transitivity"
    assert trans.checked == len(terms) * (len(terms) - 1) * (len(terms) - 2) // 6
    assert not trans.ok
    assert trans.failures[0] == "%s, %s, %s" % (
        print_ord(a), print_ord(b), print_ord(c))


@pytest.mark.parametrize("seed", [0, 20240809])
def test_seeded_triples_are_unchanged(seed):
    # above 21 items, the draws of random.sample(range(n), 3), sorted
    for n in (22, 41, 1227):
        rng = random.Random(seed)
        expected = [sorted(rng.sample(range(n), 3)) for _ in range(2000)]
        assert list(oracle._index_triples(n, 2000, seed)) == expected
    for n in (3, 10, 21):
        for i, j, k in oracle._index_triples(n, 2000, seed):
            assert 0 <= i < j < k < n


@pytest.mark.parametrize("triples", [0, 100_000], ids=["pairs", "default"])
def test_each_census_comparison_is_computed_once(monkeypatch, triples):
    # transitivity judges the pair suite's forward results: with every
    # triple of the 41-term census checked, no comparison is made twice
    corpus = enumerate_corpus(P4, 6)
    n = len(corpus.terms)
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return cmp_ord(x, y)

    monkeypatch.setattr(oracle, "cmp_ord", counting)
    tri, trans = check_order_axioms(corpus, triple_sample=triples)
    assert tri.ok and trans.ok
    assert trans.checked == (n * (n - 1) * (n - 2) // 6 if triples else 0)
    assert len(calls) == len(set(calls)) == n * (n - 1)
