import hashlib
import io
import itertools
import json
import pathlib
import random
import sys
import types

import pytest

from piord.errors import BudgetExceeded, ComparisonUndecided, ValidationError
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ONE, E_ZERO, ONE, ZERO, EOrd, LamSum, OmegaExp, OmegaIdx, Psi,
    Sum, Veblen, is_principal, m_at, mk_eord, mk_lamsum, mk_omega_exp,
    mk_omega_idx, mk_psi, mk_sum, mk_veblen,
)
import piord.order
import piord.oracle as oracle
from piord.order import (
    PSI11, PSI12, _k_delta, clear_caches, cmp_exp, cmp_ord, rule_tag, EQ, GT,
    LT,
)
from piord.validate import check_ot
from piord.arith import psi_step, step_vector, theorem_bound
from piord.oracle import (
    check_order_axioms, check_structural_props, descent_probe, enumerate_corpus,
    sd_cross_check, witness_terms,
)
from piord.cnf import te
from piord.sd import Base, Extend, in_sd
from piord.syntax import print_ord, print_seq
from piord.cli import main as cli_main

import reference

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


def test_census_build_comparison_count(monkeypatch):
    # work, not wall time, through a substituted counting comparator,
    # which the census uses as given, so the sorts' pairs go through the
    # memoized comparator and are stored (the library's own path, which
    # stores none of them, is the next test): each size class is sorted
    # as it is built, so the later classes come out nearly sorted and the
    # final sort finds long runs (32 794 calls when only the whole census
    # was sorted); the digests above pin that the census stays the same.
    # Each size step's checkpoint comes before its sort, so the entries
    # the sort makes are there for the next step: here the comparator's
    # body runs 47 099 times from empty tables, 54 006 with the checkpoint
    # after the sort
    calls = [0]
    bodies = [0]

    def counting(x, y):
        calls[0] += 1
        return cmp_ord(x, y)

    def profile(frame, event, arg):
        bodies[0] += event == "call" and frame.f_code is body

    body = piord.order._cmp_ord.__code__
    monkeypatch.setattr(oracle, "cmp_ord", counting)
    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        terms = enumerate_corpus(P4, 11).terms
    finally:
        sys.setprofile(previous)
        clear_caches()
    assert len(terms) == 3029
    assert calls[0] <= 26_886
    assert bodies[0] <= 47_099


@pytest.mark.parametrize("cap, most_entries, most_bodies",
                         [(10, 9_700, None), (11, 17_907, 50_192)])
def test_census_sorts_store_no_top_level_pairs(monkeypatch, cap,
                                               most_entries, most_bodies):
    # work, not wall time, on the library's own path: the sorts ask their
    # pairs through the comparator's uncached body, so only sub-comparisons
    # are stored (16 343 entries at cap 10 and 29 792 at cap 11 when the
    # sorts' pairs were stored too), and the census ends on a checkpoint after its final sort, so it returns no
    # table above the bound.  At cap 11 the table reads 17 905 to 17 907
    # and the body runs 50 190 or 50 191 times, with the order in which a
    # K-set walk visits its terms, which follows their addresses
    sizes = []
    bodies = [0]
    trim = oracle.trim_caches

    def checkpoint():
        sizes.append({m.__name__: m.cache_info().currsize
                      for m in piord.order._MEMOS})
        trim()

    def profile(frame, event, arg):
        bodies[0] += event == "call" and frame.f_code is body

    body = piord.order._cmp_ord.__code__
    monkeypatch.setattr(oracle, "trim_caches", checkpoint)
    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        terms = enumerate_corpus(P4, cap).terms
        left = [m.cache_info().currsize for m in piord.order._MEMOS]
    finally:
        sys.setprofile(previous)
        clear_caches()
    assert len(terms) == {10: 1227, 11: 3029}[cap]
    assert max(left) <= piord.order.MEMO_BOUND
    assert len(sizes) == cap          # each size step from 2, and the end
    assert sizes[-1]["_cmp_ord"] <= most_entries
    if most_bodies is not None:
        assert bodies[0] <= most_bodies


@pytest.mark.parametrize("params", [P3, P4], ids=["n3", "n4"])
def test_census_does_not_depend_on_the_memo(monkeypatch, params):
    # the sorts' pairs asked through the memoized comparator, given as a
    # plain function, put the census in the same order as its body does
    clear_caches()
    own = enumerate_corpus(params, 9).terms
    clear_caches()
    monkeypatch.setattr(oracle, "cmp_ord", lambda x, y: cmp_ord(x, y))
    try:
        memoized = enumerate_corpus(params, 9).terms
    finally:
        clear_caches()
    assert len(own) == len(memoized)
    assert all(a is b for a, b in zip(own, memoized))


def test_pair_suite_sub_comparison_count(monkeypatch):
    # work, not wall time: a psi pair asks t < s from the facts s < t
    # already has, so each comparison asks cmp(pi, t), cmp(b, a) and
    # cmp(ka, s) once (10 053 computed sub-comparisons when t < s asked
    # their mirrors again); with no bound the table keeps every entry, so
    # its size counts them all (the default bound empties it at a
    # checkpoint)
    corpus = enumerate_corpus(P4, 8)
    monkeypatch.setattr(piord.order, "MEMO_BOUND", float("inf"))
    clear_caches()
    try:
        reports = check_order_axioms(corpus)
        info = cmp_ord.cache_info()
    finally:
        clear_caches()
    assert all(r.ok for r in reports)
    assert info.currsize == info.misses <= 8_671


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


@pytest.mark.parametrize("params, digest", [
    (P3, "e3a08b790713e7c98d336253f623fdeafa48f711daf7024978a3e01092680824"),
    (P4, "1c8f08e9522653a6ea43494368226430ea3c08f7eb41eca7be9382f92e7bce6f"),
], ids=["n3", "n4"])
def test_census_is_every_valid_term(params, digest):
    # no generator pruning: the census must be exactly the raw terms that
    # validate (15 275 raw terms at N=3 and 18 999 at N=4, 94 valid); the
    # digest pins every verdict, so each rejection keeps its rule and
    # first failed condition
    try:
        reports = [(t, check_ot(t, params)) for t in _raw_terms(params.n, 7)]
    finally:
        clear_caches()
    valid = {t for t, rep in reports if rep.ok}
    assert valid == set(enumerate_corpus(params, 7).terms)
    assert len(valid) == 94
    verdicts = "\n".join(repr((print_ord(t), rep.rule, rep.failure))
                         for t, rep in reports)
    assert hashlib.sha256(verdicts.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, shaped", [(3, 197), (4, 201)])
def test_psi10_k_sets_are_empty(n, shaped):
    # every raw psi(K; [0,..,0,b]; a) with 0 < b <= a, valid b and a or
    # not: the reference finds K_t(b) and K_t(a) empty, so Psi10 needs no
    # K(b,a) < a check (README, decisions ledger)
    terms = [t for t in _raw_terms(n, 7) if rule_tag(t) == "Psi10"
             and reference.cmp(t.nu[-1].a, t.a) != GT]
    assert len(terms) == shaped
    assert [t for t in terms if reference.kset(t, t.nu[-1].a)
            or reference.kset(t, t.a)] == []
    reference.clear()


def test_census_terms_all_validate(corpus4):
    for t in corpus4.terms:
        assert check_ot(t, corpus4.params).ok


def test_census_sorted_strictly(corpus4, records):
    # the census comes first in the record's pool
    r, k = records[4], len(corpus4.terms)
    assert r.pool[:k] == list(corpus4.terms)
    assert [r.lib[0][i][i + 1] for i in range(k - 1)] == [LT] * (k - 1)


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        enumerate_corpus(P4, 9)


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


def test_six_cases_agree_on_every_psi_pair_at_cap_9(records):
    # the suite "psi comparison cases" checks the 80 smallest psi terms
    # only; here every ordered pair of the cap-9 census plus the witnesses
    # (the first witness, psi(K; [..,K]; K), is a census term too)
    for r, pairs in ((records[3], 27_722), (records[4], 28_392)):
        named = {*r.corpus, *r.witnesses}
        at = [(k, i) for k, i in enumerate(r.psi_at) if r.pool[i] in named]
        assert len(at) * (len(at) - 1) == pairs
        bad = [(r.psis[k], r.psis[m]) for k, i in at for m, j in at
               if i != j and r.six[k][m] != (r.lib[0][i][j] == LT)]
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


def test_undecided_draw_fails_its_suite(monkeypatch):
    # a comparison left undecided while a suite draws its next case (the
    # upward closure filters its candidates with seq_lt) is one failed
    # case that ends that suite; every other suite still reports
    def undecided(vec, xi):
        raise ComparisonUndecided("no clause decides")

    argv = ["--big-n", "4", "props", "--size-cap", "8"]
    out = io.StringIO()
    assert cli_main(argv, out, io.StringIO()) == 0
    before = out.getvalue().splitlines()
    monkeypatch.setattr(oracle, "seq_lt", undecided)
    out, err = io.StringIO(), io.StringIO()
    assert cli_main(argv, out, err) == 1
    lines = out.getvalue().splitlines()
    assert err.getvalue() == ""
    assert [x.split()[0] for x in lines] == [x.split()[0] for x in before]
    assert lines[3] == ("sequence order upward closure FAIL  (1 checked)"
                        "  e.g. no clause decides")
    # the irreducible vector bound calls seq_lt too, but only on its
    # cases, which fail one by one
    assert lines[4].startswith("irreducible vector bound ")
    assert lines[:3] + lines[5:] == before[:3] + before[5:]


def test_undecided_exponent_pool_fails_its_suites(monkeypatch):
    # a comparison left undecided while an exponent pool is built is one
    # failed case of each suite that reads the pool; every other report
    # is still made, and is the same
    def undecided(corpus, limit=220):
        raise ComparisonUndecided("exponent pool undecided")

    def records(code):
        out, err = io.StringIO(), io.StringIO()
        assert cli_main(["--big-n", "4", "--format", "json-lines", "props",
                         "--size-cap", "8"], out, err) == code
        assert err.getvalue() == ""
        return [json.loads(line) for line in out.getvalue().splitlines()]

    before = records(0)
    monkeypatch.setattr(oracle, "_exp_pool", undecided)
    after = records(1)
    assert [r.get("name", r["kind"]) for r in after] == \
        [r.get("name", r["kind"]) for r in before]
    pool_suites = ["head exponent monotonicity",
                   "sequence order upward closure",
                   "irreducible vector bound", "SD cross-check"]
    assert [r for r in after if not r.get("ok", True)] == [
        {"kind": "prop", "name": name, "ok": False, "checked": 1,
         "failures": ["exponent pool undecided"]} for name in pool_suites]
    assert [r for r in after if r.get("name") not in pool_suites] == \
        [r for r in before if r.get("name") not in pool_suites]


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


def _lift(t):
    """The image of an ordinal term at rank N+1: a 0 in front of every
    coefficient vector, at every depth."""
    if isinstance(t, Sum):
        return mk_sum(tuple(map(_lift, t.parts)))
    if isinstance(t, Veblen):
        return mk_veblen(_lift(t.b), _lift(t.g))
    if isinstance(t, OmegaExp):
        return mk_omega_exp(_lift(t.b))
    if isinstance(t, OmegaIdx):
        return mk_omega_idx(_lift(t.b))
    if isinstance(t, Psi):
        return mk_psi(_lift(t.pi), _lift_vec(t.nu), _lift(t.a))
    return t


def _lift_exp(e):
    if isinstance(e, EOrd):
        return mk_eord(_lift(e.a))
    if isinstance(e, LamSum):
        return mk_lamsum(tuple((_lift_exp(x), _lift(c)) for x, c in e.pairs))
    return e


def _lift_vec(v):
    return (E_ZERO,) + tuple(map(_lift_exp, v))


def _lift_steps(d):
    """A derivation's steps as the derivation of the lifted vector reads
    them: each extended position one higher."""
    if d is None:
        return None
    return tuple(Extend(s.k + 1, _lift_exp(s.zeta), _lift(s.a), s.keep_tail)
                 if isinstance(s, Extend) else Base(_lift(s.a))
                 for s in d.steps)


@pytest.mark.parametrize("n, cap", [(3, 12), (4, 12), (5, 11), (6, 11),
                                    (7, 10), (8, 10)])
def test_census_embeds_in_the_next_rank(n, cap, census_exponents):
    # the rank-N census with a 0 in front of every vector is a rank-(N+1)
    # notation in the same order, except the Psi12 terms whose base has
    # its only coefficient at position 2: at N+1 that coefficient sits at
    # position 3, which makes the base a Psi11 base
    corpus, e_by_size = census_exponents(SystemParams(n), cap)
    up = SystemParams(n + 1)
    try:
        kept, rejected = [], []
        for t in corpus.terms:
            image = _lift(t)
            report = check_ot(image, up)
            if report.ok:
                kept.append(image)
            else:
                rejected.append((t, report))
        for t, report in rejected:
            assert rule_tag(t) == PSI12 and len(t.pi.m) == 1, t
            assert m_at(t.pi, 2) is not E_ZERO, t
            assert report.rule == PSI11, t
        assert len(rejected) == (7 if n == 3 else 0)
        assert all(cmp_ord(a, b) == LT for a, b in zip(kept, kept[1:]))
        pool = oracle._sd_vector_pool(e_by_size, n, cap - 3)
        vecs = list(corpus.seqs) + [v for vs in pool.values() for v in vs]
        assert len(vecs) > len(corpus.seqs)
        for v in vecs:
            lifted = in_sd(_lift_vec(v))
            assert _lift_steps(in_sd(v)) == (lifted and lifted.steps), v
    finally:
        clear_caches()


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
    # a sampled draw: 2000 of the C(41, 3) = 10 660 triples, 9 of them
    # holding both terms of the pair
    _, trans = check_order_axioms(corpus, triple_sample=2000)
    assert trans.checked == 2000
    assert trans.failures == ("no clause decides",) * 9


def _faulty_comparator(terms, inverted, undecided, undecided_back):
    # cmp_ord, but the census pairs (i, j) in inverted are answered the
    # wrong way round, those in undecided are left undecided both ways,
    # and those in undecided_back only in the reverse comparison
    index = {t: i for i, t in enumerate(terms)}

    def faulty(x, y):
        i, j = index.get(x, -1), index.get(y, -1)
        if {(i, j), (j, i)} & undecided or (j, i) in undecided_back:
            raise ComparisonUndecided("undecided %d, %d" % (i, j))
        c = cmp_ord(x, y)
        return -c if (i, j) in inverted or (j, i) in inverted else c

    return faulty


def test_pair_failures_keep_row_order(monkeypatch):
    # the pair suite walks column by column, but reports its failures as a
    # row-by-row walk over i < j finds them; the failing pairs are chosen
    # so that the two walks meet them in different orders
    corpus = enumerate_corpus(P4, 6)
    terms = corpus.terms
    inverted = {(0, 9), (2, 3), (1, 7), (4, 30)}
    undecided = {(0, 4), (5, 6), (3, 8), (2, 20)}
    undecided_back = {(1, 5), (6, 12)}       # only the reverse comparison
    faulty = _faulty_comparator(terms, inverted, undecided, undecided_back)
    expected = _reference_axioms(terms, faulty)[0].failures
    assert len(expected) == 10
    failing = inverted | undecided | undecided_back
    by_column = sorted(failing, key=lambda pair: pair[::-1])
    assert by_column[:5] != sorted(failing)[:5]

    monkeypatch.setattr(oracle, "cmp_ord", faulty)
    tri, _ = check_order_axioms(corpus, triple_sample=0)
    assert tri.failures == expected
    # props builds its census with the comparator it checks: hand it the
    # census built above
    monkeypatch.setattr("piord.cli.enumerate_corpus", lambda *_: corpus)
    out = io.StringIO()
    cli_main(["--big-n", "4", "--format", "json-lines", "props",
              "--size-cap", "6", "--triples", "0"], out, io.StringIO())
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    pair_rec = next(r for r in records
                    if r.get("name") == "trichotomy+antisymmetry")
    assert pair_rec["failures"] == list(expected[:5])


def _reference_axioms(terms, comparator=cmp_ord):
    # both order-axiom reports as a plain walk finds them: every pair
    # (i, j), i < j, in row order, then every triple, each from its own
    # comparisons
    def compare(i, j):
        try:
            return comparator(terms[i], terms[j])
        except ComparisonUndecided as exc:
            return str(exc)

    n = len(terms)
    pair_fails, triple_fails = [], []
    for i, j in itertools.combinations(range(n), 2):
        c1 = compare(i, j)
        c2 = c1 if type(c1) is str else compare(j, i)
        if type(c2) is str:
            pair_fails.append(c2)
        elif (c1, c2) != (LT, GT):
            pair_fails.append("%s vs %s: %d/%d" % (
                print_ord(terms[i]), print_ord(terms[j]), c1, c2))
    for i, j, k in itertools.combinations(range(n), 3):
        rs = (compare(i, j), compare(j, k), compare(i, k))
        undecided = [r for r in rs if type(r) is str]
        if undecided:
            triple_fails.append(undecided[0])
        elif rs[0] == rs[1] != rs[2]:
            triple_fails.append("%s, %s, %s" % tuple(
                print_ord(terms[x]) for x in (i, j, k)))
    return [
        oracle.CheckReport("trichotomy+antisymmetry", n * (n - 1) // 2,
                           tuple(pair_fails)),
        oracle.CheckReport("transitivity", n * (n - 1) * (n - 2) // 6,
                           tuple(triple_fails)),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_seeded_pair_faults_match_the_reference(monkeypatch, seed):
    # seeded sets of inverted, undecided and reverse-only undecided census
    # pairs: both reports are the plain walk's, failure for failure and in
    # row order
    corpus = enumerate_corpus(P4, 6)
    terms = corpus.terms
    rng = random.Random(seed)
    chosen = rng.sample(list(itertools.combinations(range(len(terms)), 2)), 9)
    faulty = _faulty_comparator(terms, set(chosen[:3]), set(chosen[3:6]),
                                set(chosen[6:]))
    expected = _reference_axioms(terms, faulty)
    monkeypatch.setattr(oracle, "cmp_ord", faulty)
    assert check_order_axioms(corpus) == expected
    assert len(expected[0].failures) == 9
    assert expected[1].checked == len(terms) * (len(terms) - 1) * (
        len(terms) - 2) // 6
    assert not expected[1].ok


@pytest.mark.parametrize("fault", ["wrong", "undecided"])
def test_unclean_column_is_redone_pair_by_pair(monkeypatch, fault):
    # two psi pairs in the middle of their columns are answered GT
    # forward only, or left undecided; a column walk meets (13, 16)
    # first, a row walk (12, 20).  The two-pass columns that meet them
    # fall back to the pair walk, and the reports are those of a plain
    # walk, failure for failure and in row order
    corpus = enumerate_corpus(P4, 6)
    terms = corpus.terms
    bad = {(terms[i], terms[j]) for i, j in ((12, 20), (13, 16))}
    assert all(isinstance(t, Psi) for pair in bad for t in pair)
    real = piord.order._cmp_psi_psi

    def faulty(s, t):
        if (s, t) not in bad:
            return real(s, t)
        if fault == "wrong":
            return GT
        raise ComparisonUndecided("no clause decides %s" % print_ord(t))

    monkeypatch.setattr(piord.order, "_cmp_psi_psi", faulty)
    clear_caches()
    try:
        expected = _reference_axioms(terms)
        reports = check_order_axioms(corpus)
    finally:
        clear_caches()
    assert reports == expected
    assert expected[0].failures == {
        "wrong": ("psi(K; 1) vs psi(K; [0,K]; K): 1/1",
                  "psi(K; Om(1)) vs psi(K; psi(K; K)): 1/1"),
        "undecided": ("no clause decides psi(K; [0,K]; K)",
                      "no clause decides psi(K; psi(K; K))")}[fault]
    assert not expected[1].ok


def test_equal_part_continues_the_part_walk(monkeypatch):
    # a comparator answering EQ for two distinct psi terms still goes on
    # to the next CNF part, rather than answering EQ or by length
    corpus = enumerate_corpus(P4, 6)
    a, c = corpus.terms[12], corpus.terms[20]
    real = piord.order._cmp_psi_psi
    monkeypatch.setattr(piord.order, "_cmp_psi_psi",
                        lambda s, t: EQ if (s, t) == (a, c) else real(s, t))
    clear_caches()
    try:
        assert cmp_ord(a, c) == EQ
        assert cmp_ord(mk_sum((a, c)), mk_sum((c, a))) == GT
    finally:
        clear_caches()


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


class _Drawn(Exception):
    pass


def test_transitivity_draws_triples_only_after_a_non_lt_result(monkeypatch):
    # with every forward result LT no triple can fail, so none is drawn;
    # one pair answering GT, as in test_transitivity_fault_is_caught, draws
    # them as before
    class NoDraws(random.Random):
        def sample(self, population, k):
            raise _Drawn()

    corpus = enumerate_corpus(P4, 7)
    n = len(corpus.terms)
    assert n * (n - 1) * (n - 2) // 6 > 100_000
    monkeypatch.setattr(oracle, "random", types.SimpleNamespace(Random=NoDraws))
    _, trans = check_order_axioms(corpus)
    assert trans == ("transitivity", 100_000, ())
    assert trans.line().split() == [
        "transitivity", "PASS", "(100000", "checked)"]

    corpus = enumerate_corpus(P4, 6)
    terms = corpus.terms
    psis = [i for i, t in enumerate(terms) if isinstance(t, Psi)]
    ia = psis[0]
    a, c = terms[ia], terms[next(i for i in psis if i > ia + 1)]
    real = piord.order._cmp_psi_psi
    monkeypatch.setattr(piord.order, "_cmp_psi_psi",
                        lambda s, t: GT if (s, t) == (a, c) else real(s, t))
    clear_caches()
    try:
        with pytest.raises(_Drawn):
            check_order_axioms(corpus, triple_sample=1_000)
    finally:
        clear_caches()


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
