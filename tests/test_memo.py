"""The single memo mechanism: what clear_caches() empties and keeps, what
the trim_caches() checkpoints bound, and that no output depends on either.
The seven mk_* intern caches are the one unbounded table, by design."""

import io
import itertools
import sys

import pytest

import piord.oracle as oracle
import piord.order as order
import piord.terms as terms
from piord.cli import main
from piord.order import (
    _MEMOS, _cmp_ord, _k_delta, clear_caches, k_delta, trim_caches,
)
from piord.errors import OrdSyntaxError
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ZERO, ONE, ZERO, Psi, is_zero_vec, mk_omega_exp, mk_omega_idx,
)
from piord.oracle import (
    check_order_axioms, check_structural_props, enumerate_corpus,
)
from piord.syntax import (
    _Parser, _parse, parse_ord, parse_ord_claims, parse_seq, print_ord,
    print_seq,
)
from piord.validate import check_ot

from conftest import FLAT


def _reports(corpus):
    return (check_order_axioms(corpus, triple_sample=2_000, seed=3),
            check_structural_props(corpus))


def test_clear_caches_empties_every_table_and_keeps_results(p4):
    clear_caches()
    corpus = enumerate_corpus(p4, 7)
    cold = _reports(corpus)
    warm = _reports(corpus)
    term = parse_ord("psi(K; [0,1]; 1)", p4)
    main(["cmp", "0", "1"], io.StringIO())     # fills cli's params table
    main(["check", "K"], io.StringIO())        # and the printer's
    assert {m.__name__ for m in _MEMOS} == {
        "_cmp_ord", "_k_delta", "_kset", "check_ot", "check_exp", "_search",
        "_parse", "print_ord", "SystemParams"}
    assert all(m.cache_info().currsize > 0 for m in _MEMOS)

    clear_caches()
    assert all(m.cache_info().currsize == 0 for m in _MEMOS)
    # interning is not a registered memo table: identity outlives a clear
    assert parse_ord("psi(K; [0,1]; 1)", p4) is term
    assert enumerate_corpus(p4, 7) == corpus
    assert _reports(corpus) == cold == warm


def test_cli_calls_share_validation_entries():
    # every call shares one SystemParams(4), so its entries are reused
    argv = ["check", "psi(K; [0,1]; 1)"]
    clear_caches()
    main(argv, io.StringIO())
    first = check_ot.cache_info()
    main(argv, io.StringIO())
    second = check_ot.cache_info()
    assert second.currsize == first.currsize > 0
    assert second.hits == first.hits + 1


@pytest.mark.parametrize("n", (3, 4))
def test_results_do_not_depend_on_cache_state(n):
    # every pair's forward comparison and every census K_delta(t), computed
    # by the uncached bodies from empty tables in two orders and warm
    terms = enumerate_corpus(SystemParams(n), 7).terms
    pairs = list(itertools.combinations(terms, 2))
    ksets = list(itertools.product(
        [d for d in terms if isinstance(d, Psi)], terms))
    k_fresh = _k_delta.__wrapped__

    def results(order):
        return ({p: _cmp_ord(*p) for p in order(pairs)},
                {q: k_fresh(*q) for q in order(ksets)})

    try:
        clear_caches()
        ascending = results(list)
        clear_caches()
        descending = results(reversed)
        warm = results(list)
    finally:
        clear_caches()
    assert ascending == descending == warm


@pytest.mark.parametrize("n", (3, 4))
def test_parse_table_gives_the_objects_of_a_fresh_parse(monkeypatch, n):
    # every census spelling, and two that claim a rule with an explicit
    # zero vector, parsed by all three entry points
    params = SystemParams(n)
    corpus = enumerate_corpus(params, 9)
    zero = "[%s]" % ",".join("0" * (n - 2))
    ords = [print_ord(t) for t in corpus.terms] + [
        "psi(K; %s; 1)" % zero,
        "psi(Om(1); %s; psi(K; %s; 1)) + 1" % (zero, zero)]
    seqs = [print_seq(v) for v in corpus.seqs]

    def objects():
        """The ids of every object each parse returns, in order."""
        return ([id(parse_ord(text, params)) for text in ords],
                [tuple(map(id, (t,) + claims)) for t, claims in
                 (parse_ord_claims(text, params) for text in ords)],
                [tuple(map(id, parse_seq(text, params))) for text in seqs])

    clear_caches()
    cold = objects()
    entries = _parse.cache_info().currsize
    # one entry per spelling, and one per flat principal term in them
    flat = {f for text in ords + seqs for f in FLAT.findall(text)}
    assert entries == len(set(ords)) + len(set(seqs)) + len(flat)
    hits = _parse.cache_info().hits
    warm = objects()
    assert _parse.cache_info().hits == hits + 2 * len(ords) + len(seqs)
    assert _parse.cache_info().currsize == entries
    clear_caches()
    assert _parse.cache_info().currsize == 0
    cleared = objects()
    monkeypatch.setattr(order, "MEMO_BOUND", entries - 1)
    trim_caches()
    assert _parse.cache_info().currsize == 0
    trimmed = objects()
    clear_caches()
    assert cold[0][:-2] == [id(t) for t in corpus.terms]
    assert cold[2] == [tuple(map(id, v)) for v in corpus.seqs]
    # the two explicit zero vectors are claimed, the census spells none
    assert [len(ids) for ids in cold[1][-2:]] == [2, 3]
    assert all(len(ids) == 1 for ids in cold[1][:-2])
    assert cold == warm == cleared == trimmed


def _prin_calls(monkeypatch, text, params):
    """The number of _Parser.prin calls that parsing text makes."""
    calls = []
    prin = _Parser.prin

    def counted(self):
        calls.append(1)
        return prin(self)

    with monkeypatch.context() as m:
        m.setattr(_Parser, "prin", counted)
        parse_ord(text, params)
    return len(calls)


def test_flat_terms_are_parsed_once(monkeypatch, p4):
    # the outer term's six principal tokens, and the eight principal
    # terms of its two flat ones when these are not in the table
    text = "psi(psi(K; [0,K]; K); [0,K]; K+psi(K; K))"
    clear_caches()
    try:
        assert _prin_calls(monkeypatch, text, p4) == 6 + 5 + 3
        assert _parse.cache_info().currsize == 3
        clear_caches()
        for f in FLAT.findall(text):
            parse_ord(f, p4)
        assert _parse.cache_info().currsize == 4
        hits = _parse.cache_info().hits
        assert _prin_calls(monkeypatch, text, p4) == 6
        assert _parse.cache_info().hits == hits + 2
        assert _prin_calls(monkeypatch, text, p4) == 0
    finally:
        clear_caches()


def test_flat_entries_follow_the_memo_contract(monkeypatch, p4):
    flats = ["psi(K; %d)" % k for k in range(1, 41)]
    clear_caches()
    try:
        parse_ord("+".join(reversed(flats)), p4)
        assert _parse.cache_info().currsize == 1 + 40
        clear_caches()
        assert _parse.cache_info().currsize == 0
        # a checkpoint empties the table once it holds more than the bound
        monkeypatch.setattr(order, "MEMO_BOUND", 32)
        parse_ord("+".join(reversed(flats[:31])), p4)
        trim_caches()
        assert _parse.cache_info().currsize == 32
        parse_ord("+".join(reversed(flats)), p4)
        trim_caches()
        assert _parse.cache_info().currsize == 0
        # a failed flat parse stores nothing, nor does the parse around it
        for text in ("Om(1 x)", "Om(Om(1 x))", "psi(K; Om(1 x))",
                     "psi(K; [0]; K)", "Om(1001)"):
            with pytest.raises(OrdSyntaxError):
                parse_ord(text, p4)
            assert _parse.cache_info().currsize == 0
    finally:
        clear_caches()


def test_k_delta_stores_no_entry_per_tower_level(p4):
    # K(w^ b) = K(Om b) = K(b): _k_delta walks down a tower in one frame,
    # so a 400-level tower adds one entry, its top, to those of the node
    # below it, not one per level
    base = parse_ord("psi(K; 1)", p4)
    towers = [base, base]
    for _ in range(400):
        towers = [mk_omega_exp(towers[0]), mk_omega_idx(towers[1])]
    for delta in (ZERO, parse_ord("psi(K; 0)", p4)):
        clear_caches()
        expected = k_delta(delta, base)
        entries = _k_delta.cache_info().currsize
        for tower in towers:
            clear_caches()
            assert k_delta(delta, tower) == expected
            assert _k_delta.cache_info().currsize == entries + 1
    clear_caches()
    assert expected == {ONE}


@pytest.mark.parametrize("x, y, entries", [
    ("K+1", "K", 2), ("K", "K+1", 2),
    ("K+1", "w^(K+1)", 2), ("w^(K+1)", "K+1", 2),
    ("psi(K; K)+1", "psi(K; K)", 2), ("psi(K; K)", "psi(K; K)+1", 2),
    ("0", "K+1", 1), ("K+1", "0", 1),
])
def test_a_sum_meets_a_principal_term_through_its_head(p4, x, y, entries):
    # a sum against a principal term asks one sub-question, the heads, in
    # the pair's direction; zero against a sum asks none.  Each head pair
    # here is decided without a further question.
    x, y = parse_ord(x, p4), parse_ord(y, p4)
    clear_caches()
    try:
        order.cmp_ord(x, y)
        info = order.cmp_ord.cache_info()
    finally:
        clear_caches()
    assert info.currsize == info.misses == entries


def test_k_sets_share_one_object_per_content(p4):
    # _k_delta builds a union only when two different non-empty sets meet
    # and keeps one object per content, so its table holds no copies
    corpus = enumerate_corpus(p4, 8)
    psis = [t for t in corpus.terms if isinstance(t, Psi)]
    clear_caches()
    try:
        ks = [k_delta(d, t) for d in [ZERO, BIG_K] + psis[:4]
              for t in corpus.terms]
    finally:
        clear_caches()
    assert {id(k) for k in ks if not k} == {id(order._EMPTY)}
    assert len({id(k) for k in ks}) == len(set(ks)) > 1
    # every zero vector's components are that same empty set
    zeros = [t for t in psis if is_zero_vec(t.nu)]
    assert zeros and all(t.nu_comps is order._EMPTY for t in zeros)
    assert E_ZERO.comps is order._EMPTY


def _props(n):
    out = io.StringIO()
    code = main(["--big-n", str(n), "props", "--size-cap", "7"], out,
                io.StringIO())
    return code, out.getvalue()


@pytest.mark.parametrize("n", (3, 4))
def test_props_do_not_depend_on_the_memo(monkeypatch, n):
    # the same report with the tables as they are, with no memo at all,
    # and with a bound so small that every checkpoint empties them
    clear_caches()
    default = _props(n)
    clear_caches()
    memos = {id(m) for m in _MEMOS}
    with monkeypatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name == "piord" or name.startswith("piord."):
                for attr, value in list(vars(module).items()):
                    if id(value) in memos:
                        m.setattr(module, attr, value.__wrapped__)
        unmemoized = _props(n)
    # no binding was missed: not one entry was stored
    assert all(m.cache_info().currsize == 0 for m in _MEMOS)
    monkeypatch.setattr(order, "MEMO_BOUND", 16)
    trimmed = _props(n)
    clear_caches()
    assert default[0] == 0
    assert default == unmemoized == trimmed


def test_trim_bounds_every_table_and_keeps_the_small_ones(monkeypatch, p4):
    clear_caches()
    enumerate_corpus(p4, 8)
    before = [m.cache_info().currsize for m in _MEMOS]
    bound = sorted(before)[len(before) // 2]
    monkeypatch.setattr(order, "MEMO_BOUND", bound)
    try:
        trim_caches()
        after = [m.cache_info().currsize for m in _MEMOS]
    finally:
        clear_caches()
    assert max(before) > bound
    assert max(after) <= bound
    # a table above the bound is emptied, one within it keeps its entries
    assert after == [0 if size > bound else size for size in before]


def test_every_checkpoint_is_reached(monkeypatch, p4):
    calls = []
    monkeypatch.setattr(oracle, "trim_caches", lambda: calls.append(1))
    corpus = enumerate_corpus(p4, 7)
    assert len(calls) == 7 - 1            # once per size step from 2 to 7
    calls.clear()
    check_order_axioms(corpus, triple_sample=0)
    assert len(calls) == len(corpus.terms)    # after each column of pairs
    # and no extra one for a column redone pair by pair for a failing pair
    a, b = [t for t in corpus.terms if isinstance(t, Psi)][:2]
    real = order._cmp_psi_psi
    monkeypatch.setattr(order, "_cmp_psi_psi", lambda s, t: order.GT
                        if (s, t) == (a, b) else real(s, t))
    clear_caches()
    calls.clear()
    try:
        tri, _ = check_order_axioms(corpus, triple_sample=0)
    finally:
        clear_caches()
    assert not tri.ok
    assert len(calls) == len(corpus.terms)
    monkeypatch.setattr("piord.cli.trim_caches", lambda: calls.append(1))
    calls.clear()
    for _ in range(32):
        main(["cmp", "0", "1"], io.StringIO())
    assert len(calls) == 2                # once every 16 calls


def test_intern_caches_stay_unbounded(monkeypatch, p4):
    # the intern caches are exactly the seven public constructors
    interns = [f for f in vars(terms).values() if hasattr(f, "cache_info")]
    assert sorted(f.__name__ for f in interns) == sorted(
        name for name in terms.__all__ if name.startswith("mk_"))
    assert all(getattr(terms, f.__name__) is f for f in interns)
    assert len(interns) == 7
    assert all(f.cache_info().maxsize is None for f in interns)
    assert not {id(f) for f in interns} & {id(m) for m in _MEMOS}
    enumerate_corpus(p4, 7)
    sizes = [f.cache_info().currsize for f in interns]
    monkeypatch.setattr(order, "MEMO_BOUND", 0)
    trim_caches()
    assert all(m.cache_info().currsize == 0 for m in _MEMOS)
    assert [f.cache_info().currsize for f in interns] == sizes


@pytest.mark.parametrize("mutated", [False, True], ids=["real", "mutated"])
def test_axiom_reports_do_not_depend_on_the_bound(monkeypatch, p4, mutated):
    # the same order-axiom reports, names, counts and failures, whatever
    # the checkpoints empty: every table at each one, most of them, those
    # above the default bound, or none; also for a psi comparison that
    # swaps two census terms, whose wrong answer the memo then hands to
    # every comparison of terms built from them
    corpus = enumerate_corpus(p4, 8)
    if mutated:
        a, b = (parse_ord(x, p4) for x in ("psi(Om(1); 0)", "psi(K; 0)"))
        real = order._cmp_psi_psi
        monkeypatch.setattr(
            order, "_cmp_psi_psi",
            lambda s, t: -real(s, t) if {s, t} == {a, b} else real(s, t))
    reports = []
    try:
        for bound in (0, 16, order.MEMO_BOUND, float("inf")):
            monkeypatch.setattr(order, "MEMO_BOUND", bound)
            clear_caches()
            reports.append(check_order_axioms(corpus))
    finally:
        clear_caches()
    assert all(r == reports[0] for r in reports[1:])
    tri, trans = reports[0]
    assert tri.checked == len(corpus.terms) * (len(corpus.terms) - 1) // 2
    assert trans.checked == 100_000
    assert (len(tri.failures), len(trans.failures)) == (
        (10, 19) if mutated else (0, 0))
