import functools
import gc
import inspect
import os
import re
import sys
import types

import pytest

import piord
import reference
from piord import order
from piord.params import SystemParams
import piord.oracle as oracle
from piord.oracle import enumerate_corpus
from piord.syntax import parse_ord
from piord.terms import (
    BIG_K, ONE, ZERO, EOrd, LamSum, OmegaExp, OmegaIdx, Ord, Psi, Sum, Veblen,
    from_parts, tower_up,
)

# pytest's `pythonpath` setting reaches this process only: put the same
# source tree first on PYTHONPATH, so that the piord processes the tests
# start import it too, without an install
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


_PIORD_DIR = os.path.dirname(piord.__file__)


# a flat principal term: a psi, phi or Om term whose spelling holds no
# inner parenthesis, which the tokenizer reads as one token
FLAT = re.compile(r"(?:psi|phi|Om)\([^()]*\)")


def from_int(k):
    """The finite ordinal k: k summands phi(0,0)."""
    return from_parts((ONE,) * k)


def all_subterms(t):
    """Every ordinal term occurring in t, including t itself."""
    seen = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        if isinstance(cur, Ord):
            seen.add(cur)
        if isinstance(cur, Sum):
            stack.extend(cur.parts)
        elif isinstance(cur, Veblen):
            stack.append(cur.b)
            stack.append(cur.g)
        elif isinstance(cur, (OmegaExp, OmegaIdx)):
            stack.append(cur.b)
        elif isinstance(cur, Psi):
            stack.append(cur.pi)
            stack.append(cur.a)
            stack.extend(cur.nu)
        elif isinstance(cur, EOrd):
            stack.append(cur.a)
        elif isinstance(cur, LamSum):
            for e, c in cur.pairs:
                stack.append(e)
                stack.append(c)
    return seen


def count_line_events(fn, *args):
    """Call fn(*args) and return the number of line events it runs in
    piord's own source files: a measure of work that, unlike a clock,
    does not depend on the host."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += event == "line"
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(_PIORD_DIR):
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return events


@pytest.fixture
def line_events():
    """count_line_events, for tests that pin the work of one call."""
    return count_line_events


def mutate_source(fn, old, new):
    """fn recompiled from its own source with the one occurrence of the
    text old replaced by new, in fn's own module globals, which it leaves
    unchanged.  Raises ValueError unless old occurs exactly once, so a
    mutant whose source line has been rewritten fails loudly instead of
    testing stale code."""
    lines, first = inspect.getsourcelines(fn)
    source = "".join(lines)
    found = source.count(old)
    if found != 1:
        raise ValueError("%r occurs %d times in %s"
                         % (old, found, fn.__qualname__))
    # leading blank lines keep the mutant's line numbers those of the file
    code = compile("\n" * (first - 1) + source.replace(old, new),
                   inspect.getsourcefile(fn), "exec")
    namespace = {}
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


@pytest.fixture
def source_mutant():
    """mutate_source, for tests that check a one-text mutant is caught."""
    return mutate_source


@pytest.fixture(scope="session")
def p3():
    return SystemParams(3)


@pytest.fixture(scope="session")
def p4():
    return SystemParams(4)


@pytest.fixture(scope="session")
def corpus3(p3):
    return enumerate_corpus(p3, 9)


@pytest.fixture(scope="session")
def corpus4(p4):
    return enumerate_corpus(p4, 9)


@pytest.fixture(scope="session")
def census_towers():
    """The w^ nodes in the N=3 and N=4 cap-11 censuses, by N."""
    towers = {}
    for n in (3, 4):
        found = set()
        for t in enumerate_corpus(SystemParams(n), 11).terms:
            found |= {x for x in all_subterms(t) if type(x) is OmegaExp}
        towers[n] = sorted(found, key=repr)
    return towers


def _table(fn, xs):
    return [[fn(x, y) for y in xs] for x in xs]


def _ranked(xs):
    """xs sorted by the reference, the reference's verdict on each pair of
    neighbours in that order, and the table of every pair's verdict that
    the order gives."""
    ordered = sorted(xs, key=functools.cmp_to_key(reference.cmp))
    steps = [reference.cmp(s, t) for s, t in zip(ordered, ordered[1:])]
    rank = {t: i for i, t in enumerate(ordered)}
    return ordered, steps, _table(
        lambda s, t: (rank[s] > rank[t]) - (rank[s] < rank[t]), xs)


def build_record(n, cap, towers=()):
    """The reference's and the library's verdicts on every ordered pair of
    the rank-n census at cap with the witnesses' subterms (the pool), of
    their exponents and of the towers, and on every K-set of a pool term,
    the library's filled from emptied tables.  tests/test_reference.py
    asserts the whole record; the order checks kept under their own names
    each assert a slice of it."""
    gc.disable()    # collections would scan the filling tables again and again
    reference.clear()
    try:
        corpus = oracle.enumerate_corpus(SystemParams(n), cap)
        witnesses = oracle.witness_terms(corpus.params)
        subterms = {x for w in witnesses for x in all_subterms(w)}
        pool = [*corpus.terms, *sorted(subterms - set(corpus.terms), key=repr)]
        r = types.SimpleNamespace(corpus=corpus.terms, witnesses=witnesses,
                                  pool=pool, towers=towers)
        r.order, r.steps, r.want = _ranked(pool)
        r.rank = {t: i for i, t in enumerate(r.order)}
        r.ref = _table(reference.cmp, pool)
        r.lib = []          # every pair ascending, then descending
        for step in (1, -1):
            order.clear_caches()
            rows = {}
            for s in pool[::step]:
                rows[s] = [order.cmp_ord(s, t) for t in pool[::step]][::step]
                order.trim_caches()
            r.lib.append([rows[s] for s in pool])
        r.tower_lib = _table(order.cmp_ord, towers)
        _, r.tower_steps, r.tower_want = _ranked(towers)
        r.exps = list(dict.fromkeys([*oracle._exp_pool(corpus),
                                     *(e for w in witnesses for e in w.nu)]))
        r.exp_lib = _table(order.cmp_exp, r.exps)
        r.exp_order, r.exp_steps, r.exp_want = _ranked(r.exps)
        r.psi_at = [i for i, t in enumerate(pool) if type(t) is Psi]
        r.psis = [pool[i] for i in r.psi_at]
        r.six = _table(oracle._six_cases_lt, r.psis)
        r.kset_ref, r.kset_lib = [], []     # per delta: K-sets, K-set tests
        for d in [ZERO, BIG_K] + r.psis:
            sets = [reference.kset(d, a) for a in pool]
            # K_d(a) < g holds exactly from the first g above the set on
            tops = [max(map(r.rank.get, ks), default=-1) for ks in sets]
            edges = [(a, g, r.rank[g] > top) for a, top in zip(pool, tops)
                     for g in r.order[max(top, 0):top + 2]]
            r.kset_ref.append((sets, [below for _, _, below in edges]))
            r.kset_lib.append(([order.k_delta(d, a) for a in pool], [
                order.ks_below(d, (a,), g) for a, g, _ in edges]))
        return r
    finally:
        reference.clear()
        order.clear_caches()
        gc.enable()


@pytest.fixture(scope="session")
def records(census_towers):
    """build_record(n, 9) by n for N = 3, 4 and 5, built once per session,
    with the census towers, and at N = 5 towers up to 41 levels high."""
    bases = [parse_ord(x, SystemParams(5)) for x in (
        "K+1", "K+2", "w^(K+1)+1", "K+K", "w^(K+1)", "w^(w^(K+1))+K")]
    tall = list(dict.fromkeys(tower_up(b, h) for b in bases
                              for h in (1, 2, 3, 7, 40, 41)))
    return {n: build_record(n, 9, census_towers.get(n, tall))
            for n in (3, 4, 5)}


@pytest.fixture
def census_exponents(monkeypatch):
    """Run enumerate_corpus(params, cap) and return the census with the
    exponents by symbol count that its psi generator draws vectors from."""
    def run(params, cap):
        tables = []
        pool = oracle._sd_vector_pool

        def spy(e_by_size, n, budget):
            tables.append(e_by_size)
            return pool(e_by_size, n, budget)

        monkeypatch.setattr(oracle, "_sd_vector_pool", spy)
        corpus = oracle.enumerate_corpus(params, cap)
        monkeypatch.setattr(oracle, "_sd_vector_pool", pool)
        return corpus, tables[0]

    return run
