import inspect
import os
import sys

import pytest

import piord
from piord.params import SystemParams
import piord.oracle as oracle
from piord.oracle import enumerate_corpus
from piord.terms import (
    ONE, EOrd, LamSum, OmegaExp, OmegaIdx, Ord, Psi, Sum, Veblen, from_parts,
)

# pytest's `pythonpath` setting reaches this process only: put the same
# source tree first on PYTHONPATH, so that the piord processes the tests
# start import it too, without an install
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


_PIORD_DIR = os.path.dirname(piord.__file__)


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
