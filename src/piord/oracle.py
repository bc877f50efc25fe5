"""Brute-force verification: small-term enumeration, order-axiom suites,
proposition suites, step-down cross-checks, and descent probes.

Enumeration is a complete census of validated terms up to a symbol-count
cap, computed size by size; it is deterministic for fixed parameters, so
its output can be frozen as golden files.  A term's size counts one
symbol per atom or constructor and one per ``+``; zero vector entries
cost nothing.  Each composite term is built from smaller census terms: a
sum is a principal head followed by a census term whose parts are at
most the head; phi, w^ and Om take census arguments; a psi term takes a
regular census base, a census stage and a vector of exponents.  An
exponent is zero, a census term, or a base-power sum: L^(e)*(c) with a
smaller exponent e and a census term c, alone or followed by ``+`` and a
smaller base-power sum whose head exponent is below e.  Deep collapse
chains (the third and fourth psi rules) start above any census cap that
keeps the corpus small, so the proposition suites also run over a fixed
pool of builder-made witness terms exercising those rules.
"""

import bisect
import functools
import itertools
import random
from collections import namedtuple

from .terms import (
    BIG_K, E_ZERO, E_ONE, ONE, ZERO,
    EOrd, LamSum, OmegaIdx, Psi, Sum,
    from_parts, is_principal, is_regular, is_zero_vec, m_at, mk_eord,
    mk_lamsum, mk_omega_exp, mk_omega_idx, mk_psi, mk_sum, mk_veblen,
    strip_zeros, zero_vec,
)
from .order import (
    EQ, GT, LT, cmp_exp, cmp_ord, k_delta, k_delta_set, kset_below,
    trim_caches,
)
from .errors import BudgetExceeded, ComparisonUndecided
from .cnf import he, he_iter, irreducible, lx_lt, seq_lt, te, vec_sp
from .cnf import pairs as cnf_pairs
from .sd import in_sd, replay, sd_necessary_conditions
from .validate import check_ot, check_exp, rule_vs_series
from .arith import add, omega_exp, psi0, psiK, psi_sd, psi_step, step_vector
from .syntax import print_ord, print_seq

__all__ = [
    "Corpus", "default_size_cap", "enumerate_corpus", "witness_terms",
    "CheckReport", "check_order_axioms", "check_structural_props",
    "sd_cross_check", "descent_probe", "DescentReport",
]

DEFAULT_BUDGET = 60_000


def default_size_cap(n):
    """The census size cap for rank N when none is given: 11 at N = 3 and
    4, where the census holds over 2000 terms, and 9 above."""
    return 11 if n <= 4 else 9


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

class Corpus(namedtuple("Corpus", "params size_cap terms seqs")):
    """terms: the validated ordinal terms, sorted ascending; seqs: the
    coefficient vectors of its psi terms, in order of first appearance
    along the ascending terms."""

    __slots__ = ()

    def index_below(self, t):
        """Number of corpus terms strictly below t."""
        key = functools.cmp_to_key(cmp_ord)
        return bisect.bisect_left(self.terms, key(t), key=key)


def enumerate_corpus(params, size_cap, budget=DEFAULT_BUDGET):
    """Census of every validated term with at most size_cap symbols."""
    ot_by_size = {s: [] for s in range(size_cap + 1)}
    e_by_size = {s: [] for s in range(size_cap + 1)}
    count = 0

    def keep(t, s):
        nonlocal count
        if check_ot(t, params).ok:
            ot_by_size[s].append(t)
            count += 1
            if count > budget:
                raise BudgetExceeded(
                    "more than %d terms below size %d" % (budget, size_cap))
            return True
        return False

    e_cap = size_cap - 3  # an entry must fit inside some psi wrapper
    if size_cap >= 1:
        keep(ZERO, 1)
        keep(BIG_K, 1)
        if e_cap >= 1:
            e_by_size[1].append(E_ZERO)
            e_by_size[1].append(mk_eord(BIG_K))

    for s in range(2, size_cap + 1):
        _gen_sums(s, ot_by_size, keep)
        _gen_veblen(s, ot_by_size, keep)
        _gen_omega(s, ot_by_size, keep)
        _gen_psi(s, ot_by_size, e_by_size, params, keep)
        if s <= e_cap:
            _gen_exps(s, ot_by_size, e_by_size)
        trim_caches()

    terms = [t for s in range(size_cap + 1) for t in ot_by_size[s]]
    terms.sort(key=functools.cmp_to_key(cmp_ord))
    seqs = []
    seen = set()
    for t in terms:
        if isinstance(t, Psi) and t.nu not in seen:
            seen.add(t.nu)
            seqs.append(t.nu)
    return Corpus(params, size_cap, tuple(terms), tuple(seqs))


def _gen_sums(s, ot_by_size, keep):
    # a principal head, then a census term whose parts are at most the head
    for sp in range(1, s - 1):
        for p in ot_by_size[sp]:
            if not is_principal(p):
                continue
            for r in ot_by_size[s - 1 - sp]:
                if r is not ZERO and cmp_ord(r.parts[0], p) != GT:
                    keep(mk_sum((p,) + r.parts), s)


def _gen_veblen(s, ot_by_size, keep):
    for sb in range(1, s - 1):
        sg = s - 1 - sb
        for b in ot_by_size[sb]:
            if cmp_ord(b, BIG_K) != LT:
                continue
            for g in ot_by_size[sg]:
                if cmp_ord(g, BIG_K) == LT:
                    keep(mk_veblen(b, g), s)


def _gen_omega(s, ot_by_size, keep):
    for b in ot_by_size[s - 1]:
        c = cmp_ord(b, BIG_K)
        if c == GT:
            keep(mk_omega_exp(b), s)
        elif c == LT and b is not ZERO and not isinstance(b, Psi):
            keep(mk_omega_idx(b), s)


def _sd_vector_pool(e_by_size, n, budget):
    """Derivable non-zero coefficient vectors, keyed by symbol cost.

    A vector grows one entry at a time, and a non-zero entry is kept only
    while the vector so far, padded with zeros, is derivable: each padded
    prefix of a derivable vector is derivable, since the extension step
    that builds the vector applies to the prefixes of its premises."""
    zeros = zero_vec(n)
    vecs = [((), 0)]
    for j in range(1, n - 1):
        nxt = []
        for vec, used in vecs:
            nxt.append((vec + (E_ZERO,), used))
            for se in range(1, budget - used + 1):
                for e in e_by_size.get(se, ()):
                    if e is not E_ZERO \
                            and in_sd(vec + (e,) + zeros[j:]) is not None:
                        nxt.append((vec + (e,), used + se))
        vecs = nxt
    out = {}
    for vec, used in vecs:
        if used:
            out.setdefault(used, []).append(vec)
    return out


def _gen_psi(s, ot_by_size, e_by_size, params, keep):
    zeros = zero_vec(params.n)
    sd_pool = None
    for sp in range(1, s - 1):
        rest = s - 1 - sp  # symbols left for the vector and the stage
        for pi in ot_by_size[sp]:
            if not is_regular(pi):
                continue
            # the base's vectors by symbol cost, each below rest
            if pi is BIG_K:                 # Psi10: an ordinal last entry
                vecs = {se: [zeros[:-1] + (e,) for e in e_by_size[se]
                             if isinstance(e, EOrd)]
                        for se in range(1, rest)}
            elif len(pi.m) >= 2:            # Psi11: the stepping rule
                vecs = _step_vectors(pi, rest, ot_by_size, params.n)
            else:                           # Psi12: derivable vectors
                if sd_pool is None:
                    sd_pool = _sd_vector_pool(e_by_size, params.n, s - 3)
                m2 = m_at(pi, 2)
                vecs = {cost: [nu for nu in pool if vec_sp(nu, m2)]
                        for cost, pool in sd_pool.items() if cost < rest}
            for cost, nus in {0: [zeros], **vecs}.items():
                for a in ot_by_size[rest - cost]:
                    for nu in nus:
                        keep(mk_psi(pi, nu, a), s)


def _step_vectors(pi, rest, ot_by_size, n):
    """The stepping rule's vectors costing less than rest, by cost: each
    is ``step_vector(pi, b, n)`` for one non-zero census coefficient b."""
    out = {}
    for sb in range(1, rest):
        for b in ot_by_size[sb]:
            if b is ZERO:
                continue
            nu = step_vector(pi, b, n)
            cost = sum(e.size for e in nu if e is not E_ZERO)
            if cost < rest:
                out.setdefault(cost, []).append(nu)
    return out


def _gen_exps(s, ot_by_size, e_by_size):
    # each non-zero census term as an exponent, then each base-power sum:
    # L^(e)*(c) alone, or followed by "+" and a smaller base-power sum
    # whose head exponent is below e
    e_by_size[s] += [mk_eord(t) for t in ot_by_size[s] if t is not ZERO]
    for se in range(1, s - 1):
        for e in e_by_size[se]:
            if e is E_ZERO:
                continue
            for sc in range(1, s - se):
                left = s - 1 - se - sc  # symbols after the pair
                tails = [()] if left == 0 else [
                    r.pairs for r in e_by_size[left - 1]
                    if isinstance(r, LamSum)
                    and cmp_exp(r.pairs[0][0], e) == LT]
                for c in ot_by_size[sc]:
                    if c is not ZERO:
                        e_by_size[s] += [mk_lamsum(((e, c),) + tail)
                                         for tail in tails]


# ---------------------------------------------------------------------------
# Witness terms for the deep psi rules
# ---------------------------------------------------------------------------

def witness_terms(params):
    """Builder-made psi terms exercising every formation rule, including
    collapse chains too large for any census cap.

    For N >= 4 the chain starts at psi(K; [0,..,0,K]; K) and then, once
    with each of two vectors, takes N-3 stepping collapses (Psi11) and one
    step-down collapse (Psi12); each stage is omega to the last one,
    starting at K+K."""
    n = params.n
    K2 = add(BIG_K, BIG_K)
    out = []
    p1 = psiK(BIG_K, BIG_K, params)                      # L = 1
    out.append(p1)
    if n == 3:
        q2 = psi_sd(p1, (E_ONE,), K2, params)            # L = 2
        out.append(q2)
        q3 = psi_sd(p1, (mk_eord(psi0(BIG_K, BIG_K, params)),),
                    omega_exp(K2), params)
        out.append(q3)
        return out
    zeros = zero_vec(n)
    v1 = zeros[:-1] + (E_ONE,)
    v2 = zeros[:n - 4] + (mk_lamsum(((E_ONE, ONE),)),) + zeros[n - 3:]
    a = K2
    for v in (v1, v2):
        for _ in range(n - 3):
            out.append(psi_step(out[-1], BIG_K, a, params))
            a = omega_exp(a)
        out.append(psi_sd(out[-1], v, a, params))
        a = omega_exp(a)
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class CheckReport(namedtuple("CheckReport", "name checked failures")):
    """failures: a tuple of messages, one per failed case."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.failures

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        extra = "" if self.ok else "  e.g. " + self.failures[0]
        return "%-28s %s  (%d checked)%s" % (self.name, status,
                                             self.checked, extra)


def _suite(name, cases, fails):
    """Check every case, an argument tuple for fails (``zip(xs)`` gives
    one-argument cases).  fails(*case) returns None or the case's failure
    message; a comparison it leaves undecided fails the case too.  Cases
    are drawn 1024 at a time, and each batch ends at a memo checkpoint."""
    checked = 0
    failures = []
    cases = iter(cases)
    while batch := tuple(itertools.islice(cases, 1024)):
        checked += len(batch)
        for case in batch:
            try:
                msg = fails(*case)
            except ComparisonUndecided as exc:
                msg = str(exc)
            if msg is not None:
                failures.append(msg)
        trim_caches()
    return CheckReport(name, checked, tuple(failures))


# ---------------------------------------------------------------------------
# Order axioms
# ---------------------------------------------------------------------------

def check_order_axioms(corpus, triple_sample=100_000, seed=0):
    """Trichotomy and antisymmetry on all pairs, which must also agree with
    the corpus's ascending order; transitivity on seeded random triples
    (all triples when the corpus is tiny).

    Transitivity is judged from the forward results the pair suite has
    just computed, not from new comparisons.  This is the same check: a
    triple is three ascending indices i < j < k, so its comparisons
    (i, j), (j, k) and (i, k) are forward pairs of that suite, and the
    comparator answers a pair the same way each time it is asked.  A pair
    the suite left undecided fails every triple that needs it, with the
    same message."""
    terms = corpus.terms
    n = len(terms)
    # every comparison runs the uncached body of the comparator this module
    # names at call time (a substitute is checked as given): each is
    # computed once, never read back from a stored entry, and no top-level
    # pair takes memo space
    cmp_fresh = cmp_ord
    while hasattr(cmp_fresh, "__wrapped__"):
        cmp_fresh = cmp_fresh.__wrapped__
    # (i, j) with i < j -> the forward result when it is not LT, or the
    # ComparisonUndecided it raised
    forward = {}

    def antisymmetric(i, j):
        ti, tj = terms[i], terms[j]
        try:
            c1 = cmp_fresh(ti, tj)
        except ComparisonUndecided as exc:
            forward[i, j] = exc
            raise
        if c1 != LT:
            forward[i, j] = c1
        c2 = cmp_fresh(tj, ti)
        if c1 != LT or c2 != GT:
            return "%s vs %s: %d/%d" % (print_ord(ti), print_ord(tj), c1, c2)

    def judged(i, j):
        r = forward.get((i, j), LT)
        if isinstance(r, ComparisonUndecided):
            # a fresh traceback, or each raise would lengthen the stored one
            raise r.with_traceback(None)
        return r

    def transitive(i, j, k):
        r1, r2, r3 = judged(i, j), judged(j, k), judged(i, k)
        if r1 == r2 and r3 != r1:
            return "%s, %s, %s" % tuple(print_ord(terms[x]) for x in (i, j, k))

    if n * (n - 1) * (n - 2) // 6 <= triple_sample:
        triples = itertools.combinations(range(n), 3)
    else:
        triples = _index_triples(n, triple_sample, seed)
    return [_suite("trichotomy+antisymmetry",
                   itertools.combinations(range(n), 2), antisymmetric),
            _suite("transitivity", triples, transitive)]


def _index_triples(n, count, seed):
    """count seeded ascending triples of distinct indices below n: for n > 21,
    the sorted draws of ``random.Random(seed).sample(range(n), 3)``."""
    # randrange(n) as CPython draws it: n.bit_length() random bits, redrawn
    # until below n
    bits = random.Random(seed).getrandbits
    width = n.bit_length()

    def draw():
        r = bits(width)
        while r >= n:
            r = bits(width)
        return r

    for _ in range(count):
        i = draw()
        j = draw()
        while j == i:
            j = draw()
        k = draw()
        while k == i or k == j:
            k = draw()
        yield sorted((i, j, k))


# ---------------------------------------------------------------------------
# Proposition suites
# ---------------------------------------------------------------------------

def _exp_pool(corpus, limit=220):
    """Deterministic pool of validated exponent terms drawn from the corpus."""
    seen = []
    have = set()

    def push(x):
        if x not in have and check_exp(x, corpus.params).ok:
            have.add(x)
            seen.append(x)

    push(E_ZERO)
    for vec in corpus.seqs:
        for e in vec:
            push(e)
            for ee, _c in cnf_pairs(e):
                push(ee)
    for t in corpus.terms:
        if len(seen) >= limit:
            break
        if t is not ZERO and t.size <= 5:
            push(mk_eord(t))
    seen.sort(key=functools.cmp_to_key(cmp_exp))
    return seen[:limit]


def check_structural_props(corpus):
    """Every structural proposition, over the corpus plus witness terms."""
    params = corpus.params
    all_psis = [t for t in corpus.terms + tuple(witness_terms(params))
                if isinstance(t, Psi)]
    collapses = [t for t in all_psis if t.m]
    exps = _exp_pool(corpus)
    big = [x for x in exps if cmp_exp(x, E_ONE) == GT]
    head = exps[:30] + [x for x in exps if isinstance(x, LamSum)][:25]
    vecs = [strip_zeros(v) for v in corpus.seqs if strip_zeros(v)]
    seq_pool = list(dict.fromkeys(corpus.seqs + tuple(t.nu for t in all_psis)))
    deltas = [ZERO, BIG_K] + [t for t in corpus.terms
                              if isinstance(t, Psi)][:4]
    sums = [t for t in corpus.terms if isinstance(t, Sum)][:200]
    sample = all_psis[:80]

    # head/tail monotonicity along the exponent order
    def head_monotone(x, y):
        lo, hi = (x, y) if cmp_exp(x, y) == LT else (y, x)
        if not (cmp_exp(te(lo), he(lo)) <= EQ
                and cmp_exp(he(lo), he(hi)) <= EQ):
            return "%s < %s" % (lo, hi)

    # sequence order is upward closed in its bound
    upward = ((vec, xi, zeta) for vec in vecs for xi in head
              if seq_lt(vec, xi) for zeta in head if cmp_exp(xi, zeta) <= EQ)

    def upward_closed(vec, xi, zeta):
        if not seq_lt(vec, zeta):
            return "%s < %s <= %s" % (list(vec), xi, zeta)

    # irreducible vectors sit below anything dominating their first entry
    def dominated():
        for vec0 in seq_pool:
            if not strip_zeros(vec0) or not irreducible(vec0):
                continue
            k0 = next(i for i, e in enumerate(vec0) if e is not E_ZERO)
            for xi in head:
                h = he_iter(xi, k0)
                if h is not None and cmp_exp(vec0[k0], h) == LT:
                    yield vec0, xi

    def below_dominator(vec0, xi):
        if not seq_lt(vec0, xi):
            return "%s vs %s" % (list(vec0), xi)

    # the four necessary conditions on derivable vectors
    derivable = ((vec, d) for vec in seq_pool if (d := in_sd(vec)) is not None)

    def sd_conditions(vec, d):
        conds = sd_necessary_conditions(vec)
        if not conds.all_hold:
            return "%s: %s" % (print_seq(vec), conds)
        if replay(d, params.n) != vec:
            return "replay mismatch for %s" % (print_seq(vec),)

    # recorded vectors of collapse terms are derivable
    def recorded_derivable(t):
        if in_sd(t.nu) is None:
            return print_ord(t)

    # stages grow along collapse chains
    def stage_grows(t):
        if cmp_ord(t.pi.a, t.a) != LT:
            return print_ord(t)

    # vector components never exceed the stage
    def components_below(t):
        for g in t.nu_comps:
            if cmp_ord(g, t.a) == GT:
                return "%s: component %s" % (print_ord(t), print_ord(g))

    # component sets of sums contain those of their tails
    def tail_kset_inside(t, d):
        ks = k_delta(d, t)
        if not k_delta(d, t.parts[-1]) <= ks:
            return "%s under %s" % (print_ord(t), print_ord(d))

    # chain length determines the formation rule
    def rule_matches_series(t):
        if not rule_vs_series(t, params):
            return print_ord(t)

    # the sandwich law around successor-Omega collapses
    def sandwiched(t):
        pi = t.pi
        if cmp_ord(t, pi) != LT:
            return "%s not below %s" % (print_ord(t), print_ord(pi))
        if pi.m:
            pred = from_parts(pi.b.parts[:-1])      # the index minus 1
            lower = ZERO if pred is ZERO else mk_omega_idx(pred) \
                if not isinstance(pred, Psi) else pred
            if lower is not ZERO and cmp_ord(lower, t) != LT:
                return "%s not above %s" % (print_ord(t), print_ord(lower))

    # the six-case characterization agrees with the four-clause order
    def six_cases_agree(s, t):
        if _six_cases_lt(s, t) != (cmp_ord(s, t) == LT):
            return "%s vs %s" % (print_ord(s), print_ord(t))

    return [_suite(*s) for s in (
        ("head exponent monotonicity", itertools.combinations(big, 2),
         head_monotone),
        ("sequence order upward closure", upward, upward_closed),
        ("irreducible vector bound", dominated(), below_dominator),
        ("SD necessary conditions", derivable, sd_conditions),
        ("recorded vectors derivable", zip(collapses), recorded_derivable),
        ("stage growth along chains",
         zip(t for t in all_psis if isinstance(t.pi, Psi)), stage_grows),
        ("components below stage", zip(all_psis), components_below),
        ("component sets of sums", itertools.product(sums, deltas),
         tail_kset_inside),
        ("rule vs collapsing series", zip(collapses), rule_matches_series),
        ("sandwich law",
         zip(t for t in all_psis if isinstance(t.pi, OmegaIdx)), sandwiched),
        ("psi comparison cases",
         ((s, t) for s in sample for t in sample if s is not t),
         six_cases_agree),
    )]


def _six_cases_lt(s, t):
    pi, b = s.pi, s.a
    ka, a = t.pi, t.a
    if cmp_ord(pi, t) <= EQ:
        return True
    c = cmp_ord(b, a)
    if c == LT:
        ks = k_delta_set(t, (pi, b)) | k_delta_set(t, s.nu_comps)
        if cmp_ord(s, ka) == LT and kset_below(ks, a):
            return True
    if c == GT:
        ks = k_delta_set(s, (ka, a)) | k_delta_set(s, t.nu_comps)
        if not kset_below(ks, b):
            return True
    if c == EQ:
        if cmp_ord(ka, pi) == LT and not kset_below(k_delta(s, ka), b):
            return True
        if pi is ka:
            if not kset_below(k_delta_set(s, t.nu_comps), b):
                return True
            if kset_below(k_delta_set(t, s.nu_comps), a) \
                    and lx_lt(s.nu, t.nu):
                return True
    return False


# ---------------------------------------------------------------------------
# SD cross-check
# ---------------------------------------------------------------------------

def sd_cross_check(corpus):
    """Derivability implies the necessary conditions on every vector built
    from small corpus exponents (at most 5 symbols) with at most two
    non-zero entries, so the work grows with N squared (at N <= 4 that is
    every vector); vectors passing the conditions without a derivation are
    reported for review, not failed."""
    params = corpus.params
    exps = [x for x in _exp_pool(corpus, limit=160) if x.size <= 5]
    unconfirmed = []

    def derivable_iff_conditions(*vec):
        d = in_sd(vec)
        conds = sd_necessary_conditions(vec)
        if d is None:
            if conds.all_hold and not is_zero_vec(vec):
                unconfirmed.append(vec)
        elif not conds.all_hold:
            return "%s accepted but conditions fail" % (print_seq(vec),)
        elif replay(d, params.n) != vec:
            return "%s replay mismatch" % (print_seq(vec),)

    return _suite("SD cross-check", _sparse_vectors(exps, params.n - 2, 2),
                  derivable_iff_conditions), unconfirmed


def _sparse_vectors(exps, length, nonzero):
    """The vectors of ``itertools.product(exps, repeat=length)`` with at
    most nonzero entries other than E_ZERO, in the same order."""
    if not length:
        yield ()
        return
    for x in exps:
        left = nonzero - (x is not E_ZERO)
        if left >= 0:
            for rest in _sparse_vectors(exps, length - 1, left):
                yield (x,) + rest


# ---------------------------------------------------------------------------
# Descent probes
# ---------------------------------------------------------------------------

DescentReport = namedtuple("DescentReport", "chain_len final hit_bottom")


def descent_probe(start, corpus, steps, seed=0):
    """Walk strictly downward through the corpus from start, picking each
    next term uniformly below the current one."""
    rng = random.Random(seed)
    cur = start
    length = 0
    for _ in range(steps):
        below = corpus.index_below(cur)
        if below == 0:
            return DescentReport(length, cur, True)
        cur = corpus.terms[rng.randrange(below)]
        length += 1
    return DescentReport(length, cur, corpus.index_below(cur) == 0)
