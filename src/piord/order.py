"""The decidable linear order on ordinal and exponent terms.

Comparison of psi terms follows the four-clause recursion of the notation
system's computability lemma and is mutually recursive with the component
sets K_delta; both directions are memoized on interned nodes.  Every memo
table in the package is made by ``memo``, emptied by ``clear_caches`` and
held to ``MEMO_BOUND`` entries at the checkpoints that call ``trim_caches``.
"""

import functools

from .errors import BadDelta, ComparisonUndecided, InvalidTerm
from .terms import (
    BIG_K, E_ZERO, ZERO,
    BigKT, EOrd, OmegaExp, OmegaIdx, Psi, Sum, Veblen, ZeroT,
    is_zero_vec, tower_down,
)

__all__ = [
    "LT", "EQ", "GT", "cmp_ord", "cmp_exp",
    "k_delta", "k_delta_set", "k_delta_exp", "ks_below",
    "rule_tag", "clear_caches", "trim_caches", "MEMO_BOUND",
]

LT, EQ, GT = -1, 0, 1

_MEMOS = []

# Entries a memo table may hold right after a checkpoint (a call of
# trim_caches: each column of the oracle's pair suite, every 1024 other
# oracle cases, each census size step and the census's end, every 16th
# cli.main call).  The bound is soft: a table may pass it between two
# checkpoints.  A smaller bound holds less and recomputes more.  `props
# --size-cap 10 --triples 100000` at N=4 peaks, in-process, at 19.0 MB
# with 16384, 18.5 MB with 12288, 17.8 MB with 10240, 16.9 MB with 8192
# and with 6144, and 16.6 MB with 4096 (15.9 MB with 0, 48.9 MB with no
# bound).  The census's sorts store none of their own pairs, so the
# census peaks at 16.7 MB at every bound from 6144 up (17.4 MB at 8192
# when they stored them); at 8192 the pair suite peaks 0.2 MB above it,
# and a smaller bound computes more: calls into order and validate are
# +1.2% at 8192, +2.1% at 6144, +3.6% at 4096 and +37% at 0 against
# 16384.  The pair suite loses little to the trims because it walks its
# pairs column by column and reuses mostly each column's own entries.
# A query session's tables stay below the bound.  (2 vCPUs, Python
# 3.11.7; BENCH_census_sorts.json.)
MEMO_BOUND = 8192


def memo(fn):
    """Memoize fn on its arguments in a per-process table, which each
    checkpoint empties when it holds more than MEMO_BOUND entries."""
    cached = functools.cache(fn)
    _MEMOS.append(cached)
    return cached


def clear_caches():
    """Empty every memo table; interned terms are never released."""
    for cached in _MEMOS:
        cached.cache_clear()


def trim_caches():
    """Checkpoint: empty each memo table holding more than MEMO_BOUND
    entries, so that afterwards none holds more.  Results never depend on
    what a table holds, and interned terms are never released."""
    for cached in _MEMOS:
        if cached.cache_info().currsize > MEMO_BOUND:
            cached.cache_clear()


# ---------------------------------------------------------------------------
# Formation-rule tags (shape only; side conditions live in validate)
# ---------------------------------------------------------------------------

PSI9, PSI10, PSI11, PSI12 = "Psi9", "Psi10", "Psi11", "Psi12"


def rule_tag(t):
    """Which psi-formation rule shapes t, or None when no rule fits.

    Determined by the coefficient vector and the recorded coefficients of
    the collapse base alone, so it is available before validation.
    """
    if not isinstance(t, Psi):
        return None
    if not t.m:
        return PSI9
    if t.pi is BIG_K:
        body, last = t.nu[:-1], t.nu[-1]
        return PSI10 if is_zero_vec(body) and isinstance(last, EOrd) else None
    if not t.pi.m:
        return None
    return PSI11 if len(t.pi.m) >= 2 else PSI12


# ---------------------------------------------------------------------------
# cmp on ordinal terms
# ---------------------------------------------------------------------------

# strata for cross-class comparison of zero and principal terms: zero, the
# rest below the top term, the top term itself, omega-powers above it
_STRATUM = {ZeroT: -1, Veblen: 0, OmegaIdx: 0, Psi: 0, BigKT: 1, OmegaExp: 2}


def _cmp_ord(s, t):
    """Trichotomous comparison; EQ exactly on identical (interned) terms.
    CNF parts and term classes are dispatched in this one frame.  A sum
    and a principal term are compared by their heads alone: the parts walk
    would ask that one sub-question of them, in the same direction, so the
    answers, errors and memo entries are the walk's."""
    if s is t:
        return EQ
    ts, tt = type(s), type(t)
    if ts is Sum or tt is Sum:
        # lexicographic on CNF parts, a prefix being less: zero, whose
        # parts are (), lies below every sum, and a sum lies above its
        # own head (EQ is 0, so `or` turns a tie of heads into that)
        sp, tp = s.parts, t.parts
        if len(tp) == 1:
            return cmp_ord(sp[0], t) or GT
        if len(sp) == 1:
            return cmp_ord(s, tp[0]) or LT
        for a, b in zip(sp, tp):
            c = cmp_ord(a, b)
            if c != EQ:
                return c
        return GT if len(sp) > len(tp) else LT
    if ts is tt:        # the commonest pairs; two BIG_K are identical
        if ts is Psi:
            return _cmp_psi_psi(s, t)
        if ts is Veblen:
            return _cmp_veblen_any(s, t)
        if ts is OmegaIdx:
            return cmp_ord(s.b, t.b)
        # w^a against w^b is a against b: strip the levels both towers
        # have in one step, so a deep pair neither nests frames nor fills
        # the memo per level
        m = min(s.height, t.height)
        return cmp_ord(tower_down(s, m), tower_down(t, m))
    ra, rb = _STRATUM[ts], _STRATUM[tt]
    if ra != rb:
        return LT if ra < rb else GT
    if ts is Veblen:
        return _cmp_veblen_any(s, t)
    if tt is Veblen:
        return -_cmp_veblen_any(t, s)
    if ts is OmegaIdx:
        return -_cmp_psi_omega(t, s)
    return _cmp_psi_omega(s, t)


cmp_ord = memo(_cmp_ord)


def _cmp_veblen_any(s, t):
    if type(t) is not Veblen:
        # t is strongly critical: phi(b,g) < t iff both arguments are
        if cmp_ord(s.b, t) == LT and cmp_ord(s.g, t) == LT:
            return LT
        return GT
    c = cmp_ord(s.b, t.b)
    if c == EQ:
        return cmp_ord(s.g, t.g)
    if c == LT:
        r = cmp_ord(s.g, t)
        if r == EQ:
            raise ComparisonUndecided(
                "non-normal Veblen argument: %r vs %r" % (s, t))
        return r
    return -_cmp_veblen_any(t, s)


def _cmp_psi_omega(p, om):
    """psi term p against Om_alpha; result from p's viewpoint."""
    alpha = om.b
    pi = p.pi
    if isinstance(pi, OmegaIdx) and pi.m:
        # Om_g < psi_{Om_{g+1}}(a) < Om_{g+1}
        return LT if cmp_ord(pi.b, alpha) <= EQ else GT
    # p names an Omega-fixed point: Om_alpha < p iff alpha < p
    c = cmp_ord(p, alpha)
    if c == EQ:
        raise ComparisonUndecided(
            "Omega index ties a psi term: %r vs %r" % (om, p))
    return c


def _cmp_psi_psi(s, t):
    """psi_pi^nu(b) against psi_ka^xi(a): LT when s < t by the four-clause
    test, else GT when t < s, else undecided.  Both tests are asked from
    the same three facts, cmp(pi, t), cmp(b, a) and cmp(ka, s), the test
    of t < s reading them as mirrors.  The last is asked the way round
    that the test of s < t states it: as s < ka in clause 2, when b < a.
    Clause 2 on one side and clause 3 on the other walk the same K-set
    test; when b != a it is walked once here and handed to both."""
    pit = cmp_ord(s.pi, t)
    if pit <= EQ:                                                   # clause 1
        return LT
    c = cmp_ord(s.a, t.a)
    kas = -cmp_ord(s, t.pi) if c == LT else cmp_ord(t.pi, s)
    k = None
    if c != EQ and kas == GT:
        k = _ks_lt(s, t) if c == LT else _ks_lt(t, s)
    if _psi_lt_by(s, t, c, kas, k):
        return LT
    if kas <= EQ:                                       # clause 1 for t < s
        return GT
    if _psi_lt_by(t, s, -c, pit, k):
        return GT
    raise ComparisonUndecided("psi comparison undecided: %r vs %r" % (s, t))


def _ks_lt(s, t):
    """K_t(pi, b, nu) < a for s = psi_pi^nu(b) and t = psi_ka^xi(a)."""
    a = t.a
    return ks_below(t, (s.pi, s.a), a) and ks_below(t, s.nu_comps, a)


def _psi_lt_by(s, t, c, kas, k):
    """Clauses 2-4 of psi_pi^nu(b) < psi_ka^xi(a), asked from c = cmp(b, a)
    and kas = cmp(ka, s); k is the K-set test that clause 2 or 3 needs
    when the caller walked it (b != a), else None."""
    if c == LT:
        if kas == GT:                                               # clause 2
            return k
        return False
    # guard: with ka <= s any genuine t satisfies t < ka <= s, so a firing
    # could only certify an ill-formed right-hand side
    if kas == GT and not (_ks_lt(t, s) if k is None else k):        # clause 3
        return True
    if c == EQ and s.pi is t.pi:                                    # clause 4
        if ks_below(t, s.nu_comps, t.a):
            from .cnf import lx_lt
            return lx_lt(s.nu, t.nu)
    return False


# ---------------------------------------------------------------------------
# cmp on exponent terms
# ---------------------------------------------------------------------------

def cmp_exp(x, y):
    """Comparison under the base-CNF reading: pair-lexicographic, so a
    plain ordinal term (head exponent 0) lies below every base-power sum."""
    if x is y:
        return EQ
    xp, yp = x.pairs, y.pairs
    for (e1, c1), (e2, c2) in zip(xp, yp):
        c = cmp_exp(e1, e2)
        if c != EQ:
            return c
        c = cmp_ord(c1, c2)
        if c != EQ:
            return c
    return GT if len(xp) > len(yp) else LT


# ---------------------------------------------------------------------------
# Component sets K_delta
# ---------------------------------------------------------------------------

# the one empty K-set object, shared with the components of zero entries
_EMPTY = E_ZERO.comps


def _check_delta(delta):
    if not (delta is ZERO or delta is BIG_K or isinstance(delta, Psi)):
        raise BadDelta("delta must be 0, the top term, or a psi term: %r"
                       % (delta,))


def k_delta(delta, alpha):
    """The finite component set K_delta(alpha)."""
    _check_delta(delta)
    return _k_delta(delta, alpha)


@memo
def _k_delta(delta, alpha):
    if isinstance(alpha, (ZeroT, BigKT)):
        return _EMPTY
    if isinstance(alpha, (Sum, Veblen)):
        # a union is built only when two different non-empty sets meet, and
        # then goes through _kset; otherwise it is one operand's own object,
        # so the table holds no copies (every empty result is _EMPTY)
        r = _EMPTY
        for p in alpha.parts if type(alpha) is Sum else (alpha.b, alpha.g):
            k = _k_delta(delta, p)
            if k and k is not r:
                r = _kset(r | k) if r else k
        return r
    if isinstance(alpha, (OmegaExp, OmegaIdx)):
        # K(w^ b) = K(Om b) = K(b): walk down a tower of both in this
        # frame, a run of w^ levels in one step, so that only the node
        # below it gets a memo entry
        while isinstance(alpha, (OmegaExp, OmegaIdx)):
            alpha = alpha.levels[0].b if type(alpha) is OmegaExp else alpha.b
        return _k_delta(delta, alpha)
    return _k_delta_psi(delta, alpha)


def _k_delta_psi(delta, alpha):
    if cmp_ord(alpha, delta) == LT:
        return _EMPTY
    if rule_tag(alpha) is None:
        raise InvalidTerm("no formation rule shapes %r" % (alpha,))
    # uniform clause {a} u K(a, pi) u K(vector components); the top-collapse
    # case needs K(a) too or comparison completeness fails (README,
    # decisions ledger)
    a = alpha.a
    r = frozenset((a,)) | _k_delta(delta, a) | _k_delta(delta, alpha.pi)
    for g in alpha.nu_comps:
        r |= _k_delta(delta, g)
    return _kset(r)


@memo
def _kset(r):
    """The first K-set object seen with r's elements: equal sets share one
    object across the entries of the _k_delta table."""
    return r


def k_delta_set(delta, items):
    """Pointwise union of K_delta over a collection of ordinal terms."""
    _check_delta(delta)
    r = _EMPTY
    for x in items:
        r |= _k_delta(delta, x)
    return r


def k_delta_exp(delta, x):
    """K_delta over an exponent term, via its components."""
    return k_delta_set(delta, x.comps)


def ks_below(delta, items, beta):
    """K_delta(X) < beta for X = items, the one way the library decides it:
    walks the memoized sets K_delta(x) and stops at the first element not
    below beta, building no union.  delta is not checked."""
    for x in items:
        for g in _k_delta(delta, x):
            if cmp_ord(g, beta) != LT:
                return False
    return True
