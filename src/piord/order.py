"""The decidable linear order on ordinal and exponent terms.

Comparison of psi terms follows the four-clause recursion of the notation
system's computability lemma and is mutually recursive with the component
sets K_delta; both directions are memoized on interned nodes.  Every memo
table in the package is made by ``memo`` and emptied by ``clear_caches``.
"""

import functools

from .errors import BadDelta, ComparisonUndecided, InvalidTerm
from .terms import (
    BIG_K, ZERO,
    BigKT, EOrd, OmegaExp, OmegaIdx, Psi, Sum, Veblen, ZeroT,
    is_zero_vec, k_components,
)

__all__ = [
    "LT", "EQ", "GT", "cmp_ord", "cmp_exp", "lt", "le",
    "k_delta", "k_delta_set", "k_delta_exp", "kset_below", "ks_below",
    "rule_tag", "hull_member", "clear_caches", "max_term",
]

LT, EQ, GT = -1, 0, 1

_MEMOS = []


def memo(fn):
    """Memoize fn on its arguments in an unbounded per-process table."""
    cached = functools.cache(fn)
    _MEMOS.append(cached)
    return cached


def clear_caches():
    """Empty every memo table; interned terms are never released."""
    for cached in _MEMOS:
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

# strata for cross-class principal comparison: everything below the top
# term, the top term itself, omega-powers above it
_STRATUM = {Veblen: 0, OmegaIdx: 0, Psi: 0, BigKT: 1, OmegaExp: 2}


def _cmp_ord(s, t):
    """Trichotomous comparison; EQ exactly on identical (interned) terms."""
    if s is t:
        return EQ
    sp, tp = s.parts, t.parts
    if len(sp) == 1 == len(tp):
        return _cmp_principal(s, t)
    return _cmp_lex(sp, tp)


cmp_ord = memo(_cmp_ord)


def lt(s, t):
    return cmp_ord(s, t) == LT


def le(s, t):
    return cmp_ord(s, t) <= EQ


def _cmp_lex(sp, tp):
    """Lexicographic comparison of CNF parts; a proper prefix is smaller."""
    for a, b in zip(sp, tp):
        c = cmp_ord(a, b)
        if c != EQ:
            return c
    if len(sp) == len(tp):
        return EQ
    return GT if len(sp) > len(tp) else LT


def _cmp_principal(s, t):
    ra, rb = _STRATUM[type(s)], _STRATUM[type(t)]
    if ra != rb:
        return LT if ra < rb else GT
    if ra == 2:                                   # omega-powers above the top
        return cmp_ord(s.b, t.b)
    if ra == 1:                                   # both are the top term
        return EQ
    ts, tt = type(s), type(t)
    if ts is Veblen:
        return _cmp_veblen_any(s, t)
    if tt is Veblen:
        return -_cmp_veblen_any(t, s)
    if ts is OmegaIdx and tt is OmegaIdx:
        return cmp_ord(s.b, t.b)
    if ts is OmegaIdx:
        return -_cmp_psi_omega(t, s)
    if tt is OmegaIdx:
        return _cmp_psi_omega(s, t)
    return _cmp_psi_psi(s, t)


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
    if c == LT:
        return LT
    if cmp_ord(alpha, p) == LT:
        return GT
    raise ComparisonUndecided("Omega index ties a psi term: %r vs %r" % (om, p))


def _cmp_psi_psi(s, t):
    if _psi_lt(s, t):
        return LT
    if _psi_lt(t, s):
        return GT
    raise ComparisonUndecided("psi comparison undecided: %r vs %r" % (s, t))


def _psi_lt(s, t):
    """The four-clause test for psi_pi^nu(b) < psi_ka^xi(a)."""
    pi, nu, b = s.pi, s.nu, s.a
    ka, xi, a = t.pi, t.nu, t.a
    if cmp_ord(pi, t) <= EQ:                                        # clause 1
        return True
    c = cmp_ord(b, a)
    if c == LT:                                                     # clause 2
        if cmp_ord(s, ka) == LT:
            if ks_below(t, (pi, b), a) and ks_below(t, s.nu_comps, a):
                return True
    else:                                                           # clause 3
        # guard: with ka <= s any genuine t satisfies t < ka <= s, so a
        # firing could only certify an ill-formed right-hand side
        if cmp_ord(ka, s) == GT:
            if not (ks_below(s, (ka, a), b) and ks_below(s, t.nu_comps, b)):
                return True
        if c == EQ and pi is ka:                                    # clause 4
            if ks_below(t, s.nu_comps, a):
                from .cnf import lx_lt
                if lx_lt(nu, xi):
                    return True
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
    if len(xp) == len(yp):
        return EQ
    return GT if len(xp) > len(yp) else LT


def max_term(items):
    """Maximum of a non-empty iterable of ordinal terms under cmp_ord."""
    best = None
    for t in items:
        if best is None or cmp_ord(t, best) == GT:
            best = t
    if best is None:
        raise ValueError("max of empty term collection")
    return best


# ---------------------------------------------------------------------------
# Component sets K_delta
# ---------------------------------------------------------------------------

_EMPTY = frozenset()


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
    if isinstance(alpha, Sum):
        r = _EMPTY
        for p in alpha.parts:
            r |= _k_delta(delta, p)
        return r
    if isinstance(alpha, Veblen):
        return _k_delta(delta, alpha.b) | _k_delta(delta, alpha.g)
    if isinstance(alpha, (OmegaExp, OmegaIdx)):
        return _k_delta(delta, alpha.b)
    return _k_delta_psi(delta, alpha)


def _k_delta_psi(delta, alpha):
    if cmp_ord(alpha, delta) == LT:
        return _EMPTY
    if rule_tag(alpha) is None:
        raise InvalidTerm("no formation rule shapes %r" % (alpha,))
    # uniform clause {a} u K(a, pi) u K(vector components); the top-collapse
    # case needs K(a) too or comparison completeness fails (see ledger)
    a = alpha.a
    r = frozenset((a,)) | _k_delta(delta, a) | _k_delta(delta, alpha.pi)
    for g in alpha.nu_comps:
        r |= _k_delta(delta, g)
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
    return k_delta_set(delta, k_components(x))


def kset_below(kset, beta):
    """True when every element of the set lies strictly below beta."""
    return all(cmp_ord(g, beta) == LT for g in kset)


def ks_below(delta, items, beta):
    """K_delta(X) < beta for X = items, the one way the library decides it:
    walks the memoized sets K_delta(x) and stops at the first element not
    below beta, building no union.  delta is not checked."""
    for x in items:
        for g in _k_delta(delta, x):
            if cmp_ord(g, beta) != LT:
                return False
    return True


def hull_member(gamma, delta, alpha):
    """The notation-level rendering of hull membership: K_delta(alpha) < gamma."""
    _check_delta(delta)
    return ks_below(delta, (alpha,), gamma)
