"""Membership checking for ordinal and exponent terms.

``check_ot`` decides which formation rule built a term and verifies that
rule's side conditions bottom-up, stopping at the first that fails.  The
component sets and recorded coefficients live in :mod:`piord.order` and
:mod:`piord.terms`.
"""

import functools
from collections import namedtuple

from .terms import (
    BIG_K, E_ZERO, ZERO,
    BigKT, EOrd, EZeroT, LamSum, OmegaExp, OmegaIdx, Psi, Sum, Veblen, ZeroT,
    collapsing_series, is_regular, is_strongly_critical, m_at,
)
# k_delta and k_delta_exp are not called here (K-set conditions are decided
# by ks_below), but the benchmark's layer map, perfbench/layers.json, names
# piord.validate.k_delta and piord.validate.k_delta_exp.
from .order import (
    GT, LT,
    cmp_exp, cmp_ord, k_delta, k_delta_exp, k_delta_set, ks_below,
    memo, rule_tag,
    PSI9, PSI10, PSI11, PSI12,
)
from .cnf import is_strict_exp, pairs, vec_sp
from .sd import in_sd
from .errors import NotMahloTerm

__all__ = [
    "ValidationReport", "check_ot", "check_exp", "rule_vs_series",
    "RULE_ATOM", "RULE_SUM", "RULE_VEBLEN", "RULE_OMEGA_EXP", "RULE_OMEGA_IDX",
]

RULE_ATOM = "Atom"
RULE_SUM = "Sum"
RULE_VEBLEN = "Veblen"
RULE_OMEGA_EXP = "OmegaExp"
RULE_OMEGA_IDX = "OmegaIdx"


class ValidationReport(namedtuple("ValidationReport", "rule failure",
                                  defaults=(None,))):
    """One verdict: the formation rule that shaped the term (``None`` when
    none did) and the first failed side condition as ``(name, detail)``,
    or ``None`` when the term is accepted."""

    __slots__ = ()

    @property
    def ok(self):
        return self.failure is None

    def first_failure(self):
        if self.failure is None:
            return None
        name, detail = self.failure
        return "%s: %s" % (name, detail) if detail else name


def _fail(rule, name, detail=""):
    return ValidationReport(rule, (name, detail))


@memo
def check_ot(t, params):
    """Validate t as a member of the notation system for the given N."""
    if isinstance(t, (ZeroT, BigKT)):
        return ValidationReport(RULE_ATOM)
    if isinstance(t, Sum):
        return _check_sum(t, params)
    if isinstance(t, Veblen):
        return _check_veblen(t, params)
    if isinstance(t, OmegaExp):
        return _check_omega_exp(t, params)
    if isinstance(t, OmegaIdx):
        return _check_omega_idx(t, params)
    if isinstance(t, Psi):
        return _check_psi(t, params)
    return _fail(None, "unknown node", repr(t))


def _sub_ok(rule, t, params):
    if not check_ot(t, params).ok:
        return _fail(rule, "subterm", "invalid subterm %r" % (t,))
    return None


def _check_sum(t, params):
    for p in t.parts:
        bad = _sub_ok(RULE_SUM, p, params)
        if bad:
            return bad
    for a, b in zip(t.parts, t.parts[1:]):
        if cmp_ord(a, b) == LT:
            return _fail(RULE_SUM, "weakly decreasing",
                         "%r < %r" % (a, b))
    return ValidationReport(RULE_SUM)


def _check_veblen(t, params):
    for x in (t.b, t.g):
        bad = _sub_ok(RULE_VEBLEN, x, params)
        if bad:
            return bad
        if cmp_ord(x, BIG_K) != LT:
            return _fail(RULE_VEBLEN, "args below top", repr(x))
    # normal form: the value must exceed both arguments
    if isinstance(t.g, Veblen) and cmp_ord(t.g.b, t.b) == GT:
        return _fail(RULE_VEBLEN, "normal form",
                     "second argument is a fixed point of the first level")
    if is_strongly_critical(t.g) and cmp_ord(t.b, t.g) == LT:
        return _fail(RULE_VEBLEN, "normal form",
                     "strongly critical second argument absorbs")
    if t.g is ZERO and is_strongly_critical(t.b):
        return _fail(RULE_VEBLEN, "normal form",
                     "value collapses to the first argument")
    return ValidationReport(RULE_VEBLEN)


def _check_omega_exp(t, params):
    # check the tower's base b, the innermost exponent, in this frame, so
    # that only the top gets a memo entry.  A level above the innermost
    # has a w^ term as its exponent, which the comparator puts above the
    # top by its stratum alone, so every level is valid, and so is t.b,
    # when b is valid and above the top
    b = t.levels[0].b
    if not check_ot(b, params).ok or (
            b is not t.b and cmp_ord(b, BIG_K) != GT):
        return _fail(RULE_OMEGA_EXP, "subterm", "invalid subterm %r" % (t.b,))
    if cmp_ord(t.b, BIG_K) != GT:
        return _fail(RULE_OMEGA_EXP, "exponent above top", repr(t.b))
    return ValidationReport(RULE_OMEGA_EXP)


def _check_omega_idx(t, params):
    bad = _sub_ok(RULE_OMEGA_IDX, t.b, params)
    if bad:
        return bad
    if t.b is ZERO or cmp_ord(t.b, BIG_K) != LT:
        return _fail(RULE_OMEGA_IDX, "index in range", repr(t.b))
    if isinstance(t.b, Psi):
        return _fail(RULE_OMEGA_IDX, "normal form",
                     "psi indices are fixed points")
    return ValidationReport(RULE_OMEGA_IDX)


@memo
def check_exp(x, params):
    """Validate x as a member of the strict exponent grammar."""
    if isinstance(x, EZeroT):
        return ValidationReport("EZero")
    if isinstance(x, EOrd):
        if not check_ot(x.a, params).ok:
            return _fail("EOrd", "subterm", repr(x.a))
        return ValidationReport("EOrd")
    assert isinstance(x, LamSum)
    if not is_strict_exp(x):
        return _fail("LamSum", "nonzero exponents",
                     "zero base-power inside a sum")
    prev = None
    for e, c in x.pairs:
        if not check_exp(e, params).ok:
            return _fail("LamSum", "subterm", repr(e))
        if not check_ot(c, params).ok or c is ZERO:
            return _fail("LamSum", "coefficient", repr(c))
        if prev is not None and cmp_exp(prev, e) != GT:
            return _fail("LamSum", "strictly decreasing",
                         "%r then %r" % (prev, e))
        prev = e
    return ValidationReport("LamSum")


# ---------------------------------------------------------------------------
# psi formation
# ---------------------------------------------------------------------------

def _check_psi(t, params):
    n = params.n
    if len(t.nu) != n - 2:
        return _fail(None, "arity",
                     "coefficient vector has length %d, need %d"
                     % (len(t.nu), n - 2))
    bad = _sub_ok(None, t.pi, params) or _sub_ok(None, t.a, params)
    if bad:
        return bad
    for e in t.nu:
        if not check_exp(e, params).ok:
            return _fail(None, "coefficient entry", repr(e))
    check = _PSI_RULES.get(rule_tag(t))
    if check is None:
        return _fail(None, "formation rule",
                     "no psi rule matches base %r with this vector" % (t.pi,))
    return check(t, params)


def _k_fail(rule, name, t, items):
    """The failure of K_t(items) < t.a, or None when the check passes.  The
    walk builds no union; only a failure builds one, to list the whole
    sorted set in its detail."""
    if ks_below(t, items, t.a):
        return None
    detail = ", ".join(sorted(repr(g) for g in k_delta_set(t, items)))
    return _fail(rule, name, "{" + detail + "}")


def _check_psi9(t, params):
    if not is_regular(t.pi):
        return _fail(PSI9, "regular base", repr(t.pi))
    return (_k_fail(PSI9, "K(pi,a) < a", t, (t.pi, t.a))
            or ValidationReport(PSI9))


def _check_psi10(t, params):
    # K(b,a) < a holds for every valid b and a (README, decisions ledger)
    b = t.nu[-1].a
    if cmp_ord(b, t.a) == GT:
        return _fail(PSI10, "0 < b <= a", "b=%r a=%r" % (b, t.a))
    return ValidationReport(PSI10)


def _check_psi11(t, params):
    pi = t.pi
    # m(pi) ends at position k + 1, the step is at k; rule_tag gives k >= 2
    # and the arity check on pi gives k <= N - 2
    k = len(pi.m)
    # vector must copy m(pi) strictly below k and vanish strictly above
    for i in params.logical_indices():
        if i < k and t.nu[i - 2] is not pi.m[i - 2]:
            return _fail(PSI11, "vector prefix",
                         "entry %d differs from base coefficient" % i)
        if i > k and t.nu[i - 2] is not E_ZERO:
            return _fail(PSI11, "vector tail", "entry %d non-zero" % i)
    ps_k = pairs(t.nu[k - 2])
    ps_m = pairs(pi.m[-2])
    if not (len(ps_k) == len(ps_m) + 1 and ps_k[:len(ps_m)] == ps_m
            and ps_k[-1][0] is pi.m[-1]):
        return _fail(PSI11, "entry k = m_k + base-power")
    b = ps_k[-1][1]
    if cmp_ord(b, t.a) == GT:
        return _fail(PSI11, "0 < b <= a", "b=%r a=%r" % (b, t.a))
    return (_k_fail(PSI11, "K(pi,a,b) u K(K(m(pi))) < a", t,
                    (pi, t.a, b, *pi.nu_comps))
            or ValidationReport(PSI11))


def _check_psi12(t, params):
    pi = t.pi
    if in_sd(t.nu) is None:
        return _fail(PSI12, "vector in SD")
    m2 = m_at(pi, 2)
    if not vec_sp(t.nu, m2):
        return _fail(PSI12, "vector sp-below m_2(pi)", repr(m2))
    bad = _k_fail(PSI12, "K(pi,a) < a", t, (pi, t.a))
    if bad:
        return bad
    # each non-zero entry's components must not all collapse below the stage
    for i, e in enumerate(t.nu, 2):
        if e is E_ZERO:
            continue
        top = max(e.comps, key=functools.cmp_to_key(cmp_ord))
        if not ks_below(t, e.comps, top):
            return _fail(PSI12, "K_a(nu_%d) < max K(nu_%d)" % (i, i),
                         repr(top))
    return ValidationReport(PSI12)


_PSI_RULES = {PSI9: _check_psi9, PSI10: _check_psi10, PSI11: _check_psi11,
              PSI12: _check_psi12}


# ---------------------------------------------------------------------------
# Collapsing-series classification
# ---------------------------------------------------------------------------

def rule_vs_series(t, params):
    """True when the pd-chain length matches the formation rule of a
    psi term with non-zero coefficients."""
    if not isinstance(t, Psi) or not t.m:
        raise NotMahloTerm(repr(t))
    rep = check_ot(t, params)
    if not rep.ok:
        raise NotMahloTerm("unvalidated term %r" % (t,))
    series = collapsing_series(t)
    L = len(series) - 1
    if L == 1:
        expected = PSI10
    elif (L - 1) % (params.n - 2) == 0:
        expected = PSI12
    else:
        expected = PSI11
    return rep.rule == expected
