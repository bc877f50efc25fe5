"""Normalizing constructors: sums, omega-powers, Veblen, Omega, psi builders,
towers, and the proof-theoretic bound pipeline.

Every constructor returns a validated term or raises; these are the only
construction paths the library surface exposes.
"""

from .errors import ArgsNotBelowK, LimitExceeded, OutOfRange, ValidationError
from .params import SystemParams
# mk_sum is not called here (sums are built by from_parts), but the
# benchmark's layer map, perfbench/layers.json, names piord.arith.mk_sum.
from .terms import (
    BIG_K, ONE, ZERO,
    Psi, Veblen,
    from_parts, is_strongly_critical, mk_eord, mk_omega_exp,
    mk_omega_idx, mk_psi, mk_sum, mk_veblen, zero_vec,
)
from .order import GT, LT, PSI10, PSI11, cmp_ord
from .cnf import exp_add, from_pairs
from .validate import ValidationReport, check_ot

__all__ = [
    "add", "natural_sum", "succ", "from_int", "omega_exp", "veblen",
    "omega_idx", "psi", "psi0", "psiK", "step_vector", "psi_step", "psi_sd",
    "omega_tower", "theorem_bound",
]


def add(a, b):
    """CNF sum: summands of a strictly below b's head are absorbed."""
    pa, pb = a.parts, b.parts
    if not pb:
        return a
    if not pa:
        return b
    head = pb[0]
    j = len(pa)
    while j > 0 and cmp_ord(pa[j - 1], head) == LT:
        j -= 1
    return from_parts(pa[:j] + pb)


def natural_sum(a, b):
    """Commutative sum: merge the two part multisets, largest first."""
    merged = []
    pa, pb = a.parts, b.parts
    i = j = 0
    while i < len(pa) and j < len(pb):
        if cmp_ord(pa[i], pb[j]) == LT:
            merged.append(pb[j])
            j += 1
        else:
            merged.append(pa[i])
            i += 1
    merged.extend(pa[i:])
    merged.extend(pb[j:])
    return from_parts(tuple(merged))


def succ(a):
    return add(a, ONE)


def from_int(k):
    """The canonical finite ordinal: k summands phi(0,0)."""
    if k < 0:
        raise ValueError("finite ordinals are non-negative")
    return from_parts((ONE,) * k)


def omega_exp(b):
    """omega**b: strongly critical terms are fixed; below the top term this
    is the first Veblen level, above it the dedicated constructor."""
    if is_strongly_critical(b):
        return b
    if cmp_ord(b, BIG_K) == GT:
        return mk_omega_exp(b)
    return veblen(ZERO, b)


def veblen(b, g):
    """Binary Veblen normalization for arguments below the top term."""
    for x in (b, g):
        if cmp_ord(x, BIG_K) != LT:
            raise ArgsNotBelowK(repr(x))
    if isinstance(g, Veblen) and cmp_ord(g.b, b) == GT:
        return g
    if is_strongly_critical(g) and cmp_ord(b, g) == LT:
        return g
    if g is ZERO and is_strongly_critical(b):
        return b
    return mk_veblen(b, g)


def omega_idx(b):
    """Om_b for 0 < b below the top term; psi terms are fixed points."""
    if b is ZERO or cmp_ord(b, BIG_K) != LT:
        raise OutOfRange(repr(b))
    if isinstance(b, Psi):
        return b
    return mk_omega_idx(b)


# ---------------------------------------------------------------------------
# psi builders
# ---------------------------------------------------------------------------

def psi(pi, nu, a, params):
    """Construct psi_pi^nu(a) and validate it; raises with the failing
    report otherwise."""
    t = mk_psi(pi, tuple(nu), a)
    rep = check_ot(t, params)
    if not rep.ok:
        raise ValidationError(rep)
    return t


def psi0(pi, a, params):
    """The plain collapse psi_pi(a) (all-zero coefficient vector)."""
    return psi(pi, zero_vec(params.n), a, params)


def psiK(b, a, params):
    """The top-term collapse carrying b at the last coefficient position."""
    if b is ZERO:
        raise ValidationError(ValidationReport(PSI10, ("0 < b", "b=0")))
    nu = zero_vec(params.n)[:-1] + (mk_eord(b),)
    return psi(BIG_K, nu, a, params)


def step_vector(pi, b, n):
    """The stepping rule's vector below pi, a base with at least two
    recorded coefficients: a base-power with exponent m_{k+1}(pi) and
    coefficient b appended to the entry at the last active position k."""
    entry = exp_add(pi.m[-2], from_pairs(((pi.m[-1], b),)))
    nu = pi.m[:-2] + (entry,)
    return nu + zero_vec(n)[len(nu):]


def psi_step(pi, b, a, params):
    """One reflection-degree step below pi, with the vector
    ``step_vector(pi, b, N)``."""
    if len(pi.m) < 2:
        raise ValidationError(ValidationReport(PSI11, (
            "base coefficients",
            "base %r has no coefficient above position 2" % (pi,))))
    return psi(pi, step_vector(pi, b, params.n), a, params)


def psi_sd(pi, nu, a, params):
    """Collapse with an explicit step-down coefficient vector."""
    return psi(pi, nu, a, params)


# ---------------------------------------------------------------------------
# Towers and the bound pipeline
# ---------------------------------------------------------------------------

# The stage-n bound term nests n omega-powers, each built and validated in
# turn, so n is bounded before the first level is built.
MAX_STAGE = 1000


def omega_tower(a, n):
    """n-fold omega-power of a."""
    for _ in range(n):
        a = omega_exp(a)
    return a


def theorem_bound(n, params=None):
    """The stage-n bound term: the first-Omega collapse of the n-fold
    omega tower over the successor of the top term, for 0 <= n <= MAX_STAGE."""
    if not 0 <= n <= MAX_STAGE:
        raise LimitExceeded("stage must lie in 0..%d, got %d" % (MAX_STAGE, n))
    params = params or SystemParams()
    omega1 = omega_idx(ONE)
    return psi0(omega1, omega_tower(add(BIG_K, ONE), n), params)
