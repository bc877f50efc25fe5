"""Normalizing constructors: sums, omega-powers, Omega, psi builders,
towers, and the proof-theoretic bound pipeline.

Every constructor returns a validated term or raises; these are the only
construction paths the library surface exposes.
"""

from .errors import LimitExceeded, OutOfRange, ValidationError
# mk_sum is not called here (add builds sums), but the benchmark's layer
# map, perfbench/layers.json, names piord.arith.mk_sum.
from .terms import (
    BIG_K, ONE, ZERO,
    OmegaExp, Psi, Veblen,
    is_strongly_critical, mk_eord, mk_omega_exp,
    mk_omega_idx, mk_psi, mk_sum, mk_veblen, tower_up, zero_vec,
)
from .order import GT, LT, PSI10, PSI11, cmp_ord
# add is defined beside exp_add, which calls it
from .cnf import add, exp_add, from_pairs
from .validate import ValidationReport, check_ot

__all__ = [
    "add", "omega_exp", "omega_idx",
    "psi", "psi0", "psiK", "step_vector", "psi_step", "psi_sd",
    "omega_tower", "theorem_bound",
]


def omega_exp(b):
    """omega**b: strongly critical terms and the Veblen terms phi(c,g) with
    c > 0 are fixed; below the top term this is the first Veblen level,
    above it the dedicated constructor."""
    if is_strongly_critical(b):
        return b
    if cmp_ord(b, BIG_K) == GT:
        return mk_omega_exp(b)
    if isinstance(b, Veblen) and b.b is not ZERO:
        return b
    return mk_veblen(ZERO, b)


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

# The stage-n bound term nests n omega-powers.  Building, validating and
# comparing its tower cost the same at any height, but printing it writes
# every level, so n is bounded before the first level is built.
MAX_STAGE = 1000


def omega_tower(a, n):
    """n-fold omega-power of a."""
    while n and type(a) is not OmegaExp:
        a, n = omega_exp(a), n - 1
    # w^ of a term above K is above K and not strongly critical, so from
    # the first omega-power level on, omega_exp would take its
    # mk_omega_exp branch anyway: read the rest off a's tower
    return tower_up(a, n)


def theorem_bound(n, params):
    """The stage-n bound term: the first-Omega collapse of the n-fold
    omega tower over the successor of the top term, for 0 <= n <= MAX_STAGE."""
    if not 0 <= n <= MAX_STAGE:
        raise LimitExceeded("stage must lie in 0..%d, got %d" % (MAX_STAGE, n))
    omega1 = omega_idx(ONE)
    return psi0(omega1, omega_tower(add(BIG_K, ONE), n), params)
