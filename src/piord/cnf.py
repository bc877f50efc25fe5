"""Structural relations on exponent terms in base-CNF form.

Covers head and tail exponents, parts, the sequence order, step-downs of
exponents and of vectors, the head-exponent lexicographic order, CNF
sums, and irreducibility of coefficient vectors.

Every exponent is handled through its ``pairs``, the (exponent,
coefficient) pairs with strictly decreasing exponents; a plain ordinal
term is the degenerate single pair with exponent zero.
"""

from .errors import UndefinedOnZero
from .terms import (
    E_ZERO, LamSum,
    from_parts, is_zero_vec, mk_eord, mk_lamsum, strip_zeros,
)
from .order import EQ, GT, LT, cmp_exp, cmp_ord

__all__ = [
    "pairs", "from_pairs", "is_strict_exp",
    "he", "te", "he_iter", "all_parts",
    "seq_lt", "step_down", "vec_step_down", "vec_sp", "lx_lt",
    "exp_add", "irreducible",
]

# ---------------------------------------------------------------------------
# CNF pair view
# ---------------------------------------------------------------------------

def pairs(x):
    """The (exponent, coefficient) pairs of x, head first; () for zero."""
    return x.pairs


def from_pairs(ps):
    """The exponent with the given CNF pairs; inverse of ``x.pairs``."""
    if not ps:
        return E_ZERO
    if len(ps) == 1 and ps[0][0] is E_ZERO:
        return mk_eord(ps[0][1])
    return mk_lamsum(ps)


def is_strict_exp(x):
    """True when x lies in the strict exponent grammar: a pure base-power
    sum carries no zero exponent."""
    if isinstance(x, LamSum):
        return all(e is not E_ZERO for e, _ in x.pairs)
    return True


# ---------------------------------------------------------------------------
# Head and tail exponents
# ---------------------------------------------------------------------------

def he(x):
    """Head exponent; 0 for plain ordinal terms (including 1)."""
    if x is E_ZERO:
        raise UndefinedOnZero("head exponent of 0")
    return x.pairs[0][0]


def te(x):
    """Tail exponent; 0 for plain ordinal terms (including 1)."""
    if x is E_ZERO:
        raise UndefinedOnZero("tail exponent of 0")
    return x.pairs[-1][0]


def he_iter(x, i):
    """he applied i times; None once the chain hits zero."""
    for _ in range(i):
        if x is E_ZERO:
            return None
        x = he(x)
    return x


# ---------------------------------------------------------------------------
# Parts
# ---------------------------------------------------------------------------

def all_parts(x):
    """All parts of x, longest first (x itself down to 0)."""
    ps = x.pairs
    return [from_pairs(ps[:j]) for j in range(len(ps), -1, -1)]


# ---------------------------------------------------------------------------
# Sequence order
# ---------------------------------------------------------------------------

def seq_lt(nu_vec, x):
    """The pointwise order against iterated-tail-part chains of x.

    The all-zero vector reads as the single entry (0), so it sits below
    every non-zero exponent and below nothing else.
    """
    vec = strip_zeros(nu_vec)
    if not vec:
        return x is not E_ZERO
    return _seq_lt(vec, x)


def _seq_lt(vec, x):
    nu0 = vec[0]
    ps = x.pairs
    for j in range(len(ps), 0, -1):
        mu = from_pairs(ps[:j])
        if cmp_exp(nu0, mu) == LT:
            if len(vec) == 1:
                return True
            if _seq_lt(vec[1:], te(mu)):
                return True
    return False


# ---------------------------------------------------------------------------
# Step-downs
# ---------------------------------------------------------------------------

def step_down(z, x):
    """z keeps all of x's CNF but the tail, decrements the tail coefficient
    (possibly to zero) and appends anything below the tail base-power."""
    px = x.pairs
    if not px:
        return False
    e0, a0 = px[-1]
    m = len(px) - 1
    pz = z.pairs
    if pz[:m] != px[:m]:
        return False
    rest = pz[m:]
    if rest and cmp_exp(rest[0][0], e0) == EQ:
        return cmp_ord(rest[0][1], a0) == LT
    # tail coefficient dropped to zero; remainder must stay below the tail
    return not rest or cmp_exp(rest[0][0], e0) == LT


def vec_step_down(nu_vec, x):
    """Each entry steps down the matching iterated tail exponent of x.

    Trailing zeros are padding; a fully zero vector holds vacuously.
    """
    vec = strip_zeros(nu_vec)
    if not vec:
        return True
    cur = x
    for i, nu in enumerate(vec):
        if i > 0:
            if cur is E_ZERO:
                return False
            cur = te(cur)
        if not step_down(nu, cur):
            return False
    return True


def vec_sp(nu_vec, x):
    """The vector steps down some part of x."""
    return any(vec_step_down(nu_vec, mu) for mu in all_parts(x))


# ---------------------------------------------------------------------------
# Head-exponent lexicographic order on coefficient vectors
# ---------------------------------------------------------------------------

def lx_lt(nu_vec, xi_vec):
    """The order deciding psi-vs-psi comparison at equal base and stage.

    Vectors are logically indexed 2..N-1.  Equal vectors compare False, as
    does the case where xi vanishes from the first difference on (the
    definition leaves it open; see the decisions ledger in the README).
    """
    if len(nu_vec) != len(xi_vec):
        raise IndexError("vectors must have equal length")
    i = None
    for j in range(len(nu_vec)):
        if nu_vec[j] is not xi_vec[j]:
            i = j
            break
    if i is None:
        return False
    if is_zero_vec(nu_vec[i:]):
        return True
    if is_zero_vec(xi_vec[i:]):
        return False
    k0 = next(j for j in range(i, len(nu_vec)) if nu_vec[j] is not E_ZERO)
    k1 = next(j for j in range(i, len(xi_vec)) if xi_vec[j] is not E_ZERO)
    if i == k0 < k1:
        h = he_iter(nu_vec[k0], k1 - k0)
        return h is not None and cmp_exp(h, xi_vec[k1]) <= EQ
    if k0 >= k1 == i:
        h = he_iter(xi_vec[k1], k0 - k1)
        return h is not None and cmp_exp(nu_vec[k0], h) == LT
    return False


# ---------------------------------------------------------------------------
# CNF sums
# ---------------------------------------------------------------------------

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


def exp_add(x, y):
    """CNF sum of exponents: summands of x below y's head are absorbed."""
    if y is E_ZERO:
        return x
    if x is E_ZERO:
        return y
    px, py = x.pairs, y.pairs
    h = py[0][0]
    j = len(px)
    while j > 0 and cmp_exp(px[j - 1][0], h) == LT:
        j -= 1
    if j > 0 and cmp_exp(px[j - 1][0], h) == EQ:
        merged = (h, add(px[j - 1][1], py[0][1]))
        return from_pairs(px[:j - 1] + (merged,) + py[1:])
    return from_pairs(px[:j] + py)


# ---------------------------------------------------------------------------
# Irreducibility of coefficient vectors
# ---------------------------------------------------------------------------

def irreducible(vec):
    """Every non-zero entry's tail Tl(vec[i]) lies at or above the k-fold
    tower L^(...L^(vec[i+k]+1)...) of each later entry.

    The tail lies below that tower exactly when its k-th head exponent is
    at most vec[i+k], or is undefined because the head walk reached zero
    sooner.  Zero is at most every entry, so the walk stops at the first
    zero it meets, and no tower is built."""
    n = len(vec)
    for i in range(n):
        if vec[i] is E_ZERO:
            continue
        h = te(vec[i])  # the head exponent of the tail
        for k in range(1, n - i):
            if cmp_exp(h, vec[i + k]) != GT:
                return False
            h = he(h)
    return True
