"""Hash-consed term nodes for the notation system and its exponent algebra.

Ordinal terms (class ``Ord``) name ordinals below the big epsilon base;
exponent terms (class ``Exp``) name ordinals below the next epsilon number,
written in Cantor normal form with the big base.  All nodes are interned:
building the same shape twice returns the same object, so equality is
identity and terms key dicts at pointer speed.  Every node's ``repr`` is
its spelling in the grammar of :mod:`piord.syntax`.

Raw factories (``mk_*``) perform only structural sanity checks; normal-form
side conditions live in :mod:`piord.validate` and normalizing constructors
in :mod:`piord.arith`.

A tower is the run of w^ levels over one base, the first node below them
that is not a w^ node.  Each ``OmegaExp`` node knows its ``height`` and
shares its tower's list of ``levels``, so ``tower_up`` and ``tower_down``
move any number of levels in one step.  The lists belong to interning: a
level is appended when ``mk_omega_exp`` builds it, and no list is ever
trimmed, so ``mk_omega_exp``'s cache must never be cleared.
"""

import functools

from .errors import MalformedChain

__all__ = [
    "Ord", "ZeroT", "BigKT", "Sum", "Veblen", "OmegaExp", "OmegaIdx", "Psi",
    "Exp", "EZeroT", "EOrd", "LamSum",
    "ZERO", "BIG_K", "ONE", "E_ZERO", "E_ONE",
    "mk_sum", "mk_veblen", "mk_omega_exp", "mk_omega_idx", "mk_psi",
    "mk_eord", "mk_lamsum", "from_parts", "tower_up", "tower_down",
    "is_principal", "is_strongly_critical", "is_successor_term",
    "is_regular",
    "zero_vec", "is_zero_vec", "strip_zeros",
    "m_at", "m_vec", "collapsing_series",
    "print_ord", "print_exp", "print_seq",
]


# ---------------------------------------------------------------------------
# Node classes
# ---------------------------------------------------------------------------

class Ord:
    """Base class of ordinal term nodes; repr is the grammar spelling.

    ``parts`` is the Cantor normal form: the weakly decreasing principal
    summands, () for zero and (t,) for a principal t.

    ``m`` is the recorded coefficient vector m(t) with its trailing zeros
    stripped: the vector of a psi term, (1,) for Om of a successor, and ()
    for every other node.  Only ``OmegaIdx`` and ``Psi`` hold it in a slot;
    every other class reads this class default."""
    __slots__ = ("size", "parts")
    m = ()

    def __repr__(self):
        return print_ord(self)


class ZeroT(Ord):
    __slots__ = ()


class BigKT(Ord):
    __slots__ = ()


class Sum(Ord):
    """Non-empty sum of at least two principal terms, weakly decreasing."""
    __slots__ = ()


class Veblen(Ord):
    __slots__ = ("b", "g")


class OmegaExp(Ord):
    """omega**b for b above the top regular term.

    ``height`` counts its levels over the tower's base, and ``levels[h-1]``
    is the tower's level of height h.  Until a tower has a second level,
    its list is its one node's ``parts``."""
    __slots__ = ("b", "height", "levels")


class OmegaIdx(Ord):
    """Om_b for 0 < b below the top regular term."""
    __slots__ = ("b", "m")


class Psi(Ord):
    """Collapsing term psi_pi^nu(a); nu is a tuple of Exp, length N - 2."""
    __slots__ = ("pi", "nu", "a", "nu_comps", "m")


class Exp:
    """Base class of exponent term nodes; repr is the grammar spelling.

    ``pairs`` is the base-CNF: the (exponent, coefficient) pairs head
    first, () for zero and ((0, a),) for a plain ordinal term a.
    ``comps`` is K(x), the finite set of its ordinal-term components."""
    __slots__ = ("size", "comps", "pairs")

    def __repr__(self):
        return print_exp(self)


class EZeroT(Exp):
    __slots__ = ()


class EOrd(Exp):
    """A positive ordinal term viewed as an exponent (base-power zero)."""
    __slots__ = ("a",)


class LamSum(Exp):
    """Sum of base-powers: pairs (exponent, coefficient), exponents strictly
    decreasing.  The strict grammar requires all exponents non-zero; a
    trailing zero-exponent pair is tolerated internally for CNF arithmetic
    (such values never validate as coefficient entries)."""
    __slots__ = ()


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------

# Each mk_* constructor is itself the cache of its node shape: it takes
# positional-only arguments, tuples where it takes a sequence, so the same
# shape always yields the same object.  These caches are not registered with
# order.memo: interned identity must outlive order.clear_caches() and
# order.trim_caches(), so they are the one unbounded table, by design.

def _new(cls):
    return object.__new__(cls)


def _principal(cls, size):
    t = _new(cls)
    t.size = size
    t.parts = (t,)
    return t


ZERO = _new(ZeroT)
ZERO.size = 1
ZERO.parts = ()
BIG_K = _principal(BigKT, 1)
E_ZERO = _new(EZeroT)
E_ZERO.size = 1
E_ZERO.comps = frozenset()
E_ZERO.pairs = ()


@functools.cache
def mk_sum(parts, /):
    assert len(parts) >= 2, "a sum needs at least two parts"
    for p in parts:
        assert is_principal(p), "sum parts must be principal terms"
    t = _new(Sum)
    t.parts = parts
    t.size = sum(p.size for p in parts) + len(parts) - 1
    return t


@functools.cache
def mk_veblen(b, g, /):
    t = _principal(Veblen, 1 + b.size + g.size)
    t.b, t.g = b, g
    return t


@functools.cache
def mk_omega_exp(b, /):
    t = _principal(OmegaExp, 1 + b.size)
    t.b = b
    if type(b) is not OmegaExp:
        t.height, t.levels = 1, t.parts
    else:
        # level h + 1 is built once, after level h: the list stays exact
        if b.height == 1:
            b.levels = [b]
        t.height, t.levels = b.height + 1, b.levels
        t.levels.append(t)
    return t


@functools.cache
def mk_omega_idx(b, /):
    t = _principal(OmegaIdx, 1 + b.size)
    t.b = b
    t.m = (E_ONE,) if is_successor_term(b) else ()
    return t


@functools.cache
def mk_psi(pi, nu, a, /):
    assert all(isinstance(e, Exp) for e in nu)
    # zero coefficient entries are notation padding and cost no symbols
    t = _principal(Psi, 1 + pi.size + a.size + sum(
        e.size for e in nu if e is not E_ZERO))
    t.pi, t.nu, t.a = pi, nu, a
    t.m = strip_zeros(nu)
    # K(nu) without copies: a zero vector shares E_ZERO's empty set, and a
    # vector with one component set shares that entry's own set
    comps = E_ZERO.comps
    for e in nu:
        c = e.comps
        if c and c is not comps:
            comps = comps | c if comps else c
    t.nu_comps = comps
    return t


@functools.cache
def mk_eord(a, /):
    assert isinstance(a, Ord) and a is not ZERO, "EOrd wraps positive terms"
    t = _new(EOrd)
    t.a = a
    t.size = a.size
    t.comps = frozenset((a,))
    t.pairs = ((E_ZERO, a),)
    return t


@functools.cache
def mk_lamsum(pairs, /):
    assert pairs, "a base-power sum needs at least one pair"
    assert not (len(pairs) == 1 and pairs[0][0] is E_ZERO), \
        "a single zero-exponent pair is an EOrd"
    t = _new(LamSum)
    t.pairs = pairs
    t.size = sum(1 + e.size + c.size for e, c in pairs) + len(pairs) - 1
    cs = set()
    for e, c in pairs:
        cs.add(c)
        cs |= e.comps
    t.comps = frozenset(cs)
    return t


def tower_up(a, k):
    """The k-fold w^ of a, for k >= 0: read from the level list of a's
    tower, where each missing level is built once, on the one below it."""
    if not k:
        return a
    if type(a) is not OmegaExp:
        a, k = mk_omega_exp(a), k - 1
    h = a.height + k
    levels = a.levels
    while len(levels) < h:
        levels = mk_omega_exp(levels[-1]).levels
    return levels[h - 1]


def tower_down(t, k):
    """The w^ node t without its top k levels, for 0 <= k <= t.height:
    t.b taken k times."""
    h = t.height - k
    return t.levels[h - 1] if h else t.levels[0].b


def from_parts(parts):
    """The ordinal term with the given CNF parts, a tuple; inverse of
    ``t.parts``."""
    if len(parts) > 1:
        return mk_sum(parts)
    return parts[0] if parts else ZERO


ONE = mk_veblen(ZERO, ZERO)          # the canonical 1 = phi(0,0)
E_ONE = mk_eord(ONE)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def is_principal(t):
    return isinstance(t, Ord) and len(t.parts) == 1


def is_strongly_critical(t):
    """Terms naming hull-closed ordinals: the top term, Om- and psi-terms."""
    return isinstance(t, (BigKT, OmegaIdx, Psi))


def is_successor_term(t):
    """True when t names a successor ordinal: its CNF tail is 1."""
    return t.parts[-1:] == (ONE,)


def is_regular(t):
    """True when terms may be collapsed below t: the top term, or a term
    recording a non-zero coefficient."""
    return t is BIG_K or bool(t.m)


def zero_vec(n):
    """The all-zero coefficient vector for parameter N = n."""
    return (E_ZERO,) * (n - 2)


def is_zero_vec(vec):
    return all(e is E_ZERO for e in vec)


def strip_zeros(vec):
    """Drop trailing zero entries (the ``*0`` padding convention)."""
    k = len(vec)
    while k > 0 and vec[k - 1] is E_ZERO:
        k -= 1
    return tuple(vec[:k])


# ---------------------------------------------------------------------------
# Recorded coefficients m_k
# ---------------------------------------------------------------------------

def m_at(t, i):
    """The coefficient recorded at logical position i >= 2 of t.

    Undefined for the top regular term (callers special-case it).
    """
    assert t is not BIG_K, "m-vector of the top term is not defined"
    j = i - 2
    return t.m[j] if 0 <= j < len(t.m) else E_ZERO


def m_vec(t, params):
    """The full recorded coefficient vector of t, or None for the top term."""
    if t is BIG_K:
        return None
    return t.m + zero_vec(params.n)[len(t.m):]


# ---------------------------------------------------------------------------
# Collapsing series
# ---------------------------------------------------------------------------

def collapsing_series(t):
    """The chain (pi_0, ..., pi_L) with pi_L = t, each pi_i the collapse
    base of pi_{i+1} and pi_0 the top regular term.  Fails when the chain
    leaves psi terms before reaching the top."""
    if not isinstance(t, Psi):
        raise MalformedChain("collapsing series requires a psi term: %r" % (t,))
    chain = [t]
    cur = t
    while isinstance(cur, Psi):
        cur = cur.pi
        chain.append(cur)
    if cur is not BIG_K:
        raise MalformedChain(
            "pd chain of %r stops at %r before the top term" % (t, cur))
    chain.reverse()
    return chain


# ---------------------------------------------------------------------------
# Printing in the concrete grammar of piord.syntax
# ---------------------------------------------------------------------------

def print_ord(t):
    parts = t.parts
    if len(parts) == 1 and t is not ONE:    # ONE prints as the numeral 1
        return _print_principal(t)
    if not parts:
        return "0"
    # coalesce the maximal run of trailing ones into a decimal literal
    k = len(parts)
    while k > 0 and parts[k - 1] is ONE:
        k -= 1
    chunks = [_print_principal(p) for p in parts[:k]]
    ones = len(parts) - k
    if ones:
        chunks.append(str(ones))
    return "+".join(chunks)


def _print_principal(t):
    if isinstance(t, Veblen):
        return "phi(%s,%s)" % (print_ord(t.b), print_ord(t.g))
    if isinstance(t, OmegaExp):
        # a tower of k levels is printed in this frame, around its base
        k = t.height
        return "w^(" * k + print_ord(t.levels[0].b) + ")" * k
    if isinstance(t, OmegaIdx):
        return "Om(%s)" % print_ord(t.b)
    if isinstance(t, Psi):
        if not t.m:
            return "psi(%s; %s)" % (print_ord(t.pi), print_ord(t.a))
        return "psi(%s; %s; %s)" % (
            print_ord(t.pi), print_seq(t.nu), print_ord(t.a))
    if isinstance(t, BigKT):
        return "K"
    raise ValueError("not a principal term: %s" % type(t).__name__)


def print_exp(x):
    if isinstance(x, EZeroT):
        return "0"
    if isinstance(x, EOrd):
        return print_ord(x.a)
    return "+".join("L^(%s)*(%s)" % (print_exp(e), print_ord(c))
                    for e, c in x.pairs)


def print_seq(vec):
    return "[%s]" % ",".join(print_exp(e) for e in vec)
