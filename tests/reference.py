"""piord's order from its rules alone, to test the library against: psi
terms by the four clauses and K-sets that piord.order's docstrings and the
README's decisions ledger state, the rest by Cantor normal form and the
binary Veblen function (Schuette, Proof Theory, 1977, ch. 13).  It reads
only term slots and takes no identity, height, stratum or mirror shortcut;
a pair that no rule decides reads EQ.  clear() empties its tables."""

import functools

from piord.terms import ZERO, BigKT, Exp, OmegaExp, OmegaIdx, Psi, Veblen

LT, EQ, GT = -1, 0, 1


def clear():
    for table in (cmp, psi_lt, kset):
        table.cache_clear()


def _lex(xs, ys):
    """Lexicographic, a proper prefix below."""
    for x, y in zip(xs, ys):
        if (c := cmp(x, y)) != EQ:
            return c
    return (len(xs) > len(ys)) - (len(xs) < len(ys))


def _phi(t):
    """(b, g) with t = phi(b,g): w^g is phi(0,g), and the strongly
    critical K, Om and psi terms are phi(t,0)."""
    if type(t) is Veblen:
        return t.b, t.g
    return (ZERO, t.b) if type(t) is OmegaExp else (t, ZERO)


@functools.cache
def cmp(s, t):
    """LT, EQ or GT for two ordinal terms or two exponents."""
    if isinstance(s, Exp):          # base-L (exponent, coefficient) pairs
        return _lex(sum(s.pairs, ()), sum(t.pairs, ()))
    if len(s.parts) != 1 or len(t.parts) != 1:      # zero or a sum
        return _lex(s.parts, t.parts)
    ts, tt = type(s), type(t)
    if Veblen in (ts, tt) or OmegaExp in (ts, tt):
        (b, g), (c, d) = _phi(s), _phi(t)
        x = cmp(b, c)
        if x == EQ:
            return cmp(g, d)
        # b < c: phi(b,g) < t iff g < t; c < b: s < phi(c,d) iff s < d
        return cmp(g, t) if x == LT else cmp(s, d)
    if BigKT in (ts, tt):           # K lies above every Om and psi term
        return (ts is BigKT) - (tt is BigKT)
    if ts is OmegaIdx:
        return cmp(s.b, t.b) if tt is OmegaIdx else -cmp(t, s)
    if tt is OmegaIdx:
        # Om_g < psi_{Om_{g+1}}(a) < Om_{g+1}; any other psi term p is an
        # Omega fixed point, Om_p = p
        if type(s.pi) is OmegaIdx:
            return LT if cmp(s.pi, t) != GT else GT
        return cmp(s, t.b)
    return psi_lt(t, s) - psi_lt(s, t)


@functools.cache
def psi_lt(s, t):
    """The four clauses of s = psi_pi^nu(b) < t = psi_ka^xi(a): (1) pi <= t;
    (2) b < a, s < ka and K_t(pi, b, nu) < a; (3) a <= b, s < ka and not
    K_s(ka, a, xi) < b; (4) b = a, pi = ka, K_t(nu) < a and nu < xi."""
    if cmp(s.pi, t) != GT:
        return True
    c = cmp(s.a, t.a)
    if c == LT:
        return (cmp(s, t.pi) == LT
                and below(t, {s.pi, s.a} | s.nu_comps, t.a))
    if cmp(s, t.pi) == LT and not below(s, {t.pi, t.a} | t.nu_comps, s.a):
        return True
    return (c == EQ and cmp(s.pi, t.pi) == EQ
            and below(t, s.nu_comps, t.a) and vec_lt(s.nu, t.nu))


def vec_lt(nu, xi):
    """The vector order of the decisions ledger.  From the first entry
    where nu and xi differ, with k and m the first non-zero entries of nu
    and xi from there on: nu < xi when nu is zero from there on, and else,
    with h the earlier of nu[k] and xi[m] taken to its head exponent |m-k|
    times, when h <= xi[m] (k < m) or nu[k] < h (m <= k)."""
    for i, (x, y) in enumerate(zip(nu, xi)):
        if cmp(x, y) != EQ:
            k, m = (next((j for j in range(i, len(v)) if v[j].pairs), None)
                    for v in (nu, xi))
            if k is None or m is None:
                return k is None
            h = nu[k] if k < m else xi[m]
            for _ in range(abs(m - k)):
                if not h.pairs:
                    return False
                h = h.pairs[0][0]
            return cmp(h, xi[m]) != GT if k < m else cmp(nu[k], h) == LT
    return False


@functools.cache
def kset(delta, x):
    """K_delta(x): empty for a psi term below delta; for x = psi_pi^nu(a)
    not below it, {a} with K_delta of a, pi and K(nu); for any other term,
    the union over its parts or arguments."""
    if type(x) is Psi:
        if cmp(x, delta) == LT:
            return frozenset()
        args, found = {x.a, x.pi} | x.nu_comps, {x.a}
    else:
        args, found = x.parts, ()
        if len(args) == 1:
            args = [getattr(x, a) for a in ("b", "g") if hasattr(x, a)]
    return frozenset(found).union(*(kset(delta, y) for y in args))


def below(delta, items, beta):
    """K_delta(items) < beta."""
    return all(cmp(g, beta) == LT for x in items for g in kset(delta, x))
