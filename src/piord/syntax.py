"""Concrete syntax: a whitespace-insensitive grammar with decimal sugar.

    ord  := "0" | "K" | prin ("+" prin)*
    prin := "phi(" ord "," ord ")" | "w^(" ord ")" | "Om(" ord ")"
          | "psi(" ord ";" ord ")" | "psi(" ord ";" "[" exp ("," exp)* "]" ";" ord ")"
    exp  := "0" | ord | lam ("+" lam)*
    lam  := "L^(" exp ")*(" ord ")"

Decimal literals abbreviate finite sums of phi(0,0).  Parsing is structural:
normal-form side conditions are left to validation, so ``check`` can report
on ill-formed input.  The printers are defined in :mod:`piord.terms`, where
they are every node's ``repr``, and exported from here as well.
"""

from .errors import ArityError, OrdSyntaxError
from .terms import (
    BIG_K, E_ZERO, ONE, ZERO,
    from_parts, is_zero_vec, mk_eord, mk_lamsum, mk_omega_exp, mk_omega_idx,
    mk_psi, mk_sum, mk_veblen, print_exp, print_ord, print_seq, zero_vec,
)

__all__ = ["parse_ord", "parse_seq", "print_ord", "print_exp", "print_seq"]

# A numeral n builds a sum of n ones, so its value is bounded before the
# sum is allocated; the cap-11 census writes no numeral above 3.
MAX_NUMERAL = 1000


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text, params):
        self.text = text
        self.n = params.n
        self.pos = 0
        # psi terms spelled with an explicit all-zero vector: the spelling
        # claims a coefficient-carrying rule, which `check` must refute
        self.zero_claims = []

    def error(self, message, pos=None):
        raise OrdSyntaxError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def looking_at(self, lit):
        self.skip_ws()
        return self.text.startswith(lit, self.pos)

    def expect(self, lit):
        if not self.looking_at(lit):
            self.error("expected %r" % lit)
        self.pos += len(lit)

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    # -- ord ----------------------------------------------------------------

    def ord(self):
        parts = [self.ord_chunk()]
        while self.looking_at("+"):
            self.expect("+")
            parts.append(self.ord_chunk())
        if len(parts) == 1:
            return parts[0]
        if ZERO in parts:
            self.error("zero cannot appear inside a sum")
        return mk_sum([q for p in parts for q in p.parts])

    def ord_chunk(self):
        c = self.peek()
        if c.isdecimal():
            return self.number()
        if c == "K":
            self.expect("K")
            return BIG_K
        return self.principal()

    def number(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        digits = self.text[start:self.pos].lstrip("0") or "0"
        # the length test comes first, so a long digit run is never converted
        if len(digits) > len(str(MAX_NUMERAL)) or int(digits) > MAX_NUMERAL:
            self.error("numeral above %d" % MAX_NUMERAL, start)
        return from_parts((ONE,) * int(digits))

    def principal(self):
        if self.looking_at("phi("):
            self.expect("phi(")
            b = self.ord()
            self.expect(",")
            g = self.ord()
            self.expect(")")
            return mk_veblen(b, g)
        if self.looking_at("w^("):
            self.expect("w^(")
            b = self.ord()
            self.expect(")")
            return mk_omega_exp(b)
        if self.looking_at("Om("):
            self.expect("Om(")
            b = self.ord()
            self.expect(")")
            return mk_omega_idx(b)
        if self.looking_at("psi("):
            return self.psi()
        self.error("expected a term")

    def psi(self):
        self.expect("psi(")
        pi = self.ord()
        self.expect(";")
        if self.looking_at("["):
            nu = self.seq()
            self.expect(";")
            a = self.ord()
            self.expect(")")
            t = mk_psi(pi, nu, a)
            if is_zero_vec(nu):
                self.zero_claims.append(t)
            return t
        a = self.ord()
        self.expect(")")
        return mk_psi(pi, zero_vec(self.n), a)

    # -- exponents ------------------------------------------------------------

    def seq(self):
        start = self.pos
        self.expect("[")
        entries = [self.exp()]
        while self.looking_at(","):
            self.expect(",")
            entries.append(self.exp())
        self.expect("]")
        if len(entries) != self.n - 2:
            raise ArityError(
                "coefficient vector has %d entries, need %d for N=%d"
                % (len(entries), self.n - 2, self.n), start)
        return tuple(entries)

    def exp(self):
        if self.looking_at("L^("):
            ps = [self.lam()]
            while self.looking_at("+") and self.looking_at_lam_after_plus():
                self.expect("+")
                ps.append(self.lam())
            return mk_lamsum(tuple(ps))
        a = self.ord()
        return E_ZERO if a is ZERO else mk_eord(a)

    def looking_at_lam_after_plus(self):
        save = self.pos
        self.expect("+")
        ok = self.looking_at("L^(")
        self.pos = save
        return ok

    def lam(self):
        start = self.pos
        self.expect("L^(")
        e = self.exp()
        if e is E_ZERO:
            self.error("zero base-power exponent is not a term", start)
        self.expect(")*(")
        c = self.ord()
        if c is ZERO:
            self.error("zero base-power coefficient is not a term", start)
        self.expect(")")
        return (e, c)


def parse_ord(text, params):
    """Parse an ordinal term; raises on leftover input."""
    return parse_ord_claims(text, params)[0]


def parse_ord_claims(text, params):
    """Parse an ordinal term; also return the psi subterms whose spelling
    carried an explicit all-zero coefficient vector."""
    p = _Parser(text, params)
    t = p.ord()
    if not p.at_end():
        p.error("unexpected trailing input")
    return t, tuple(p.zero_claims)


def parse_seq(text, params):
    """Parse a bracketed coefficient vector."""
    p = _Parser(text, params)
    vec = p.seq()
    if not p.at_end():
        p.error("unexpected trailing input")
    return vec
