"""Concrete syntax: a whitespace-insensitive grammar with decimal sugar.

    ord  := prin ("+" prin)*
    prin := numeral | "K" | "phi(" ord "," ord ")" | "w^(" ord ")"
          | "Om(" ord ")" | "psi(" ord ";" (seq ";")? ord ")"
    seq  := "[" exp ("," exp)* "]"
    exp  := lam ("+" lam)* | ord
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

    def at(self, lit):
        """Skip whitespace; tell whether lit comes next."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text.startswith(lit, self.pos)

    def accept(self, lit):
        if self.at(lit):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit):
        if not self.accept(lit):
            self.error("expected %r" % lit)

    def ord(self):
        parts = [self.prin()]
        while self.accept("+"):
            parts.append(self.prin())
        if len(parts) == 1:
            return parts[0]
        if ZERO in parts:
            self.error("zero cannot appear inside a sum")
        return mk_sum([q for p in parts for q in p.parts])

    def ord_close(self):
        a = self.ord()
        self.expect(")")
        return a

    def prin(self):
        if self.accept("K"):
            return BIG_K
        start = self.pos                # accept has skipped the whitespace
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos > start:
            digits = self.text[start:self.pos].lstrip("0") or "0"
            # the length test comes first: a long run is never converted
            if len(digits) > len(str(MAX_NUMERAL)) or int(digits) > MAX_NUMERAL:
                self.error("numeral above %d" % MAX_NUMERAL, start)
            return from_parts((ONE,) * int(digits))
        if self.accept("phi("):
            b = self.ord()
            self.expect(",")
            return mk_veblen(b, self.ord_close())
        if self.accept("w^("):
            return mk_omega_exp(self.ord_close())
        if self.accept("Om("):
            return mk_omega_idx(self.ord_close())
        if not self.accept("psi("):
            self.error("expected a term")
        pi = self.ord()
        self.expect(";")
        if not self.at("["):
            return mk_psi(pi, zero_vec(self.n), self.ord_close())
        nu = self.seq()
        self.expect(";")
        t = mk_psi(pi, nu, self.ord_close())
        if is_zero_vec(nu):
            self.zero_claims.append(t)
        return t

    def seq(self):
        start = self.pos
        self.expect("[")
        entries = [self.exp()]
        while self.accept(","):
            entries.append(self.exp())
        self.expect("]")
        if len(entries) != self.n - 2:
            raise ArityError(
                "coefficient vector has %d entries, need %d for N=%d"
                % (len(entries), self.n - 2, self.n), start)
        return tuple(entries)

    def exp(self):
        if not self.at("L^("):
            a = self.ord()
            return E_ZERO if a is ZERO else mk_eord(a)
        ps = [self.lam()]
        back = self.pos
        # a "+" joins the sum only when a base-power follows it
        while self.accept("+") and (p := self.lam()):
            ps.append(p)
            back = self.pos
        self.pos = back
        return mk_lamsum(tuple(ps))

    def lam(self):
        """One base-power (e, c), or None when "L^(" is not next."""
        start = self.pos
        if not self.accept("L^("):
            return None
        e = self.exp()
        if e is E_ZERO:
            self.error("zero base-power exponent is not a term", start)
        self.expect(")*(")
        c = self.ord()
        if c is ZERO:
            self.error("zero base-power coefficient is not a term", start)
        self.expect(")")
        return (e, c)


def _parse(rule, text, params):
    """Run one grammar rule over all of text; also return the claims."""
    p = _Parser(text, params)
    result = rule(p)
    p.at("")                            # skip trailing whitespace
    if p.pos < len(text):
        p.error("unexpected trailing input")
    return result, tuple(p.zero_claims)


def parse_ord(text, params):
    """Parse an ordinal term; raises on leftover input."""
    return _parse(_Parser.ord, text, params)[0]


def parse_ord_claims(text, params):
    """Parse an ordinal term; also return the psi subterms whose spelling
    carried an explicit all-zero coefficient vector."""
    return _parse(_Parser.ord, text, params)


def parse_seq(text, params):
    """Parse a bracketed coefficient vector."""
    return _parse(_Parser.seq, text, params)[0]
