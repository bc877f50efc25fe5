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

import re

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


# The scanner consumes the whitespace after each token, and any in front of
# the first, so it never rests on a blank: a literal test is one startswith,
# and an error position is the offending token's.
_BLANKS = re.compile(r"\s*").match
_DIGITS = re.compile(r"\d+").match


class _Parser:
    def __init__(self, text, params):
        self.text = text
        self.n = params.n
        self.pos = _BLANKS(text).end()
        # psi terms spelled with an explicit all-zero vector: the spelling
        # claims a coefficient-carrying rule, which `check` must refute
        self.zero_claims = []

    def error(self, message, pos=None):
        raise OrdSyntaxError(message, self.pos if pos is None else pos)

    def accept(self, lit):
        """Consume lit and the whitespace after it when lit comes next."""
        if not self.text.startswith(lit, self.pos):
            return False
        self.skip(len(lit))
        return True

    def expect(self, lit):
        if not self.text.startswith(lit, self.pos):
            self.error("expected %r" % lit)
        self.skip(len(lit))

    def skip(self, n):
        """Move past n characters and the whitespace after them."""
        pos = self.pos + n
        # most tokens have no blank after them; the match is costlier
        self.pos = (_BLANKS(self.text, pos).end()
                    if self.text[pos:pos + 1].isspace() else pos)

    def ord(self):
        t = self.prin()
        if not self.text.startswith("+", self.pos):
            return t
        parts = [t]
        while self.accept("+"):
            parts.append(self.prin())
        if ZERO in parts:
            self.error("zero cannot appear inside a sum")
        return mk_sum([q for p in parts for q in p.parts])

    def ord_close(self):
        a = self.ord()
        self.expect(")")
        return a

    def prin(self):
        # the next character picks the alternative; psi, the most common
        # principal term, is tried first
        c = self.text[self.pos:self.pos + 1]
        if c == "p" and self.accept("psi("):
            pi = self.ord()
            self.expect(";")
            if not self.text.startswith("[", self.pos):
                return mk_psi(pi, zero_vec(self.n), self.ord_close())
            nu = self.seq()
            self.expect(";")
            t = mk_psi(pi, nu, self.ord_close())
            if is_zero_vec(nu):
                self.zero_claims.append(t)
            return t
        if c == "K":
            self.skip(1)
            return BIG_K
        if c == "O" and self.accept("Om("):
            return mk_omega_idx(self.ord_close())
        if c == "p" and self.accept("phi("):
            b = self.ord()
            self.expect(",")
            return mk_veblen(b, self.ord_close())
        if c == "w" and self.accept("w^("):
            return mk_omega_exp(self.ord_close())
        if not c.isdecimal():
            self.error("expected a term")
        run = _DIGITS(self.text, self.pos)[0]
        digits = run.lstrip("0") or "0"
        # the length test comes first: a long run is never converted
        if len(digits) > len(str(MAX_NUMERAL)) or int(digits) > MAX_NUMERAL:
            self.error("numeral above %d" % MAX_NUMERAL)
        self.skip(len(run))
        return from_parts((ONE,) * int(digits))

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
        if not self.text.startswith("L^(", self.pos):
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
