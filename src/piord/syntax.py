"""Concrete syntax: a whitespace-insensitive grammar with decimal sugar.

    ord  := prin ("+" prin)*
    prin := numeral | "K" | "phi(" ord "," ord ")" | "w^(" ord ")"
          | "Om(" ord ")" | "psi(" ord ";" (seq ";")? ord ")"
    seq  := "[" exp ("," exp)* "]"
    exp  := lam ("+" lam)* | ord
    lam  := "L^(" exp ")*(" ord ")"

Decimal literals abbreviate finite sums of phi(0,0).  Parsing is structural:
normal-form side conditions are left to validation, so ``check`` can report
on ill-formed input.  The printers write the same grammar back, and are
every node's ``repr``; ``print_ord`` is a memo table, so each interned node
is spelled once while the table keeps it.
"""

import re

from .errors import ArityError, OrdSyntaxError
from .order import memo
from .terms import (
    BIG_K, E_ZERO, ONE, ZERO,
    EOrd, OmegaExp, OmegaIdx, Psi, Sum, Veblen,
    from_parts, is_zero_vec, mk_eord, mk_lamsum, mk_omega_exp, mk_omega_idx,
    mk_psi, mk_sum, mk_veblen, tower_up, zero_vec,
)

__all__ = ["parse_ord", "parse_seq", "print_ord", "print_exp", "print_seq"]

# A numeral n builds a sum of n ones, so its value is bounded before the
# sum is allocated; the cap-11 census writes no numeral above 3.
MAX_NUMERAL = 1000
_MAX_DIGITS = len(str(MAX_NUMERAL))


# One pattern splits an operand into tokens, each after the blanks in front
# of it: a flat principal term, the one-character literals (the most
# frequent), the multi-character literals, a digit run, any other single
# character, and an empty token at the end.  A flat principal term is a
# "psi(", "phi(" or "Om(" term whose spelling holds no inner parenthesis,
# such as "psi(K; [0,K]; K)": it is one token, parsed once per process.  A
# run of "w^(" is one token, and so is a run of ")", except that it leaves
# its last ")" to a ")*(" that follows; ")*(" is one token.  Where the
# parser needs one ")" of a token, it leaves the rest of the token in its
# place, so a "*(" may remain of a ")*(".
_TOKEN = re.compile(r"\s*((?:psi|phi|Om)\([^()]*\)|[K;+,\[\]]"
                    r"|psi\(|phi\(|w\^\((?:w\^\()*|Om\(|L\^\("
                    r"|\)(?:\*\(|\)*(?!\*\())|\d+|.|\Z)")


class _Parser:
    # where the scan of the text starts: a flat term's parser scans what
    # follows its head, so its token list begins with one token, the head,
    # that the scan does not find
    start = 0

    def __init__(self, text, params):
        self.text = text
        self.params = params
        self.n = params.n
        self.toks = _TOKEN.findall(text)
        self.i = 0
        # psi terms spelled with an explicit all-zero vector: the spelling
        # claims a coefficient-carrying rule, which `check` must refute
        self.zero_claims = []

    def error(self, message, i=None, cls=OrdSyntaxError, shift=0):
        """Raise at token i, the current one by default, shift characters
        on.  Positions are found only here, by scanning the text again and
        counting tokens from the end, which the scan and the list share; a
        token that is partly consumed is reported where its rest starts."""
        i = self.i if i is None else i
        ends = [m.end(1) for m in _TOKEN.finditer(self.text, self.start)]
        raise cls(message, ends[i - len(self.toks)] - len(self.toks[i])
                  + shift)

    def flat(self):
        """A flat principal term, the whole text and its one token: split
        it into its head and the tokens of the rest, and parse those as
        prin parses any principal term."""
        text = self.text
        self.start = text.index("(") + 1
        self.toks = [text[:self.start]] + _TOKEN.findall(text, self.start)
        return self.prin()

    def expect(self, lit):
        tok = self.toks[self.i]
        if tok == lit:
            self.i += 1
        elif lit == ")" and tok[:1] == ")":
            # one ")" of a run or of a ")*(": the rest stays current
            self.toks[self.i] = tok[1:]
        else:
            self.error("expected %r" % lit)

    def ord(self, t=None):
        """A term; t, when given, is its first summand, already parsed."""
        if t is None:
            t = self.prin()
        if self.toks[self.i] != "+":
            return t
        # the ones of a sum are bounded as a numeral is, so that no sum
        # spells a numeral the parser refuses; they are counted as each
        # summand joins, before the sum is built.  A summand that holds a
        # one is a numeral or phi(0,0), one token, where the report points
        parts = [t]
        ones = t.parts.count(ONE)
        while self.toks[self.i] == "+":
            self.i += 1
            parts.append(self.prin())
            ones += parts[-1].parts.count(ONE)
            if ones > MAX_NUMERAL:
                self.error("numeral above %d" % MAX_NUMERAL, self.i - 1)
        if ZERO in parts:
            self.error("zero cannot appear inside a sum")
        return mk_sum(tuple(q for p in parts for q in p.parts))

    def prin(self):
        # a flat term, then psi, the most common principal terms, are tried
        # first; a term that closes with ")" parses its operand and then
        # expects the ")", so each nesting level costs two frames, ord and
        # prin, except in a tower of "w^(" levels, which is parsed in one
        # frame, and at a flat term, which is looked up
        tok = self.toks[self.i]
        self.i += 1
        if tok[-1:] == ")" and tok[0] != ")":
            # the only token that ends, but does not start, with ")": a
            # flat term, parsed once per process.  An error inside it is
            # raised again where it lies in this text
            try:
                t, claims = _parse(_Parser.flat, tok, self.params)
            except OrdSyntaxError as exc:
                self.error(exc.message, self.i - 1, type(exc), exc.pos)
            self.zero_claims += claims
            return t
        if tok == "psi(":
            pi = self.ord()
            self.expect(";")
            if self.toks[self.i] != "[":
                a = self.ord()
                self.expect(")")
                return mk_psi(pi, zero_vec(self.n), a)
            nu = self.seq()
            self.expect(";")
            a = self.ord()
            self.expect(")")
            t = mk_psi(pi, nu, a)
            if is_zero_vec(nu):
                self.zero_claims.append(t)
            return t
        if tok == "K":
            return BIG_K
        if tok == "Om(":
            a = self.ord()
            self.expect(")")
            return mk_omega_idx(a)
        if tok == "phi(":
            b = self.ord()
            self.expect(",")
            a = self.ord()
            self.expect(")")
            return mk_veblen(b, a)
        if tok[:3] == "w^(":
            return self.tower(len(tok) // 3)
        if not tok.isdecimal():
            self.error("expected a term", self.i - 1)
        # the length test comes first: a long run is never converted
        n = int(tok) if len(tok.lstrip("0")) <= _MAX_DIGITS else None
        if n is None or n > MAX_NUMERAL:
            self.error("numeral above %d" % MAX_NUMERAL, self.i - 1)
        return from_parts((ONE,) * n)

    def tower(self, k):
        """A tower whose first k "w^(" levels are consumed: add the levels
        of the "w^(" tokens that follow, parse the innermost operand, then
        close as many levels per ")" token as it holds, all in one step.  A
        "+" after a closed level continues the enclosing level's operand as
        a sum."""
        tok = self.toks[self.i]
        while tok[:3] == "w^(":
            k += len(tok) // 3
            self.i += 1
            tok = self.toks[self.i]
        a = self.ord()
        while True:
            tok = self.toks[self.i]
            if tok[:2] == "))":
                closed = min(len(tok), k)
                if closed == len(tok):
                    self.i += 1
                else:
                    self.toks[self.i] = tok[closed:]
            else:
                self.expect(")")
                closed = 1
            a = tower_up(mk_omega_exp(a), closed - 1)
            k -= closed
            if not k:
                return a
            if self.toks[self.i] == "+":
                a = self.ord(a)

    def seq(self):
        start = self.i
        self.expect("[")
        entries = [self.exp()]
        while self.toks[self.i] == ",":
            self.i += 1
            entries.append(self.exp())
        self.expect("]")
        if len(entries) != self.n - 2:
            self.error("coefficient vector has %d entries, need %d for N=%d"
                       % (len(entries), self.n - 2, self.n), start, ArityError)
        return tuple(entries)

    def exp(self):
        if self.toks[self.i] != "L^(":
            a = self.ord()
            return E_ZERO if a is ZERO else mk_eord(a)
        ps = [self.lam()]
        # a "+" joins the sum only when a base-power follows it
        while self.toks[self.i] == "+" and self.toks[self.i + 1] == "L^(":
            self.i += 1
            ps.append(self.lam())
        return mk_lamsum(tuple(ps))

    def lam(self):
        """One base-power (e, c); "L^(" is the current token."""
        start = self.i
        self.i += 1
        e = self.exp()
        if e is E_ZERO:
            self.error("zero base-power exponent is not a term", start)
        self.expect(")*(")
        c = self.ord()
        if c is ZERO:
            self.error("zero base-power coefficient is not a term", start)
        self.expect(")")
        return (e, c)


@memo
def _parse(rule, text, params):
    """Run one grammar rule over all of text; also return the claims.

    A memo table, so a spelling seen before costs one lookup: the result
    is made of interned terms, which outlive the table.  The operands of
    the public parsers and every flat principal term they hold (the rule
    _Parser.flat) share it.  A failed parse raises and stores nothing."""
    p = _Parser(text, params)
    result = rule(p)
    if p.toks[p.i]:
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


@memo
def print_ord(t):
    """The spelling of an ordinal term; parse_ord reads it back.

    A memo table, so a subterm spelled before costs one lookup: each
    nesting level costs two recursion units, the table's call and this
    body.  A tower of w^ levels is spelled in one body, around its base.
    ONE is the numeral 1, and a sum's maximal run of trailing ones is one
    decimal literal; a one before that run is spelled phi(0,0)."""
    cls = type(t)
    if cls is Psi:
        if not t.m:
            return "psi(%s; %s)" % (print_ord(t.pi), print_ord(t.a))
        return "psi(%s; %s; %s)" % (
            print_ord(t.pi), print_seq(t.nu), print_ord(t.a))
    if cls is Sum:
        parts = t.parts
        k = len(parts)
        while k and parts[k - 1] is ONE:
            k -= 1
        # a loop, not a comprehension: no frame between the parts and here
        chunks = []
        for p in parts[:k]:
            chunks.append("phi(0,0)" if p is ONE else print_ord(p))
        if k < len(parts):
            chunks.append(str(len(parts) - k))
        return "+".join(chunks)
    if cls is Veblen:
        if t is ONE:
            return "1"
        return "phi(%s,%s)" % (print_ord(t.b), print_ord(t.g))
    if cls is OmegaIdx:
        return "Om(%s)" % print_ord(t.b)
    if cls is OmegaExp:
        k = t.height
        return "w^(" * k + print_ord(t.levels[0].b) + ")" * k
    if t is BIG_K:
        return "K"
    if t is ZERO:
        return "0"
    raise ValueError("not an ordinal term: %s" % cls.__name__)


def print_exp(x):
    if x is E_ZERO:
        return "0"
    if type(x) is EOrd:
        return print_ord(x.a)
    return "+".join("L^(%s)*(%s)" % (print_exp(e), print_ord(c))
                    for e, c in x.pairs)


def print_seq(vec):
    return "[%s]" % ",".join(print_exp(e) for e in vec)
