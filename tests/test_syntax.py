import re

import pytest
from hypothesis import given, settings, strategies as st

from piord.errors import ArityError, OrdSyntaxError
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ZERO, ONE, ZERO, Psi, from_parts, mk_eord, mk_omega_exp,
)
from piord.syntax import (
    _parse, parse_ord, parse_ord_claims, parse_seq, print_ord, print_seq,
)
from piord.arith import psi0

from conftest import from_int

P3 = SystemParams(3)
P4 = SystemParams(4)


def test_atoms_and_numbers():
    assert parse_ord("0", P4) is ZERO
    assert parse_ord("K", P4) is BIG_K
    assert parse_ord("1", P4) is ONE
    assert parse_ord("3", P4) is from_int(3)
    assert print_ord(from_int(3)) == "3"


# the grammar's tokens; ")*(" comes before ")" so it stays one token
TOKEN = re.compile(r"phi\(|w\^\(|Om\(|psi\(|L\^\(|\)\*\(|\d+|[K+,;()\[\]]")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_whitespace_insensitive(data, corpus3, corpus4):
    params, corpus = data.draw(st.sampled_from([(P3, corpus3), (P4, corpus4)]))
    t = data.draw(st.sampled_from(corpus.terms))
    text = print_ord(t)
    tokens = TOKEN.findall(text)
    assert "".join(tokens) == "".join(text.split())
    runs = data.draw(st.lists(st.text(" \t\n", max_size=3),
                              min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    spaced = "".join(w + tok for w, tok in zip(runs, tokens)) + runs[-1]
    for spelling in (text, spaced):
        got, claims = parse_ord_claims(spelling, params)
        assert got is t and claims == ()
    a = parse_ord("psi( K ;  [ 0 , 1 ] ; 1 )", P4)
    b = parse_ord("psi(K;[0,1];1)", P4)
    assert a is b


def test_psi_sugar():
    t = parse_ord("psi(K; 0)", P4)
    assert t.nu == (E_ZERO, E_ZERO)
    t3 = parse_ord("psi(K; 0)", P3)
    assert t3.nu == (E_ZERO,)


def test_decimal_coalescing():
    t = parse_ord("K+2", P4)
    assert print_ord(t) == "K+2"
    assert parse_ord(print_ord(t), P4) is t


def test_bound_print_form():
    from piord.arith import theorem_bound
    assert print_ord(theorem_bound(1, P4)) == "psi(Om(1); w^(K+1))"


W, K1 = mk_omega_exp, from_parts((BIG_K, ONE))
WK1 = W(from_parts((W(BIG_K), ONE)))


@pytest.mark.parametrize("text, term", [
    ("w^(K)", W(BIG_K)),
    ("w^(w^(w^(K+1)))", W(W(W(K1)))),
    ("w^(w^(K+1)+2)", W(from_parts((W(K1), ONE, ONE)))),
    ("w^(w^(w^(K)+K)+1)", W(from_parts((W(from_parts((W(BIG_K), BIG_K))),
                                        ONE)))),
    ("w^(w^(w^(K+1))+w^(K)+1)", W(from_parts((W(W(K1)), W(BIG_K), ONE)))),
    ("w^(w^(w^(K)+1)+w^(w^(K)+1))+w^(K)",
     from_parts((W(from_parts((WK1, WK1))), W(BIG_K)))),
])
def test_tower_roundtrip(text, term):
    # towers whose levels hold sums: a "+" after a closed level continues
    # the enclosing level's operand
    assert parse_ord(text, P4) is term
    assert print_ord(term) == text


def test_seq_parse():
    vec = parse_seq("[L^(1)*(2),0]", P4)
    assert vec[1] is E_ZERO
    assert print_seq(vec) == "[L^(1)*(2),0]"


def test_arity_error():
    with pytest.raises(ArityError):
        parse_ord("psi(K; [0]; 1)", P4)
    with pytest.raises(ArityError):
        parse_ord("psi(K; [0,1]; 1)", P3)


def test_zero_lambda_exponent_rejected():
    with pytest.raises(OrdSyntaxError):
        parse_ord("psi(K; [L^(1)*(2)+L^(0)*(1),0]; 1)", P4)


def test_syntax_errors_have_positions():
    with pytest.raises(OrdSyntaxError) as exc:
        parse_ord("phi(0;0)", P4)
    assert exc.value.pos >= 0
    with pytest.raises(OrdSyntaxError):
        parse_ord("K+", P4)
    with pytest.raises(OrdSyntaxError):
        parse_ord("K K", P4)
    with pytest.raises(OrdSyntaxError):
        parse_ord("0+K", P4)


# (parser, N, input, exception class, message, position): every error the
# parser reports, with the position counted in characters from the start of
# the input, after any whitespace in front of the offending token
ERROR_TABLE = [
    (parse_ord, 4, "phi(0;0)", OrdSyntaxError, "expected ','", 5),
    (parse_ord, 4, "phi(0,0", OrdSyntaxError, "expected ')'", 7),
    (parse_ord, 4, "w^(K", OrdSyntaxError, "expected ')'", 4),
    (parse_ord, 4, "psi(K, 1)", OrdSyntaxError, "expected ';'", 5),
    (parse_ord, 4, "psi(K; [0,0] 1)", OrdSyntaxError, "expected ';'", 13),
    (parse_seq, 4, "0", OrdSyntaxError, "expected '['", 0),
    (parse_seq, 4, "[0,0", OrdSyntaxError, "expected ']'", 4),
    (parse_seq, 4, "[L^(1)*(2)+1, 0]", OrdSyntaxError, "expected ']'", 10),
    (parse_ord, 4, "psi(K; [L^(1)(2),0]; 1)", OrdSyntaxError,
     "expected ')*('", 12),
    (parse_ord, 4, "", OrdSyntaxError, "expected a term", 0),
    (parse_ord, 4, "   ", OrdSyntaxError, "expected a term", 3),
    (parse_ord, 4, "x", OrdSyntaxError, "expected a term", 0),
    (parse_ord, 4, "K+", OrdSyntaxError, "expected a term", 2),
    (parse_ord, 4, "K +", OrdSyntaxError, "expected a term", 3),
    (parse_ord, 4, "phi(0 ;0)", OrdSyntaxError, "expected ','", 6),
    (parse_ord, 4, "0+K", OrdSyntaxError,
     "zero cannot appear inside a sum", 3),
    (parse_ord, 4, "K + 0 ", OrdSyntaxError,
     "zero cannot appear inside a sum", 6),
    (parse_ord, 4, "psi(K; [L^(0)*(1),0]; 1)", OrdSyntaxError,
     "zero base-power exponent is not a term", 8),
    (parse_ord, 4, "  psi(K; [ L^(0)*(1),0]; 1)", OrdSyntaxError,
     "zero base-power exponent is not a term", 11),
    (parse_ord, 4, "psi(K; [L^(1)*(0),0]; 1)", OrdSyntaxError,
     "zero base-power coefficient is not a term", 8),
    (parse_ord, 4, "psi(K; [0]; 1)", ArityError,
     "coefficient vector has 1 entries, need 2 for N=4", 7),
    (parse_ord, 3, "psi(K; [0,1]; 1)", ArityError,
     "coefficient vector has 2 entries, need 1 for N=3", 7),
    (parse_seq, 4, "[0]", ArityError,
     "coefficient vector has 1 entries, need 2 for N=4", 0),
    (parse_ord, 4, "K K", OrdSyntaxError, "unexpected trailing input", 2),
    (parse_ord, 4, "K  )", OrdSyntaxError, "unexpected trailing input", 3),
    (parse_seq, 4, "[0,0] 1", OrdSyntaxError, "unexpected trailing input", 6),
    (parse_ord, 4, "1001", OrdSyntaxError, "numeral above 1000", 0),
    (parse_ord, 4, "00001001", OrdSyntaxError, "numeral above 1000", 0),
    (parse_ord, 4, "123456789012", OrdSyntaxError, "numeral above 1000", 0),
    # blanks before a vector's "[" and after the "+" in front of a
    # base-power: the report points at the token, not at the blanks
    (parse_seq, 4, "  [0]", ArityError,
     "coefficient vector has 1 entries, need 2 for N=4", 2),
    (parse_ord, 4, "psi(K; [L^(1)*(2)+ L^(0)*(1),0]; 1)", OrdSyntaxError,
     "zero base-power exponent is not a term", 19),
    # a ")*(" whose ")" closes a term: the report points at its "*"
    (parse_ord, 4, "w^(K)*(1)", OrdSyntaxError,
     "unexpected trailing input", 5),
    (parse_ord, 4, "phi(0,K)*(1)", OrdSyntaxError,
     "unexpected trailing input", 8),
    (parse_ord, 4, "psi(K; [L^(w^(1)*(2)),0]; 1)", OrdSyntaxError,
     "expected ')*('", 16),
    (parse_seq, 4, "[L^(1)*(Om(1)*(2)),0]", OrdSyntaxError,
     "expected ')'", 13),
    # a literal holds no blank
    (parse_ord, 4, "psi(K; [L^(1) *(2),0]; 1)", OrdSyntaxError,
     "expected ')*('", 12),
    (parse_ord, 4, "psi (K; 0)", OrdSyntaxError, "expected a term", 0),
    # malformed towers: an unclosed level, a level's sum missing a term or
    # holding a zero, and a level closed by the wrong token
    (parse_ord, 4, "w^(w^(K+1)", OrdSyntaxError, "expected ')'", 10),
    (parse_ord, 4, "w^(w^(w^(K)", OrdSyntaxError, "expected ')'", 11),
    (parse_ord, 4, "w^(w^(K)+1", OrdSyntaxError, "expected ')'", 10),
    (parse_ord, 4, "w^(w^(K)+)", OrdSyntaxError, "expected a term", 9),
    (parse_ord, 4, "w^(w^(K) + )", OrdSyntaxError, "expected a term", 11),
    (parse_ord, 4, "w^(w^()", OrdSyntaxError, "expected a term", 6),
    (parse_ord, 4, "w^(w^(K)+0)", OrdSyntaxError,
     "zero cannot appear inside a sum", 10),
    (parse_ord, 4, "w^(w^(w^(K)+K+0)+1)", OrdSyntaxError,
     "zero cannot appear inside a sum", 15),
    (parse_ord, 4, "w^(w^(K))+0", OrdSyntaxError,
     "zero cannot appear inside a sum", 11),
    (parse_ord, 4, "w^(w^(K);1)", OrdSyntaxError, "expected ')'", 8),
    # runs of "w^(" and of ")": levels split by blanks, an unclosed run, a
    # run with a ")" too many or too few before a ")*(", and reports at the
    # first ")" of a run that the levels do not consume
    (parse_ord, 4, "w^( w^(K+1)", OrdSyntaxError, "expected ')'", 11),
    (parse_ord, 4, "w^( w^(K+1) ) )", OrdSyntaxError,
     "unexpected trailing input", 14),
    (parse_ord, 4, "w^( w^( w^(K+1)) +0)", OrdSyntaxError,
     "zero cannot appear inside a sum", 19),
    (parse_ord, 4, "w^(w^(w^(K+1)", OrdSyntaxError, "expected ')'", 13),
    (parse_ord, 4, "w^(w^(w^(K+1))", OrdSyntaxError, "expected ')'", 14),
    (parse_seq, 4, "[L^(w^(w^(K+1))))*(1),0]", OrdSyntaxError,
     "expected ')*('", 15),
    (parse_seq, 4, "[L^(w^(w^(K+1))*(1),0]", OrdSyntaxError,
     "expected ')*('", 15),
    (parse_ord, 4, "psi(K; [L^(w^(w^(K+1)))*(0),0]; 1)", OrdSyntaxError,
     "zero base-power coefficient is not a term", 8),
    (parse_ord, 4, "phi(0,w^(w^(K+1))))", OrdSyntaxError,
     "unexpected trailing input", 18),
    (parse_ord, 4, "w^(w^(w^(K))))", OrdSyntaxError,
     "unexpected trailing input", 13),
    (parse_ord, 4, "w^(w^(K+1)))*(1)", OrdSyntaxError,
     "unexpected trailing input", 11),
]


@pytest.mark.parametrize("parse, n, text, cls, message, pos", ERROR_TABLE)
def test_error_reports(parse, n, text, cls, message, pos):
    # twice: a failed parse stores nothing in the parse table, so the
    # second raises the same report
    entries = _parse.cache_info().currsize
    for _ in range(2):
        with pytest.raises(OrdSyntaxError) as exc:
            parse(text, SystemParams(n))
        assert type(exc.value) is cls
        assert str(exc.value) == "%s (at position %d)" % (message, pos)
        assert exc.value.pos == pos
    assert _parse.cache_info().currsize == entries


# what a mutation puts between two tokens, or in place of one ("" deletes)
BLANKS = st.text(" \t\n", max_size=2)
EDITS = st.sampled_from(["phi(", "w^(", "Om(", "psi(", "L^(", ")*(", "*(", "*",
                         "0", "1", "K", "+", ",", ";", "(", ")", "[", "]", ""])
# operands of generated base-powers; zero ones are errors the parser reports
ATOMS = st.sampled_from(["0", "1", "2", "K", "psi(K; 0)", "w^(K+1)"])
BASE_POWERS = st.lists(st.tuples(ATOMS, ATOMS), min_size=1, max_size=3).map(
    lambda pairs: "+".join("L^(%s)*(%s)" % pair for pair in pairs))
VECTORS = st.lists(st.one_of(ATOMS, BASE_POWERS), min_size=1, max_size=3).map(
    lambda entries: "[%s]" % ",".join(entries))


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_error_positions_are_never_blank(data, corpus3, corpus4):
    # census terms and vectors of both ranks, and generated vectors, with
    # token edits and blank runs between tokens, parsed at both ranks: every
    # report points at a token or at the end of the input
    t = data.draw(st.sampled_from(corpus3.terms + corpus4.terms))
    texts = [print_ord(t)] + ([print_seq(t.nu)] if isinstance(t, Psi) else [])
    tokens = TOKEN.findall(data.draw(st.one_of(st.sampled_from(texts),
                                               VECTORS)))
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(tokens)))
        if i < len(tokens) and data.draw(st.booleans()):
            tokens[i] = data.draw(EDITS)
        else:
            tokens.insert(i, data.draw(EDITS))
    runs = data.draw(st.lists(BLANKS, min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    text = "".join(w + tok for w, tok in zip(runs, tokens)) + runs[-1]
    for parse in (parse_ord, parse_ord_claims, parse_seq):
        for params in (P3, P4):
            try:
                parse(text, params)
            except OrdSyntaxError as exc:
                assert 0 <= exc.pos <= len(text), (text, exc)
                assert exc.pos == len(text) or not text[exc.pos].isspace(), (
                    parse.__name__, params.n, text, str(exc))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_roundtrip_corpus4(data, corpus4):
    t = data.draw(st.sampled_from(corpus4.terms))
    assert parse_ord(print_ord(t), P4) is t


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_roundtrip_corpus3(data, corpus3):
    t = data.draw(st.sampled_from(corpus3.terms))
    assert parse_ord(print_ord(t), P3) is t
