import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import piord.syntax as syntax
from piord.cli import main
from piord.errors import ArityError, OrdSyntaxError, PiordError
from piord.order import clear_caches
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ZERO, ONE, ZERO, Psi, from_parts, mk_eord, mk_omega_exp,
)
from piord.syntax import (
    _parse, parse_ord, parse_ord_claims, parse_seq, print_ord, print_seq,
)
from piord.arith import psi0

from conftest import FLAT, from_int

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
    # the ones of a sum are a numeral: reported at the summand that takes
    # them past the limit
    (parse_ord, 4, "1000+1000", OrdSyntaxError, "numeral above 1000", 5),
    (parse_ord, 4, "K+999+1+1", OrdSyntaxError, "numeral above 1000", 8),
    (parse_ord, 4, "w^(1000+1)", OrdSyntaxError, "numeral above 1000", 8),
    (parse_ord, 4, "1000+phi(0,0)", OrdSyntaxError, "numeral above 1000", 5),
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
    # the first error lies inside a flat principal term, one token with no
    # inner parenthesis: reported where it lies, with its own message
    (parse_ord, 4, "psi(K; 1001)", OrdSyntaxError, "numeral above 1000", 7),
    (parse_ord, 4, "psi(K; 1000+1)", OrdSyntaxError, "numeral above 1000", 12),
    (parse_ord, 4, "psi(K; [0]; K)", ArityError,
     "coefficient vector has 1 entries, need 2 for N=4", 7),
    (parse_ord, 4, "Om(1 x)", OrdSyntaxError, "expected ')'", 5),
    (parse_ord, 4, "psi(K K)", OrdSyntaxError, "expected ';'", 6),
    (parse_ord, 4, "phi(0,1+0)", OrdSyntaxError,
     "zero cannot appear inside a sum", 9),
    (parse_ord, 4, "phi(0, Om( ))", OrdSyntaxError, "expected a term", 11),
    (parse_seq, 4, "[0, psi(K;  [0,0] ; 1 x)]", OrdSyntaxError,
     "expected ')'", 22),
    # a flat term inside a run of ")": the term takes the run's first ")"
    (parse_ord, 4, "Om(phi(0,1)))", OrdSyntaxError,
     "unexpected trailing input", 12),
    (parse_ord, 4, "Om(1)*(2)", OrdSyntaxError,
     "unexpected trailing input", 5),
]


@pytest.mark.parametrize("parse, n, text, cls, message, pos", ERROR_TABLE)
def test_error_reports(parse, n, text, cls, message, pos):
    # three times: a failed parse stores nothing in the parse table, so the
    # later ones raise the same report and add no entry.  The first may
    # store the flat principal terms of the text that parsed, one entry
    # each (phi(0,K) of "phi(0,K)*(1)")
    clear_caches()
    for attempt in range(3):
        with pytest.raises(OrdSyntaxError) as exc:
            parse(text, SystemParams(n))
        assert type(exc.value) is cls
        assert str(exc.value) == "%s (at position %d)" % (message, pos)
        assert exc.value.pos == pos
        if not attempt:
            entries = _parse.cache_info().currsize
        assert _parse.cache_info().currsize == entries
    assert entries <= len(FLAT.findall(text))
    clear_caches()


# check's line on spellings with explicit zero vectors, some of them in
# flat terms: the first claim, in the order the terms close, names the
# refuted rule
CLAIM_ROWS = [
    ("psi(K; [0,K]; K)+psi(K; [0,0]; 1)",
     "fail psi(K; [0,K]; K)+psi(K; 1): 0 < b: all-zero vector"),
    ("psi(K; [0,0]; 1)+psi(Om(1); [0,0]; 1)",
     "fail psi(K; 1)+psi(Om(1); 1): 0 < b: all-zero vector"),
    ("psi(K; [0,0]; psi(Om(1); [0,0]; 1))+psi(K; [0,0]; 1)",
     "fail psi(K; psi(Om(1); 1))+psi(K; 1): non-zero vector: all-zero vector"),
]


@pytest.mark.parametrize("text, line", CLAIM_ROWS)
def test_zero_claims_keep_their_order(text, line):
    for _ in range(2):                  # cold, then from the parse table
        out, err = io.StringIO(), io.StringIO()
        assert main(["check", text], out, err) == 1
        assert (out.getvalue(), err.getvalue()) == (line + "\n", "")


@pytest.mark.parametrize("text", [
    "psi(K; [0,0]; K)+psi(K; [0,0]; 1)",
    "psi(K; [0,0]; 1)+psi(Om(1); [0,0]; 1)",
])
def test_claims_of_summands_come_in_order(text):
    t, claims = parse_ord_claims(text, P4)
    assert claims == t.parts


def test_claims_come_as_their_terms_close():
    t, claims = parse_ord_claims(CLAIM_ROWS[2][0], P4)
    outer = t.parts[0]
    assert claims == (outer.a, outer, t.parts[1])


# The differential reference: the tokenizer without its flat principal
# terms (FLAT), so every "psi(", "phi(" and "Om(" is a token of its own
# and each spelling is parsed token by token.
TOKEN_BY_TOKEN = re.compile(r"\s*([K;+,\[\]]|psi\(|phi\(|w\^\((?:w\^\()*|Om\("
                            r"|L\^\(|\)(?:\*\(|\)*(?!\*\())|\d+|.|\Z)")
# what a mutation inserts, or puts in place of a character
MUTATION_CHARS = "K;+,[]()0123456789 psihOmwL^*x-"


def _mutation(rng, text):
    """text with one to three characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3) if chars else 0
        if edit == 0:
            chars.insert(i, rng.choice(MUTATION_CHARS))
        elif edit == 1:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(MUTATION_CHARS)
    return "".join(chars)


def _ids(parse, text, params):
    """The ids of the objects a parse returns, claims included, or the
    class, message and position of what it raised."""
    try:
        got = parse(text, params)
    except PiordError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    if parse is parse_ord_claims:
        got = (got[0],) + got[1]
    return tuple(map(id, got))


@pytest.mark.parametrize("n", (3, 4))
def test_flat_tokens_parse_as_token_by_token(monkeypatch, n, corpus3,
                                             corpus4):
    # every cap-9 census spelling, terms and vectors, and 5000 seeded
    # mutations of them, through both parse entry points and `check`:
    # with flat tokens, and token by token from empty tables, the same
    # objects, claims, errors and output lines
    params = SystemParams(n)
    corpus = corpus3 if n == 3 else corpus4
    texts = [print_ord(t) for t in corpus.terms] + [
        print_seq(v) for v in corpus.seqs]
    rng = random.Random(n)
    texts += [_mutation(rng, rng.choice(texts)) for _ in range(5000)]

    def outcomes():
        found = []
        for text in texts:
            found.append(_ids(parse_ord_claims, text, params))
            found.append(_ids(parse_seq, text, params))
            out, err = io.StringIO(), io.StringIO()
            code = main(["--big-n", str(n), "check", text], out, err)
            found.append((code, out.getvalue(), err.getvalue()))
        return found

    try:
        clear_caches()
        shipped = outcomes()
        clear_caches()
        monkeypatch.setattr(syntax, "_TOKEN", TOKEN_BY_TOKEN)
        reference = outcomes()
    finally:
        clear_caches()
    # most spellings hold a flat term, and most outcomes are errors
    assert sum(bool(FLAT.search(text)) for text in texts) > len(texts) // 2
    assert sum(isinstance(o[0], type) for o in shipped) > 5000
    assert shipped == reference


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
