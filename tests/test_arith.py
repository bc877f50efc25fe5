import pytest
from hypothesis import given, settings, strategies as st

from piord.errors import OutOfRange, ValidationError
from piord.params import SystemParams
from piord.terms import BIG_K, ONE, ZERO, OmegaExp, from_parts
from piord.order import EQ, GT, LT, cmp_ord
from piord.validate import check_ot
from piord.arith import (
    add, omega_exp, omega_idx, omega_tower, psi0, psi_step, theorem_bound,
)
from piord.syntax import parse_ord

from conftest import from_int

P4 = SystemParams(4)


def t(text):
    return parse_ord(text, P4)


def test_add_identity_and_absorption():
    x = t("psi(K; 0)")
    assert add(ZERO, x) is x and add(x, ZERO) is x
    assert add(ONE, ONE) is from_int(2)
    assert add(ONE, BIG_K) is BIG_K              # absorbed below larger head
    assert add(BIG_K, ONE) is t("K+1")


def test_omega_exp():
    assert omega_exp(ZERO) is ONE
    assert omega_exp(BIG_K) is BIG_K
    assert isinstance(omega_exp(t("K+1")), OmegaExp)
    assert omega_exp(ONE) is t("phi(0,1)")
    assert omega_exp(t("Om(1)")) is t("Om(1)")
    assert omega_exp(t("phi(1,0)")) is t("phi(1,0)")    # an epsilon number


def test_omega_idx_builder():
    assert omega_idx(ONE) is t("Om(1)")
    p = psi0(t("Om(2)"), ZERO, P4)
    assert omega_idx(p) is p                     # psi terms are fixed points
    with pytest.raises(OutOfRange):
        omega_idx(ZERO)
    with pytest.raises(OutOfRange):
        omega_idx(BIG_K)


def test_psi_step_needs_two_base_coefficients():
    # Om(1) records one coefficient, psi(K; 0) none
    for base in ("Om(1)", "psi(K; 0)"):
        with pytest.raises(ValidationError) as exc:
            psi_step(t(base), ONE, BIG_K, P4)
        assert exc.value.report.failure[0] == "base coefficients"
        assert "base %s has no coefficient" % base in str(exc.value)


def test_towers():
    k1 = t("K+1")
    assert omega_tower(k1, 0) is k1
    assert omega_tower(k1, 1) is t("w^(K+1)")
    assert omega_tower(k1, 2) is t("w^(w^(K+1))")


def test_theorem_bound_examples():
    assert theorem_bound(0, P4) is t("psi(Om(1); K+1)")
    assert theorem_bound(1, P4) is t("psi(Om(1); w^(K+1))")
    for n in range(4):
        assert check_ot(theorem_bound(n, P4), P4).ok


def _small(corpus):
    return st.sampled_from([x for x in corpus.terms if x.size <= 7])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_add_associative(data, corpus4):
    s = _small(corpus4)
    a, b, c = data.draw(s), data.draw(s), data.draw(s)
    assert add(add(a, b), c) is add(a, add(b, c))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_add_lower_bound_and_validity(data, corpus4):
    s = _small(corpus4)
    a, b = data.draw(s), data.draw(s)
    out = add(a, b)
    assert cmp_ord(b, out) <= EQ
    assert check_ot(out, P4).ok


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_omega_exp_inflationary(data, corpus4):
    s = _small(corpus4)
    a = data.draw(s)
    out = omega_exp(a)
    assert cmp_ord(a, out) <= EQ
    assert check_ot(out, P4).ok


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_add_agrees_with_natural_sum_when_sorted(data, corpus4):
    s = _small(corpus4)
    a, b = data.draw(s), data.draw(s)
    if all(cmp_ord(p, q) != LT for p in a.parts for q in b.parts):
        assert add(a, b) is from_parts(a.parts + b.parts)


def test_omega_exp_fixed_points(corpus4):
    # fixed points below the top are the strongly critical terms together
    # with the higher Veblen levels (the epsilon classes and beyond)
    from piord.terms import Veblen, ZERO, is_strongly_critical
    for a in corpus4.terms:
        if cmp_ord(a, BIG_K) == GT:
            continue
        fixed = omega_exp(a) is a
        epsilonish = (is_strongly_critical(a)
                      or (isinstance(a, Veblen) and a.b is not ZERO))
        assert fixed == epsilonish
