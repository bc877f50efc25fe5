import pytest

from piord.errors import NotMahloTerm, ValidationError
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ZERO, ONE, ZERO, is_regular, m_vec, mk_eord, mk_lamsum,
    mk_omega_idx, mk_psi, mk_sum, mk_veblen,
)
import piord.validate
from piord.order import clear_caches, rule_tag
from piord.validate import (
    ValidationReport, check_ot, check_exp, rule_vs_series,
)
from piord.arith import add, from_int, psi0, psiK, psi_sd, psi_step
from piord.oracle import enumerate_corpus, witness_terms
from piord.syntax import parse_ord, parse_seq

P3 = SystemParams(3)
P4 = SystemParams(4)
P5 = SystemParams(5)


def t(text, params=P4):
    return parse_ord(text, params)


def test_atoms_and_sums():
    assert check_ot(ZERO, P4).ok
    assert check_ot(BIG_K, P4).ok
    assert check_ot(t("K+K+1"), P4).ok
    assert not check_ot(mk_sum((ONE, BIG_K)), P4).ok   # increasing parts


def test_veblen_normal_form():
    assert check_ot(t("phi(1,0)"), P4).ok
    assert not check_ot(mk_veblen(ZERO, mk_veblen(ONE, ZERO)), P4).ok
    assert not check_ot(mk_veblen(ZERO, mk_omega_idx(ONE)), P4).ok
    assert not check_ot(mk_veblen(mk_omega_idx(ONE), ZERO), P4).ok
    assert check_ot(mk_veblen(mk_omega_idx(ONE), ONE), P4).ok
    assert not check_ot(mk_veblen(BIG_K, ZERO), P4).ok


def test_omega_rules():
    assert check_ot(t("w^(K+1)"), P4).ok
    assert not check_ot(parse_ord("w^(1)", P4), P4).ok     # below the top
    assert check_ot(t("Om(2)"), P4).ok
    assert not check_ot(mk_omega_idx(psi0(BIG_K, ZERO, P4)), P4).ok


def test_psi9():
    rep = check_ot(t("psi(K; 0)"), P4)
    assert rep.ok and rep.rule == "Psi9"
    assert check_ot(t("psi(Om(1); 0)"), P4).rule == "Psi9"
    # a non-regular base: a psi term with the zero vector
    bad = mk_psi(psi0(BIG_K, ZERO, P4), (E_ZERO, E_ZERO), ZERO)
    assert not check_ot(bad, P4).ok
    # base below an omega limit is not regular
    om_lim = mk_omega_idx(mk_veblen(ZERO, ONE))
    assert check_ot(om_lim, P4).ok
    assert not check_ot(mk_psi(om_lim, (E_ZERO, E_ZERO), ZERO), P4).ok


def test_psi10():
    rep = check_ot(t("psi(K; [0,1]; 1)"), P4)
    assert rep.ok and rep.rule == "Psi10"
    assert m_vec(t("psi(K; [0,1]; 1)"), P4) == (E_ZERO, mk_eord(ONE))
    # b > a violates the stage bound
    bad = mk_psi(BIG_K, (E_ZERO, mk_eord(from_int(2))), ONE)
    assert not check_ot(bad, P4).ok
    # vector with the entry at the wrong slot
    bad2 = mk_psi(BIG_K, (mk_eord(ONE), E_ZERO), ONE)
    assert not check_ot(bad2, P4).ok


def test_psi10_builder_rejects_zero_b():
    with pytest.raises(ValidationError):
        psiK(ZERO, ONE, P4)


def test_psi11_spec_example():
    pi1 = psiK(ONE, ONE, P4)
    t11 = psi_step(pi1, from_int(2), from_int(2), P4)
    rep = check_ot(t11, P4)
    assert rep.ok and rep.rule == "Psi11"
    # recovered coefficient must satisfy 0 < b <= a
    too_big = mk_psi(pi1, t11.nu, ONE)    # a = 1 < b = 2
    assert not check_ot(too_big, P4).ok


def test_psi12_spec_example():
    pi1 = psiK(ONE, ONE, P4)
    t11 = psi_step(pi1, from_int(2), from_int(2), P4)
    lam11 = mk_lamsum(((mk_eord(ONE), ONE),))
    t12 = psi_sd(t11, (lam11, E_ZERO), from_int(3), P4)
    rep = check_ot(t12, P4)
    assert rep.ok and rep.rule == "Psi12"
    # the same vector fails the sp-bound against a smaller degree
    with pytest.raises(ValidationError):
        psi_sd(t11, (mk_lamsum(((mk_eord(from_int(2)), ONE),)), E_ZERO),
               from_int(3), P4)


def test_arity_checked():
    assert not check_ot(mk_psi(BIG_K, (E_ZERO,), ZERO), P4).ok
    assert not check_ot(mk_psi(BIG_K, (E_ZERO, E_ZERO), ZERO), P3).ok


def test_m_vec():
    assert m_vec(t("Om(2)"), P4) == (mk_eord(ONE), E_ZERO)
    assert m_vec(t("Om(phi(0,1))"), P4) == (E_ZERO, E_ZERO)
    assert m_vec(t("psi(K; [0,1]; 1)"), P4) == (E_ZERO, mk_eord(ONE))
    assert m_vec(t("K+1"), P4) == (E_ZERO, E_ZERO)
    assert m_vec(BIG_K, P4) is None


def test_check_exp():
    assert check_exp(E_ZERO, P4).ok
    assert check_exp(mk_eord(BIG_K), P4).ok
    lam = mk_lamsum(((mk_eord(ONE), BIG_K),))
    assert check_exp(lam, P4).ok
    mixed = mk_lamsum(((mk_eord(ONE), ONE), (E_ZERO, ONE)))
    assert not check_exp(mixed, P4).ok
    increasing = mk_lamsum(((mk_eord(ONE), ONE), (mk_eord(from_int(2)), ONE)))
    assert not check_exp(increasing, P4).ok


def test_rule_vs_series():
    assert rule_vs_series(t("psi(K; [0,1]; 1)"), P4)
    pi1 = psiK(ONE, ONE, P4)
    t11 = psi_step(pi1, from_int(2), from_int(2), P4)
    assert rule_vs_series(t11, P4)
    with pytest.raises(NotMahloTerm):
        rule_vs_series(t("psi(K; 0)"), P4)


def test_validation_is_cached_and_deterministic():
    term = t("psi(K; [0,1]; 1)")
    assert check_ot(term, P4) is check_ot(term, P4)


def test_report_holds_one_verdict():
    rep = ValidationReport("Psi9")
    assert rep._fields == ("rule", "failure")
    assert rep.ok and rep.first_failure() is None
    bad = ValidationReport("Psi10", ("0 < b <= a", "b=2 a=1"))
    assert not bad.ok and bad.first_failure() == "0 < b <= a: b=2 a=1"
    assert ValidationReport("Psi12", ("vector in SD", "")).first_failure() \
        == "vector in SD"


def test_accepting_formats_no_detail(monkeypatch):
    pi1 = psiK(ONE, ONE, P4)
    t11 = psi_step(pi1, from_int(2), from_int(2), P4)
    t12 = psi_sd(t11, (mk_lamsum(((mk_eord(ONE), ONE),)), E_ZERO),
                 from_int(3), P4)
    terms = {"Psi9": t("psi(K; 0)"), "Psi10": t("psi(K; [0,1]; 1)"),
             "Psi11": t11, "Psi12": t12}

    def boom(*args):
        raise AssertionError("detail formatted for a passing check")

    # a passing K-set check walks the sets; only a failure builds the union
    monkeypatch.setattr(piord.validate, "k_delta_set", boom)
    clear_caches()
    for rule, term in terms.items():
        rep = check_ot(term, P4)
        assert rep.ok and rep.rule == rule


def _exp(text, params):
    """The exponent text, read as the first entry of a coefficient vector."""
    zeros = [",0"] * (params.n - 3)
    return parse_seq("[%s%s]" % (text, "".join(zeros)), params)[0]


_K_SUB = ("subterm", "invalid subterm phi(K,0)")

# (checker, reader, params, input, rule, first failure): one input for each
# rejection that a parsed term can reach.  Two are left out because no
# term reaches them: Psi10's "K(b,a) < a" (with base K, no psi subterm of
# b or a lies above the term, so the K-set is empty).  Psi11 has no
# position check: rule_tag gives k >= 2, and a validated base has
# len(m) <= N-2 (test_regular_terms_record_at_most_n_minus_2).  A
# wrong arity and a zero exponent inside a base-power sum cannot be
# spelled, so test_arity_checked and test_check_exp build those terms
# instead.
REJECTIONS = [
    (check_ot, parse_ord, P4, "1+K", "Sum", ("weakly decreasing", "1 < K")),
    (check_ot, parse_ord, P4, "K+phi(K,0)", "Sum", _K_SUB),
    (check_ot, parse_ord, P4, "phi(phi(K,0),0)", "Veblen", _K_SUB),
    (check_ot, parse_ord, P4, "phi(K,0)", "Veblen", ("args below top", "K")),
    (check_ot, parse_ord, P4, "phi(0,phi(1,0))", "Veblen", (
        "normal form", "second argument is a fixed point of the first level")),
    (check_ot, parse_ord, P4, "phi(0,Om(1))", "Veblen", (
        "normal form", "strongly critical second argument absorbs")),
    (check_ot, parse_ord, P4, "phi(Om(1),0)", "Veblen", (
        "normal form", "value collapses to the first argument")),
    (check_ot, parse_ord, P4, "w^(phi(K,0))", "OmegaExp", _K_SUB),
    (check_ot, parse_ord, P4, "w^(1)", "OmegaExp", (
        "exponent above top", "1")),
    (check_ot, parse_ord, P4, "Om(phi(K,0))", "OmegaIdx", _K_SUB),
    (check_ot, parse_ord, P4, "Om(K)", "OmegaIdx", ("index in range", "K")),
    (check_ot, parse_ord, P4, "Om(0)", "OmegaIdx", ("index in range", "0")),
    (check_ot, parse_ord, P4, "Om(psi(K; 0))", "OmegaIdx", (
        "normal form", "psi indices are fixed points")),
    (check_ot, _exp, P4, "L^(1)*(1)", None, ("unknown node", "L^(1)*(1)")),
    (check_exp, _exp, P3, "phi(K,0)", "EOrd", ("subterm", "phi(K,0)")),
    (check_exp, _exp, P3, "L^(phi(K,0))*(1)", "LamSum", (
        "subterm", "phi(K,0)")),
    (check_exp, _exp, P3, "L^(1)*(phi(K,0))", "LamSum", (
        "coefficient", "phi(K,0)")),
    (check_exp, _exp, P3, "L^(1)*(1)+L^(2)*(1)", "LamSum", (
        "strictly decreasing", "1 then 2")),
    (check_ot, parse_ord, P4, "psi(phi(K,0); 0)", None, _K_SUB),
    (check_ot, parse_ord, P4, "psi(K; [0,phi(K,0)]; 1)", None, (
        "coefficient entry", "phi(K,0)")),
    (check_ot, parse_ord, P4, "psi(K; [1,0]; 1)", None, (
        "formation rule", "no psi rule matches base K with this vector")),
    (check_ot, parse_ord, P4, "psi(psi(K; 0); [0,1]; 1)", None, (
        "formation rule",
        "no psi rule matches base psi(K; 0) with this vector")),
    (check_ot, parse_ord, P4, "psi(psi(K; 0); 0)", "Psi9", (
        "regular base", "psi(K; 0)")),
    (check_ot, parse_ord, P4, "psi(Om(2); psi(K; K))", "Psi9", (
        "K(pi,a) < a", "{K}")),
    (check_ot, parse_ord, P4, "psi(K; [0,K]; 0)", "Psi10", (
        "0 < b <= a", "b=K a=0")),
    (check_ot, parse_ord, P5, "psi(psi(K; [0,0,K]; K); [1,0,0]; 1)", "Psi11", (
        "vector prefix", "entry 2 differs from base coefficient")),
    (check_ot, parse_ord, P4, "psi(psi(K; [0,K]; K); [0,1]; 1)", "Psi11", (
        "vector tail", "entry 3 non-zero")),
    (check_ot, parse_ord, P4, "psi(psi(K; [0,K]; K); [1,0]; 1)", "Psi11", (
        "entry k = m_k + base-power", "")),
    (check_ot, parse_ord, P4, "psi(psi(K; [0,1]; K); [L^(1)*(1),0]; 0)",
     "Psi11", ("0 < b <= a", "b=1 a=0")),
    (check_ot, parse_ord, P4, "psi(psi(K; [0,1]; K); [L^(1)*(1),0]; 1)",
     "Psi11", ("K(pi,a,b) u K(K(m(pi))) < a", "{K}")),
    (check_ot, parse_ord, P4, "psi(Om(1); [K,0]; K)", "Psi12", (
        "vector in SD", "")),
    (check_ot, parse_ord, P4, "psi(Om(1); [0,1]; 0)", "Psi12", (
        "vector sp-below m_2(pi)", "1")),
    (check_ot, parse_ord, P3, "psi(psi(K; [K]; K); [1]; K)", "Psi12", (
        "K(pi,a) < a", "{K}")),
    (check_ot, parse_ord, P3, "psi(psi(K; [K]; K); [psi(K; [K]; K)]; K+K)",
     "Psi12", ("K_a(nu_2) < max K(nu_2)", "psi(K; [K]; K)")),
    (check_ot, parse_ord, P4, "psi(Om(1); psi(K; psi(K; K)))", "Psi9", (
        "K(pi,a) < a", "{K, psi(K; K)}")),
]


@pytest.mark.parametrize("check, read, params, text, rule, failure",
                         REJECTIONS)
def test_every_rejection(check, read, params, text, rule, failure):
    assert check(read(text, params), params) == (rule, failure)


@pytest.mark.parametrize("params", [P3, P4, P5], ids=["n3", "n4", "n5"])
def test_regular_terms_record_at_most_n_minus_2(params):
    # what lets _check_psi11 read k = len(pi.m) without a range check
    terms = enumerate_corpus(params, 9).terms + tuple(witness_terms(params))
    regular = [x for x in terms if is_regular(x)]
    assert regular
    for x in regular:
        assert len(x.m) <= params.n - 2, x


def test_rule_vs_series_refuses_an_invalid_term():
    with pytest.raises(NotMahloTerm, match="unvalidated term"):
        rule_vs_series(t("psi(K; [0,K]; 0)"), P4)


def test_rule_tag_names_no_rule():
    assert rule_tag(BIG_K) is None
    assert rule_tag(t("psi(K; [1,0]; 1)")) is None         # base K, body non-zero
    assert rule_tag(t("psi(psi(K; 0); [0,1]; 1)")) is None  # base records no m
