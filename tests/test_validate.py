import pytest

from piord.errors import NotMahloTerm, ValidationError
from piord.params import SystemParams
from piord.terms import (
    BIG_K, E_ZERO, ONE, ZERO, m_vec, mk_eord, mk_lamsum, mk_omega_idx,
    mk_psi, mk_sum, mk_veblen,
)
import piord.validate
from piord.order import clear_caches
from piord.validate import (
    ValidationReport, check_ot, check_exp, rule_vs_series,
)
from piord.arith import add, from_int, psi0, psiK, psi_sd, psi_step
from piord.syntax import parse_ord

P3 = SystemParams(3)
P4 = SystemParams(4)


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
             "Psi12": t12}

    def boom(ks):
        raise AssertionError("detail formatted for a passing check")

    monkeypatch.setattr(piord.validate, "_kset_repr", boom)
    clear_caches()
    for rule, term in terms.items():
        rep = check_ot(term, P4)
        assert rep.ok and rep.rule == rule
