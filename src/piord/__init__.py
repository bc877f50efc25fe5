"""Ordinal notation system for first-order reflection, with a decidable
order, step-down sequence machinery, validation, and brute-force oracles."""

from .params import SystemParams
from .terms import (
    BIG_K, E_ZERO, ONE, ZERO,
    EOrd, LamSum, OmegaExp, OmegaIdx, Psi, Sum, Veblen,
    collapsing_series, m_vec, pd, pd_iter, prec, prec_eq,
)
from .order import EQ, GT, LT, cmp_exp, cmp_ord, hull_member, k_delta
from .validate import ValidationReport, check_ot, rule_vs_series
from .arith import (
    add, from_int, natural_sum, omega_exp, omega_idx, omega_tower,
    psi, psi0, psiK, psi_sd, psi_step, theorem_bound, veblen,
)
from .sd import in_sd, replay, sd_necessary_conditions
from .syntax import parse_ord, parse_seq, print_ord, print_seq
from .oracle import (
    Corpus, check_order_axioms, check_structural_props, descent_probe,
    enumerate_corpus, sd_cross_check, witness_terms,
)

__version__ = "0.1.0"
