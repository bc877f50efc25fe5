"""Membership in the inductive class of step-down coefficient vectors.

Decision is by goal-directed search: peel the tail base-power off the
last-extended position and recurse on the two premise vectors.  Successful
searches return a replayable derivation.
"""

from collections import namedtuple

from .terms import E_ZERO, EOrd, ZERO, is_zero_vec, mk_eord
from .cnf import (
    exp_add, from_pairs, irreducible, pairs, te, vec_step_down,
)
from .order import memo

__all__ = [
    "Base", "Extend", "SdDerivation", "in_sd", "replay",
    "SdConditions", "sd_necessary_conditions",
]


# The axiom: zeros followed by a single ordinal entry a.
Base = namedtuple("Base", "a")

# Add a base-power with exponent zeta and coefficient a at logical position
# k; the tail is either kept or zeroed.
Extend = namedtuple("Extend", "k zeta a keep_tail")

# steps: a tuple of Base and Extend steps, in the order they apply;
# seq: the derived vector.
SdDerivation = namedtuple("SdDerivation", "steps seq")


def in_sd(seq):
    """A derivation of the vector, or None when there is none.

    The vector carries logical indices 2..N-1; N is read off its length.
    """
    return _search(tuple(seq))


def _base_of(seq):
    """Base-rule reading of the vector, if it has that shape."""
    if not is_zero_vec(seq[:-1]):
        return None
    last = seq[-1]
    if last is E_ZERO:
        return Base(ZERO)
    if isinstance(last, EOrd):
        return Base(last.a)
    return None


@memo
def _search(seq):
    base = _base_of(seq)
    if base is not None:
        return SdDerivation((base,), seq)
    # last step must have extended some position k in 2..N-2
    for j in range(len(seq) - 1):
        entry = seq[j]
        if entry is E_ZERO:
            continue
        ps = pairs(entry)
        zeta, coeff = ps[-1]
        if zeta is E_ZERO:
            continue  # extension heads always carry a positive exponent
        mu = from_pairs(ps[:-1])
        tail = seq[j + 1:]
        prem2 = seq[:j] + (mu, zeta) + (E_ZERO,) * (len(seq) - j - 2)
        # an all-zero tail steps down below every exponent
        if _search(prem2) is None or not vec_step_down(tail, zeta):
            continue
        d1 = _search(seq[:j] + (mu,) + tail)
        if d1 is not None:
            step = Extend(j + 2, zeta, coeff, keep_tail=not is_zero_vec(tail))
            return SdDerivation(d1.steps + (step,), seq)
    return None


def replay(derivation, n):
    """Rebuild the vector by applying the recorded steps in order."""
    cur = None
    for step in derivation.steps:
        if isinstance(step, Base):
            last = E_ZERO if step.a is ZERO else mk_eord(step.a)
            cur = (E_ZERO,) * (n - 3) + (last,)
        else:
            j = step.k - 2
            entry = exp_add(cur[j], from_pairs(((step.zeta, step.a),)))
            tail = cur[j + 1:] if step.keep_tail else (E_ZERO,) * (n - 2 - j - 1)
            cur = cur[:j] + (entry,) + tail
    return cur


# ---------------------------------------------------------------------------
# Necessary conditions
# ---------------------------------------------------------------------------

class SdConditions(namedtuple(
        "SdConditions",
        "prefixes_in_sd no_zero_gap tail_step_down irreducible")):
    __slots__ = ()

    @property
    def all_hold(self):
        return (self.prefixes_in_sd and self.no_zero_gap
                and self.tail_step_down and self.irreducible)


def sd_necessary_conditions(seq):
    """The four necessary conditions every derivable vector satisfies."""
    seq = tuple(seq)
    n = len(seq)

    # proper prefixes only: i = n would ask for the vector's own derivation
    prefix_ok = True
    for i in range(n):
        filled = seq[:i] + (E_ZERO,) * (n - i)
        if _search(filled) is None:
            prefix_ok = False
            break

    gap_ok = True
    nz = [j for j, e in enumerate(seq) if e is not E_ZERO]
    if nz:
        lo, hi = nz[0], nz[-1]
        gap_ok = all(seq[j] is not E_ZERO for j in range(lo, hi + 1))

    tail_ok = True
    for j, e in enumerate(seq):
        if e is E_ZERO or j == n - 1:
            continue
        t = te(e)
        if not vec_step_down(seq[j + 1:], t):
            tail_ok = False
            break

    return SdConditions(prefix_ok, gap_ok, tail_ok, irreducible(seq))
