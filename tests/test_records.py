"""The nine records are immutable namedtuples with fixed fields."""

import pytest

from piord.errors import LimitExceeded
from piord.oracle import CheckReport, Corpus, DescentReport, enumerate_corpus
from piord.params import MAX_N, SystemParams
from piord.sd import (
    Base, Extend, SdConditions, SdDerivation, sd_necessary_conditions,
)
from piord.terms import E_ONE, E_ZERO, ONE, ZERO
from piord.validate import ValidationReport

FIELDS = (
    (SystemParams, ("n",)),
    (ValidationReport, ("rule", "failure")),
    (Base, ("a",)),
    (Extend, ("k", "zeta", "a", "keep_tail")),
    (SdDerivation, ("steps", "seq")),
    (SdConditions,
     ("prefixes_in_sd", "no_zero_gap", "tail_step_down", "irreducible")),
    (Corpus, ("params", "size_cap", "terms", "seqs")),
    (CheckReport, ("name", "checked", "failures")),
    (DescentReport, ("chain_len", "final", "hit_bottom")),
)


def _instances():
    return (
        SystemParams(4),
        ValidationReport("Psi9"),
        Base(ZERO),
        Extend(2, E_ONE, ONE, True),
        SdDerivation((Base(ZERO),), (E_ZERO, E_ZERO)),
        sd_necessary_conditions((E_ZERO, E_ZERO)),
        enumerate_corpus(SystemParams(4), 3),
        CheckReport("transitivity", 0, ()),
        DescentReport(0, ZERO, True),
    )


def test_fields_keep_their_names_and_order():
    for (cls, fields), rec in zip(FIELDS, _instances()):
        assert type(rec) is cls and cls._fields == fields


def test_records_are_immutable():
    for rec in _instances():
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.extra = None


def test_system_params_is_a_value():
    assert SystemParams(4) == SystemParams(4) == SystemParams()
    assert hash(SystemParams(4)) == hash(SystemParams(4))
    assert SystemParams(3) != SystemParams(4)
    assert repr(SystemParams(4)) == "SystemParams(n=4)"
    assert ValidationReport("Psi9").failure is None
    with pytest.raises(LimitExceeded):
        SystemParams(2)
    with pytest.raises(LimitExceeded):
        SystemParams(MAX_N + 1)
