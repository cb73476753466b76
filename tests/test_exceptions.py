"""Every exception the package raises survives ``pickle`` and ``copy``: the
copy has the same type, the same fields and the same message."""

import copy
import pickle

import pytest

from deduce.categorical import UnknownPredicate, UnknownSyllogism
from deduce.jugs import NotAchievable, PlanTooLong, PlanViolation, ViolationKind
from deduce.logic import MissingAtom, TooManyAtoms
from deduce.parser import ErrorKind, ParseError, SourceSpan
from deduce.rules import UnknownRule

# An instance of each, with the fields its constructor sets.
ERRORS = [
    (ParseError(ErrorKind.UNBALANCED_PAREN, SourceSpan(2, 2), "missing ')'"),
     ("kind", "span", "message")),
    (MissingAtom("P"), ("name",)),
    (TooManyAtoms(30), ("count", "limit")),
    (TooManyAtoms(17, 16), ("count", "limit")),
    (UnknownPredicate("M"), ("name",)),
    (UnknownSyllogism("barbarb"), ("name",)),
    (UnknownRule("modus-tollendo"), ("name",)),
    (PlanViolation(3, ViolationKind.NEGATIVE_AMOUNT), ("index", "reason")),
    (NotAchievable(2, 4, 3, 2), ("n", "m", "target", "gcd")),
    (PlanTooLong(10**8), ("length",)),
]


@pytest.mark.parametrize(
    "copier",
    [lambda error: pickle.loads(pickle.dumps(error)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize("error,fields", ERRORS, ids=[type(e).__name__ for e, _ in ERRORS])
def test_round_trip_keeps_type_fields_and_message(error, fields, copier):
    copied = copier(error)
    assert type(copied) is type(error)
    for field in fields:
        assert getattr(copied, field) == getattr(error, field)
    assert str(copied) == str(error)
    assert copied.args == error.args
