"""Package errors survive pickling, as process pools and the Monte Carlo
workers' callers need: same type, message and attributes."""

from __future__ import annotations

import pickle

import pytest

from rdhte import errors

#: constructor arguments of the errors that build their own message
ARGS = {
    errors.NonFinite: (3, "y"),
    errors.MissingLabel: (4, "cluster"),
    errors.SingularGram: ("left", 1.5e-17),
    errors.ParseError: (5, "x", "1,5"),
    errors.MissingColumn: ("z",),
}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


ALL = sorted(set(_subclasses(errors.RdhteError)), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ALL, ids=[c.__name__ for c in ALL])
def test_error_survives_a_pickle_round_trip(cls):
    if "__init__" in vars(cls):
        assert cls in ARGS, f"{cls.__name__} needs constructor arguments"
    err = cls(*ARGS.get(cls, ("something went wrong",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_non_cell_non_finite_keeps_its_message():
    err = pickle.loads(pickle.dumps(errors.NonFinite(-1, "level 0.95")))
    assert str(err) == "non-finite value at level 0.95"
    assert err.row == -1
