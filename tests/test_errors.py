from __future__ import annotations

import pickle

import pytest

from deltaring import errors

ERROR_TYPES = sorted((cls for cls in vars(errors).values()
                      if isinstance(cls, type) and issubclass(cls, Exception)
                      and cls.__module__ == errors.__name__), key=lambda cls: cls.__name__)

# the constructor arguments of the types whose __init__ takes more than a message
SAMPLE_ARGS = {
    errors.AxiomViolation: [("mul-identity", (1, 2)),
                            ("identity-distinct", (0, 0), "rings here have 0 != 1")],
    errors.HomViolation: [("coset", (3, 4)), ("one", (1,), "")],
    errors._Witnessed: [("kind", ())],
    errors.ExprSyntaxError: [(7, "')'"), (0, "expression", "custom message")],
}


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    for args in SAMPLE_ARGS.get(cls, [("what went wrong",)]):
        error = cls(*args)
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is cls
        assert str(back) == str(error)
        for attr in ("kind", "witness", "position", "expected"):
            assert getattr(back, attr, None) == getattr(error, attr, None), (cls, attr)
