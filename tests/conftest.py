import functools
import json
import os

import pytest


def _first_difference(got: str, want: str):
    """None for equal texts, else the offset and both texts around it.

    A short failure message: pytest's own diff of two long texts is quadratic.
    """
    if got == want:
        return None
    i = len(os.path.commonprefix([got, want]))
    return i, got[max(i - 40, 0) : i + 40], want[max(i - 40, 0) : i + 40]


@pytest.fixture(scope="session")  # session scope, so Hypothesis tests can take it
def first_difference():
    return _first_difference


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="session")
def strict_loads():
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON does not have."""
    return functools.partial(json.loads, parse_constant=_refuse_constant)
