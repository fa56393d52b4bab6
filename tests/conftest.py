"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def count_eigensolves(monkeypatch):
    """Stack sizes of the np.linalg.eigh and eigvalsh calls made during the test, by name.

    The size of a call is the number of matrices it diagonalizes: 1 for one
    matrix, the product of the leading dimensions for a stack.
    """
    calls = {"eigh": [], "eigvalsh": []}
    for name, solve in [(name, getattr(np.linalg, name)) for name in calls]:

        def counted(m, *args, _name=name, _solve=solve, **kwargs):
            calls[_name].append(int(np.prod(np.shape(m)[:-2])))
            return _solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _split_floats(obj, floats: list):
    if isinstance(obj, float):
        floats.append(obj)
        return None
    if isinstance(obj, dict):
        return {k: _split_floats(v, floats) for k, v in sorted(obj.items())}
    if isinstance(obj, list):
        return [_split_floats(v, floats) for v in obj]
    return obj


@pytest.fixture
def split_floats():
    """f(obj, floats): obj with every float replaced by None; the floats go to floats in walk order.

    Golden comparisons match the float-free shape exactly and the floats
    within a tolerance, so that another LAPACK build still passes.
    """
    return _split_floats
