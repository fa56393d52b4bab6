"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def count_eigensolves(monkeypatch):
    """Stack sizes of the np.linalg.eigh and eigvalsh calls made during the test, by name."""
    calls = {"eigh": [], "eigvalsh": []}
    for name, solve in [(name, getattr(np.linalg, name)) for name in calls]:

        def counted(m, *args, _name=name, _solve=solve, **kwargs):
            calls[_name].append(1 if np.ndim(m) == 2 else len(m))
            return _solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
