"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from binquant import binormal


@pytest.fixture
def mass_solves(monkeypatch):
    """The number of levels of each ``binormal._z_at_mass`` call made while the test runs."""
    calls = []
    solve = binormal._z_at_mass

    def counted(d, pos, neg, u):
        calls.append(np.size(u))
        return solve(d, pos, neg, u)
    monkeypatch.setattr(binormal, "_z_at_mass", counted)
    return calls
