"""Fixtures shared by the test modules."""

import pytest

from isozono import lattice


@pytest.fixture
def no_scan(monkeypatch):
    """`lattice.product`, the line scan's only loop, raises: a test that takes
    this fixture fails if any lattice line is scanned, so a refusal it expects
    must come before the scan, and a row it reads must be in closed form."""
    def refuse(*ranges):
        raise AssertionError("a lattice line was scanned")

    monkeypatch.setattr(lattice, "product", refuse)
