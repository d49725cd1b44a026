"""Shared pytest configuration for the test suite.

Registers the ``slow`` marker used by the long randomized equivalence
sweeps so CI (and impatient humans) can deselect them with::

    pytest -m "not slow"

The full suite, slow sweeps included, remains the tier-1 gate.
"""

from __future__ import annotations

import pytest


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: long randomized equivalence sweeps; deselect with "
        "-m \"not slow\"")


@pytest.fixture
def no_compiler(monkeypatch):
    """A box without ``cc``: the core cannot be built, so every pool
    built under this fixture runs each search through the decoder's
    scalar search — the fallback (after the loader's one
    ``RuntimeWarning``)."""
    import repro.sphere.tick_kernel as tick_kernel

    def missing():
        raise OSError("no C compiler ('cc') on PATH")

    monkeypatch.setattr(tick_kernel, "_core", None)
    monkeypatch.setattr(tick_kernel, "_compiler", missing)
