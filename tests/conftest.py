"""Shared pytest configuration for the test suite.

Registers the ``slow`` marker used by the long randomized equivalence
sweeps so CI (and impatient humans) can deselect them with::

    pytest -m "not slow"

The full suite, slow sweeps included, remains the tier-1 gate.

``--sanitize-core`` runs the session against a build of the compiled
search core under AddressSanitizer and UndefinedBehaviorSanitizer
(:data:`SANITIZED_CFLAGS`; the build cache is keyed by flags, so it
never shadows the normal build).  The interpreter must load both
runtimes first::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src \
    python -m pytest tests/test_tick_kernel.py --sanitize-core
"""

from __future__ import annotations

import pytest

#: The core's flags under ``--sanitize-core``: ASan and UBSan, a UB
#: report fatal, the float program's ``-ffp-contract=off`` kept.
SANITIZED_CFLAGS = ("-O1", "-g", "-fsanitize=address,undefined",
                    "-fno-sanitize-recover=undefined", "-shared", "-fPIC",
                    "-ffp-contract=off")


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--sanitize-core", action="store_true",
        help="build and load the compiled search core under ASan and "
             "UBSan (preload both runtimes; see tests/conftest.py)")


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: long randomized equivalence sweeps; deselect with "
        "-m \"not slow\"")
    if config.getoption("--sanitize-core"):
        import repro.sphere.tick_kernel as tick_kernel

        tick_kernel._CFLAGS = SANITIZED_CFLAGS
        # Without its runtimes preloaded a sanitized build fails to
        # load, and a session on the scalar fallback checks nothing.
        if tick_kernel.core() is None:
            raise pytest.UsageError(
                "--sanitize-core: the sanitized core did not load "
                "(preload libasan and libubsan)")


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
