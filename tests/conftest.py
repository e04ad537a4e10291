"""Shared pytest configuration.

Registers hypothesis settings profiles so the property tests
(``tests/test_properties.py``) are reproducible where it matters:

``default``
    The stock profile for local development — random exploration finds
    new counterexamples.
``ci``
    Derandomized and database-free: every CI run executes the identical
    example sequence, so a red build is always reproducible locally with
    ``REPRO_HYPOTHESIS_PROFILE=ci`` and never depends on a shared example
    database.  Selected automatically when ``CI`` is set in the
    environment, or explicitly via ``REPRO_HYPOTHESIS_PROFILE``.

Hypothesis itself is optional (the ``test``/``dev`` extras provide it);
without it the property tests skip and this module does nothing.

Every test also gets the ``repro`` logger back as it found it (see
:func:`_restore_repro_logger`).
"""

import logging
import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - property tests skip anyway
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, database=None,
                              max_examples=100, deadline=None)
    settings.register_profile("dev", max_examples=25)
    _profile = os.environ.get("REPRO_HYPOTHESIS_PROFILE")
    if _profile is None and os.environ.get("CI"):
        _profile = "ci"
    if _profile is not None:
        settings.load_profile(_profile)


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Undo :func:`repro.obs.logconfig.configure_logging` after each test.

    CLI tests call it, which leaves a handler on that test's captured
    stderr (closed once the test ends) and ``propagate=False``, so later
    tests' ``repro`` records never reach ``caplog``.
    """
    logger = logging.getLogger("repro")
    handlers = list(logger.handlers)
    level, propagate = logger.level, logger.propagate
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate
