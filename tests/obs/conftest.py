"""Shared fixtures for the observability suite."""

from __future__ import annotations

import pytest

from tests.conftest import no_leaked_servers


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_servers():
    """Every metrics endpoint a test module starts is stopped by its end."""
    with no_leaked_servers():
        yield
