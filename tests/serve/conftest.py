"""Shared fixtures for the serving-layer suite.

The synthetic-data factories live in :mod:`tests.conftest`; they are
re-exported here so serving tests keep their historical import path.
``http_post`` / ``http_get`` are tiny stdlib clients for the
``repro.serve.http`` suite: they never raise on HTTP error statuses,
returning ``(status, json_body, headers)`` so tests can assert on
429/503 responses directly.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Tuple

import pytest

from repro.core.model import RatioRuleModel
from tests.conftest import make_rank2_matrix, no_leaked_servers, punch_holes

__all__ = ["http_get", "http_post", "make_rank2_matrix", "punch_holes"]

_Response = Tuple[int, Any, Dict[str, str]]


def http_post(url: str, payload: Any, *, timeout: float = 10.0) -> _Response:
    """POST JSON; returns (status, decoded body, headers), never raises."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def http_get(url: str, *, timeout: float = 10.0) -> _Response:
    """GET JSON; returns (status, decoded body, headers), never raises."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_servers():
    """Every server and coalescer a test module starts is stopped by its end."""
    with no_leaked_servers():
        yield


@pytest.fixture
def served_model() -> RatioRuleModel:
    """A k=2 model on rank-2 data (all three fill regimes reachable)."""
    return RatioRuleModel(cutoff=2).fit(make_rank2_matrix(7))


@pytest.fixture
def retrained_model(served_model) -> RatioRuleModel:
    """Same schema as ``served_model``, different data (hot-swap twin)."""
    model = RatioRuleModel(cutoff=2).fit(make_rank2_matrix(11))
    assert model.schema_.names == served_model.schema_.names
    assert model.fingerprint() != served_model.fingerprint()
    return model
