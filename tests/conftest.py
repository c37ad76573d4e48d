"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Iterator, Set

import numpy as np
import pytest

from repro.core.model import RatioRuleModel
from repro.io.schema import TableSchema

#: The paper's Fig. 1 bread/butter matrix (5 customers x 2 products).
FIGURE1_MATRIX = np.array(
    [
        [0.89, 0.49],
        [3.34, 1.85],
        [5.00, 3.09],
        [1.78, 0.99],
        [4.02, 2.61],
    ]
)


@pytest.fixture
def figure1_matrix() -> np.ndarray:
    """Copy of the paper's Fig. 1 example matrix."""
    return FIGURE1_MATRIX.copy()


# -- shared synthetic-data factories (plain functions, import freely) ------


def make_rank2_matrix(seed: int, n_rows: int = 200, n_cols: int = 5) -> np.ndarray:
    """Rank-2 data with small noise; distinct per seed."""
    generator = np.random.default_rng(seed)
    factor1 = generator.normal(5.0, 2.0, size=n_rows)
    factor2 = generator.normal(0.0, 1.0, size=n_rows)
    loadings1 = np.array([1.0, 2.0, 0.5, 3.0, 1.5])[:n_cols]
    loadings2 = np.array([0.5, -1.0, 2.0, 0.0, -0.5])[:n_cols]
    matrix = np.outer(factor1, loadings1) + np.outer(factor2, loadings2)
    matrix += generator.normal(0.0, 0.05, size=matrix.shape)
    return matrix


def punch_holes(
    matrix: np.ndarray, generator: np.random.Generator, rate: float = 0.3
) -> np.ndarray:
    """Copy of ``matrix`` with a random ``rate`` of cells set to NaN."""
    holey = matrix.copy()
    holey[generator.random(matrix.shape) < rate] = np.nan
    return holey


def make_regime_matrix(
    seed: int,
    loadings=(1.0, 2.0, 0.5),
    n_rows: int = 400,
    noise: float = 0.05,
) -> np.ndarray:
    """Rank-1 transactions following one latent spending ratio."""
    generator = np.random.default_rng(seed)
    volume = generator.uniform(0.5, 4.0, size=n_rows)
    matrix = np.outer(volume, np.asarray(loadings, dtype=np.float64))
    matrix += generator.normal(0.0, noise, size=matrix.shape)
    return matrix


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def correlated_matrix(rng: np.random.Generator) -> np.ndarray:
    """A 300 x 5 matrix with rank-2 structure plus small noise."""
    n_rows = 300
    factor1 = rng.normal(5.0, 2.0, size=n_rows)
    factor2 = rng.normal(0.0, 1.0, size=n_rows)
    loadings1 = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
    loadings2 = np.array([0.5, -1.0, 2.0, 0.0, -0.5])
    matrix = np.outer(factor1, loadings1) + np.outer(factor2, loadings2)
    matrix += rng.normal(0.0, 0.05, size=matrix.shape)
    return matrix


@pytest.fixture
def correlated_model(correlated_matrix: np.ndarray) -> RatioRuleModel:
    """A k=2 model fitted on the rank-2 correlated matrix.

    The cutoff is fixed at 2 because the first factor alone covers the
    85% rule on this data, while the reconstruction tests rely on both
    factors being captured.
    """
    return RatioRuleModel(cutoff=2).fit(correlated_matrix)


@pytest.fixture
def small_schema() -> TableSchema:
    """A 3-column named schema."""
    return TableSchema.from_names(["bread", "milk", "butter"], unit="$")


def random_symmetric_psd(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random symmetric positive semi-definite matrix."""
    a = rng.standard_normal((size + 2, size))
    return a.T @ a


def assert_eigenpairs_valid(matrix, eigenvalues, eigenvectors, atol=1e-8):
    """Shared eigenpair validity assertion: residual and orthonormality."""
    matrix = np.asarray(matrix, dtype=np.float64)
    residual = matrix @ eigenvectors - eigenvectors * eigenvalues[np.newaxis, :]
    scale = max(float(np.linalg.norm(matrix)), 1.0)
    assert np.linalg.norm(residual) / scale < atol
    gram = eigenvectors.T @ eigenvectors
    np.testing.assert_allclose(gram, np.eye(eigenvectors.shape[1]), atol=1e-7)


# -- leak check for the serving suites ---------------------------------------

#: Thread-name prefixes of the serving tier's threads: the HTTP event
#: loops, the standalone coalescer's batcher, and the store watcher.
SERVING_THREAD_PREFIXES = (
    "repro-serve-",
    "repro-http-",
    "repro-metrics-",
    "repro-store-watcher",
)


def listening_sockets() -> Set[str]:
    """``socket:[inode]`` names of this process's listening TCP sockets
    (empty where ``/proc`` is not available)."""
    listening = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        listening.update(
            row.split()[9] for row in rows if row.split()[3] == "0A"
        )
    mine = set()
    try:
        descriptors = os.listdir("/proc/self/fd")
    except OSError:
        return mine
    for fd in descriptors:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:[") and target[8:-1] in listening:
            mine.add(target)
    return mine


@contextlib.contextmanager
def no_leaked_servers(grace: float = 5.0) -> Iterator[None]:
    """Fail if a serving thread or a listening socket started inside the
    block is still alive ``grace`` seconds after it ends."""
    threads = set(threading.enumerate())
    sockets = listening_sockets()
    yield
    deadline = time.monotonic() + grace
    while True:
        leaked = sorted(
            thread.name
            for thread in threading.enumerate()
            if thread not in threads
            and thread.name.startswith(SERVING_THREAD_PREFIXES)
        )
        listeners = sorted(listening_sockets() - sockets)
        if not (leaked or listeners) or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    assert not leaked, f"serving threads outlived their tests: {leaked}"
    assert not listeners, f"listening sockets outlived their tests: {listeners}"
