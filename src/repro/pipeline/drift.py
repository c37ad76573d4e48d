"""Drift detection for the continuous-ingestion pipeline.

Two complementary signals decide whether the *published* model still
describes the stream:

**Holdout guessing error (GE1).**  The paper's own quality measure
(Eq. 3): hide one cell at a time in a holdout row and reconstruct it
from the rest.  The detector keeps a reservoir sample (Vitter's
Algorithm R) of the rows seen since the last refresh and scores the
published model against it.  The first evaluation after a refresh
anchors a baseline; when GE1 later exceeds ``baseline * ge_ratio``,
the published rules have measurably stopped explaining fresh traffic.

**Rule-angle divergence.**  The online accumulator keeps folding new
rows, so at any moment a *candidate* rule set can be solved from it.
The largest principal angle between the published and candidate rule
subspaces (see :func:`repro.core.compare.principal_angles`) measures
how far the correlation structure has rotated -- and a change in the
rule *count* is treated as drift outright, since the energy cutoff
found a different number of strong directions.

GE1 catches drift that hurts reconstruction accuracy even when the
subspace barely moves (e.g. a variance blow-up along existing rules);
the angle catches structural rotation even while reconstruction error
happens to stay flat.  Either alone can trigger a refresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.compare import compare_models
from repro.core.guessing_error import single_hole_error
from repro.obs.tracing import span

__all__ = ["DriftDetector", "DriftReport", "ReservoirSample"]


class ReservoirSample:
    """Uniform row sample over an unbounded stream (Algorithm R).

    After ``n`` rows have been offered, each is present with
    probability ``capacity / n`` -- a fixed-memory holdout that stays
    representative of everything seen since the last :meth:`reset`.
    Deterministic in ``seed`` for reproducible pipelines.
    """

    def __init__(self, capacity: int, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._sample = np.empty((0, 0), dtype=np.float64)
        self._n_seen = 0

    @property
    def n_seen(self) -> int:
        """Rows offered since the last reset."""
        return self._n_seen

    def __len__(self) -> int:
        return self._sample.shape[0]

    @property
    def occupancy(self) -> float:
        """Fill fraction in [0, 1]."""
        return len(self) / self.capacity

    def extend(self, rows: np.ndarray) -> None:
        """Offer a block of rows to the sample.

        The same rows, row count and RNG state as offering the rows one
        at a time: the head of the block tops the sample up, and each
        later row ``n`` draws its slot from ``[0, n)`` -- one
        ``integers`` call over the array of bounds makes the same draws
        as one call per row.  Replacements apply in row order, so when
        two rows draw the same slot the later one wins.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        fill = min(self.capacity - len(self), rows.shape[0])
        if fill > 0:
            head = rows[:fill]
            self._sample = (
                np.concatenate([self._sample, head]) if len(self) else head.copy()
            )
        rest = rows.shape[0] - fill
        first = self._n_seen + fill + 1
        self._n_seen += rows.shape[0]
        if rest == 0:
            return
        slots = self._rng.integers(0, np.arange(first, first + rest))
        hit = np.flatnonzero(slots < self.capacity)
        # The last row to draw each slot: first occurrence, reversed.
        kept, at = np.unique(slots[hit][::-1], return_index=True)
        self._sample[kept] = rows[fill + hit[::-1][at]]

    def rows(self) -> np.ndarray:
        """The current sample as a matrix (copy; may be empty)."""
        return self._sample.copy()

    def reset(self) -> None:
        """Forget the sample and the row count (used at each refresh)."""
        self._sample = np.empty((0, 0), dtype=np.float64)
        self._n_seen = 0
        self._rng = np.random.default_rng(self._seed)


@dataclass(frozen=True)
class DriftReport:
    """One drift evaluation of the published model against the stream.

    Attributes
    ----------
    drifted:
        Whether any signal crossed its threshold.
    reasons:
        The signals that fired, in priority order; a subset of
        ``("guessing-error", "rule-angle", "rule-count")``.
    guessing_error:
        Holdout GE1 of the published model on the reservoir sample
        (``None`` when the sample was too small to score).
    baseline_guessing_error:
        The anchored baseline GE1 (``None`` before the anchor exists).
    angle_degrees:
        Largest principal angle between published and candidate rule
        subspaces (``None`` when no candidate was available).
    k_published / k_candidate:
        Rule counts of the two models (``k_candidate`` ``None``
        without a candidate).
    n_sample_rows:
        Reservoir rows the GE signal was computed over.
    """

    drifted: bool
    reasons: Tuple[str, ...]
    guessing_error: Optional[float]
    baseline_guessing_error: Optional[float]
    angle_degrees: Optional[float]
    k_published: int
    k_candidate: Optional[int]
    n_sample_rows: int

    def describe(self) -> str:
        """One-line human-readable summary (refresh-log format)."""
        ge = "n/a" if self.guessing_error is None else f"{self.guessing_error:.4g}"
        base = (
            "n/a"
            if self.baseline_guessing_error is None
            else f"{self.baseline_guessing_error:.4g}"
        )
        angle = (
            "n/a" if self.angle_degrees is None else f"{self.angle_degrees:.1f} deg"
        )
        verdict = (
            f"DRIFTED ({', '.join(self.reasons)})" if self.drifted else "stable"
        )
        return (
            f"GE1 {ge} (baseline {base}, {self.n_sample_rows} holdout rows), "
            f"angle {angle}: {verdict}"
        )


class DriftDetector:
    """Scores the published model against the live stream.

    Parameters
    ----------
    reservoir_capacity:
        Holdout rows retained for the GE signal.
    min_sample_rows:
        Reservoir rows required before GE1 is scored at all; below
        this the GE signal abstains (reports ``None``).
    ge_ratio:
        Multiplicative degradation that counts as drift: GE1 must
        exceed ``baseline * ge_ratio``.  Must be >= 1.
    angle_threshold_degrees:
        Largest principal angle (published vs candidate rules) that
        still counts as "the same structure".
    seed:
        Reservoir determinism seed.
    """

    def __init__(
        self,
        *,
        reservoir_capacity: int = 512,
        min_sample_rows: int = 32,
        ge_ratio: float = 1.25,
        angle_threshold_degrees: float = 15.0,
        seed: int = 0,
    ) -> None:
        if min_sample_rows < 1:
            raise ValueError(
                f"min_sample_rows must be >= 1, got {min_sample_rows}"
            )
        if ge_ratio < 1.0:
            raise ValueError(f"ge_ratio must be >= 1, got {ge_ratio}")
        if angle_threshold_degrees <= 0.0:
            raise ValueError(
                f"angle_threshold_degrees must be > 0, "
                f"got {angle_threshold_degrees}"
            )
        self.reservoir = ReservoirSample(reservoir_capacity, seed=seed)
        self.min_sample_rows = int(min_sample_rows)
        self.ge_ratio = float(ge_ratio)
        self.angle_threshold_degrees = float(angle_threshold_degrees)
        self._baseline_ge: Optional[float] = None

    @property
    def baseline_guessing_error(self) -> Optional[float]:
        """The anchored baseline GE1, if one exists yet."""
        return self._baseline_ge

    def observe(self, rows: np.ndarray) -> None:
        """Offer freshly ingested rows to the holdout reservoir."""
        self.reservoir.extend(rows)

    def evaluate(self, published, candidate=None) -> DriftReport:
        """Score ``published`` (and optionally a candidate) for drift.

        Parameters
        ----------
        published:
            The currently served fitted
            :class:`~repro.core.model.RatioRuleModel`.
        candidate:
            Optional fitted model solved from the online accumulator;
            enables the rule-angle signal.
        """
        reasons = []
        sample = self.reservoir.rows()
        guessing_error: Optional[float] = None
        if sample.shape[0] >= self.min_sample_rows:
            with span(
                "drift.guessing_error", sample_rows=int(sample.shape[0])
            ):
                guessing_error = single_hole_error(published, sample).value
            if self._baseline_ge is None:
                # First scoring after a refresh anchors the baseline.
                self._baseline_ge = guessing_error
            elif guessing_error > self._baseline_ge * self.ge_ratio:
                reasons.append("guessing-error")

        angle: Optional[float] = None
        k_candidate: Optional[int] = None
        if candidate is not None:
            with span("drift.rule_angle"):
                comparison = compare_models(published, candidate)
            angle = comparison.max_angle_degrees
            k_candidate = comparison.k_b
            if comparison.k_a != comparison.k_b:
                reasons.append("rule-count")
            elif angle > self.angle_threshold_degrees:
                reasons.append("rule-angle")

        return DriftReport(
            drifted=bool(reasons),
            reasons=tuple(reasons),
            guessing_error=guessing_error,
            baseline_guessing_error=self._baseline_ge,
            angle_degrees=angle,
            k_published=published.k,
            k_candidate=k_candidate,
            n_sample_rows=int(sample.shape[0]),
        )

    def rebase(self) -> None:
        """Start a fresh drift window (called after every refresh).

        Drops the holdout reservoir (its rows are now *training* data
        of the newly published model, so they can no longer serve as a
        holdout) and clears the GE baseline; the first evaluation of
        the new model re-anchors it.
        """
        self.reservoir.reset()
        self._baseline_ge = None
