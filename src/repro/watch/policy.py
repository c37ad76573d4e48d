"""Row-routing policy: pass, clean, or quarantine.

The daemon scores each incoming row (z-score of its reconstruction
residual against the calibrated residual distribution) and asks the
policy where the row should go:

- ``pass`` -- the row looks like the model's population; ingest it.
- ``clean`` -- mildly anomalous: repair the worst cell via the
  canonical fill operator and ingest the repaired row.
- ``quarantine`` -- beyond repair: preserve the original bytes in the
  append-only quarantine and keep the row away from the accumulator.

Two thresholds partition the z-axis (``clean_sigmas <
quarantine_sigmas``); setting them equal disables the repair band so
every flagged row quarantines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.outliers import RowScore

__all__ = ["ROUTE_ACTIONS", "RoutingDecision", "RoutingPolicy"]

#: The three places a scored row can go.
ROUTE_ACTIONS = ("pass", "clean", "quarantine")


@dataclass(frozen=True)
class RoutingDecision:
    """Where one row goes, and why."""

    action: str
    reason: str


@dataclass(frozen=True)
class RoutingPolicy:
    """Thresholds and knobs for routing scored rows.

    Attributes
    ----------
    clean_sigmas:
        Rows with residual z-score above this are flagged (the paper's
        example threshold is 2; the default is looser because a live
        stream flags forever at 2-sigma by construction).
    quarantine_sigmas:
        Flagged rows above this are quarantined instead of cleaned.
        Must be >= ``clean_sigmas``; equality disables the clean band.
    min_calibration_rows:
        Rows the residual calibration must see before scoring starts;
        earlier rows pass through unscored.
    burst_min_rows:
        Minimum flagged rows in one batch to consider a burst.
    burst_fraction:
        Fraction of a batch that must be flagged (together with
        ``burst_min_rows``) to emit one ``outlier-burst`` event.
    growth_every_rows:
        Emit a ``quarantine-growth`` event every time the quarantine
        grows by this many rows.
    recalibrate_on_refresh:
        Reset the residual calibration when a new model version is
        published (the residual distribution is model-relative).
    """

    clean_sigmas: float = 4.0
    quarantine_sigmas: float = 8.0
    min_calibration_rows: int = 64
    burst_min_rows: int = 8
    burst_fraction: float = 0.5
    growth_every_rows: int = 256
    recalibrate_on_refresh: bool = True

    def __post_init__(self) -> None:
        if self.clean_sigmas <= 0:
            raise ValueError(f"clean_sigmas must be > 0, got {self.clean_sigmas}")
        if self.quarantine_sigmas < self.clean_sigmas:
            raise ValueError(
                f"quarantine_sigmas ({self.quarantine_sigmas}) must be >= "
                f"clean_sigmas ({self.clean_sigmas})"
            )
        if self.min_calibration_rows < 2:
            raise ValueError(
                f"min_calibration_rows must be >= 2, got "
                f"{self.min_calibration_rows}"
            )
        if self.burst_min_rows < 1:
            raise ValueError(
                f"burst_min_rows must be >= 1, got {self.burst_min_rows}"
            )
        if not 0.0 < self.burst_fraction <= 1.0:
            raise ValueError(
                f"burst_fraction must be in (0, 1], got {self.burst_fraction}"
            )
        if self.growth_every_rows < 1:
            raise ValueError(
                f"growth_every_rows must be >= 1, got {self.growth_every_rows}"
            )

    def route_z(self, z_score: float) -> RoutingDecision:
        """Decide where a row with this residual z-score goes.

        A NaN z-score comes from a non-finite residual (a NaN or
        infinite cell) and quarantines: it would otherwise exceed no
        threshold and pass.
        """
        if math.isnan(z_score):
            return RoutingDecision(
                action="quarantine", reason="z=nan: non-finite residual"
            )
        if z_score > self.quarantine_sigmas:
            return RoutingDecision(
                action="quarantine",
                reason=(
                    f"z={z_score:.2f} > "
                    f"quarantine_sigmas={self.quarantine_sigmas:g}"
                ),
            )
        if z_score > self.clean_sigmas:
            return RoutingDecision(
                action="clean",
                reason=f"z={z_score:.2f} > clean_sigmas={self.clean_sigmas:g}",
            )
        return RoutingDecision(
            action="pass",
            reason=f"z={z_score:.2f} <= clean_sigmas={self.clean_sigmas:g}",
        )

    def route_masks(self, z_scores: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Boolean ``(flagged, quarantine)`` masks over a batch's z-scores.

        The array form of :meth:`route_z`: a flagged row is cleaned
        unless it is also in ``quarantine``, and an unflagged row passes.
        A NaN z-score is in both masks, so it quarantines.
        ``quarantine`` implies ``flagged`` as ``quarantine_sigmas >=
        clean_sigmas``.
        """
        z_scores = np.asarray(z_scores, dtype=np.float64)
        flagged = ~(z_scores <= self.clean_sigmas)
        return flagged, ~(z_scores <= self.quarantine_sigmas)

    def route(self, score: RowScore) -> RoutingDecision:
        """Decide where one scored row goes."""
        return self.route_z(score.z_score)

    def is_burst(self, n_flagged: int, n_rows: int) -> bool:
        """Whether one batch's flag counts constitute an outlier burst."""
        if n_rows == 0 or n_flagged < self.burst_min_rows:
            return False
        return n_flagged / n_rows >= self.burst_fraction
