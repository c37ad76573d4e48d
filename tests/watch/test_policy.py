"""Routing policy: thresholds, validation, burst detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.outliers import RowScore
from repro.watch import ROUTE_ACTIONS, RoutingPolicy

pytestmark = pytest.mark.watch


class TestRouteZ:
    def test_three_way_partition(self):
        policy = RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=8.0)
        assert policy.route_z(1.0).action == "pass"
        assert policy.route_z(5.0).action == "clean"
        assert policy.route_z(50.0).action == "quarantine"

    def test_thresholds_are_exclusive_above(self):
        policy = RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=8.0)
        # Exactly at a threshold stays in the lower band.
        assert policy.route_z(4.0).action == "pass"
        assert policy.route_z(8.0).action == "clean"

    def test_equal_thresholds_disable_the_clean_band(self):
        policy = RoutingPolicy(clean_sigmas=6.0, quarantine_sigmas=6.0)
        assert policy.route_z(6.0).action == "pass"
        assert policy.route_z(6.0001).action == "quarantine"

    def test_reason_names_the_threshold(self):
        policy = RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=8.0)
        assert "quarantine_sigmas=8" in policy.route_z(9.0).reason
        assert "clean_sigmas=4" in policy.route_z(5.0).reason

    def test_route_score_delegates(self):
        policy = RoutingPolicy()
        score = RowScore(row=0, residual=1.0, z_score=100.0, is_outlier=True)
        assert policy.route(score).action == "quarantine"

    def test_nan_quarantines_and_says_why(self):
        policy = RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=8.0)
        decision = policy.route_z(float("nan"))
        assert decision.action == "quarantine"
        assert "non-finite residual" in decision.reason
        flagged, quarantine = policy.route_masks(np.array([np.nan, 1.0]))
        assert flagged.tolist() == [True, False]
        assert quarantine.tolist() == [True, False]

    def test_every_action_is_in_route_actions(self):
        policy = RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=8.0)
        for z in (0.0, 5.0, 9.0):
            assert policy.route_z(z).action in ROUTE_ACTIONS


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"clean_sigmas": 0.0}, "clean_sigmas"),
            ({"clean_sigmas": 9.0, "quarantine_sigmas": 8.0}, "must be >="),
            ({"min_calibration_rows": 1}, "min_calibration_rows"),
            ({"burst_min_rows": 0}, "burst_min_rows"),
            ({"burst_fraction": 0.0}, "burst_fraction"),
            ({"burst_fraction": 1.5}, "burst_fraction"),
            ({"growth_every_rows": 0}, "growth_every_rows"),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RoutingPolicy(**kwargs)


class TestBurst:
    def test_needs_both_count_and_fraction(self):
        policy = RoutingPolicy(burst_min_rows=8, burst_fraction=0.5)
        assert not policy.is_burst(7, 8)  # count too low
        assert not policy.is_burst(8, 100)  # fraction too low
        assert policy.is_burst(8, 16)
        assert policy.is_burst(100, 100)

    def test_empty_batch_is_never_a_burst(self):
        assert not RoutingPolicy().is_burst(0, 0)
