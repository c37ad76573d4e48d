"""Core Ratio Rule algorithms (the paper's primary contribution).

Modules map one-to-one onto the paper's sections:

============================  ==========================================
Module                        Paper section
============================  ==========================================
:mod:`repro.core.covariance`  4.2 / Fig. 2(a) -- single-pass covariance
:mod:`repro.core.model`       4.1-4.2 -- mining the rules end to end
:mod:`repro.core.energy`      Eq. 1 -- the 85% cutoff heuristic
:mod:`repro.core.rules`       the Ratio Rule objects themselves
:mod:`repro.core.reconstruction`  4.4 / Fig. 3 -- filling holes
:mod:`repro.core.guessing_error`  4.3 -- GE1 / GEh (Eqs. 3-4)
:mod:`repro.core.outliers`    Sec. 3 -- outlier detection
:mod:`repro.core.whatif`      Sec. 3 -- what-if scenarios
:mod:`repro.core.cleaning`    Sec. 3 -- data cleaning
:mod:`repro.core.visualize`   6.1 / Figs. 9, 11 -- RR-space plots
:mod:`repro.core.interpret`   6.2 / Fig. 10, Table 2 -- reading rules
============================  ==========================================

Extensions beyond the paper's core (each justified by the paper's own
text):

- :mod:`repro.core.categorical` -- categorical attributes via one-hot
  encoding (the paper's stated future work, Sec. 7);
- :mod:`repro.core.incomplete` -- mining from training data that is
  itself incomplete (pairwise-available covariance);
- :mod:`repro.core.uncertainty` -- calibrated prediction intervals for
  filled holes;
- :mod:`repro.core.parallel` -- sharded mining via mergeable
  accumulators (the single-pass answer to the paper's reference [3]);
- :mod:`repro.core.engine` -- the process-parallel, out-of-core scan
  engine behind :func:`~repro.core.parallel.fit_sharded`: chunk
  planning over files, a picklable map step, exact order-preserving
  merges, and scan telemetry;
- :mod:`repro.core.online` -- streaming model maintenance, with
  optional exponential forgetting (via
  :class:`~repro.core.covariance.DecayingCovariance`);
- :mod:`repro.core.wide` -- top-k rules without materializing the
  covariance matrix (the paper's footnote 1);
- :mod:`repro.core.compare` -- drift detection via principal angles;
- :mod:`repro.core.stability` -- bootstrap stability of mined rules;
- :mod:`repro.core.crossval` -- cutoff selection by cross-validated
  guessing error;
- :mod:`repro.core.recommend` -- basket completion / recommendation.
"""

from repro.core.categorical import (
    CategoricalAttribute,
    CategoricalRatioRuleModel,
    MixedSchema,
)
from repro.core.compare import ModelComparison, compare_models, principal_angles
from repro.core.engine import (
    RetryPolicy,
    ScanChunk,
    ScanCheckpoint,
    ScanFaultError,
    ScanResult,
    plan_chunks,
    scan_chunk,
    scan_sources,
)
from repro.core.crossval import (
    CutoffCVReport,
    cross_validate_cutoff,
    fit_with_cv_cutoff,
)
from repro.core.incomplete import IncompleteCovariance, fit_incomplete
from repro.core.online import OnlineRatioRuleModel
from repro.core.recommend import BasketRecommender, Recommendation
from repro.core.stability import RuleStabilityReport, bootstrap_stability
from repro.core.parallel import accumulate_shard, fit_sharded, merge_partials
from repro.core.uncertainty import CalibratedEstimator, IntervalPrediction, calibrate
from repro.core.wide import implicit_covariance_operator, mine_wide

from repro.core.cleaning import CleaningReport, impute_missing, repair_corrupted
from repro.core.covariance import (
    DecayingCovariance,
    StreamingCovariance,
    TextbookCovarianceAccumulator,
    covariance_single_pass,
)
from repro.core.energy import (
    AverageEigenvalueCutoff,
    CutoffPolicy,
    EnergyCutoff,
    FixedCutoff,
    ScreeCutoff,
    resolve_cutoff,
)
from repro.core.guessing_error import (
    GuessingErrorReport,
    enumerate_hole_sets,
    guessing_error,
    relative_guessing_error,
    single_hole_error,
)
from repro.core.interpret import (
    RuleInterpretation,
    interpret_rule,
    interpret_rules,
    loading_table,
)
from repro.core.model import NotFittedError, RatioRuleModel
from repro.core.outliers import (
    CellOutlier,
    ResidualCalibration,
    RowOutlier,
    RowScore,
    calibrate_residuals,
    detect_cell_outliers,
    detect_row_outliers,
    leave_one_out_errors,
    reconstruction_residuals,
    score_rows,
)
from repro.core.reconstruction import (
    FillOperator,
    HoleFillResult,
    apply_fill_operator,
    compute_fill_operator,
    fill_holes,
    fill_matrix,
    hole_fill_operator,
)
from repro.core.rules import RatioRule, RuleSet
from repro.core.visualize import Projection, ascii_scatter, project, scatter_svg
from repro.core.whatif import Scenario, ScenarioResult, evaluate_scenario

__all__ = [
    "AverageEigenvalueCutoff",
    "BasketRecommender",
    "CalibratedEstimator",
    "CategoricalAttribute",
    "CategoricalRatioRuleModel",
    "CellOutlier",
    "CleaningReport",
    "CutoffCVReport",
    "CutoffPolicy",
    "DecayingCovariance",
    "EnergyCutoff",
    "FillOperator",
    "FixedCutoff",
    "GuessingErrorReport",
    "HoleFillResult",
    "IncompleteCovariance",
    "IntervalPrediction",
    "MixedSchema",
    "ModelComparison",
    "NotFittedError",
    "OnlineRatioRuleModel",
    "Projection",
    "RatioRule",
    "RatioRuleModel",
    "Recommendation",
    "RetryPolicy",
    "ResidualCalibration",
    "RowOutlier",
    "RowScore",
    "RuleInterpretation",
    "RuleSet",
    "RuleStabilityReport",
    "ScanChunk",
    "ScanCheckpoint",
    "ScanFaultError",
    "ScanResult",
    "Scenario",
    "ScenarioResult",
    "ScreeCutoff",
    "StreamingCovariance",
    "TextbookCovarianceAccumulator",
    "accumulate_shard",
    "apply_fill_operator",
    "ascii_scatter",
    "bootstrap_stability",
    "calibrate",
    "calibrate_residuals",
    "compare_models",
    "compute_fill_operator",
    "covariance_single_pass",
    "cross_validate_cutoff",
    "detect_cell_outliers",
    "detect_row_outliers",
    "leave_one_out_errors",
    "reconstruction_residuals",
    "score_rows",
    "enumerate_hole_sets",
    "evaluate_scenario",
    "fill_holes",
    "fill_matrix",
    "fit_incomplete",
    "fit_sharded",
    "fit_with_cv_cutoff",
    "guessing_error",
    "hole_fill_operator",
    "implicit_covariance_operator",
    "impute_missing",
    "interpret_rule",
    "interpret_rules",
    "loading_table",
    "merge_partials",
    "mine_wide",
    "plan_chunks",
    "principal_angles",
    "project",
    "relative_guessing_error",
    "repair_corrupted",
    "resolve_cutoff",
    "scan_chunk",
    "scan_sources",
    "scatter_svg",
    "single_hole_error",
]
