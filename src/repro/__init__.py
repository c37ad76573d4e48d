"""repro: a full reproduction of "Ratio Rules: A New Paradigm for Fast,
Quantifiable Data Mining" (Korn, Labrinidis, Kotidis, Faloutsos; VLDB 1998).

The package mines **Ratio Rules** -- eigenvectors of a data matrix's
covariance matrix, read as quantitative rules like ``bread : milk :
butter => 1 : 2 : 5`` -- in a single pass over data on disk, and uses
them to reconstruct missing values, forecast, answer what-if scenarios,
detect outliers, and visualize datasets.  It also implements the
paper's "guessing error" quality measure and every baseline the paper
compares against.

Quickstart::

    import numpy as np
    from repro import RatioRuleModel

    model = RatioRuleModel().fit(training_matrix)
    print(model.describe())                       # the mined rules
    filled = model.fill_row(np.array([10.0, 3.0, np.nan]))  # guess butter

Subpackages
-----------
``repro.core``
    The paper's contribution: model, single-pass covariance,
    hole-filling, guessing error, outliers, what-if, cleaning,
    visualization, interpretation.
``repro.linalg``
    Eigensolver backends (LAPACK, a from-scratch Jacobi SVD, Lanczos)
    and the LAPACK SVD behind the pseudo-inverse.
``repro.io``
    On-disk row store, CSV, and streaming readers, including the
    offset-seekable chunk readers behind the parallel scan engine.
``repro.serve``
    The reconstruction serving layer: hole-pattern operator cache,
    vectorized batch fills, versioned model hot-swap (CLI
    ``serve-batch``).
``repro.pipeline``
    Continuous ingestion with drift-triggered model refresh: pollable
    batch sources, guessing-error + rule-angle drift detection, and
    refresh policies publishing into the serving registry (CLI
    ``pipeline``).
``repro.obs``
    Scan/solve/serve instrumentation (``model.metrics_``, CLI
    ``--stats``).
``repro.datasets``
    Simulated `nba` / `baseball` / `abalone` datasets and a Quest-style
    basket generator (see DESIGN.md for the substitution rationale).
``repro.baselines``
    col-avgs, multiple linear regression, Apriori, and quantitative
    association rules.
``repro.experiments``
    One runnable reproduction per paper table/figure.
"""

from repro.baselines import (
    AprioriMiner,
    AssociationRule,
    ColumnAverageBaseline,
    LinearRegressionBaseline,
    QuantitativeRuleModel,
)
from repro.core import (
    BasketRecommender,
    CategoricalAttribute,
    CategoricalRatioRuleModel,
    EnergyCutoff,
    FixedCutoff,
    GuessingErrorReport,
    MixedSchema,
    OnlineRatioRuleModel,
    RatioRule,
    RatioRuleModel,
    RetryPolicy,
    RuleSet,
    ScanCheckpoint,
    ScanFaultError,
    Scenario,
    ascii_scatter,
    calibrate,
    detect_cell_outliers,
    detect_row_outliers,
    evaluate_scenario,
    fill_holes,
    fit_incomplete,
    fit_sharded,
    guessing_error,
    impute_missing,
    interpret_rules,
    loading_table,
    mine_wide,
    project,
    relative_guessing_error,
    repair_corrupted,
    scan_sources,
    scatter_svg,
    single_hole_error,
)
from repro.datasets import Dataset, load_dataset
from repro.io import TableSchema
from repro.obs import PipelineMetrics, ScanMetrics, ServeMetrics
from repro.pipeline import (
    DriftDetector,
    IngestionPipeline,
    QueueSource,
    RefreshPolicy,
)
from repro.serve import BatchFiller, ModelRegistry, OperatorCache

__version__ = "1.0.0"

__all__ = [
    "AprioriMiner",
    "AssociationRule",
    "BasketRecommender",
    "BatchFiller",
    "CategoricalAttribute",
    "CategoricalRatioRuleModel",
    "ColumnAverageBaseline",
    "Dataset",
    "DriftDetector",
    "EnergyCutoff",
    "FixedCutoff",
    "GuessingErrorReport",
    "IngestionPipeline",
    "LinearRegressionBaseline",
    "MixedSchema",
    "ModelRegistry",
    "OnlineRatioRuleModel",
    "OperatorCache",
    "PipelineMetrics",
    "QuantitativeRuleModel",
    "QueueSource",
    "RatioRule",
    "RatioRuleModel",
    "RefreshPolicy",
    "RetryPolicy",
    "RuleSet",
    "ScanCheckpoint",
    "ScanFaultError",
    "ScanMetrics",
    "Scenario",
    "ServeMetrics",
    "TableSchema",
    "__version__",
    "ascii_scatter",
    "calibrate",
    "detect_cell_outliers",
    "detect_row_outliers",
    "evaluate_scenario",
    "fill_holes",
    "fit_incomplete",
    "fit_sharded",
    "guessing_error",
    "impute_missing",
    "interpret_rules",
    "load_dataset",
    "loading_table",
    "mine_wide",
    "project",
    "relative_guessing_error",
    "repair_corrupted",
    "scan_sources",
    "scatter_svg",
    "single_hole_error",
]
