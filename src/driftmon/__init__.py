"""driftmon: retrain streaming forecast models when their loss stream shifts.

Per-stream models forecast arriving data batch by batch; a statistical
monitor watches each stream's forecast losses and triggers retraining only
when the incoming loss batch differs in mean from a reference batch of
recent stable losses. Changepoint-based and fixed-schedule policies are
included as benchmarks, along with synthetic generators for size studies
and regime-shift experiments.
"""

from .errors import (
    ConfigError,
    DriftmonError,
    EmptyLog,
    IncompletePanel,
    InsufficientData,
    InsufficientHistory,
    InsufficientSample,
    InvalidLag,
    ParseError,
    ShapeError,
)
from .evaluate import (
    BatchRecord,
    Report,
    RunLog,
    StreamReport,
    build_report,
    sape,
    squared_loss_batch,
)
from .features import DesignMatrix, FeatureSpec, feature_matrix, training_set
from .forecasters import (
    BoostingParams,
    ForecastModel,
    ForestParams,
    HyperParams,
    LassoParams,
    ModelKind,
    dump_model,
    fit_boosting,
    fit_forest,
    fit_lasso,
    fit_naive,
    predict_matrix,
)
from .monitor import (
    BatchMoments,
    EveryKBatches,
    MeanTestPolicy,
    MonitorDecision,
    MonitorState,
    NeverPolicy,
    PeltPolicy,
    ReferenceBatch,
    batch_moments,
    new_state,
    observe,
    pelt,
)
from .pipeline import RunConfig, compare_policies, comparison_table, config_from_dict, load_config, run
from .simulate import NullStudyConfig, RegimeScenario, gen_regime_streams, run_null_study
from .stats import TestResult, bic, gaussian_segment_cost, mean_equality_test
from .streams import StreamSet, batch_ends, ingest_csv, write_csv

__version__ = "0.1.0"
