"""Feature engineering and tree-ensemble models for file-transfer rate prediction."""

from .events import (
    CleaningReport,
    CsvRowError,
    CsvSchemaError,
    EventLog,
    Stage,
    TransferEvent,
    clean_events,
    dump_events,
    load_events,
    parse_event_csv,
    sort_by_start,
    write_event_csv,
)
from .features import (
    ColumnMeta,
    FeatureMatrix,
    FeatureSpec,
    assemble_features,
    compute_time_features,
    encode_categoricals,
    read_feature_csv,
    write_feature_csv,
)
from .filenames import FileNameParts, FilenameParseError, format_filename, parse_filename
from .lags import (
    LagKeyKind,
    compute_chunk_time_offset,
    compute_concurrency,
    compute_keyed_lags,
)
from .models import (
    Ensemble,
    HyperParams,
    feature_importance,
    fit_family,
    fit_gbt,
    load_model,
    predict,
    predict_raw,
    save_model,
)
from .synth import SynthConfig, generate_workload
from .tree import RegressionTree, grow_tree
from .validation import (
    CvConfig,
    CvResult,
    HyperParamSpace,
    RowSplit,
    chronological_split,
    holdout_rows,
    make_folds,
    nested_cv,
    rmse,
    sample_hyperparams,
)

__version__ = "0.1.0"
