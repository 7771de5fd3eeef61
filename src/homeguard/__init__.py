"""Smart-home IoT anomaly detection from estimated home states and behavior
sequences: ingestion, labeling, state filtering, sequence stores, detection,
evaluation harness, and a synthetic data generator."""

from .detector import (
    ANOMALOUS,
    LEGITIMATE,
    BaselineParams,
    Thresholds,
    Verdict,
    judge_estimation_baseline,
    judge_proposed,
    judge_sequence_baseline,
)
from .errors import (
    HomeguardError,
    InitializationError,
    ModelError,
    ParseError,
    SchemaError,
    UsageError,
    ValidationError,
    VocabularyError,
)
from .evaluation import (
    EstimationGrid,
    EvalDataset,
    EvalPoint,
    ProposedGrid,
    SequenceGrid,
    best_at,
    grid_search,
    inject_anomalies,
    pareto_frontier,
    write_results_csv,
)
from .hsmodel import (
    FilterTrace,
    ModelParams,
    OperationTable,
    TrainedModel,
    TransitionTensor,
    filter_streams,
    fit_operations,
    fit_transitions,
    run_filter,
    train_model,
    uniform_belief,
)
from .ingest import (
    SLOTS_PER_DAY,
    EventRecord,
    SensorFrames,
    SlotGrid,
    build_timeslots,
    parse_operation_log,
    parse_sensor_log,
    write_operation_log,
    write_sensor_log,
)
from .labeling import (
    ALPHABET,
    STATE_INDEX,
    DeviceUsage,
    HomeState,
    LabelArrays,
    LabelingParams,
    UserActivity,
    label_device_usage,
    label_states,
    label_user_activity,
)
from .seqstore import (
    SeqParams,
    SequenceStore,
    TimedSequenceStore,
    build_timed_store,
    store_sequences,
)
from .synthgen import Scenario, generate, scenario_calibration, scenario_s1
from .vocab import Vocabulary

__version__ = "0.1.0"
