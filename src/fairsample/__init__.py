"""Simulate two-channel entangled-pair experiments and test fair sampling.

The package covers the full chain: closed-form quantum predictions for a
tunable-entanglement photon-pair source (`quantum`), Monte-Carlo
detection with fair or deliberately unfair sampling (`detection`),
time-tagged event streams in the TTG1 binary format (`timetags`),
windowed coincidence recovery (`coincidence`), singles-normalized versus
coincidence-normalized estimates (`estimator`), no-signalling model fits
(`fits`), and a file-based simulate/analyze/report pipeline
(`config`, `pipeline`, `cli`).
"""

from .coincidence import (
    CoincidenceWindow,
    TickResolutionMismatch,
    UnsortedInput,
    count_coincidences,
    count_coincidences_naive,
    match_events,
    match_events_naive,
)
from .config import ConfigError, RunConfig, config_from_dict, config_to_dict, load_config
from .detection import (
    BlockCounts,
    EfficiencyConfig,
    PairDetections,
    PolicyKind,
    SamplingPolicy,
    category_probs,
    count_detections,
    simulate_block,
    simulate_pair_detections,
)
from .estimator import (
    AllZeroRatios,
    EstimateSet,
    FRatios,
    MarginalSet,
    NoCoincidences,
    ScanPoint,
    ScanResult,
    UncertaintySet,
    ZeroSingles,
    correlation_standard,
    counting_uncertainties,
    estimate_block,
    estimate_joint,
    estimate_marginals,
    evenodd_sums_standard,
    f_ratios,
    marginal_standard,
)
from .fits import (
    DegenerateWeights,
    FitModel,
    FitReport,
    InsufficientPoints,
    MarginalFits,
    NoSignallingReport,
    fit_marginal_curve,
    fit_model,
    nosignalling_stats,
)
from .pipeline import AnalysisResult, analyze_run, simulate_run, write_report
from .quantum import (
    OutcomeSign,
    ProbTable,
    SettingsPair,
    SourceState,
    Station,
    chsh_value,
    correlation_qt,
    joint_prob,
    joint_prob_table,
    marginal,
)
from .timetags import (
    BadMagic,
    EventStream,
    InvalidFlags,
    TimetagEvent,
    TrailingData,
    TruncatedFile,
    TtgFormatError,
    UnsortedTimestamps,
    UnsupportedVersion,
    generate_streams,
    make_stream,
    read_csv,
    read_ttg,
    write_csv,
    write_ttg,
)

__version__ = "0.1.0"
