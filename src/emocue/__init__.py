"""Two-stage speaker identification driven by emotion cues.

Stage a picks the utterance's emotional coloring by blending acoustic
and suprasegmental model scores; stage b picks the speaker using the
acoustic models trained for that coloring. A one-stage baseline that
pools every emotion into a single model per speaker is included for
comparison.
"""

import types

from .config import RunConfig, make_config, parse_config_file
from .corpus import (
    DEFAULT_EMOTIONS,
    NormalizationParams,
    SplitProtocol,
    SyntheticCorpus,
    UtteranceRecord,
    load_manifest,
    normalize_features,
    split_records,
    synthesize_corpus,
    write_manifest,
)
from .errors import (
    BankMismatchError,
    CorruptFileError,
    DegenerateDimensionError,
    DimensionMismatchError,
    DuplicateUtteranceError,
    EmoCueError,
    EmptyBankError,
    EmptyResultsError,
    EmptySequenceError,
    EmptyTrainingSetError,
    IllegalPathError,
    LengthMismatchError,
    ManifestError,
    NoLegalPathError,
    NonFiniteObservationError,
    NumericalUnderflowError,
    SequenceTooShortError,
    TooShortError,
    UnknownEmotionError,
    UnknownLabelError,
    UnsupportedFormatError,
)
from .evaluation import (
    ConfusionMatrix,
    Evaluation,
    PerformanceTable,
    SweepResult,
    TTestResult,
    alpha_sweep,
    average_diagonal,
    confusion_matrix,
    evaluate,
    performance_table,
    pooled_t,
    pooled_t_from_stats,
    write_evaluation,
)
from .frontend import (
    ProsodicTrack,
    UtteranceFeatures,
    analyze_clip,
    analyze_clips,
    frame_signal,
    load_audio,
    mfcc,
    prosodic_track,
    read_feature_cache,
    write_feature_cache,
)
from .hmm import (
    AcousticModel,
    TrainingReport,
    baum_welch,
    baum_welch_stack,
    forward_backward,
    forward_log_likelihood,
    init_model,
    init_model_stack,
    load_model,
    save_model,
    viterbi,
)
from .recognizer import (
    EmotionModels,
    ModelBank,
    ResultRow,
    identify_emotion,
    identify_speaker_given_emotion,
    load_bank,
    one_stage_identify,
    read_results,
    score_test_set,
    write_results,
)
from .supra import (
    FusionConfig,
    fused_score,
    score_components,
    segment_summaries,
    stage_a_components,
    summary_stack,
    supra_observations,
    train_suprasegmental,
)

__version__ = "0.1.0"

# Every name imported above; the submodules are not part of it.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
