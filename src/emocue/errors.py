"""Exception hierarchy for emocue.

Every error raised by the library (beyond plain ValueError for argument
misuse and OSError for file-system failures) derives from EmoCueError so
callers can catch the whole family at once.
"""


class EmoCueError(Exception):
    """Base class for all emocue errors."""


# --- audio / feature frontend ---

class UnsupportedFormatError(EmoCueError):
    """Audio file is not mono 16-bit PCM at 16 kHz."""


class TooShortError(EmoCueError):
    """Signal shorter than one analysis frame."""


# --- HMM core ---

class DimensionMismatchError(EmoCueError):
    """Observation dimension does not match the model."""


class EmptySequenceError(EmoCueError):
    """Observation sequence has no frames."""


class SequenceTooShortError(EmoCueError):
    """Training sequence shorter than the number of states."""


class EmptyTrainingSetError(EmoCueError):
    """No training sequences supplied."""


class NoLegalPathError(EmoCueError):
    """No complete left-to-right state path exists for the sequence."""


class NumericalUnderflowError(EmoCueError):
    """A sequence has zero likelihood under every mixture component."""


class NonFiniteObservationError(EmoCueError):
    """An observation sequence holds a NaN or infinite value."""


# --- suprasegmental layer ---

class LengthMismatchError(EmoCueError):
    """State path and prosodic track lengths differ."""


class IllegalPathError(EmoCueError):
    """State path violates the left-to-right constraint."""


# --- recognizer ---

class EmptyBankError(EmoCueError):
    """Model bank is missing the models required for this operation."""


class UnknownEmotionError(EmoCueError):
    """Emotion label not present in the model bank."""


# --- corpus ---

class ManifestError(EmoCueError):
    """Manifest file cannot be parsed."""


class DuplicateUtteranceError(ManifestError):
    """Two records share the same (speaker, emotion, sentence, repetition)."""


class UnknownLabelError(ManifestError):
    """Record carries a label outside the declared label sets."""


class DegenerateDimensionError(EmoCueError):
    """A feature dimension has zero variance and cannot be normalized."""


# --- evaluation ---

class EmptyResultsError(EmoCueError):
    """No results to aggregate."""
