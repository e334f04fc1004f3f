"""Exception hierarchy for emocue.

Every error raised by the library (beyond plain ValueError for argument
misuse and OSError for file-system failures) derives from EmoCueError so
callers can catch the whole family at once.
"""

import contextlib


class EmoCueError(Exception):
    """Base class for all emocue errors."""


@contextlib.contextmanager
def _prefixed(what: str, kind=EmoCueError, unless=()):
    """Re-raise an error of kind, and not of unless, from the block as the
    same type, its message prefixed by what (the utterance or file at fault)."""
    try:
        yield
    except unless:
        raise
    except kind as exc:
        raise type(exc)(f"{what}: {exc}") from exc


@contextlib.contextmanager
def _utf8(path, kind: type[Exception]):
    """Re-raise a UnicodeDecodeError from reading the text file at path in
    the block as kind, naming path."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # the codec counts its byte position from the chunk it was given,
        # not from the start of the file, so only the reason is kept
        raise kind(f"{path}: not UTF-8 text ({exc.reason})") from exc


# --- audio / feature frontend ---

class UnsupportedFormatError(EmoCueError):
    """Audio file is not mono 16-bit PCM at 16 kHz."""


class TooShortError(EmoCueError):
    """Signal shorter than one analysis frame."""


# --- stored files ---

class CorruptFileError(EmoCueError):
    """A feature cache, model, bank or WAV file is cut short or malformed."""


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
    """A bank file lacks its emotion, speaker or one-stage models."""


class UnknownEmotionError(EmoCueError):
    """Emotion label not present in the model bank."""


class BankMismatchError(EmoCueError):
    """Bank was trained on other labels or under another configuration."""


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
