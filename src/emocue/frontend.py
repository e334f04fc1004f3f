"""Audio frontend: WAV ingestion, framing, MFCC and prosodic analysis.

The frontend turns mono 16 kHz PCM audio into the two observation streams
used by the classifiers:

* a sequence of 16-dimensional MFCC vectors (one per 30 ms frame, 5 ms hop),
* a prosodic track holding per-frame fundamental frequency, log energy and
  a voicing decision.

All functions are pure; returned containers hold read-only arrays.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
import scipy.fft

from . import container
from .errors import (
    NonFiniteObservationError,
    TooShortError,
    UnsupportedFormatError,
)

SAMPLE_RATE = 16000
FRAME_LEN = 480          # 30 ms at 16 kHz
HOP = 80                 # 5 ms at 16 kHz
FEATURE_DIM = 16
PREEMPHASIS = 0.97
FFT_SIZE = 512
NUM_MEL_FILTERS = 26
MEL_LOW_HZ = 0.0
MEL_HIGH_HZ = 8000.0
F0_MIN = 60.0
F0_MAX = 400.0
VOICING_THRESHOLD = 0.45
# A shorter candidate lag wins when its correlation reaches this fraction
# of the global peak; resolves period-multiple (octave-down) ambiguity.
SUBHARMONIC_TOLERANCE = 0.9
ENERGY_FLOOR = 1e-10

_CACHE_MAGIC = b"EMOFC001"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AudioClip:
    """Mono 16-bit PCM audio at 16 kHz."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.int16)
        if self.sample_rate != SAMPLE_RATE:
            raise UnsupportedFormatError(
                f"sample rate must be {SAMPLE_RATE} Hz, got {self.sample_rate}")
        if samples.ndim != 1:
            raise UnsupportedFormatError("samples must be a 1-D mono sequence")
        if samples.size < FRAME_LEN:
            raise TooShortError(
                f"need at least {FRAME_LEN} samples, got {samples.size}")
        object.__setattr__(self, "samples", _readonly(samples))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class FrameSequence:
    """Hamming-windowed analysis frames of one clip."""

    frames: np.ndarray   # (num_frames, FRAME_LEN) float64

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != FRAME_LEN:
            raise ValueError(
                f"frames must have shape (n, {FRAME_LEN}), got {frames.shape}")
        object.__setattr__(self, "frames", _readonly(frames))

    def __len__(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class FeatureSequence:
    """Time-ordered 16-dimensional MFCC observation vectors."""

    vectors: np.ndarray  # (T, 16) float64

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != FEATURE_DIM:
            raise ValueError(
                f"vectors must have shape (T, {FEATURE_DIM}), got {vectors.shape}")
        object.__setattr__(self, "vectors", _readonly(vectors))

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.vectors, dtype=dtype)


@dataclass(frozen=True)
class ProsodicTrack:
    """Per-frame fundamental frequency, log energy and voicing flags.

    f0 is 0 for unvoiced frames and lies in [60, 400] Hz for voiced ones.
    """

    f0: np.ndarray
    log_energy: np.ndarray
    voiced: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.f0, dtype=np.float64)
        log_energy = np.asarray(self.log_energy, dtype=np.float64)
        voiced = np.asarray(self.voiced, dtype=bool)
        if not (f0.shape == log_energy.shape == voiced.shape) or f0.ndim != 1:
            raise ValueError("f0, log_energy and voiced must be equal-length 1-D")
        bad = ~voiced & (f0 != 0.0)
        if np.any(bad):
            raise ValueError("unvoiced frames must carry f0 == 0")
        in_range = (f0 == 0.0) | ((f0 >= F0_MIN) & (f0 <= F0_MAX))
        if not np.all(in_range):
            raise ValueError(f"voiced f0 must lie in [{F0_MIN}, {F0_MAX}] Hz")
        object.__setattr__(self, "f0", _readonly(f0))
        object.__setattr__(self, "log_energy", _readonly(log_energy))
        object.__setattr__(self, "voiced", _readonly(voiced))

    def __len__(self) -> int:
        return self.f0.size


class UtteranceFeatures(NamedTuple):
    """Both observation streams of one utterance."""

    features: FeatureSequence
    prosody: ProsodicTrack


def load_audio(path) -> AudioClip:
    """Read a mono 16-bit 16 kHz PCM WAV file.

    Raises UnsupportedFormatError for any other encoding, TooShortError for
    clips below one analysis frame, and OSError for file-system failures.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            sampwidth = wav.getsampwidth()
            rate = wav.getframerate()
            comptype = wav.getcomptype()
            data = wav.readframes(wav.getnframes())
    except wave.Error as exc:
        raise UnsupportedFormatError(f"{path}: not a PCM WAV file ({exc})") from exc
    if comptype != "NONE":
        raise UnsupportedFormatError(f"{path}: compressed WAV not supported")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} channels")
    if sampwidth != 2:
        raise UnsupportedFormatError(
            f"{path}: expected 16-bit samples, got {8 * sampwidth}-bit")
    if rate != SAMPLE_RATE:
        raise UnsupportedFormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate}")
    samples = np.frombuffer(data, dtype="<i2")
    if samples.size < FRAME_LEN:
        raise TooShortError(
            f"{path}: need at least {FRAME_LEN} samples, got {samples.size}")
    return AudioClip(samples=samples)


def frame_signal(clip: AudioClip) -> FrameSequence:
    """Slice a clip into Hamming-windowed frames (30 ms window, 5 ms hop).

    Samples past the last full window are dropped; the frame count is
    floor((num_samples - frame_len) / hop) + 1.
    """
    samples = clip.samples.astype(np.float64)
    if samples.size < FRAME_LEN:
        raise TooShortError(
            f"need at least {FRAME_LEN} samples, got {samples.size}")
    windows = np.lib.stride_tricks.sliding_window_view(samples, FRAME_LEN)[::HOP]
    frames = windows * np.hamming(FRAME_LEN)
    return FrameSequence(frames=frames)


def _mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _mel_inv(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def _mel_filterbank() -> np.ndarray:
    edges_hz = _mel_inv(np.linspace(_mel(MEL_LOW_HZ), _mel(MEL_HIGH_HZ),
                                    NUM_MEL_FILTERS + 2))
    bin_hz = np.arange(FFT_SIZE // 2 + 1) * (SAMPLE_RATE / FFT_SIZE)
    lo, mid, hi = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    rising = (bin_hz - lo) / (mid - lo)
    falling = (hi - bin_hz) / (hi - mid)
    return _readonly(np.maximum(0.0, np.minimum(rising, falling)))


# Triangular mel filter weights, shape (NUM_MEL_FILTERS, FFT_SIZE // 2 + 1).
# Filter edges are spaced uniformly on the mel scale; each triangle is
# evaluated at the FFT bin centre frequencies.
MEL_FILTERBANK = _mel_filterbank()


def mfcc(frames: FrameSequence) -> FeatureSequence:
    """Compute 16 MFCCs per frame (coefficients 1..16, no energy term).

    Per frame: pre-emphasis, zero-padded magnitude spectrum, triangular mel
    filterbank, floored log, orthonormal DCT-II. Coefficient 0 is dropped to
    keep the features robust to overall gain.
    """
    x = frames.frames
    if x.shape[0] == 0:
        raise ValueError("empty frame sequence")
    emphasized = np.concatenate(
        [x[:, :1], x[:, 1:] - PREEMPHASIS * x[:, :-1]], axis=1)
    spectrum = np.abs(np.fft.rfft(emphasized, FFT_SIZE, axis=1))
    energies = spectrum @ MEL_FILTERBANK.T
    log_energies = np.log(np.maximum(energies, ENERGY_FLOOR))
    cepstra = scipy.fft.dct(log_energies, type=2, norm="ortho", axis=1)
    return FeatureSequence(vectors=cepstra[:, 1:FEATURE_DIM + 1])


def prosodic_track(frames: FrameSequence) -> ProsodicTrack:
    """Estimate per-frame F0, log energy and voicing.

    F0 is searched over [60, 400] Hz with a normalized autocorrelation; a
    frame is voiced when the normalized peak reaches the voicing threshold.
    The normalization cancels the overall signal scale, so amplification
    changes neither voicing decisions nor F0 values.

    The analysis window taper would drag long-lag correlation peaks toward
    shorter lags, so the taper is divided out and the lag search runs on
    the plain samples. Frame energy keeps the windowed convention.
    """
    windowed = frames.frames
    n_frames, frame_len = windowed.shape
    if n_frames == 0:
        raise ValueError("empty frame sequence")
    x = windowed / np.hamming(frame_len)

    lag_min = int(np.ceil(SAMPLE_RATE / F0_MAX))
    lag_max = int(np.floor(SAMPLE_RATE / F0_MIN))
    n_lags = lag_max + 2                      # one past lag_max for refinement
    fft_len = int(2 ** np.ceil(np.log2(frame_len + n_lags)))

    spec = np.fft.rfft(x, fft_len, axis=1)
    autocorr = np.fft.irfft(spec * np.conj(spec), fft_len, axis=1)[:, :n_lags]

    # Energy of the two offset segments entering the lag-tau product.
    prefix = np.concatenate(
        [np.zeros((n_frames, 1)), np.cumsum(x * x, axis=1)], axis=1)
    total = prefix[:, -1]
    lags = np.arange(n_lags)
    head = prefix[:, frame_len - lags]            # energy of x[0 : L - tau]
    tail = total[:, None] - prefix[:, lags]       # energy of x[tau : L]
    denom = np.sqrt(np.maximum(head * tail, 0.0))
    ncc = np.where(denom > 0.0, autocorr / np.where(denom > 0.0, denom, 1.0), 0.0)

    search = ncc[:, lag_min:lag_max + 1]
    rows = np.arange(n_frames)
    peak_idx = np.argmax(search, axis=1) + lag_min
    peak = ncc[rows, peak_idx]
    voiced = peak >= VOICING_THRESHOLD

    # A periodic signal correlates equally well at every multiple of its
    # period, so the raw argmax can land an octave (or more) low. Replace
    # it with the shortest integer submultiple whose correlation stays
    # within tolerance of the global peak.
    best_idx = peak_idx.copy()
    for k in range(2, lag_max // lag_min + 1):
        cand = np.rint(peak_idx / k).astype(np.int64)
        legal = cand >= lag_min
        cand = np.where(legal, cand, lag_min)
        neighbors = np.stack([ncc[rows, cand - 1], ncc[rows, cand],
                              ncc[rows, cand + 1]])
        offset = np.argmax(neighbors, axis=0) - 1
        value = np.max(neighbors, axis=0)
        lag = cand + offset
        take = (legal & (lag >= lag_min) & (lag < best_idx)
                & (value >= SUBHARMONIC_TOLERANCE * peak))
        best_idx = np.where(take, lag, best_idx)
    peak_idx = best_idx

    # Parabolic refinement around the chosen peak.
    left = ncc[rows, peak_idx - 1]
    right = ncc[rows, peak_idx + 1]
    peak = ncc[rows, peak_idx]
    curvature = left - 2.0 * peak + right
    shift = np.where(curvature < 0.0,
                     0.5 * (left - right) / np.where(curvature < 0.0, curvature, 1.0),
                     0.0)
    refined = np.clip(peak_idx + np.clip(shift, -0.5, 0.5),
                      float(lag_min), float(lag_max))
    f0 = np.where(voiced, SAMPLE_RATE / refined, 0.0)

    log_energy = np.log(np.sum(windowed * windowed, axis=1) + ENERGY_FLOOR)
    return ProsodicTrack(f0=f0, log_energy=log_energy, voiced=voiced)


def analyze_clip(clip: AudioClip) -> UtteranceFeatures:
    """Full frontend for one clip: framing, MFCCs and prosody."""
    frames = frame_signal(clip)
    return UtteranceFeatures(features=mfcc(frames), prosody=prosodic_track(frames))


# --- feature cache -----------------------------------------------------------
#
# A container file (see emocue.container) under magic "EMOFC001":
#   header   {"entries": [{"id": str, "frames": int}, ...]} sorted by id
#   payload  per entry, in header order:
#              float64[frames * 16]  MFCC vectors (row-major)
#              float64[frames]       f0
#              float64[frames]       log energy
#              uint8[frames]         voicing flags

def write_feature_cache(path, entries: Mapping[str, UtteranceFeatures]) -> None:
    """Write both observation streams for a set of utterances.

    Entries are stored sorted by utterance id, so identical inputs always
    produce byte-identical files. An interrupted write leaves the previous
    cache whole.
    """
    ids = sorted(entries)

    def payload():
        for uid in ids:
            feats, track = entries[uid]
            yield np.ascontiguousarray(feats.vectors, dtype="<f8").tobytes()
            yield np.ascontiguousarray(track.f0, dtype="<f8").tobytes()
            yield np.ascontiguousarray(track.log_energy, dtype="<f8").tobytes()
            yield np.ascontiguousarray(track.voiced, dtype=np.uint8).tobytes()

    container.write(path, _CACHE_MAGIC, {"entries": [
        {"id": uid, "frames": len(entries[uid].features)} for uid in ids]},
        payload())


def read_feature_cache(path) -> dict[str, UtteranceFeatures]:
    """Read a cache written by write_feature_cache.

    A cache that is cut short, runs on past its last utterance or has a
    malformed header raises CorruptFileError naming it.
    """
    def parse(header, payload):
        out = {}
        for uid, frames in [(e["id"], e["frames"]) for e in header["entries"]]:
            if not (isinstance(uid, str) and isinstance(frames, int)
                    and frames >= 0):
                raise ValueError(f"bad entry {uid!r} with {frames!r} frames")
            vectors = payload.array(frames * FEATURE_DIM).reshape(
                frames, FEATURE_DIM)
            f0 = payload.array(frames)
            log_energy = payload.array(frames)
            voiced = payload.array(frames, np.uint8).astype(bool)
            finite = np.isfinite(vectors).all(axis=1) & np.isfinite(f0) \
                & np.isfinite(log_energy)
            if not finite.all():
                raise NonFiniteObservationError(
                    f"{path}: utterance {uid!r}: frame "
                    f"{int(np.argmin(finite))} of {frames} is not finite")
            out[uid] = UtteranceFeatures(
                features=FeatureSequence(vectors=vectors),
                prosody=ProsodicTrack(f0=f0, log_energy=log_energy,
                                      voiced=voiced))
        return out

    return container.read(path, _CACHE_MAGIC, "feature cache", parse)
