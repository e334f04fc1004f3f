"""Audio frontend: WAV ingestion, framing, MFCC and prosodic analysis.

The frontend turns mono 16 kHz PCM audio, a 1-D int16 sample array, into
the two observation streams used by the classifiers:

* a (T, 16) float64 array of MFCC vectors (one per 30 ms frame, 5 ms hop),
* a prosodic track holding per-frame fundamental frequency, log energy and
  a voicing decision.

All functions are pure, and every array they return is read-only.

The row-wise parts of the analysis, the pitch search and the MFCC spectrum,
are split into row chunks that run side by side on the CPUs of the
process's affinity set (`taskset` limits them); the results do not depend
on how many CPUs that is. With one CPU the frontend starts no thread.
"""

from __future__ import annotations

import os
import threading
import wave
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import container
from .container import readonly
from .errors import (
    CorruptFileError,
    NonFiniteObservationError,
    TooShortError,
    UnsupportedFormatError,
    _prefixed,
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

_WINDOW = np.hamming(FRAME_LEN)
_WINDOW.setflags(write=False)
# Pitch lag search range in samples, and an autocorrelation length that
# keeps lags up to _LAG_MAX + 1 (one past, for refinement) free of wrap-round:
# at least FRAME_LEN + _LAG_MAX + 1 = 747, with prime factors 2, 3 and 5 only
# so the FFT stays fast.
_LAG_MIN = int(np.ceil(SAMPLE_RATE / F0_MAX))
_LAG_MAX = int(np.floor(SAMPLE_RATE / F0_MIN))
_AUTOCORR_LEN = 750
# analyze_clip analyses at most this many frames at a time, so its memory
# stays bounded however long the clip is.
_BLOCK_FRAMES = 256
# _rowwise gives each chunk at least this many frames.
_MIN_CHUNK_ROWS = 32

_CACHE_MAGIC = b"EMOFC001"


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
        object.__setattr__(self, "f0", readonly(f0, None))
        object.__setattr__(self, "log_energy", readonly(log_energy, None))
        object.__setattr__(self, "voiced", readonly(voiced, None))

    def __len__(self) -> int:
        return self.f0.size


class UtteranceFeatures(NamedTuple):
    """Both observation streams of one utterance, over the same T frames."""

    features: np.ndarray   # (T, 16) float64 MFCC vectors
    prosody: ProsodicTrack


def _samples(samples) -> np.ndarray:
    """samples as an array, uncopied: UnsupportedFormatError unless 1-D
    int16 (no other dtype is cast), TooShortError if under one frame."""
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.dtype != np.int16:
        raise UnsupportedFormatError(f"samples must be 1-D int16, got "
                                     f"{samples.ndim}-D {samples.dtype}")
    if samples.size < FRAME_LEN:
        raise TooShortError(
            f"need at least {FRAME_LEN} samples, got {samples.size}")
    return samples


def _frames(frames) -> np.ndarray:
    """frames as float64, refused (ValueError) unless (T >= 1, FRAME_LEN)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != FRAME_LEN or not len(frames):
        raise ValueError(f"frames must have shape (n >= 1, {FRAME_LEN}), "
                         f"got {frames.shape}")
    return frames


def load_audio(path) -> np.ndarray:
    """Read a mono 16-bit 16 kHz PCM WAV file as its 1-D int16 samples.

    Raises UnsupportedFormatError for any other encoding, CorruptFileError
    for a file cut short (a data chunk with fewer samples than its header
    declares included), TooShortError for clips below one analysis frame,
    and OSError for file-system failures.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            sampwidth = wav.getsampwidth()
            rate = wav.getframerate()
            comptype = wav.getcomptype()
            declared = wav.getnframes()
            data = wav.readframes(declared)
    except wave.Error as exc:
        raise UnsupportedFormatError(f"{path}: not a PCM WAV file ({exc})") from exc
    except EOFError as exc:
        raise CorruptFileError(f"{path}: WAV file is cut short") from exc
    if comptype != "NONE":
        raise UnsupportedFormatError(f"{path}: compressed WAV not supported")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} channels")
    if sampwidth != 2:
        raise UnsupportedFormatError(
            f"{path}: expected 16-bit samples, got {8 * sampwidth}-bit")
    if rate != SAMPLE_RATE:
        raise UnsupportedFormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate}")
    if len(data) % sampwidth:
        raise CorruptFileError(f"{path}: WAV data is cut short inside a sample")
    if len(data) // sampwidth != declared:
        raise CorruptFileError(f"{path}: WAV data is cut short: "
                               f"{len(data) // sampwidth} of {declared} "
                               f"samples")
    samples = np.frombuffer(data, "<i2").astype(np.int16, copy=False)
    samples.setflags(write=False)
    with _prefixed(path, TooShortError):
        return _samples(samples)


def frame_signal(samples) -> np.ndarray:
    """Slice int16 samples into raw (T, 480) float64 frames (30 ms, 5 ms hop).

    The frames are the samples themselves; mfcc and the frame energy apply
    the Hamming window. Samples past the last full window are dropped; the
    frame count is floor((num_samples - frame_len) / hop) + 1.
    """
    samples = _samples(samples).astype(np.float64)
    return readonly(
        np.lib.stride_tricks.sliding_window_view(samples, FRAME_LEN)[::HOP])


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
    return readonly(np.maximum(0.0, np.minimum(rising, falling)))


# Triangular mel filter weights, shape (NUM_MEL_FILTERS, FFT_SIZE // 2 + 1).
# Filter edges are spaced uniformly on the mel scale; each triangle is
# evaluated at the FFT bin centre frequencies.
MEL_FILTERBANK = _mel_filterbank()


def _dct_basis() -> np.ndarray:
    k = np.arange(NUM_MEL_FILTERS)[:, None]
    i = np.arange(1, FEATURE_DIM + 1)
    return readonly(np.sqrt(2.0 / NUM_MEL_FILTERS)
                    * np.cos(np.pi * i * (2 * k + 1) / (2 * NUM_MEL_FILTERS)))


# Orthonormal DCT-II basis for cepstral coefficients 1..FEATURE_DIM, shape
# (NUM_MEL_FILTERS, FEATURE_DIM): log mel energies @ _DCT_BASIS gives them.
_DCT_BASIS = _dct_basis()


# The frontend's thread pool (see _rowwise), made on first use.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Drop the pool in a forked child, which has none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # a platform without CPU affinity
        return os.cpu_count() or 1


def _rowwise(fn, *arrays):
    """fn(*arrays), for an fn whose every output row is computed from the
    same row of each input alone, split across the process's CPUs.

    The rows are cut into one near-equal chunk per CPU, each of at least
    _MIN_CHUNK_ROWS rows; the calling thread runs the first chunk and the
    pool the others, and the outputs are concatenated. Each row's
    arithmetic is that of one whole call, so the result is bit-identical
    to fn(*arrays) whatever the CPU count, as long as fn makes no BLAS
    call: BLAS may round a product by the number of rows it is given. With
    one CPU, or too few rows for two chunks, fn(*arrays) runs as it is.
    """
    global _pool
    rows, workers = len(arrays[0]), _workers()
    chunks = min(workers, rows // _MIN_CHUNK_ROWS)
    if chunks < 2:
        return fn(*arrays)
    edges = [rows * c // chunks for c in range(chunks + 1)]
    parts = [[a[lo:hi] for a in arrays] for lo, hi in zip(edges, edges[1:])]
    with _pool_lock:
        if _pool is None:
            # imported here, so that commands which analyse no audio skip it
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(workers - 1, "emocue-frontend")
        futures = [_pool.submit(fn, *part) for part in parts[1:]]
    try:
        first = fn(*parts[0])
    finally:
        rest = [future.result() for future in futures]
    return np.concatenate([first, *rest])


def _spectrum(frames) -> np.ndarray:
    """The zero-padded magnitude spectra of the Hamming-windowed,
    pre-emphasised frames."""
    emphasized = frames * _WINDOW
    emphasized[:, 1:] -= PREEMPHASIS * emphasized[:, :-1]
    return np.abs(np.fft.rfft(emphasized, FFT_SIZE, axis=1))


def mfcc(frames) -> np.ndarray:
    """The (T, 16) MFCCs of T frames: coefficients 1..16, no energy term.

    Per frame: Hamming window, pre-emphasis, zero-padded magnitude spectrum,
    triangular mel filterbank, floored log, orthonormal DCT-II applied as a
    fixed basis. Coefficient 0 is dropped to keep the features robust to
    overall gain. The spectra are computed row-wise (_rowwise); the mel and
    DCT products take the whole block at once.
    """
    energies = _rowwise(_spectrum, _frames(frames)) @ MEL_FILTERBANK.T
    log_energies = np.log(np.maximum(energies, ENERGY_FLOOR))
    vectors = log_energies @ _DCT_BASIS
    vectors.setflags(write=False)
    return vectors


def _pitch(x, squares) -> np.ndarray:
    """The F0 of each raw frame of x, 0 where it is unvoiced (see
    prosodic_track). squares holds x * x and is overwritten."""
    n_frames, frame_len = x.shape
    lag_min, lag_max = _LAG_MIN, _LAG_MAX
    base = lag_min - 1                  # ncc column j holds lag base + j

    # The autocorrelation is the inverse transform of the power spectrum,
    # which is built in the spectrum's own buffer.
    spec = np.fft.rfft(x, _AUTOCORR_LEN, axis=1)
    power, imag = spec.real, spec.imag
    power *= power
    imag *= imag
    power += imag
    imag[...] = 0.0
    autocorr = np.fft.irfft(spec, _AUTOCORR_LEN, axis=1)[:, base:lag_max + 2]

    # Energy of the two offset segments entering the lag-tau product:
    # head = energy of x[0 : L - tau] = cumulative[L - tau - 1] and
    # tail = energy of x[tau : L] = cumulative[L - 1] - cumulative[tau - 1].
    cumulative = np.cumsum(squares, axis=1, out=squares)
    head = cumulative[:, frame_len - lag_max - 2:frame_len - base][:, ::-1]
    denom = cumulative[:, -1:] - cumulative[:, base - 1:lag_max + 1]
    denom *= head
    np.maximum(denom, 0.0, out=denom)
    np.sqrt(denom, out=denom)
    ncc = np.divide(autocorr, denom, out=np.zeros_like(autocorr),
                    where=denom > 0.0)

    rows = np.arange(n_frames)
    peak_idx = np.argmax(ncc[:, 1:-1], axis=1) + lag_min
    peak = ncc[rows, peak_idx - base]
    voiced = peak >= VOICING_THRESHOLD

    # A periodic signal correlates equally well at every multiple of its
    # period, so the raw argmax can land an octave (or more) low. Replace
    # it with the shortest integer submultiple (the best of the three lags
    # around peak / k) whose correlation stays within tolerance of the
    # global peak.
    divisors = np.arange(2, lag_max // lag_min + 1)
    cand = np.rint(peak_idx[:, None] / divisors).astype(np.int64)
    legal = cand >= lag_min
    cand = np.maximum(cand, lag_min)
    around = cand[:, :, None] + np.arange(-1, 2)     # lags cand - 1 .. cand + 1
    neighbors = ncc[rows[:, None, None], around - base]
    lag = cand + np.argmax(neighbors, axis=2) - 1
    take = (legal & (lag >= lag_min)
            & (neighbors.max(axis=2) >= SUBHARMONIC_TOLERANCE * peak[:, None]))
    peak_idx = np.minimum(peak_idx,
                          np.where(take, lag, peak_idx[:, None]).min(axis=1))

    # Parabolic refinement around the chosen peak.
    left = ncc[rows, peak_idx - 1 - base]
    right = ncc[rows, peak_idx + 1 - base]
    peak = ncc[rows, peak_idx - base]
    curvature = left - 2.0 * peak + right
    shift = np.where(curvature < 0.0,
                     0.5 * (left - right) / np.where(curvature < 0.0, curvature, 1.0),
                     0.0)
    refined = np.clip(peak_idx + np.clip(shift, -0.5, 0.5),
                      float(lag_min), float(lag_max))
    return np.where(voiced, SAMPLE_RATE / refined, 0.0)


def prosodic_track(frames) -> ProsodicTrack:
    """Estimate per-frame F0, log energy and voicing.

    F0 is searched over [60, 400] Hz with a normalized autocorrelation of
    the raw frame; a frame is voiced when the normalized peak reaches the
    voicing threshold. The normalization cancels the overall signal scale,
    so amplification changes neither voicing decisions nor F0 values. The
    lag search runs on raw samples because a window's taper would drag
    long-lag peaks toward shorter lags; the frame energy is that of the
    Hamming-windowed frame. The pitch search runs row-wise (_rowwise); the
    energy product takes the whole block at once.
    """
    x = _frames(frames)
    squares = x * x
    log_energy = np.log(squares @ (_WINDOW * _WINDOW) + ENERGY_FLOOR)
    f0 = _rowwise(_pitch, x, squares)
    # a voiced F0 lies in [60, 400] Hz, an unvoiced one is 0
    return ProsodicTrack(f0=f0, log_energy=log_energy, voiced=f0 > 0.0)


def analyze_clip(samples) -> UtteranceFeatures:
    """Full frontend for one clip's int16 samples: framing, MFCCs, prosody.

    The frames are analysed in blocks of at most _BLOCK_FRAMES, each framed
    from a sub-clip over the samples it covers, so memory stays bounded
    however long the clip is. The blocks are of near-equal size: BLAS picks
    its kernel by matrix size, and a short remainder block would round the
    mel energies or cepstra differently from a whole-clip pass.
    """
    samples = _samples(samples)
    n_frames = (samples.size - FRAME_LEN) // HOP + 1
    n_blocks = -(-n_frames // _BLOCK_FRAMES)
    vectors, f0, log_energy, voiced = [], [], [], []
    for b in range(n_blocks):
        first = b * n_frames // n_blocks
        last = (b + 1) * n_frames // n_blocks - 1
        frames = frame_signal(samples[first * HOP:last * HOP + FRAME_LEN])
        track = prosodic_track(frames)
        vectors.append(mfcc(frames))
        f0.append(track.f0)
        log_energy.append(track.log_energy)
        voiced.append(track.voiced)
    features = np.concatenate(vectors)
    features.setflags(write=False)
    return UtteranceFeatures(
        features=features,
        prosody=ProsodicTrack(f0=np.concatenate(f0),
                              log_energy=np.concatenate(log_energy),
                              voiced=np.concatenate(voiced)))


# --- feature cache -----------------------------------------------------------
#
# A container file (see emocue.container) under magic "EMOFC001":
#   header   {"entries": [{"id": str, "frames": int}, ...]} sorted by id
#   payload  per entry, in header order:
#              float64[frames * 16]  MFCC vectors (row-major)
#              float64[frames]       f0
#              float64[frames]       log energy
#              uint8[frames]         voicing flags, 0 or 1

def write_feature_cache(path, entries: Mapping[str, UtteranceFeatures]) -> None:
    """Write both observation streams for a set of utterances.

    Entries are stored sorted by utterance id, so identical inputs always
    produce byte-identical files. An interrupted write, or an entry whose
    MFCCs are not (T, 16) for its T prosody frames (ValueError), leaves the
    previous cache whole.
    """
    ids = sorted(entries)

    def payload():
        for uid in ids:
            feats, track = entries[uid]
            if np.shape(feats) != (len(track), FEATURE_DIM):
                raise ValueError(f"utterance {uid!r}: MFCCs of shape "
                                 f"{np.shape(feats)} for {len(track)} frames")
            yield np.ascontiguousarray(feats, dtype="<f8").tobytes()
            yield np.ascontiguousarray(track.f0, dtype="<f8").tobytes()
            yield np.ascontiguousarray(track.log_energy, dtype="<f8").tobytes()
            yield np.ascontiguousarray(track.voiced, dtype=np.uint8).tobytes()

    container.write(path, _CACHE_MAGIC, {"entries": [
        {"id": uid, "frames": len(entries[uid].features)} for uid in ids]},
        payload())


def read_feature_cache(path) -> dict[str, UtteranceFeatures]:
    """Read a cache written by write_feature_cache.

    A cache that is cut short, runs on past its last utterance or has a
    malformed header, a repeated utterance id among them, or a voicing flag
    other than 0 or 1 raises CorruptFileError naming it.
    """
    def parse(header, payload):
        out = {}
        for uid, frames in [(e["id"], e["frames"]) for e in header["entries"]]:
            if not (isinstance(uid, str) and isinstance(frames, int)
                    and frames >= 0):
                raise ValueError(f"bad entry {uid!r} with {frames!r} frames")
            if uid in out:
                raise ValueError(f"repeated utterance id {uid!r}")
            vectors = payload.array(frames * FEATURE_DIM).reshape(
                frames, FEATURE_DIM)
            f0 = payload.array(frames)
            log_energy = payload.array(frames)
            voiced = payload.array(frames, np.uint8)
            if (voiced > 1).any():
                frame = int(np.argmax(voiced > 1))
                raise CorruptFileError(f"{path}: utterance {uid!r}: voicing "
                                       f"flag {voiced[frame]} at frame {frame}"
                                       f" of {frames} is not 0 or 1")
            finite = np.isfinite(vectors).all(axis=1) & np.isfinite(f0) \
                & np.isfinite(log_energy)
            if not finite.all():
                raise NonFiniteObservationError(
                    f"{path}: utterance {uid!r}: frame "
                    f"{int(np.argmin(finite))} of {frames} is not finite")
            out[uid] = UtteranceFeatures(
                features=vectors,
                prosody=ProsodicTrack(f0=f0, log_energy=log_energy,
                                      voiced=voiced))
        return out

    return container.read(path, _CACHE_MAGIC, "feature cache", parse)
