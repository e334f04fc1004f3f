"""Audio frontend: WAV ingestion, framing, MFCC and prosodic analysis.

The frontend turns mono 16 kHz PCM audio, a 1-D int16 sample array, into
the two observation streams used by the classifiers:

* a (T, 16) float64 array of MFCC vectors (one per 30 ms frame, 5 ms hop),
* a prosodic track holding per-frame fundamental frequency and log energy;
  a frame is voiced exactly when its F0 is above 0.

All functions are pure, and every array they return is read-only.

analyze_clips cuts every clip into blocks of frames and analyses the blocks
of all its clips side by side on the CPUs of the process's affinity set
(`taskset` limits them): one thread analyses each whole block, and the
calling thread reads the clips and runs blocks too. The results do not
depend on how many CPUs that is. With one CPU the frontend starts no thread.
"""

from __future__ import annotations

import collections
import os
import threading
import wave
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple

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
# analyze_clips analyses at most this many frames at a time, so its memory
# stays bounded however long a clip is.
_BLOCK_FRAMES = 256
# analyze_clips keeps at most this many blocks per CPU queued or running, so
# its memory stays bounded however many clips it is given.
_BLOCKS_PER_WORKER = 2

_CACHE_MAGIC = b"EMOFC002"


@dataclass(frozen=True)
class ProsodicTrack:
    """Per-frame fundamental frequency and log energy.

    f0 is 0 for unvoiced frames and lies in [60, 400] Hz for voiced ones;
    voiced is that view of it, f0 > 0, and is stored nowhere else.
    """

    f0: np.ndarray
    log_energy: np.ndarray

    def __post_init__(self):
        # taken first: readonly makes a 0-d stream 1-D
        ndims = {np.ndim(a) for a in (self.f0, self.log_energy)}
        f0, log_energy = readonly(self.f0), readonly(self.log_energy)
        if f0.shape != log_energy.shape or ndims != {1}:
            raise ValueError("f0 and log_energy must be equal-length 1-D")
        in_range = (f0 == 0.0) | ((f0 >= F0_MIN) & (f0 <= F0_MAX))
        if not np.all(in_range):
            raise ValueError(f"voiced f0 must lie in [{F0_MIN}, {F0_MAX}] Hz")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "log_energy", log_energy)

    @cached_property
    def voiced(self) -> np.ndarray:
        """The read-only voicing flags, f0 > 0."""
        voiced = self.f0 > 0.0
        voiced.setflags(write=False)
        return voiced

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
    frames = _framed(_samples(samples))
    frames.setflags(write=False)
    return frames


def _framed(samples) -> np.ndarray:
    """frame_signal's frames of checked samples, writeable."""
    return np.lib.stride_tricks.sliding_window_view(
        samples, FRAME_LEN)[::HOP].astype(np.float64, order="C")


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


# The frontend's thread pool (see analyze_clips), made on first use.
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


def _shared_pool(workers: int):
    """The frontend's pool of workers - 1 threads, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, so that commands which analyse no audio skip it
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(workers - 1, "emocue-frontend")
        return _pool


def _mfcc(frames) -> np.ndarray:
    """mfcc of checked frames, writeable."""
    emphasized = frames * _WINDOW
    emphasized[:, 1:] -= PREEMPHASIS * emphasized[:, :-1]
    spectra = np.abs(np.fft.rfft(emphasized, FFT_SIZE, axis=1))
    energies = spectra @ MEL_FILTERBANK.T
    log_energies = np.log(np.maximum(energies, ENERGY_FLOOR))
    return log_energies @ _DCT_BASIS


def mfcc(frames) -> np.ndarray:
    """The (T, 16) MFCCs of T frames: coefficients 1..16, no energy term.

    Per frame: Hamming window, pre-emphasis, zero-padded magnitude spectrum,
    triangular mel filterbank, floored log, orthonormal DCT-II applied as a
    fixed basis. Coefficient 0 is dropped to keep the features robust to
    overall gain.
    """
    vectors = _mfcc(_frames(frames))
    vectors.setflags(write=False)
    return vectors


def _prosody(x) -> tuple[np.ndarray, np.ndarray]:
    """prosodic_track's F0 and log energy of checked frames x, writeable."""
    n_frames, frame_len = x.shape
    lag_min, lag_max = _LAG_MIN, _LAG_MAX
    base = lag_min - 1                  # ncc column j holds lag base + j

    # The autocorrelation is the inverse transform of the power spectrum,
    # which is built in the spectrum's own buffer. Only the searched lags
    # are kept, in a buffer of their own that becomes ncc, and each buffer
    # is dropped as soon as it is used, so the search holds little memory.
    spec = np.fft.rfft(x, _AUTOCORR_LEN, axis=1)
    power, imag = spec.real, spec.imag
    power *= power
    imag *= imag
    power += imag
    imag[...] = 0.0
    autocorr = np.fft.irfft(spec, _AUTOCORR_LEN, axis=1)
    del spec, power, imag
    ncc = autocorr[:, base:lag_max + 2].copy()
    del autocorr

    squares = x * x
    log_energy = np.log(squares @ (_WINDOW * _WINDOW) + ENERGY_FLOOR)
    # Energy of the two offset segments entering the lag-tau product:
    # head = energy of x[0 : L - tau] = cumulative[L - tau - 1] and
    # tail = energy of x[tau : L] = cumulative[L - 1] - cumulative[tau - 1].
    cumulative = np.cumsum(squares, axis=1, out=squares)
    head = cumulative[:, frame_len - lag_max - 2:frame_len - base][:, ::-1]
    denom = cumulative[:, -1:] - cumulative[:, base - 1:lag_max + 1]
    denom *= head
    np.maximum(denom, 0.0, out=denom)
    np.sqrt(denom, out=denom)
    positive = denom > 0.0
    np.divide(ncc, denom, out=ncc, where=positive)
    ncc[~positive] = 0.0

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
    return np.where(voiced, SAMPLE_RATE / refined, 0.0), log_energy


def prosodic_track(frames) -> ProsodicTrack:
    """Estimate per-frame F0, log energy and voicing.

    F0 is searched over [60, 400] Hz with a normalized autocorrelation of
    the raw frame; a frame is voiced when the normalized peak reaches the
    voicing threshold. The normalization cancels the overall signal scale,
    so amplification changes neither voicing decisions nor F0 values. The
    lag search runs on raw samples because a window's taper would drag
    long-lag peaks toward shorter lags; the frame energy is that of the
    Hamming-windowed frame.
    """
    f0, log_energy = _prosody(_frames(frames))
    for stream in (f0, log_energy):
        stream.setflags(write=False)
    return ProsodicTrack(f0=f0, log_energy=log_energy)


def _block(samples, first: int, last: int):
    """The MFCCs, F0 and log energy of frames first..last of checked
    samples, framed from the samples those frames cover alone."""
    frames = _framed(samples[first * HOP:last * HOP + FRAME_LEN])
    f0, log_energy = _prosody(frames)
    return _mfcc(frames), f0, log_energy


def _blocks(clips):
    """(samples, first, last) of each block of each clip, in order, with
    whether it is its clip's last block; each clip is read and checked
    when its first block is wanted.

    A clip's blocks are of near-equal size, at most _BLOCK_FRAMES: BLAS
    picks its kernel by matrix size, and a short remainder block would
    round the mel energies or cepstra differently from a whole-clip pass.
    """
    for samples in clips:
        samples = _samples(samples)
        n_frames = (samples.size - FRAME_LEN) // HOP + 1
        n_blocks = -(-n_frames // _BLOCK_FRAMES)
        for b in range(n_blocks):
            yield ((samples, b * n_frames // n_blocks,
                    (b + 1) * n_frames // n_blocks - 1), b == n_blocks - 1)


def _utterance(blocks) -> UtteranceFeatures:
    """One clip's streams from its blocks' (MFCCs, F0, log energy)."""
    streams = [np.concatenate(s) for s in zip(*blocks)]
    for stream in streams:
        stream.setflags(write=False)
    features, f0, log_energy = streams
    return UtteranceFeatures(features=features, prosody=ProsodicTrack(
        f0=f0, log_energy=log_energy))


def analyze_clips(clips) -> Iterator[UtteranceFeatures]:
    """analyze_clip of each clip's int16 samples, in clip order.

    Each clip is cut into blocks (see analyze_clip), and one thread
    analyses each whole block: its framing, energy, pitch search, spectrum
    and mel and DCT products, so every feature has the bits of a one-CPU
    pass. With W CPUs in the process's affinity set, a pool of W - 1
    threads takes the blocks oldest first, while the calling thread reads
    the clips lazily, at most _BLOCKS_PER_WORKER * W blocks ahead, and runs
    the newest block no pool thread has started whenever the oldest is not
    done. With one CPU every block runs on the calling thread and no
    thread starts. Each running block holds about 4 MB.

    An error reading or checking a clip is raised as soon as the clip is
    read, and one raised in a block is raised as itself, in clip order;
    either way the blocks still queued are cancelled, and those running
    are waited for.
    """
    # imported here, so that commands which analyse no audio skip it
    from concurrent.futures import Future, wait

    def run_here(args):
        done = Future()
        try:
            done.set_result(_block(*args))
        except Exception as exc:    # raised in order, by done.result()
            done.set_exception(exc)
        return done

    workers = _workers()
    pool = _shared_pool(workers) if workers > 1 else None
    tasks = _blocks(clips)
    window = collections.deque()    # [future, args, last of its clip?]
    parts = []
    try:
        while True:
            while len(window) < _BLOCKS_PER_WORKER * workers:
                task = next(tasks, None)
                if task is None:
                    break
                args, ends = task
                window.append([pool.submit(_block, *args) if pool
                               else run_here(args), args, ends])
            if not window:
                return
            if not window[0][0].done():
                stolen = next((entry for entry in reversed(window)
                               if entry[0].cancel()), None)
                if stolen is not None:
                    stolen[0] = run_here(stolen[1])
                    continue
            future, _, ends = window.popleft()
            parts.append(future.result())
            if ends:
                yield _utterance(parts)
                parts = []
    finally:
        # a cancelled future counts as done only once a pool thread has
        # dropped it, so wait for the others alone
        wait([future for future, _, _ in window if not future.cancel()])


def analyze_clip(samples) -> UtteranceFeatures:
    """Full frontend for one clip's int16 samples: framing, MFCCs, prosody.

    The frames are analysed in blocks of at most _BLOCK_FRAMES, each framed
    from a sub-clip over the samples it covers, so memory stays bounded
    however long the clip is. This is analyze_clips of one clip: one thread
    analyses each whole block, and the blocks run side by side on the CPUs
    of the process's affinity set (`taskset` limits them), the calling
    thread among them; the features do not depend on how many CPUs there
    are.
    """
    (utterance,) = analyze_clips([samples])
    return utterance


# --- feature cache -----------------------------------------------------------
#
# A container file (see emocue.container) under magic "EMOFC002" (format
# version 2):
#   header   {"entries": [{"id": str, "frames": int}, ...]} sorted by id
#   payload  per entry, in header order:
#              float64[frames * 16]  MFCC vectors (row-major)
#              float64[frames]       f0
#              float64[frames]       log energy

def _check_finite(path, uid: str, vectors, f0, log_energy) -> None:
    """NonFiniteObservationError naming the cache, the utterance and its
    first frame with a NaN or infinite MFCC, F0 or log energy."""
    finite = np.isfinite(vectors).all(axis=1) & np.isfinite(f0) \
        & np.isfinite(log_energy)
    if not finite.all():
        raise NonFiniteObservationError(
            f"{path}: utterance {uid!r}: frame {int(np.argmin(finite))} of "
            f"{finite.size} is not finite")


def write_feature_cache(path, entries: Mapping[str, UtteranceFeatures]) -> None:
    """Write both observation streams for a set of utterances.

    Entries are stored sorted by utterance id, so identical inputs always
    produce byte-identical files. An interrupted write, an entry whose
    MFCCs are not (T, 16) for its T prosody frames (ValueError), or a frame
    the reader would refuse (_check_finite) leaves the previous cache whole.
    """
    ids = sorted(entries)

    def payload():
        for uid in ids:
            feats, track = entries[uid]
            if np.shape(feats) != (len(track), FEATURE_DIM):
                raise ValueError(f"utterance {uid!r}: MFCCs of shape "
                                 f"{np.shape(feats)} for {len(track)} frames")
            _check_finite(path, uid, feats, track.f0, track.log_energy)
            yield np.ascontiguousarray(feats, dtype="<f8").tobytes()
            yield np.ascontiguousarray(track.f0, dtype="<f8").tobytes()
            yield np.ascontiguousarray(track.log_energy, dtype="<f8").tobytes()

    container.write(path, _CACHE_MAGIC, {"entries": [
        {"id": uid, "frames": len(entries[uid].features)} for uid in ids]},
        payload())


def read_feature_cache(path) -> dict[str, UtteranceFeatures]:
    """Read a cache written by write_feature_cache.

    A cache that is cut short, runs on past its last utterance or has a
    malformed header or a repeated utterance id raises CorruptFileError
    naming it; a version-1 cache raises UnsupportedFormatError naming it.
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
            _check_finite(path, uid, vectors, f0, log_energy)
            out[uid] = UtteranceFeatures(
                features=vectors,
                prosody=ProsodicTrack(f0=f0, log_energy=log_energy))
        return out

    return container.read(path, _CACHE_MAGIC, "feature cache", parse,
                          retired={b"EMOFC001": "a version-1 feature cache; "
                                   "re-run extract or gen-synthetic"})
