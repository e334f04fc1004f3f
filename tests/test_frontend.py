"""Frontend tests: framing, MFCCs, pitch and the feature cache.

The MFCC and pitch pipelines are both checked against slow scalar
reference implementations built independently of the vectorized code.
"""

import dataclasses
import importlib.util
import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import wave
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocue import container, corpus, frontend
from emocue.errors import (
    CorruptFileError,
    EmoCueError,
    NonFiniteObservationError,
    TooShortError,
    UnsupportedFormatError,
)

from conftest import container_bytes, damaged_container, edit_container_header

WAVGEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "wavgen.py"


def _tone(freq_hz, num_samples, amplitude=8000.0, rate=16000):
    t = np.arange(num_samples) / rate
    return np.round(amplitude * np.sin(2 * np.pi * freq_hz * t)).astype(np.int16)


def _write_wav(path, samples, rate=16000, channels=1, sampwidth=2):
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(sampwidth)
        wav.setframerate(rate)
        wav.writeframes(np.asarray(samples).tobytes())


# --- scalar reference implementations ---------------------------------------


def _reference_mfcc(samples):
    """Loop-based MFCC pipeline, one frame at a time."""
    n = 480
    hop = 80
    fft_size = 512
    num_filters = 26
    x = np.asarray(samples, dtype=np.float64)

    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def mel_inv(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [mel_inv(mel(0.0) + (mel(8000.0) - mel(0.0)) * i / (num_filters + 1))
             for i in range(num_filters + 2)]
    fbank = np.zeros((num_filters, fft_size // 2 + 1))
    for j in range(num_filters):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        for k in range(fft_size // 2 + 1):
            f = k * 16000.0 / fft_size
            fbank[j, k] = max(0.0, min((f - lo) / (mid - lo),
                                       (hi - f) / (hi - mid)))

    dct = np.zeros((num_filters, num_filters))
    for i in range(num_filters):
        scale = math.sqrt(1.0 / num_filters) if i == 0 \
            else math.sqrt(2.0 / num_filters)
        for k in range(num_filters):
            dct[i, k] = scale * math.cos(
                math.pi * i * (2 * k + 1) / (2 * num_filters))

    window = np.array([0.54 - 0.46 * math.cos(2 * math.pi * i / (n - 1))
                       for i in range(n)])
    num_frames = (len(x) - n) // hop + 1
    out = np.zeros((num_frames, 16))
    for fr in range(num_frames):
        frame = x[fr * hop:fr * hop + n] * window
        emph = np.zeros(n)
        emph[0] = frame[0]
        for i in range(1, n):
            emph[i] = frame[i] - 0.97 * frame[i - 1]
        spectrum = np.abs(np.fft.rfft(emph, fft_size))
        for j in range(num_filters):
            energy = float(spectrum @ fbank[j])
            log_e = math.log(max(energy, 1e-10))
            for i in range(1, 17):
                out[fr, i - 1] += dct[i, j] * log_e
    return out


def _reference_pitch_frame(frame):
    """Scalar normalized-autocorrelation pitch for one raw frame."""
    lag_min, lag_max = 40, 266
    x = np.asarray(frame, dtype=np.float64)
    length = len(x)
    ncc = {}
    for lag in range(lag_min - 1, lag_max + 2):
        num = float(x[:length - lag] @ x[lag:])
        e_head = float(x[:length - lag] @ x[:length - lag])
        e_tail = float(x[lag:] @ x[lag:])
        denom = math.sqrt(max(e_head * e_tail, 0.0))
        ncc[lag] = num / denom if denom > 0.0 else 0.0
    best = max(range(lag_min, lag_max + 1), key=lambda lag: ncc[lag])
    global_peak = ncc[best]
    if global_peak < 0.45:
        return 0.0, False
    # shortest period multiple within tolerance of the global peak
    chosen = best
    for k in range(2, lag_max // lag_min + 1):
        cand = int(round(best / k))
        if cand < lag_min:
            continue
        lag = max((cand - 1, cand, cand + 1), key=lambda c: ncc[c])
        if lag >= lag_min and lag < chosen and ncc[lag] >= 0.9 * global_peak:
            chosen = lag
    peak = ncc[chosen]
    left, right = ncc[chosen - 1], ncc[chosen + 1]
    curvature = left - 2.0 * peak + right
    shift = 0.5 * (left - right) / curvature if curvature < 0.0 else 0.0
    shift = min(0.5, max(-0.5, shift))
    refined = min(float(lag_max), max(float(lag_min), chosen + shift))
    return 16000.0 / refined, True


# --- framing -----------------------------------------------------------------


def test_frame_count_exact():
    frames = frontend.frame_signal(np.zeros(480, dtype=np.int16))
    assert frames.shape == (1, 480)
    frames = frontend.frame_signal(np.zeros(480 + 80 * 3 + 79, dtype=np.int16))
    assert frames.shape[0] == 4


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=480, max_value=20000))
def test_frame_count_formula(num_samples):
    frames = frontend.frame_signal(np.zeros(num_samples, dtype=np.int16))
    assert frames.shape[0] == (num_samples - 480) // 80 + 1


def test_frames_are_raw_samples():
    # the Hamming window is applied by mfcc and the frame energy, not here
    rng = np.random.default_rng(4)
    samples = rng.integers(-12000, 12000, size=480 + 80 * 3).astype(np.int16)
    frames = frontend.frame_signal(samples)
    for i in range(4):
        np.testing.assert_array_equal(frames[i], samples[80 * i:80 * i + 480])


def test_too_short_clip_rejected():
    for analyze in (frontend.frame_signal, frontend.analyze_clip):
        with pytest.raises(TooShortError):
            analyze(np.zeros(479, dtype=np.int16))


@pytest.mark.parametrize("samples", [
    np.array([0.7, 40000.0] * 240), np.zeros(480, dtype=np.int32),
    np.zeros(480, dtype=np.uint16), np.zeros((2, 480), dtype=np.int16)],
    ids=["float", "int32", "uint16", "2-D"])
@pytest.mark.parametrize("analyze", [frontend.frame_signal,
                                     frontend.analyze_clip])
def test_samples_other_than_1d_int16_are_refused_not_cast(analyze, samples):
    with pytest.raises(UnsupportedFormatError, match="1-D int16"):
        analyze(samples)


@pytest.mark.parametrize("frames", [
    np.zeros((0, 480)), np.zeros((3, 479)), np.zeros(480)],
    ids=["no rows", "narrow", "1-D"])
@pytest.mark.parametrize("analyze", [frontend.mfcc, frontend.prosodic_track])
def test_frames_other_than_t_by_480_are_refused(analyze, frames):
    with pytest.raises(ValueError, match="frames must have shape"):
        analyze(frames)


# --- MFCCs -------------------------------------------------------------------


def test_mfcc_matches_scalar_reference():
    rng = np.random.default_rng(0)
    samples = (rng.integers(-12000, 12000, size=480 + 80 * 4)
               .astype(np.int16))
    frames = frontend.frame_signal(samples)
    got = np.asarray(frontend.mfcc(frames))
    want = _reference_mfcc(samples)
    assert got.shape == (5, 16)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_mfcc_tone_matches_reference():
    samples = _tone(220.0, 480 + 80 * 2)
    frames = frontend.frame_signal(samples)
    np.testing.assert_allclose(np.asarray(frontend.mfcc(frames)),
                               _reference_mfcc(samples), rtol=0, atol=1e-9)


def test_autocorr_len_is_free_of_wrap_round_and_fast():
    length = frontend._AUTOCORR_LEN
    assert length >= frontend.FRAME_LEN + frontend._LAG_MAX + 1 == 747
    for prime in (2, 3, 5):
        while length % prime == 0:
            length //= prime
    assert length == 1


def test_mel_filterbank_shape_and_coverage():
    fbank = frontend.MEL_FILTERBANK
    assert fbank.shape == (26, 257)
    assert not fbank.flags.writeable
    assert np.all(fbank >= 0.0)
    assert np.all(fbank.max(axis=1) > 0.0)
    # interior bins are covered by at least one filter
    covered = fbank.sum(axis=0)
    assert np.all(covered[3:-2] > 0.0)


# --- pitch and energy --------------------------------------------------------


def test_tone_pitch_100hz():
    frames = frontend.frame_signal(_tone(100.0, 480 + 80 * 9))
    track = frontend.prosodic_track(frames)
    assert np.all(track.voiced)
    np.testing.assert_allclose(track.f0, 100.0, atol=1.0)


def test_tone_pitch_250hz():
    frames = frontend.frame_signal(_tone(250.0, 480 + 80 * 9))
    track = frontend.prosodic_track(frames)
    assert np.all(track.voiced)
    np.testing.assert_allclose(track.f0, 250.0, atol=2.0)


def test_pitch_matches_scalar_reference():
    rng = np.random.default_rng(3)
    voiced_part = _tone(161.8, 480 + 80 * 2)
    noise_part = rng.integers(-500, 500, size=480).astype(np.int16)
    for samples in (voiced_part, noise_part):
        frames = frontend.frame_signal(samples)
        track = frontend.prosodic_track(frames)
        for i in range(frames.shape[0]):
            want_f0, want_voiced = _reference_pitch_frame(frames[i])
            assert bool(track.voiced[i]) == want_voiced
            assert track.f0[i] == pytest.approx(want_f0, abs=1e-9)


def _glide(num_samples, seed=5):
    """A 90-320 Hz glide in light noise, with a noise-only middle third, so
    neighbouring frames differ and both voicing decisions occur."""
    rng = np.random.default_rng(seed)
    t = np.arange(num_samples) / 16000
    hz = 90.0 + 230.0 * np.arange(num_samples) / num_samples
    signal = 6000.0 * np.sin(2 * np.pi * np.cumsum(hz) / 16000)
    signal[num_samples // 3:2 * num_samples // 3] = 0.0
    return np.round(signal + 200.0 * np.sin(2 * np.pi * 3.0 * t)
                    + rng.normal(0.0, 300.0, num_samples)).astype(np.int16)


@pytest.mark.parametrize("num_frames", [
    1, frontend._BLOCK_FRAMES, 2 * frontend._BLOCK_FRAMES + 7])
def test_analyze_clip_blocks_match_scalar_reference(num_frames):
    samples = _glide(480 + 80 * (num_frames - 1))
    utt = frontend.analyze_clip(samples)
    assert len(utt.features) == len(utt.prosody) \
        == (len(samples) - 480) // 80 + 1 == num_frames
    # the block split rounds exactly as one whole-clip pass does
    frames = frontend.frame_signal(samples)
    whole = frontend.prosodic_track(frames)
    np.testing.assert_array_equal(utt.features, frontend.mfcc(frames))
    np.testing.assert_array_equal(utt.prosody.f0, whole.f0)
    np.testing.assert_array_equal(utt.prosody.log_energy, whole.log_energy)
    np.testing.assert_array_equal(utt.prosody.voiced, whole.voiced)
    np.testing.assert_allclose(np.asarray(utt.features),
                               _reference_mfcc(samples), rtol=0, atol=1e-9)
    window = np.hamming(480)
    for i in range(num_frames):
        frame = samples[80 * i:80 * i + 480].astype(np.float64)
        want_f0, want_voiced = _reference_pitch_frame(frame)
        assert bool(utt.prosody.voiced[i]) == want_voiced
        assert utt.prosody.f0[i] == pytest.approx(want_f0, abs=1e-9)
        want_energy = math.log(float(np.sum((frame * window) ** 2)) + 1e-10)
        assert utt.prosody.log_energy[i] == pytest.approx(want_energy,
                                                          abs=1e-9)
    if num_frames > 1:
        assert 0 < np.count_nonzero(utt.prosody.voiced) < num_frames


def _wavgen():
    spec = importlib.util.spec_from_file_location("perfbench_wavgen",
                                                  WAVGEN_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_pitch_matches_known_truth():
    # the benchmark's clips: harmonic glides with vibrato between noise
    # stretches, with per-frame F0 and voicing truth
    wavgen = _wavgen()
    gross = f0_scored = voicing = voicing_scored = 0
    for seed in (1, 2):
        for clip in wavgen.make_clips(seed, 10):
            utt = frontend.analyze_clip(clip.samples)
            g, fs, v, vs = wavgen.pitch_errors(clip, utt.prosody.f0,
                                               utt.prosody.voiced)
            gross, f0_scored = gross + g, f0_scored + fs
            voicing, voicing_scored = voicing + v, voicing_scored + vs
    assert f0_scored > 1000 and voicing_scored > 2000
    assert 100.0 * gross / f0_scored <= 2.0
    assert 100.0 * voicing / voicing_scored <= 2.0


def _clips(frame_counts, seed=0):
    return [_glide(480 + 80 * (n - 1), seed=seed + i)
            for i, n in enumerate(frame_counts)]


def _block_threads(monkeypatch):
    """The thread that runs each block, in the order they start."""
    threads, block = [], frontend._block

    def recorded(*args):
        threads.append(threading.get_ident())
        return block(*args)
    monkeypatch.setattr(frontend, "_block", recorded)
    return threads


class _IdlePool:
    """A pool whose threads never start a block."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(Future())
        return self.futures[-1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_analyze_clips_equals_each_clip_alone_bit_for_bit(monkeypatch,
                                                          workers):
    frame_counts = [1, 63, 256, 64, 2 * 256 + 7, 65, 255, 257, 1, 64, 257]
    clips = _clips(frame_counts)
    monkeypatch.setattr(frontend, "_workers", lambda: 1)
    want = [frontend.analyze_clip(clip) for clip in clips]
    monkeypatch.setattr(frontend, "_workers", lambda: workers)
    threads = _block_threads(monkeypatch)
    got = list(frontend.analyze_clips(iter(clips)))
    assert [len(utt.prosody) for utt in got] == frame_counts
    for one, alone in zip(got, want):
        for stream, alone_stream in ((one.features, alone.features),
                                     (one.prosody.f0, alone.prosody.f0),
                                     (one.prosody.log_energy,
                                      alone.prosody.log_energy)):
            assert stream.tobytes() == alone_stream.tobytes()
            assert not stream.flags.writeable
    assert len(threads) == sum(-(-n // 256) for n in frame_counts)
    if workers == 1:
        assert set(threads) == {threading.get_ident()}
    else:
        # the calling thread runs blocks too
        assert threading.get_ident() in threads


def test_the_calling_thread_runs_every_block_no_pool_thread_starts(
        monkeypatch):
    monkeypatch.setattr(frontend, "_workers", lambda: 2)
    monkeypatch.setattr(frontend, "_shared_pool", lambda workers: _IdlePool())
    clips = _clips([300, 1, 600, 70], seed=20)
    got = list(frontend.analyze_clips(clips))
    for utt, clip in zip(got, clips):
        frames = frontend.frame_signal(clip)
        assert utt.features.tobytes() == frontend.mfcc(frames).tobytes()
        assert utt.prosody.f0.tobytes() == \
            frontend.prosodic_track(frames).f0.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_analyze_clips_raises_a_blocks_error_as_itself_in_clip_order(
        monkeypatch, workers):
    monkeypatch.setattr(frontend, "_workers", lambda: workers)
    clips = _clips([300, 2, 256, 5, 600], seed=30)
    fault, block = RuntimeError("a block failed"), frontend._block

    def failing(samples, first, last):
        if samples.size == clips[2].size:
            raise fault
        return block(samples, first, last)
    monkeypatch.setattr(frontend, "_block", failing)
    got, stream = [], frontend.analyze_clips(clips)
    with pytest.raises(RuntimeError) as caught:
        for utt in stream:
            got.append(utt)
    assert caught.value is fault
    assert [len(utt.prosody) for utt in got] == [300, 2]


def test_analyze_clips_cancels_the_queued_blocks_when_a_clip_fails(
        monkeypatch):
    monkeypatch.setattr(frontend, "_workers", lambda: 3)
    pool = _IdlePool()
    monkeypatch.setattr(frontend, "_shared_pool", lambda workers: pool)
    threads = _block_threads(monkeypatch)
    fault = CorruptFileError("clip 3 is cut short")

    def clips():
        yield from _clips([1, 2 * 256 + 7])
        raise fault
    with pytest.raises(CorruptFileError) as caught:
        next(frontend.analyze_clips(clips()))
    assert caught.value is fault
    # the error is raised as the clip is read, before its queued
    # predecessors run, and none of them runs later
    assert len(pool.futures) == 4 and threads == []
    assert all(future.cancelled() for future in pool.futures)


@pytest.mark.parametrize("workers", [1, 2])
def test_analyze_clips_reads_clips_lazily(workers, monkeypatch):
    # a stream of short clips peaks at the same memory whatever its length:
    # only the blocks in flight are held
    monkeypatch.setattr(frontend, "_workers", lambda: workers)
    frontend.analyze_clip(_glide(480 + 80 * 300))   # the pool now exists

    def peak(count):
        def clips():
            for i in range(count):
                yield _glide(480 + 80 * (150 + i % 7), seed=i)
        tracemalloc.start()
        try:
            for utt in frontend.analyze_clips(clips()):
                assert len(utt.prosody) >= 150
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    few, many = peak(20), peak(200)
    assert many < 1.15 * few, (few, many)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_analyses_without_the_parents_pool(monkeypatch):
    monkeypatch.setattr(frontend, "_workers", lambda: 2)
    samples = _glide(480 + 80 * 255)
    want = frontend.analyze_clip(samples)       # the pool now exists
    pid = os.fork()
    if pid == 0:
        same = False
        try:
            got = frontend.analyze_clip(samples)
            same = (got.features.tobytes() == want.features.tobytes()
                    and got.prosody.f0.tobytes() == want.prosody.f0.tobytes())
        finally:
            os._exit(0 if same else 1)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 30 s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0


def test_analyze_clip_memory_is_bounded_on_long_clips():
    # a whole-clip pass holds several (frames, 480) float64 matrices:
    # 465 MB at 60 s
    num_samples = 240 * 16000
    rng = np.random.default_rng(6)
    clip = (_tone(150.0, num_samples)
            + rng.integers(-300, 300, size=num_samples)).astype(np.int16)
    tracemalloc.start()
    try:
        utt = frontend.analyze_clip(clip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(utt.prosody) == (num_samples - 480) // 80 + 1
    assert peak < 20e6


def test_noise_is_unvoiced():
    rng = np.random.default_rng(1)
    samples = rng.integers(-12000, 12000, size=480 + 80 * 9).astype(np.int16)
    track = frontend.prosodic_track(frontend.frame_signal(samples))
    assert not np.any(track.voiced)
    assert np.all(track.f0 == 0.0)


def test_silence_is_unvoiced_with_floor_energy():
    track = frontend.prosodic_track(
        frontend.frame_signal(np.zeros(480 * 2, dtype=np.int16)))
    assert not np.any(track.voiced)
    assert np.all(track.f0 == 0.0)
    np.testing.assert_allclose(track.log_energy, np.log(1e-10))


def test_amplification_leaves_pitch_unchanged():
    quiet = _tone(130.0, 480 + 80 * 5, amplitude=500.0)
    loud = (quiet.astype(np.int32) * 16).astype(np.int16)
    t_quiet = frontend.prosodic_track(frontend.frame_signal(quiet))
    t_loud = frontend.prosodic_track(frontend.frame_signal(loud))
    np.testing.assert_array_equal(t_quiet.voiced, t_loud.voiced)
    np.testing.assert_array_equal(t_quiet.f0, t_loud.f0)
    np.testing.assert_allclose(t_loud.log_energy - t_quiet.log_energy,
                               2.0 * np.log(16.0), atol=1e-9)


def test_f0_range_contract():
    rng = np.random.default_rng(2)
    samples = (_tone(180.0, 480 + 80 * 20)
               + rng.integers(-300, 300, size=480 + 80 * 20)).astype(np.int16)
    track = frontend.prosodic_track(frontend.frame_signal(samples))
    voiced_f0 = track.f0[track.voiced]
    assert voiced_f0.size > 0
    assert np.all((voiced_f0 >= 60.0) & (voiced_f0 <= 400.0))
    assert np.all(track.f0[~track.voiced] == 0.0)


# --- WAV loading -------------------------------------------------------------


def test_load_audio_roundtrip(tmp_path):
    samples = _tone(200.0, 1600)
    path = tmp_path / "ok.wav"
    _write_wav(path, samples)
    np.testing.assert_array_equal(frontend.load_audio(path), samples)


def test_load_audio_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    _write_wav(path, np.zeros(2000, dtype=np.int16), channels=2)
    with pytest.raises(UnsupportedFormatError):
        frontend.load_audio(path)


def test_load_audio_rejects_wrong_rate(tmp_path):
    path = tmp_path / "8k.wav"
    _write_wav(path, np.zeros(1000, dtype=np.int16), rate=8000)
    with pytest.raises(UnsupportedFormatError):
        frontend.load_audio(path)


def test_load_audio_rejects_8bit(tmp_path):
    path = tmp_path / "8bit.wav"
    _write_wav(path, np.zeros(1000, dtype=np.uint8), sampwidth=1)
    with pytest.raises(UnsupportedFormatError):
        frontend.load_audio(path)


def test_load_audio_rejects_short_clip(tmp_path):
    path = tmp_path / "short.wav"
    _write_wav(path, np.zeros(479, dtype=np.int16))
    with pytest.raises(TooShortError):
        frontend.load_audio(path)


def test_load_audio_rejects_data_cut_at_a_whole_sample(tmp_path):
    # the header declares 16000 samples; the data chunk holds 4800
    path = tmp_path / "cut.wav"
    _write_wav(path, np.zeros(16000, dtype=np.int16))
    path.write_bytes(path.read_bytes()[:44 + 9600])
    with pytest.raises(CorruptFileError, match=f"^{path}: WAV data is cut "
                       f"short: 4800 of 16000 samples$"):
        frontend.load_audio(path)


def test_load_audio_rejects_garbage(tmp_path):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"definitely not a wav file")
    with pytest.raises(UnsupportedFormatError):
        frontend.load_audio(path)


# --- feature cache -----------------------------------------------------------


def _analyzed(seed, num_samples):
    rng = np.random.default_rng(seed)
    samples = (_tone(150.0 + seed, num_samples)
               + rng.integers(-200, 200, size=num_samples)).astype(np.int16)
    return frontend.analyze_clip(samples)


def test_cache_roundtrip(tmp_path):
    entries = {"utt_b": _analyzed(1, 2000), "utt_a": _analyzed(2, 2480)}
    path = tmp_path / "cache.bin"
    frontend.write_feature_cache(path, entries)
    loaded = frontend.read_feature_cache(path)
    assert set(loaded) == {"utt_a", "utt_b"}
    for uid in entries:
        np.testing.assert_array_equal(np.asarray(loaded[uid].features),
                                      np.asarray(entries[uid].features))
        np.testing.assert_array_equal(loaded[uid].prosody.f0,
                                      entries[uid].prosody.f0)
        np.testing.assert_array_equal(loaded[uid].prosody.log_energy,
                                      entries[uid].prosody.log_energy)
        np.testing.assert_array_equal(loaded[uid].prosody.voiced,
                                      entries[uid].prosody.voiced)


def test_cache_rejects_non_finite_prosody(tmp_path, monkeypatch):
    features, prosody = _analyzed(3, 2000)
    log_energy = np.array(prosody.log_energy)
    log_energy[3] = np.nan
    bad = frontend.ProsodicTrack(f0=prosody.f0, log_energy=log_energy)
    entries = {"ok": _analyzed(4, 2000),
               "bad": frontend.UtteranceFeatures(features, bad)}
    path = tmp_path / "cache.bin"
    # a cache that another writer let the frame into
    monkeypatch.setattr(frontend, "_check_finite", lambda *args: None)
    frontend.write_feature_cache(path, entries)
    monkeypatch.undo()
    with pytest.raises(NonFiniteObservationError,
                       match="utterance 'bad': frame 3 of"):
        frontend.read_feature_cache(path)


def test_cache_bytes_deterministic(tmp_path):
    entries = {"x": _analyzed(5, 2000), "y": _analyzed(6, 2160)}
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    frontend.write_feature_cache(p1, entries)
    # insertion order must not matter
    frontend.write_feature_cache(p2, dict(reversed(list(entries.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_interrupted_cache_write_keeps_previous_cache(tmp_path, monkeypatch):
    path = tmp_path / "cache.bin"
    frontend.write_feature_cache(path, {"x": _analyzed(5, 2000)})
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")
    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError):
        frontend.write_feature_cache(path, {"y": _analyzed(6, 2160)})
    assert path.read_bytes() == before
    assert list(frontend.read_feature_cache(path)) == ["x"]


@pytest.mark.parametrize("rows, columns", [(5, 15), (4, 16)])
def test_cache_write_refuses_mfccs_that_do_not_fit_the_track(tmp_path, rows,
                                                             columns):
    # such a cache would be written whole and then read back as corrupt
    path = tmp_path / "cache.bin"
    frontend.write_feature_cache(path, {"x": _analyzed(5, 2000)})
    before = path.read_bytes()
    track = frontend.ProsodicTrack(f0=np.zeros(5), log_energy=np.zeros(5))
    bad = frontend.UtteranceFeatures(np.zeros((rows, columns)), track)
    with pytest.raises(ValueError, match=rf"^utterance 'y': MFCCs of shape "
                       rf"\({rows}, {columns}\) for 5 frames$"):
        frontend.write_feature_cache(path, {"x": _analyzed(5, 2000), "y": bad})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.bin"]


@pytest.mark.parametrize("stream", ["mfcc", "log_energy"])
def test_cache_write_refuses_a_frame_its_reader_would(tmp_path, stream):
    # the writer refuses, in the reader's words, before the file is replaced
    path = tmp_path / "cache.bin"
    frontend.write_feature_cache(path, {"x": _analyzed(5, 2000)})
    before = path.read_bytes()
    features, track = _analyzed(6, 2000)
    features, log_energy = np.array(features), np.array(track.log_energy)
    if stream == "mfcc":
        features[2, 7] = np.nan
    else:
        log_energy[2] = np.inf
    bad = frontend.UtteranceFeatures(features, frontend.ProsodicTrack(
        f0=track.f0, log_energy=log_energy))
    with pytest.raises(NonFiniteObservationError,
                       match=rf"^{re.escape(str(path))}: utterance 'y': frame "
                             rf"2 of {len(features)} is not finite$"):
        frontend.write_feature_cache(path, {"x": _analyzed(5, 2000), "y": bad})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.bin"]


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    frontend.write_feature_cache(path, {"u": _analyzed(7, 2000)})
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedFormatError):
        frontend.read_feature_cache(path)


@pytest.fixture(scope="module")
def cache_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "cache.bin"
    frontend.write_feature_cache(path, {"u": _analyzed(7, 2000),
                                        "v": _analyzed(8, 2160)})
    return path.read_bytes()


@pytest.mark.parametrize("size", [12, 16, 100, "half", -1])
def test_cache_rejects_truncation(tmp_path, cache_bytes, size):
    end = len(cache_bytes) // 2 if size == "half" else size
    path = tmp_path / "cut.bin"
    path.write_bytes(cache_bytes[:end])
    with pytest.raises(CorruptFileError, match="cut.bin: feature cache is "
                                               "truncated"):
        frontend.read_feature_cache(path)


def test_cache_rejects_trailing_bytes(tmp_path, cache_bytes):
    path = tmp_path / "long.bin"
    path.write_bytes(cache_bytes + b"\0")
    with pytest.raises(CorruptFileError, match="long.bin: .* after its last"):
        frontend.read_feature_cache(path)


@pytest.mark.parametrize("index", [b"{not json", b'{"entries": 3}',
                                   b'{"entries": [{"id": "u"}]}',
                                   b'{"entries": [{"id": "u", "frames": -2}]}'])
def test_cache_rejects_malformed_index(tmp_path, index):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"EMOFC002" + len(index).to_bytes(8, "little") + index)
    with pytest.raises(CorruptFileError, match="bad.bin: malformed"):
        frontend.read_feature_cache(path)


def test_cache_refuses_a_version_1_cache_by_name(tmp_path, cache_bytes):
    path = tmp_path / "old.bin"
    path.write_bytes(b"EMOFC001" + cache_bytes[8:])
    with pytest.raises(UnsupportedFormatError) as caught:
        frontend.read_feature_cache(path)
    assert str(caught.value) == (f"{path}: a version-1 feature cache; re-run "
                                 f"extract or gen-synthetic")


@pytest.mark.parametrize("magic, message", [
    (b"KINDV001", "a version-1 kind; remake it"),
    (b"OTHERV02", "not a kind file"),
], ids=["retired", "unknown"])
def test_container_read_names_a_retired_magic(tmp_path, magic, message):
    path = tmp_path / "kind.bin"
    retired = {b"KINDV001": "a version-1 kind; remake it"}
    path.write_bytes(container_bytes(b"KINDV002", {"n": 1}, b""))
    assert container.read(path, b"KINDV002", "kind", lambda h, p: h["n"],
                          retired=retired) == 1
    path.write_bytes(container_bytes(magic, {"n": 1}, b""))
    with pytest.raises(UnsupportedFormatError) as caught:
        container.read(path, b"KINDV002", "kind", lambda h, p: h["n"],
                       retired=retired)
    assert str(caught.value) == f"{path}: {message}"


def test_container_replace_makes_a_missing_directory(tmp_path, monkeypatch):
    container.replace(tmp_path / "a" / "b" / "file.txt", ["x", b"y"])
    assert (tmp_path / "a" / "b" / "file.txt").read_bytes() == b"xy"
    # a bare file name has no directory to make
    monkeypatch.chdir(tmp_path)
    container.replace("bare.txt", ["z"])
    assert sorted(os.listdir(tmp_path)) == ["a", "bare.txt"]
    assert (tmp_path / "bare.txt").read_text() == "z"


def test_cache_rejects_repeated_id(tmp_path, cache_bytes):
    # two entries under one id, each with its own payload: the later one
    # must not silently replace the earlier
    path = tmp_path / "twice.bin"
    path.write_bytes(cache_bytes)

    def rename_v_to_u(header):
        header["entries"][1]["id"] = "u"
    edit_container_header(path, rename_v_to_u)
    with pytest.raises(CorruptFileError, match="twice.bin: malformed feature "
                                               "cache: repeated utterance id "
                                               "'u'"):
        frontend.read_feature_cache(path)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cache_damage_raises_only_typed_errors(tmp_path_factory, cache_bytes,
                                               data):
    path = tmp_path_factory.mktemp("fuzz") / "cache.bin"
    path.write_bytes(damaged_container(cache_bytes, data))
    try:
        frontend.read_feature_cache(path)
    except EmoCueError:
        pass


def test_analyze_clip_streams_aligned():
    utt = _analyzed(9, 3200)
    assert np.asarray(utt.features).shape[0] == len(utt.prosody)


def test_producers_hand_the_track_streams_already_read_only(tmp_path,
                                                           monkeypatch):
    """A ProsodicTrack keeps the fresh streams its producers froze uncopied:
    readonly is never handed a writeable array by them."""
    handed = []
    readonly = frontend.readonly

    def recording(a, *args, **kwargs):
        handed.append(isinstance(a, np.ndarray) and a.flags.writeable)
        return readonly(a, *args, **kwargs)
    monkeypatch.setattr(frontend, "readonly", recording)
    samples = _tone(150.0, 480 + 80 * 300)
    frontend.write_feature_cache(tmp_path / "cache.bin",
                                 {"u": frontend.analyze_clip(samples)})
    for name, produce in [
            ("prosodic_track", lambda: frontend.prosodic_track(
                frontend.frame_signal(samples))),
            ("analyze_clip", lambda: frontend.analyze_clip(samples)),
            ("read_feature_cache", lambda: frontend.read_feature_cache(
                tmp_path / "cache.bin")),
            ("synthesize_corpus", lambda: corpus.synthesize_corpus(
                num_speakers=1, emotions=("neutral",), train_sentences=1,
                test_sentences=1, repetitions=1, seed=3))]:
        handed.clear()
        produce()
        assert handed and not any(handed), name


@pytest.mark.parametrize("f0, log_energy", [
    (np.float64(0.0), np.float64(0.0)),
    (np.zeros(1), np.float64(0.0)),
], ids=["all 0-d", "one 0-d"])
def test_track_refuses_a_0d_stream(f0, log_energy):
    with pytest.raises(ValueError, match="equal-length 1-D"):
        frontend.ProsodicTrack(f0=f0, log_energy=log_energy)


@pytest.mark.parametrize("f0", [59.9, 400.1, -120.0, np.nan])
def test_track_refuses_an_f0_outside_the_pitch_range(f0):
    with pytest.raises(ValueError, match=r"voiced f0 must lie in \[60.0, "
                                         r"400.0\] Hz"):
        frontend.ProsodicTrack(f0=[0.0, f0], log_energy=np.zeros(2))


def test_track_voicing_is_a_read_only_view_of_f0():
    track = frontend.ProsodicTrack(f0=[0.0, 120.0, 0.0, 60.0, 400.0],
                                   log_energy=np.zeros(5))
    assert [f.name for f in dataclasses.fields(track)] == ["f0",
                                                           "log_energy"]
    voiced = track.voiced
    assert voiced.dtype == bool and not voiced.flags.writeable
    np.testing.assert_array_equal(voiced, track.f0 > 0.0)
    assert track.voiced is voiced
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(track, "voiced", np.ones(5, dtype=bool))


def test_track_copies_a_callers_writeable_streams():
    f0, log_energy = np.array([0.0, 120.0, 0.0]), np.zeros(3)
    track = frontend.ProsodicTrack(f0=f0, log_energy=log_energy)
    for mine, kept in ((f0, track.f0), (log_energy, track.log_energy)):
        assert mine.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(mine, kept)
    f0[1] = 0.0
    np.testing.assert_array_equal(track.voiced, [False, True, False])


def test_every_handed_out_array_is_read_only_with_its_dtype_and_shape(
        tmp_path):
    samples = _tone(150.0, 480 + 80 * 9)
    _write_wav(tmp_path / "clip.wav", samples)
    loaded = frontend.load_audio(tmp_path / "clip.wav")
    frames = frontend.frame_signal(loaded)
    utt = frontend.analyze_clip(loaded)
    frontend.write_feature_cache(tmp_path / "cache.bin", {"u": utt})
    cached = frontend.read_feature_cache(tmp_path / "cache.bin")["u"]
    params = corpus.normalize_features({"u": utt.features})
    synth = corpus.synthesize_corpus(num_speakers=1, emotions=("neutral",),
                                     train_sentences=1, test_sentences=1,
                                     repetitions=1, seed=3)
    mfccs = (np.float64, (10, frontend.FEATURE_DIM))
    arrays = {"load_audio": (loaded, np.int16, (len(samples),)),
              "frame_signal": (frames, np.float64, (10, 480)),
              "mfcc": (frontend.mfcc(frames), *mfccs),
              "analyze_clip": (utt.features, *mfccs),
              "read_feature_cache": (cached.features, *mfccs),
              "NormalizationParams.apply": (params.apply(utt.features),
                                            *mfccs)}
    for uid, entry in synth.features.items():
        arrays[uid] = (entry.features, np.float64,
                       (len(entry.prosody), frontend.FEATURE_DIM))
    for name, (array, dtype, shape) in arrays.items():
        assert type(array) is np.ndarray, name
        assert (array.dtype, array.shape) == (dtype, shape), name
        assert not array.flags.writeable, name
        assert array.flags.c_contiguous, name
