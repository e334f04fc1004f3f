"""Test clips with known F0 and voicing truth for the ``extract`` workload.

Each clip alternates harmonic stretches (a glide between two F0 values in
65-380 Hz with a slight 5 Hz vibrato, harmonics at 1/k amplitude, a little
background noise) with unvoiced white-noise stretches. Clip lengths are a
fixed multiset of 0.5-2.5 s, so every seed asks for the same amount of audio
and only the content changes. The truth is kept per analysis frame
(30 ms window, 5 ms hop): voiced with its F0 at the frame centre, unvoiced,
or unscored when the window straddles a voiced/unvoiced boundary.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
FRAME_LEN = 480
HOP = 80
CLIP_SECONDS = (0.5, 1.0, 1.5, 2.0, 2.5)
F0_RANGE = (65.0, 380.0)
VOICED_SECONDS = (0.25, 0.7)
UNVOICED_SECONDS = (0.08, 0.25)
MAX_HARMONIC_HZ = 5000.0
RAMP = int(0.005 * SAMPLE_RATE)
FULL_SCALE = 32767.0

UNSCORED, UNVOICED, VOICED = -1, 0, 1


@dataclass(frozen=True)
class Clip:
    """One generated clip and its per-frame truth."""

    name: str
    samples: np.ndarray      # int16
    voicing: np.ndarray      # per frame: UNSCORED, UNVOICED or VOICED
    f0: np.ndarray           # per frame: truth F0 in Hz where VOICED, else 0

    @property
    def seconds(self) -> float:
        return self.samples.size / SAMPLE_RATE


def _voiced_stretch(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    f_start, f_end = rng.uniform(*F0_RANGE, size=2)
    t = np.arange(n) / SAMPLE_RATE
    glide = f_start + (f_end - f_start) * np.arange(n) / max(n - 1, 1)
    f0 = glide * (1.0 + 0.02 * np.sin(2.0 * np.pi * 5.0 * t
                                       + rng.uniform(0, 2 * np.pi)))
    phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    signal = np.zeros(n)
    harmonics = int(MAX_HARMONIC_HZ // f0.max())
    for k in range(1, harmonics + 1):
        signal += np.sin(k * phase + rng.uniform(0, 2 * np.pi)) / k
    signal *= 0.3 / np.max(np.abs(signal))
    ramp = np.minimum(1.0, np.minimum(np.arange(n) + 1, n - np.arange(n)) / RAMP)
    signal = signal * ramp + rng.normal(0.0, 0.01, n)
    return signal, f0


def make_clip(rng, name: str, seconds: float) -> Clip:
    n = int(round(seconds * SAMPLE_RATE))
    signal = np.zeros(n)
    f0_truth = np.zeros(n)
    kind = np.zeros(n, dtype=np.int8)
    pos = 0
    voiced = bool(rng.integers(0, 2))
    while pos < n:
        bounds = VOICED_SECONDS if voiced else UNVOICED_SECONDS
        length = min(n - pos, int(rng.uniform(*bounds) * SAMPLE_RATE))
        if voiced:
            signal[pos:pos + length], f0_truth[pos:pos + length] = \
                _voiced_stretch(rng, length)
            kind[pos:pos + length] = VOICED
        else:
            signal[pos:pos + length] = rng.normal(0.0, 0.05, length)
        pos += length
        voiced = not voiced

    frames = (n - FRAME_LEN) // HOP + 1
    starts = np.arange(frames) * HOP
    windows = np.lib.stride_tricks.sliding_window_view(kind, FRAME_LEN)[starts]
    all_voiced = np.all(windows == VOICED, axis=1)
    all_unvoiced = np.all(windows == UNVOICED, axis=1)
    voicing = np.where(all_voiced, VOICED,
                       np.where(all_unvoiced, UNVOICED, UNSCORED))
    f0 = np.where(all_voiced, f0_truth[starts + FRAME_LEN // 2], 0.0)
    samples = np.clip(np.rint(signal * FULL_SCALE), -32768, 32767)
    return Clip(name=name, samples=samples.astype(np.int16),
                voicing=voicing.astype(np.int8), f0=f0)


def make_clips(seed: int, count: int) -> list[Clip]:
    """count clips, lengths cycling through CLIP_SECONDS in a seeded order."""
    rng = np.random.default_rng(seed)
    lengths = [CLIP_SECONDS[i % len(CLIP_SECONDS)] for i in range(count)]
    order = rng.permutation(count)
    return [make_clip(rng, f"clip{i:03d}", lengths[j])
            for i, j in enumerate(order)]


def write_wav(path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE)
        wav.writeframes(samples.astype("<i2").tobytes())


def write_corpus(directory, clips: list[Clip]) -> str:
    """Write each clip as a WAV plus an extract manifest; returns its path."""
    os.makedirs(directory, exist_ok=True)
    lines = ["id\tspeaker\tgender\temotion\tsentence\trepetition\taudio"]
    for i, clip in enumerate(clips):
        write_wav(os.path.join(directory, f"{clip.name}.wav"), clip.samples)
        lines.append(f"{clip.name}\tspk00\tmale\tneutral\t{i + 1}\t1\t"
                     f"{clip.name}.wav")
    manifest = os.path.join(directory, "manifest.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def pitch_errors(clip: Clip, f0_est: np.ndarray, voiced_est: np.ndarray):
    """(gross F0 errors, F0-scored frames, voicing errors, voicing-scored frames).

    A gross error is a frame voiced in both truth and estimate whose
    estimated F0 is off by more than 20% of the truth.
    """
    scored = clip.voicing != UNSCORED
    truth_voiced = clip.voicing == VOICED
    voicing_errors = int(np.sum(scored & (truth_voiced != voiced_est)))
    both = truth_voiced & voiced_est
    gross = np.abs(f0_est[both] - clip.f0[both]) > 0.2 * clip.f0[both]
    return int(gross.sum()), int(both.sum()), voicing_errors, int(scored.sum())
