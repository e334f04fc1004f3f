"""Corpus handling: manifests, train/test splits, normalization, synthesis.

A corpus is a flat list of utterance records (speaker, gender, emotion,
sentence, repetition) plus per-utterance features. Real corpora arrive as a
tab-separated manifest next to audio or a feature cache; synthetic corpora
are sampled from known generator models so classifier behavior can be
checked against ground truth.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import container, hmm
from .errors import (
    DegenerateDimensionError,
    DuplicateUtteranceError,
    ManifestError,
    UnknownLabelError,
    _utf8,
)
from .frontend import FEATURE_DIM, ProsodicTrack, UtteranceFeatures

DEFAULT_EMOTIONS = ("neutral", "angry", "sad", "happy", "disgust", "fear")
GENDERS = ("male", "female")

_MANIFEST_FIELDS = ("id", "speaker", "gender", "emotion",
                    "sentence", "repetition", "audio")


@dataclass(frozen=True)
class UtteranceRecord:
    """One corpus utterance and its labels. audio is None for cached features."""

    id: str
    speaker: str
    gender: str
    emotion: str
    sentence: int
    repetition: int
    audio: str | None = None

    @property
    def key(self) -> tuple[str, str, int, int]:
        return (self.speaker, self.emotion, self.sentence, self.repetition)


@dataclass(frozen=True)
class SplitProtocol:
    """Sentence-based train/test partition; the sets must not overlap."""

    train_sentences: tuple[int, ...] = (1, 2, 3, 4)
    test_sentences: tuple[int, ...] = (5, 6, 7, 8)

    def __post_init__(self):
        train = tuple(int(s) for s in self.train_sentences)
        test = tuple(int(s) for s in self.test_sentences)
        if not train or not test:
            raise ValueError("both sentence sets must be non-empty")
        if set(train) & set(test):
            raise ValueError("train and test sentence sets must be disjoint")
        object.__setattr__(self, "train_sentences", train)
        object.__setattr__(self, "test_sentences", test)


def load_manifest(path, emotions=DEFAULT_EMOTIONS) -> list[UtteranceRecord]:
    """Read a tab-separated manifest into validated records.

    The file carries one header line naming the fields id, speaker, gender,
    emotion, sentence, repetition, audio; "-" in the audio column means the
    features live in a cache. An empty file yields an empty list.
    """
    emotions = tuple(emotions)
    records: list[UtteranceRecord] = []
    seen_keys: set = set()
    seen_ids: set = set()
    with open(path, "r", encoding="utf-8", newline="") as fh, \
            _utf8(path, ManifestError):
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            return []
        if tuple(header) != _MANIFEST_FIELDS:
            raise ManifestError(
                f"{path}: expected header {'/'.join(_MANIFEST_FIELDS)}, "
                f"got {'/'.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_MANIFEST_FIELDS):
                raise ManifestError(
                    f"{path}:{lineno}: expected {len(_MANIFEST_FIELDS)} fields, "
                    f"got {len(row)}")
            uid, speaker, gender, emotion, sentence, repetition, audio = row
            if gender not in GENDERS:
                raise UnknownLabelError(f"{path}:{lineno}: unknown gender {gender!r}")
            if emotion not in emotions:
                raise UnknownLabelError(
                    f"{path}:{lineno}: unknown emotion {emotion!r}")
            try:
                sentence_i = int(sentence)
                repetition_i = int(repetition)
            except ValueError as exc:
                raise ManifestError(
                    f"{path}:{lineno}: sentence and repetition must be "
                    f"integers") from exc
            if sentence_i < 1 or repetition_i < 1:
                raise ManifestError(
                    f"{path}:{lineno}: sentence and repetition must be >= 1")
            record = UtteranceRecord(
                id=uid, speaker=speaker, gender=gender, emotion=emotion,
                sentence=sentence_i, repetition=repetition_i,
                audio=None if audio == "-" else audio)
            if record.key in seen_keys:
                raise DuplicateUtteranceError(
                    f"{path}:{lineno}: duplicate utterance {record.key}")
            if record.id in seen_ids:
                raise DuplicateUtteranceError(
                    f"{path}:{lineno}: duplicate id {record.id!r}")
            seen_keys.add(record.key)
            seen_ids.add(record.id)
            records.append(record)
    return records


def write_manifest(records, path) -> None:
    text = io.StringIO()
    writer = csv.writer(text, delimiter="\t", lineterminator="\n")
    writer.writerow(_MANIFEST_FIELDS)
    for r in records:
        writer.writerow([r.id, r.speaker, r.gender, r.emotion,
                         r.sentence, r.repetition,
                         "-" if r.audio is None else r.audio])
    container.replace(path, [text.getvalue()])


def split_records(records, protocol: SplitProtocol = SplitProtocol()):
    """Partition records into (train, test) by sentence index."""
    train_set = set(protocol.train_sentences)
    test_set = set(protocol.test_sentences)
    train, test = [], []
    for r in records:
        if r.sentence in train_set:
            train.append(r)
        elif r.sentence in test_set:
            test.append(r)
        else:
            raise ValueError(
                f"sentence {r.sentence} of {r.id!r} is in neither split")
    return train, test


@dataclass(frozen=True)
class NormalizationParams:
    """Per-dimension shift and scale estimated on a training set."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        normalized = np.subtract(features, self.mean, order="C")
        normalized /= self.std
        normalized.setflags(write=False)
        return normalized

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "NormalizationParams":
        mean = np.array(payload["mean"], dtype=np.float64)
        std = np.array(payload["std"], dtype=np.float64)
        if mean.shape != (FEATURE_DIM,) or std.shape != (FEATURE_DIM,):
            raise ValueError(f"normalization needs {FEATURE_DIM} means and "
                             f"deviations, got {mean.size} and {std.size}")
        if not (np.isfinite(mean).all() and np.isfinite(std).all()
                and (std > 0.0).all()):
            raise ValueError("normalization means must be finite and "
                             "deviations finite and positive")
        return cls(mean=mean, std=std)


def normalize_features(train: Mapping[str, np.ndarray]):
    """Z-normalize the training set with its own statistics.

    Returns (normalized train, params); params.apply normalizes held-out
    features the same way. A dimension that is constant across the training
    frames cannot be scaled and is an error.
    """
    if not train:
        raise DegenerateDimensionError("cannot normalize an empty training set")
    stacked = np.concatenate(list(train.values()))
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    degenerate = np.flatnonzero(std < 1e-12)
    if degenerate.size:
        raise DegenerateDimensionError(
            f"feature dimensions {degenerate.tolist()} are constant on the "
            f"training set")
    params = NormalizationParams(mean=mean, std=std)
    return {k: params.apply(v) for k, v in train.items()}, params


# --- synthetic corpus --------------------------------------------------------

_GEN_STATES = 3
_GEN_MIXTURES = 2
_GEN_ADVANCE = 0.1
_MIN_FRAMES = 60
_MAX_FRAMES = 101          # exclusive
_F0_BASE = 140.0
_F0_PER_UNIT = 12.0        # Hz of F0 base offset per unit of separation
_F0_JITTER = 3.0
_SLOPE_PER_UNIT = 0.02     # Hz/frame of F0 drift per unit of separation
_ENERGY_BASE = -1.5
_ENERGY_PER_UNIT = 0.25
_ENERGY_NOISE = 0.3
_VOICING_BASE = 0.8
_VOICING_PER_UNIT = 0.02


@dataclass(frozen=True)
class ProsodyProfile:
    """Per-emotion prosodic generator parameters."""

    f0_base: float
    f0_slope: float
    energy_base: float
    voicing_rate: float


@dataclass(frozen=True)
class SyntheticCorpus:
    """Sampled utterance records, their features and their split."""

    records: tuple[UtteranceRecord, ...]
    features: dict[str, UtteranceFeatures]
    protocol: SplitProtocol


def _unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _signed_grid(rng, count: int) -> np.ndarray:
    """Evenly spaced class offsets in [-1, 1], assigned in random order."""
    if count == 1:
        return np.zeros(1)
    return rng.permutation(np.linspace(-1.0, 1.0, count))


def synthesize_corpus(num_speakers: int,
                      emotions=DEFAULT_EMOTIONS,
                      train_sentences: int = 4,
                      test_sentences: int = 4,
                      repetitions: int = 3,
                      separation: float = 5.0,
                      seed: int = 0) -> SyntheticCorpus:
    """Sample a labeled corpus from internal per-(speaker, emotion) generators.

    Acoustic frames come from small left-to-right GMM generators whose means
    separate speakers (a shared per-speaker direction plus a per-pair
    direction); prosody depends on the emotion only. Every class-separating
    term scales with `separation`, so separation 0 collapses all classes
    onto one distribution. Generation is deterministic in the seed.
    """
    emotions = tuple(emotions)
    if num_speakers < 1 or repetitions < 1:
        raise ValueError("need at least one speaker and one repetition")
    if train_sentences < 1 or test_sentences < 1:
        raise ValueError("need at least one sentence on each side of the split")
    if not 0.0 <= separation < np.inf:
        raise ValueError(f"separation must be finite and >= 0, got {separation}")
    if len(set(emotions)) != len(emotions) or not emotions:
        raise ValueError("emotions must be a non-empty set of distinct labels")

    rng = np.random.default_rng(seed)
    dim = FEATURE_DIM
    speakers = tuple(f"spk{idx:02d}" for idx in range(num_speakers))

    # Shared structure: state drift and component offsets common to everyone.
    state_base = rng.normal(0.0, 0.6, size=(_GEN_STATES, dim))
    comp_dir = _unit_vector(rng, dim)
    comp_offsets = np.stack([0.9 * comp_dir, -0.9 * comp_dir])
    speaker_dirs = {s: _unit_vector(rng, dim) for s in speakers}
    pair_dirs = {(s, e): _unit_vector(rng, dim)
                 for s in speakers for e in emotions}

    z_f0 = _signed_grid(rng, len(emotions))
    z_slope = _signed_grid(rng, len(emotions))
    z_energy = _signed_grid(rng, len(emotions))
    z_voicing = _signed_grid(rng, len(emotions))
    prosody = {
        e: ProsodyProfile(
            f0_base=_F0_BASE + separation * _F0_PER_UNIT * z_f0[k],
            f0_slope=separation * _SLOPE_PER_UNIT * z_slope[k],
            energy_base=_ENERGY_BASE + separation * _ENERGY_PER_UNIT * z_energy[k],
            voicing_rate=float(np.clip(
                _VOICING_BASE + separation * _VOICING_PER_UNIT * z_voicing[k],
                0.55, 0.95)))
        for k, e in enumerate(emotions)
    }

    transitions = ((1.0 - _GEN_ADVANCE) * np.eye(_GEN_STATES)
                   + _GEN_ADVANCE * np.eye(_GEN_STATES, k=1))
    transitions[-1, -1] = 1.0
    grid = (_GEN_MIXTURES, _GEN_STATES)

    generators: dict[tuple[str, str], hmm.AcousticModel] = {}
    for s in speakers:
        for e in emotions:
            shift = separation * (0.6 * speaker_dirs[s] + 0.8 * pair_dirs[(s, e)])
            generators[(s, e)] = hmm.AcousticModel(
                transitions, np.full(grid, 1.0 / _GEN_MIXTURES),
                comp_offsets[:, None] + (state_base + shift),
                np.ones((*grid, dim)))

    num_sentences = train_sentences + test_sentences
    records: list[UtteranceRecord] = []
    features: dict[str, UtteranceFeatures] = {}
    for s_idx, s in enumerate(speakers):
        gender = GENDERS[s_idx % 2]
        for e in emotions:
            model = generators[(s, e)]
            profile = prosody[e]
            for sentence in range(1, num_sentences + 1):
                for rep in range(1, repetitions + 1):
                    uid = f"{s}_{e}_s{sentence}_r{rep}"
                    t_len = int(rng.integers(_MIN_FRAMES, _MAX_FRAMES))

                    moves = rng.random(t_len) < _GEN_ADVANCE
                    moves[0] = False
                    states = np.minimum(np.cumsum(moves), _GEN_STATES - 1)
                    comps = rng.integers(0, _GEN_MIXTURES, size=t_len)
                    vectors = (model.means[comps, states]
                               + rng.standard_normal((t_len, dim)))
                    vectors.setflags(write=False)

                    voiced = rng.random(t_len) < profile.voicing_rate
                    drift = profile.f0_slope * (np.arange(t_len) - t_len / 2.0)
                    f0 = np.clip(
                        profile.f0_base + drift + rng.normal(0, _F0_JITTER, t_len),
                        60.0, 400.0)
                    f0 = np.where(voiced, f0, 0.0)
                    log_energy = profile.energy_base + rng.normal(
                        0, _ENERGY_NOISE, t_len)

                    records.append(UtteranceRecord(
                        id=uid, speaker=s, gender=gender, emotion=e,
                        sentence=sentence, repetition=rep, audio=None))
                    features[uid] = UtteranceFeatures(
                        features=vectors,
                        prosody=ProsodicTrack(f0=f0, log_energy=log_energy,
                                              voiced=voiced))

    protocol = SplitProtocol(
        train_sentences=tuple(range(1, train_sentences + 1)),
        test_sentences=tuple(range(train_sentences + 1, num_sentences + 1)))
    return SyntheticCorpus(records=tuple(records), features=features,
                           protocol=protocol)
