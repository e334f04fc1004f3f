"""Suprasegmental layer: prosodic segment summaries and score fusion.

An acoustic alignment cuts an utterance into per-state segments. Each
segment is condensed into one 5-dimensional prosodic summary (F0 mean and
slope, mean log energy, duration fraction, voicing ratio), and the summary
sequence is scored by a small left-to-right model that sits on top of the
acoustic one. The two log scores are blended by a weighting factor alpha:
alpha 0 trusts only the acoustic model, alpha 1 only the prosodic one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import hmm
from .errors import IllegalPathError, LengthMismatchError, UnsupportedFormatError
from .frontend import ProsodicTrack

SUPRA_DIM = 5
DEFAULT_GROUPS = (3, 3, 3)
DEFAULT_SUPRA_MIXTURES = 3


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SupraMapping:
    """Contiguous grouping of acoustic states into suprasegmental states.

    group_sizes lists how many consecutive acoustic states feed each
    suprasegmental state; the default folds 9 acoustic states into 3.
    """

    group_sizes: tuple[int, ...] = DEFAULT_GROUPS

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.group_sizes)
        if len(sizes) == 0 or any(s < 1 for s in sizes):
            raise ValueError("group sizes must be positive")
        object.__setattr__(self, "group_sizes", sizes)

    @property
    def num_acoustic_states(self) -> int:
        return sum(self.group_sizes)

    @property
    def num_supra_states(self) -> int:
        return len(self.group_sizes)

    def supra_state_of(self, acoustic_state: int) -> int:
        """Index of the suprasegmental state covering an acoustic state."""
        if not 0 <= acoustic_state < self.num_acoustic_states:
            raise ValueError(f"acoustic state {acoustic_state} out of range")
        bounds = np.cumsum(self.group_sizes)
        return int(np.searchsorted(bounds, acoustic_state, side="right"))


@dataclass(frozen=True)
class SupraObservationSequence:
    """Per-segment prosodic summaries of one aligned utterance.

    Columns: mean voiced F0 (Hz), F0 slope (Hz/frame), mean log energy,
    segment duration as a fraction of the utterance, voicing ratio. The
    duration fractions cover the whole utterance, so they sum to 1.
    """

    vectors: np.ndarray  # (num_segments, 5)

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != SUPRA_DIM:
            raise ValueError(
                f"vectors must have shape (K, {SUPRA_DIM}), got {vectors.shape}")
        if vectors.shape[0] == 0:
            raise ValueError("at least one segment required")
        if abs(vectors[:, 3].sum() - 1.0) > 1e-9:
            raise ValueError("segment duration fractions must sum to 1")
        object.__setattr__(self, "vectors", _readonly(vectors))

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.vectors, dtype=dtype)


@dataclass(frozen=True)
class SuprasegmentalModel:
    """3-state (by default) LTR model over segment summaries plus its mapping."""

    core: hmm.AcousticModel
    mapping: SupraMapping

    def __post_init__(self):
        if self.core.feature_dim != SUPRA_DIM:
            raise ValueError(
                f"suprasegmental emissions must be {SUPRA_DIM}-dimensional")
        if self.core.num_states != self.mapping.num_supra_states:
            raise ValueError("core state count must match the mapping")


@dataclass(frozen=True)
class FusionConfig:
    """Score blending weight and optional per-stream length normalization."""

    alpha: float = 0.5
    length_normalize: bool = False

    def __post_init__(self):
        if not 0.0 <= float(self.alpha) <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        object.__setattr__(self, "alpha", float(self.alpha))


def segment_summaries(path, track: ProsodicTrack,
                      mapping: SupraMapping) -> SupraObservationSequence:
    """Condense each aligned state segment into one prosodic summary vector.

    F0 statistics use voiced frames only; a fully unvoiced segment reports
    F0 mean and slope 0, and a single voiced frame reports slope 0.
    """
    path = np.asarray(path, dtype=np.int64)
    if path.ndim != 1 or path.size != len(track):
        raise LengthMismatchError(
            f"path length {path.size} does not match track length {len(track)}")
    steps = np.diff(path)
    if (path.size == 0 or path[0] != 0 or np.any(steps < 0) or np.any(steps > 1)
            or path[-1] >= mapping.num_acoustic_states):
        raise IllegalPathError("path must start at state 0 and advance by 0 or 1 "
                               "within the mapped state range")

    # A legal path advances by 0 or 1 from state 0, so path[t] is the index
    # of frame t's segment and every statistic is a per-segment bincount.
    t_total = path.size
    segments = int(path[-1]) + 1

    def per_segment(weights):
        return np.bincount(path, weights=weights, minlength=segments)

    voiced = track.voiced
    frames = per_segment(None)
    n_voiced = per_segment(voiced)
    has_voice = n_voiced > 0
    mean_f0 = np.divide(per_segment(track.f0), n_voiced, out=np.zeros(segments),
                        where=has_voice)
    # least-squares line through (frame position, F0) over the voiced
    # frames of each segment, in centred form
    pos = np.arange(t_total, dtype=np.float64)
    mean_pos = np.divide(per_segment(pos * voiced), n_voiced,
                         out=np.zeros(segments), where=has_voice)
    d_pos = np.where(voiced, pos - mean_pos[path], 0.0)
    d_f0 = np.where(voiced, track.f0 - mean_f0[path], 0.0)
    slope = np.divide(per_segment(d_pos * d_f0), per_segment(d_pos * d_pos),
                      out=np.zeros(segments), where=n_voiced >= 2)
    vectors = np.column_stack((mean_f0, slope,
                               per_segment(track.log_energy) / frames,
                               frames / t_total, n_voiced / frames))
    return SupraObservationSequence(vectors=vectors)


def supra_observations(acoustic: hmm.AcousticModel, utterance,
                       mapping: SupraMapping) -> SupraObservationSequence:
    """Align an utterance with the acoustic model and summarize its segments."""
    features, track = utterance
    path, _ = hmm.viterbi(acoustic, features)
    return segment_summaries(path, track, mapping)


def train_suprasegmental(acoustic: hmm.AcousticModel, utterances,
                         mapping: SupraMapping = SupraMapping(),
                         num_mixtures: int = DEFAULT_SUPRA_MIXTURES,
                         max_iters: int = hmm.EM_MAX_ITERS,
                         tol: float = hmm.EM_TOL,
                         variance_floor: float = hmm.VARIANCE_FLOOR,
                         ) -> tuple[SuprasegmentalModel, hmm.TrainingReport]:
    """Train the prosodic model on top of a trained acoustic model.

    Each utterance is Viterbi-aligned, its segment summaries form one
    training sequence, and the summary model is initialized and refined
    with the shared HMM machinery.
    """
    if mapping.num_acoustic_states != acoustic.num_states:
        raise ValueError(
            f"mapping covers {mapping.num_acoustic_states} acoustic states, "
            f"model has {acoustic.num_states}")
    sequences = [supra_observations(acoustic, utt, mapping) for utt in utterances]
    init = hmm.init_model(sequences, mapping.num_supra_states, num_mixtures,
                          variance_floor=variance_floor)
    core, report = hmm.baum_welch(init, sequences, max_iters=max_iters, tol=tol,
                                  variance_floor=variance_floor)
    return SuprasegmentalModel(core=core, mapping=mapping), report


def score_components(acoustic: hmm.AcousticModel, supra: SuprasegmentalModel,
                     utterance, length_normalize: bool = False):
    """Acoustic and prosodic log scores of one utterance, before blending."""
    features, track = utterance
    log_acoustic = hmm.forward_log_likelihood(acoustic, features)
    summaries = supra_observations(acoustic, (features, track), supra.mapping)
    log_supra = hmm.forward_log_likelihood(supra.core, summaries)
    if length_normalize:
        log_acoustic /= len(features)
        log_supra /= len(summaries)
    return log_acoustic, log_supra


def fused_score(acoustic: hmm.AcousticModel, supra: SuprasegmentalModel,
                utterance, cfg: FusionConfig = FusionConfig()) -> float:
    """Blend the two log scores: (1 - alpha) * acoustic + alpha * prosodic.

    The endpoints are exact: alpha 0 returns the acoustic score without
    touching the prosodic stream, alpha 1 the reverse.
    """
    features, track = utterance
    if cfg.alpha == 0.0:
        score = hmm.forward_log_likelihood(acoustic, features)
        return score / len(features) if cfg.length_normalize else score
    if cfg.alpha == 1.0:
        summaries = supra_observations(acoustic, (features, track), supra.mapping)
        score = hmm.forward_log_likelihood(supra.core, summaries)
        return score / len(summaries) if cfg.length_normalize else score
    log_acoustic, log_supra = score_components(acoustic, supra, (features, track),
                                               cfg.length_normalize)
    return (1.0 - cfg.alpha) * log_acoustic + cfg.alpha * log_supra


def save_supra_model(model: SuprasegmentalModel, path) -> None:
    """Write the model as versioned JSON; parameters round-trip bit-exactly."""
    payload = {"format": hmm.FILE_FORMAT, "version": hmm.FILE_VERSION,
               "kind": "suprasegmental",
               "group_sizes": list(model.mapping.group_sizes),
               **hmm.model_to_dict(model.core)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_supra_model(path) -> SuprasegmentalModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if (payload.get("format") != hmm.FILE_FORMAT
            or payload.get("version") != hmm.FILE_VERSION):
        raise UnsupportedFormatError(f"{path}: not a recognized model file")
    if payload.get("kind") != "suprasegmental":
        raise UnsupportedFormatError(
            f"{path}: expected a suprasegmental model, got {payload.get('kind')!r}")
    return SuprasegmentalModel(
        core=hmm.model_from_dict(payload),
        mapping=SupraMapping(group_sizes=tuple(payload["group_sizes"])))
