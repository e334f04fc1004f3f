"""Suprasegmental layer: prosodic segment summaries and score fusion.

An acoustic alignment cuts an utterance into per-state segments. Each
segment is condensed into one 5-dimensional prosodic summary (F0 mean and
slope, mean log energy, duration fraction, voicing ratio), and the summary
sequence is scored by a small left-to-right model that sits on top of the
acoustic one. The two log scores are blended by a weighting factor alpha:
alpha 0 trusts only the acoustic model, alpha 1 only the prosodic one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container, hmm
from .container import readonly
from .errors import IllegalPathError, LengthMismatchError
from .frontend import ProsodicTrack

SUPRA_DIM = 5
DEFAULT_GROUPS = (3, 3, 3)
DEFAULT_SUPRA_MIXTURES = 3


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
        object.__setattr__(self, "vectors", readonly(vectors))

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.vectors, dtype=dtype, copy=copy)


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
    t_total = path.size
    steps = path[1:] - path[:-1]
    # a negative step wraps round to a huge unsigned one, so one comparison
    # bounds every step to 0 or 1
    if (t_total == 0 or path[0] != 0 or not (steps.view(np.uint64) <= 1).all()
            or path[-1] >= mapping.num_acoustic_states):
        raise IllegalPathError("path must start at state 0 and advance by 0 or 1 "
                               "within the mapped state range")

    # A legal path advances by 0 or 1 from state 0, so path[t] is the index
    # of frame t's segment. hmm._grouped_sums adds each segment's frames in
    # frame order, as a bincount per statistic did, so the summaries (and
    # the prosodic models trained on them) keep every bit.
    segments = int(path[-1]) + 1
    voiced, f0 = track.voiced, track.f0
    pos = np.arange(t_total, dtype=np.float64)
    columns = np.empty((t_total, 4))
    columns[:, 0] = voiced
    columns[:, 1] = f0
    np.multiply(pos, voiced, out=columns[:, 2])
    columns[:, 3] = track.log_energy
    sums, frames = hmm._grouped_sums(columns, path, segments)
    n_voiced, f0_sum, pos_sum, energy_sum = sums.T

    vectors = np.zeros((segments, SUPRA_DIM))
    has_voice = n_voiced > 0
    mean_f0 = np.divide(f0_sum, n_voiced, out=vectors[:, 0], where=has_voice)
    mean_pos = np.divide(pos_sum, n_voiced, out=np.zeros(segments),
                         where=has_voice)
    # least-squares line through (frame position, F0) over the voiced
    # frames of each segment, in centred form
    d_pos = np.where(voiced, pos - mean_pos[path], 0.0)
    d_f0 = np.where(voiced, f0 - mean_f0[path], 0.0)
    # columns 0 and 1 are read; they take the slope's products
    np.multiply(d_pos, d_f0, out=columns[:, 0])
    np.multiply(d_pos, d_pos, out=columns[:, 1])
    cross, spread = hmm._grouped_sums(columns[:, :2], path, segments)[0].T
    np.divide(cross, spread, out=vectors[:, 1], where=n_voiced >= 2)
    np.divide(energy_sum, frames, out=vectors[:, 2])
    np.divide(frames, t_total, out=vectors[:, 3])
    np.divide(n_voiced, frames, out=vectors[:, 4])
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
    return _component_pair(log_acoustic, summaries, supra, len(features),
                           length_normalize)


def aligned_components(log_acoustic: float, path, supra: SuprasegmentalModel,
                       utterance, length_normalize: bool = False):
    """score_components from the acoustic model's score of the utterance
    and its Viterbi path, as an hmm.ModelStack pass gives them."""
    features, track = utterance
    summaries = segment_summaries(path, track, supra.mapping)
    return _component_pair(log_acoustic, summaries, supra, len(features),
                           length_normalize)


def _component_pair(log_acoustic: float, summaries,
                    supra: SuprasegmentalModel, num_frames: int,
                    length_normalize: bool):
    """The two scores, the prosodic one from the segment summaries."""
    log_supra = hmm.forward_log_likelihood(supra.core, summaries)
    if length_normalize:
        log_acoustic /= num_frames
        log_supra /= len(summaries)
    return log_acoustic, log_supra


def blend(log_acoustic: float, log_supra: float, alpha: float) -> float:
    """The stage-a score: (1 - alpha) * acoustic + alpha * prosodic.

    For finite scores both endpoints are exact: alpha 0 gives the acoustic
    score and alpha 1 the prosodic one, bit for bit.
    """
    return (1.0 - alpha) * log_acoustic + alpha * log_supra


def fused_score(acoustic: hmm.AcousticModel, supra: SuprasegmentalModel,
                utterance, cfg: FusionConfig = FusionConfig()) -> float:
    """The blend of an utterance's two log scores under cfg.

    Both streams are scored at every alpha, so an utterance that no
    left-to-right path fits raises NoLegalPathError even at alpha 0.
    """
    return blend(*score_components(acoustic, supra, utterance,
                                   cfg.length_normalize), cfg.alpha)


# A suprasegmental model is stored as its core model (hmm.encode_model) with
# the mapping's group sizes added to the shape header.

_SUPRA_MAGIC = b"EMOSM001"


def encode_supra(model: SuprasegmentalModel) -> tuple[dict, bytes]:
    spec, data = hmm.encode_model(model.core)
    return {**spec, "group_sizes": list(model.mapping.group_sizes)}, data


def decode_supra(spec: dict, payload) -> SuprasegmentalModel:
    return SuprasegmentalModel(
        core=hmm.decode_model(spec, payload),
        mapping=SupraMapping(group_sizes=tuple(spec["group_sizes"])))


def save_supra_model(model: SuprasegmentalModel, path) -> None:
    """Write the model as a container file (see emocue.container)."""
    spec, data = encode_supra(model)
    container.write(path, _SUPRA_MAGIC, spec, [data])


def load_supra_model(path) -> SuprasegmentalModel:
    return container.read(path, _SUPRA_MAGIC, "suprasegmental model",
                          decode_supra)
