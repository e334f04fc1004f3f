"""Suprasegmental layer: prosodic segment summaries and score fusion.

An acoustic alignment cuts an utterance into per-state segments. Each
segment is condensed into one row of 5 summary columns (mean voiced F0,
F0 slope, mean log energy, duration fraction, voicing ratio), and
segment_summaries and supra_observations return the rows as a read-only
(S, 5) array. The prosodic model that scores them is an hmm.AcousticModel
over the 5 summary columns, on top of the acoustic one. The two raw log
scores are blended by a weighting factor alpha (blend): alpha 0 trusts only
the acoustic model, alpha 1 only the prosodic one. This is the one stage-a
rule, for identify and the sweep alike.

The summaries are taken per acoustic state: an alignment to an N-state
acoustic model gives N of them. The prosodic model is sized by its own
state count alone (num_supra_states, 3 by default, at most N).

summary_stack is the one summaries kernel: it condenses a stack of
alignments of one track in a single grouped sum, and segment_summaries is
its one-path view. Stage a has one scoring routine, stage_a_components:
per emotion its own acoustic forward and Viterbi calls and its own
prosodic forward, with one summary_stack call over the alignments.
score_components and fused_score are its one-emotion view. The sweep
(evaluation.alpha_sweep) scores the same quantities through hmm.ModelStack
and summary_stack, bit for bit, and blends them by the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container, hmm
from .container import readonly
from .errors import IllegalPathError, LengthMismatchError
from .frontend import ProsodicTrack

SUPRA_DIM = 5
DEFAULT_SUPRA_STATES = 3
DEFAULT_SUPRA_MIXTURES = 3


@dataclass(frozen=True)
class FusionConfig:
    """The stage-a blending weight: alpha 0 trusts only the acoustic score,
    alpha 1 only the prosodic one."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 <= float(self.alpha) <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        object.__setattr__(self, "alpha", float(self.alpha))


def summary_stack(paths, track: ProsodicTrack, num_states) -> np.ndarray:
    """The segment summaries of E alignments of one track, shape (E, S, 5).

    paths is an (E, T) integer array, one row per alignment of the track's
    T frames (another dtype raises IllegalPathError naming it: a cast would
    truncate a fractional state). Each must start at state 0, advance by 0
    or 1 and stay below num_states (an int, or one bound per path). Row
    (e, s) summarises path e's frames in state s; S is one more than the
    last state any path reaches, and a path that ends sooner leaves its
    later rows 0. F0 statistics use voiced frames only: a fully unvoiced
    segment reports F0 mean and slope 0, and a single voiced frame reports
    slope 0.

    One grouped sum over the labels e*S + path[e, t] summarises the whole
    stack. hmm._grouped_sums adds each segment's frames in frame order, so
    each summary equals the one segment_summaries gives for its path alone,
    bit for bit, and the prosodic models trained on them keep every bit.
    """
    paths = np.asarray(paths)
    if paths.dtype.kind not in "iu":
        raise IllegalPathError(f"a path must hold integer state indices, "
                               f"not {paths.dtype}")
    paths = paths.astype(np.int64, copy=False)
    if paths.ndim != 2 or paths.shape[1] != len(track):
        raise LengthMismatchError(f"paths of shape {paths.shape} do not match "
                                  f"track length {len(track)}")
    count, t_total = paths.shape
    steps = paths[:, 1:] - paths[:, :-1]
    # a negative step wraps round to a huge unsigned one, so one comparison
    # bounds every step to 0 or 1
    if (t_total == 0 or (paths[:, 0] != 0).any()
            or not (steps.view(np.uint64) <= 1).all()
            or (paths[:, -1] >= num_states).any()):
        raise IllegalPathError("path must start at state 0 and advance by 0 or 1 "
                               "below num_states")

    # A legal path advances by 0 or 1 from state 0, so path[t] is the index
    # of frame t's segment.
    segments = int(paths[:, -1].max()) + 1
    cells = count * segments
    labels = (paths + segments * np.arange(count)[:, None]).ravel()
    voiced, f0 = track.voiced, track.f0
    pos = np.arange(t_total, dtype=np.float64)
    columns = np.empty((count, t_total, 4))
    columns[..., 0] = voiced
    columns[..., 1] = f0
    columns[..., 2] = pos * voiced
    columns[..., 3] = track.log_energy
    sums, frames = hmm._grouped_sums(columns.reshape(-1, 4), labels, cells)
    n_voiced, f0_sum, pos_sum, energy_sum = sums.T

    vectors = np.zeros((cells, SUPRA_DIM))
    has_voice = n_voiced > 0
    mean_f0 = np.divide(f0_sum, n_voiced, out=vectors[:, 0], where=has_voice)
    mean_pos = np.divide(pos_sum, n_voiced, out=np.zeros(cells),
                         where=has_voice)
    # least-squares line through (frame position, F0) over the voiced
    # frames of each segment, in centred form
    d_pos = np.where(voiced, pos - mean_pos[labels].reshape(count, t_total),
                     0.0)
    d_f0 = np.where(voiced, f0 - mean_f0[labels].reshape(count, t_total), 0.0)
    # columns 0 and 1 are read; they take the slope's products
    np.multiply(d_pos, d_f0, out=columns[..., 0])
    np.multiply(d_pos, d_pos, out=columns[..., 1])
    cross, spread = hmm._grouped_sums(columns[..., :2].reshape(-1, 2), labels,
                                      cells)[0].T
    np.divide(cross, spread, out=vectors[:, 1], where=n_voiced >= 2)
    present = frames > 0
    np.divide(energy_sum, frames, out=vectors[:, 2], where=present)
    np.divide(frames, t_total, out=vectors[:, 3])
    np.divide(n_voiced, frames, out=vectors[:, 4], where=present)
    return vectors.reshape(count, segments, SUPRA_DIM)


def segment_summaries(path, track: ProsodicTrack,
                      num_states: int) -> np.ndarray:
    """Condense each aligned state segment into one prosodic summary vector:
    summary_stack of the one path, whose states lie below num_states."""
    return readonly(summary_stack(np.asarray(path)[None], track,
                                  num_states)[0])


def supra_observations(acoustic: hmm.AcousticModel,
                       utterance) -> np.ndarray:
    """Align an utterance with the acoustic model and summarize its segments."""
    features, track = utterance
    path, _ = hmm.viterbi(acoustic, features)
    return segment_summaries(path, track, acoustic.num_states)


def seed_suprasegmental(acoustics, utterance_lists,
                        num_supra_states: int = DEFAULT_SUPRA_STATES,
                        num_mixtures: int = DEFAULT_SUPRA_MIXTURES,
                        variance_floor: float = hmm.VARIANCE_FLOOR):
    """The seeded prosodic models of G acoustic models and their training
    sequences.

    Each utterance of utterance_lists[g] is Viterbi-aligned with
    acoustics[g] and its segment summaries form one training sequence;
    one hmm.init_model_stack call seeds the G num_supra_states-state models
    on them. Returns (models, sequence_lists).
    """
    sequence_lists = [[supra_observations(acoustic, utt) for utt in utts]
                      for acoustic, utts in zip(acoustics, utterance_lists)]
    return (hmm.init_model_stack(sequence_lists, num_supra_states,
                                 num_mixtures, variance_floor),
            sequence_lists)


def train_suprasegmental(acoustic: hmm.AcousticModel, utterances,
                         num_supra_states: int = DEFAULT_SUPRA_STATES,
                         num_mixtures: int = DEFAULT_SUPRA_MIXTURES,
                         max_iters: int = hmm.EM_MAX_ITERS,
                         tol: float = hmm.EM_TOL,
                         variance_floor: float = hmm.VARIANCE_FLOOR,
                         ) -> tuple[hmm.AcousticModel, hmm.TrainingReport]:
    """Train the prosodic model on top of a trained acoustic model: the
    seed_suprasegmental model of the one acoustic model, refined by
    hmm.baum_welch on its sequences."""
    (init,), (sequences,) = seed_suprasegmental(
        [acoustic], [utterances], num_supra_states, num_mixtures,
        variance_floor)
    return hmm.baum_welch(init, sequences, max_iters=max_iters, tol=tol,
                          variance_floor=variance_floor)


def stage_a_components(pairs, utterance):
    """score_components of one utterance under E (acoustic, prosodic) model
    pairs, as a list of E (log_acoustic, log_supra) pairs.

    Each pair makes its own forward_log_likelihood and viterbi call on the
    features and its own prosodic forward_log_likelihood; one summary_stack
    call summarises the E alignments.
    """
    features, track = utterance
    log_acoustic, paths = [], []
    for acoustic, _ in pairs:
        log_acoustic.append(hmm.forward_log_likelihood(acoustic, features))
        paths.append(hmm.viterbi(acoustic, features)[0])
    summaries = summary_stack(
        paths, track, [acoustic.num_states for acoustic, _ in pairs])
    return [(log_a, hmm.forward_log_likelihood(supra, rows[:path[-1] + 1]))
            for (_, supra), log_a, path, rows in zip(pairs, log_acoustic,
                                                     paths, summaries)]


def score_components(acoustic: hmm.AcousticModel, supra: hmm.AcousticModel,
                     utterance):
    """Acoustic and prosodic log scores of one utterance, before blending:
    stage_a_components of the one pair."""
    return stage_a_components([(acoustic, supra)], utterance)[0]


def blend(log_acoustic: float, log_supra: float, alpha: float) -> float:
    """The stage-a score: (1 - alpha) * acoustic + alpha * prosodic, of
    floats or, elementwise, of arrays that broadcast.

    For finite scores both endpoints are exact: alpha 0 gives the acoustic
    score and alpha 1 the prosodic one, bit for bit.
    """
    return (1.0 - alpha) * log_acoustic + alpha * log_supra


def fused_score(acoustic: hmm.AcousticModel, supra: hmm.AcousticModel,
                utterance, cfg: FusionConfig = FusionConfig()) -> float:
    """The blend of an utterance's two log scores under cfg.

    Both streams are scored at every alpha, so an utterance that no
    left-to-right path fits raises NoLegalPathError even at alpha 0.
    """
    return blend(*score_components(acoustic, supra, utterance), cfg.alpha)


# A prosodic model is stored as any other model (hmm.encode_model).

_SUPRA_MAGIC = b"EMOSM001"


def decode_supra(spec: dict, payload) -> hmm.AcousticModel:
    model = hmm.decode_model(spec, payload)
    if model.feature_dim != SUPRA_DIM:
        raise ValueError(f"a prosodic model emits {SUPRA_DIM} columns, not "
                         f"{model.feature_dim}")
    return model


def save_supra_model(model: hmm.AcousticModel, path) -> None:
    """Write the model as a container file (see emocue.container)."""
    spec, data = hmm.encode_model(model)
    container.write(path, _SUPRA_MAGIC, spec, [data])


def load_supra_model(path) -> hmm.AcousticModel:
    return container.read(path, _SUPRA_MAGIC, "suprasegmental model",
                          decode_supra)
