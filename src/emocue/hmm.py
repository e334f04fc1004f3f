"""Continuous-density left-to-right HMMs with diagonal-covariance GMM emissions.

States are indexed 0..N-1. The topology is strictly left-to-right: a state
may loop on itself or advance by one, the last state is absorbing, and all
probability starts in state 0. Scoring and training run entirely in natural
log space.

Conventions:

* forward_log_likelihood sums over all paths regardless of the final state,
* viterbi decodes the best path that ends in the last state, so a decodable
  sequence must be at least num_states frames long; ties between looping
  and advancing resolve to looping,
* observations must be finite; a NaN or infinite entry raises
  NonFiniteObservationError naming the first bad frame.

Numerics:

* Emissions. All N*M diagonal Gaussians of a model are evaluated in one
  pass per sequence from the expanded quadratic
  x^2 . (1/var) - 2 x . (mean/var) + const, as a BLAS product. Features and
  means are first centred on the model's mean of means. Against a scalar
  evaluation (16 dimensions, floor variances, features 0.05 from the
  means), the uncentred expansion is off by 2e-9 at feature offset 10 and
  3e-5 at offset 1e3; centred, by about 1e-13 at any offset. An
  overflowing cross term (inf - inf) saturates to a -inf log density,
  never NaN.
* Recursions. In the left-to-right band, state j's scores over time obey
  a first-order recurrence x_t = op(x_{t-1} + s, e_t) + b_t: s is the log
  self-loop, e_t the entry from state j-1 (its score at t-1 plus the log
  advance), b_t the log emission, and op is logaddexp (max for Viterbi).
  With the offset C_t = sum of s + b over frames 1..t, y = x - C obeys
  y_t = op(y_{t-1}, e_t - C_{t-1} - s): one np.logaddexp.accumulate
  (np.maximum.accumulate) over time, so each pass loops over the N states
  instead of the T frames. Backward is the same recurrence in reversed
  time. Viterbi loops where y_t == y_{t-1}, that is where
  y_{t-1} >= e_t - C_{t-1} - s, so ties still go to looping. A -inf in
  s + b (a zero self-loop, an emission that underflowed) leaves C
  undefined from there on; that state then runs the recurrence frame by
  frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySequenceError,
    EmptyTrainingSetError,
    NoLegalPathError,
    NonFiniteObservationError,
    NumericalUnderflowError,
    SequenceTooShortError,
    UnsupportedFormatError,
)

VARIANCE_FLOOR = 1e-4
EM_TOL = 1e-5
EM_MAX_ITERS = 40

_LOG_2PI = np.log(2.0 * np.pi)
_ROW_SUM_TOL = 1e-9


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GaussianMixture:
    """Diagonal-covariance Gaussian mixture over one emission state."""

    weights: np.ndarray    # (M,)
    means: np.ndarray      # (M, D)
    variances: np.ndarray  # (M, D)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        if weights.ndim != 1 or means.ndim != 2 or variances.shape != means.shape:
            raise ValueError("expected weights (M,), means and variances (M, D)")
        if weights.size != means.shape[0]:
            raise ValueError("one weight per component required")
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "weights", _readonly(weights))
        object.__setattr__(self, "means", _readonly(means))
        object.__setattr__(self, "variances", _readonly(variances))

    @property
    def num_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class AcousticModel:
    """Left-to-right GMM-HMM. All initial probability sits on state 0."""

    num_states: int
    feature_dim: int
    transitions: np.ndarray                 # (N, N), banded row-stochastic
    mixtures: tuple[GaussianMixture, ...]   # one per state

    def __post_init__(self):
        n = self.num_states
        transitions = np.asarray(self.transitions, dtype=np.float64)
        mixtures = tuple(self.mixtures)
        if n < 1:
            raise ValueError("num_states must be >= 1")
        if transitions.shape != (n, n):
            raise ValueError(f"transitions must be ({n}, {n})")
        if len(mixtures) != n:
            raise ValueError("one mixture per state required")
        band = np.triu(np.tril(np.ones((n, n), dtype=bool), 1))
        if np.any(transitions[~band] != 0.0):
            raise ValueError("only self and single-step transitions may be nonzero")
        if np.any(transitions < 0.0):
            raise ValueError("transition probabilities must be non-negative")
        if np.any(np.abs(transitions.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
            raise ValueError("transition rows must sum to 1")
        for mix in mixtures:
            if mix.dim != self.feature_dim:
                raise ValueError("mixture dimension must match feature_dim")
        object.__setattr__(self, "transitions", _readonly(transitions))
        object.__setattr__(self, "mixtures", mixtures)

    @cached_property
    def _emission(self) -> _EmissionTable:
        return _pack_emissions(self.mixtures)


@dataclass(frozen=True)
class TrainingReport:
    """Per-iteration log-likelihoods of a Baum-Welch run.

    Each entry is the total training-set log-likelihood evaluated before the
    corresponding parameter update; EM makes the list non-decreasing.
    """

    log_likelihood_per_iteration: tuple[float, ...]
    iterations_run: int
    converged: bool


def _as_observations(model: AcousticModel, seq) -> np.ndarray:
    obs = np.asarray(seq, dtype=np.float64)
    if obs.ndim != 2:
        raise DimensionMismatchError(f"observations must be 2-D, got shape {obs.shape}")
    if obs.shape[0] == 0:
        raise EmptySequenceError("empty observation sequence")
    if obs.shape[1] != model.feature_dim:
        raise DimensionMismatchError(
            f"model expects dimension {model.feature_dim}, got {obs.shape[1]}")
    _check_finite(obs)
    return obs


def _check_finite(obs: np.ndarray) -> None:
    finite = np.isfinite(obs)
    if not finite.all():
        frame = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise NonFiniteObservationError(
            f"observation frame {frame} of {obs.shape[0]} is not finite")


def _log_weights(weights: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(weights)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along one axis, shifted by the maximum.

    A slice that is all -inf gives -inf. Local because scipy's dispatch
    costs more than the arithmetic on arrays this small.
    """
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.exp(a - peak), axis=axis))
    return total + np.squeeze(peak, axis=axis)


@dataclass(frozen=True)
class _EmissionTable:
    """A model's Gaussians packed for one BLAS pass (see the module notes).

    Rows run component-major (row m*N + j is component m of state j), so the
    mixture sum reduces over the leading axis. States with fewer than M
    components are padded with zero-weight ones.
    """

    centre: np.ndarray      # (D,) mean of all component means
    coef: np.ndarray        # (M*N, 2D): -0.5/var, then centred mean/var
    const: np.ndarray       # (M*N, 1) log weight + normaliser, -inf if weight 0
    shape: tuple[int, int]  # (M, N)


def _pack_emissions(mixtures) -> _EmissionTable:
    n = len(mixtures)
    m = max(mix.num_components for mix in mixtures)
    dim = mixtures[0].dim
    centre = np.concatenate([mix.means for mix in mixtures]).mean(axis=0)
    log_w = np.full((m, n), -np.inf)
    means = np.zeros((m, n, dim))
    prec = np.ones((m, n, dim))
    log_det = np.zeros((m, n))
    for j, mix in enumerate(mixtures):
        k = mix.num_components
        log_w[:k, j] = _log_weights(mix.weights)
        means[:k, j] = mix.means - centre
        prec[:k, j] = 1.0 / mix.variances
        log_det[:k, j] = np.sum(np.log(mix.variances), axis=1)
    const = log_w - 0.5 * (dim * _LOG_2PI + log_det
                           + np.sum(means * means * prec, axis=2))
    coef = np.concatenate([-0.5 * prec, means * prec], axis=2)
    return _EmissionTable(centre=centre, coef=coef.reshape(m * n, 2 * dim),
                          const=const.reshape(m * n, 1), shape=(m, n))


def _emissions(model: AcousticModel, obs: np.ndarray):
    """Weighted component log densities, shape (M, N, T), and their mixture
    sums log b_j(o_t), state-major with shape (N, T)."""
    table = model._emission
    x = obs - table.centre
    # an extreme outlier may overflow x^2 or the cross term; -inf is the
    # correct saturation and inf - inf is mapped to it below
    with np.errstate(over="ignore", invalid="ignore"):
        comp = table.coef @ np.concatenate((x * x, x), axis=1).T
        comp += table.const
    comp = comp.reshape(*table.shape, obs.shape[0])
    lb = _logsumexp(comp, axis=0)
    if np.isnan(lb).any():
        comp[np.isnan(comp)] = -np.inf
        lb = _logsumexp(comp, axis=0)
    return comp, lb


def state_log_densities(model: AcousticModel, obs: np.ndarray) -> np.ndarray:
    """log b_j(o_t) for every frame and state, shape (T, N)."""
    return _emissions(model, obs)[1].T


def _log_band(model: AcousticModel):
    """Log self-loop and advance probabilities of the transition band."""
    with np.errstate(divide="ignore"):
        la_self = np.log(np.diag(model.transitions))
        la_next = np.log(np.diag(model.transitions, 1))
    return la_self, la_next


def _frames(first: float, loop: np.ndarray, enter: np.ndarray,
            emit: np.ndarray, best: bool):
    """x_0 = first, x_t = op(x_{t-1} + loop_t, enter_t) + emit_t, frame by
    frame: the fallback for a state whose cumulative offset is -inf.

    The arrays hold the terms for t = 1..L-1; op is logaddexp, or max when
    best is set. Returns x and the flags of the frames where looping won
    (ties included).
    """
    x = np.empty(loop.size + 1)
    x[0] = first
    looped = np.empty(loop.size, dtype=bool)
    with np.errstate(over="ignore"):   # a score past -1.8e308 saturates
        for t in range(loop.size):
            stay = x[t] + loop[t]
            looped[t] = stay >= enter[t]
            if best:
                x[t + 1] = (stay if looped[t] else enter[t]) + emit[t]
            else:
                x[t + 1] = np.logaddexp(stay, enter[t]) + emit[t]
    return x, looped


def _forward(model: AcousticModel, lb: np.ndarray, best: bool = False):
    """Forward (or, with best, Viterbi) scores from state-major log
    emissions lb of shape (N, T).

    Returns the (N, T) scores and, with best, the (N, T-1) flags of frames
    t = 1..T-1 where looping won (else None).
    """
    la_self, la_next = _log_band(model)
    n, t_len = lb.shape
    offset = np.zeros((n, t_len))
    # Both branches into (j, t) add frame t's emission, so the entry is
    # shifted by the offset before it; no emission enters the comparison.
    # An offset that overflows to -inf sends its state to the frame loop;
    # that state's shifted entries are garbage and go unused.
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(lb[:, 1:] + la_self[:, None], axis=1, out=offset[:, 1:])
        shifted_enter = la_next[:, None] - (offset[1:, :-1] + la_self[1:, None])
    accumulate = np.maximum.accumulate if best else np.logaddexp.accumulate

    scores = np.empty((n, t_len))
    looped = np.empty((n, t_len - 1), dtype=bool)
    v = np.empty(t_len)
    for j in range(n):
        first = lb[0, 0] if j == 0 else -np.inf
        if not np.isfinite(offset[j, -1]):
            enter = (scores[j - 1, :-1] + la_next[j - 1] if j > 0
                     else np.full(t_len - 1, -np.inf))
            scores[j], looped[j] = _frames(
                first, np.full(t_len - 1, la_self[j]), enter, lb[j, 1:], best)
            continue
        v[0] = first
        if j > 0:
            np.add(scores[j - 1, :-1], shifted_enter[j - 1], out=v[1:])
        else:
            v[1:] = -np.inf
        y = accumulate(v)
        np.add(y, offset[j], out=scores[j])
        if best:
            np.equal(y[1:], y[:-1], out=looped[j])
    return scores, (looped if best else None)


def _backward(model: AcousticModel, lb: np.ndarray) -> np.ndarray:
    """Backward log probabilities, shape (N, T), from lb of shape (N, T).

    The same recurrence in reversed time; the offsets are suffix sums.
    """
    la_self, la_next = _log_band(model)
    n, t_len = lb.shape
    loop = lb[:, 1:] + la_self[:, None]
    offset = np.zeros((n, t_len))
    leave = lb[1:, 1:] + la_next[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(loop[:, ::-1], axis=1, out=offset[:, -2::-1])
        shifted_leave = leave - offset[:-1, :-1]

    beta = np.empty((n, t_len))
    v = np.empty(t_len)
    for j in range(n - 1, -1, -1):
        if not np.isfinite(offset[j, 0]):
            exit_ = (beta[j + 1, 1:] + leave[j] if j < n - 1
                     else np.full(t_len - 1, -np.inf))
            beta[j] = _frames(0.0, loop[j, ::-1], exit_[::-1],
                              np.zeros(t_len - 1), False)[0][::-1]
            continue
        v[-1] = 0.0
        if j < n - 1:
            np.add(beta[j + 1, 1:], shifted_leave[j], out=v[:-1])
        else:
            v[:-1] = -np.inf
        np.add(np.logaddexp.accumulate(v[::-1])[::-1], offset[j], out=beta[j])
    return beta


def forward_log_likelihood(model: AcousticModel, seq) -> float:
    """Total log-likelihood of the sequence, summed over all state paths."""
    obs = _as_observations(model, seq)
    alpha, _ = _forward(model, state_log_densities(model, obs).T)
    return float(_logsumexp(alpha[:, -1], axis=0))


def forward_backward(model: AcousticModel, seq):
    """Log-space forward and backward matrices, each of shape (T, N).

    For every t, logsumexp(alpha[t] + beta[t]) equals the total
    log-likelihood of the sequence.
    """
    obs = _as_observations(model, seq)
    lb = state_log_densities(model, obs).T
    return _forward(model, lb)[0].T, _backward(model, lb).T


def viterbi(model: AcousticModel, seq):
    """Best state path that starts in state 0 and ends in state N-1.

    Returns (path, log_probability) where path is an int array of state
    indices. Ties between looping and advancing resolve to looping.
    """
    obs = _as_observations(model, seq)
    lb = state_log_densities(model, obs).T
    delta, looped = _forward(model, lb, best=True)
    n, t_len = lb.shape

    log_prob = delta[n - 1, t_len - 1]
    if not np.isfinite(log_prob):
        raise NoLegalPathError(
            f"no left-to-right path through {n} states fits {t_len} frames")
    # State j runs back from frame t to the last frame at or before t where
    # it was entered from j-1 (looped is False there).
    path = np.empty(t_len, dtype=np.int64)
    t = t_len - 1
    for j in range(n - 1, 0, -1):
        start = int(np.flatnonzero(~looped[j, :t])[-1]) + 1
        path[start:t + 1] = j
        t = start - 1
    path[:t + 1] = 0
    return path, float(log_prob)


# --- initialization ----------------------------------------------------------

def _kmeans(frames: np.ndarray, k: int) -> np.ndarray:
    """Deterministic k-means labels for the given frames.

    Centers are seeded at evenly spaced quantiles along the highest-variance
    dimension, then refined by Lloyd iterations. The procedure depends only
    on the multiset of frames, so duplicating the data leaves it unchanged.
    """
    n = frames.shape[0]
    spread_dim = int(np.argmax(frames.var(axis=0)))
    order = np.argsort(frames[:, spread_dim], kind="stable")
    seed_positions = ((np.arange(k) + 0.5) * n / k).astype(np.int64)
    centers = frames[order[seed_positions]].copy()

    labels = None
    for _ in range(100):
        dist = np.sum((frames[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = frames[labels == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
    return labels


def _mixture_from_frames(frames: np.ndarray, num_mixtures: int,
                         variance_floor: float) -> GaussianMixture:
    labels = _kmeans(frames, num_mixtures)
    n, dim = frames.shape
    weights = np.zeros(num_mixtures)
    means = np.zeros((num_mixtures, dim))
    variances = np.full((num_mixtures, dim), variance_floor)
    overall_mean = frames.mean(axis=0)
    for j in range(num_mixtures):
        members = frames[labels == j]
        weights[j] = members.shape[0] / n
        if members.shape[0] > 0:
            means[j] = members.mean(axis=0)
            variances[j] = np.maximum(members.var(axis=0), variance_floor)
        else:
            # Empty cluster: park a zero-weight component at the chunk mean.
            means[j] = overall_mean
    return GaussianMixture(weights=weights, means=means, variances=variances)


def init_model(sequences, num_states: int, num_mixtures: int,
               variance_floor: float = VARIANCE_FLOOR,
               seed: int | None = None) -> AcousticModel:
    """Segmental initialization: uniform chunking plus per-state k-means.

    Each sequence is cut into num_states contiguous chunks; the pooled
    frames of chunk i seed state i's mixture. Transitions start at 0.5 for
    looping and advancing (the last state is absorbing). The k-means stage
    is deterministic, so the seed only fixes the contract for callers.
    """
    if num_states < 1 or num_mixtures < 1:
        raise ValueError("num_states and num_mixtures must be >= 1")
    del seed
    arrays = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not arrays:
        raise EmptyTrainingSetError("no training sequences")
    dim = arrays[0].shape[1] if arrays[0].ndim == 2 else -1
    for a in arrays:
        if a.ndim != 2 or a.shape[1] != dim:
            raise DimensionMismatchError("sequences must share one feature dimension")
        _check_finite(a)
        if a.shape[0] < num_states:
            raise SequenceTooShortError(
                f"sequence of {a.shape[0]} frames cannot seed {num_states} states")

    chunks = [np.array_split(a, num_states) for a in arrays]
    mixtures = tuple(
        _mixture_from_frames(
            np.concatenate([c[i] for c in chunks]), num_mixtures, variance_floor)
        for i in range(num_states))

    transitions = np.zeros((num_states, num_states))
    for i in range(num_states - 1):
        transitions[i, i] = 0.5
        transitions[i, i + 1] = 0.5
    transitions[num_states - 1, num_states - 1] = 1.0
    return AcousticModel(num_states=num_states, feature_dim=dim,
                         transitions=transitions, mixtures=mixtures)


# --- training ----------------------------------------------------------------

def _accumulate(model: AcousticModel, obs: np.ndarray, stats: dict) -> float:
    """One E-step over a single sequence; returns its log-likelihood."""
    comp, lb = _emissions(model, obs)                        # (M, N, T), (N, T)
    alpha, _ = _forward(model, lb)
    beta = _backward(model, lb)
    ll = float(_logsumexp(alpha[:, -1], axis=0))
    if not np.isfinite(ll):
        raise NumericalUnderflowError("sequence has zero likelihood under the model")

    la_self, la_next = _log_band(model)
    if obs.shape[0] > 1:
        # Band transition counts: xi over t for i->i and i->i+1.
        stay = alpha[:, :-1] + la_self[:, None] + lb[:, 1:] + beta[:, 1:] - ll
        move = (alpha[:-1, :-1] + la_next[:, None] + lb[1:, 1:] + beta[1:, 1:]
                - ll)
        stats["stay"] += np.exp(_logsumexp(stay, axis=1))
        stats["move"] += np.exp(_logsumexp(move, axis=1))

    # Responsibilities split each state's occupancy gamma across components;
    # where a state's emission underflowed, gamma is 0 and so is each share.
    log_share = alpha + beta - ll - np.where(np.isfinite(lb), lb, 0.0)
    resp = np.exp(comp + log_share)                          # (M, N, T)
    m, n, t_len = resp.shape
    moments = resp.reshape(m * n, t_len) @ np.concatenate((obs, obs * obs),
                                                          axis=1)
    dim = obs.shape[1]
    stats["resp"] += resp.sum(axis=2)
    stats["obs_sum"] += moments[:, :dim].reshape(m, n, dim)
    stats["sq_sum"] += moments[:, dim:].reshape(m, n, dim)
    return ll


def _reestimate(model: AcousticModel, stats: dict,
                variance_floor: float) -> AcousticModel:
    n = model.num_states
    transitions = np.zeros((n, n))
    for i in range(n - 1):
        out = stats["stay"][i] + stats["move"][i]
        if out > 0.0:
            transitions[i, i] = stats["stay"][i] / out
            transitions[i, i + 1] = stats["move"][i] / out
        else:
            # State never left during training data: keep its previous row.
            transitions[i, i] = model.transitions[i, i]
            transitions[i, i + 1] = model.transitions[i, i + 1]
    transitions[n - 1, n - 1] = 1.0

    mixtures = []
    for j in range(n):
        old = model.mixtures[j]
        k = old.num_components
        resp = stats["resp"][:k, j]
        total = resp.sum()
        if total <= 0.0:
            mixtures.append(old)
            continue
        weights = resp / total
        means = np.where(resp[:, None] > 0.0,
                         stats["obs_sum"][:k, j] / np.maximum(resp[:, None], 1e-300),
                         old.means)
        second = np.where(resp[:, None] > 0.0,
                          stats["sq_sum"][:k, j] / np.maximum(resp[:, None], 1e-300),
                          old.variances + old.means ** 2)
        variances = np.maximum(second - means ** 2, variance_floor)
        mixtures.append(GaussianMixture(weights=weights, means=means,
                                        variances=variances))
    return AcousticModel(num_states=n, feature_dim=model.feature_dim,
                         transitions=transitions, mixtures=tuple(mixtures))


def baum_welch(model: AcousticModel, sequences, max_iters: int = EM_MAX_ITERS,
               tol: float = EM_TOL,
               variance_floor: float = VARIANCE_FLOOR):
    """Multi-sequence EM refinement of an acoustic model.

    Stops once the relative log-likelihood improvement falls below tol or
    after max_iters expectation passes. Returns the refined model and a
    TrainingReport; the report's likelihood list is non-decreasing.
    """
    arrays = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not arrays:
        raise EmptyTrainingSetError("no training sequences")
    for a in arrays:
        _as_observations(model, a)
        if a.shape[0] < model.num_states:
            raise SequenceTooShortError(
                f"sequence of {a.shape[0]} frames is shorter than "
                f"{model.num_states} states")

    current = model
    lls: list[float] = []
    converged = False
    for _ in range(max_iters):
        m, n = current._emission.shape
        stats = {
            "stay": np.zeros(n), "move": np.zeros(n - 1),
            # component-major, as in _emissions
            "resp": np.zeros((m, n)),
            "obs_sum": np.zeros((m, n, current.feature_dim)),
            "sq_sum": np.zeros((m, n, current.feature_dim)),
        }
        ll = sum(_accumulate(current, a, stats) for a in arrays)
        lls.append(ll)
        if len(lls) > 1:
            gain = lls[-1] - lls[-2]
            if gain < tol * max(1.0, abs(lls[-2])):
                converged = True
                break
        current = _reestimate(current, stats, variance_floor)
    return current, TrainingReport(log_likelihood_per_iteration=tuple(lls),
                                   iterations_run=len(lls),
                                   converged=converged)


# --- persistence -------------------------------------------------------------

FILE_FORMAT = "emocue-model"
FILE_VERSION = 1


def model_to_dict(model: AcousticModel) -> dict:
    return {
        "num_states": model.num_states,
        "feature_dim": model.feature_dim,
        "transitions": model.transitions.tolist(),
        "states": [{"weights": mix.weights.tolist(),
                    "means": mix.means.tolist(),
                    "variances": mix.variances.tolist()}
                   for mix in model.mixtures],
    }


def model_from_dict(payload: dict) -> AcousticModel:
    mixtures = tuple(
        GaussianMixture(weights=np.array(s["weights"]),
                        means=np.array(s["means"]),
                        variances=np.array(s["variances"]))
        for s in payload["states"])
    return AcousticModel(num_states=payload["num_states"],
                         feature_dim=payload["feature_dim"],
                         transitions=np.array(payload["transitions"]),
                         mixtures=mixtures)


def save_model(model: AcousticModel, path) -> None:
    """Write the model as versioned JSON; parameters round-trip bit-exactly."""
    payload = {"format": FILE_FORMAT, "version": FILE_VERSION,
               "kind": "acoustic", **model_to_dict(model)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> AcousticModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != FILE_FORMAT or payload.get("version") != FILE_VERSION:
        raise UnsupportedFormatError(f"{path}: not a recognized model file")
    if payload.get("kind") != "acoustic":
        raise UnsupportedFormatError(
            f"{path}: expected an acoustic model, got {payload.get('kind')!r}")
    return model_from_dict(payload)
