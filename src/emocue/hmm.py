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
  NonFiniteObservationError naming the first bad frame, and its sequence
  where a call takes several. state_log_densities checks the frames of
  every scorer of one model, and ModelStack and EM check their own.

A model is its arrays (AcousticModel): one (M, N) grid of components,
every state with the same M. Its one constructor takes them: seeding, EM,
decoding and the emission pass read and write them directly.
GaussianMixture is only the per-state view that model.mixtures gives.

Numerics:

* Emissions. All N*M diagonal Gaussians of a model are evaluated in one
  pass per sequence from the expanded quadratic
  x^2 . (1/var) - 2 x . (mean/var) + const, as a BLAS product. Features and
  means are first centred on the model's mean of means, taken over its
  components in state-major order (the order of a file). Against a scalar
  evaluation (16 dimensions, floor variances, features 0.05 from the
  means), the uncentred expansion is off by 2e-9 at feature offset 10 and
  3e-5 at offset 1e3; centred, by about 1e-13 at any offset. Each state's
  mixture sum is shifted by its peak, the max over its components, and
  the floor, exp, sum and log run in place. An overflowing cross term
  (inf - inf) gives NaN, which the max carries, so one isfinite check on
  the (N, T) peaks finds it as well as a state whose every component is
  -inf. Only then does the pass map NaN to -inf and take _logsumexp's
  general path: the log density saturates to -inf, never NaN.
* Stacks. ModelStack scores K models of one topology in one pass. Their
  emission tables sit on a leading K axis, each model keeping its own
  centre, and _emissions makes one batched product over them; a single
  model is the same kernel with K = 1. A stack scores one sequence under
  every model, or a (K, T, D) stack of sequences, sequence k under model k.
  np.matmul computes each model's slice as the (M*N, 2D) by (2D, T) product
  the model's own pass makes, so the stacked densities equal the per-model
  ones bit for bit (the tests check every length from 1 to 120 frames).
  A stack holds models of one grid: padding a grid to a larger M would
  change the shape of its product, and OpenBLAS then rounds some rows
  differently.
* Recursions. In the left-to-right band, state j's scores over time obey
  a first-order recurrence x_t = op(x_{t-1} + s, e_t) + b_t: s is the log
  self-loop, e_t the entry from state j-1 (its score at t-1 plus the log
  advance), b_t the log emission, and op is logaddexp (max for Viterbi).
  With the offset C_t = sum of s + b over frames 1..t, y = x - C obeys
  y_t = op(y_{t-1}, e_t - C_{t-1} - s): one np.logaddexp.accumulate
  (np.maximum.accumulate) over time, written into the state's rows of the
  score array, so each pass loops over the N states instead of the T
  frames. A pass runs K rows side by side, each under its own band: the
  sequences of a lock-step E-step, or one sequence under a stack's K
  models. State 0 is entered at frame 0 only and op(y, -inf) = y, so its
  scores are its first emission plus C, in closed form. Backward is the
  same recurrence in reversed time. Viterbi loops where y_t == y_{t-1},
  that is where y_{t-1} >= e_t - C_{t-1} - s, so ties still go to looping.
  A -inf in s + b (a zero self-loop, an emission that underflowed) leaves
  C undefined from there on; that state, in that sequence, then runs the
  recurrence frame by frame. One isfinite check on the last offsets skips
  this bookkeeping when no row is stuck. The Viterbi backtrack takes one
  np.maximum.accumulate over the (N, T-1) entry frames (a frame where
  state j did not loop), which gives every state's last entry at or
  before any frame; the walk back then reads one entry per state.

Training:

* baum_welch_stack runs G fits of one grid in lock-step groups, and
  baum_welch is its one-fit view, so there is one EM implementation. Each
  iteration makes one E-step and one M-step for every fit of a group still
  running; a fit leaves when it converges or reaches the cap, after exactly
  the iterations, the log-likelihoods and the stop rule it has alone, and
  the rest run on. A fit's frames are laid out once: its K sequences
  stacked into one (F, D) block, with [x, x^2] beside it for x = obs minus
  the frames' mean (moments about the mean keep each variance's digits
  where raw ones cancel; the M-step adds the mean back). The fits' blocks
  are stacked in turn.
* Every fit stays bit-equal to its lone run. OpenBLAS rounds a product by
  its shape and numpy's pairwise sum depends on the length it reduces, so
  each fit makes its own (M*N, 2D) by (2D, F_f) emission product and its
  own (M*N, F_f) by (F_f, 2D) moment product, and its own sums over frames.
  The elementwise work, the recursions and the M-step run once for all.
  numpy sums an (N, 1) column pairwise and the columns of a wider array one
  state at a time, so a fit's only sequence has its total taken as a row;
  for the same reason a one-frame fit of a one-state model sums its
  components alone.
* The recursions run on (R, T) grids of all R sequences, every state's
  accumulate covering all rows at once (padding costs work in proportion
  to how much the lengths differ). A padded frame gets log emission 0. The
  forward grid holds every sequence left-aligned: the pass is causal, so
  padding never reaches a real frame. Backward from the end of a grid, each
  padded step adds log(self-loop + advance), which is 0 only up to
  rounding, so the backward grid holds each fit's block of rows ending at
  its last column, sequences left-aligned inside it: each row has the
  padding after it that its fit's own grid gives it, and no fit's backward
  pass runs through another fit's. A row stuck at an offset of -inf is
  stuck on both grids alike and takes the frame-by-frame path. Counts are
  read at real frames only. Against EM run one sequence at a time on
  per-frame recursions (tests/oracles.py), fits take the same number of
  iterations, converge alike and give every parameter to 1e-9.
* The E-step's arrays grow with the frames it holds: at its peak it has
  about 4 KB allocated per frame of a 9-state, 10-mixture model. So
  baum_welch_stack runs its fits in lock-step groups under a frame budget
  (EM_STACK_FRAMES), laying out each group only when it runs, and memory
  stays near what the largest lone fit of a default-size bank needs.
  Seeding shares the budget: init_model_stack fills its k-means groups
  with state chunks the same way, each group holding one (F, M, D) block
  of distances at a time.
* Responsibilities below the smallest normal float (2.2e-308) are flushed
  to 0: exp and the BLAS product slow down many times on subnormals.
* The M-step keeps each model's grid, signs and sums to 1; a parameter
  that overflowed (or a variance floor of 0) sends the fits to the
  constructor, which refuses them as it refuses any other model.
* init_model_stack seeds G fits, and init_model is its one-fit view, so
  there is one seeding implementation. The k-means of every state chunk of
  every fit runs in lock-step: one distance pass, one argmin and one
  grouped sum per iteration for all chunks of a group, and a chunk leaves
  when its labels stop changing, after exactly the iterations it runs
  alone. Each distance is np.sum((x - c) ** 2, axis=-1) over the same D
  cells as alone. Cluster sums are one bincount over (chunk, label,
  column) cells, which adds each cluster's frames in the order
  members.mean(axis=0) does for D > 1, so the labels and the seeded
  parameters equal a per-cluster loop's to the bit. A chunk's variance
  (which picks its seeding dimension) is the same grouped sum, and its
  stable sort is one lexsort keyed by chunk. numpy sums a one-column
  array pairwise, so the mean an empty cluster parks at is taken per
  chunk, as frames.mean(axis=0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import container
from .container import readonly
from .errors import (
    DimensionMismatchError,
    EmptySequenceError,
    EmptyTrainingSetError,
    NoLegalPathError,
    NonFiniteObservationError,
    NumericalUnderflowError,
    SequenceTooShortError,
)

VARIANCE_FLOOR = 1e-4
EM_TOL = 1e-5
EM_MAX_ITERS = 40
# The frames of one lock-step group of baum_welch_stack: about what the
# largest lone fit of a default-size bank (some 1440 frames) needs, at 4 KB
# per frame of a 9-state, 10-mixture E-step; fewer, larger groups gain
# little more time.
EM_STACK_FRAMES = 1400

_LOG_2PI = np.log(2.0 * np.pi)
# exp(-700) is about 1e-304. Below that, on the way to the subnormal range
# and 0, exp leaves its vector path and runs 20 to 200 times slower.
_EXP_FLOOR = -700.0
# log of the smallest normal float
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))
_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GaussianMixture:
    """Read-only view of one state's components in an AcousticModel, as
    model.mixtures gives them."""

    weights: np.ndarray    # (M,)
    means: np.ndarray      # (M, D)
    variances: np.ndarray  # (M, D)

    @property
    def num_components(self) -> int:
        return self.weights.size


@dataclass(frozen=True, init=False, eq=False)
class AcousticModel:
    """Left-to-right GMM-HMM. All initial probability sits on state 0.

    Column j of the (M, N) grid holds state j's M components."""

    num_states: int
    feature_dim: int
    transitions: np.ndarray   # (N, N), banded row-stochastic
    weights: np.ndarray       # (M, N)
    means: np.ndarray         # (M, N, D)
    variances: np.ndarray     # (M, N, D)

    def __init__(self, transitions, weights, means, variances):
        """The model of the arrays. Raises ValueError on a shape or
        parameter that breaks the layout above."""
        transitions, weights, means, variances = (
            np.asarray(a, dtype=np.float64)
            for a in (transitions, weights, means, variances))
        if not (means.ndim == 3 and variances.shape == means.shape
                and weights.shape == means.shape[:2]):
            raise ValueError("expected weights (M, N), means and variances "
                             "(M, N, D)")
        _, n, dim = means.shape
        if n < 1:
            raise ValueError("num_states must be >= 1")
        if transitions.shape != (n, n):
            raise ValueError(f"transitions must be ({n}, {n})")
        band = np.diag(transitions), np.diag(transitions, 1)  # NaN counts
        if np.count_nonzero(transitions) != sum(map(np.count_nonzero, band)):
            raise ValueError("only self and single-step transitions may be nonzero")
        # a NaN or an infinity fails one of these comparisons
        if not (transitions >= 0.0).all():
            raise ValueError("transition probabilities must be non-negative")
        if not (np.abs(transitions.sum(axis=1) - 1.0) <= _ROW_SUM_TOL).all():
            raise ValueError("transition rows must sum to 1")
        if not ((weights >= 0.0).all() and
                (np.abs(weights.sum(axis=0) - 1.0) <= _ROW_SUM_TOL).all()):
            raise ValueError("weights must be non-negative and sum to 1")
        if not ((variances > 0.0) & (variances < np.inf)).all():
            raise ValueError("variances must be finite and strictly positive")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        vars(self).update(
            num_states=n, feature_dim=dim,
            transitions=readonly(transitions), weights=readonly(weights),
            means=readonly(means), variances=readonly(variances))

    @cached_property
    def mixtures(self) -> tuple[GaussianMixture, ...]:
        """Read-only per-state views of the arrays, for per-state readers
        (the tests and perfbench's tracer)."""
        return tuple(GaussianMixture(self.weights[:, j], self.means[:, j],
                                     self.variances[:, j])
                     for j in range(self.num_states))

    @cached_property
    def _emission(self) -> _EmissionTable:
        return _tables(self.weights[None], self.means[None],
                       self.variances[None])

    @cached_property
    def _band(self) -> tuple[np.ndarray, np.ndarray]:
        """Log self-loop (N, 1) and advance (N-1, 1) probabilities of the
        transition band: one model's rows of a stack's (see _forward)."""
        return tuple(b.T for b in _log_band(self.transitions[None]))


@dataclass(frozen=True)
class TrainingReport:
    """Per-iteration log-likelihoods of a Baum-Welch run.

    Each entry is the total training-set log-likelihood evaluated before the
    corresponding parameter update; EM makes the list non-decreasing.
    """

    log_likelihood_per_iteration: tuple[float, ...]
    iterations_run: int
    converged: bool


def _sequences(sequences, num_states: int, dim: int | None = None):
    """The sequences as float arrays, each 2-D with dim columns (by default
    the first one's), finite, and at least num_states frames long. Where
    there are several, a non-finite frame is named with its sequence."""
    arrays = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not arrays:
        raise EmptyTrainingSetError("no training sequences")
    if dim is None:
        dim = arrays[0].shape[1] if arrays[0].ndim == 2 else -1
    for k, a in enumerate(arrays):
        if a.ndim != 2:
            raise DimensionMismatchError(
                f"observations must be 2-D, got shape {a.shape}")
        if a.shape[0] == 0:
            raise EmptySequenceError("empty observation sequence")
        if a.shape[1] != dim:
            raise DimensionMismatchError(
                f"expected dimension {dim}, got {a.shape[1]}")
        finite = np.isfinite(a)
        if not finite.all():
            frame = int(np.flatnonzero(~finite.all(axis=1))[0])
            where = f" in sequence {k}" if len(arrays) > 1 else ""
            raise NonFiniteObservationError(
                f"observation frame {frame} of {a.shape[0]}{where} is not "
                f"finite")
        if a.shape[0] < num_states:
            raise SequenceTooShortError(f"sequence of {a.shape[0]} frames is "
                                        f"shorter than {num_states} states")
    return arrays


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along one axis, shifted by the maximum.

    A slice that is all -inf gives -inf. Terms more than 700 below the
    maximum are raised to exp(-700), about 1e-304: beside the maximum's
    exp(0) = 1 they cannot change the sum, and exp stays on its fast path.
    Written out here, not imported: a general-purpose logsumexp's argument
    handling costs more than the arithmetic on arrays this small.
    """
    peak = np.max(a, axis=axis, keepdims=True)
    finite = np.isfinite(peak)
    shift = np.where(finite, peak, 0.0)
    terms = a - shift
    np.exp(np.maximum(terms, _EXP_FLOOR, out=terms), out=terms)
    total = np.log(np.sum(terms, axis=axis))
    return np.where(np.squeeze(finite, axis=axis),
                    total + np.squeeze(shift, axis=axis),
                    np.squeeze(peak, axis=axis))


class _EmissionTable(NamedTuple):
    """The Gaussians of K models in the form of one batched BLAS pass (see
    the module notes); one model is K = 1. Each model's rows run
    component-major as its (M, N) grid does (row m*N + j is component m of
    state j), so the mixture sum reduces over the M axis; a component of
    weight 0 has const -inf."""

    centre: np.ndarray      # (K, 1, D) mean of each model's means
    coef: np.ndarray        # (K, M*N, 2D): -0.5/var, then centred mean/var
    const: np.ndarray       # (K, M*N, 1) log weight + normaliser, -inf if weight 0
    grid: tuple[int, int]   # (M, N)


def _log_band(transitions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log self-loop (G, N) and advance (G, N-1) probabilities of G models'
    stacked transitions (G, N, N)."""
    with np.errstate(divide="ignore"):
        return (np.log(np.diagonal(transitions, 0, 1, 2)),
                np.log(np.diagonal(transitions, 1, 1, 2)))


def _tables(weights, means, variances) -> _EmissionTable:
    """The emission tables of G models of one grid from their stacked
    arrays: weights (G, M, N), means and variances (G, M, N, D)."""
    g, m, n, dim = means.shape
    # State-major, the order of the parameters in a file: the mean's last
    # bits depend on the order of its terms, and EM carries them into every
    # parameter it writes.
    centre = np.stack([mu.transpose(1, 0, 2).reshape(n * m, dim).mean(axis=0)
                       for mu in means])[:, None]                # (G, 1, D)
    centred = means - centre[:, None]
    prec = 1.0 / variances
    with np.errstate(divide="ignore"):    # a zero weight's log is -inf
        const = np.log(weights) - 0.5 * (
            dim * _LOG_2PI + np.sum(np.log(variances), axis=3)
            + np.sum(centred * centred * prec, axis=3))
    coef = np.concatenate([-0.5 * prec, centred * prec], axis=3)
    return _EmissionTable(centre=centre, coef=coef.reshape(g, m * n, 2 * dim),
                          const=const.reshape(g, m * n, 1), grid=(m, n))


def _emissions(table: _EmissionTable, obs: np.ndarray):
    """Weighted component log densities of K models, shape (K, M, N, T), and
    their mixture sums log b_j(o_t), state-major with shape (K, N, T), of
    one sequence obs (T, D) or of one sequence per model (K, T, D)."""
    x = obs - table.centre
    # an extreme outlier may overflow x^2 or the cross term; -inf is the
    # correct saturation and inf - inf is mapped to it below
    with np.errstate(over="ignore", invalid="ignore"):
        comp = table.coef @ np.concatenate((x * x, x), axis=2).transpose(0, 2, 1)
        comp += table.const
    return _mixture_sums(comp.reshape(comp.shape[0], *table.grid,
                                      obs.shape[-2]))


def _mixture_sums(comp: np.ndarray):
    """comp (K, M, N, T), with NaN mapped to -inf, and its sums over the M
    axis in log space, shape (K, N, T). Elementwise in every frame, so a
    block of frames gets the same sums alone as beside others."""
    # a NaN carries through the max, so finite peaks mean a finite block
    peak = comp.max(axis=1)
    if not np.isfinite(peak).all():
        comp[np.isnan(comp)] = -np.inf
        return comp, _logsumexp(comp, axis=1)
    # _logsumexp's steps for finite peaks, in place
    terms = np.subtract(comp, peak[:, None])
    np.maximum(terms, _EXP_FLOOR, out=terms)
    np.exp(terms, out=terms)
    lb = terms.sum(axis=1)
    np.log(lb, out=lb)
    lb += peak
    return comp, lb


def state_log_densities(model: AcousticModel, obs) -> np.ndarray:
    """log b_j(o_t) for every frame and state, shape (T, N), of frames it
    checks as _sequences does."""
    obs, = _sequences([obs], 1, model.feature_dim)
    return _emissions(model._emission, obs)[1][0].T


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


def _stuck_rows(offset_end: np.ndarray) -> list:
    """Per state, the sequences whose cumulative offset is not finite."""
    finite = np.isfinite(offset_end)
    if finite.all():
        return [()] * finite.shape[0]
    return [np.flatnonzero(~row) for row in finite]


def _forward(band, lb: np.ndarray, best: bool = False):
    """Forward (or, with best, Viterbi) scores from state-major log
    emissions lb of shape (N, K, T): K rows side by side.

    band is the (log self-loop (N, K), log advance (N-1, K)) pair of the
    K rows' models. Returns the (N, K, T) scores and, with best, the
    (N, K, T-1) flags of frames t = 1..T-1 where looping won (else None).
    """
    la_self, la_next = band
    n, k, t_len = lb.shape
    accumulate = np.maximum.accumulate if best else np.logaddexp.accumulate
    offset = np.empty((n, k, t_len))
    offset[..., 0] = 0.0
    scores = np.empty((n, k, t_len))
    looped = np.ones((n, k, t_len - 1), dtype=bool) if best else None
    v = np.empty((k, t_len))
    v[:, 0] = -np.inf
    # Both branches into (j, t) add frame t's emission, so the entry is
    # shifted by the offset before it; no emission enters the comparison.
    # An offset that overflows to -inf sends its row to the frame loop;
    # that row's shifted entries and scores are garbage (they may overflow
    # or be NaN) and are overwritten.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(lb[..., 1:], la_self[..., None], out=offset[..., 1:])
        np.cumsum(offset[..., 1:], axis=2, out=offset[..., 1:])
        shifted_enter = np.add(offset[1:, :, :-1], la_self[1:, :, None])
        np.subtract(la_next[..., None], shifted_enter, out=shifted_enter)
        stuck = _stuck_rows(offset[..., -1])
        # State 0 is entered at frame 0 only and op(y, -inf) = y, so its
        # scores are its first emission plus the offset, stuck rows included.
        np.add(offset[0], lb[0, :, :1], out=scores[0])
        for j in range(1, n):
            np.add(scores[j - 1, :, :-1], shifted_enter[j - 1], out=v[:, 1:])
            y = accumulate(v, axis=1, out=scores[j])
            if best:
                np.equal(y[:, 1:], y[:, :-1], out=looped[j])
            y += offset[j]
            for r in stuck[j]:
                scores[j, r], flags = _frames(
                    -np.inf, np.full(t_len - 1, la_self[j, r]),
                    scores[j - 1, r, :-1] + la_next[j - 1, r], lb[j, r, 1:],
                    best)
                if best:
                    looped[j, r] = flags
    return scores, looped


def _backward(band, lb: np.ndarray) -> np.ndarray:
    """Backward log probabilities, shape (N, K, T), from lb of the same
    shape and band as _forward takes them.

    The same recurrence in reversed time; the offsets are suffix sums.
    """
    la_self, la_next = band
    n, k, t_len = lb.shape
    loop = lb[..., 1:] + la_self[..., None]
    leave = lb[1:, :, 1:] + la_next[..., None]
    offset = np.zeros((n, k, t_len))
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(loop[..., ::-1], axis=2, out=offset[..., -2::-1])
        shifted_leave = leave - offset[:-1, :, :-1]
    stuck = _stuck_rows(offset[..., 0])

    beta = np.empty((n, k, t_len))
    v = np.empty((k, t_len))
    # only stuck rows overflow or produce NaN, and they are overwritten
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n - 1, -1, -1):
            v[:, -1] = 0.0
            if j < n - 1:
                np.add(beta[j + 1, :, 1:], shifted_leave[j], out=v[:, :-1])
            else:
                v[:, :-1] = -np.inf
            np.add(np.logaddexp.accumulate(v[:, ::-1], axis=1)[:, ::-1],
                   offset[j], out=beta[j])
            for r in stuck[j]:
                exit_ = (beta[j + 1, r, 1:] + leave[j, r] if j < n - 1
                         else np.full(t_len - 1, -np.inf))
                beta[j, r] = _frames(0.0, loop[j, r, ::-1], exit_[::-1],
                                     np.zeros(t_len - 1), False)[0][::-1]
    return beta


def _totals(band, lb: np.ndarray) -> np.ndarray:
    """Total log-likelihood of each of _forward's K rows, shape (K,)."""
    alpha, _ = _forward(band, lb)
    return np.logaddexp.reduce(alpha[:, :, -1], axis=0)


def forward_log_likelihood(model: AcousticModel, seq) -> float:
    """Total log-likelihood of the sequence, summed over all state paths."""
    return float(_totals(model._band,
                         state_log_densities(model, seq).T[:, None])[0])


def forward_backward(model: AcousticModel, seq):
    """Log-space forward and backward matrices, each of shape (T, N).

    For every t, logsumexp(alpha[t] + beta[t]) equals the total
    log-likelihood of the sequence.
    """
    lb = state_log_densities(model, seq).T[:, None]
    return (_forward(model._band, lb)[0][:, 0].T,
            _backward(model._band, lb)[:, 0].T)


def _best_path(delta: np.ndarray, looped: np.ndarray):
    """viterbi's (path, log_probability) from one row's Viterbi scores
    (N, T) and loop flags (N, T-1)."""
    n, t_len = delta.shape
    log_prob = delta[n - 1, t_len - 1]
    if not np.isfinite(log_prob):
        raise NoLegalPathError(
            f"no left-to-right path through {n} states fits {t_len} frames")
    # entered[j, t - 1] is the last frame at or before t where state j was
    # entered from j-1 (looped is False there). Each state's first frame
    # gets a 1, and the running sum of those is the path.
    entered = np.maximum.accumulate(
        np.where(looped, 0, np.arange(1, t_len)), axis=1)
    path = np.zeros(t_len, dtype=np.int64)
    t = t_len - 1
    for j in range(n - 1, 0, -1):
        start = int(entered[j, t - 1])
        path[start] = 1
        t = start - 1
    np.cumsum(path, out=path)
    return path, float(log_prob)


def viterbi(model: AcousticModel, seq):
    """Best state path that starts in state 0 and ends in state N-1.

    Returns (path, log_probability) where path is an int array of state
    indices. Ties between looping and advancing resolve to looping.
    """
    delta, looped = _forward(model._band,
                             state_log_densities(model, seq).T[:, None],
                             best=True)
    return _best_path(delta[:, 0], looped[:, 0])


class ModelStack:
    """K acoustic models of one (M, N, D) grid, scored side by side: one
    batched emission pass, each model keeping its own centre, and one
    recursion with the K transition bands as rows. Every score and path
    equals the per-model function's bit for bit (see the module notes)."""

    def __init__(self, models):
        models = tuple(models)
        if not models:
            raise ValueError("a model stack needs at least one model")
        grids = sorted({a.means.shape for a in models})
        if len(grids) > 1:
            raise ValueError(f"stacked models must share num_states and "
                             f"feature_dim and their component count, got "
                             f"(M, N, D) grids {grids}")
        (_, n, dim), = grids
        tables = [a._emission for a in models]
        self._table = _EmissionTable(
            *(np.concatenate(part) for part in zip(*(t[:3] for t in tables))),
            grid=tables[0].grid)
        self._band = tuple(np.concatenate(rows, axis=1)
                           for rows in zip(*(a._band for a in models)))
        self.num_states, self.feature_dim, self.size = n, dim, len(models)

    def _log_densities(self, seq) -> np.ndarray:
        """log b_j(o_t) of every model, state-major with shape (N, K, T), of
        one sequence (T, D) or of a stack (K, T, D), sequence k under model
        k."""
        obs = np.asarray(seq, dtype=np.float64)
        if obs.ndim == 3 and obs.shape[0] != self.size:
            raise ValueError(f"a stack of {self.size} models scores "
                             f"{self.size} sequences, got {obs.shape[0]}")
        _sequences(obs if obs.ndim == 3 else [obs], 1, self.feature_dim)
        return np.ascontiguousarray(
            _emissions(self._table, obs)[1].transpose(1, 0, 2))

    def forward_log_likelihoods(self, seq) -> np.ndarray:
        """Each model's forward_log_likelihood, shape (K,), of one sequence
        (T, D), or of a stack (K, T, D) with sequence k under model k."""
        return _totals(self._band, self._log_densities(seq))

    def forward_and_viterbi(self, seq):
        """Each model's forward_log_likelihood, shape (K,), and its viterbi
        path, shape (K, T), from one emission pass, of a sequence or stack as
        forward_log_likelihoods takes it. A model that no left-to-right path
        fits raises NoLegalPathError as viterbi does."""
        lb = self._log_densities(seq)
        delta, looped = _forward(self._band, lb, best=True)
        paths = [_best_path(delta[:, k], looped[:, k])[0]
                 for k in range(self.size)]
        return _totals(self._band, lb), np.stack(paths)


# --- initialization ----------------------------------------------------------

def _grouped_sums(values: np.ndarray, labels: np.ndarray, k: int):
    """Per-label column sums of values (n, D) and the label counts.

    One bincount over (label, column) cells adds each cell's rows in row
    order, as a per-label members.sum(axis=0) does, so the sums are equal
    to the bit.
    """
    n, dim = values.shape
    cells = (labels[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(cells, weights=values.ravel(), minlength=k * dim)
    return sums.reshape(k, dim), np.bincount(labels, minlength=k)


def _groups(sizes) -> list[list[int]]:
    """Indices of items of the given frame counts in lock-step groups, filled
    in order while their frames sum to at most EM_STACK_FRAMES; an item
    above the budget makes a group alone."""
    groups = []
    for k, size in enumerate(sizes):
        if groups and total + size <= EM_STACK_FRAMES:
            groups[-1].append(k)
            total += size
        else:
            groups.append([k])
            total = size
    return groups


def _kmeans(frames: np.ndarray, sizes: np.ndarray, k: int) -> np.ndarray:
    """Deterministic k-means labels of C chunks in lock-step: frames (F, D)
    holds the chunks one after another, sizes (C,) their lengths, and each
    frame's label counts from 0 within its chunk.

    A chunk's centers are seeded at evenly spaced quantiles along its
    highest-variance dimension, then refined by Lloyd iterations. The
    procedure depends only on the multiset of a chunk's frames, so
    duplicating the data leaves it unchanged. A chunk leaves the loop when
    its labels stop changing (after at most 100 iterations), so it runs the
    iterations, and gets the labels, that it gets alone.
    """
    count, dim = sizes.size, frames.shape[1]
    owner = np.repeat(np.arange(count), sizes)
    # Each chunk's variance as frames.var(axis=0) takes it: numpy adds the
    # rows of a wider array one at a time, as the grouped sums do. (It sums
    # a one-column array pairwise, but one column is dimension 0 anyway.)
    sums, _ = _grouped_sums(frames, owner, count)
    deviation = frames - (sums / sizes[:, None])[owner]
    squares, _ = _grouped_sums(deviation * deviation, owner, count)
    spread = np.argmax(squares / sizes[:, None], axis=1)
    # stable within each chunk, as argsort(kind="stable") of the chunk alone
    order = np.lexsort((frames[np.arange(owner.size), spread[owner]], owner))
    seeds = ((np.arange(k) + 0.5) * sizes[:, None] / k).astype(np.int64)
    centers = frames[order[(np.cumsum(sizes) - sizes)[:, None] + seeds]]

    labels = np.empty(owner.size, dtype=np.int64)
    # the index, the frame and the chunk of each frame still running
    at, x, held, current = np.arange(owner.size), frames, owner, None
    for _ in range(100):
        diff = np.take(centers, held, axis=0)                # (F, k, D)
        np.subtract(x[:, None], diff, out=diff)
        new = np.argmin(np.sum(np.square(diff, out=diff), axis=-1), axis=1)
        del diff    # so that one (F, k, D) block is held at a time
        if current is not None:
            moved = np.zeros(count, dtype=bool)
            moved[held[new != current]] = True
            going = moved[held]
            if not going.all():
                labels[at[~going]] = new[~going]
                at, x, held, new = (a[going] for a in (at, x, held, new))
        current = new
        if not at.size:
            break
        sums, counts = _grouped_sums(x, held * k + current, count * k)
        filled = counts > 0
        centers.reshape(-1, dim)[filled] = sums[filled] / counts[filled, None]
    labels[at] = current
    return labels


def _seed(frames: np.ndarray, sizes: np.ndarray, num_mixtures: int,
          variance_floor: float):
    """The seeded mixtures of C chunks, laid out as _kmeans takes them:
    weights (C, M), means and variances (C, M, D)."""
    k = num_mixtures
    ends = np.cumsum(sizes)
    cells = (np.repeat(np.arange(sizes.size), sizes) * k
             + _kmeans(frames, sizes, k))
    sums, counts = _grouped_sums(frames, cells, sizes.size * k)
    size = np.maximum(counts, 1)[:, None]
    means = sums / size
    # An empty cluster parks a zero-weight component at its chunk's mean,
    # with floor variances. The mean is taken per chunk: numpy sums a
    # one-column chunk pairwise.
    empty = np.flatnonzero(counts == 0)
    chunk = empty // k
    # (np.unique would import numpy.ma, a megabyte of module, on first use)
    for c in dict.fromkeys(chunk.tolist()):
        means[empty[chunk == c]] = frames[ends[c] - sizes[c]:ends[c]].mean(
            axis=0)
    deviation = frames - means[cells]
    squares, _ = _grouped_sums(deviation * deviation, cells, sizes.size * k)
    dim = frames.shape[1]
    return (counts.reshape(-1, k) / sizes[:, None], means.reshape(-1, k, dim),
            np.maximum(squares / size, variance_floor).reshape(-1, k, dim))


def init_model_stack(sequence_lists, num_states: int, num_mixtures: int,
                     variance_floor: float = VARIANCE_FLOOR,
                     ) -> list[AcousticModel]:
    """init_model of G fits, model g seeded on sequence_lists[g]; every
    sequence has the first one's dimension.

    The k-means of all G*N state chunks runs in lock-step groups, filled in
    order while their frames sum to at most EM_STACK_FRAMES (a larger chunk
    runs alone); every fit's sequences are checked first. Returns the G
    models in order, each equal to init_model of its list alone bit for
    bit, whatever the grouping.
    """
    if num_states < 1 or num_mixtures < 1:
        raise ValueError("num_states and num_mixtures must be >= 1")
    arrays = []
    for seqs in sequence_lists:
        arrays.append(_sequences(seqs, num_states,
                                 arrays[0][0].shape[1] if arrays else None))
    if not arrays:
        return []
    # chunk (g, i) pools piece i of each sequence of fit g, cut where
    # np.array_split cuts it: piece i of L frames starts at i*(L//N) +
    # min(i, L%N)
    pieces = []
    for seqs in arrays:
        starts = [[i * (len(a) // num_states) + min(i, len(a) % num_states)
                   for i in range(num_states + 1)] for a in seqs]
        pieces += [[a[at[i]:at[i + 1]] for a, at in zip(seqs, starts)]
                   for i in range(num_states)]
    sizes = np.array([sum(map(len, chunk)) for chunk in pieces])
    seeded = [_seed(np.concatenate([a for c in group for a in pieces[c]]),
                    sizes[group], num_mixtures, variance_floor)
              for group in _groups(sizes.tolist())]
    weights, means, variances = (np.concatenate(part)
                                 for part in zip(*seeded))

    transitions = 0.5 * (np.eye(num_states) + np.eye(num_states, k=1))
    transitions[-1, -1] = 1.0
    return [AcousticModel(transitions, *(a[at].swapaxes(0, 1)
                                         for a in (weights, means, variances)))
            for at in (slice(g * num_states, (g + 1) * num_states)
                       for g in range(len(arrays)))]


def init_model(sequences, num_states: int, num_mixtures: int,
               variance_floor: float = VARIANCE_FLOOR) -> AcousticModel:
    """Segmental initialization: uniform chunking plus per-state k-means,
    init_model_stack of the one fit.

    Each sequence is cut into num_states contiguous chunks; the pooled
    frames of chunk i seed state i's mixture. Transitions start at 0.5 for
    looping and advancing (the last state is absorbing). The k-means stage
    is deterministic.
    """
    return init_model_stack([sequences], num_states, num_mixtures,
                            variance_floor)[0]


# --- training ----------------------------------------------------------------

@dataclass(frozen=True)
class _Batch:
    """The K sequences of one fit, laid out once for every E-step: their
    frames stacked in sequence order (F frames in all) and the moments the
    M-step reads."""

    obs: np.ndarray       # (F, D) stacked frames
    shift: np.ndarray     # (D,) mean of the stacked frames
    moments: np.ndarray   # (F, 2D) [obs - shift, (obs - shift)^2]
    lengths: np.ndarray   # (K,) frames of each sequence


def _batch(arrays) -> _Batch:
    obs = np.concatenate(arrays)
    # E[x^2] - mean^2 from raw moments cancels about 2000-fold on a feature
    # near 146 with variance 10. An outlier may overflow the shift or a
    # square; its zero likelihood is reported by the E-step first.
    with np.errstate(over="ignore", invalid="ignore"):
        shift = obs.mean(axis=0)
        centred = obs - shift
        moments = np.concatenate((centred, centred * centred), axis=1)
    return _Batch(obs=obs, shift=shift, moments=moments,
                  lengths=np.array([a.shape[0] for a in arrays]))


def _slices(sizes: np.ndarray) -> list[slice]:
    ends = np.cumsum(sizes).tolist()
    return [slice(end - size, end) for end, size in zip(ends, sizes.tolist())]


class _Layout(NamedTuple):
    """Where the frames and sequences of G fits sit in one lock-step E-step.

    Frames are stacked fit by fit (F in all), and the sequences, the rows of
    the grids, likewise (R in all). The forward grid (R, T) holds every
    sequence left-aligned. The backward grid holds each fit's block of rows
    ending at its last column, each sequence left-aligned in the block, so
    every row has the padding after it that its fit's own grid gives it.
    """

    obs: np.ndarray        # (F, D) stacked frames
    moments: list          # each fit's _Batch.moments
    fit: np.ndarray        # (F,) each frame's fit
    frames: list           # each fit's slice of the frames
    steps: list            # each fit's slice of step
    rows: list             # each fit's slice of the rows
    row_fit: np.ndarray    # (R,) each row's fit
    row: np.ndarray        # (F,) each frame's row
    last: np.ndarray       # (R,) index of each row's last frame
    step: np.ndarray       # indices of the frames t >= 1 of a sequence
    alone: np.ndarray      # the rows that are their fit's only sequence
    shared: np.ndarray     # the rows of fits of several sequences
    forward: np.ndarray    # (F,) each frame's cell in the forward grid
    backward: np.ndarray   # (F,) its cell in the backward grid
    grid: tuple[int, int]  # (R, T)


def _layout(batches) -> _Layout:
    lengths = np.concatenate([b.lengths for b in batches])
    sequences = np.array([b.lengths.size for b in batches])
    frames = np.array([b.obs.shape[0] for b in batches])
    t_max = int(lengths.max())
    row_fit = np.repeat(np.arange(len(batches)), sequences)
    start = np.cumsum(lengths) - lengths
    row = np.repeat(np.arange(lengths.size), lengths)
    t = np.arange(row.size) - start[row]
    forward = row * t_max + t
    lead = t_max - np.array([b.lengths.max() for b in batches])
    return _Layout(
        obs=np.concatenate([b.obs for b in batches]),
        moments=[b.moments for b in batches],
        fit=np.repeat(np.arange(len(batches)), frames),
        frames=_slices(frames), steps=_slices(frames - sequences),
        rows=_slices(sequences), row_fit=row_fit, row=row,
        last=start + lengths - 1, step=np.flatnonzero(t > 0),
        alone=np.flatnonzero(sequences[row_fit] == 1),
        shared=np.flatnonzero(sequences[row_fit] > 1), forward=forward,
        backward=forward + lead[row_fit][row] if lead.any() else forward,
        grid=(lengths.size, t_max))


class _Counts(NamedTuple):
    """Expected counts of one E-step of G fits, component-major as in
    _emissions."""

    stay: np.ndarray      # (G, N-1) transitions i -> i
    move: np.ndarray      # (G, N-1) transitions i -> i+1
    resp: np.ndarray      # (G, M, N) component occupancies
    obs_sum: np.ndarray   # (G, M, N, D) first moments about the fit's shift
    sq_sum: np.ndarray    # (G, M, N, D) second moments about the fit's shift


class _Params(NamedTuple):
    """The arrays of G models of one grid, stacked on a leading axis."""

    transitions: np.ndarray   # (G, N, N)
    weights: np.ndarray       # (G, M, N)
    means: np.ndarray         # (G, M, N, D)
    variances: np.ndarray     # (G, M, N, D)

    def model(self, g: int) -> AcousticModel:
        return AcousticModel(*(a[g] for a in self))


def _expect(params: _Params, layout: _Layout):
    """One E-step of every fit of the layout under its model in params: the
    stacked expected counts and each fit's total log-likelihood.

    Each fit makes its own emission and moment products and its own sums
    over frames, the shapes its E-step has alone: OpenBLAS rounds by shape,
    and numpy's pairwise sums depend on the length they reduce. The rest is
    elementwise, or a recursion along one row, and runs once for all.
    """
    table = _tables(*params[1:])
    m, n = table.grid
    size = layout.obs.shape[0]
    x = layout.obs - table.centre[layout.fit, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.concatenate((x * x, x), axis=1)
        comp = np.empty((m * n, size))
        for coef, const, frames in zip(table.coef, table.const, layout.frames):
            block = comp[:, frames]
            np.matmul(coef, products[frames].T, out=block)
            block += const
    comp, lb = (a[0] for a in _mixture_sums(comp.reshape(1, m, n, size)))
    # comp (M, N, F), lb (N, F)
    if n == 1 and len(layout.frames) > 1:
        # numpy adds the components of a lone (state, frame) cell pairwise,
        # and those of a wider block one at a time: a one-frame fit of a
        # one-state model sums its cell alone
        for k in layout.frames:
            if k.stop - k.start == 1:
                lb[:, k] = _mixture_sums(comp[None, :, :, k])[1][0]

    band = tuple(b[layout.row_fit].T                       # (N, R) rows
                 for b in _log_band(params.transitions))
    rows, t_len = layout.grid
    grid = np.zeros((n, rows * t_len))
    grid[:, layout.forward] = lb
    alpha = _forward(band, grid.reshape(n, rows, t_len))[0]
    alpha = alpha.reshape(n, -1)[:, layout.forward]
    if layout.backward is not layout.forward:
        grid = np.zeros((n, rows * t_len))
        grid[:, layout.backward] = lb
    beta = _backward(band, grid.reshape(n, rows, t_len))
    beta = beta.reshape(n, -1)[:, layout.backward]

    # numpy adds an (N, 1) column pairwise and the columns of a wider array
    # one state at a time, so a fit's only sequence is summed as a row
    ends = alpha[:, layout.last]
    ll = np.empty(rows)
    ll[layout.shared] = _logsumexp(ends[:, layout.shared], axis=0)
    ll[layout.alone] = _logsumexp(
        np.ascontiguousarray(ends[:, layout.alone].T), axis=1)
    if not np.isfinite(ll).all():
        raise NumericalUnderflowError("sequence has zero likelihood under the model")
    ll_frame = ll[layout.row]

    # Band transition counts: xi summed over the steps t-1 -> t.
    la_self, la_next = band
    t = layout.step
    at = layout.row[t]
    ahead = lb[:, t] + beta[:, t] - ll_frame[t]
    came = alpha[:-1, t - 1]
    stay = np.exp(came + la_self[:-1, at] + ahead[:-1])
    move = np.exp(came + la_next[:, at] + ahead[1:])

    # Responsibilities split each state's occupancy gamma across components;
    # where a state's emission underflowed, gamma is 0 and so is each share.
    # A responsibility too small for a normal float is flushed to 0 instead
    # of going subnormal, which keeps exp and the moment product off their
    # slow paths.
    resp = np.add(comp, alpha + beta - ll_frame
                  - np.where(np.isfinite(lb), lb, 0.0), out=comp)
    subnormal = resp < _LOG_TINY
    np.copyto(resp, 0.0, where=subnormal)
    np.exp(resp, out=resp)                                   # (M, N, F)
    np.copyto(resp, 0.0, where=subnormal)
    flat = resp.reshape(m * n, size)
    moments = np.array([flat[:, k] @ fit_moments
                        for k, fit_moments in zip(layout.frames,
                                                  layout.moments)])
    moments = moments.reshape(len(layout.frames), m, n, 2, -1)
    counts = _Counts(
        stay=np.array([stay[:, k].sum(axis=1) for k in layout.steps]),
        move=np.array([move[:, k].sum(axis=1) for k in layout.steps]),
        resp=np.array([resp[..., k].sum(axis=2) for k in layout.frames]),
        obs_sum=moments[:, :, :, 0], sq_sum=moments[:, :, :, 1])
    # summed in sequence order, as a per-sequence loop adds them
    return counts, [sum(ll[k].tolist()) for k in layout.rows]


def _reestimate(params: _Params, counts: _Counts, shift: np.ndarray,
                variance_floor: float) -> _Params:
    """The M-step of G fits at once, every state of each, from moments about
    each fit's shift (G, D).

    A state never left in the training data keeps its transition row, and a
    state never occupied keeps its weights, means and variances.
    """
    transitions = np.array(params.transitions)
    out = counts.stay + counts.move
    g, i = np.nonzero(out > 0.0)
    transitions[g, i, i] = counts.stay[g, i] / out[g, i]
    transitions[g, i, i + 1] = counts.move[g, i] / out[g, i]

    resp = counts.resp
    total = resp.sum(axis=1)                                 # (G, N)
    weights = resp / np.where(total > 0.0, total, 1.0)[:, None]
    seen = (resp > 0.0)[..., None]
    mass = np.maximum(resp, 1e-300)[..., None]
    shift = shift[:, None, None]
    centred = np.where(seen, counts.obs_sum / mass, params.means - shift)
    second = np.where(seen, counts.sq_sum / mass,
                      params.variances + centred ** 2)
    variances = np.maximum(second - centred ** 2, variance_floor)
    means = np.where(seen, centred + shift, params.means)
    # every component of a state never occupied keeps its values bit for bit
    fresh = (total > 0.0)[:, None]
    new = _Params(transitions, np.where(fresh, weights, params.weights),
                  np.where(fresh[..., None], means, params.means),
                  np.where(fresh[..., None], variances, params.variances))
    # EM keeps each model's grid, signs and sums to 1; what it can break is
    # a parameter that overflowed (or a variance floor of 0), and then the
    # constructor refuses the model as it refuses any other
    if not (all(np.isfinite(a).all() for a in new[:3])
            and ((new.variances > 0.0) & (new.variances < np.inf)).all()):
        for k in range(len(new.transitions)):
            new.model(k)
    return new


def baum_welch_stack(models, sequence_lists, max_iters: int = EM_MAX_ITERS,
                     tol: float = EM_TOL,
                     variance_floor: float = VARIANCE_FLOOR):
    """baum_welch of G models of one grid (the same num_states, feature_dim
    and component count M), model g refined on sequence_lists[g].

    This function owns the EM memory budget: the fits run in lock-step
    groups, filled in order while their frames sum to at most
    EM_STACK_FRAMES, and a fit above it runs alone. Every fit's sequences
    are checked before the first E-step; a group's frames are laid out only
    when it runs. Returns G (model, TrainingReport) pairs in order, each
    equal to baum_welch of its fit alone bit for bit, whatever the grouping.
    """
    models, sequence_lists = tuple(models), tuple(sequence_lists)
    if len(models) != len(sequence_lists):
        raise ValueError(f"{len(models)} models for {len(sequence_lists)} "
                         f"lists of sequences")
    grids = sorted({a.means.shape for a in models})
    if len(grids) > 1:
        raise ValueError(f"stacked fits must share one (M, N, D) grid, got "
                         f"{grids}")
    arrays = [_sequences(seqs, a.num_states, a.feature_dim)
              for a, seqs in zip(models, sequence_lists)]
    return [fit for group in _groups([sum(map(len, seqs)) for seqs in arrays])
            for fit in _lockstep([models[k] for k in group],
                                 [arrays[k] for k in group], max_iters, tol,
                                 variance_floor)]


def _lockstep(models, arrays, max_iters: int, tol: float,
              variance_floor: float):
    """The fits of one group of baum_welch_stack, run in lock-step on their
    checked sequences.

    Each iteration makes one E-step and one M-step for every fit still
    running; a fit leaves when it converges or reaches max_iters, after
    exactly the iterations it runs alone.
    """
    batches = [_batch(seqs) for seqs in arrays]
    lls: list[list[float]] = [[] for _ in models]
    converged = [False] * len(models)
    done = list(models)
    running = list(range(len(models)))
    params = _Params(*map(np.stack, zip(*(
        (a.transitions, a.weights, a.means, a.variances) for a in models))))
    shift = np.stack([b.shift for b in batches])
    layout = _layout(batches)
    for _ in range(max_iters):
        counts, totals = _expect(params, layout)
        going = []
        for k, (g, ll) in enumerate(zip(running, totals)):
            lls[g].append(ll)
            if len(lls[g]) > 1 and ll - lls[g][-2] < tol * max(
                    1.0, abs(lls[g][-2])):
                converged[g] = True
                done[g] = params.model(k)
            else:
                going.append(k)
        if not going:
            break
        params = _reestimate(_Params(*(a[going] for a in params)),
                             _Counts(*(a[going] for a in counts)),
                             shift[[running[k] for k in going]],
                             variance_floor)
        if len(going) < len(running):
            running = [running[k] for k in going]
            layout = _layout([batches[g] for g in running])
    else:
        for k, g in enumerate(running):
            done[g] = params.model(k) if lls[g] else models[g]
    return [(model, TrainingReport(log_likelihood_per_iteration=tuple(ll),
                                   iterations_run=len(ll),
                                   converged=flag))
            for model, ll, flag in zip(done, lls, converged)]


def baum_welch(model: AcousticModel, sequences, max_iters: int = EM_MAX_ITERS,
               tol: float = EM_TOL,
               variance_floor: float = VARIANCE_FLOOR):
    """Multi-sequence EM refinement of an acoustic model: baum_welch_stack
    of the one fit.

    Stops once the relative log-likelihood improvement falls below tol or
    after max_iters expectation passes. Returns the refined model and a
    TrainingReport; the report's likelihood list is non-decreasing.
    """
    return baum_welch_stack([model], [sequences], max_iters, tol,
                            variance_floor)[0]


# --- persistence -------------------------------------------------------------
#
# A model is stored as a shape header, {"num_states": N, "feature_dim": D,
# "components": [M, ..., M]} with one count per state, all equal, and a
# float64 payload: the (N, N) transitions, then per state its weights, means
# and variances, row-major. Parameters round-trip bit-exactly.

_MODEL_MAGIC = b"EMOAM001"


def encode_model(model: AcousticModel) -> tuple[dict, bytes]:
    """The model's shape header and its parameters' payload bytes."""
    m, n = model.weights.shape
    rows = np.concatenate(
        [model.weights.T] + [grid.transpose(1, 0, 2).reshape(n, -1)
                             for grid in (model.means, model.variances)],
        axis=1)
    return ({"num_states": n, "feature_dim": model.feature_dim,
             "components": [m] * n},
            b"".join(a.astype("<f8").tobytes()
                     for a in (model.transitions, rows)))


def decode_model(spec: dict, payload) -> AcousticModel:
    """Read the model spec describes from a container payload. Every
    constructor check applies, so a non-finite parameter is refused."""
    n, dim, counts = spec["num_states"], spec["feature_dim"], spec["components"]
    if len(counts) != n or not all(type(v) is int and v >= 1
                                   for v in (n, dim, *counts)):
        raise ValueError(f"not a model's shape: {n} states, dimension {dim}, "
                         f"components {counts}")
    if len(set(counts)) > 1:
        raise ValueError(f"components {counts} differ between states; every "
                         f"state of a model has the same count")
    m = counts[0]
    values = payload.array(n * n + n * m * (1 + 2 * dim))
    rows = values[n * n:].reshape(n, -1)
    return AcousticModel(
        values[:n * n].reshape(n, n), rows[:, :m].T,
        *(rows[:, at:at + m * dim].reshape(n, m, dim).transpose(1, 0, 2)
          for at in (m, m + m * dim)))


def save_model(model: AcousticModel, path) -> None:
    """Write the model as a container file (see emocue.container)."""
    spec, data = encode_model(model)
    container.write(path, _MODEL_MAGIC, spec, [data])


def load_model(path) -> AcousticModel:
    return container.read(path, _MODEL_MAGIC, "acoustic model", decode_model)
