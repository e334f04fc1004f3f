"""Slow reference implementations used to check the fast library code.

Everything here favors obviousness over speed: path enumeration instead
of dynamic programming, scalar loops instead of vectorization. Test
modules import these helpers; nothing in the package depends on them.
"""

import itertools
import math

import numpy as np

from emocue.hmm import AcousticModel, GaussianMixture


def scalar_log_density(mixture, x):
    """Log density of one vector under a diagonal Gaussian mixture."""
    terms = []
    for weight, mean, var in zip(mixture.weights, mixture.means,
                                 mixture.variances):
        if weight == 0.0:
            continue
        log_n = 0.0
        for d in range(len(x)):
            log_n += (-0.5 * math.log(2.0 * math.pi * var[d])
                      - 0.5 * (x[d] - mean[d]) ** 2 / var[d])
        terms.append(math.log(weight) + log_n)
    if not terms:
        return -math.inf
    peak = max(terms)
    return peak + math.log(sum(math.exp(t - peak) for t in terms))


def _path_scores(model, observations):
    """Log score of every legal state path; start state fixed at 0."""
    obs = np.asarray(observations, dtype=np.float64)
    num_t, num_states = obs.shape[0], model.num_states
    log_b = [[scalar_log_density(model.mixtures[s], obs[t])
              for s in range(num_states)] for t in range(num_t)]
    log_a = np.full((num_states, num_states), -math.inf)
    for i in range(num_states):
        for j in range(num_states):
            if model.transitions[i, j] > 0.0:
                log_a[i, j] = math.log(model.transitions[i, j])
    scores = {}
    for path in itertools.product(range(num_states), repeat=num_t):
        if path[0] != 0:
            continue
        if any(path[t + 1] - path[t] not in (0, 1) for t in range(num_t - 1)):
            continue
        total = log_b[0][path[0]]
        legal = True
        for t in range(1, num_t):
            step = log_a[path[t - 1], path[t]]
            if step == -math.inf:
                legal = False
                break
            total += step + log_b[t][path[t]]
        if legal:
            scores[path] = total
    return scores


def enumerated_forward(model, observations):
    """Free-endpoint log-likelihood by summing over every legal path."""
    scores = list(_path_scores(model, observations).values())
    if not scores:
        return -math.inf
    peak = max(scores)
    return peak + math.log(sum(math.exp(s - peak) for s in scores))


def enumerated_viterbi(model, observations):
    """(best path, log score) over paths that end in the final state."""
    last = model.num_states - 1
    ending = {p: s for p, s in _path_scores(model, observations).items()
              if p[-1] == last}
    if not ending:
        return None, -math.inf
    best = max(ending, key=ending.get)
    return list(best), ending[best]


def random_model(rng, num_states, num_mixtures, dim):
    """A random left-to-right model with a strictly positive band."""
    transitions = np.zeros((num_states, num_states))
    for i in range(num_states - 1):
        stay = rng.uniform(0.2, 0.8)
        transitions[i, i] = stay
        transitions[i, i + 1] = 1.0 - stay
    transitions[num_states - 1, num_states - 1] = 1.0
    mixtures = []
    for _ in range(num_states):
        raw = rng.uniform(0.2, 1.0, size=num_mixtures)
        mixtures.append(GaussianMixture(
            weights=raw / raw.sum(),
            means=rng.normal(0.0, 2.0, size=(num_mixtures, dim)),
            variances=rng.uniform(0.3, 2.0, size=(num_mixtures, dim))))
    return AcousticModel(num_states=num_states, feature_dim=dim,
                         transitions=transitions, mixtures=tuple(mixtures))


def random_case(rng, max_states=3, max_mixtures=2, max_len=6,
                min_len=None):
    """A random small model plus observations, sized for enumeration."""
    num_states = int(rng.integers(1, max_states + 1))
    num_mixtures = int(rng.integers(1, max_mixtures + 1))
    dim = int(rng.integers(1, 3))
    low = num_states if min_len is None else min_len
    num_t = int(rng.integers(low, max_len + 1))
    model = random_model(rng, num_states, num_mixtures, dim)
    observations = rng.normal(0.0, 2.0, size=(num_t, dim))
    return model, observations


# --- per-frame recursions ----------------------------------------------------
# The textbook dynamic programmes, one frame at a time, over a (T, N) matrix
# of log emissions. They check the library's state-wise recursions on
# sequences far too long to enumerate.

def _log_band(model):
    with np.errstate(divide="ignore"):
        return (np.log(np.diag(model.transitions)),
                np.log(np.diag(model.transitions, 1)))


def frame_forward(model, logb):
    """Forward matrix alpha, shape (T, N)."""
    la_self, la_next = _log_band(model)
    num_t, num_states = logb.shape
    alpha = np.full((num_t, num_states), -math.inf)
    alpha[0, 0] = logb[0, 0]
    for t in range(1, num_t):
        move = np.full(num_states, -math.inf)
        move[1:] = alpha[t - 1, :-1] + la_next
        alpha[t] = np.logaddexp(alpha[t - 1] + la_self, move) + logb[t]
    return alpha


def frame_backward(model, logb):
    """Backward matrix beta, shape (T, N)."""
    la_self, la_next = _log_band(model)
    num_t, num_states = logb.shape
    beta = np.full((num_t, num_states), -math.inf)
    beta[-1] = 0.0
    for t in range(num_t - 2, -1, -1):
        move = np.full(num_states, -math.inf)
        move[:-1] = la_next + logb[t + 1, 1:] + beta[t + 1, 1:]
        beta[t] = np.logaddexp(la_self + logb[t + 1] + beta[t + 1], move)
    return beta


def frame_viterbi(model, logb):
    """(best path, log score) over paths that end in the final state;
    ties between looping and advancing go to looping."""
    la_self, la_next = _log_band(model)
    num_t, num_states = logb.shape
    delta = np.full((num_t, num_states), -math.inf)
    prev = np.zeros((num_t, num_states), dtype=np.int64)
    delta[0, 0] = logb[0, 0]
    for t in range(1, num_t):
        stay = delta[t - 1] + la_self
        move = np.full(num_states, -math.inf)
        move[1:] = delta[t - 1, :-1] + la_next
        take_stay = stay >= move
        delta[t] = np.where(take_stay, stay, move) + logb[t]
        prev[t] = np.where(take_stay, np.arange(num_states),
                           np.arange(num_states) - 1)
    score = delta[-1, -1]
    if score == -math.inf:
        return None, score
    path = [num_states - 1]
    for t in range(num_t - 1, 0, -1):
        path.append(int(prev[t, path[-1]]))
    return path[::-1], float(score)


def loop_segment_summaries(path, f0, log_energy, voiced):
    """Prosodic summaries one segment at a time, slope by np.polyfit."""
    path = np.asarray(path)
    starts = [0] + [t for t in range(1, path.size) if path[t] != path[t - 1]]
    ends = starts[1:] + [path.size]
    rows = []
    for lo, hi in zip(starts, ends):
        seg_voiced = voiced[lo:hi]
        voiced_f0 = f0[lo:hi][seg_voiced]
        mean_f0 = voiced_f0.mean() if voiced_f0.size else 0.0
        slope = (np.polyfit(np.flatnonzero(seg_voiced), voiced_f0, 1)[0]
                 if voiced_f0.size >= 2 else 0.0)
        rows.append((mean_f0, slope, log_energy[lo:hi].mean(),
                     (hi - lo) / path.size, seg_voiced.mean()))
    return np.array(rows)


# --- reference evaluation outcomes -------------------------------------------
# Hand-checked six-emotion reference results for the statistic-fidelity
# checks. Confusion cells are percentages out of exactly 100 utterances per
# true emotion, so integer (true, identified) counts rebuild each matrix
# without rounding error; the same holds for the accuracy tables with 100
# utterances per (emotion, gender) cell.

REF_EMOTIONS = ("neutral", "angry", "sad", "happy", "disgust", "fear")

# identified emotion in rows, true emotion in columns
REF_CONFUSION_FUSED = np.array([
    [94, 4, 2, 4, 2, 2],
    [0, 78, 6, 2, 10, 3],
    [4, 5, 80, 2, 3, 7],
    [1, 0, 2, 88, 1, 2],
    [0, 10, 2, 1, 80, 3],
    [1, 3, 8, 3, 4, 83],
], dtype=float)

REF_CONFUSION_ACOUSTIC = np.array([
    [96, 3, 3, 7, 1, 1],
    [0, 75, 6, 2, 8, 2],
    [1, 5, 77, 2, 5, 8],
    [1, 3, 2, 84, 1, 3],
    [0, 8, 4, 2, 82, 4],
    [2, 6, 8, 3, 3, 82],
], dtype=float)

# speaker accuracy percentages, (male, female) per emotion
REF_SPEAKER_TWO_STAGE = np.array([
    [89, 91], [72, 73], [76, 77], [82, 84], [78, 78], [80, 79]], dtype=float)
REF_SPEAKER_ONE_STAGE = np.array([
    [84, 86], [62, 62], [67, 69], [73, 72], [71, 70], [71, 72]], dtype=float)
REF_SPEAKER_TWO_STAGE_SUPRA = np.array([
    [87, 88], [68, 69], [71, 73], [76, 77], [74, 75], [77, 76]], dtype=float)


def confusion_pairs(cells, labels=REF_EMOTIONS):
    """(true, identified) pairs whose tabulation reproduces `cells` exactly."""
    pairs = []
    for col, true in enumerate(labels):
        for row, identified in enumerate(labels):
            pairs.extend([(true, identified)] * int(cells[row, col]))
    return pairs


def speaker_results(cells, labels=REF_EMOTIONS, genders=("male", "female")):
    """(true, identified, emotion, gender) records reproducing a table whose
    cells are percentages over 100 utterances each."""
    rows = []
    for e_idx, emotion in enumerate(labels):
        for g_idx, gender in enumerate(genders):
            correct = int(cells[e_idx, g_idx])
            rows.extend([("s", "s", emotion, gender)] * correct)
            rows.extend([("s", "x", emotion, gender)] * (100 - correct))
    return rows
