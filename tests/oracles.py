"""Slow reference implementations used to check the fast library code.

Everything here favors obviousness over speed: path enumeration instead
of dynamic programming, scalar loops instead of vectorization. Test
modules import these helpers; nothing in the package depends on them.
"""

import itertools
import math

import numpy as np

from emocue import hmm, recognizer
from emocue.errors import NumericalUnderflowError, _prefixed
from emocue.evaluation import DEFAULT_ALPHAS, SweepResult
from emocue.hmm import AcousticModel
from emocue.supra import FusionConfig, blend, score_components


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


def model_from_states(transitions, states):
    """The AcousticModel of per-state (weights, means, variances) triples,
    every state with the same number of components."""
    return AcousticModel(transitions,
                         *(np.stack(part, axis=1) for part in zip(*states)))


def random_model(rng, num_states, num_mixtures, dim):
    """A random left-to-right model with a strictly positive band."""
    transitions = np.zeros((num_states, num_states))
    for i in range(num_states - 1):
        stay = rng.uniform(0.2, 0.8)
        transitions[i, i] = stay
        transitions[i, i + 1] = 1.0 - stay
    transitions[num_states - 1, num_states - 1] = 1.0
    states = []
    for _ in range(num_states):
        raw = rng.uniform(0.2, 1.0, size=num_mixtures)
        states.append((raw / raw.sum(),
                       rng.normal(0.0, 2.0, size=(num_mixtures, dim)),
                       rng.uniform(0.3, 2.0, size=(num_mixtures, dim))))
    return model_from_states(transitions, states)


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


# --- per-sequence training -------------------------------------------------
# Seeding and EM as they ran before the library stacked a fit's sequences:
# k-means and the mixture statistics one cluster at a time, one E-step per
# sequence (on the per-frame recursions above) and the M-step one state at a
# time. They check the grouped and batched library code.

def loop_kmeans(frames, k):
    """Deterministic k-means labels, one cluster mean at a time."""
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


def loop_mixture_from_frames(frames, num_mixtures, variance_floor):
    labels = loop_kmeans(frames, num_mixtures)
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
    return weights, means, variances


def loop_init_model(sequences, num_states, num_mixtures,
                    variance_floor=hmm.VARIANCE_FLOOR):
    """Segmental seeding: uniform chunks, then per-cluster k-means."""
    arrays = [np.asarray(s, dtype=np.float64) for s in sequences]
    chunks = [np.array_split(a, num_states) for a in arrays]
    states = [
        loop_mixture_from_frames(
            np.concatenate([c[i] for c in chunks]), num_mixtures, variance_floor)
        for i in range(num_states)]
    transitions = np.zeros((num_states, num_states))
    for i in range(num_states - 1):
        transitions[i, i] = 0.5
        transitions[i, i + 1] = 0.5
    transitions[num_states - 1, num_states - 1] = 1.0
    return model_from_states(transitions, states)


def sequence_accumulate(model, obs, stats):
    """One E-step over a single sequence; returns its log-likelihood."""
    comp, lb = (a[0] for a in hmm._emissions(model._emission, obs))
    # comp (M, N, T), lb (N, T)
    alpha = frame_forward(model, lb.T).T
    beta = frame_backward(model, lb.T).T
    ll = float(hmm._logsumexp(alpha[:, -1], axis=0))
    if not np.isfinite(ll):
        raise NumericalUnderflowError("sequence has zero likelihood under the model")

    la_self, la_next = _log_band(model)
    if obs.shape[0] > 1:
        # Band transition counts: xi over t for i->i and i->i+1.
        stay = alpha[:, :-1] + la_self[:, None] + lb[:, 1:] + beta[:, 1:] - ll
        move = (alpha[:-1, :-1] + la_next[:, None] + lb[1:, 1:] + beta[1:, 1:]
                - ll)
        stats["stay"] += np.exp(hmm._logsumexp(stay, axis=1))
        stats["move"] += np.exp(hmm._logsumexp(move, axis=1))

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


def state_reestimate(model, stats, variance_floor):
    """The M-step, one state at a time."""
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

    states = []
    for j, old in enumerate(model.mixtures):
        k = old.num_components
        resp = stats["resp"][:k, j]
        total = resp.sum()
        if total <= 0.0:
            states.append((old.weights, old.means, old.variances))
            continue
        weights = resp / total
        means = np.where(resp[:, None] > 0.0,
                         stats["obs_sum"][:k, j] / np.maximum(resp[:, None], 1e-300),
                         old.means)
        second = np.where(resp[:, None] > 0.0,
                          stats["sq_sum"][:k, j] / np.maximum(resp[:, None], 1e-300),
                          old.variances + old.means ** 2)
        variances = np.maximum(second - means ** 2, variance_floor)
        states.append((weights, means, variances))
    return model_from_states(transitions, states)


def sequence_baum_welch(model, sequences, max_iters=hmm.EM_MAX_ITERS,
                        tol=hmm.EM_TOL, variance_floor=hmm.VARIANCE_FLOOR):
    """EM with one E-step per sequence; returns (model, TrainingReport)."""
    arrays = [np.asarray(s, dtype=np.float64) for s in sequences]
    current = model
    lls = []
    converged = False
    for _ in range(max_iters):
        m = max(mix.num_components for mix in current.mixtures)
        n = current.num_states
        stats = {
            "stay": np.zeros(n), "move": np.zeros(n - 1),
            # component-major, as in _emissions
            "resp": np.zeros((m, n)),
            "obs_sum": np.zeros((m, n, current.feature_dim)),
            "sq_sum": np.zeros((m, n, current.feature_dim)),
        }
        ll = sum(sequence_accumulate(current, a, stats) for a in arrays)
        lls.append(ll)
        if len(lls) > 1:
            gain = lls[-1] - lls[-2]
            if gain < tol * max(1.0, abs(lls[-2])):
                converged = True
                break
        current = state_reestimate(current, stats, variance_floor)
    return current, hmm.TrainingReport(
        log_likelihood_per_iteration=tuple(lls), iterations_run=len(lls),
        converged=converged)


def loop_alpha_sweep(bank, test_records, features, alphas=DEFAULT_ALPHAS):
    """evaluation.alpha_sweep one model at a time: score_components per
    (utterance, emotion) and identify_speaker_given_emotion per
    (utterance, chosen emotion)."""
    alphas = tuple(FusionConfig(alpha=a).alpha for a in alphas)
    records = list(test_records)
    emotions = bank.emotions
    components = {}
    for r in records:
        utt = features[r.id]
        with _prefixed(f"utterance {r.id!r}"):
            components[r.id] = {
                e: score_components(bank.emotion_models[e].acoustic,
                                    bank.emotion_models[e].supra, utt)
                for e in emotions}

    speaker_verdict = {}

    def speaker_correct(record, e_star):
        key = (record.id, e_star)
        if key not in speaker_verdict:
            with _prefixed(f"utterance {record.id!r}"):
                s_star, _ = recognizer.identify_speaker_given_emotion(
                    features[record.id].features, e_star, bank)
            speaker_verdict[key] = (s_star == record.speaker)
        return speaker_verdict[key]

    e_counts = {e: sum(1 for r in records if r.emotion == e) for e in emotions}
    missing = [e for e, c in e_counts.items() if c == 0]
    if missing:
        raise ValueError(f"emotions without test utterances: {missing}")

    accuracies = np.zeros((len(alphas), len(emotions)))
    overall = np.zeros(len(alphas))
    for a_idx, alpha in enumerate(alphas):
        correct = {e: 0 for e in emotions}
        for r in records:
            comp = components[r.id]
            scores = {e: blend(*comp[e], alpha) for e in emotions}
            e_star = max(emotions, key=scores.__getitem__)
            if speaker_correct(r, e_star):
                correct[r.emotion] += 1
        for e_idx, e in enumerate(emotions):
            accuracies[a_idx, e_idx] = 100.0 * correct[e] / e_counts[e]
        overall[a_idx] = 100.0 * sum(correct.values()) / len(records)
    return SweepResult(alphas=alphas, emotions=emotions,
                       accuracies=accuracies, overall=overall)


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
