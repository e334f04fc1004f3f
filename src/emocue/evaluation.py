"""Evaluation statistics: confusion matrices, accuracy tables, pooled-SD
t values, and the fusion-weight sweep.

Conventions follow the reporting style of emotion-aware speaker studies:
confusion columns are the true emotions and sum to 100%, accuracy tables
cross emotion with speaker gender and average per row, and two recognizers
are compared by t = (mean2 - mean1) / sqrt((sd1^2 + sd2^2) / n). All
arithmetic is done at full precision; rounding happens only when tables are
written out.

The fusion-weight sweep scores stage a once for every weight: per
utterance one hmm.ModelStack pass over the emotions' acoustic models and
one supra.summary_stack call, then one stacked prosodic pass over every
(utterance, emotion) pair. The weights' decisions are an argmax over an
array of blends, and stage b is scored once per (utterance, chosen
emotion).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import container, hmm
from .container import readonly
from .corpus import GENDERS
from .errors import (EmptyResultsError, UnknownEmotionError,
                     UnknownLabelError, _prefixed)
from .supra import FusionConfig, blend, summary_stack

# Reference point for the t statistics: one-sided critical value at the
# 0.05 significance level.
T_CRITICAL_005 = 1.645

DEFAULT_ALPHAS = tuple(round(0.1 * i, 1) for i in range(11))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic percentage matrix; cell (r, c) is the share of
    utterances truly of emotion c that were identified as emotion r."""

    labels: tuple[str, ...]
    cells: np.ndarray  # (m, m) percentages

    def __post_init__(self):
        labels = tuple(self.labels)
        cells = np.asarray(self.cells, dtype=np.float64)
        m = len(labels)
        if cells.shape != (m, m):
            raise ValueError(f"cells must be ({m}, {m}), got {cells.shape}")
        if np.any(cells < 0.0):
            raise ValueError("confusion percentages must be non-negative")
        if np.any(np.abs(cells.sum(axis=0) - 100.0) > 1e-9):
            raise ValueError("every column must sum to 100")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cells", readonly(cells))


def confusion_matrix(results, labels=None) -> ConfusionMatrix:
    """Build the confusion matrix from (true label, identified label) pairs.

    labels fixes the row/column order; by default the labels seen in the
    results are taken in sorted order. Every label must actually occur as a
    truth at least once, otherwise its column would be undefined: a label
    that never does raises EmptyResultsError naming it.
    """
    pairs = list(results)
    if not pairs:
        raise EmptyResultsError("no results to tabulate")
    if labels is None:
        labels = sorted({t for t, _ in pairs} | {p for _, p in pairs})
    labels = tuple(labels)
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)))
    for true, predicted in pairs:
        if true not in index or predicted not in index:
            raise UnknownLabelError(
                f"result labels {true!r}/{predicted!r} outside {labels}")
        counts[index[predicted], index[true]] += 1
    totals = counts.sum(axis=0)
    missing = [labels[i] for i in np.flatnonzero(totals == 0)]
    if missing:
        raise EmptyResultsError(f"labels never appear as truth: {missing}")
    return ConfusionMatrix(labels=labels, cells=100.0 * counts / totals)


def average_diagonal(cm: ConfusionMatrix) -> float:
    """Mean of the per-emotion correct-identification percentages."""
    return float(np.mean(np.diag(cm.cells)))


@dataclass(frozen=True)
class PerformanceTable:
    """Speaker-identification accuracy crossed by emotion and gender.

    row_averages holds the per-emotion means across genders; overall_mean
    and overall_sd (n-1 denominator) summarize those row averages.
    """

    emotions: tuple[str, ...]
    genders: tuple[str, ...]
    cells: np.ndarray         # (m, num_genders) percentages
    row_averages: np.ndarray  # (m,)
    overall_mean: float
    overall_sd: float

    def __post_init__(self):
        object.__setattr__(self, "emotions", tuple(self.emotions))
        object.__setattr__(self, "genders", tuple(self.genders))
        object.__setattr__(self, "cells", readonly(self.cells))
        object.__setattr__(self, "row_averages", readonly(self.row_averages))


def performance_table(results, emotions=None,
                      genders=GENDERS) -> PerformanceTable:
    """Tabulate accuracy from (true speaker, identified speaker, true
    emotion, gender) records. An (emotion, gender) group without records
    raises EmptyResultsError naming it."""
    rows = list(results)
    if not rows:
        raise EmptyResultsError("no results to tabulate")
    if emotions is None:
        emotions = sorted({e for _, _, e, _ in rows})
    emotions = tuple(emotions)
    genders = tuple(genders)
    correct = np.zeros((len(emotions), len(genders)))
    total = np.zeros((len(emotions), len(genders)))
    e_index = {e: i for i, e in enumerate(emotions)}
    g_index = {g: i for i, g in enumerate(genders)}
    for true_speaker, identified, emotion, gender in rows:
        if emotion not in e_index:
            raise UnknownLabelError(f"unknown emotion {emotion!r}")
        if gender not in g_index:
            raise UnknownLabelError(f"unknown gender {gender!r}")
        total[e_index[emotion], g_index[gender]] += 1
        correct[e_index[emotion], g_index[gender]] += (true_speaker == identified)
    if np.any(total == 0):
        empty = [(emotions[i], genders[j])
                 for i, j in zip(*np.nonzero(total == 0))]
        raise EmptyResultsError(f"no utterances for groups {empty}")
    cells = 100.0 * correct / total
    row_averages = cells.mean(axis=1)
    overall_sd = (float(np.std(row_averages, ddof=1))
                  if row_averages.size > 1 else 0.0)
    return PerformanceTable(emotions=emotions, genders=genders, cells=cells,
                            row_averages=row_averages,
                            overall_mean=float(row_averages.mean()),
                            overall_sd=overall_sd)


@dataclass(frozen=True)
class TTestResult:
    """Two-sample comparison via the pooled-SD Student t statistic."""

    mean_1: float
    mean_2: float
    sd_1: float
    sd_2: float
    n_pool: int
    sd_pooled: float
    t: float


def pooled_t_from_stats(mean_1: float, sd_1: float, mean_2: float, sd_2: float,
                        n_pool: int) -> TTestResult:
    """t statistic from already-summarized samples (reported means and SDs).
    A non-finite, negative or overflowing statistic raises ValueError."""
    if n_pool < 1:
        raise ValueError(f"n_pool must be >= 1, got {n_pool}")
    for name, value in (("mean_1", mean_1), ("sd_1", sd_1),
                        ("mean_2", mean_2), ("sd_2", sd_2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if name.startswith("sd") and value < 0.0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    # a numpy float's ** overflows to inf, where a Python float's raises
    sd_1, sd_2 = np.float64(sd_1), np.float64(sd_2)
    with np.errstate(over="ignore"):
        sd_pooled = float(np.sqrt((sd_1 ** 2 + sd_2 ** 2) / n_pool))
    diff = float(mean_2) - float(mean_1)
    if not (math.isfinite(sd_pooled) and math.isfinite(diff)):
        raise ValueError("the pooled SD or the mean difference overflows")
    if diff == 0.0:
        t = 0.0
    elif sd_pooled == 0.0:
        # any difference between two zero-spread samples is infinitely clear
        t = math.copysign(math.inf, diff)
    else:
        t = diff / sd_pooled
    return TTestResult(mean_1=float(mean_1), mean_2=float(mean_2),
                       sd_1=float(sd_1), sd_2=float(sd_2), n_pool=int(n_pool),
                       sd_pooled=sd_pooled, t=float(t))


def pooled_t(sample_1, sample_2, n_pool: int) -> TTestResult:
    """t statistic between two samples of percentages.

    Sample standard deviations use the n-1 denominator. n_pool is the n in
    the pooled-SD formula and is supplied by the caller rather than taken
    from the sample sizes, so reported statistics can be reproduced even
    when a study pooled over a different n. A non-finite value, or a mean
    or SD that overflows, raises ValueError naming its sample.
    """
    a = np.asarray(sample_1, dtype=np.float64)
    b = np.asarray(sample_2, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least two values")
    stats = []
    for name, sample in (("sample_1", a), ("sample_2", b)):
        bad = sample[~np.isfinite(sample)]
        if bad.size:
            raise ValueError(f"{name} value {bad[0]} is not finite")
        with np.errstate(over="ignore", invalid="ignore"):
            stats += [sample.mean(), sample.std(ddof=1)]
        if not np.isfinite(stats[-2:]).all():
            raise ValueError(f"{name} overflows: its mean or SD is not finite")
    return pooled_t_from_stats(*stats, n_pool)


# --- the two-stage against one-stage comparison ------------------------------

@dataclass(frozen=True)
class Evaluation:
    """The comparison of evaluate: the stage-a confusion matrix, speaker
    accuracy tables of both recognizers and the pooled t between them."""

    num_results: int
    confusion: ConfusionMatrix
    two_stage: PerformanceTable
    one_stage: PerformanceTable
    t_test: TTestResult

    @property
    def summary(self) -> dict:
        """The headline numbers, as written to summary.json."""
        return {
            "num_results": self.num_results,
            "emotion_average_diagonal": average_diagonal(self.confusion),
            "two_stage": {"mean": self.two_stage.overall_mean,
                          "sd": self.two_stage.overall_sd},
            "one_stage": {"mean": self.one_stage.overall_mean,
                          "sd": self.one_stage.overall_sd},
            "t_two_vs_one": self.t_test.t,
            "t_critical_005": T_CRITICAL_005,
            "t_n_pool": self.t_test.n_pool,
        }


def evaluate(rows, n_pool: int | None = None) -> Evaluation:
    """Tabulate recognizer.ResultRows (from score_test_set or read_results).

    Emotions are ordered as the first row's emotion_scores. The t of
    two-stage against one-stage accuracy is pooled_t over the two tables'
    per-emotion row averages; n_pool defaults to the number of true
    speakers and, when given, must be at least 1.
    """
    rows = list(rows)
    if not rows:
        raise EmptyResultsError("no results to tabulate")
    emotions = tuple(rows[0].emotion_scores)

    def table(decision: str) -> PerformanceTable:
        return performance_table(
            [(r.true_speaker, getattr(r, decision), r.true_emotion, r.gender)
             for r in rows], emotions=emotions)

    confusion = confusion_matrix(
        [(r.true_emotion, r.identified_emotion) for r in rows],
        labels=emotions)
    two_stage = table("identified_speaker")
    one_stage = table("one_stage_speaker")
    if n_pool is None:
        n_pool = len({r.true_speaker for r in rows})
    t_test = pooled_t(one_stage.row_averages, two_stage.row_averages, n_pool)
    return Evaluation(num_results=len(rows), confusion=confusion,
                      two_stage=two_stage, one_stage=one_stage, t_test=t_test)


def write_evaluation(result: Evaluation, out_dir) -> None:
    """Write confusion.tsv, performance_two_stage.tsv,
    performance_one_stage.tsv and summary.json to out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    write_confusion_tsv(result.confusion,
                        os.path.join(out_dir, "confusion.tsv"))
    for name, table in (("two", result.two_stage), ("one", result.one_stage)):
        write_performance_tsv(
            table, os.path.join(out_dir, f"performance_{name}_stage.tsv"))
    container.replace(os.path.join(out_dir, "summary.json"),
                      [json.dumps(result.summary, indent=2), "\n"])


# --- fusion-weight sweep -----------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Speaker accuracy by true emotion for each fusion weight."""

    alphas: tuple[float, ...]
    emotions: tuple[str, ...]
    accuracies: np.ndarray  # (num_alphas, m) percentages
    overall: np.ndarray     # (num_alphas,)

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "emotions", tuple(self.emotions))
        object.__setattr__(self, "accuracies", readonly(self.accuracies))
        object.__setattr__(self, "overall", readonly(self.overall))

    def accuracy_at(self, alpha: float, emotion: str) -> float:
        return float(self.accuracies[self.alphas.index(alpha),
                                     self.emotions.index(emotion)])


def _stage_a_scores(bank, records, features):
    """alpha_sweep's acoustic and prosodic log scores, each (utterances,
    emotions) and length-normalized: without normalization the acoustic
    term's sheer magnitude makes the blend weight nearly inert. The stacks
    and summaries are freed on return, before stage b runs."""
    pairs = [bank.emotion_models[e] for e in bank.emotions]
    acoustic = hmm.ModelStack(pair.acoustic for pair in pairs)
    log_acoustic = np.empty((len(records), len(pairs)))
    summaries = []
    for u, r in enumerate(records):
        utt = features[r.id]
        with _prefixed(f"utterance {r.id!r}"):
            log_acoustic[u], paths = acoustic.forward_and_viterbi(utt.features)
            summaries.append(summary_stack(paths, utt.prosody,
                                           acoustic.num_states))
        log_acoustic[u] /= len(utt.features)
    # every alignment ends in the stack's last state, so every summary
    # sequence has one row per acoustic state
    summaries = np.concatenate(summaries)
    prosodic = hmm.ModelStack([pair.supra for pair in pairs] * len(records))
    log_supra = prosodic.forward_log_likelihoods(summaries).reshape(
        log_acoustic.shape)
    log_supra /= summaries.shape[1]
    return log_acoustic, log_supra


def alpha_sweep(bank, test_records, features,
                alphas=DEFAULT_ALPHAS) -> SweepResult:
    """Re-run the emotion stage across fusion weights and measure stage-b
    speaker accuracy per true emotion.

    Both log scores are computed once per (utterance, emotion),
    length-normalized, and blended per alpha by the same rule as
    identify_emotion. Per utterance, one hmm.ModelStack pass over the
    emotions' acoustic models gives every acoustic score and alignment, and
    one supra.summary_stack call summarises the alignments; one stacked
    pass then scores the summaries of every (utterance, emotion) pair under
    that emotion's prosodic model. The decisions of all weights are one
    array of blends and its first-max argmax. The speaker stage does not
    depend on alpha: its verdicts form one (utterance, emotion) table,
    filled by one pass over the emotion's speaker stack only where some
    weight chose that emotion, and each weight reads its verdicts from it.
    Every score equals identify's bit for bit, and ties go to the earliest
    label in bank order as there. Every weight must lie in [0, 1];
    FusionConfig rejects any other, as it does for identify, and a repeated
    weight raises ValueError, since its rows could not be told apart. A
    test split without one of the bank's emotions (EmptyResultsError; an
    empty one lacks all) or with one the bank lacks (UnknownEmotionError)
    raises before any scoring. An utterance that cannot be scored
    re-raises its error, of the same type, naming the utterance id, as in
    score_test_set.
    """
    alphas = tuple(FusionConfig(alpha=a).alpha for a in alphas)
    repeated = sorted({a for a in alphas if alphas.count(a) > 1})
    if repeated:
        raise ValueError(f"repeated fusion weights: {repeated}")
    records = list(test_records)
    emotions, speakers = bank.emotions, bank.speakers
    e_counts = {e: sum(1 for r in records if r.emotion == e) for e in emotions}
    missing = [e for e, c in e_counts.items() if c == 0]
    if missing:
        raise EmptyResultsError(f"emotions without test utterances: {missing}")
    unknown = sorted({r.emotion for r in records} - set(emotions))
    if unknown:
        raise UnknownEmotionError(f"no models for test emotions {unknown}")

    log_acoustic, log_supra = _stage_a_scores(bank, records, features)
    # (alphas, utterances): np.argmax keeps the first maximum, as max does
    choices = blend(log_acoustic, log_supra,
                    np.array(alphas)[:, None, None]).argmax(axis=2)

    # stage b's verdict of every (utterance, emotion) some weight chose
    verdicts = np.zeros((len(records), len(emotions)), dtype=bool)
    for e_idx, e in enumerate(emotions):
        stack = hmm.ModelStack(bank.speaker_models[(s, e)] for s in speakers)
        for u in np.flatnonzero((choices == e_idx).any(axis=0)):
            record = records[u]
            with _prefixed(f"utterance {record.id!r}"):
                totals = stack.forward_log_likelihoods(
                    features[record.id].features)
            verdicts[u, e_idx] = speakers[totals.argmax()] == record.speaker
    correct = verdicts[np.arange(len(records)), choices]

    true = np.array([emotions.index(r.emotion) for r in records])
    accuracies = np.stack([100.0 * correct[:, true == e_idx].sum(axis=1)
                           / e_counts[e] for e_idx, e in enumerate(emotions)],
                          axis=1)
    overall = 100.0 * correct.sum(axis=1) / len(records)
    return SweepResult(alphas=alphas,
                       emotions=emotions, accuracies=accuracies,
                       overall=overall)


# --- table output ------------------------------------------------------------

def write_confusion_tsv(cm: ConfusionMatrix, path) -> None:
    def lines():
        yield "model\t" + "\t".join(cm.labels) + "\n"
        for i, label in enumerate(cm.labels):
            cells = "\t".join(f"{v:.2f}" for v in cm.cells[i])
            yield f"{label}\t{cells}\n"
    container.replace(path, lines())


def write_performance_tsv(table: PerformanceTable, path) -> None:
    def lines():
        yield "emotion\t" + "\t".join(table.genders) + "\taverage\n"
        for i, emotion in enumerate(table.emotions):
            cells = "\t".join(f"{v:.2f}" for v in table.cells[i])
            yield f"{emotion}\t{cells}\t{table.row_averages[i]:.2f}\n"
        yield f"mean\t\t\t{table.overall_mean:.2f}\n"
        yield f"sd\t\t\t{table.overall_sd:.2f}\n"
    container.replace(path, lines())


def write_sweep_tsv(sweep: SweepResult, path) -> None:
    def lines():
        yield "alpha\t" + "\t".join(sweep.emotions) + "\toverall\n"
        for i, alpha in enumerate(sweep.alphas):
            cells = "\t".join(f"{v:.2f}" for v in sweep.accuracies[i])
            yield f"{float(alpha)!r}\t{cells}\t{sweep.overall[i]:.2f}\n"
    container.replace(path, lines())
