"""Evaluation statistics tests: confusion tabulation, accuracy tables,
pooled-SD t values, the fusion-weight sweep, and table output."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emocue import evaluation
from emocue.errors import EmptyResultsError, UnknownLabelError
from emocue.evaluation import (
    ConfusionMatrix,
    alpha_sweep,
    average_diagonal,
    confusion_matrix,
    performance_table,
    pooled_t,
    pooled_t_from_stats,
    write_confusion_tsv,
    write_performance_tsv,
    write_sweep_tsv,
)
from emocue.recognizer import identify_emotion, identify_speaker_given_emotion
from emocue.supra import FusionConfig

from oracles import (
    REF_CONFUSION_ACOUSTIC,
    REF_CONFUSION_FUSED,
    REF_EMOTIONS,
    REF_SPEAKER_ONE_STAGE,
    REF_SPEAKER_TWO_STAGE,
    REF_SPEAKER_TWO_STAGE_SUPRA,
    confusion_pairs,
    speaker_results,
)


# --- confusion matrix --------------------------------------------------------


def test_confusion_reconstructs_reference_exactly():
    for cells in (REF_CONFUSION_FUSED, REF_CONFUSION_ACOUSTIC):
        cm = confusion_matrix(confusion_pairs(cells), labels=REF_EMOTIONS)
        np.testing.assert_array_equal(cm.cells, cells)


def test_reference_diagonal_averages():
    fused = confusion_matrix(confusion_pairs(REF_CONFUSION_FUSED),
                             labels=REF_EMOTIONS)
    acoustic = confusion_matrix(confusion_pairs(REF_CONFUSION_ACOUSTIC),
                                labels=REF_EMOTIONS)
    assert average_diagonal(fused) == pytest.approx(503.0 / 6.0)
    assert average_diagonal(acoustic) == pytest.approx(496.0 / 6.0)


def test_confusion_columns_sum_to_hundred():
    rng = np.random.default_rng(5)
    labels = ("a", "b", "c")
    pairs = [(labels[rng.integers(3)], labels[rng.integers(3)])
             for _ in range(200)]
    cm = confusion_matrix(pairs)
    np.testing.assert_allclose(cm.cells.sum(axis=0), 100.0, atol=1e-9)


def test_confusion_default_labels_sorted():
    cm = confusion_matrix([("b", "a"), ("a", "b"), ("c", "c")])
    assert cm.labels == ("a", "b", "c")


def test_confusion_rejects_empty():
    with pytest.raises(EmptyResultsError):
        confusion_matrix([])


def test_confusion_rejects_label_outside_order():
    with pytest.raises(UnknownLabelError):
        confusion_matrix([("a", "b")], labels=("a",))


def test_confusion_rejects_label_never_true():
    # "b" appears only as a prediction, so its column has no mass
    with pytest.raises(ValueError):
        confusion_matrix([("a", "b"), ("a", "a")], labels=("a", "b"))


def test_confusion_matrix_validates_cells():
    with pytest.raises(ValueError):
        ConfusionMatrix(labels=("a", "b"),
                        cells=np.array([[60.0, 50.0], [40.0, 40.0]]))
    with pytest.raises(ValueError):
        ConfusionMatrix(labels=("a", "b"),
                        cells=np.array([[110.0, 50.0], [-10.0, 50.0]]))


def test_perfect_results_are_diagonal():
    cm = confusion_matrix([("a", "a")] * 3 + [("b", "b")] * 5)
    np.testing.assert_array_equal(cm.cells, [[100.0, 0.0], [0.0, 100.0]])
    assert average_diagonal(cm) == 100.0


# --- performance table -------------------------------------------------------


REF_TABLES = (
    (REF_SPEAKER_TWO_STAGE, 79.916667, 6.028405),
    (REF_SPEAKER_ONE_STAGE, 71.583333, 7.572428),
    (REF_SPEAKER_TWO_STAGE_SUPRA, 75.916667, 6.437520),
)


@pytest.mark.parametrize("cells, mean, sd", REF_TABLES)
def test_performance_reconstructs_reference(cells, mean, sd):
    table = performance_table(speaker_results(cells), emotions=REF_EMOTIONS)
    np.testing.assert_array_equal(table.cells, cells)
    np.testing.assert_allclose(table.row_averages, cells.mean(axis=1))
    assert table.overall_mean == pytest.approx(mean, abs=1e-6)
    assert table.overall_sd == pytest.approx(sd, abs=1e-6)


def test_performance_is_order_invariant():
    rows = speaker_results(REF_SPEAKER_TWO_STAGE)
    rng = np.random.default_rng(1)
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    a = performance_table(rows, emotions=REF_EMOTIONS)
    b = performance_table(shuffled, emotions=REF_EMOTIONS)
    np.testing.assert_array_equal(a.cells, b.cells)


def test_performance_rejects_empty_group():
    rows = [("s", "s", "neutral", "male")]
    with pytest.raises(ValueError):
        performance_table(rows, emotions=("neutral",),
                          genders=("male", "female"))


def test_performance_rejects_unknown_labels():
    with pytest.raises(UnknownLabelError):
        performance_table([("s", "s", "bored", "male")], emotions=("neutral",))
    with pytest.raises(UnknownLabelError):
        performance_table([("s", "s", "neutral", "robot")],
                          emotions=("neutral",))


def test_performance_rejects_empty():
    with pytest.raises(EmptyResultsError):
        performance_table([])


def test_single_emotion_table_has_zero_sd():
    rows = [("s", "s", "neutral", "male"), ("s", "x", "neutral", "female")]
    table = performance_table(rows, emotions=("neutral",))
    assert table.overall_sd == 0.0
    np.testing.assert_array_equal(table.cells, [[100.0, 0.0]])


# --- pooled t ----------------------------------------------------------------


def test_t_from_raw_row_averages():
    one = REF_SPEAKER_ONE_STAGE.mean(axis=1)
    two = REF_SPEAKER_TWO_STAGE.mean(axis=1)
    supra = REF_SPEAKER_TWO_STAGE_SUPRA.mean(axis=1)
    assert pooled_t(one, two, 50).t == pytest.approx(6.087971, abs=1e-4)
    assert pooled_t(supra, two, 50).t == pytest.approx(3.207020, abs=1e-4)
    assert pooled_t(one, two, 6).t == pytest.approx(2.108935, abs=1e-4)


def test_t_from_published_rounded_stats():
    assert pooled_t_from_stats(71.58, 7.57, 79.92, 6.03, 50).t == \
        pytest.approx(6.093412, abs=1e-4)
    assert pooled_t_from_stats(75.92, 6.44, 79.92, 6.03, 50).t == \
        pytest.approx(3.205966, abs=1e-4)
    assert pooled_t_from_stats(71.58, 7.57, 79.92, 6.03, 6).t == \
        pytest.approx(2.110820, abs=1e-4)


def test_t_zero_for_identical_samples():
    sample = [70.0, 75.0, 80.0]
    assert pooled_t(sample, sample, 10).t == 0.0


def test_t_antisymmetric():
    a = [70.0, 75.0, 80.0, 72.0]
    b = [74.0, 78.0, 83.0, 75.0]
    assert pooled_t(a, b, 8).t == pytest.approx(-pooled_t(b, a, 8).t,
                                                abs=1e-12)


def test_t_scales_with_sqrt_n():
    a = [70.0, 75.0, 80.0]
    b = [74.0, 78.0, 83.0]
    assert pooled_t(a, b, 200).t == pytest.approx(2.0 * pooled_t(a, b, 50).t,
                                                  abs=1e-9)


def test_t_validates_inputs():
    with pytest.raises(ValueError):
        pooled_t([1.0], [2.0, 3.0], 5)
    with pytest.raises(ValueError):
        pooled_t([1.0, 2.0], [2.0, 3.0], 0)
    with pytest.raises(ValueError):
        pooled_t_from_stats(70.0, 5.0, 75.0, 5.0, -1)


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=8),
       st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=8),
       st.integers(min_value=1, max_value=500))
def test_t_matches_direct_formula(a, b, n):
    a = np.asarray(a)
    b = np.asarray(b)
    result = pooled_t(a, b, n)
    pooled_sd = np.sqrt((a.std(ddof=1) ** 2 + b.std(ddof=1) ** 2) / n)
    if pooled_sd == 0.0:
        assert result.t == 0.0 or not np.isfinite(result.t)
    else:
        want = (b.mean() - a.mean()) / pooled_sd
        assert result.t == pytest.approx(want, abs=1e-9)


# --- fusion-weight sweep -----------------------------------------------------


def test_sweep_grid_and_shapes(tiny_trained):
    sweep = alpha_sweep(tiny_trained["bank"], tiny_trained["test"],
                        tiny_trained["synth"].features)
    assert sweep.alphas == evaluation.DEFAULT_ALPHAS
    assert sweep.emotions == tiny_trained["bank"].emotions
    assert sweep.accuracies.shape == (11, 2)
    assert np.all((0.0 <= sweep.accuracies) & (sweep.accuracies <= 100.0))
    assert sweep.accuracy_at(0.5, sweep.emotions[0]) == \
        sweep.accuracies[5, 0]


def test_sweep_alpha_zero_matches_acoustic_only(tiny_trained):
    bank = tiny_trained["bank"]
    synth = tiny_trained["synth"]
    records = tiny_trained["test"]
    sweep = alpha_sweep(bank, records, synth.features, alphas=(0.0,))
    cfg = FusionConfig(alpha=0.0, length_normalize=True)
    correct = {e: 0 for e in bank.emotions}
    counts = {e: 0 for e in bank.emotions}
    for r in records:
        utt = synth.features[r.id]
        e_star, _ = identify_emotion(utt, bank, cfg)
        s_star, _ = identify_speaker_given_emotion(utt.features, e_star, bank)
        counts[r.emotion] += 1
        correct[r.emotion] += (s_star == r.speaker)
    for e_idx, e in enumerate(bank.emotions):
        want = 100.0 * correct[e] / counts[e]
        assert sweep.accuracies[0, e_idx] == want


def test_sweep_overall_is_weighted_mean(tiny_trained):
    sweep = alpha_sweep(tiny_trained["bank"], tiny_trained["test"],
                        tiny_trained["synth"].features, alphas=(0.3, 0.8))
    records = tiny_trained["test"]
    counts = np.array([sum(1 for r in records if r.emotion == e)
                       for e in sweep.emotions], dtype=float)
    want = (sweep.accuracies * counts).sum(axis=1) / counts.sum()
    np.testing.assert_allclose(sweep.overall, want, atol=1e-9)


def test_sweep_rejects_empty_records(tiny_trained):
    with pytest.raises(EmptyResultsError):
        alpha_sweep(tiny_trained["bank"], [], tiny_trained["synth"].features)


def test_sweep_rejects_missing_emotion(tiny_trained):
    only_first = [r for r in tiny_trained["test"]
                  if r.emotion == tiny_trained["bank"].emotions[0]]
    with pytest.raises(ValueError):
        alpha_sweep(tiny_trained["bank"], only_first,
                    tiny_trained["synth"].features)


# --- table output ------------------------------------------------------------


def test_confusion_tsv_format(tmp_path):
    cm = confusion_matrix(confusion_pairs(REF_CONFUSION_FUSED),
                          labels=REF_EMOTIONS)
    path = tmp_path / "confusion.tsv"
    write_confusion_tsv(cm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "model\t" + "\t".join(REF_EMOTIONS)
    assert lines[1].split("\t")[0] == "neutral"
    assert lines[1].split("\t")[1] == "94.00"
    assert len(lines) == 7


def test_performance_tsv_format(tmp_path):
    table = performance_table(speaker_results(REF_SPEAKER_TWO_STAGE),
                              emotions=REF_EMOTIONS)
    path = tmp_path / "performance.tsv"
    write_performance_tsv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "emotion\tmale\tfemale\taverage"
    assert lines[1] == "neutral\t89.00\t91.00\t90.00"
    assert lines[-2].endswith("79.92")
    assert lines[-1].endswith("6.03")


def test_sweep_tsv_format(tmp_path, tiny_trained):
    sweep = alpha_sweep(tiny_trained["bank"], tiny_trained["test"],
                        tiny_trained["synth"].features, alphas=(0.0, 1.0))
    path = tmp_path / "sweep.tsv"
    write_sweep_tsv(sweep, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("alpha\t")
    assert lines[1].startswith("0.0\t")
    assert lines[2].startswith("1.0\t")
    assert len(lines[1].split("\t")) == 2 + len(sweep.emotions)
