"""Suprasegmental layer tests: state grouping, segment summaries,
prosodic model training and score fusion."""

import numpy as np
import pytest

import emocue
from emocue import hmm, supra
from emocue.errors import (
    IllegalPathError,
    LengthMismatchError,
    UnsupportedFormatError,
)
from emocue.frontend import ProsodicTrack

from oracles import loop_segment_summaries


def _track(f0, voiced, log_energy=None):
    f0 = np.asarray(f0, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
    if log_energy is None:
        log_energy = np.full(f0.size, -2.0)
    return ProsodicTrack(f0=f0, log_energy=np.asarray(log_energy, float),
                         voiced=voiced)


@pytest.fixture(scope="module")
def trained_pair():
    """A small acoustic model with its prosodic companion."""
    synth = emocue.synthesize_corpus(
        num_speakers=1, emotions=("neutral",), train_sentences=3,
        test_sentences=1, repetitions=2, separation=1.0, seed=5)
    train, test = emocue.split_records(synth.records, synth.protocol)
    utts = [synth.features[r.id] for r in train]
    seqs = [u.features for u in utts]
    acoustic, _ = hmm.baum_welch(hmm.init_model(seqs, 3, 2), seqs,
                                 max_iters=10)
    mapping = supra.SupraMapping(group_sizes=(1, 1, 1))
    model, _ = supra.train_suprasegmental(acoustic, utts, mapping,
                                          num_mixtures=1, max_iters=10)
    probe = synth.features[test[0].id]
    return acoustic, model, probe


# --- mapping -----------------------------------------------------------------


def test_default_mapping_shape():
    mapping = supra.SupraMapping()
    assert mapping.num_acoustic_states == 9
    assert mapping.num_supra_states == 3


def test_mapping_assigns_groups():
    mapping = supra.SupraMapping(group_sizes=(3, 3, 3))
    assert [mapping.supra_state_of(s) for s in range(9)] == \
        [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_mapping_uneven_groups():
    mapping = supra.SupraMapping(group_sizes=(2, 4, 3))
    assert [mapping.supra_state_of(s) for s in range(9)] == \
        [0, 0, 1, 1, 1, 1, 2, 2, 2]


def test_mapping_rejects_nonpositive_group():
    with pytest.raises(ValueError):
        supra.SupraMapping(group_sizes=(3, 0, 3))


# --- segment summaries -------------------------------------------------------


def test_constant_f0_segments():
    path = [0, 0, 0, 1, 1, 2]
    track = _track([100.0] * 6, [True] * 6, [-1.5] * 6)
    seq = supra.segment_summaries(path, track,
                                  supra.SupraMapping(group_sizes=(1, 1, 1)))
    vectors = np.asarray(seq)
    assert vectors.shape == (3, 5)
    np.testing.assert_allclose(vectors[:, 0], 100.0)          # F0 mean
    np.testing.assert_allclose(vectors[:, 1], 0.0, atol=1e-9)  # slope
    np.testing.assert_allclose(vectors[:, 2], -1.5)           # energy
    np.testing.assert_allclose(vectors[:, 3], [0.5, 1 / 3, 1 / 6])
    np.testing.assert_allclose(vectors[:, 4], 1.0)            # voicing ratio


def test_fully_unvoiced_segments():
    path = [0, 0, 1, 1]
    track = _track([0.0] * 4, [False] * 4)
    vectors = np.asarray(supra.segment_summaries(
        path, track, supra.SupraMapping(group_sizes=(1, 1))))
    np.testing.assert_allclose(vectors[:, 0], 0.0)
    np.testing.assert_allclose(vectors[:, 1], 0.0)
    np.testing.assert_allclose(vectors[:, 4], 0.0)


def test_linear_f0_slope_recovered():
    # F0 rises 2 Hz per frame within each segment
    path = [0] * 5 + [1] * 4
    f0 = np.concatenate([100.0 + 2.0 * np.arange(5),
                         200.0 + 2.0 * np.arange(4)])
    track = _track(f0, [True] * 9)
    vectors = np.asarray(supra.segment_summaries(
        path, track, supra.SupraMapping(group_sizes=(1, 1))))
    np.testing.assert_allclose(vectors[:, 1], 2.0, atol=1e-9)


def test_slope_uses_frame_positions_of_voiced_frames():
    # voiced at segment positions 0, 2, 3 with f0 = 100 + 2 * position
    path = [0, 0, 0, 0]
    f0 = np.array([100.0, 0.0, 104.0, 106.0])
    track = _track(f0, [True, False, True, True])
    vectors = np.asarray(supra.segment_summaries(
        path, track, supra.SupraMapping(group_sizes=(1,))))
    assert vectors[0, 0] == pytest.approx(np.mean([100.0, 104.0, 106.0]))
    assert vectors[0, 1] == pytest.approx(2.0, abs=1e-9)
    assert vectors[0, 4] == pytest.approx(0.75)


def test_single_voiced_frame_has_zero_slope():
    vectors = np.asarray(supra.segment_summaries(
        [0, 0], _track([120.0, 0.0], [True, False]),
        supra.SupraMapping(group_sizes=(1,))))
    assert vectors[0, 0] == 120.0
    assert vectors[0, 1] == 0.0
    assert vectors[0, 4] == 0.5


def test_summaries_match_per_segment_loop():
    rng = np.random.default_rng(31)
    mapping = supra.SupraMapping()
    for _ in range(200):
        length = int(rng.integers(1, 400))
        steps = rng.random(length - 1) < rng.uniform(0.0, 0.3)
        path = np.minimum(np.concatenate([[0], np.cumsum(steps)]), 8)
        voiced = rng.random(length) < rng.uniform(0.0, 1.0)
        f0 = np.where(voiced, rng.uniform(60.0, 400.0, length), 0.0)
        log_energy = rng.normal(-2.0, 3.0, length)
        got = np.asarray(supra.segment_summaries(
            path, _track(f0, voiced, log_energy), mapping))
        want = loop_segment_summaries(path, f0, log_energy, voiced)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_durations_sum_to_one():
    rng = np.random.default_rng(30)
    mapping = supra.SupraMapping(group_sizes=(2, 2))
    for _ in range(25):
        length = int(rng.integers(4, 30))
        steps = rng.random(length - 1) < 0.2
        path = np.minimum(np.concatenate([[0], np.cumsum(steps)]), 3)
        track = _track(np.zeros(length), np.zeros(length, dtype=bool))
        vectors = np.asarray(supra.segment_summaries(path, track, mapping))
        assert vectors[:, 3].sum() == pytest.approx(1.0, abs=1e-9)
        assert vectors.shape[0] <= 4


def test_summaries_reject_length_mismatch():
    with pytest.raises(LengthMismatchError):
        supra.segment_summaries([0, 0, 1], _track([0.0] * 4, [False] * 4),
                                supra.SupraMapping(group_sizes=(1, 1)))


def test_summaries_reject_bad_start():
    with pytest.raises(IllegalPathError):
        supra.segment_summaries([1, 1], _track([0.0] * 2, [False] * 2),
                                supra.SupraMapping(group_sizes=(1, 1)))


def test_summaries_reject_state_skip():
    with pytest.raises(IllegalPathError):
        supra.segment_summaries([0, 2], _track([0.0] * 2, [False] * 2),
                                supra.SupraMapping(group_sizes=(1, 1, 1)))


def test_summaries_reject_out_of_range_state():
    with pytest.raises(IllegalPathError):
        supra.segment_summaries([0, 1], _track([0.0] * 2, [False] * 2),
                                supra.SupraMapping(group_sizes=(1,)))


def test_observation_sequence_validates_durations():
    bad = np.zeros((2, 5))
    bad[:, 3] = [0.5, 0.6]
    with pytest.raises(ValueError):
        supra.SupraObservationSequence(vectors=bad)


# --- alignment and training --------------------------------------------------


def test_supra_observations_shape(trained_pair):
    acoustic, model, probe = trained_pair
    seq = supra.supra_observations(acoustic, probe, model.mapping)
    vectors = np.asarray(seq)
    assert vectors.shape[1] == 5
    assert 1 <= vectors.shape[0] <= acoustic.num_states
    assert vectors[:, 3].sum() == pytest.approx(1.0, abs=1e-9)


def test_train_suprasegmental_structure(trained_pair):
    _, model, _ = trained_pair
    assert model.core.num_states == 3
    assert model.core.feature_dim == 5


def test_train_rejects_mismatched_mapping(trained_pair):
    acoustic, _, probe = trained_pair
    with pytest.raises(ValueError):
        supra.train_suprasegmental(acoustic, [probe],
                                   supra.SupraMapping(group_sizes=(2, 2)))


# --- fusion ------------------------------------------------------------------


def test_fusion_endpoints_exact(trained_pair):
    acoustic, model, probe = trained_pair
    log_a, log_s = supra.score_components(acoustic, model, probe)
    assert supra.fused_score(acoustic, model, probe,
                             supra.FusionConfig(alpha=0.0)) == log_a
    assert supra.fused_score(acoustic, model, probe,
                             supra.FusionConfig(alpha=1.0)) == log_s
    mid = supra.fused_score(acoustic, model, probe,
                            supra.FusionConfig(alpha=0.5))
    assert mid == pytest.approx(0.5 * (log_a + log_s), abs=1e-12)


def test_fusion_affine_in_alpha(trained_pair):
    acoustic, model, probe = trained_pair
    log_a, log_s = supra.score_components(acoustic, model, probe)
    for alpha in np.linspace(0.0, 1.0, 11):
        fused = supra.fused_score(acoustic, model, probe,
                                  supra.FusionConfig(alpha=float(alpha)))
        want = (1.0 - alpha) * log_a + alpha * log_s
        assert fused == pytest.approx(want, abs=1e-12)


def test_fusion_length_normalization(trained_pair):
    acoustic, model, probe = trained_pair
    log_a, log_s = supra.score_components(acoustic, model, probe)
    norm_a, norm_s = supra.score_components(acoustic, model, probe,
                                            length_normalize=True)
    num_frames = np.asarray(probe.features).shape[0]
    num_segments = np.asarray(
        supra.supra_observations(acoustic, probe, model.mapping)).shape[0]
    assert norm_a == pytest.approx(log_a / num_frames, abs=1e-12)
    assert norm_s == pytest.approx(log_s / num_segments, abs=1e-12)
    cfg = supra.FusionConfig(alpha=0.3, length_normalize=True)
    assert supra.fused_score(acoustic, model, probe, cfg) == \
        pytest.approx(0.7 * norm_a + 0.3 * norm_s, abs=1e-12)


def test_fusion_config_validates_alpha():
    with pytest.raises(ValueError):
        supra.FusionConfig(alpha=1.5)
    with pytest.raises(ValueError):
        supra.FusionConfig(alpha=-0.1)


# --- persistence -------------------------------------------------------------


def test_supra_roundtrip_bit_exact(tmp_path, trained_pair):
    acoustic, model, probe = trained_pair
    path = tmp_path / "supra.json"
    supra.save_supra_model(model, path)
    loaded = supra.load_supra_model(path)
    assert loaded.mapping.group_sizes == model.mapping.group_sizes
    np.testing.assert_array_equal(loaded.core.transitions,
                                  model.core.transitions)
    for a, b in zip(loaded.core.mixtures, model.core.mixtures):
        np.testing.assert_array_equal(a.means, b.means)
    _, before = supra.score_components(acoustic, model, probe)
    _, after = supra.score_components(acoustic, loaded, probe)
    assert before == after


def test_supra_load_rejects_acoustic_file(tmp_path, trained_pair):
    acoustic, _, _ = trained_pair
    path = tmp_path / "acoustic.json"
    hmm.save_model(acoustic, path)
    with pytest.raises(UnsupportedFormatError):
        supra.load_supra_model(path)
