"""Suprasegmental layer tests: segment summaries, prosodic model training
and score fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emocue
from emocue import hmm, supra
from emocue.errors import (
    CorruptFileError,
    IllegalPathError,
    LengthMismatchError,
    NoLegalPathError,
    NonFiniteObservationError,
    UnsupportedFormatError,
)
from emocue.frontend import ProsodicTrack, UtteranceFeatures

from conftest import container_parts
from oracles import loop_segment_summaries


def _track(f0, log_energy=None):
    f0 = np.asarray(f0, dtype=np.float64)
    if log_energy is None:
        log_energy = np.full(f0.size, -2.0)
    return ProsodicTrack(f0=f0, log_energy=np.asarray(log_energy, float))


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
    model, _ = supra.train_suprasegmental(acoustic, utts, 3, num_mixtures=1,
                                          max_iters=10)
    probe = synth.features[test[0].id]
    return acoustic, model, probe


# --- segment summaries -------------------------------------------------------


def test_constant_f0_segments():
    path = [0, 0, 0, 1, 1, 2]
    track = _track([100.0] * 6, [-1.5] * 6)
    vectors = supra.segment_summaries(path, track, 3)
    assert type(vectors) is np.ndarray and vectors.shape == (3, 5)
    assert not vectors.flags.writeable
    np.testing.assert_allclose(vectors[:, 0], 100.0)          # F0 mean
    np.testing.assert_allclose(vectors[:, 1], 0.0, atol=1e-9)  # slope
    np.testing.assert_allclose(vectors[:, 2], -1.5)           # energy
    np.testing.assert_allclose(vectors[:, 3], [0.5, 1 / 3, 1 / 6])
    np.testing.assert_allclose(vectors[:, 4], 1.0)            # voicing ratio


def test_fully_unvoiced_segments():
    path = [0, 0, 1, 1]
    track = _track([0.0] * 4)
    vectors = np.asarray(supra.segment_summaries(path, track, 2))
    np.testing.assert_allclose(vectors[:, 0], 0.0)
    np.testing.assert_allclose(vectors[:, 1], 0.0)
    np.testing.assert_allclose(vectors[:, 4], 0.0)


def test_linear_f0_slope_recovered():
    # F0 rises 2 Hz per frame within each segment
    path = [0] * 5 + [1] * 4
    f0 = np.concatenate([100.0 + 2.0 * np.arange(5),
                         200.0 + 2.0 * np.arange(4)])
    track = _track(f0)
    vectors = np.asarray(supra.segment_summaries(path, track, 2))
    np.testing.assert_allclose(vectors[:, 1], 2.0, atol=1e-9)


def test_slope_uses_frame_positions_of_voiced_frames():
    # voiced at segment positions 0, 2, 3 with f0 = 100 + 2 * position
    path = [0, 0, 0, 0]
    f0 = np.array([100.0, 0.0, 104.0, 106.0])
    track = _track(f0)
    vectors = np.asarray(supra.segment_summaries(path, track, 1))
    assert vectors[0, 0] == pytest.approx(np.mean([100.0, 104.0, 106.0]))
    assert vectors[0, 1] == pytest.approx(2.0, abs=1e-9)
    assert vectors[0, 4] == pytest.approx(0.75)


def test_single_voiced_frame_has_zero_slope():
    vectors = np.asarray(supra.segment_summaries(
        [0, 0], _track([120.0, 0.0]), 1))
    assert vectors[0, 0] == 120.0
    assert vectors[0, 1] == 0.0
    assert vectors[0, 4] == 0.5


def test_summaries_match_per_segment_loop():
    rng = np.random.default_rng(31)
    for _ in range(200):
        length = int(rng.integers(1, 400))
        steps = rng.random(length - 1) < rng.uniform(0.0, 0.3)
        path = np.minimum(np.concatenate([[0], np.cumsum(steps)]), 8)
        voiced = rng.random(length) < rng.uniform(0.0, 1.0)
        f0 = np.where(voiced, rng.uniform(60.0, 400.0, length), 0.0)
        log_energy = rng.normal(-2.0, 3.0, length)
        got = np.asarray(supra.segment_summaries(
            path, _track(f0, log_energy), 9))
        want = loop_segment_summaries(path, f0, log_energy, f0 > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_durations_sum_to_one():
    rng = np.random.default_rng(30)
    for _ in range(25):
        length = int(rng.integers(4, 30))
        steps = rng.random(length - 1) < 0.2
        path = np.minimum(np.concatenate([[0], np.cumsum(steps)]), 3)
        track = _track(np.zeros(length))
        vectors = np.asarray(supra.segment_summaries(path, track, 4))
        assert vectors[:, 3].sum() == pytest.approx(1.0, abs=1e-9)
        assert vectors.shape[0] <= 4


def test_summaries_reject_length_mismatch():
    with pytest.raises(LengthMismatchError):
        supra.segment_summaries([0, 0, 1], _track([0.0] * 4), 2)


def test_summaries_reject_bad_start():
    with pytest.raises(IllegalPathError):
        supra.segment_summaries([1, 1], _track([0.0] * 2), 2)


def test_summaries_reject_state_skip():
    with pytest.raises(IllegalPathError):
        supra.segment_summaries([0, 2], _track([0.0] * 2), 3)


def test_summaries_reject_out_of_range_state():
    with pytest.raises(IllegalPathError):
        supra.segment_summaries([0, 1], _track([0.0] * 2), 1)


def test_summaries_reject_backward_step():
    with pytest.raises(IllegalPathError):
        supra.segment_summaries([0, 1, 0], _track([0.0] * 3), 2)


def test_summaries_reject_non_integer_path():
    # a cast would truncate this path to [0, 0, 1, 1] and summarise it
    with pytest.raises(IllegalPathError,
                       match=r"^a path must hold integer state indices, not "
                             r"float64$"):
        supra.segment_summaries([0, 0.5, 1.7, 1.2],
                                _track([0.0] * 4), 2)


def test_summary_stack_rejects_non_integer_path():
    paths = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, np.nan]])
    with pytest.raises(IllegalPathError,
                       match=r"^a path must hold integer state indices, not "
                             r"float64$"):
        supra.summary_stack(paths, _track([0.0] * 3), 2)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
def test_paths_of_a_non_integer_dtype_are_refused_by_it(dtype):
    # whole-number values too: a path is an integer array, as viterbi gives
    path = np.array([0, 1, 1], dtype=dtype)
    for summarise in (
            lambda: supra.segment_summaries(path, _track([0.0] * 3), 2),
            lambda: supra.summary_stack(path[None], _track([0.0] * 3), 2)):
        with pytest.raises(IllegalPathError,
                           match=f"not {np.dtype(dtype)}$"):
            summarise()


@pytest.mark.parametrize("dtype", [np.int32, np.uint8])
def test_paths_of_any_integer_dtype_summarise_alike(dtype):
    track = _track([0.0, 120.0, 130.0, 0.0], [-1.0, 0.5, 2.0, -3.0])
    want = supra.segment_summaries(np.array([0, 1, 1, 2]), track, 3)
    path = np.array([0, 1, 1, 2], dtype=dtype)
    assert np.array_equal(supra.segment_summaries(path, track, 3), want)
    assert np.array_equal(supra.summary_stack(path[None], track, 3)[0], want)


def _assert_stack_matches_loop(paths, f0, log_energy, num_states):
    """summary_stack against the per-segment loop, and each path's rows bit
    for bit against segment_summaries of that path alone; rows past a
    path's last state are 0."""
    track = _track(f0, log_energy)
    got = supra.summary_stack(paths, track, num_states)
    assert got.shape == (len(paths), max(p[-1] for p in paths) + 1, 5)
    for path, rows in zip(paths, got):
        used = path[-1] + 1
        np.testing.assert_allclose(
            rows[:used], loop_segment_summaries(path, f0, log_energy,
                                           f0 > 0.0),
            rtol=1e-9, atol=1e-9)
        assert np.array_equal(rows[:used],
                              supra.segment_summaries(path, track, num_states))
        assert not rows[used:].any()


def test_summary_stack_edge_cases_match_per_segment_loop():
    # all-unvoiced segments, a single voiced frame, T = N, and paths that
    # end in different states
    f0 = np.array([0.0, 0.0, 150.0, 0.0, 0.0, 200.0, 210.0])
    log_energy = np.linspace(-4.0, 1.0, 7)
    paths = np.array([[0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6],
                      [0, 0, 1, 1, 2, 2, 2], [0, 0, 0, 1, 1, 1, 1]])
    _assert_stack_matches_loop(paths, f0, log_energy, 7)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_summary_stack_matches_per_segment_loop(data):
    num_states = data.draw(st.integers(1, 9), label="num_states")
    length = data.draw(st.integers(num_states, 40), label="length")
    count = data.draw(st.integers(1, 4), label="paths")
    # each path advances on the drawn frames until it reaches the last state
    steps = data.draw(st.lists(
        st.lists(st.booleans(), min_size=length - 1, max_size=length - 1),
        min_size=count, max_size=count), label="advances")
    paths = np.minimum(
        np.concatenate([np.zeros((count, 1), dtype=int),
                        np.cumsum(np.array(steps, dtype=int).reshape(
                            count, length - 1), axis=1)], axis=1),
        num_states - 1)
    voiced = np.array(data.draw(st.lists(st.booleans(), min_size=length,
                                         max_size=length), label="voiced"))
    f0 = np.where(voiced, data.draw(st.lists(
        st.floats(60.0, 400.0), min_size=length, max_size=length),
        label="f0"), 0.0)
    log_energy = np.array(data.draw(st.lists(
        st.floats(-10.0, 5.0), min_size=length, max_size=length),
        label="log_energy"))
    _assert_stack_matches_loop(paths, f0, log_energy, num_states)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", range(supra.SUPRA_DIM))
def test_observation_sequence_refuses_non_finite_vectors(trained_pair, column,
                                                         value):
    # a summary sequence is a plain (S, 5) array: the prosodic model refuses
    # a non-finite one in training and in scoring, as any observation
    _, model, _ = trained_pair
    clean = np.array([[120.0, 0.5, -2.0, 0.4, 1.0],
                      [0.0, 0.0, -3.0, 0.4, 0.0],
                      [150.0, -1.0, -1.0, 0.2, 0.5]])
    vectors = clean.copy()
    vectors[1, column] = value
    with pytest.raises(NonFiniteObservationError,
                       match="^observation frame 1 of 3 is not finite$"):
        hmm.forward_log_likelihood(model, vectors)
    with pytest.raises(NonFiniteObservationError,
                       match="^observation frame 1 of 3 in sequence 1 is not"):
        hmm.init_model([clean, vectors], 3, 1)


def test_nan_log_energy_is_refused_in_training_and_scoring(trained_pair):
    acoustic, model, probe = trained_pair
    log_energy = np.array(probe.prosody.log_energy)
    log_energy[len(log_energy) // 2] = np.nan
    bad = UtteranceFeatures(features=probe.features, prosody=ProsodicTrack(
        f0=probe.prosody.f0, log_energy=log_energy))
    with pytest.raises(NonFiniteObservationError,
                       match=r"in sequence 1 is not finite$"):
        supra.train_suprasegmental(acoustic, [probe, bad], 3, num_mixtures=1)
    with pytest.raises(NonFiniteObservationError, match="is not finite$"):
        supra.score_components(acoustic, model, bad)


# --- alignment and training --------------------------------------------------


def test_supra_observations_shape(trained_pair):
    acoustic, model, probe = trained_pair
    vectors = supra.supra_observations(acoustic, probe)
    assert not vectors.flags.writeable
    assert vectors.shape[1] == 5
    assert 1 <= vectors.shape[0] <= acoustic.num_states
    assert vectors[:, 3].sum() == pytest.approx(1.0, abs=1e-9)


def test_train_suprasegmental_structure(trained_pair):
    _, model, _ = trained_pair
    assert type(model) is hmm.AcousticModel
    assert model.num_states == 3
    assert model.feature_dim == 5


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


def test_fusion_at_alpha_zero_still_aligns(trained_pair):
    acoustic, model, probe = trained_pair
    frames = acoustic.num_states - 1
    short = UtteranceFeatures(
        features=probe.features[:frames],
        prosody=ProsodicTrack(f0=probe.prosody.f0[:frames],
                              log_energy=probe.prosody.log_energy[:frames]))
    # the acoustic stream alone has a score, but no left-to-right path
    # through every state fits, and alpha 0 aligns like every other alpha
    assert np.isfinite(hmm.forward_log_likelihood(acoustic, short.features))
    for alpha in (0.0, 0.5, 1.0):
        with pytest.raises(NoLegalPathError):
            supra.fused_score(acoustic, model, short,
                              supra.FusionConfig(alpha=alpha))


def test_fusion_config_validates_alpha():
    with pytest.raises(ValueError):
        supra.FusionConfig(alpha=1.5)
    with pytest.raises(ValueError):
        supra.FusionConfig(alpha=-0.1)


# --- persistence -------------------------------------------------------------


def test_supra_roundtrip_bit_exact(tmp_path, trained_pair):
    acoustic, model, probe = trained_pair
    path = tmp_path / "supra.bin"
    supra.save_supra_model(model, path)
    loaded = supra.load_supra_model(path)
    np.testing.assert_array_equal(loaded.transitions, model.transitions)
    for a, b in zip(loaded.mixtures, model.mixtures):
        np.testing.assert_array_equal(a.means, b.means)
    _, before = supra.score_components(acoustic, model, probe)
    _, after = supra.score_components(acoustic, loaded, probe)
    assert before == after
    # the model's own shape header
    magic, header, _ = container_parts(path.read_bytes())
    assert magic == b"EMOSM001"
    assert header == hmm.encode_model(model)[0]


def test_supra_load_rejects_acoustic_file(tmp_path, trained_pair):
    acoustic, _, _ = trained_pair
    path = tmp_path / "acoustic.bin"
    hmm.save_model(acoustic, path)
    with pytest.raises(UnsupportedFormatError):
        supra.load_supra_model(path)


def test_supra_load_refuses_a_model_of_other_width(tmp_path, trained_pair):
    # a 16-column model stored under the prosodic model's magic
    acoustic, _, _ = trained_pair
    path = tmp_path / "supra.bin"
    supra.save_supra_model(acoustic, path)
    with pytest.raises(CorruptFileError) as info:
        supra.load_supra_model(path)
    assert str(info.value) == (f"{path}: malformed suprasegmental model: a "
                               f"prosodic model emits 5 columns, not 16")
