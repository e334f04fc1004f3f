"""HMM core tests: scoring against path enumeration, training behavior,
initialization invariances and persistence."""

import math

import numpy as np
import pytest

from emocue import hmm
from emocue.errors import (
    DimensionMismatchError,
    EmptySequenceError,
    EmptyTrainingSetError,
    NoLegalPathError,
    NonFiniteObservationError,
    NumericalUnderflowError,
    SequenceTooShortError,
    UnsupportedFormatError,
)
from oracles import (
    enumerated_forward,
    enumerated_viterbi,
    frame_backward,
    frame_forward,
    frame_viterbi,
    random_case,
    random_model,
    scalar_log_density,
)


def _model_1state(mean, var):
    return hmm.AcousticModel(
        num_states=1, feature_dim=1,
        transitions=np.array([[1.0]]),
        mixtures=(hmm.GaussianMixture(weights=np.array([1.0]),
                                      means=np.array([[mean]]),
                                      variances=np.array([[var]])),))


# --- emission densities ------------------------------------------------------


def _floor_variance_model(rng, offset, num_states=3, dim=3):
    """Tight components near a common offset, one of them with zero weight;
    state j has j + 2 components."""
    mixtures = []
    for j in range(num_states):
        weights = rng.uniform(0.2, 1.0, size=j + 2)
        if j == 0:
            weights[1] = 0.0
        mixtures.append(hmm.GaussianMixture(
            weights=weights / weights.sum(),
            means=offset + rng.normal(0.0, 0.05, size=(j + 2, dim)),
            variances=np.full((j + 2, dim), hmm.VARIANCE_FLOOR)))
    transitions = random_model(rng, num_states, 1, 1).transitions
    return hmm.AcousticModel(num_states=num_states, feature_dim=dim,
                             transitions=transitions, mixtures=tuple(mixtures))


@pytest.mark.parametrize("offset", [0.0, 10.0, 1e3])
def test_state_densities_match_scalar_oracle_far_from_origin(offset):
    # floor variances make the expanded quadratic's cancellation worst
    rng = np.random.default_rng(40)
    model = _floor_variance_model(rng, offset)
    obs = offset + rng.normal(0.0, 0.05, size=(25, 3))
    got = hmm.state_log_densities(model, obs)
    want = [[scalar_log_density(mix, row) for mix in model.mixtures]
            for row in obs]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def test_state_densities_overflowing_cross_term_is_minus_inf():
    model = hmm.AcousticModel(
        num_states=2, feature_dim=2,
        transitions=np.array([[0.5, 0.5], [0.0, 1.0]]),
        mixtures=(hmm.GaussianMixture(weights=np.array([1.0]),
                                      means=np.array([[-1.0, -1.0]]),
                                      variances=np.full((1, 2), 1e-4)),
                  hmm.GaussianMixture(weights=np.array([1.0]),
                                      means=np.array([[1.0, 1.0]]),
                                      variances=np.full((1, 2), 1e-4))))
    # the square and the cross term both overflow: -inf + inf, which BLAS
    # may or may not fold to -inf depending on the kernel it picks
    outlier = np.array([[1e305, 1e305]])
    assert np.all(hmm.state_log_densities(model, outlier) == -math.inf)
    obs = np.concatenate([[[0.5, -0.5]], outlier, [[-0.25, 0.0]]])
    got = hmm.state_log_densities(model, obs)
    assert np.all(got[1] == -math.inf)
    for t in (0, 2):
        want = [scalar_log_density(mix, obs[t]) for mix in model.mixtures]
        np.testing.assert_allclose(got[t], want, rtol=0.0, atol=1e-9)
    assert hmm.forward_log_likelihood(model, obs) == -math.inf


def test_scores_saturate_when_cumulative_offsets_overflow():
    # each frame adds about -5e305; a thousand of them pass -1.8e308
    model = _model_1state(0.0, 1.0)
    obs = np.full((1000, 1), 1e153)
    assert hmm.forward_log_likelihood(model, obs) == -math.inf
    alpha, beta = hmm.forward_backward(model, obs)
    assert alpha[-1, 0] == -math.inf and beta[0, 0] == -math.inf
    assert not np.isnan(alpha).any() and not np.isnan(beta).any()


# --- non-finite observations -------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_observation_names_first_bad_frame(bad):
    model = _model_1state(0.0, 1.0)
    obs = np.zeros((6, 1))
    obs[3, 0] = bad
    obs[5, 0] = bad
    for score in (hmm.forward_log_likelihood, hmm.viterbi,
                  hmm.forward_backward):
        with pytest.raises(NonFiniteObservationError, match="frame 3 "):
            score(model, obs)
    with pytest.raises(NonFiniteObservationError, match="frame 3 "):
        hmm.baum_welch(model, [np.zeros((4, 1)), obs])
    with pytest.raises(NonFiniteObservationError, match="frame 3 "):
        hmm.init_model([obs], 1, 1)


# --- state-wise recursions against the per-frame reference -------------------


def _check_against_frames(model, obs):
    logb = hmm.state_log_densities(model, obs)
    want_alpha = frame_forward(model, logb)
    alpha, beta = hmm.forward_backward(model, obs)
    np.testing.assert_allclose(alpha, want_alpha, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(beta, frame_backward(model, logb),
                               rtol=1e-9, atol=1e-9)
    want_ll = np.logaddexp.reduce(want_alpha[-1])
    assert hmm.forward_log_likelihood(model, obs) == \
        pytest.approx(want_ll, rel=1e-9)
    path, score = hmm.viterbi(model, obs)
    want_path, want_score = frame_viterbi(model, logb)
    assert score == pytest.approx(want_score, rel=1e-9)
    assert list(path) == want_path


@pytest.mark.parametrize("length", [9, 10, 150, 2000])
def test_long_sequences_match_per_frame_recursions(length):
    # cumulative sums over thousands of frames must not drift
    rng = np.random.default_rng(41 + length)
    model = random_model(rng, num_states=9, num_mixtures=10, dim=3)
    obs = rng.normal(0.0, 2.0, size=(length, 3))
    _check_against_frames(model, obs)


def test_non_finite_band_falls_back_to_per_frame(monkeypatch):
    rng = np.random.default_rng(42)
    base = random_model(rng, num_states=9, num_mixtures=10, dim=3)
    transitions = np.array(base.transitions)
    transitions[3, 3], transitions[3, 4] = 0.0, 1.0      # zero self-loop
    mixtures = list(base.mixtures)
    tight = mixtures[5]                          # the outlier underflows here
    mixtures[5] = hmm.GaussianMixture(
        weights=tight.weights, means=tight.means,
        variances=np.full_like(tight.variances, hmm.VARIANCE_FLOOR))
    model = hmm.AcousticModel(num_states=9, feature_dim=3,
                              transitions=transitions,
                              mixtures=tuple(mixtures))
    obs = rng.normal(0.0, 2.0, size=(300, 3))
    # last frame, so every path decision before it stays well conditioned
    obs[-1] = 1e153
    logb = hmm.state_log_densities(model, obs)
    assert logb[-1, 5] == -math.inf
    assert np.isfinite(np.delete(logb[-1], 5)).all()

    calls = []
    frames = hmm._frames
    monkeypatch.setattr(hmm, "_frames",
                        lambda *args: calls.append(1) or frames(*args))
    _check_against_frames(model, obs)
    assert calls


# --- forward -----------------------------------------------------------------


def test_forward_single_state_is_density_sum():
    model = _model_1state(0.5, 2.0)
    obs = np.array([[0.0], [1.0], [2.5]])
    want = sum(scalar_log_density(model.mixtures[0], row) for row in obs)
    got = hmm.forward_log_likelihood(model, obs)
    assert got == pytest.approx(want, abs=1e-12)


def test_forward_two_state_three_frame_toy():
    rng = np.random.default_rng(42)
    model = random_model(rng, num_states=2, num_mixtures=1, dim=1)
    obs = rng.normal(size=(3, 1))
    got = hmm.forward_log_likelihood(model, obs)
    assert got == pytest.approx(enumerated_forward(model, obs), abs=1e-9)


def test_forward_matches_enumeration_randomized():
    rng = np.random.default_rng(7)
    for _ in range(150):
        model, obs = random_case(rng, min_len=1)
        got = hmm.forward_log_likelihood(model, obs)
        assert got == pytest.approx(enumerated_forward(model, obs), abs=1e-9)


def test_forward_rejects_empty_sequence():
    with pytest.raises(EmptySequenceError):
        hmm.forward_log_likelihood(_model_1state(0.0, 1.0),
                                   np.zeros((0, 1)))


def test_forward_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatchError):
        hmm.forward_log_likelihood(_model_1state(0.0, 1.0), np.zeros((4, 3)))


# --- viterbi -----------------------------------------------------------------


def test_viterbi_single_state_equals_forward():
    model = _model_1state(-1.0, 0.7)
    obs = np.array([[0.0], [-1.5], [2.0], [0.3]])
    path, score = hmm.viterbi(model, obs)
    assert list(path) == [0, 0, 0, 0]
    assert score == pytest.approx(hmm.forward_log_likelihood(model, obs),
                                  abs=1e-12)


def test_viterbi_matches_enumeration_randomized():
    rng = np.random.default_rng(8)
    for _ in range(150):
        model, obs = random_case(rng)
        path, score = hmm.viterbi(model, obs)
        want_path, want_score = enumerated_viterbi(model, obs)
        assert score == pytest.approx(want_score, abs=1e-9)
        assert list(path) == want_path
        assert path[0] == 0
        assert np.all(np.diff(path) >= 0)


def test_viterbi_staircase_when_length_equals_states():
    rng = np.random.default_rng(9)
    model = random_model(rng, num_states=4, num_mixtures=2, dim=2)
    obs = rng.normal(size=(4, 2))
    path, score = hmm.viterbi(model, obs)
    assert list(path) == [0, 1, 2, 3]
    assert math.isfinite(score)


def test_viterbi_no_legal_path_when_too_short():
    rng = np.random.default_rng(10)
    model = random_model(rng, num_states=5, num_mixtures=1, dim=1)
    with pytest.raises(NoLegalPathError):
        hmm.viterbi(model, rng.normal(size=(3, 1)))


def test_viterbi_never_exceeds_forward():
    rng = np.random.default_rng(11)
    for _ in range(100):
        model, obs = random_case(rng)
        _, score = hmm.viterbi(model, obs)
        assert score <= hmm.forward_log_likelihood(model, obs) + 1e-9


def test_viterbi_deterministic():
    rng = np.random.default_rng(12)
    model, obs = random_case(rng)
    first = hmm.viterbi(model, obs)
    second = hmm.viterbi(model, obs)
    assert list(first[0]) == list(second[0])
    assert first[1] == second[1]


# --- forward/backward --------------------------------------------------------


def test_forward_backward_consistent_at_every_time():
    rng = np.random.default_rng(13)
    for _ in range(50):
        model, obs = random_case(rng, min_len=1)
        alpha, beta = hmm.forward_backward(model, obs)
        ll = hmm.forward_log_likelihood(model, obs)
        for t in range(obs.shape[0]):
            combined = alpha[t] + beta[t]
            peak = np.max(combined)
            total = peak + np.log(np.sum(np.exp(combined - peak)))
            assert total == pytest.approx(ll, abs=1e-8)


# --- initialization ----------------------------------------------------------


def test_init_single_state_single_component_is_global_stats():
    rng = np.random.default_rng(14)
    seqs = [rng.normal(size=(20, 3)), rng.normal(size=(15, 3))]
    model = hmm.init_model(seqs, 1, 1)
    frames = np.concatenate(seqs)
    np.testing.assert_allclose(model.mixtures[0].means[0], frames.mean(axis=0),
                               atol=1e-12)
    np.testing.assert_allclose(model.mixtures[0].variances[0],
                               np.maximum(frames.var(axis=0), 1e-4),
                               atol=1e-12)
    assert model.transitions[0, 0] == 1.0


def test_init_shapes_and_transitions():
    rng = np.random.default_rng(15)
    seqs = [rng.normal(size=(40, 16)) for _ in range(3)]
    model = hmm.init_model(seqs, 9, 10)
    assert model.num_states == 9
    assert model.feature_dim == 16
    for s in range(9):
        assert model.mixtures[s].means.shape == (10, 16)
    band = model.transitions
    for i in range(8):
        assert band[i, i] == pytest.approx(0.5)
        assert band[i, i + 1] == pytest.approx(0.5)
    assert band[8, 8] == 1.0
    assert np.count_nonzero(band) == 17


def test_init_duplication_invariance():
    # doubling the corpus leaves the seeding and cluster assignments
    # unchanged; stats match up to float summation order
    rng = np.random.default_rng(16)
    seqs = [rng.normal(size=(12, 2)), rng.normal(size=(9, 2))]
    one = hmm.init_model(seqs, 3, 2)
    two = hmm.init_model(seqs + seqs, 3, 2)
    np.testing.assert_array_equal(one.transitions, two.transitions)
    for a, b in zip(one.mixtures, two.mixtures):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_allclose(a.means, b.means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.variances, b.variances, rtol=0,
                                   atol=1e-12)


def test_init_seed_has_no_effect():
    rng = np.random.default_rng(17)
    seqs = [rng.normal(size=(10, 2))]
    one = hmm.init_model(seqs, 2, 2, seed=1)
    two = hmm.init_model(seqs, 2, 2, seed=999)
    for a, b in zip(one.mixtures, two.mixtures):
        np.testing.assert_array_equal(a.means, b.means)


def test_init_rejects_short_sequence():
    rng = np.random.default_rng(18)
    with pytest.raises(SequenceTooShortError):
        hmm.init_model([rng.normal(size=(2, 1))], 3, 1)


def test_init_rejects_empty_training_set():
    with pytest.raises(EmptyTrainingSetError):
        hmm.init_model([], 2, 1)


def test_init_more_components_than_frames():
    # each state chunk has a single frame; extra components get zero weight
    rng = np.random.default_rng(19)
    model = hmm.init_model([rng.normal(size=(3, 2))], 3, 4)
    for mixture in model.mixtures:
        assert mixture.weights.sum() == pytest.approx(1.0)
        assert np.count_nonzero(mixture.weights) == 1
    # the model still scores sequences
    assert math.isfinite(
        hmm.forward_log_likelihood(model, rng.normal(size=(5, 2))))


# --- training ----------------------------------------------------------------


def _training_set(rng, num=12, length=30, dim=2):
    truth = random_model(rng, num_states=3, num_mixtures=2, dim=dim)
    del truth  # observations need not match any model for these tests
    return [rng.normal(scale=1.5, size=(length, dim)) + rng.normal(size=dim)
            for _ in range(num)]


def test_baum_welch_ll_non_decreasing():
    rng = np.random.default_rng(20)
    seqs = _training_set(rng)
    init = hmm.init_model(seqs, 3, 2)
    _, report = hmm.baum_welch(init, seqs, max_iters=15)
    lls = report.log_likelihood_per_iteration
    assert len(lls) == report.iterations_run
    for earlier, later in zip(lls, lls[1:]):
        assert later >= earlier - 1e-6


def test_baum_welch_improves_over_init():
    rng = np.random.default_rng(21)
    seqs = _training_set(rng)
    init = hmm.init_model(seqs, 3, 2)
    trained, report = hmm.baum_welch(init, seqs, max_iters=20)
    init_ll = sum(hmm.forward_log_likelihood(init, s) for s in seqs)
    final_ll = sum(hmm.forward_log_likelihood(trained, s) for s in seqs)
    assert final_ll >= init_ll - 1e-6
    assert report.iterations_run >= 1


def test_baum_welch_preserves_structure():
    rng = np.random.default_rng(22)
    seqs = _training_set(rng)
    trained, _ = hmm.baum_welch(hmm.init_model(seqs, 3, 2), seqs,
                                max_iters=10)
    band = trained.transitions
    assert band[1, 0] == 0.0
    assert band[0, 2] == 0.0
    assert band[2, 2] == 1.0
    np.testing.assert_allclose(band.sum(axis=1), 1.0, atol=1e-9)
    for mixture in trained.mixtures:
        assert mixture.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(mixture.variances >= 1e-4 - 1e-15)


def test_baum_welch_fixed_point_after_convergence():
    rng = np.random.default_rng(23)
    seqs = _training_set(rng, num=8, length=24)
    tol = 1e-3
    converged, first = hmm.baum_welch(hmm.init_model(seqs, 2, 2), seqs,
                                      max_iters=60, tol=tol)
    assert first.converged
    again, report = hmm.baum_welch(converged, seqs, max_iters=5, tol=tol)
    lls = report.log_likelihood_per_iteration
    assert report.converged
    assert report.iterations_run == 2
    assert abs(lls[1] - lls[0]) < tol * max(1.0, abs(lls[0]))
    final_ll = sum(hmm.forward_log_likelihood(again, s) for s in seqs)
    assert final_ll >= lls[0] - 1e-6


def test_baum_welch_deterministic():
    rng = np.random.default_rng(24)
    seqs = _training_set(rng, num=6)
    init = hmm.init_model(seqs, 3, 2)
    one, _ = hmm.baum_welch(init, seqs, max_iters=5)
    two, _ = hmm.baum_welch(init, seqs, max_iters=5)
    np.testing.assert_array_equal(one.transitions, two.transitions)
    for a, b in zip(one.mixtures, two.mixtures):
        np.testing.assert_array_equal(a.means, b.means)


def test_baum_welch_keeps_per_state_component_counts():
    rng = np.random.default_rng(27)
    seqs = _training_set(rng, num=6)
    init = hmm.init_model(seqs, 3, 3)
    init = hmm.AcousticModel(
        num_states=3, feature_dim=2, transitions=init.transitions,
        mixtures=(init.mixtures[0],
                  hmm.GaussianMixture(weights=np.array([1.0]),
                                      means=init.mixtures[1].means[:1],
                                      variances=init.mixtures[1].variances[:1]),
                  init.mixtures[2]))
    trained, report = hmm.baum_welch(init, seqs, max_iters=5)
    assert [m.num_components for m in trained.mixtures] == [3, 1, 3]
    lls = report.log_likelihood_per_iteration
    assert all(b >= a - 1e-6 for a, b in zip(lls, lls[1:]))


def test_baum_welch_rejects_short_sequence():
    rng = np.random.default_rng(25)
    seqs = [rng.normal(size=(10, 1))]
    model = hmm.init_model(seqs, 3, 1)
    with pytest.raises(SequenceTooShortError):
        hmm.baum_welch(model, [rng.normal(size=(2, 1))])


def test_baum_welch_underflow_reported():
    model = _model_1state(0.0, 1.0)
    # the squared deviation overflows to inf, the log-density to -inf
    bad = np.array([[1e200], [1e200]])
    assert hmm.forward_log_likelihood(model, bad) == -math.inf
    with pytest.raises(NumericalUnderflowError):
        hmm.baum_welch(model, [bad])


# --- model validation --------------------------------------------------------


def test_model_rejects_skip_transitions():
    with pytest.raises(ValueError):
        hmm.AcousticModel(
            num_states=3, feature_dim=1,
            transitions=np.array([[0.5, 0.25, 0.25],
                                  [0.0, 0.5, 0.5],
                                  [0.0, 0.0, 1.0]]),
            mixtures=tuple(
                hmm.GaussianMixture(weights=np.array([1.0]),
                                    means=np.zeros((1, 1)),
                                    variances=np.ones((1, 1)))
                for _ in range(3)))


def test_model_rejects_non_stochastic_rows():
    with pytest.raises(ValueError):
        hmm.AcousticModel(
            num_states=2, feature_dim=1,
            transitions=np.array([[0.4, 0.4], [0.0, 1.0]]),
            mixtures=tuple(
                hmm.GaussianMixture(weights=np.array([1.0]),
                                    means=np.zeros((1, 1)),
                                    variances=np.ones((1, 1)))
                for _ in range(2)))


def test_mixture_rejects_bad_weights():
    with pytest.raises(ValueError):
        hmm.GaussianMixture(weights=np.array([0.5, 0.4]),
                            means=np.zeros((2, 1)),
                            variances=np.ones((2, 1)))


def test_mixture_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        hmm.GaussianMixture(weights=np.array([1.0]),
                            means=np.zeros((1, 1)),
                            variances=np.zeros((1, 1)))


# --- persistence -------------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(26)
    seqs = _training_set(rng, num=5)
    model, _ = hmm.baum_welch(hmm.init_model(seqs, 3, 2), seqs, max_iters=5)
    path = tmp_path / "model.json"
    hmm.save_model(model, path)
    loaded = hmm.load_model(path)
    np.testing.assert_array_equal(model.transitions, loaded.transitions)
    for a, b in zip(model.mixtures, loaded.mixtures):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
    probe = rng.normal(size=(10, 2))
    assert hmm.forward_log_likelihood(model, probe) == \
        hmm.forward_log_likelihood(loaded, probe)


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(UnsupportedFormatError):
        hmm.load_model(path)
