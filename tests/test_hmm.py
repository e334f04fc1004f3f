"""HMM core tests: scoring against path enumeration, training behavior,
initialization invariances and persistence."""

import json
import math
import os
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocue import hmm
from emocue.container import readonly
from emocue.errors import (
    CorruptFileError,
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
    loop_init_model,
    loop_kmeans,
    model_from_states,
    random_case,
    random_model,
    scalar_log_density,
    sequence_baum_welch,
)

from conftest import container_bytes


def _model_1state(mean, var):
    return hmm.AcousticModel([[1.0]], [[1.0]], [[[mean]]], [[[var]]])


# --- emission densities ------------------------------------------------------


def _floor_variance_model(rng, offset, num_states=3, dim=3):
    """Tight components near a common offset, four per state, one of them
    with zero weight."""
    states = []
    for j in range(num_states):
        weights = rng.uniform(0.2, 1.0, size=4)
        if j == 0:
            weights[1] = 0.0
        states.append((weights / weights.sum(),
                       offset + rng.normal(0.0, 0.05, size=(4, dim)),
                       np.full((4, dim), hmm.VARIANCE_FLOOR)))
    transitions = random_model(rng, num_states, 1, 1).transitions
    return model_from_states(transitions, states)


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
        [[0.5, 0.5], [0.0, 1.0]], [[1.0, 1.0]],
        [[[-1.0, -1.0], [1.0, 1.0]]], np.full((1, 2, 2), 1e-4))
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


@pytest.mark.parametrize("obs, kind", [
    (np.array([[0.0, 0.0, 0.0], [0.0, math.nan, 0.0]]),
     NonFiniteObservationError),
    (np.zeros((5, 4)), DimensionMismatchError),
    (np.zeros(3), DimensionMismatchError),
    (np.zeros((0, 3)), EmptySequenceError),
], ids=["nan frame", "wrong dimension", "1-D", "empty"])
def test_emission_pass_checks_its_frames_as_every_scorer_does(obs, kind):
    # the public emission pass refuses what the scorers built on it refuse,
    # with the same type and message: they hand it their frames unchecked
    model = random_model(np.random.default_rng(3), num_states=3,
                         num_mixtures=2, dim=3)
    messages = set()
    for score in (hmm.state_log_densities, hmm.forward_log_likelihood,
                  hmm.forward_backward, hmm.viterbi):
        with pytest.raises(kind) as error:
            score(model, obs)
        messages.add(str(error.value))
    assert len(messages) == 1, messages


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
    variances = np.array(base.variances)
    variances[:, 5] = hmm.VARIANCE_FLOOR         # the outlier underflows here
    model = hmm.AcousticModel(transitions, base.weights, base.means,
                              variances)
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


# --- kernel edge cases -------------------------------------------------------


def test_viterbi_exact_tie_loops_as_frame_viterbi(monkeypatch):
    # With l = log 0.5, staying in state 1 at frame 2 scores l + l and
    # advancing from state 0 scores (0 + l) + l: the same double, also in
    # the library's offset-shifted recurrence.
    base = random_model(np.random.default_rng(50), num_states=2,
                        num_mixtures=1, dim=1)
    model = hmm.AcousticModel([[0.5, 0.5], [0.0, 1.0]], base.weights,
                              base.means, base.variances)
    half = math.log(0.5)
    logb = np.array([[0.0, -50.0], [0.0, half], [-50.0, 0.0]])
    monkeypatch.setattr(hmm, "state_log_densities", lambda m, obs: logb)
    obs = np.zeros((3, 1))
    want_path, want_score = frame_viterbi(model, logb)
    path, score = hmm.viterbi(model, obs)
    assert want_path == [0, 1, 1]
    assert list(path) == want_path and score == want_score == 2 * half
    assert hmm.forward_log_likelihood(model, obs) == pytest.approx(
        np.logaddexp.reduce(frame_forward(model, logb)[-1]), rel=1e-12)


def test_zero_self_loop_in_state_zero_matches_oracles():
    # state 0's cumulative offset is -inf after frame 0
    rng = np.random.default_rng(51)
    base = random_model(rng, num_states=3, num_mixtures=2, dim=2)
    transitions = np.array(base.transitions)
    transitions[0, :2] = [0.0, 1.0]
    model = hmm.AcousticModel(transitions, base.weights, base.means,
                              base.variances)
    for length in (3, 4, 7):
        obs = rng.normal(0.0, 2.0, size=(length, 2))
        _check_against_frames(model, obs)
        assert hmm.forward_log_likelihood(model, obs) == pytest.approx(
            enumerated_forward(model, obs), abs=1e-9)
        assert hmm.viterbi(model, obs)[0][1] == 1


def _last_state_underflow_case(num_states=3, length=8, outlier=4):
    """Observations whose frame `outlier` has a log emission of -inf in the
    last state only. Dimension 0 carries the outlier: the last state's
    variance there is the floor, so (1e153)^2 / 1e-4 overflows, while the
    other states' variance 1e300 keeps theirs finite. Dimension 1 carries
    the signal."""
    rng = np.random.default_rng(52)
    base = random_model(rng, num_states=num_states, num_mixtures=2, dim=2)
    means, variances = np.array(base.means), np.array(base.variances)
    means[..., 0] = 0.0
    variances[..., 0] = 1e300
    variances[:, -1, 0] = hmm.VARIANCE_FLOOR
    model = hmm.AcousticModel(base.transitions, base.weights, means,
                              variances)
    obs = np.column_stack((np.zeros(length), rng.normal(0.0, 2.0, length)))
    obs[outlier, 0] = 1e153
    return model, obs


def test_emission_underflow_in_last_state_matches_frame_oracles(monkeypatch):
    model, obs = _last_state_underflow_case()
    finite = np.isfinite(hmm.state_log_densities(model, obs))
    assert not finite[4, -1] and finite.sum() == finite.size - 1
    calls = []
    frames = hmm._frames
    monkeypatch.setattr(hmm, "_frames",
                        lambda *args: calls.append(1) or frames(*args))
    _check_against_frames(model, obs)
    assert calls
    assert hmm.viterbi(model, obs)[0][4] < 2


def test_non_finite_emission_peak_takes_the_fallback():
    # Every component of the last state is -inf at frame 2, so its peak is
    # -inf, and shifting by it would give -inf - (-inf) = NaN. (The NaN
    # peak of an inf - inf product is covered by
    # test_state_densities_overflowing_cross_term_is_minus_inf.)
    model, obs = _last_state_underflow_case(length=6, outlier=2)
    logb = hmm.state_log_densities(model, obs)
    assert not np.isnan(logb).any()
    assert logb[2, -1] == -math.inf
    want = [[scalar_log_density(mix, row) for mix in model.mixtures]
            for row in np.delete(obs, 2, axis=0)]
    np.testing.assert_allclose(np.delete(logb, 2, axis=0), want, rtol=1e-12)
    alpha = frame_forward(model, logb)
    assert hmm.forward_log_likelihood(model, obs) == pytest.approx(
        np.logaddexp.reduce(alpha[-1]), rel=1e-12)
    path, score = hmm.viterbi(model, obs)
    want_path, want_score = frame_viterbi(model, logb)
    assert list(path) == want_path
    assert score == pytest.approx(want_score, rel=1e-12)


@pytest.mark.parametrize("num_states", [1, 2, 4])
def test_forward_single_frame_matches_oracles(num_states):
    rng = np.random.default_rng(53 + num_states)
    model = random_model(rng, num_states=num_states, num_mixtures=2, dim=2)
    obs = rng.normal(0.0, 2.0, size=(1, 2))
    got = hmm.forward_log_likelihood(model, obs)
    alpha = frame_forward(model, hmm.state_log_densities(model, obs))
    assert got == pytest.approx(enumerated_forward(model, obs), abs=1e-12)
    assert got == np.logaddexp.reduce(alpha[-1]) == alpha[0, 0]


@pytest.mark.parametrize("num_states", [1, 2, 3, 5])
@pytest.mark.parametrize("extra", [0, 1])
def test_viterbi_at_minimum_lengths_matches_oracles(num_states, extra):
    # T = N forces the staircase; T = N + 1 lets exactly one state loop
    rng = np.random.default_rng(60 + 2 * num_states + extra)
    model = random_model(rng, num_states=num_states, num_mixtures=2, dim=2)
    obs = rng.normal(0.0, 2.0, size=(num_states + extra, 2))
    path, score = hmm.viterbi(model, obs)
    want_path, want_score = enumerated_viterbi(model, obs)
    assert list(path) == want_path
    assert score == pytest.approx(want_score, abs=1e-9)
    frame_path, frame_score = frame_viterbi(
        model, hmm.state_log_densities(model, obs))
    assert list(path) == frame_path
    assert score == pytest.approx(frame_score, rel=1e-12)


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


# --- model stacks against per-model calls ------------------------------------


def _assert_stack_matches(models, obs):
    """Stacked densities, totals and paths equal to the per-model calls bit
    for bit; a sequence that some model's viterbi refuses is refused by the
    stack with the same message."""
    stack = hmm.ModelStack(models)
    densities = stack._log_densities(obs)
    totals = stack.forward_log_likelihoods(obs)
    for k, model in enumerate(models):
        assert np.array_equal(densities[:, k].T,
                              hmm.state_log_densities(model, obs))
        assert np.array_equal(totals[k], hmm.forward_log_likelihood(model, obs))
    try:
        paths = [hmm.viterbi(model, obs)[0] for model in models]
    except NoLegalPathError as exc:
        with pytest.raises(NoLegalPathError) as refused:
            stack.forward_and_viterbi(obs)
        assert str(refused.value) == str(exc)
        return
    both, stacked_paths = stack.forward_and_viterbi(obs)
    assert np.array_equal(both, totals)
    assert np.array_equal(stacked_paths, np.stack(paths))


def test_stack_matches_per_model_calls_on_bank_models(tiny_trained):
    bank, features = tiny_trained["bank"], tiny_trained["features"]
    roles = [[bank.emotion_models[e].acoustic for e in bank.emotions],
             list(bank.one_stage_models.values())]
    roles += [[bank.speaker_models[(s, e)] for s in bank.speakers]
              for e in bank.emotions]
    for r in tiny_trained["test"]:
        for models in roles:
            _assert_stack_matches(models, features[r.id].features)


def test_stack_matches_per_model_calls_with_a_zero_self_loop():
    # the stuck-row fallback runs for one row of the stack only
    rng = np.random.default_rng(61)
    base = random_model(rng, num_states=3, num_mixtures=2, dim=2)
    transitions = np.array(base.transitions)
    transitions[0, :2] = [0.0, 1.0]
    stuck = hmm.AcousticModel(transitions, base.weights, base.means,
                              base.variances)
    for length in (3, 4, 7, 40):
        _assert_stack_matches([base, stuck, base],
                              rng.normal(0.0, 2.0, size=(length, 2)))


def test_stack_matches_per_model_calls_when_length_equals_states():
    rng = np.random.default_rng(62)
    models = [random_model(rng, num_states=4, num_mixtures=2, dim=2)
              for _ in range(3)]
    obs = rng.normal(size=(4, 2))
    _assert_stack_matches(models, obs)
    _, paths = hmm.ModelStack(models).forward_and_viterbi(obs)
    assert paths.tolist() == [[0, 1, 2, 3]] * 3


@pytest.mark.parametrize("num_states, num_mixtures, dim",
                         [(9, 10, 16), (3, 2, 16)])
def test_stack_matches_per_model_calls_at_every_length(num_states,
                                                       num_mixtures, dim):
    # the batched product against one product per model, at every length
    # from 1 to 120 frames, on the bank's default and small model sizes
    rng = np.random.default_rng(63)
    models = [random_model(rng, num_states, num_mixtures, dim)
              for _ in range(3)]
    models.append(_sparse_model(
        rng, [1 + j % (num_mixtures - 1) for j in range(num_states)],
        num_mixtures, dim))
    for length in range(1, 121):
        _assert_stack_matches(models,
                              rng.normal(0.5, 2.0, size=(length, dim)))


@pytest.mark.parametrize("shapes", [((3, 2, 2), (4, 2, 2)),
                                    ((3, 2, 2), (3, 2, 3)),
                                    ((3, 2, 2), (3, 3, 2))],
                         ids=["num_states", "feature_dim", "components"])
def test_stack_rejects_models_of_another_topology(shapes):
    rng = np.random.default_rng(64)
    models = [random_model(rng, n, m, d) for n, m, d in shapes]
    with pytest.raises(ValueError, match="num_states and feature_dim"):
        hmm.ModelStack(models)


def test_stack_refuses_too_short_sequence_as_viterbi_does():
    rng = np.random.default_rng(65)
    models = [random_model(rng, num_states=5, num_mixtures=1, dim=1)
              for _ in range(2)]
    obs = rng.normal(size=(3, 1))
    with pytest.raises(NoLegalPathError) as per_model:
        hmm.viterbi(models[0], obs)
    with pytest.raises(NoLegalPathError) as stacked:
        hmm.ModelStack(models).forward_and_viterbi(obs)
    assert str(stacked.value) == str(per_model.value) == (
        "no left-to-right path through 5 states fits 3 frames")


def _sparse_model(rng, live=(3, 1, 2), num_mixtures=3, dim=4):
    """A model whose state j has live[j] components of nonzero weight; the
    rest of its num_mixtures have weight 0."""
    base = random_model(rng, len(live), num_mixtures, dim)
    weights = np.zeros((num_mixtures, len(live)))
    for j, c in enumerate(live):
        raw = rng.uniform(0.2, 1.0, size=c)
        weights[:c, j] = raw / raw.sum()
    return hmm.AcousticModel(base.transitions, weights, base.means,
                             base.variances)


@pytest.mark.parametrize("num_states, dim", [(3, 5), (9, 16)])
def test_stack_scores_one_sequence_per_model_as_per_model_calls(num_states,
                                                                dim):
    # a (K, T, D) stack, sequence k under model k, as sweep-alpha's
    # prosodic pass scores it: models repeat, and some of their states hold
    # components of weight 0; every length from N to 30
    rng = np.random.default_rng(66)
    models = [random_model(rng, num_states, 3, dim),
              _sparse_model(rng, [1 + j % 3 for j in range(num_states)],
                            3, dim),
              _sparse_model(rng, [2] + [3] * (num_states - 1), 3, dim)] * 3
    stack = hmm.ModelStack(models)
    for length in range(num_states, 31):
        seqs = rng.normal(0.5, 2.0, size=(len(models), length, dim))
        totals, paths = stack.forward_and_viterbi(seqs)
        assert np.array_equal(stack.forward_log_likelihoods(seqs), totals)
        for k, (model, seq) in enumerate(zip(models, seqs)):
            assert np.array_equal(totals[k],
                                  hmm.forward_log_likelihood(model, seq))
            assert np.array_equal(paths[k], hmm.viterbi(model, seq)[0])


def test_stack_of_sequences_is_checked_as_each_sequence_is():
    rng = np.random.default_rng(67)
    stack = hmm.ModelStack(random_model(rng, 2, 1, 3) for _ in range(3))
    with pytest.raises(ValueError, match="3 models scores 3 sequences, got 2"):
        stack.forward_log_likelihoods(np.zeros((2, 4, 3)))
    with pytest.raises(EmptySequenceError):
        stack.forward_log_likelihoods(np.zeros((3, 0, 3)))
    with pytest.raises(DimensionMismatchError, match="expected dimension 3"):
        stack.forward_log_likelihoods(np.zeros((3, 4, 2)))
    seqs = np.zeros((3, 4, 3))
    seqs[1, 2, 0] = np.nan
    seqs[2, 0, 1] = np.inf
    with pytest.raises(NonFiniteObservationError,
                       match="frame 2 of 4 in sequence 1 is not finite"):
        stack.forward_log_likelihoods(seqs)


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalUnderflowError):
            hmm.baum_welch(model, [bad])


# --- batched training against the per-sequence oracle ------------------------


def _assert_models_close(got, want, atol):
    assert [m.num_components for m in got.mixtures] == \
        [m.num_components for m in want.mixtures]
    np.testing.assert_allclose(got.transitions, want.transitions, rtol=0,
                               atol=atol)
    for a, b in zip(got.mixtures, want.mixtures):
        for field in ("weights", "means", "variances"):
            np.testing.assert_allclose(getattr(a, field), getattr(b, field),
                                       rtol=0, atol=atol)


def _check_em_against_oracle(init, seqs, **kwargs):
    got, report = hmm.baum_welch(init, seqs, **kwargs)
    want, expected = sequence_baum_welch(init, seqs, **kwargs)
    assert report.iterations_run == expected.iterations_run
    assert report.converged == expected.converged
    np.testing.assert_allclose(report.log_likelihood_per_iteration,
                               expected.log_likelihood_per_iteration,
                               rtol=1e-9)
    _assert_models_close(got, want, 1e-9)
    return got, report


@pytest.mark.parametrize("count", [1, 2, 7])
def test_batched_em_matches_per_sequence_em(count):
    rng = np.random.default_rng(60 + count)
    num_states = 5
    # unequal lengths; beside others, one is as short as a fit allows
    lengths = ([73] if count == 1 else
               [num_states, *rng.integers(num_states + 1, 90, size=count - 1)])
    seqs = [rng.normal(size=(t, 4)) + rng.normal(size=4) for t in lengths]
    _, report = _check_em_against_oracle(
        hmm.init_model(seqs, num_states, 3), seqs, max_iters=25)
    assert report.iterations_run > 2


def test_batched_em_matches_oracle_with_zero_weight_components():
    rng = np.random.default_rng(70)
    seqs = [rng.normal(size=(t, 3)) + 0.5 * i
            for i, t in enumerate((31, 18, 44, 25))]
    init = hmm.init_model(seqs, 3, 4)
    weights = np.array(init.weights)
    weights[:, 1] = [1.0, 0.0, 0.0, 0.0]
    weights[:, 2] = [0.25, 0.75, 0.0, 0.0]
    init = hmm.AcousticModel(init.transitions, weights, init.means,
                             init.variances)
    _check_em_against_oracle(init, seqs, max_iters=15)


def test_batched_em_matches_oracle_through_frame_fallback(monkeypatch):
    rng = np.random.default_rng(71)
    base = random_model(rng, num_states=5, num_mixtures=3, dim=2)
    transitions = np.array(base.transitions)
    transitions[2, 2], transitions[2, 3] = 0.0, 1.0      # zero self-loop
    model = hmm.AcousticModel(transitions, base.weights, base.means,
                              base.variances)
    seqs = [rng.normal(0.0, 2.0, size=(t, 2)) for t in (40, 5, 57)]
    seqs[2][30] = [40.0, -35.0]                          # an outlier frame

    calls = []
    frames = hmm._frames
    monkeypatch.setattr(hmm, "_frames",
                        lambda *args: calls.append(1) or frames(*args))
    got, _ = _check_em_against_oracle(model, seqs, max_iters=12)
    assert calls
    assert got.transitions[2, 2] == 0.0


@pytest.mark.parametrize("offset", [146.0, 1e4])
def test_em_variance_keeps_its_digits_far_from_zero(offset):
    # One state and one component: a single M-step sets the variance to the
    # pooled frames' variance, which E[x^2] - mean^2 from raw moments loses
    # to cancellation at these offsets (2.4e-12 and 9.1e-10 relative here).
    rng = np.random.default_rng(77)
    seqs = [offset + rng.normal(0.0, np.sqrt(10.0), size=(t, 1))
            for t in (50, 64, 77)]
    model, _ = hmm.baum_welch(_model_1state(offset, 10.0), seqs, max_iters=1)
    want = np.var(np.concatenate(seqs))
    assert abs(model.mixtures[0].variances[0, 0] - want) <= 1e-12 * want


# --- lock-step EM against lone fits -------------------------------------------


def _assert_fits_equal(got, want):
    """Two (model, report) pairs equal bit for bit."""
    (model, report), (alone, expected) = got, want
    for name in ("transitions", "weights", "means", "variances"):
        assert np.array_equal(getattr(model, name), getattr(alone, name)), name
    assert report == expected


def _zero_self_loop(model, j):
    transitions = np.array(model.transitions)
    transitions[j, j], transitions[j, j + 1] = 0.0, 1.0
    return hmm.AcousticModel(transitions, model.weights, model.means,
                             model.variances)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_fits_equal_lone_fits_bit_for_bit(data):
    if data.draw(st.booleans(), label="prosodic shape"):
        # 3 states of 3 components over 5 columns: a 9-row emission product
        num_states, mixtures, dim = 3, 3, 5
    else:
        num_states = data.draw(st.integers(1, 6), label="num_states")
        mixtures = data.draw(st.integers(1, 10), label="mixtures")
        dim = data.draw(st.integers(1, 4), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    em = dict(max_iters=data.draw(st.integers(1, 12), label="max_iters"),
              tol=data.draw(st.sampled_from([1e-2, 1e-4, 1e-9]), label="tol"))
    models, lists = [], []
    for _ in range(data.draw(st.integers(1, 5), label="fits")):
        lengths = data.draw(st.lists(st.integers(num_states, num_states + 40),
                                     min_size=1, max_size=6), label="lengths")
        seqs = [rng.normal(size=(t, dim)) + rng.normal(size=dim)
                for t in lengths]
        model = hmm.init_model(seqs, num_states, mixtures)
        kind = data.draw(st.sampled_from(["seeded", "converged",
                                          "zero self-loop"]), label="kind")
        if kind == "converged":       # leaves the stack after two E-steps
            model, _ = hmm.baum_welch(model, seqs, max_iters=100,
                                      tol=em["tol"])
        elif kind == "zero self-loop" and num_states > 1:
            model = _zero_self_loop(model, int(rng.integers(num_states - 1)))
        models.append(model)
        lists.append(seqs)
    for got, model, seqs in zip(hmm.baum_welch_stack(models, lists, **em),
                                models, lists):
        _assert_fits_equal(got, hmm.baum_welch(model, seqs, **em))


def test_stack_fits_leave_on_their_own_iterations(monkeypatch):
    # one fit converged beforehand, one stopped by the cap and one through
    # the frame-by-frame fallback, with 1, 3 and 2 sequences of unequal
    # lengths
    rng = np.random.default_rng(80)
    lists = [[rng.normal(size=(t, 3)) + rng.normal(size=3) for t in lengths]
             for lengths in ((41,), (12, 30, 7), (25, 19))]
    seeded = [hmm.init_model(seqs, 4, 3) for seqs in lists]
    models = [hmm.baum_welch(seeded[0], lists[0], max_iters=500,
                             tol=1e-6)[0],
              seeded[1], _zero_self_loop(seeded[2], 1)]
    calls = []
    frames = hmm._frames
    monkeypatch.setattr(hmm, "_frames",
                        lambda *args: calls.append(1) or frames(*args))
    stacked = hmm.baum_welch_stack(models, lists, max_iters=6, tol=1e-6)
    assert calls
    assert [report.iterations_run for _, report in stacked] == [2, 6, 6]
    assert [report.converged for _, report in stacked] == [True, False, False]
    assert stacked[2][0].transitions[1, 1] == 0.0
    for got, model, seqs in zip(stacked, models, lists):
        _assert_fits_equal(got, hmm.baum_welch(model, seqs, max_iters=6,
                                               tol=1e-6))


def test_stack_reports_a_zero_likelihood_fit_as_alone():
    good = [np.array([[0.5], [-0.3], [1.2]])]
    bad = [np.array([[1e200], [1e200]])]
    model = _model_1state(0.0, 1.0)
    with pytest.raises(NumericalUnderflowError) as alone:
        hmm.baum_welch(model, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalUnderflowError) as stacked:
            hmm.baum_welch_stack([model, model, model], [good, bad, good])
    assert str(stacked.value) == str(alone.value) == \
        "sequence has zero likelihood under the model"


def test_stack_refuses_fits_of_other_grids():
    rng = np.random.default_rng(81)
    seqs = [rng.normal(size=(20, 2))]
    with pytest.raises(ValueError, match="one \\(M, N, D\\) grid"):
        hmm.baum_welch_stack([hmm.init_model(seqs, 3, 2),
                              hmm.init_model(seqs, 3, 1)], [seqs, seqs])
    with pytest.raises(ValueError, match="2 models for 1 lists"):
        hmm.baum_welch_stack([hmm.init_model(seqs, 3, 2)] * 2, [seqs])
    assert hmm.baum_welch_stack([], []) == []


def test_stack_without_iterations_returns_the_models():
    rng = np.random.default_rng(82)
    seqs = [rng.normal(size=(20, 2))]
    model = hmm.init_model(seqs, 3, 2)
    (same, report), = hmm.baum_welch_stack([model], [seqs], max_iters=0)
    assert same is model
    assert report == hmm.TrainingReport((), 0, False)


def _budget_case():
    """Five fits of one grid, of 41, 49, 44, 33 and 40 frames."""
    rng = np.random.default_rng(83)
    lists = [[rng.normal(size=(t, 3)) + rng.normal(size=3) for t in lengths]
             for lengths in ((41,), (12, 30, 7), (25, 19), (33,), (20, 20))]
    return [hmm.init_model(seqs, 4, 3) for seqs in lists], lists


def test_stack_runs_its_fits_in_groups_under_the_frame_budget(monkeypatch):
    # baum_welch_stack fills lock-step groups in order while their frames
    # fit EM_STACK_FRAMES, and a fit above the budget runs alone. The
    # models and reports do not depend on the grouping.
    models, lists = _budget_case()
    sizes = [sum(map(len, seqs)) for seqs in lists]
    lone = [hmm.baum_welch(model, seqs, max_iters=5)
            for model, seqs in zip(models, lists)]
    groups = []
    lockstep = hmm._lockstep

    def recording(models, arrays, *em):
        groups.append([sum(map(len, fit)) for fit in arrays])
        return lockstep(models, arrays, *em)

    monkeypatch.setattr(hmm, "_lockstep", recording)

    def run_under(budget):
        groups.clear()
        monkeypatch.setattr(hmm, "EM_STACK_FRAMES", budget)
        stacked = hmm.baum_welch_stack(models, lists, max_iters=5)
        for got, want in zip(stacked, lone, strict=True):
            _assert_fits_equal(got, want)
        return list(groups)

    # these fits take one group under the default budget
    assert run_under(hmm.EM_STACK_FRAMES) == [sizes]
    # a budget of the first two fits' frames groups them in twos
    pairs = run_under(sizes[0] + sizes[1])
    assert pairs == [sizes[:2], sizes[2:4], sizes[4:]]
    assert all(sum(group) <= sizes[0] + sizes[1] for group in pairs)
    # a fit above the budget runs alone
    assert run_under(min(sizes) - 1) == [[size] for size in sizes]


def test_stack_checks_every_group_before_the_first_e_step(monkeypatch):
    models, lists = _budget_case()
    lists[-1][1][7, 2] = np.nan
    calls = []
    expect = hmm._expect
    monkeypatch.setattr(hmm, "_expect",
                        lambda *args: calls.append(1) or expect(*args))
    monkeypatch.setattr(hmm, "EM_STACK_FRAMES", 90)
    with pytest.raises(NonFiniteObservationError,
                       match="^observation frame 7 of 20 in sequence 1 is "
                             "not finite$"):
        hmm.baum_welch_stack(models, lists)
    assert calls == []


@pytest.mark.parametrize("k", [1, 4, 10])
def test_kmeans_matches_per_cluster_loop(k):
    # the lock-step kernel labels one chunk, and several side by side, as
    # the per-cluster loop labels each chunk alone
    rng = np.random.default_rng(72 + k)
    chunks = [rng.normal(size=(n, 5)) * rng.uniform(0.1, 10.0, size=5)
              for n in (1, 3, 17, 120)]
    for chunk in chunks:
        np.testing.assert_array_equal(
            hmm._kmeans(chunk, np.array([len(chunk)]), k),
            loop_kmeans(chunk, k))
    sizes = np.array([len(chunk) for chunk in chunks])
    labels = hmm._kmeans(np.concatenate(chunks), sizes, k)
    for got, chunk in zip(np.split(labels, np.cumsum(sizes)[:-1]), chunks,
                          strict=True):
        np.testing.assert_array_equal(got, loop_kmeans(chunk, k))


def test_init_model_matches_per_cluster_seeding():
    # ten components over chunks of 4 to 30 frames: some clusters stay empty
    rng = np.random.default_rng(75)
    seqs = [rng.normal(size=(t, 6)) * 3.0 + rng.normal(size=6)
            for t in (16, 40, 23, 120)]
    for num_states, num_mixtures in ((4, 10), (1, 3), (9, 2)):
        _assert_models_close(hmm.init_model(seqs, num_states, num_mixtures),
                             loop_init_model(seqs, num_states, num_mixtures),
                             1e-12)


def _assert_models_identical(got, want):
    for name in ("transitions", "weights", "means", "variances"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_init_model_stack_equals_each_fit_alone(data):
    # Every seeded model equals init_model of its list alone, and the
    # per-cluster oracle's, bit for bit, under any frame budget: one-frame
    # chunks (a lone sequence of num_states frames), chunks shorter than M,
    # repeated frames and one dimension included. The oracle takes a
    # cluster's mean with members.mean, which sums a one-column cluster
    # pairwise; the library adds its frames in order, so for D = 1 the two
    # agree to rounding only, and a repeated frame equidistant from two
    # centres may go either way: there the oracle is not compared.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    dim = data.draw(st.integers(1, 4), label="dim")
    num_states = data.draw(st.integers(1, 5), label="num_states")
    mixtures = data.draw(st.integers(1, 12), label="mixtures")
    lists, kinds = [], []
    for _ in range(data.draw(st.integers(1, 5), label="fits")):
        lengths = data.draw(st.lists(st.integers(num_states, num_states + 40),
                                     min_size=1, max_size=3), label="lengths")
        kind = data.draw(st.sampled_from(["spread", "repeated", "flat"]),
                         label="kind")
        seqs = []
        for t in lengths:
            x = rng.normal(size=(t, dim)) * rng.uniform(0.1, 10.0, size=dim)
            if kind == "repeated":      # a few distinct frames, many ties
                x = np.round(x / 4.0)
            elif kind == "flat":        # the first half one frame
                x[:t // 2] = x[0]
            seqs.append(x)
        lists.append(seqs)
        kinds.append(kind)
    budget = data.draw(st.sampled_from([1, 7, 40, hmm.EM_STACK_FRAMES]),
                       label="budget")
    alone = [hmm.init_model(seqs, num_states, mixtures) for seqs in lists]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hmm, "EM_STACK_FRAMES", budget)
        stacked = hmm.init_model_stack(lists, num_states, mixtures)
    assert len(stacked) == len(lists)
    for got, want, seqs, kind in zip(stacked, alone, lists, kinds):
        _assert_models_identical(got, want)
        oracle = loop_init_model(seqs, num_states, mixtures)
        if dim > 1:
            _assert_models_identical(got, oracle)
        elif kind == "spread":
            _assert_models_close(got, oracle, 1e-12)


def test_init_model_stack_seeds_chunks_in_groups_under_the_frame_budget(
        monkeypatch):
    # the k-means runs the state chunks of all fits in lock-step groups,
    # filled in order while their frames fit EM_STACK_FRAMES; a chunk above
    # the budget runs alone. The models do not depend on the grouping.
    _, lists = _budget_case()
    chunks = [len(chunk) for seqs in lists
              for chunk in map(np.concatenate, zip(*(
                  np.array_split(a, 4) for a in seqs)))]
    alone = [hmm.init_model(seqs, 4, 3) for seqs in lists]
    groups = []
    kmeans = hmm._kmeans

    def recording(frames, sizes, k):
        groups.append(sizes.tolist())
        return kmeans(frames, sizes, k)

    monkeypatch.setattr(hmm, "_kmeans", recording)

    def run_under(budget):
        groups.clear()
        monkeypatch.setattr(hmm, "EM_STACK_FRAMES", budget)
        for got, want in zip(hmm.init_model_stack(lists, 4, 3), alone,
                             strict=True):
            _assert_models_identical(got, want)
        return list(groups)

    assert chunks == [11, 10, 10, 10, 13, 13, 12, 11, 12, 11, 11, 10, 9, 8,
                      8, 8, 10, 10, 10, 10]
    assert run_under(hmm.EM_STACK_FRAMES) == [chunks]
    # a group may split a fit's chunks, as the first fit's are here
    assert run_under(30) == [[11, 10], [10, 10], [13, 13], [12, 11],
                             [12, 11], [11, 10, 9], [8, 8, 8], [10, 10, 10],
                             [10]]
    assert run_under(min(chunks) - 1) == [[size] for size in chunks]


def test_seeding_a_role_peaks_near_its_largest_lone_fit(monkeypatch):
    # twelve fits of 900 frames each, seeded with a budget of one fit's
    # frames: the role's peak stays near the lone fit's, where one
    # lock-step pass over all 10800 frames would hold about twelve times
    # its (frames, M, D) distance block
    rng = np.random.default_rng(84)
    lists = [[rng.normal(size=(t, 16)) for t in (500, 400)]
             for _ in range(12)]
    monkeypatch.setattr(hmm, "EM_STACK_FRAMES", 900)

    def peak(seed):
        tracemalloc.start()
        try:
            seed()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    lone = peak(lambda: hmm.init_model(lists[0], 9, 10))
    role = peak(lambda: hmm.init_model_stack(lists, 9, 10))
    assert lone > 900 * 10 * 16 * 8
    assert role < 2 * lone


def test_init_model_stack_checks_every_fit_and_one_dimension():
    rng = np.random.default_rng(85)
    assert hmm.init_model_stack([], 3, 2) == []
    good = [rng.normal(size=(20, 2))]
    with pytest.raises(DimensionMismatchError,
                       match="^expected dimension 2, got 3$"):
        hmm.init_model_stack([good, [rng.normal(size=(20, 3))]], 3, 2)
    with pytest.raises(SequenceTooShortError):
        hmm.init_model_stack([good, good, [rng.normal(size=(2, 2))]], 3, 2)


# --- model validation --------------------------------------------------------

# one component of weight 1, mean 0 and variance 1 in one dimension
_STANDARD = ([1.0], [[0.0]], [[1.0]])


def test_model_rejects_skip_transitions():
    with pytest.raises(ValueError):
        model_from_states([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
                          [_STANDARD] * 3)


def test_model_rejects_non_stochastic_rows():
    with pytest.raises(ValueError):
        model_from_states([[0.4, 0.4], [0.0, 1.0]], [_STANDARD] * 2)


def test_mixture_rejects_bad_weights():
    with pytest.raises(ValueError):
        model_from_states([[1.0]], [([0.5, 0.4], np.zeros((2, 1)),
                                     np.ones((2, 1)))])


def test_mixture_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        model_from_states([[1.0]], [([1.0], [[0.0]], [[0.0]])])


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("weights, means, variances", [
    ([_NAN], [[0.0]], [[_NAN]]),
    ([_NAN], [[0.0]], [[1.0]]),
    ([1.0], [[0.0]], [[_NAN]]),
    ([1.0], [[_NAN]], [[1.0]]),
    ([1.0], [[_INF]], [[1.0]]),
    ([1.0], [[-_INF]], [[1.0]]),
    ([1.0], [[0.0]], [[_INF]]),
    ([_INF, 0.0], [[0.0], [1.0]], [[1.0], [1.0]]),
], ids=["nan weight and variance", "nan weight", "nan variance", "nan mean",
        "inf mean", "-inf mean", "inf variance", "inf weight"])
def test_mixture_rejects_non_finite_parameters(weights, means, variances):
    with pytest.raises(ValueError):
        model_from_states([[1.0]], [(weights, means, variances)])


@pytest.mark.parametrize("weights, means, variances, message", [
    ([_NAN], [[0.0]], [[_NAN]], "weights must be non-negative and sum to 1"),
    ([1.0], [[_INF]], [[1.0]], "means must be finite"),
    ([1.0], [[0.0]], [[0.0]],
     "variances must be finite and strictly positive"),
    ([0.5], [[0.0]], [[1.0]], "weights must be non-negative and sum to 1"),
    ([-1.0, 2.0], [[0.0], [1.0]], [[1.0], [1.0]],
     "weights must be non-negative and sum to 1"),
], ids=["nan", "inf mean", "zero variance", "weights sum to 0.5",
        "negative weight"])
def test_array_model_makes_the_mixture_checks(weights, means, variances,
                                              message):
    with pytest.raises(ValueError) as error:
        hmm.AcousticModel(
            np.array([[1.0]]), np.array(weights)[:, None],
            np.array(means)[:, None], np.array(variances)[:, None])
    assert str(error.value) == message


@pytest.mark.parametrize("transitions", [
    [[_NAN, _NAN], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, _NAN]],
    [[_INF, 0.0], [0.0, 1.0]],
], ids=["nan row", "nan absorbing state", "inf self-loop"])
def test_model_rejects_non_finite_transitions(transitions):
    with pytest.raises(ValueError):
        model_from_states(transitions, [_STANDARD] * 2)


# two states of two components in one dimension
_GRID = {"transitions": [[0.5, 0.5], [0.0, 1.0]],
         "weights": [[0.5, 1.0], [0.5, 0.0]],
         "means": [[[0.0], [0.0]], [[1.0], [0.0]]],
         "variances": np.ones((2, 2, 1))}


@pytest.mark.parametrize("change, message", [
    ({"weights": [0.5, 0.5]}, "expected weights (M, N), means and variances"),
    ({"means": np.zeros((2, 2))},
     "expected weights (M, N), means and variances"),
    ({"variances": np.ones((2, 2, 2))},
     "expected weights (M, N), means and variances"),
    ({"weights": np.full((2, 3), 0.5)},
     "expected weights (M, N), means and variances"),
    ({"transitions": [[1.0]]}, "transitions must be (2, 2)"),
    ({"weights": np.ones((1, 0)), "means": np.zeros((1, 0, 1)),
      "variances": np.ones((1, 0, 1))},
     "num_states must be >= 1"),
], ids=["1-D weights", "2-D means", "variances unlike means",
        "weights unlike means", "transitions", "no state"])
def test_model_rejects_inconsistent_shapes(change, message):
    with pytest.raises(ValueError) as error:
        hmm.AcousticModel(**{**_GRID, **change})
    assert str(error.value).startswith(message)


def _readonly_vectors(arrays):
    return types.SimpleNamespace(vectors=readonly(arrays["vectors"]))


def _acoustic_model(arrays):
    return hmm.AcousticModel(arrays["transitions"], arrays["weights"],
                             arrays["means"], arrays["variances"])


@pytest.mark.parametrize("build, names", [
    (_readonly_vectors, ("vectors",)),
    (_acoustic_model, ("transitions", "weights", "means", "variances")),
], ids=["readonly", "AcousticModel"])
def test_constructors_leave_the_callers_arrays_writeable(build, names):
    arrays = {"vectors": np.zeros((4, 16)),
              "weights": np.array([[0.25, 0.5], [0.75, 0.5]]),
              "means": np.zeros((2, 2, 3)), "variances": np.ones((2, 2, 3)),
              "transitions": np.array([[0.5, 0.5], [0.0, 1.0]])}
    built = build(arrays)
    before = {name: np.array(getattr(built, name)) for name in names}
    for name in names:
        assert arrays[name].flags.writeable
        arrays[name] += 1.0          # a later write does not reach the object
    for name in names:
        assert np.array_equal(getattr(built, name), before[name])
        assert not getattr(built, name).flags.writeable


def test_read_only_input_is_kept_without_a_copy():
    payload = np.frombuffer(np.arange(32, dtype="<f8").tobytes())
    assert not payload.flags.writeable
    assert readonly(payload.reshape(2, 16)).base is payload


# --- persistence -------------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(26)
    seqs = _training_set(rng, num=5)
    model, _ = hmm.baum_welch(hmm.init_model(seqs, 3, 2), seqs, max_iters=5)
    path = tmp_path / "model.bin"
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


def _model_file(header, values) -> bytes:
    return container_bytes(b"EMOAM001", header,
                           np.asarray(values, dtype="<f8").tobytes())


def test_save_model_writes_shape_header_and_parameters(tmp_path):
    rng = np.random.default_rng(28)
    model = _sparse_model(rng, (2, 2, 2), 2)
    path = tmp_path / "model.bin"
    hmm.save_model(model, path)
    header = {"num_states": 3, "feature_dim": 4, "components": [2, 2, 2]}
    values = [model.transitions.ravel()] + [
        a.ravel() for mix in model.mixtures
        for a in (mix.weights, mix.means, mix.variances)]
    # compact separators, as the container writes its header
    head = json.dumps(header, separators=(",", ":")).encode()
    assert path.read_bytes() == (
        b"EMOAM001" + len(head).to_bytes(8, "little") + head
        + np.concatenate(values).astype("<f8").tobytes())
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
    loaded = hmm.load_model(path)
    for name in ("transitions", "weights", "means", "variances"):
        np.testing.assert_array_equal(getattr(loaded, name),
                                      getattr(model, name))


def _assert_views_match_arrays(model):
    """model.mixtures are read-only views equal to the stored parameters."""
    m = model.weights.shape[0]
    assert model.weights.shape == (m, model.num_states)
    assert model.means.shape == model.variances.shape == \
        (m, model.num_states, model.feature_dim)
    assert len(model.mixtures) == model.num_states
    for j, mix in enumerate(model.mixtures):
        assert mix.num_components == m
        for name in ("weights", "means", "variances"):
            view, stored = getattr(mix, name), getattr(model, name)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0.5
            np.testing.assert_array_equal(view, stored[:, j])
            assert np.shares_memory(view, stored)
    for name in ("transitions", "weights", "means", "variances"):
        assert not getattr(model, name).flags.writeable


def test_mixture_views_are_read_only_parameters(tmp_path):
    rng = np.random.default_rng(30)
    seqs = _training_set(rng, num=6, dim=4)
    seeded = hmm.init_model(seqs, 3, 3)
    sparse = _sparse_model(rng)
    trained, _ = hmm.baum_welch(sparse, seqs, max_iters=4)
    hmm.save_model(trained, tmp_path / "model.bin")
    loaded = hmm.load_model(tmp_path / "model.bin")
    for model in (seeded, sparse, trained, loaded):
        _assert_views_match_arrays(model)


def test_interrupted_model_write_keeps_previous_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(29)
    path = tmp_path / "model.bin"
    hmm.save_model(random_model(rng, 2, 1, 2), path)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")
    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError):
        hmm.save_model(random_model(rng, 3, 2, 2), path)
    assert path.read_bytes() == before
    # the temporary file is removed
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    # a version-1 JSON model file is not a container
    path.write_text('{"format": "emocue-model", "version": 1}')
    with pytest.raises(UnsupportedFormatError):
        hmm.load_model(path)


# one state, one component in two dimensions: transitions [[1]], weight 1,
# mean (0, 0), variances (1, 1)
_ONE_STATE = {"num_states": 1, "feature_dim": 2, "components": [1]}
_ONE_STATE_VALUES = [1.0, 1.0, 0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("data", [
    _model_file(_ONE_STATE, _ONE_STATE_VALUES)[:40],
    _model_file(_ONE_STATE, _ONE_STATE_VALUES) + b"\0",
    _model_file([1, 2], []),
    _model_file({"num_states": 1, "feature_dim": 2}, _ONE_STATE_VALUES),
    _model_file({**_ONE_STATE, "components": [0]}, [1.0]),
    _model_file({**_ONE_STATE, "feature_dim": True}, [1.0] * 4),
    _model_file(_ONE_STATE, [1.0, 0.5, 0.0, 0.0, 1.0, 1.0]),
    _model_file(_ONE_STATE, [1.0, 1.0, np.nan, 0.0, 1.0, 1.0]),
    # a count of -1 in the second state, the payload sized to match
    _model_file({**_ONE_STATE, "num_states": 2, "components": [2, -1]},
                [0.5, 0.5, 0.0, 1.0] + [0.5] * 5),
    # each sized as the counts given would read it
    _model_file({**_ONE_STATE, "num_states": 2},
                [0.5, 0.5, 0.0, 1.0] + _ONE_STATE_VALUES[1:]),
    _model_file({**_ONE_STATE, "components": [1, 1]},
                _ONE_STATE_VALUES + _ONE_STATE_VALUES[1:]),
    _model_file({**_ONE_STATE, "feature_dim": -1}, []),
    _model_file({**_ONE_STATE, "components": [1.0]}, _ONE_STATE_VALUES),
    # two components in the first state, one in the second, sized to match
    _model_file({**_ONE_STATE, "num_states": 2, "components": [2, 1]},
                [0.5, 0.5, 0.0, 1.0, 0.5, 0.5, 0.0, 0.0, 1.0, 1.0,
                 1.0, 1.0, 1.0, 1.0] + _ONE_STATE_VALUES[1:]),
], ids=["cut", "trailing byte", "[1, 2]", "no components",
        "empty state", "boolean dimension", "weights sum to 0.5",
        "non-finite mean", "negative count", "too few counts",
        "too many counts", "negative dimension", "float count",
        "unequal counts"])
def test_load_rejects_corrupt_file(tmp_path, data):
    path = tmp_path / "model.bin"
    path.write_bytes(_model_file(_ONE_STATE, _ONE_STATE_VALUES))
    assert hmm.load_model(path).num_states == 1
    path.write_bytes(data)
    with pytest.raises(CorruptFileError, match="model.bin"):
        hmm.load_model(path)
