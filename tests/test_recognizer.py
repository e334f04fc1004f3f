"""Recognizer tests: decision rules, bank structure, training wiring and
bank persistence."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocue import hmm, recognizer
from emocue.errors import (
    CorruptFileError,
    EmoCueError,
    EmptyBankError,
    EmptyResultsError,
    ManifestError,
    NoLegalPathError,
    UnknownEmotionError,
    UnsupportedFormatError,
)
from emocue.recognizer import (
    EmotionModels,
    ModelBank,
    identify_emotion,
    identify_speaker_given_emotion,
    load_bank,
    one_stage_identify,
    score_test_set,
)
from emocue.frontend import ProsodicTrack, UtteranceFeatures
from emocue.supra import FusionConfig, fused_score

from conftest import (
    SMALL_CONFIG,
    container_bytes,
    container_parts,
    damaged_container,
    edit_container_header,
)


# --- bank structure ----------------------------------------------------------


def test_bank_requires_full_speaker_grid(tiny_trained):
    bank = tiny_trained["bank"]
    partial = dict(bank.speaker_models)
    partial.pop((bank.speakers[0], bank.emotions[0]))
    with pytest.raises(ValueError):
        dataclasses.replace(bank, speaker_models=partial)


def test_bank_requires_matching_emotions(tiny_trained):
    bank = tiny_trained["bank"]
    partial = dict(bank.emotion_models)
    partial.pop(bank.emotions[0])
    with pytest.raises(ValueError):
        dataclasses.replace(bank, emotion_models=partial)


def test_bank_one_stage_all_or_nothing(tiny_trained):
    """one_stage_models must cover exactly the speakers: a partial mapping
    and an empty one are both refused."""
    bank = tiny_trained["bank"]
    partial = {bank.speakers[0]: bank.one_stage_models[bank.speakers[0]]}
    for models in (partial, {}):
        with pytest.raises(ValueError, match="one_stage_models must cover"):
            dataclasses.replace(bank, one_stage_models=models)


@pytest.mark.parametrize("empty", ["emotions", "speakers"])
def test_bank_refuses_no_emotions_or_no_speakers(tiny_trained, empty):
    """A bank is never empty, so no scoring function checks: a bank whose
    models cover its empty labels is still refused at construction."""
    bank = tiny_trained["bank"]
    if empty == "emotions":
        changes = dict(emotions=(), emotion_models={}, speaker_models={})
    else:
        changes = dict(speakers=(), speaker_models={}, one_stage_models={})
    with pytest.raises(ValueError, match="^a bank needs at least one emotion "
                                         "and one speaker$"):
        dataclasses.replace(bank, **changes)


def test_bank_rejects_mixed_feature_dims(tiny_trained):
    bank = tiny_trained["bank"]
    rng = np.random.default_rng(0)
    seqs = [rng.normal(size=(12, 2)) for _ in range(3)]
    odd = hmm.init_model(seqs, 3, 1)
    models = dict(bank.one_stage_models)
    models[bank.speakers[0]] = odd
    with pytest.raises(ValueError):
        dataclasses.replace(bank, one_stage_models=models)


# --- decision rules ----------------------------------------------------------


def test_emotion_scores_cover_bank_order(tiny_trained):
    bank = tiny_trained["bank"]
    utt = tiny_trained["features"][tiny_trained["test"][0].id]
    label, scores = identify_emotion(utt, bank)
    assert tuple(scores) == bank.emotions
    assert label in bank.emotions
    assert scores[label] == max(scores.values())


def test_generator_labels_recovered(tiny_trained):
    """Well-separated classes should be recovered almost everywhere even
    with the fixture's deliberately small models and training split."""
    rows = score_test_set(tiny_trained["bank"], tiny_trained["test"],
                          tiny_trained["features"])
    hits_e = sum(row.identified_emotion == row.true_emotion for row in rows)
    hits_s = sum(row.identified_speaker == row.true_speaker for row in rows)
    total = len(rows)
    assert hits_e >= total - 2
    assert hits_s >= total - 2


def test_stage_b_scores_under_chosen_emotion(tiny_trained):
    bank = tiny_trained["bank"]
    utt = tiny_trained["features"][tiny_trained["test"][0].id]
    emotion = bank.emotions[1]
    _, scores = identify_speaker_given_emotion(utt.features, emotion, bank)
    for s in bank.speakers:
        want = hmm.forward_log_likelihood(bank.speaker_models[(s, emotion)],
                                          utt.features)
        assert scores[s] == want


def test_stage_b_rejects_unknown_emotion(tiny_trained):
    bank = tiny_trained["bank"]
    utt = tiny_trained["features"][tiny_trained["test"][0].id]
    with pytest.raises(UnknownEmotionError):
        identify_speaker_given_emotion(utt.features, "bored", bank)


def test_ties_resolve_to_earliest_in_bank_order(tiny_trained):
    bank = tiny_trained["bank"]
    utt = tiny_trained["features"][tiny_trained["test"][0].id]
    e0 = bank.emotions[0]
    _, scores = identify_speaker_given_emotion(utt.features, e0, bank)
    low = min(bank.speakers, key=scores.__getitem__)
    best = max(bank.speakers, key=scores.__getitem__)
    # "twin" shares best's model objects, so the two scores tie exactly and
    # a strictly lower candidate comes first in bank order.
    models = {**{s: s for s in bank.speakers}, "twin": best}
    for speakers in ((low, best, "twin"), (low, "twin", best)):
        twins = ModelBank(
            emotions=(e0, "twin"), speakers=speakers,
            emotion_models={e0: bank.emotion_models[e0],
                            "twin": bank.emotion_models[e0]},
            speaker_models={(s, e): bank.speaker_models[(models[s], e0)]
                            for s in speakers for e in (e0, "twin")},
            one_stage_models={s: bank.one_stage_models[models[s]]
                              for s in speakers})
        e_star, emotion_scores = identify_emotion(utt, twins)
        assert emotion_scores[e0] == emotion_scores["twin"]
        assert e_star == e0
        s_star, speaker_scores = identify_speaker_given_emotion(
            utt.features, e_star, twins)
        assert speaker_scores[best] == speaker_scores["twin"]
        assert s_star == speakers[1]
        one_stage, one_scores = one_stage_identify(utt.features, twins)
        assert one_scores[best] == one_scores["twin"]
        assert one_stage == speakers[1]


def test_acoustic_only_fusion_matches_plain_likelihood(tiny_trained):
    bank = tiny_trained["bank"]
    utt = tiny_trained["features"][tiny_trained["test"][1].id]
    _, scores = identify_emotion(utt, bank, FusionConfig(alpha=0.0))
    for e in bank.emotions:
        want = hmm.forward_log_likelihood(bank.emotion_models[e].acoustic,
                                          utt.features)
        assert scores[e] == want


def test_fused_emotion_scores_match_module_fusion(tiny_trained):
    bank = tiny_trained["bank"]
    utt = tiny_trained["features"][tiny_trained["test"][2].id]
    cfg = FusionConfig(alpha=0.7)
    _, scores = identify_emotion(utt, bank, cfg)
    for e in bank.emotions:
        pair = bank.emotion_models[e]
        assert scores[e] == fused_score(pair.acoustic, pair.supra, utt, cfg)


# --- training ----------------------------------------------------------------


def test_train_bank_label_order_is_first_appearance(tiny_trained):
    bank = tiny_trained["bank"]
    train = tiny_trained["train"]
    assert bank.emotions == tuple(dict.fromkeys(r.emotion for r in train))
    assert bank.speakers == tuple(dict.fromkeys(r.speaker for r in train))


# --- batch scoring -----------------------------------------------------------


def test_score_test_set_rows(tiny_trained):
    bank = tiny_trained["bank"]
    features = tiny_trained["features"]
    rows = score_test_set(bank, tiny_trained["test"], features)
    assert len(rows) == len(tiny_trained["test"])
    for record, row in zip(tiny_trained["test"], rows):
        assert row.id == record.id
        assert row.true_speaker == record.speaker
        assert row.true_emotion == record.emotion
        assert row.gender == record.gender
        utt = features[record.id]
        e_star, emotion_scores = identify_emotion(utt, bank)
        s_star, speaker_scores = identify_speaker_given_emotion(
            utt.features, e_star, bank)
        assert row.identified_emotion == e_star
        assert row.identified_speaker == s_star
        assert row.emotion_scores == emotion_scores
        assert row.speaker_scores == speaker_scores
        one_label, _ = one_stage_identify(utt.features, bank)
        assert row.one_stage_speaker == one_label


def test_score_test_set_rejects_empty_split(tiny_trained):
    with pytest.raises(EmptyResultsError, match="no test records"):
        score_test_set(tiny_trained["bank"], [], tiny_trained["features"])


def test_score_test_set_names_utterance_it_cannot_score(tiny_trained):
    record = tiny_trained["test"][1]
    features, track = tiny_trained["features"][record.id]
    short = UtteranceFeatures(
        features=features[:2],
        prosody=ProsodicTrack(f0=track.f0[:2],
                              log_energy=track.log_energy[:2]))
    with pytest.raises(NoLegalPathError, match=f"utterance {record.id!r}: "):
        score_test_set(tiny_trained["bank"], tiny_trained["test"][:2],
                       {**tiny_trained["features"], record.id: short})


def _score_bits(scores):
    return [(label, float(v).hex()) for label, v in scores.items()]


def test_results_file_round_trips_every_score_bit_exactly(tmp_path,
                                                           tiny_trained):
    rows = score_test_set(tiny_trained["bank"], tiny_trained["test"],
                          tiny_trained["features"])
    extreme = dataclasses.replace(
        rows[0], id="extreme", one_stage_speaker="",
        emotion_scores={"neutral": -0.0, "angry": 5e-324},
        speaker_scores={"a": -1.7976931348623157e308, "b": float("-inf"),
                        "c": 0.1 + 0.2})
    path = tmp_path / "results.jsonl"
    recognizer.write_results(path, [*rows, extreme])
    read = recognizer.read_results(path)
    assert read == [*rows, extreme]
    for want, got in zip([*rows, extreme], read):
        assert _score_bits(got.emotion_scores) == \
            _score_bits(want.emotion_scores)
        assert _score_bits(got.speaker_scores) == \
            _score_bits(want.speaker_scores)


def test_read_results_ignores_extra_keys_and_blank_lines(tmp_path,
                                                          tiny_trained):
    row = score_test_set(tiny_trained["bank"], tiny_trained["test"][:1],
                         tiny_trained["features"])[0]
    path = tmp_path / "results.jsonl"
    recognizer.write_results(path, [row])
    text = path.read_text()
    path.write_text("\n" + text.replace("{", '{"margin": 1.5, ', 1) + "\n")
    assert recognizer.read_results(path) == [row]


# --- persistence -------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_bank(tiny_trained):
    """The bank.bin that train_role wrote for every role of tiny_trained."""
    return (tiny_trained["directory"] / "bank.bin").read_bytes()


def test_bank_roundtrip(tiny_trained):
    """load_bank reads back every model train_role returned, bit for bit."""
    directory = tiny_trained["directory"]
    assert [p.name for p in directory.iterdir()] == ["bank.bin"]
    loaded = load_bank(directory)
    models = {role: {key: model for key, (model, _) in trained.items()}
              for role, trained in tiny_trained["trained"].items()}
    train = tiny_trained["train"]
    assert loaded.emotions == tuple(dict.fromkeys(r.emotion for r in train))
    assert loaded.speakers == tuple(dict.fromkeys(r.speaker for r in train))
    pairs = [(getattr(loaded.emotion_models[e], part), m)
             for (e, part), m in models["emotion"].items()]
    pairs += [(loaded.speaker_models[k], m)
              for k, m in models["speaker"].items()]
    pairs += [(loaded.one_stage_models[s], m)
              for s, m in models["one_stage"].items()]
    assert len(pairs) == 2 * 2 + 3 * 2 + 3
    for got, want in pairs:
        # a prosodic model is compared through its HMM
        got, want = getattr(got, "core", got), getattr(want, "core", want)
        np.testing.assert_array_equal(got.transitions, want.transitions)
        for a, b in zip(got.mixtures, want.mixtures, strict=True):
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.variances, b.variances)
            np.testing.assert_array_equal(a.weights, b.weights)
    returned = ModelBank(
        emotions=loaded.emotions, speakers=loaded.speakers,
        emotion_models={e: EmotionModels(models["emotion"][(e, "acoustic")],
                                         models["emotion"][(e, "supra")])
                        for e in loaded.emotions},
        speaker_models=models["speaker"], one_stage_models=models["one_stage"])
    test, features = tiny_trained["test"], tiny_trained["features"]
    assert score_test_set(loaded, test, features) == \
        score_test_set(returned, test, features)


def test_load_bank_rejects_foreign_index(tmp_path):
    # a feature cache's magic where the bank's belongs
    (tmp_path / "bank.bin").write_bytes(b"EMOFC001" + bytes(8))
    with pytest.raises(UnsupportedFormatError, match="bank.bin"):
        load_bank(tmp_path)


def test_load_bank_rejects_version_1_index(tmp_path):
    (tmp_path / "bank.json").write_text('{"format": "emocue-bank", '
                                        '"version": 1}')
    with pytest.raises(UnsupportedFormatError, match="bank.json"):
        load_bank(tmp_path)


def test_version_2_bank_must_be_retrained(tmp_path, tiny_trained):
    # a version-2 bank: bank.json beside one JSON file per model
    (tmp_path / "bank.json").write_text('{"format": "emocue-bank", '
                                        '"version": 2}')
    (tmp_path / "emotion_0.acoustic.json").write_text("{}")
    for action in (lambda: load_bank(tmp_path),
                   lambda: recognizer.open_bank(
                       tmp_path, tiny_trained["train"],
                       tiny_trained["test"], tiny_trained["synth"].features),
                   lambda: recognizer.train_role(
                       "one_stage", tmp_path, SMALL_CONFIG,
                       tiny_trained["train"], tiny_trained["synth"].features)):
        with pytest.raises(UnsupportedFormatError,
                           match=r"bank\.json: a version-2 bank"):
            action()
    assert not (tmp_path / "bank.bin").exists()


def test_version_3_bank_must_be_retrained(tmp_path, tiny_trained,
                                          trained_bank):
    # a version-3 bank: the same layout under magic EMOBK003, with the
    # prosodic states recorded as group sizes of acoustic states
    _, header, payload = container_parts(trained_bank)
    header["config"]["supra_groups"] = [1, 1, 1]
    del header["config"]["num_supra_states"]
    for entry in header["models"]:
        if entry["role"] == "emotion" and entry["key"][1] == "supra":
            entry["group_sizes"] = [1, 1, 1]
    old = container_bytes(b"EMOBK003", header, payload)
    (tmp_path / "bank.bin").write_bytes(old)
    for action in (lambda: load_bank(tmp_path),
                   lambda: recognizer.open_bank(
                       tmp_path, tiny_trained["train"],
                       tiny_trained["test"], tiny_trained["synth"].features),
                   lambda: recognizer.train_role(
                       "one_stage", tmp_path, SMALL_CONFIG,
                       tiny_trained["train"], tiny_trained["synth"].features)):
        with pytest.raises(UnsupportedFormatError,
                           match=r"bank\.bin: a version-3 bank; retrain it "
                                 r"to write a version-4 bank\.bin$"):
            action()
    assert (tmp_path / "bank.bin").read_bytes() == old


def _speaker_entries(header):
    return [entry for entry in header["models"] if entry["role"] == "speaker"]


def test_load_bank_rejects_missing_speaker_entry(tmp_path, trained_bank):
    (tmp_path / "bank.bin").write_bytes(trained_bank)

    def rekey(header):
        _speaker_entries(header)[-1]["key"][0] = "nobody"
    edit_container_header(tmp_path / "bank.bin", rekey)
    with pytest.raises(CorruptFileError,
                       match=r"bank\.bin: models do not match the labels: "
                             r"speaker_models must cover speakers x emotions"):
        load_bank(tmp_path)


def test_a_cache_lacking_a_read_record_raises_manifest_error(tmp_path,
                                                             trained_bank,
                                                             tiny_trained):
    (tmp_path / "bank.bin").write_bytes(trained_bank)
    train, synth = tiny_trained["train"], tiny_trained["synth"]
    gone = (train[1].id, tiny_trained["test"][0].id)
    cache = {uid: utt for uid, utt in synth.features.items()
             if uid not in gone}
    # a record in both sets counts once; the train set's come first
    with pytest.raises(ManifestError, match=rf"^feature cache is missing 2 "
                       rf"utterances \(first: '{gone[0]}'\)$"):
        recognizer.open_bank(tmp_path, train, synth.records, cache)
    with pytest.raises(ManifestError, match=rf"^feature cache is missing 1 "
                       rf"utterances \(first: '{gone[0]}'\)$"):
        recognizer.train_role("one_stage", tmp_path, SMALL_CONFIG, train,
                              cache)
    assert (tmp_path / "bank.bin").read_bytes() == trained_bank
    # records that are not read need no features
    recognizer.open_bank(tmp_path, train, train[2:], {
        uid: utt for uid, utt in synth.features.items() if uid != gone[1]})


@pytest.mark.parametrize("roles", [("emotion",), ("emotion", "speaker")],
                         ids=["emotion", "emotion+speaker"])
def test_load_bank_requires_all_three_roles(tmp_path, tiny_trained, roles):
    train, cache = tiny_trained["train"], tiny_trained["synth"].features
    quick = dataclasses.replace(SMALL_CONFIG, em_max_iters=1)
    for role in roles:
        recognizer.train_role(role, tmp_path, quick, train, cache)
    message = (f"^{re.escape(str(tmp_path / 'bank.bin'))}: bank is "
               f"incomplete; train its emotion, speaker and one-stage models "
               f"first$")
    with pytest.raises(EmptyBankError, match=message):
        load_bank(tmp_path)
    with pytest.raises(EmptyBankError, match=message):
        recognizer.open_bank(tmp_path, train, tiny_trained["test"], cache)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_bank_raises_only_typed_errors(tmp_path_factory, trained_bank,
                                               tiny_trained, data):
    directory = tmp_path_factory.mktemp("damaged")
    (directory / "bank.bin").write_bytes(damaged_container(trained_bank, data))
    for read in (lambda: load_bank(directory),
                 lambda: recognizer.open_bank(
                     directory, tiny_trained["train"],
                     tiny_trained["test"], tiny_trained["synth"].features)):
        try:
            read()
        except (EmoCueError, OSError):
            pass


def test_interrupted_index_write_keeps_previous_index(tmp_path, trained_bank,
                                                      tiny_trained,
                                                      monkeypatch):
    (tmp_path / "bank.bin").write_bytes(trained_bank)
    quick = dataclasses.replace(SMALL_CONFIG, em_max_iters=1)

    def interrupted(src, dst):
        raise OSError("interrupted")
    monkeypatch.setattr(recognizer.os, "replace", interrupted)
    with pytest.raises(OSError):
        recognizer.train_role("one_stage", tmp_path, quick,
                              tiny_trained["train"],
                              tiny_trained["synth"].features)
    assert (tmp_path / "bank.bin").read_bytes() == trained_bank
    assert [p.name for p in tmp_path.iterdir()] == ["bank.bin"]
    assert load_bank(tmp_path).one_stage_models.keys() == \
        tiny_trained["bank"].one_stage_models.keys()


class _Interrupt(Exception):
    pass


_ENCODE = hmm.encode_model


def _encode_failing_at(monkeypatch, position, calls):
    """Make hmm.encode_model (every model's encoder) raise on its call
    number position (from 0), recording each call in calls."""
    def failing(model):
        calls.append(model)
        if len(calls) > position:
            raise _Interrupt(f"interrupted at model {position}")
        return _ENCODE(model)
    monkeypatch.setattr(hmm, "encode_model", failing)


def test_interrupted_bank_write_keeps_bank_at_every_model(tmp_path,
                                                          trained_bank,
                                                          tiny_trained,
                                                          monkeypatch):
    path = tmp_path / "bank.bin"
    path.write_bytes(trained_bank)
    train, cache = tiny_trained["train"], tiny_trained["synth"].features
    # a one-stage retrain rewrites every model of the bank
    quick = dataclasses.replace(SMALL_CONFIG, em_max_iters=1)
    total = 2 * 2 + 3 * 2 + 3
    for position in range(total):
        calls = []
        _encode_failing_at(monkeypatch, position, calls)
        with pytest.raises(_Interrupt):
            recognizer.train_role("one_stage", tmp_path, quick, train, cache)
        assert len(calls) == position + 1
        assert path.read_bytes() == trained_bank
        assert [p.name for p in tmp_path.iterdir()] == ["bank.bin"]
        assert load_bank(tmp_path).speakers == tiny_trained["bank"].speakers
    # the interrupts covered every model: a write that completes encodes
    # no more
    calls = []
    _encode_failing_at(monkeypatch, total, calls)
    recognizer.train_role("one_stage", tmp_path, quick, train, cache)
    assert len(calls) == total and path.read_bytes() != trained_bank


def test_interrupted_speaker_retrain_keeps_previous_bank(tmp_path, tiny_trained,
                                                         monkeypatch):
    train, cache = tiny_trained["train"], tiny_trained["synth"].features
    quick = dataclasses.replace(SMALL_CONFIG, em_max_iters=1)
    for role in ("emotion", "speaker", "one_stage"):
        recognizer.train_role(role, tmp_path, quick, train, cache)
    before = (tmp_path / "bank.bin").read_bytes()
    # the emotion role's two acoustic and two prosodic models are encoded
    # first; the retrain stops after 2 of its 6 speaker models
    calls = []
    _encode_failing_at(monkeypatch, 4 + 2, calls)
    with pytest.raises(_Interrupt):
        recognizer.train_role("speaker", tmp_path, SMALL_CONFIG, train, cache)
    assert len(calls) == 4 + 3
    assert (tmp_path / "bank.bin").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bank.bin"]
    _, header, _ = container_parts(before)
    assert [entry["training"]["iterations"]
            for entry in _speaker_entries(header)] == [1] * 6
    monkeypatch.undo()
    old = load_bank(tmp_path)
    trained = recognizer.train_role("speaker", tmp_path, SMALL_CONFIG, train,
                                    cache)
    new = load_bank(tmp_path)
    for key, (model, _) in trained.items():
        np.testing.assert_array_equal(new.speaker_models[key].transitions,
                                      model.transitions)
    assert any(not np.array_equal(old.speaker_models[k].transitions,
                                  new.speaker_models[k].transitions)
               for k in trained)


def test_train_role_records_training_reports(tmp_path, tiny_trained):
    train = tiny_trained["train"]
    cache = tiny_trained["synth"].features
    cfg = dataclasses.replace(SMALL_CONFIG, em_max_iters=3)
    trained = recognizer.train_role("speaker", tmp_path, cfg, train, cache)
    speakers = dict.fromkeys(r.speaker for r in train)
    emotions = dict.fromkeys(r.emotion for r in train)
    assert list(trained) == [(s, e) for s in speakers for e in emotions]
    _, header, _ = container_parts((tmp_path / "bank.bin").read_bytes())
    entries = _speaker_entries(header)
    assert [tuple(entry["key"]) for entry in entries] == list(trained)
    for entry in entries:
        _, report = trained[tuple(entry["key"])]
        assert entry["training"] == {
            "iterations": report.iterations_run,
            "converged": report.converged,
            "log_likelihood": report.log_likelihood_per_iteration[-1]}
        assert 1 <= report.iterations_run <= 3


@pytest.mark.parametrize("role", ["emotion", "speaker", "one_stage"])
def test_train_role_models_do_not_depend_on_the_frame_budget(
        tmp_path, tiny_trained, monkeypatch, role):
    # A role seeds all its fits of one kind with one hmm.init_model_stack
    # call and refines them with one hmm.baum_welch_stack call (the emotion
    # role's acoustic fits, then its prosodic ones), and each sizes its own
    # lock-step groups: the models and reports are the same under the
    # default budget and with every state chunk and fit alone.
    train, cache = tiny_trained["train"], tiny_trained["synth"].features
    calls, seeds = [], []
    stack, seed = hmm.baum_welch_stack, hmm.init_model_stack

    def recording(models, sequence_lists, **em):
        calls.append(len(models))
        return stack(models, sequence_lists, **em)

    def seeding(sequence_lists, *args):
        seeds.append(len(sequence_lists))
        return seed(sequence_lists, *args)

    monkeypatch.setattr(hmm, "baum_welch_stack", recording)
    monkeypatch.setattr(hmm, "init_model_stack", seeding)
    for budget in (hmm.EM_STACK_FRAMES, 1):
        calls.clear()
        seeds.clear()
        monkeypatch.setattr(hmm, "EM_STACK_FRAMES", budget)
        trained = recognizer.train_role(role, tmp_path / str(budget),
                                        SMALL_CONFIG, train, cache)
        assert len(calls) == (2 if role == "emotion" else 1)
        assert seeds == calls
        assert sum(calls) == len(trained)
        for key, (model, report) in trained.items():
            want, expected = tiny_trained["trained"][role][key]
            assert report == expected
            for name in ("transitions", "weights", "means", "variances"):
                assert np.array_equal(getattr(model, name),
                                      getattr(want, name))


def test_load_bank_missing_directory(tmp_path):
    with pytest.raises(OSError):
        load_bank(tmp_path / "absent")
