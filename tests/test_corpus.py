"""Corpus handling tests: manifests, splits, normalization and the
synthetic generator."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocue import RunConfig, corpus
from emocue.corpus import (
    DEFAULT_EMOTIONS,
    NormalizationParams,
    SplitProtocol,
    UtteranceRecord,
    load_manifest,
    normalize_features,
    split_records,
    synthesize_corpus,
    write_manifest,
)
from emocue.errors import (
    DegenerateDimensionError,
    DuplicateUtteranceError,
    ManifestError,
    UnknownLabelError,
)
from emocue.frontend import FEATURE_DIM


def _record(n, sentence=1, **kw):
    base = dict(id=f"u{n}", speaker=f"spk{n % 3:02d}", gender="male",
                emotion="neutral", sentence=sentence, repetition=1)
    base.update(kw)
    return UtteranceRecord(**base)


def _manifest_lines(*rows):
    header = "id\tspeaker\tgender\temotion\tsentence\trepetition\taudio"
    return "\n".join([header, *rows]) + "\n"


# --- manifest ----------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    records = [
        UtteranceRecord(id="a", speaker="s1", gender="male", emotion="angry",
                        sentence=1, repetition=2, audio="s1/a.wav"),
        UtteranceRecord(id="b", speaker="s1", gender="male", emotion="sad",
                        sentence=5, repetition=1, audio=None),
    ]
    path = tmp_path / "manifest.tsv"
    write_manifest(records, path)
    assert load_manifest(path) == records


def test_manifest_empty_file(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("")
    assert load_manifest(path) == []


def test_manifest_rejects_bad_header(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("id\tname\n")
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_manifest_rejects_unknown_gender(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(_manifest_lines("a\ts1\tother\tneutral\t1\t1\t-"))
    with pytest.raises(UnknownLabelError):
        load_manifest(path)


def test_manifest_rejects_unknown_emotion(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(_manifest_lines("a\ts1\tmale\tbored\t1\t1\t-"))
    with pytest.raises(UnknownLabelError):
        load_manifest(path)


def test_manifest_rejects_duplicate_key(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(_manifest_lines(
        "a\ts1\tmale\tneutral\t1\t1\t-",
        "b\ts1\tmale\tneutral\t1\t1\t-"))
    with pytest.raises(DuplicateUtteranceError):
        load_manifest(path)


def test_manifest_rejects_duplicate_id(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(_manifest_lines(
        "a\ts1\tmale\tneutral\t1\t1\t-",
        "a\ts1\tmale\tneutral\t2\t1\t-"))
    with pytest.raises(DuplicateUtteranceError):
        load_manifest(path)


def test_manifest_rejects_non_integer_sentence(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(_manifest_lines("a\ts1\tmale\tneutral\tone\t1\t-"))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_manifest_rejects_nonpositive_indices(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(_manifest_lines("a\ts1\tmale\tneutral\t0\t1\t-"))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_manifest_rejects_short_row(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(_manifest_lines("a\ts1\tmale\tneutral\t1"))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_manifest_audio_dash_means_cached(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(_manifest_lines("a\ts1\tmale\tneutral\t1\t1\t-"))
    assert load_manifest(path)[0].audio is None


# --- split protocol ----------------------------------------------------------


def test_default_protocol_is_four_four():
    protocol = SplitProtocol()
    assert protocol.train_sentences == (1, 2, 3, 4)
    assert protocol.test_sentences == (5, 6, 7, 8)


def test_protocol_rejects_overlap():
    with pytest.raises(ValueError):
        SplitProtocol(train_sentences=(1, 2), test_sentences=(2, 3))


def test_protocol_rejects_empty_side():
    with pytest.raises(ValueError):
        SplitProtocol(train_sentences=(), test_sentences=(1,))


@pytest.mark.parametrize("train, test, message", [
    ((1.5, 2), (3,), "train_sentences item 1 (1.5) is not an integer"),
    ((1, 2), (3.9,), "test_sentences item 1 (3.9) is not an integer"),
    ((1, True), (3,), "train_sentences item 2 (True) is not an integer"),
    ((1,), (2, "3"), "test_sentences item 2 ('3') is not an integer"),
    ((1,), (np.float64(2.0),),
     "test_sentences item 1 (np.float64(2.0)) is not an integer"),
])
def test_protocol_refuses_an_item_that_is_not_an_integer(train, test,
                                                         message):
    # a cast would train on sentences (1, 2) for (1.5, 2) and test on (3,)
    # for (3.9,) without a word
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SplitProtocol(train_sentences=train, test_sentences=test)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig(train_sentences=train, test_sentences=test)


def test_protocol_casts_numpy_integers():
    # a split read back from numpy arithmetic stays JSON-able in a header
    protocol = SplitProtocol(train_sentences=np.array([1, 2]),
                             test_sentences=(np.int32(3),))
    assert protocol.train_sentences == (1, 2)
    assert protocol.test_sentences == (3,)
    assert all(type(s) is int
               for s in protocol.train_sentences + protocol.test_sentences)
    assert json.loads(json.dumps(protocol.train_sentences)) == [1, 2]


def test_split_partitions_records():
    records = [_record(i, sentence=1 + i % 8) for i in range(24)]
    train, test = split_records(records)
    assert len(train) + len(test) == len(records)
    assert all(r.sentence <= 4 for r in train)
    assert all(r.sentence >= 5 for r in test)
    # original order is preserved within each side
    assert [r.id for r in train] == [r.id for r in records if r.sentence <= 4]


def test_split_rejects_uncovered_sentence():
    with pytest.raises(ValueError):
        split_records([_record(0, sentence=9)])


@given(st.lists(st.integers(min_value=1, max_value=8), max_size=30))
def test_split_sides_union_is_input(sentences):
    records = [_record(i, sentence=s) for i, s in enumerate(sentences)]
    train, test = split_records(records)
    assert sorted(r.id for r in train + test) == sorted(r.id for r in records)


# --- normalization -----------------------------------------------------------


def _seqs(rng, count, frames=20):
    return {f"u{i}": rng.normal(3.0, 2.0, size=(frames, FEATURE_DIM))
            for i in range(count)}


def test_normalize_train_stats():
    rng = np.random.default_rng(0)
    train = _seqs(rng, 4)
    params = normalize_features(train)
    stacked = np.concatenate([params.apply(f) for f in train.values()])
    np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-10)
    raw = np.concatenate([np.asarray(f) for f in train.values()])
    np.testing.assert_allclose(params.mean, raw.mean(axis=0))
    np.testing.assert_allclose(params.std, raw.std(axis=0))


def test_normalize_test_uses_train_params():
    rng = np.random.default_rng(1)
    train = _seqs(rng, 3)
    held_out = _seqs(rng, 2)
    params = normalize_features(train)
    for seq in held_out.values():
        want = (np.asarray(seq) - params.mean) / params.std
        np.testing.assert_array_equal(np.asarray(params.apply(seq)), want)


def test_normalize_rejects_constant_dimension():
    rng = np.random.default_rng(2)
    train = {}
    for i in range(2):
        vectors = rng.normal(size=(10, FEATURE_DIM))
        vectors[:, 5] = 7.0
        train[f"u{i}"] = vectors
    with pytest.raises(DegenerateDimensionError):
        normalize_features(train)


def test_normalize_rejects_overflowing_dimensions():
    rng = np.random.default_rng(2)
    train = {f"u{i}": rng.normal(size=(10, FEATURE_DIM)) for i in range(2)}
    train["u0"][3, 2], train["u1"][4, 2] = 1e300, -1e300
    train["u0"][0, 9] = 1e308
    train["u1"][0, 9] = 1e308
    with pytest.raises(DegenerateDimensionError,
                       match=r"^feature dimensions \[2, 9\] overflow on the "
                             r"training set$"):
        normalize_features(train)


def test_normalize_rejects_empty_training_set():
    with pytest.raises(DegenerateDimensionError):
        normalize_features({})


def test_normalization_params_roundtrip():
    params = NormalizationParams(mean=np.arange(16.0),
                                 std=np.arange(1.0, 17.0))
    again = NormalizationParams.from_dict(params.to_dict())
    np.testing.assert_array_equal(again.mean, params.mean)
    np.testing.assert_array_equal(again.std, params.std)


@pytest.mark.parametrize("mean, std", [
    (np.zeros(15), np.ones(16)),
    (np.zeros(16), np.ones((2, 8))),
    (np.full(16, np.nan), np.ones(16)),
    (np.zeros(16), np.zeros(16)),
])
def test_normalization_params_reject_bad_blocks(mean, std):
    with pytest.raises(ValueError):
        NormalizationParams.from_dict({"mean": mean.tolist(),
                                       "std": std.tolist()})


# --- synthetic corpus --------------------------------------------------------


def test_synthesis_counts_and_ids():
    synth = synthesize_corpus(num_speakers=2, emotions=("neutral", "angry"),
                              train_sentences=2, test_sentences=1,
                              repetitions=2, separation=1.0, seed=3)
    assert len(synth.records) == 2 * 2 * 3 * 2
    assert set(synth.features) == {r.id for r in synth.records}
    assert len({r.key for r in synth.records}) == len(synth.records)
    train, test = split_records(synth.records, synth.protocol)
    # per-emotion training pool: speakers x train sentences x repetitions
    pool = [r for r in train if r.emotion == "angry"]
    assert len(pool) == 2 * 2 * 2


@pytest.mark.parametrize("separation", [math.nan, math.inf, -1.0])
def test_synthesis_refuses_bad_separation_by_name(separation):
    with pytest.raises(ValueError, match="^separation must be finite"):
        synthesize_corpus(num_speakers=1, emotions=("neutral",),
                          separation=separation)


def test_synthesis_protocol_wiring():
    synth = synthesize_corpus(num_speakers=1, emotions=("sad",),
                              train_sentences=3, test_sentences=2,
                              repetitions=1, separation=1.0, seed=3)
    assert synth.protocol.train_sentences == (1, 2, 3)
    assert synth.protocol.test_sentences == (4, 5)


def test_synthesis_feature_shapes():
    synth = synthesize_corpus(num_speakers=1, emotions=("neutral",),
                              train_sentences=1, test_sentences=1,
                              repetitions=1, separation=2.0, seed=9)
    for utt in synth.features.values():
        vectors = np.asarray(utt.features)
        assert vectors.shape[1] == FEATURE_DIM
        assert vectors.shape[0] == utt.prosody.f0.size
        assert np.all(utt.prosody.f0[~utt.prosody.voiced] == 0.0)
        voiced_f0 = utt.prosody.f0[utt.prosody.voiced]
        assert np.all((voiced_f0 >= 60.0) & (voiced_f0 <= 400.0))


def test_synthesis_gender_alternates():
    synth = synthesize_corpus(num_speakers=4, emotions=("neutral",),
                              train_sentences=1, test_sentences=1,
                              repetitions=1, separation=1.0, seed=0)
    by_speaker = {r.speaker: r.gender for r in synth.records}
    assert sorted(set(by_speaker.values())) == ["female", "male"]


def test_synthesis_deterministic_in_seed():
    kw = dict(num_speakers=2, emotions=("neutral", "fear"),
              train_sentences=1, test_sentences=1, repetitions=1,
              separation=3.0)
    a = synthesize_corpus(seed=42, **kw)
    b = synthesize_corpus(seed=42, **kw)
    assert a.records == b.records
    for uid in a.features:
        np.testing.assert_array_equal(np.asarray(a.features[uid].features),
                                      np.asarray(b.features[uid].features))
        np.testing.assert_array_equal(a.features[uid].prosody.f0,
                                      b.features[uid].prosody.f0)
    c = synthesize_corpus(seed=43, **kw)
    assert any(
        not np.array_equal(np.asarray(a.features[uid].features),
                           np.asarray(c.features[uid].features))
        for uid in a.features)


def _class_means(synth):
    """Each (speaker, emotion) class's mean MFCC vector, and each emotion's
    mean voiced F0, mean log energy and voicing rate: the generators stay
    inside synthesize_corpus, so their classes show only in the samples."""
    acoustic, prosody = {}, {}
    for r in synth.records:
        utt = synth.features[r.id]
        acoustic.setdefault((r.speaker, r.emotion), []).append(utt.features)
        prosody.setdefault(r.emotion, []).append(utt.prosody)
    means = {key: np.concatenate(v).mean(axis=0) for key, v in acoustic.items()}
    rates = {e: [np.concatenate([t.f0[t.voiced] for t in tracks]).mean(),
                 np.concatenate([t.log_energy for t in tracks]).mean(),
                 np.concatenate([t.voiced for t in tracks]).mean()]
             for e, tracks in prosody.items()}
    return means, rates


def test_zero_separation_collapses_classes():
    # 12 utterances per class, so a class mean is within sampling noise of
    # its generator's (on this seed the class means lie 2.8-10.1 apart at
    # separation 5)
    synth = synthesize_corpus(num_speakers=3, emotions=DEFAULT_EMOTIONS,
                              train_sentences=2, test_sentences=2,
                              repetitions=3, separation=0.0, seed=7)
    means, rates = _class_means(synth)
    vectors = list(means.values())
    assert max(np.linalg.norm(a - b) for i, a in enumerate(vectors)
               for b in vectors[i + 1:]) < 1.5
    # F0 in Hz, log energy, voicing rate: 120 Hz, 2.5 and 0.2 at separation 5
    spread = np.ptp(np.array(list(rates.values())), axis=0)
    assert np.all(spread < [1.0, 0.1, 0.06])


def test_separation_moves_generators_apart():
    synth = synthesize_corpus(num_speakers=2, emotions=("neutral",),
                              train_sentences=1, test_sentences=1,
                              repetitions=1, separation=5.0, seed=7)
    means, _ = _class_means(synth)
    gap = np.linalg.norm(means[("spk00", "neutral")]
                         - means[("spk01", "neutral")])
    assert gap > 3.0


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=2))
def test_synthesis_record_count_formula(speakers, reps):
    synth = synthesize_corpus(num_speakers=speakers, emotions=("neutral",),
                              train_sentences=1, test_sentences=1,
                              repetitions=reps, separation=0.0, seed=1)
    assert len(synth.records) == speakers * 2 * reps


def test_synthesis_validates_arguments():
    with pytest.raises(ValueError):
        synthesize_corpus(num_speakers=0)
    with pytest.raises(ValueError):
        synthesize_corpus(num_speakers=1, separation=-1.0)
    with pytest.raises(ValueError):
        synthesize_corpus(num_speakers=1, emotions=("sad", "sad"))
    with pytest.raises(ValueError):
        synthesize_corpus(num_speakers=1, repetitions=0)
    with pytest.raises(ValueError):
        synthesize_corpus(num_speakers=1, train_sentences=0)


def test_generator_frame_counts_in_range():
    synth = synthesize_corpus(num_speakers=1, emotions=("neutral",),
                              train_sentences=2, test_sentences=2,
                              repetitions=3, separation=1.0, seed=11)
    lengths = [np.asarray(u.features).shape[0]
               for u in synth.features.values()]
    assert all(corpus._MIN_FRAMES <= t < corpus._MAX_FRAMES for t in lengths)
