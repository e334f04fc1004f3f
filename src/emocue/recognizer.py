"""Two-stage identification: emotion first, then emotion-specific speaker.

Stage a scores an utterance against every emotion's blended acoustic plus
prosodic model pair and keeps the best emotion. Stage b then compares the
speakers' acoustic models trained for that emotion only. A one-stage
baseline (per-speaker models pooled over all emotions) is carried alongside
for comparison. Every decision is max(labels, key=scores.__getitem__), and
max keeps the first maximum, so ties resolve to the earliest candidate in
bank order and every decision is deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from . import corpus, hmm, supra as supra_mod
from .config import RunConfig
from .errors import (
    BankMismatchError,
    EmoCueError,
    EmptyBankError,
    EmptyResultsError,
    UnknownEmotionError,
)
from .frontend import UtteranceFeatures
from .supra import FusionConfig, SuprasegmentalModel, fused_score


class EmotionModels(NamedTuple):
    """The acoustic and prosodic model pair of one emotion."""

    acoustic: hmm.AcousticModel
    supra: SuprasegmentalModel


@dataclass(frozen=True)
class ModelBank:
    """Every trained model of one experiment, keyed by role.

    speaker_models maps (speaker, emotion) pairs and must cover the full
    cross product; one_stage_models may be empty until the baseline is
    trained.
    """

    emotions: tuple[str, ...]
    speakers: tuple[str, ...]
    emotion_models: Mapping[str, EmotionModels]
    speaker_models: Mapping[tuple[str, str], hmm.AcousticModel]
    one_stage_models: Mapping[str, hmm.AcousticModel]

    def __post_init__(self):
        emotions = tuple(self.emotions)
        speakers = tuple(self.speakers)
        object.__setattr__(self, "emotions", emotions)
        object.__setattr__(self, "speakers", speakers)
        if set(self.emotion_models) != set(emotions):
            raise ValueError("emotion_models must cover exactly the bank's emotions")
        expected_pairs = {(s, e) for s in speakers for e in emotions}
        if set(self.speaker_models) != expected_pairs:
            raise ValueError("speaker_models must cover speakers x emotions")
        if self.one_stage_models and set(self.one_stage_models) != set(speakers):
            raise ValueError("one_stage_models must cover exactly the speakers")
        dims = {m.acoustic.feature_dim for m in self.emotion_models.values()}
        dims |= {m.feature_dim for m in self.speaker_models.values()}
        dims |= {m.feature_dim for m in self.one_stage_models.values()}
        if len(dims) > 1:
            raise ValueError(f"models disagree on feature dimension: {sorted(dims)}")


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of a two-stage pass over one utterance."""

    identified_emotion: str
    identified_speaker: str
    emotion_scores: dict[str, float]
    speaker_scores: dict[str, float]

    def __post_init__(self):
        if self.emotion_scores[self.identified_emotion] < max(
                self.emotion_scores.values()):
            raise ValueError("identified emotion must attain the score maximum")
        if self.speaker_scores[self.identified_speaker] < max(
                self.speaker_scores.values()):
            raise ValueError("identified speaker must attain the score maximum")


def identify_emotion(utterance, bank: ModelBank,
                     cfg: FusionConfig = FusionConfig()):
    """Stage a: best emotion by blended score, with all candidate scores."""
    if not bank.emotions:
        raise EmptyBankError("bank has no emotion models")
    scores = {e: fused_score(bank.emotion_models[e].acoustic,
                             bank.emotion_models[e].supra, utterance, cfg)
              for e in bank.emotions}
    return max(bank.emotions, key=scores.__getitem__), scores


def identify_speaker_given_emotion(features, e_star: str, bank: ModelBank):
    """Stage b: best speaker under the given emotion's acoustic models."""
    if e_star not in bank.emotions:
        raise UnknownEmotionError(f"no models for emotion {e_star!r}")
    if not bank.speakers:
        raise EmptyBankError("bank has no speaker models")
    scores = {s: hmm.forward_log_likelihood(bank.speaker_models[(s, e_star)],
                                            features)
              for s in bank.speakers}
    return max(bank.speakers, key=scores.__getitem__), scores


def two_stage_identify(utterance, bank: ModelBank,
                       cfg: FusionConfig = FusionConfig()) -> IdentificationResult:
    """Run stage a, feed its emotion into stage b, report both decisions."""
    features, _ = utterance
    e_star, emotion_scores = identify_emotion(utterance, bank, cfg)
    s_star, speaker_scores = identify_speaker_given_emotion(features, e_star, bank)
    return IdentificationResult(identified_emotion=e_star,
                                identified_speaker=s_star,
                                emotion_scores=emotion_scores,
                                speaker_scores=speaker_scores)


def one_stage_identify(features, bank: ModelBank):
    """Baseline: best speaker under the emotion-pooled models."""
    if not bank.one_stage_models:
        raise EmptyBankError("bank has no one-stage models")
    scores = {s: hmm.forward_log_likelihood(bank.one_stage_models[s], features)
              for s in bank.speakers}
    return max(bank.speakers, key=scores.__getitem__), scores


# --- training ----------------------------------------------------------------

def _ordered_labels(values) -> tuple[str, ...]:
    return tuple(dict.fromkeys(values))


def _fit(seqs, cfg: RunConfig, reports, key) -> hmm.AcousticModel:
    init = hmm.init_model(seqs, cfg.num_states, cfg.num_mixtures,
                          variance_floor=cfg.variance_floor)
    model, report = hmm.baum_welch(init, seqs, max_iters=cfg.em_max_iters,
                                   tol=cfg.em_tol,
                                   variance_floor=cfg.variance_floor)
    if reports is not None:
        reports[key] = report
    return model


# Each trainer files its models' TrainingReports in reports, when given:
# under (emotion, "acoustic") and (emotion, "supra"), (speaker, emotion) and
# speaker, respectively.

def train_emotion_models(train_records,
                         features: Mapping[str, UtteranceFeatures],
                         cfg: RunConfig = RunConfig(),
                         reports: dict | None = None,
                         ) -> dict[str, EmotionModels]:
    """Per emotion, an acoustic model pooled over all speakers and the
    prosodic model trained on its alignments."""
    models = {}
    for e in _ordered_labels(r.emotion for r in train_records):
        utts = [features[r.id] for r in train_records if r.emotion == e]
        acoustic = _fit([u.features for u in utts], cfg, reports,
                        (e, "acoustic"))
        supra_model, report = supra_mod.train_suprasegmental(
            acoustic, utts, cfg.mapping, num_mixtures=cfg.num_supra_mixtures,
            max_iters=cfg.em_max_iters, tol=cfg.em_tol,
            variance_floor=cfg.variance_floor)
        if reports is not None:
            reports[(e, "supra")] = report
        models[e] = EmotionModels(acoustic=acoustic, supra=supra_model)
    return models


def train_speaker_models(train_records,
                         features: Mapping[str, UtteranceFeatures],
                         cfg: RunConfig = RunConfig(),
                         reports: dict | None = None,
                         ) -> dict[tuple[str, str], hmm.AcousticModel]:
    """One acoustic model per (speaker, emotion) cell."""
    emotions = _ordered_labels(r.emotion for r in train_records)
    models = {}
    for s in _ordered_labels(r.speaker for r in train_records):
        for e in emotions:
            seqs = [features[r.id].features for r in train_records
                    if r.speaker == s and r.emotion == e]
            models[(s, e)] = _fit(seqs, cfg, reports, (s, e))
    return models


def train_one_stage_models(train_records,
                           features: Mapping[str, UtteranceFeatures],
                           cfg: RunConfig = RunConfig(),
                           reports: dict | None = None,
                           ) -> dict[str, hmm.AcousticModel]:
    """One acoustic model per speaker, pooled over every emotion."""
    models = {}
    for s in _ordered_labels(r.speaker for r in train_records):
        seqs = [features[r.id].features for r in train_records if r.speaker == s]
        models[s] = _fit(seqs, cfg, reports, s)
    return models


def train_model_bank(train_records, features: Mapping[str, UtteranceFeatures],
                     cfg: RunConfig = RunConfig()) -> ModelBank:
    """Train every model role from one training split.

    Candidate order follows first appearance in the records.
    """
    records = list(train_records)
    if not records:
        raise EmptyBankError("no training records")
    return ModelBank(
        emotions=_ordered_labels(r.emotion for r in records),
        speakers=_ordered_labels(r.speaker for r in records),
        emotion_models=train_emotion_models(records, features, cfg),
        speaker_models=train_speaker_models(records, features, cfg),
        one_stage_models=train_one_stage_models(records, features, cfg))


@dataclass(frozen=True)
class ResultRow:
    """One scored test utterance with truth labels carried along."""

    id: str
    true_speaker: str
    true_emotion: str
    gender: str
    identified_emotion: str
    identified_speaker: str
    one_stage_speaker: str | None
    emotion_scores: dict[str, float]
    speaker_scores: dict[str, float]


def score_test_set(bank: ModelBank, test_records,
                   features: Mapping[str, UtteranceFeatures],
                   cfg: FusionConfig = FusionConfig()) -> list[ResultRow]:
    """Two-stage (and, when available, one-stage) decisions for a test split.

    An utterance that cannot be scored (one shorter than the models' state
    count raises NoLegalPathError) re-raises its error, of the same type,
    naming the utterance id.
    """
    records = list(test_records)
    if not records:
        raise EmptyResultsError("no test records")
    rows = []
    for r in records:
        utt = features[r.id]
        try:
            result = two_stage_identify(utt, bank, cfg)
            one_stage = (one_stage_identify(utt.features, bank)[0]
                         if bank.one_stage_models else None)
        except EmoCueError as exc:
            raise type(exc)(f"utterance {r.id!r}: {exc}") from exc
        rows.append(ResultRow(
            id=r.id, true_speaker=r.speaker, true_emotion=r.emotion,
            gender=r.gender, identified_emotion=result.identified_emotion,
            identified_speaker=result.identified_speaker,
            one_stage_speaker=one_stage,
            emotion_scores=result.emotion_scores,
            speaker_scores=result.speaker_scores))
    return rows


# --- persistence -------------------------------------------------------------

BANK_FORMAT = "emocue-bank"
BANK_VERSION = 2
_BANK_INDEX = "bank.json"
# The RunConfig fields that fix a bank's model shapes and its training split.
# Commands on one bank may differ in EM stopping rules, seed, fusion settings
# and test split: a bank may be trained with a low EM cap and then scored.
_BANK_FIELDS = ("num_states", "num_mixtures", "num_supra_mixtures",
                "supra_groups", "train_sentences")
# The labels each role's models are keyed by.
_ROLE_LABELS = {"emotion": ("emotions",), "speaker": ("emotions", "speakers"),
                "one_stage": ("speakers",)}
_TRAINERS = {"emotion": train_emotion_models, "speaker": train_speaker_models,
             "one_stage": train_one_stage_models}


def _new_index(config, normalization) -> dict:
    return {"format": BANK_FORMAT, "version": BANK_VERSION, "config": config,
            "normalization": normalization, "emotions": [], "speakers": [],
            "emotion_files": {}, "speaker_files": {}, "one_stage_files": {},
            "training": {}}


def _bank_config(cfg: RunConfig) -> dict:
    values = {name: getattr(cfg, name) for name in _BANK_FIELDS}
    return {name: list(v) if isinstance(v, tuple) else v
            for name, v in values.items()}


def _write_bank(directory, index: dict, emotions, speakers,
                roles: Mapping[str, Mapping],
                reports: Mapping[str, Mapping] | None = None) -> None:
    """The one bank writer: each role's model files, then the index.

    Every role's labels are checked against those the index records before
    any file is written. reports holds, per role, the TrainingReports a
    trainer filed; the index keeps each model file's iterations, whether EM
    converged and its last training log-likelihood under "training" (an
    index written without them, or a model without a report, has no entry).
    Every file is replaced atomically, so an interrupted write leaves the
    previous one loadable.
    """
    path = os.path.join(directory, _BANK_INDEX)
    labels = {"emotions": list(emotions), "speakers": list(speakers)}
    for role in roles:
        for kind in _ROLE_LABELS[role]:
            if index[kind] and index[kind] != labels[kind]:
                raise BankMismatchError(
                    f"{path}: bank was trained on {kind} {index[kind]}, "
                    f"the training split has {labels[kind]}")
            index[kind] = labels[kind]
    os.makedirs(directory, exist_ok=True)
    training = index.setdefault("training", {})

    def put(save, model, name, role, key):
        save(model, os.path.join(directory, name))
        report = (reports or {}).get(role, {}).get(key)
        training.pop(name, None)
        if report is not None:
            training[name] = {
                "iterations": report.iterations_run,
                "converged": report.converged,
                "log_likelihood": report.log_likelihood_per_iteration[-1]}
        return name

    if "emotion" in roles:
        index["emotion_files"] = {
            e: {"acoustic": put(hmm.save_model, roles["emotion"][e].acoustic,
                                f"emotion_{i}.acoustic.json", "emotion",
                                (e, "acoustic")),
                "supra": put(supra_mod.save_supra_model,
                             roles["emotion"][e].supra,
                             f"emotion_{i}.supra.json", "emotion",
                             (e, "supra"))}
            for i, e in enumerate(emotions)}
    if "speaker" in roles:
        index["speaker_files"] = {
            s: {e: put(hmm.save_model, roles["speaker"][(s, e)],
                       f"speaker_{i}_{j}.json", "speaker", (s, e))
                for j, e in enumerate(emotions)}
            for i, s in enumerate(speakers)}
    if "one_stage" in roles:
        index["one_stage_files"] = {
            s: put(hmm.save_model, roles["one_stage"][s], f"onestage_{i}.json",
                   "one_stage", s)
            for i, s in enumerate(speakers) if s in roles["one_stage"]}
    hmm.write_json_file(path, index, indent=2)


def save_bank(bank: ModelBank, directory) -> None:
    """Write every model file plus an index that names each one's role.

    The index records no config and no normalization: the library trains on
    the features it is given, and a bank from it is scored on them as they
    are.
    """
    _write_bank(directory, _new_index(None, None), bank.emotions, bank.speakers,
                {"emotion": bank.emotion_models, "speaker": bank.speaker_models,
                 "one_stage": bank.one_stage_models})


def load_bank(directory) -> ModelBank:
    """The bank in directory. Its emotion and speaker roles must be trained;
    the one-stage baseline may be missing."""
    def build(index):
        emotions = tuple(index["emotions"])
        speakers = tuple(index["speakers"])
        files = index["emotion_files"]
        if not (emotions and speakers and files and index["speaker_files"]):
            raise EmptyBankError(f"{directory}: bank is incomplete; train its "
                                 f"emotion and speaker models first")

        def model(load, name):
            return load(os.path.join(directory, name))

        return ModelBank(
            emotions=emotions, speakers=speakers,
            emotion_models={
                e: EmotionModels(
                    acoustic=model(hmm.load_model, files[e]["acoustic"]),
                    supra=model(supra_mod.load_supra_model, files[e]["supra"]))
                for e in emotions},
            speaker_models={
                (s, e): model(hmm.load_model, index["speaker_files"][s][e])
                for s in speakers for e in emotions},
            one_stage_models={
                s: model(hmm.load_model, name)
                for s, name in index["one_stage_files"].items()})

    return hmm.read_json_file(os.path.join(directory, _BANK_INDEX),
                              BANK_FORMAT, BANK_VERSION, build)


def normalized_features(directory, cfg: RunConfig, train_records,
                        used_records, cache: Mapping[str, UtteranceFeatures]):
    """The bank index in directory and the features of used_records, with
    MFCCs z-normalized by the bank's train-split statistics.

    An existing index must record the bank fields of cfg; its statistics are
    applied. With no index yet, the statistics are estimated on
    train_records and kept in a fresh index for the first role write.
    Returns (index, features).
    """
    path = os.path.join(directory, _BANK_INDEX)
    if os.path.exists(path):
        def stored(index):
            for name, value in _bank_config(cfg).items():
                if index["config"] and index["config"][name] != value:
                    raise BankMismatchError(
                        f"{path}: bank was trained with {name} = "
                        f"{index['config'][name]}, the config has {value}")
            return index, index["normalization"] and \
                corpus.NormalizationParams.from_dict(index["normalization"])

        index, params = hmm.read_json_file(path, BANK_FORMAT, BANK_VERSION,
                                           stored)
        normalized = {r.id: params.apply(cache[r.id].features) if params
                      else cache[r.id].features for r in used_records}
    else:
        train = {r.id: cache[r.id].features for r in train_records}
        train_n, other_n, params = corpus.normalize_features(
            train, {r.id: cache[r.id].features for r in used_records
                    if r.id not in train})
        normalized = {**train_n, **other_n}
        index = _new_index(_bank_config(cfg), params.to_dict())
    return index, {r.id: UtteranceFeatures(features=normalized[r.id],
                                           prosody=cache[r.id].prosody)
                   for r in used_records}


def train_role(role: str, directory, cfg: RunConfig, train_records,
               cache: Mapping[str, UtteranceFeatures]):
    """Train one model role ("emotion", "speaker" or "one_stage") on the
    normalized train split and add it to the bank in directory.

    Returns the role's models and the TrainingReport of each model, keyed
    as the trainer files them.
    """
    records = list(train_records)
    index, features = normalized_features(directory, cfg, records, records,
                                          cache)
    reports: dict = {}
    models = _TRAINERS[role](records, features, cfg, reports)
    _write_bank(directory, index, _ordered_labels(r.emotion for r in records),
                _ordered_labels(r.speaker for r in records), {role: models},
                {role: reports})
    return models, reports
