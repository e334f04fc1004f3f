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

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from typing import Mapping, NamedTuple

from . import container, corpus, hmm, supra as supra_mod
from .config import RunConfig
from .errors import (
    BankMismatchError,
    CorruptFileError,
    EmptyBankError,
    EmptyResultsError,
    EmptyTrainingSetError,
    ManifestError,
    SequenceTooShortError,
    UnknownEmotionError,
    UnsupportedFormatError,
    _prefixed,
    _utf8,
)
from .frontend import UtteranceFeatures
from .supra import FusionConfig, blend


class EmotionModels(NamedTuple):
    """The acoustic and prosodic model pair of one emotion."""

    acoustic: hmm.AcousticModel
    supra: hmm.AcousticModel


@dataclass(frozen=True)
class ModelBank:
    """Every trained model of one experiment, keyed by role.

    The bank owns its shape: construction refuses (ValueError) a bank with
    no emotion or no speaker, so the scoring functions need not check.
    speaker_models maps (speaker, emotion) pairs and must cover the full
    cross product; one_stage_models must cover exactly the speakers.
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
        if not (emotions and speakers):
            raise ValueError("a bank needs at least one emotion and one "
                             "speaker")
        if set(self.emotion_models) != set(emotions):
            raise ValueError("emotion_models must cover exactly the bank's emotions")
        expected_pairs = {(s, e) for s in speakers for e in emotions}
        if set(self.speaker_models) != expected_pairs:
            raise ValueError("speaker_models must cover speakers x emotions")
        if set(self.one_stage_models) != set(speakers):
            raise ValueError("one_stage_models must cover exactly the speakers")
        dims = {m.acoustic.feature_dim for m in self.emotion_models.values()}
        dims |= {m.feature_dim for m in self.speaker_models.values()}
        dims |= {m.feature_dim for m in self.one_stage_models.values()}
        if len(dims) > 1:
            raise ValueError(f"models disagree on feature dimension: {sorted(dims)}")


def identify_emotion(utterance, bank: ModelBank,
                     cfg: FusionConfig = FusionConfig()):
    """Stage a: best emotion by blended score, with all candidate scores.

    The scores are supra.stage_a_components over the bank's emotion model
    pairs, blended under cfg: each equals supra.fused_score of its pair.
    """
    components = supra_mod.stage_a_components(
        [bank.emotion_models[e] for e in bank.emotions], utterance)
    scores = {e: blend(log_a, log_s, cfg.alpha)
              for e, (log_a, log_s) in zip(bank.emotions, components)}
    return max(bank.emotions, key=scores.__getitem__), scores


def identify_speaker_given_emotion(features, e_star: str, bank: ModelBank):
    """Stage b: best speaker under the given emotion's acoustic models."""
    if e_star not in bank.emotions:
        raise UnknownEmotionError(f"no models for emotion {e_star!r}")
    scores = {s: hmm.forward_log_likelihood(bank.speaker_models[(s, e_star)],
                                            features)
              for s in bank.speakers}
    return max(bank.speakers, key=scores.__getitem__), scores


def one_stage_identify(features, bank: ModelBank):
    """Baseline: best speaker under the emotion-pooled models."""
    scores = {s: hmm.forward_log_likelihood(bank.one_stage_models[s], features)
              for s in bank.speakers}
    return max(bank.speakers, key=scores.__getitem__), scores


# --- training ----------------------------------------------------------------

def _ordered_labels(values) -> tuple[str, ...]:
    return tuple(dict.fromkeys(values))


def _train(role: str, train_records,
           features: Mapping[str, UtteranceFeatures], cfg: RunConfig) -> dict:
    """Every model of one role with its TrainingReport, as train_role
    returns them.

    The emotion role pools each emotion over all speakers into an acoustic
    model and trains the prosodic model on its alignments. The speaker role
    fits one acoustic model per (speaker, emotion) cell, the one-stage role
    one per speaker, pooled over every emotion. Labels are taken in
    first-appearance order. The role's fits are seeded by one
    hmm.init_model_stack call and refined by one hmm.baum_welch_stack call,
    each sizing its own lock-step groups; the emotion role makes two of
    each, its acoustic fits, then its prosodic ones.
    """
    emotions = _ordered_labels(r.emotion for r in train_records)
    speakers = _ordered_labels(r.speaker for r in train_records)
    if role == "emotion":
        groups = {e: [r for r in train_records if r.emotion == e]
                  for e in emotions}
    elif role == "speaker":
        groups = {(s, e): [r for r in train_records
                           if r.speaker == s and r.emotion == e]
                  for s in speakers for e in emotions}
        for (s, e), cell in groups.items():
            if not cell:
                raise EmptyTrainingSetError(f"the train split has no "
                                            f"utterance of speaker {s!r} in "
                                            f"emotion {e!r}")
    else:
        groups = {s: [r for r in train_records if r.speaker == s]
                  for s in speakers}
    em = dict(max_iters=cfg.em_max_iters, tol=cfg.em_tol,
              variance_floor=cfg.variance_floor)
    utts = [[features[r.id] for r in records] for records in groups.values()]
    seqs = [[u.features for u in cell] for cell in utts]
    fits = hmm.baum_welch_stack(hmm.init_model_stack(
        seqs, cfg.num_states, cfg.num_mixtures, cfg.variance_floor), seqs,
        **em)
    if role != "emotion":
        return dict(zip(groups, fits))
    inits, summaries = supra_mod.seed_suprasegmental(
        [model for model, _ in fits], utts, cfg.num_supra_states,
        cfg.num_supra_mixtures, cfg.variance_floor)
    trained = {}
    for e, acoustic, prosodic in zip(
            groups, fits, hmm.baum_welch_stack(inits, summaries, **em)):
        trained[(e, "acoustic")] = acoustic
        trained[(e, "supra")] = prosodic
    return trained


@dataclass(frozen=True)
class ResultRow:
    """One scored test utterance with truth labels carried along."""

    id: str
    true_speaker: str
    true_emotion: str
    gender: str
    identified_emotion: str
    identified_speaker: str
    one_stage_speaker: str
    emotion_scores: dict[str, float]
    speaker_scores: dict[str, float]


def score_test_set(bank: ModelBank, test_records,
                   features: Mapping[str, UtteranceFeatures],
                   cfg: FusionConfig = FusionConfig()) -> list[ResultRow]:
    """Two-stage and one-stage decisions for a test split.

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
        with _prefixed(f"utterance {r.id!r}"):
            e_star, emotion_scores = identify_emotion(utt, bank, cfg)
            s_star, speaker_scores = identify_speaker_given_emotion(
                utt.features, e_star, bank)
            one_stage, _ = one_stage_identify(utt.features, bank)
        rows.append(ResultRow(
            id=r.id, true_speaker=r.speaker, true_emotion=r.emotion,
            gender=r.gender, identified_emotion=e_star,
            identified_speaker=s_star, one_stage_speaker=one_stage,
            emotion_scores=emotion_scores, speaker_scores=speaker_scores))
    return rows


# results.jsonl: one JSON object per ResultRow, its fields by name, one row
# per line. Each field's JSON type, as read_results checks it:
_ROW_TYPES = {f.name: str for f in fields(ResultRow)}
_ROW_TYPES.update(emotion_scores=dict, speaker_scores=dict)


def write_results(path, rows) -> None:
    """Write ResultRows to path as JSON lines, replacing the file whole."""
    container.replace(path, (json.dumps(asdict(row)) + "\n" for row in rows))


def read_results(path) -> list[ResultRow]:
    """The ResultRows of a results file; blank lines and keys that are not
    ResultRow fields are ignored.

    Text that is not UTF-8, a line that is not JSON, a row that is not an
    object or lacks a field or has one of another JSON type, and a file
    with no rows raise ManifestError naming path (and path:line for a row).
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh, _utf8(path, ManifestError):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append((lineno, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}:{lineno}: bad results line: "
                                    f"{exc}") from exc
    if not rows:
        raise ManifestError(f"{path}: no results")
    for lineno, row in rows:
        if not isinstance(row, dict):
            raise ManifestError(f"{path}:{lineno}: a results row must be a "
                                f"JSON object")
        bad = [k for k, kind in _ROW_TYPES.items()
               if k not in row or not isinstance(row[k], kind)]
        if bad:
            raise ManifestError(f"{path}:{lineno}: results row has missing "
                                f"or mistyped fields {bad}")
    return [ResultRow(**{k: row[k] for k in _ROW_TYPES}) for _, row in rows]


# --- persistence -------------------------------------------------------------
#
# A bank is one container file (emocue.container), <directory>/bank.bin,
# under magic "EMOBK004" (format version 4). The header holds the labels in
# bank order, the _BANK_FIELDS of the config, the train split's MFCC
# statistics ("normalization") and sha256 ("train_split"), and under
# "models" one entry per model: its role, key, shape header and training
# summary. The payload holds the parameters in entry order. Each of these
# is recorded: a null config, normalization, train split or training summary
# makes the file corrupt, and so does a model whose (M, N) component grid is
# not the config's: num_mixtures x num_states for an acoustic model,
# num_supra_mixtures x num_supra_states for a prosodic one.

BANK_FILE = "bank.bin"
_BANK_MAGIC = b"EMOBK004"
# The RunConfig fields that fix a bank's model shapes and its training split;
# train_role adds models only under the same values. Scoring reads the
# shapes from the models, and a bank may be trained with a low EM cap.
_BANK_FIELDS = ("num_states", "num_mixtures", "num_supra_mixtures",
                "num_supra_states", "train_sentences")
# The labels each role's models are keyed by; the roles in file order.
_ROLE_LABELS = {"emotion": ("emotions",), "speaker": ("emotions", "speakers"),
                "one_stage": ("speakers",)}


def _read_bank(directory):
    """The header of the bank in directory, without "models", and its
    models as {role: {key: (model, training summary)}}. A version-2 or
    version-3 bank raises UnsupportedFormatError naming its file."""
    path, old = (os.path.join(directory, name)
                 for name in (BANK_FILE, "bank.json"))
    if not os.path.exists(path) and os.path.exists(old):
        raise UnsupportedFormatError(f"{old}: a version-2 bank; retrain it "
                                     f"to write a version-4 {BANK_FILE}")

    def parse(header, payload):
        for labels in (header["emotions"], header["speakers"]):
            if not (isinstance(labels, list) and len(set(labels)) == len(labels)
                    and all(isinstance(label, str) for label in labels)):
                raise ValueError(f"labels must be distinct strings: {labels}")
        for name in ("config", "normalization", "train_split"):
            if header[name] is None:
                raise ValueError(f"{name} is null")
        config = header["config"] = {name: header["config"][name]
                                     for name in _BANK_FIELDS}
        corpus.NormalizationParams.from_dict(header["normalization"])
        roles = {role: {} for role in _ROLE_LABELS}
        for entry in header.pop("models"):
            role, key = entry["role"], entry["key"]
            if entry["training"] is None:
                raise ValueError(f"the training of {role} model {key} is null")
            key = key if role == "one_stage" else tuple(key)
            prosodic = role == "emotion" and key[1] == "supra"
            model = (supra_mod.decode_supra if prosodic
                     else hmm.decode_model)(entry, payload)
            m, n = model.weights.shape
            want = ((config["num_supra_mixtures"], config["num_supra_states"])
                    if prosodic else
                    (config["num_mixtures"], config["num_states"]))
            if (m, n) != want:
                raise ValueError(f"{role} model {key} has {m} x {n} components"
                                 f" (M x N); the config gives {want[0]} x "
                                 f"{want[1]}")
            roles[role][key] = (model, entry["training"])
        return header, roles

    return container.read(path, _BANK_MAGIC, "model bank", parse, retired={
        b"EMOBK003": f"a version-3 bank; retrain it to write a version-4 "
                     f"{BANK_FILE}"})


def _write_bank(directory, header: dict, roles: Mapping) -> None:
    """The one bank writer: the whole file, replaced at once."""
    entries, payload = [], []
    for role in _ROLE_LABELS:
        for key, (model, training) in roles.get(role, {}).items():
            spec, data = hmm.encode_model(model)
            entries.append({"role": role, "key": key, **spec,
                            "training": training})
            payload.append(data)
    container.write(os.path.join(directory, BANK_FILE), _BANK_MAGIC,
                    {**header, "models": entries}, payload)


def _model_bank(directory, header: dict, roles: Mapping) -> ModelBank:
    """Its emotion, speaker and one-stage roles must all be trained."""
    path = os.path.join(directory, BANK_FILE)
    emotion, speaker, one_stage = ({key: model for key, (model, _) in
                                    roles[role].items()} for role in _ROLE_LABELS)
    if not (emotion and speaker and one_stage):
        raise EmptyBankError(f"{path}: bank is incomplete; train its emotion, "
                             f"speaker and one-stage models first")
    try:
        return ModelBank(
            emotions=header["emotions"], speakers=header["speakers"],
            emotion_models={e: EmotionModels(emotion[(e, "acoustic")],
                                             emotion[(e, "supra")])
                            for e in header["emotions"]},
            speaker_models=speaker, one_stage_models=one_stage)
    except (KeyError, ValueError) as exc:
        raise CorruptFileError(f"{path}: models do not match the labels: "
                               f"{exc}") from exc


def _bank_config(cfg: RunConfig) -> dict:
    values = {name: getattr(cfg, name) for name in _BANK_FIELDS}
    return {name: list(v) if isinstance(v, tuple) else v
            for name, v in values.items()}


def _cached(records, cache: Mapping[str, UtteranceFeatures]) -> None:
    """Refuse (ManifestError) records whose features the cache lacks."""
    missing = list(dict.fromkeys(r.id for r in records if r.id not in cache))
    if missing:
        raise ManifestError(f"feature cache is missing {len(missing)} "
                            f"utterances (first: {missing[0]!r})")


def _train_split(records, cache: Mapping[str, UtteranceFeatures]) -> str:
    return hashlib.sha256("".join(
        f"{uid}\t{len(cache[uid].features)}\n"
        for uid in sorted(r.id for r in records)).encode()).hexdigest()


def _check(directory, header: dict, cfg: RunConfig | None, train_records,
           cache: Mapping[str, UtteranceFeatures], labels=None) -> None:
    """Refuse (BankMismatchError) a bank trained under other bank fields of
    cfg or on other labels (each when given), or on another train split."""
    path = os.path.join(directory, BANK_FILE)
    for name, value in (_bank_config(cfg) if cfg else {}).items():
        if header["config"][name] != value:
            raise BankMismatchError(
                f"{path}: bank was trained with {name} = "
                f"{header['config'][name]}, the config has {value}")
    for kind, want in (labels or {}).items():
        if header[kind] and header[kind] != want:
            raise BankMismatchError(f"{path}: bank was trained on {kind} "
                                    f"{header[kind]}, the training split has "
                                    f"{want}")
    split = header["train_split"]
    if split != (ours := _train_split(train_records, cache)):
        raise BankMismatchError(f"{path}: bank was trained on another train "
                                f"split (sha256 {split}) than this feature "
                                f"cache's ({ours})")


def _normalized(header: dict, records, cache: Mapping[str, UtteranceFeatures]):
    params = corpus.NormalizationParams.from_dict(header["normalization"])
    return {r.id: UtteranceFeatures(features=params.apply(cache[r.id].features),
                                    prosody=cache[r.id].prosody)
            for r in records}


def load_bank(directory) -> ModelBank:
    """The bank in directory, whose emotion, speaker and one-stage roles
    must all be trained."""
    return _model_bank(directory, *_read_bank(directory))


def open_bank(directory, train_records, used_records,
              cache: Mapping[str, UtteranceFeatures]):
    """The bank in directory, read once and checked against the train split
    of train_records (its models carry their own shapes), and the features
    of used_records with MFCCs z-normalized by the bank's statistics. A
    record of either set that the cache lacks raises ManifestError.

    Returns (bank, features).
    """
    _cached([*train_records, *used_records], cache)
    header, roles = _read_bank(directory)
    _check(directory, header, None, train_records, cache)
    return (_model_bank(directory, header, roles),
            _normalized(header, used_records, cache))


def train_role(role: str, directory, cfg: RunConfig, train_records,
               cache: Mapping[str, UtteranceFeatures]):
    """Train one model role ("emotion", "speaker" or "one_stage") on the
    normalized train split and swap it into the bank in directory, which is
    rewritten whole. An existing bank is checked (_check, with the split's
    labels) before any training; a new one takes the split's statistics.
    A train record that the cache lacks raises ManifestError. A split that
    selects no utterance, or (for the speaker role) no utterance of some
    (speaker, emotion) cell, raises EmptyTrainingSetError, and a train
    utterance shorter than num_states SequenceTooShortError naming it;
    none of these writes the bank.

    Returns the role's models with their TrainingReports as {key: (model,
    report)}, keyed and ordered as bank.bin stores them: (emotion,
    "acoustic") and (emotion, "supra") per emotion; (speaker, emotion) per
    speaker, then per emotion; or speaker.
    """
    records = list(train_records)
    if not records:
        raise EmptyTrainingSetError("the train split selects no utterance")
    _cached(records, cache)
    for r in records:
        if len(cache[r.id].features) < cfg.num_states:
            raise SequenceTooShortError(
                f"utterance {r.id!r} has {len(cache[r.id].features)} frames, "
                f"fewer than num_states {cfg.num_states}")
    labels = {"emotions": list(_ordered_labels(r.emotion for r in records)),
              "speakers": list(_ordered_labels(r.speaker for r in records))}
    labels = {kind: labels[kind] for kind in _ROLE_LABELS[role]}
    try:
        header, roles = _read_bank(directory)
    except FileNotFoundError:
        params = corpus.normalize_features(
            {r.id: cache[r.id].features for r in records})
        header = {"emotions": [], "speakers": [], "config": _bank_config(cfg),
                  "normalization": params.to_dict(),
                  "train_split": _train_split(records, cache)}
        roles = {}
    else:
        _check(directory, header, cfg, records, cache, labels)
    trained = _train(role, records, _normalized(header, records, cache), cfg)
    header.update(labels)
    roles[role] = {key: (model, {
        "iterations": report.iterations_run, "converged": report.converged,
        "log_likelihood": report.log_likelihood_per_iteration[-1]})
        for key, (model, report) in trained.items()}
    _write_bank(directory, header, roles)
    return trained
