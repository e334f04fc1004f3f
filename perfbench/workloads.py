"""The benchmark's workloads: set-up, one closed-loop cycle, and output checks.

Every CLI command goes through ``emocue.cli.main`` in this process, the way a
user runs the pipeline, and the next command starts only after the previous
one returned (a closed loop with one client). Sizes are chosen so that one
cycle takes a few seconds on a 2-core host and a run holds several cycles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

from emocue import cli, recognizer
from emocue.corpus import DEFAULT_EMOTIONS
from emocue.evaluation import DEFAULT_ALPHAS
from emocue.frontend import read_feature_cache

import wavgen

SUMMARY_TOL = 1e-9


class CommandRunner:
    """Runs CLI commands in-process and records their wall time and exit code."""

    def __init__(self):
        self.tracer = None
        self.records: list[dict] = []
        self.errors: list[str] = []

    def run(self, argv: list[str], cycle: int) -> int:
        command = argv[0]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    code = cli.main(argv)
                else:
                    with self.tracer.request(command, cycle):
                        code = cli.main(argv)
            except Exception:  # a traceback is a failed command, not a crash
                traceback.print_exc(file=err)
                code = -1
        seconds = time.perf_counter() - start
        self.records.append({"command": command, "cycle": cycle,
                             "seconds": seconds, "code": code})
        if code != 0:
            self.errors.append(f"{command} (cycle {cycle}) exited {code}: "
                               f"{err.getvalue().strip()[-400:]}")
        return code


@dataclass
class CheckResult:
    """Outcome of checking one set-up's or one cycle's outputs."""

    items: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    quality: dict = field(default_factory=dict)

    def fail(self, message: str, items: int = 1) -> None:
        self.failed += items
        self.problems.append(message)


def digest_files(paths) -> str:
    """sha256 over (file name, file bytes) in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def digest_tree(directory) -> str:
    paths = [os.path.join(root, name)
             for root, _, names in sorted(os.walk(directory))
             for name in sorted(names)]
    return digest_files(paths)


def _split_flags(train_count: int, test_count: int) -> list[str]:
    train = ",".join(str(s) for s in range(1, train_count + 1))
    test = ",".join(str(s) for s in
                    range(train_count + 1, train_count + test_count + 1))
    return ["--train-sentences", train, "--test-sentences", test]


class _SyntheticWorkload:
    """Shared corpus shape of the workloads built on ``gen-synthetic``."""

    # The acceptance run's speaker and emotion counts (they set the balance
    # of stage a against stage b and the number of models), with one
    # training sentence and one repetition instead of 4 x 3.
    SPEAKERS = 5
    EMOTIONS = DEFAULT_EMOTIONS
    TRAIN_COUNT = 1
    TEST_COUNT = 1
    REPS = 1
    SEPARATION = 5.0
    TRAIN_FLAGS: tuple[str, ...] = ()
    SETUP_REPEATS = 3

    @property
    def train_utts(self) -> int:
        return self.SPEAKERS * len(self.EMOTIONS) * self.TRAIN_COUNT * self.REPS

    @property
    def test_utts(self) -> int:
        return self.SPEAKERS * len(self.EMOTIONS) * self.TEST_COUNT * self.REPS

    def used_utterances(self, command: str) -> int | None:
        """Utterances a command actually needs (for the normalise useful ratio)."""
        if command.startswith("train-"):
            return self.train_utts
        if command in ("identify", "sweep-alpha"):
            return self.test_utts
        return None

    def corpus_flags(self, directory) -> list[str]:
        return ["--manifest", os.path.join(directory, "manifest.tsv"),
                "--features", os.path.join(directory, "features.bin"),
                *_split_flags(self.TRAIN_COUNT, self.TEST_COUNT)]

    def generate(self, runner, directory, seed, cycle) -> None:
        runner.run(["gen-synthetic", "--out-dir", directory,
                    "--speakers", str(self.SPEAKERS),
                    "--emotions", ",".join(self.EMOTIONS),
                    "--train-count", str(self.TRAIN_COUNT),
                    "--test-count", str(self.TEST_COUNT),
                    "--reps", str(self.REPS),
                    "--separation", str(self.SEPARATION),
                    "--seed", str(seed)], cycle)

    def train(self, runner, corpus_dir, bank_dir, cycle) -> None:
        flags = self.corpus_flags(corpus_dir) + ["--bank-dir", bank_dir,
                                                 *self.TRAIN_FLAGS]
        for command in ("train-emotions", "train-speakers", "train-onestage"):
            runner.run([command, *flags], cycle)

    def check_bank(self, bank_dir) -> CheckResult:
        """Every model role present and loadable, for every label."""
        e, s = len(self.EMOTIONS), self.SPEAKERS
        result = CheckResult(items=2 * e + s * e + s)
        try:
            bank = recognizer.load_bank(bank_dir)
        except Exception as exc:  # any load failure fails every model
            result.fail(f"{bank_dir}: bank does not load: {exc!r}",
                        result.items)
            return result
        if bank.emotions != self.EMOTIONS:
            result.fail(f"bank emotions {bank.emotions}", 2 * e)
        if len(bank.speakers) != s:
            result.fail(f"bank has {len(bank.speakers)} speakers", s * e)
        if set(bank.one_stage_models) != set(bank.speakers):
            result.fail("one-stage models missing", s)
        result.digest = digest_tree(bank_dir)
        return result


class TrainWorkload(_SyntheticWorkload):
    """Set-up: gen-synthetic. Cycle: train-emotions, -speakers, -onestage."""

    name = "train"
    # gen-synthetic takes tens of milliseconds; many repeats steady its median.
    SETUP_REPEATS = 25

    def setup(self, runner, directory, seed, cycle) -> None:
        self.generate(runner, directory, seed, cycle)

    def check_setup(self, directory) -> CheckResult:
        return _digest_if_present([os.path.join(directory, "manifest.tsv"),
                                   os.path.join(directory, "features.bin")])

    def cycle(self, runner, setup_dir, out_dir, cycle) -> None:
        self.train(runner, setup_dir, os.path.join(out_dir, "bank"), cycle)

    def check(self, setup_dir, out_dir) -> CheckResult:
        return self.check_bank(os.path.join(out_dir, "bank"))

    def report(self, command_seconds, quality) -> dict:
        return {"train_s": (sum(_median(command_seconds.get(c, []))
                                for c in ("train-emotions", "train-speakers",
                                          "train-onestage")), "s")}


class IdentifyWorkload(_SyntheticWorkload):
    """Set-up: gen-synthetic and a full bank. Cycle: identify, evaluate,
    sweep-alpha over a test split much larger than the training split."""

    name = "identify"
    # Three training sentences: with one or two, two-stage speaker accuracy
    # sat at chance on some seeds, where a decision flip could not show.
    TRAIN_COUNT = 3
    TEST_COUNT = 2
    # Scoring cost does not depend on how long EM ran; a low cap keeps the
    # repeated set-up short.
    TRAIN_FLAGS = ("--em-max-iters", "5")
    # Set-up trains a bank (about 9 s), so it repeats only twice.
    SETUP_REPEATS = 2
    # Low enough that all three accuracies sit between chance and 100%, so a
    # numerics change that flips decisions shows in the accuracy figures.
    SEPARATION = 1.25
    # Chance is 100/6 = 16.7% for emotions and 100/5 = 20% for speakers.
    # Each floor sits about halfway between chance and the lowest value seen
    # over 28 seeds (README.md), so a change that flips decisions wholesale
    # fails the run.
    ACC_FLOORS = {"emotion_acc_pct": 35.0, "two_stage_acc_pct": 28.0,
                  "one_stage_acc_pct": 49.0}

    def setup(self, runner, directory, seed, cycle) -> None:
        self.generate(runner, directory, seed, cycle)
        self.train(runner, directory, os.path.join(directory, "bank"), cycle)

    def check_setup(self, directory) -> CheckResult:
        return self.check_bank(os.path.join(directory, "bank"))

    def cycle(self, runner, setup_dir, out_dir, cycle) -> None:
        flags = self.corpus_flags(setup_dir) + [
            "--bank-dir", os.path.join(setup_dir, "bank")]
        results = os.path.join(out_dir, "results.jsonl")
        runner.run(["identify", *flags, "--out", results], cycle)
        runner.run(["evaluate", "--results", results,
                    "--out-dir", os.path.join(out_dir, "eval")], cycle)
        runner.run(["sweep-alpha", *flags,
                    "--out", os.path.join(out_dir, "sweep.tsv")], cycle)

    def check(self, setup_dir, out_dir) -> CheckResult:
        result = CheckResult(items=self.test_utts + len(DEFAULT_ALPHAS))
        paths = [os.path.join(out_dir, "results.jsonl"),
                 os.path.join(out_dir, "eval", "summary.json"),
                 os.path.join(out_dir, "sweep.tsv")]
        try:
            rows = _read_jsonl(paths[0])
            with open(paths[1], encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(paths[2], encoding="utf-8") as fh:
                sweep_lines = fh.read().splitlines()
        except (OSError, ValueError) as exc:
            result.fail(f"outputs unreadable: {exc!r}", result.items)
            return result
        self._check_rows(rows, result)
        try:
            self._check_summary(rows, summary, result)
        except (KeyError, TypeError, AttributeError) as exc:
            result.fail(f"rows or summary malformed: {exc!r}", 0)
        self._check_sweep(sweep_lines, result)
        result.digest = digest_files(paths)
        return result

    def _check_rows(self, rows, result) -> None:
        if len(rows) != self.test_utts:
            result.fail(f"{len(rows)} result rows, expected {self.test_utts}",
                        abs(self.test_utts - len(rows)))
        for row in rows:
            bad = _decision_error(row, "emotion_scores", "identified_emotion",
                                  self.EMOTIONS)
            bad = bad or _decision_error(row, "speaker_scores",
                                         "identified_speaker", None)
            if bad:
                result.fail(f"{row.get('id')}: {bad}")

    def _check_summary(self, rows, summary, result) -> None:
        expected = {
            "emotion_average_diagonal": _emotion_average(rows, self.EMOTIONS),
            "two_stage": _speaker_accuracy(rows, "identified_speaker",
                                           self.EMOTIONS),
            "one_stage": _speaker_accuracy(rows, "one_stage_speaker",
                                           self.EMOTIONS),
        }
        got = {"emotion_average_diagonal": summary.get("emotion_average_diagonal"),
               "two_stage": (summary.get("two_stage") or {}).get("mean"),
               "one_stage": (summary.get("one_stage") or {}).get("mean")}
        for key, value in expected.items():
            if got[key] is None or abs(got[key] - value) > SUMMARY_TOL:
                result.fail(f"summary {key} = {got[key]}, rows give {value}", 0)
        result.quality = {"emotion_acc_pct": expected["emotion_average_diagonal"],
                          "two_stage_acc_pct": expected["two_stage"],
                          "one_stage_acc_pct": expected["one_stage"]}
        for key, floor in self.ACC_FLOORS.items():
            if not result.quality[key] >= floor:
                result.fail(f"{key} = {result.quality[key]:.1f}% is below "
                            f"its floor of {floor}%", 0)

    def _check_sweep(self, lines, result) -> None:
        body = lines[1:]
        if len(body) != len(DEFAULT_ALPHAS):
            result.fail(f"sweep has {len(body)} rows, expected "
                        f"{len(DEFAULT_ALPHAS)}",
                        abs(len(DEFAULT_ALPHAS) - len(body)))
        for line, alpha in zip(body, DEFAULT_ALPHAS):
            cells = line.split("\t")
            try:
                values = [float(c) for c in cells]
            except ValueError:
                values = []
            if (len(cells) != len(self.EMOTIONS) + 2 or not values
                    or values[0] != alpha
                    or not all(math.isfinite(v) and 0.0 <= v <= 100.0
                               for v in values[1:])):
                result.fail(f"bad sweep row {line!r}")

    def report(self, command_seconds, quality) -> dict:
        return {
            "identify_utt_per_s": (self.test_utts
                                   / _median(command_seconds.get("identify", [])),
                                   "utt/s"),
            "sweep_alpha_s": (_median(command_seconds.get("sweep-alpha", [])),
                              "s"),
            "emotion_acc_pct": (quality.get("emotion_acc_pct", math.nan), "%"),
            "two_stage_acc_pct": (quality.get("two_stage_acc_pct", math.nan), "%"),
            "one_stage_acc_pct": (quality.get("one_stage_acc_pct", math.nan), "%"),
        }

    def closed_forms(self) -> dict:
        """Traced call counts of one ``identify`` command, by span name."""
        u, e, s = self.test_utts, len(self.EMOTIONS), self.SPEAKERS
        return {"hmm.forward_log_likelihood": u * (2 * e + 2 * s),
                "hmm.viterbi": u * e}


class ExtractWorkload:
    """Set-up: WAV clips with known truth. Cycle: extract to a feature cache."""

    name = "extract"
    CLIPS = 160
    SETUP_REPEATS = 5
    # A frontend that works gets every frame of these clean clips right; a
    # few percent of errors means it broke.
    MAX_ERROR_PCT = 2.0

    def __init__(self):
        self.clips: list[wavgen.Clip] = []

    @property
    def audio_seconds(self) -> float:
        return sum(clip.seconds for clip in self.clips)

    def used_utterances(self, command: str) -> int | None:
        return None

    def setup(self, runner, directory, seed, cycle) -> None:
        self.clips = wavgen.make_clips(seed, self.CLIPS)
        wavgen.write_corpus(directory, self.clips)

    def check_setup(self, directory) -> CheckResult:
        return _digest_if_present([os.path.join(directory, "manifest.tsv")]
                                  + [os.path.join(directory, f"{c.name}.wav")
                                     for c in self.clips])

    def cycle(self, runner, setup_dir, out_dir, cycle) -> None:
        runner.run(["extract", "--manifest",
                    os.path.join(setup_dir, "manifest.tsv"),
                    "--out", os.path.join(out_dir, "features.bin")], cycle)

    def check(self, setup_dir, out_dir) -> CheckResult:
        result = CheckResult(items=len(self.clips))
        path = os.path.join(out_dir, "features.bin")
        try:
            cache = read_feature_cache(path)
        except Exception as exc:  # an unreadable cache fails every clip
            result.fail(f"{path}: unreadable: {exc!r}", result.items)
            return result
        gross = f0_scored = voicing = voicing_scored = 0
        for clip in self.clips:
            entry = cache.get(clip.name)
            if entry is None or len(entry.prosody) != clip.voicing.size:
                result.fail(f"{clip.name}: missing or wrong frame count")
                continue
            g, fs, v, vs = wavgen.pitch_errors(clip, entry.prosody.f0,
                                               entry.prosody.voiced)
            gross, f0_scored = gross + g, f0_scored + fs
            voicing, voicing_scored = voicing + v, voicing_scored + vs
        result.quality = {
            "f0_gross_error_pct": 100.0 * gross / max(f0_scored, 1),
            "voicing_error_pct": 100.0 * voicing / max(voicing_scored, 1)}
        for key, value in result.quality.items():
            if value > self.MAX_ERROR_PCT:
                result.fail(f"{key} = {value:.2f} exceeds "
                            f"{self.MAX_ERROR_PCT}%", 0)
        result.digest = digest_files([path])
        return result

    def report(self, command_seconds, quality) -> dict:
        return {
            "extract_audio_s_per_s": (self.audio_seconds
                                      / _median(command_seconds.get("extract", [])),
                                      "audio_s/s"),
            "f0_gross_error_pct": (quality.get("f0_gross_error_pct", math.nan), "%"),
            "voicing_error_pct": (quality.get("voicing_error_pct", math.nan), "%"),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, IdentifyWorkload,
                                 ExtractWorkload)}


# --- helpers -----------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _digest_if_present(paths) -> CheckResult:
    result = CheckResult()
    try:
        result.digest = digest_files(paths)
    except OSError as exc:
        result.fail(f"set-up output missing: {exc!r}", 0)
    return result


def _read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _decision_error(row, scores_key, decision_key, labels) -> str | None:
    """Why a row's decision is not the earliest argmax of its scores, if not."""
    scores = row.get(scores_key)
    if not isinstance(scores, dict) or not scores:
        return f"no {scores_key}"
    if labels is not None and tuple(scores) != labels:
        return f"{scores_key} labels {list(scores)}"
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in scores.values()):
        return f"non-finite {scores_key}"
    best = max(scores.values())
    earliest = next(label for label, v in scores.items() if v == best)
    if row.get(decision_key) != earliest:
        return f"{decision_key} {row.get(decision_key)!r} is not argmax {earliest!r}"
    return None


def _emotion_average(rows, emotions) -> float:
    """Mean over true emotions of the share identified correctly (%)."""
    shares = []
    for e in emotions:
        truth = [r for r in rows if r["true_emotion"] == e]
        hits = sum(r["identified_emotion"] == e for r in truth)
        shares.append(100.0 * hits / len(truth) if truth else math.nan)
    return sum(shares) / len(shares)


def _speaker_accuracy(rows, decision_key, emotions) -> float:
    """Mean over emotions of the gender-averaged speaker accuracy (%)."""
    row_means = []
    for e in emotions:
        cells = []
        for gender in ("male", "female"):
            group = [r for r in rows
                     if r["true_emotion"] == e and r["gender"] == gender]
            hits = sum(r[decision_key] == r["true_speaker"] for r in group)
            cells.append(100.0 * hits / len(group) if group else math.nan)
        row_means.append(sum(cells) / len(cells))
    return sum(row_means) / len(row_means)
