"""Shared fixtures: synthetic corpora and trained banks at several scales.

The expensive fixtures are session-scoped; tests treat their contents as
read-only. Pipeline fixtures drive the installed CLI in-process so the
tests cover the same entry points a user runs.
"""

import json
import time

import pytest

import emocue
from emocue.cli import main as cli_main
from emocue.recognizer import train_emotion_models, train_speaker_models

# Pass/fail lines recorded by the acceptance tests, echoed after the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def run_cli(*argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command {argv} exited with {code}"


SMALL_FLAGS = ("--num-states", "3", "--num-mixtures", "2",
               "--num-supra-mixtures", "1", "--supra-groups", "1,1,1")
SMALL_SPLIT = ("--train-sentences", "1,2", "--test-sentences", "3,4")
# The library-side RunConfig of SMALL_FLAGS.
SMALL_CONFIG = emocue.RunConfig(num_states=3, num_mixtures=2,
                                num_supra_mixtures=1, supra_groups=(1, 1, 1))


def run_small_pipeline(root, seed=7):
    """Full CLI pass on a small corpus: generate, train, identify, tabulate."""
    corpus_dir = root / "corpus"
    bank_dir = root / "bank"
    eval_dir = root / "eval"
    manifest = corpus_dir / "manifest.tsv"
    features = corpus_dir / "features.bin"
    run_cli("gen-synthetic", "--out-dir", corpus_dir, "--speakers", "3",
            "--emotions", "neutral,angry", "--train-count", "2",
            "--test-count", "2", "--reps", "1", "--separation", "5",
            "--seed", seed)
    for sub in ("train-emotions", "train-speakers", "train-onestage"):
        run_cli(sub, "--manifest", manifest, "--features", features,
                "--bank-dir", bank_dir, *SMALL_FLAGS, *SMALL_SPLIT)
    run_cli("identify", "--manifest", manifest, "--features", features,
            "--bank-dir", bank_dir, "--out", root / "results.jsonl",
            *SMALL_FLAGS, *SMALL_SPLIT)
    run_cli("evaluate", "--results", root / "results.jsonl",
            "--out-dir", eval_dir, "--n-pool", "3")
    run_cli("sweep-alpha", "--manifest", manifest, "--features", features,
            "--bank-dir", bank_dir, "--out", root / "sweep.tsv",
            *SMALL_FLAGS, *SMALL_SPLIT)


@pytest.fixture(scope="session")
def small_pipeline(tmp_path_factory):
    """One completed small CLI run; tests read its outputs."""
    root = tmp_path_factory.mktemp("small_pipeline")
    run_small_pipeline(root)
    return root


@pytest.fixture(scope="session")
def tiny_trained(tmp_path_factory):
    """A small trained bank plus its corpus, built through the library API."""
    synth = emocue.synthesize_corpus(
        num_speakers=3, emotions=("neutral", "angry"), train_sentences=2,
        test_sentences=2, repetitions=1, separation=5.0, seed=11)
    train, test = emocue.split_records(synth.records, synth.protocol)
    bank = emocue.train_model_bank(train, synth.features, SMALL_CONFIG)
    return {"synth": synth, "train": train, "test": test, "bank": bank}


@pytest.fixture(scope="session")
def acceptance_run(tmp_path_factory):
    """Full-scale pipeline: 5 speakers x 6 emotions x 4+4 sentences x 3 reps.

    Runs the complete CLI flow at default model sizes on a well-separated
    corpus and records the wall time for the runtime criterion.
    """
    root = tmp_path_factory.mktemp("acceptance")
    corpus_dir = root / "corpus"
    bank_dir = root / "bank"
    eval_dir = root / "eval"
    manifest = corpus_dir / "manifest.tsv"
    features = corpus_dir / "features.bin"
    started = time.perf_counter()
    run_cli("gen-synthetic", "--out-dir", corpus_dir, "--speakers", "5",
            "--train-count", "4", "--test-count", "4", "--reps", "3",
            "--separation", "5", "--seed", "20260822")
    for sub in ("train-emotions", "train-speakers", "train-onestage"):
        run_cli(sub, "--manifest", manifest, "--features", features,
                "--bank-dir", bank_dir)
    run_cli("identify", "--manifest", manifest, "--features", features,
            "--bank-dir", bank_dir, "--out", root / "results.jsonl")
    run_cli("evaluate", "--results", root / "results.jsonl",
            "--out-dir", eval_dir, "--n-pool", "5")
    run_cli("sweep-alpha", "--manifest", manifest, "--features", features,
            "--bank-dir", bank_dir, "--out", root / "sweep.tsv")
    elapsed = time.perf_counter() - started
    rows = [json.loads(line)
            for line in (root / "results.jsonl").read_text().splitlines()]
    return {"root": root, "elapsed": elapsed, "rows": rows,
            "summary": json.loads((eval_dir / "summary.json").read_text()),
            "sweep_path": root / "sweep.tsv"}


@pytest.fixture(scope="session")
def chance_run():
    """Zero-separation corpus: every generator identical, labels carry nothing."""
    synth = emocue.synthesize_corpus(
        num_speakers=5, emotions=emocue.DEFAULT_EMOTIONS, train_sentences=4,
        test_sentences=4, repetitions=5, separation=0.0, seed=4242)
    train, test = emocue.split_records(synth.records, synth.protocol)
    # Criterion 7 reads two-stage decisions only, so no baseline is trained.
    bank = emocue.ModelBank(
        emotions=tuple(dict.fromkeys(r.emotion for r in train)),
        speakers=tuple(dict.fromkeys(r.speaker for r in train)),
        emotion_models=train_emotion_models(train, synth.features,
                                            SMALL_CONFIG),
        speaker_models=train_speaker_models(train, synth.features,
                                            SMALL_CONFIG),
        one_stage_models={})
    rows = emocue.score_test_set(bank, test, synth.features)
    return {"num_speakers": 5, "rows": rows}
