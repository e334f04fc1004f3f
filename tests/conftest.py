"""Shared fixtures: synthetic corpora and trained banks at several scales.

The expensive fixtures are session-scoped; tests treat their contents as
read-only. Pipeline fixtures drive the installed CLI in-process so the
tests cover the same entry points a user runs.
"""

import json
import time

import pytest
from hypothesis import strategies as st

import emocue
from emocue.cli import main as cli_main
from emocue.recognizer import open_bank, train_role

# Pass/fail lines recorded by the acceptance tests, echoed after the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


def container_parts(data: bytes):
    """(magic, header, payload) of a container file (emocue.container)."""
    head_len = int.from_bytes(data[8:16], "little")
    return data[:8], json.loads(data[16:16 + head_len]), data[16 + head_len:]


def container_bytes(magic: bytes, header, payload: bytes) -> bytes:
    head = json.dumps(header).encode()
    return magic + len(head).to_bytes(8, "little") + head + payload


def edit_container_header(path, edit):
    """Rewrite the container at path with edit(header) applied."""
    magic, header, payload = container_parts(path.read_bytes())
    edit(header)
    path.write_bytes(container_bytes(magic, header, payload))


def damaged_container(original: bytes, data) -> bytes:
    """A container file with damage drawn by hypothesis: one value of its
    JSON header replaced or deleted (the header length kept consistent, so
    the damage reaches the parser), up to three bytes of its magic and
    length field or of its payload overwritten, or the file cut short."""
    magic, header, payload = container_parts(original)
    where = data.draw(st.sampled_from(["header", "frame", "payload",
                                       "length"]), label="where")
    if where == "header":
        path = data.draw(st.sampled_from(list(_json_paths(header))[1:]))
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        replacement = data.draw(st.sampled_from(
            [None, 0, -1, 1.5, True, "x", [], {}, [0.0], "delete"]))
        if replacement == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
        return container_bytes(magic, header, payload)
    if where == "length":
        return original[:data.draw(st.integers(0, len(original)),
                                   label="length")]
    damaged = bytearray(original)
    start = 0 if where == "frame" else len(original) - len(payload)
    end = 16 if where == "frame" else len(original)
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        damaged[data.draw(st.integers(start, end - 1))] = \
            data.draw(st.integers(0, 255))
    return bytes(damaged)


def run_cli(*argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command {argv} exited with {code}"


# The model shapes of a small bank; only train-* takes them.
SMALL_FLAGS = ("--num-states", "3", "--num-mixtures", "2",
               "--num-supra-mixtures", "1", "--num-supra-states", "3")
SMALL_SPLIT = ("--train-sentences", "1,2", "--test-sentences", "3,4")
# The library-side RunConfig of SMALL_FLAGS.
SMALL_CONFIG = emocue.RunConfig(num_states=3, num_mixtures=2,
                                num_supra_mixtures=1, num_supra_states=3)


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
            *SMALL_SPLIT)
    run_cli("evaluate", "--results", root / "results.jsonl",
            "--out-dir", eval_dir, "--n-pool", "3")
    run_cli("sweep-alpha", "--manifest", manifest, "--features", features,
            "--bank-dir", bank_dir, "--out", root / "sweep.tsv", *SMALL_SPLIT)


@pytest.fixture(scope="session")
def small_pipeline(tmp_path_factory):
    """One completed small CLI run; tests read its outputs."""
    root = tmp_path_factory.mktemp("small_pipeline")
    run_small_pipeline(root)
    return root


@pytest.fixture(scope="session")
def tiny_trained(tmp_path_factory):
    """A small bank that train_role wrote for every role, in "directory",
    plus its corpus. "bank" and "features" are what open_bank gives: the
    bank and every utterance's features normalized by its statistics; the
    raw feature cache is "synth".features."""
    synth = emocue.synthesize_corpus(
        num_speakers=3, emotions=("neutral", "angry"), train_sentences=2,
        test_sentences=2, repetitions=1, separation=5.0, seed=11)
    train, test = emocue.split_records(synth.records, synth.protocol)
    directory = tmp_path_factory.mktemp("tiny_bank")
    trained = {role: train_role(role, directory, SMALL_CONFIG, train,
                                synth.features)
               for role in ("emotion", "speaker", "one_stage")}
    bank, features = open_bank(directory, train, synth.records,
                               synth.features)
    return {"synth": synth, "train": train, "test": test, "bank": bank,
            "features": features, "directory": directory, "trained": trained}


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
def chance_run(tmp_path_factory):
    """Zero-separation corpus: every generator identical, labels carry nothing."""
    synth = emocue.synthesize_corpus(
        num_speakers=5, emotions=emocue.DEFAULT_EMOTIONS, train_sentences=4,
        test_sentences=4, repetitions=5, separation=0.0, seed=4242)
    train, test = emocue.split_records(synth.records, synth.protocol)
    directory = tmp_path_factory.mktemp("chance_bank")
    for role in ("emotion", "speaker", "one_stage"):
        train_role(role, directory, SMALL_CONFIG, train, synth.features)
    bank, features = open_bank(directory, train, test, synth.features)
    rows = emocue.score_test_set(bank, test, features)
    return {"num_speakers": 5, "rows": rows}
