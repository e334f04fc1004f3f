"""Command-line tests: exit codes, argument handling and the files each
subcommand leaves behind. The heavy pipeline path itself is exercised by the
session fixture; tests here read its outputs."""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from emocue import RunConfig, cli, evaluation, frontend, hmm, recognizer
from emocue.corpus import load_manifest, split_records, write_manifest
from emocue.errors import CorruptFileError, NumericalUnderflowError
from emocue.frontend import (
    SAMPLE_RATE,
    ProsodicTrack,
    UtteranceFeatures,
    read_feature_cache,
    write_feature_cache,
)

from conftest import (
    SMALL_FLAGS,
    SMALL_SPLIT,
    container_parts,
    edit_container_header,
    run_cli,
)


# The directory holding the emocue package, for fresh interpreters.
SRC_DIR = Path(cli.__file__).resolve().parents[1]


def _python(*args, **env):
    """Run a fresh interpreter that imports emocue from SRC_DIR, with env
    added to the environment."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)


def _write_wav(path, samples):
    scaled = np.clip(np.asarray(samples) * 32767.0, -32768, 32767)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(scaled.astype("<i2").tobytes())


# --- dispatch and exit codes -------------------------------------------------


def test_help_lists_every_subcommand(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("extract", "gen-synthetic", "train-emotions",
                 "train-speakers", "train-onestage", "identify", "evaluate",
                 "sweep-alpha", "ttest"):
        assert name in out


def test_import_loads_numpy_only():
    # scipy alone would add some 27 MB and 0.3 s to every command
    out = _python("-c", """
import sys
before = {name.partition(".")[0] for name in sys.modules}
import emocue, emocue.cli
after = {name.partition(".")[0] for name in sys.modules}
print(*sorted(after - before - set(sys.stdlib_module_names)))
""").stdout.split()
    assert set(out) == {"emocue", "numpy"}


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    code = cli.main(["identify", "--manifest", str(tmp_path / "m.tsv"),
                     "--features", str(tmp_path / "f.bin"),
                     "--bank-dir", str(tmp_path / "bank"),
                     "--out", str(tmp_path / "out.jsonl"), "--alpha", "1.5"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, setting", [
    (["train-emotions", "--em-tol", "nan"], "em_tol"),
    (["train-emotions", "--variance-floor", "nan"], "variance_floor"),
    (["train-emotions", "--variance-floor", "inf"], "variance_floor"),
    (["gen-synthetic", "--separation", "nan"], "separation"),
    (["gen-synthetic", "--separation", "inf"], "separation"),
], ids=["em-tol nan", "variance-floor nan", "variance-floor inf",
        "separation nan", "separation inf"])
def test_non_finite_setting_is_usage_error_naming_it(tmp_path, capsys, argv,
                                                     setting):
    paths = (["--out-dir", str(tmp_path / "out")]
             if argv[0] == "gen-synthetic" else
             ["--manifest", str(tmp_path / "m.tsv"),
              "--features", str(tmp_path / "f.bin"),
              "--bank-dir", str(tmp_path / "bank")])
    assert cli.main([*argv, *paths]) == 1
    assert f"configuration error: {setting} must be finite" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_manifest_is_data_error(tmp_path, capsys):
    code = cli.main(["train-emotions", "--manifest",
                     str(tmp_path / "absent.tsv"),
                     "--features", str(tmp_path / "absent.bin"),
                     "--bank-dir", str(tmp_path / "bank")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_numerical_failures_map_to_exit_3(tmp_path, monkeypatch, capsys):
    def boom(args):
        raise NumericalUnderflowError("no mass anywhere")
    # main() builds its parser after the patch, so the fake handler is bound
    monkeypatch.setattr(cli, "_cmd_evaluate", boom)
    code = cli.main(["evaluate", "--results", str(tmp_path / "r.jsonl"),
                     "--out-dir", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


# --- ttest -------------------------------------------------------------------


def test_ttest_from_summary_stats(capsys):
    run_cli("ttest", "--mean1", "71.58", "--sd1", "7.57",
            "--mean2", "79.92", "--sd2", "6.03", "--n-pool", "50")
    out = capsys.readouterr().out
    assert "t = 6.093" in out
    assert "critical t at 0.05 level = 1.645" in out


def test_ttest_from_raw_samples(capsys):
    run_cli("ttest", "--sample1", "70,72,71", "--sample2", "75,77,76",
            "--n-pool", "6")
    out = capsys.readouterr().out
    assert "sample 1: mean 71.000" in out
    assert "sample 2: mean 76.000" in out
    assert "t = " in out


def test_ttest_incomplete_stats_is_usage_error(capsys):
    code = cli.main(["ttest", "--mean1", "70", "--n-pool", "50"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_ttest_without_any_samples_is_usage_error():
    assert cli.main(["ttest", "--n-pool", "50"]) == 1


def test_ttest_requires_n_pool():
    assert cli.main(["ttest", "--sample1", "1,2", "--sample2", "3,4"]) == 1


@pytest.mark.parametrize("flags, message", [
    (["--sample1", "1,2", "--sample2", "3,nan"],
     "sample_2 value nan is not finite"),
    (["--sample1", "1,inf", "--sample2", "3,4"],
     "sample_1 value inf is not finite"),
    (["--mean1", "1", "--sd1", "-1", "--mean2", "2", "--sd2", "1"],
     "sd_1 must be >= 0, got -1.0"),
    (["--mean1", "1", "--sd1", "1", "--mean2", "nan", "--sd2", "1"],
     "mean_2 must be finite, got nan"),
    (["--mean1", "1", "--sd1", "1", "--mean2", "2", "--sd2", "inf"],
     "sd_2 must be finite, got inf"),
    (["--sample1", "1e308,1e308", "--sample2", "1,2"],
     "sample_1 overflows: its mean or SD is not finite"),
    (["--sample1", "1,2", "--sample2", "1e200,-1e200"],
     "sample_2 overflows: its mean or SD is not finite"),
    (["--mean1", "1", "--sd1", "1e200", "--mean2", "2", "--sd2", "1"],
     "the pooled SD or the mean difference overflows"),
    (["--mean1", "-1e308", "--sd1", "1", "--mean2", "1e308", "--sd2", "1"],
     "the pooled SD or the mean difference overflows"),
], ids=["nan sample", "inf sample", "negative sd", "nan mean", "inf sd",
        "overflowing mean", "overflowing sd", "overflowing pooled sd",
        "overflowing difference"])
def test_ttest_rejects_bad_inputs(capsys, flags, message):
    code = cli.main(["ttest", *flags, "--n-pool", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["ttest", "--sample1", "1,,2", "--sample2", "3,4", "--n-pool", "3"],
     "--sample1 item 2 ('') is not a number"),
    (["ttest", "--sample1", "1,2", "--sample2", "3,4x", "--n-pool", "3"],
     "--sample2 item 2 ('4x') is not a number"),
    (["sweep-alpha", "--manifest", "none.tsv", "--features", "none.bin",
      "--bank-dir", "none", "--out", "sweep.tsv", "--alphas", ",0.5"],
     "--alphas item 1 ('') is not a number"),
    (["sweep-alpha", "--manifest", "none.tsv", "--features", "none.bin",
      "--bank-dir", "none", "--out", "sweep.tsv", "--alphas", ""],
     "--alphas item 1 ('') is not a number"),
], ids=["empty sample item", "bad sample item", "empty weight",
        "empty weight list"])
def test_list_flag_names_its_bad_item(capsys, argv, message):
    # the list is read before any file, so the missing files never matter
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


def _list_fault_argv(command, pipeline, out):
    """command's argv on the small pipeline's files, writing to out."""
    data = ["--manifest", str(pipeline / "corpus/manifest.tsv"),
            "--features", str(pipeline / "corpus/features.bin")]
    if command == "gen-synthetic":
        return [command, "--out-dir", str(out), *_TINY_GEN[:2], *_TINY_GEN[4:]]
    if command == "ttest":
        return [command, "--sample1", "1,2", "--sample2", "3,4",
                "--n-pool", "3"]
    if command in ("identify", "sweep-alpha"):
        return [command, *data, "--bank-dir", str(pipeline / "bank"),
                "--out", str(out)]
    return [command, *data, "--bank-dir", str(out), *SMALL_FLAGS]


@pytest.mark.parametrize("command, flag, text, where", [
    ("train-emotions", "--train-sentences", "1,,2", "--train-sentences item 2"),
    ("train-speakers", "--train-sentences", "1,x", "--train-sentences item 2"),
    ("train-onestage", "--test-sentences", ",3", "--test-sentences item 1"),
    ("identify", "--test-sentences", "3,4.5", "--test-sentences item 2"),
    ("identify", "--ids", "a,,b", "--ids item 2"),
    ("sweep-alpha", "--alphas", "0.1,,0.2", "--alphas item 2"),
    ("sweep-alpha", "--alphas", "0.1,x", "--alphas item 2"),
    ("sweep-alpha", "--train-sentences", "1,2,", "--train-sentences item 3"),
    ("ttest", "--sample1", ",1", "--sample1 item 1"),
    ("ttest", "--sample2", "3,four", "--sample2 item 2"),
    ("gen-synthetic", "--emotions", "neutral,,angry", "--emotions item 2"),
    ("train-emotions", "file", "1,,2", ":2: bad value for train_sentences: "
                                       "list item 2"),
    ("identify", "file", "1,x", ":2: bad value for train_sentences: "
                                "list item 2"),
])
def test_every_list_input_refuses_a_bad_item(small_pipeline, tmp_path, capsys,
                                             command, flag, text, where):
    # an empty or unparsable item is a usage error naming the flag, or the
    # config file's line, and the item's position; nothing is written
    out = tmp_path / "out"
    argv = _list_fault_argv(command, small_pipeline, out)
    if flag == "file":
        config = tmp_path / "run.cfg"
        config.write_text(f"test_sentences = 3,4\ntrain_sentences = {text}\n")
        argv += ["--config", str(config)]
        where = f"{config}{where}"
    else:
        argv += [flag, text]   # the last value of a flag is the one read
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"configuration error: {where} (")
    assert not out.exists()




@pytest.mark.parametrize("flags, means", [
    (["--mean1", "1", "--sd1", "1", "--mean2", "-1e5", "--sd2", "1"],
     ("1.000", "-100000.000")),
    (["--sample1", "-1,2", "--sample2", "-1e1,-.5"], ("0.500", "-5.250")),
], ids=["stats", "samples"])
def test_ttest_takes_negative_values(capsys, flags, means):
    assert cli.main(["ttest", *flags, "--n-pool", "3"]) == 0
    out = capsys.readouterr().out
    for k, mean in enumerate(means, start=1):
        assert f"sample {k}: mean {mean}," in out


# --- gen-synthetic and config layering ---------------------------------------


_TINY_GEN = ("--speakers", "1", "--emotions", "neutral", "--train-count", "1",
             "--test-count", "1", "--reps", "1", "--separation", "1")


def test_gen_synthetic_writes_loadable_corpus(tmp_path):
    run_cli("gen-synthetic", "--out-dir", tmp_path, *_TINY_GEN, "--seed", "3")
    records = load_manifest(tmp_path / "manifest.tsv")
    cache = read_feature_cache(tmp_path / "features.bin")
    assert {r.id for r in records} == set(cache)
    assert all(r.audio is None for r in records)


def test_gen_synthetic_rejects_unknown_emotions(tmp_path, capsys):
    code = cli.main(["gen-synthetic", "--out-dir", str(tmp_path / "corpus"),
                     "--emotions", "neutral,calm,excited"])
    assert code == 1
    assert "'calm', 'excited'" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


_SPLIT_SETTINGS = {"train_sentences", "test_sentences"}
_TRAIN_SETTINGS = {"num_states", "num_mixtures", "num_supra_mixtures",
                   "num_supra_states", *_SPLIT_SETTINGS, "variance_floor",
                   "em_tol", "em_max_iters"}
# The RunConfig fields each command reads, and so takes flags for.
COMMAND_SETTINGS = {
    "extract": set(), "gen-synthetic": {"seed"},
    "train-emotions": _TRAIN_SETTINGS, "train-speakers": _TRAIN_SETTINGS,
    "train-onestage": _TRAIN_SETTINGS,
    "identify": {*_SPLIT_SETTINGS, "alpha", "length_normalize"},
    "evaluate": set(), "sweep-alpha": _SPLIT_SETTINGS, "ttest": set()}
# A value off the default for every field, and its flag.
_OFF_DEFAULT = {
    "alpha": (0.25, ["--alpha", "0.25"]),
    "num_states": (3, ["--num-states", "3"]),
    "num_mixtures": (2, ["--num-mixtures", "2"]),
    "num_supra_mixtures": (1, ["--num-supra-mixtures", "1"]),
    "num_supra_states": (2, ["--num-supra-states", "2"]),
    "train_sentences": ((1, 2), ["--train-sentences", "1,2"]),
    "test_sentences": ((3, 4), ["--test-sentences", "3,4"]),
    "variance_floor": (1e-3, ["--variance-floor", "1e-3"]),
    "em_tol": (1e-4, ["--em-tol", "1e-4"]),
    "em_max_iters": (5, ["--em-max-iters", "5"]),
    "seed": (9, ["--seed", "9"]),
    "length_normalize": (True, ["--length-normalize"])}


def _subcommands():
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_config_field_has_a_flag():
    names = {f.name for f in dataclasses.fields(RunConfig)}
    default = RunConfig()
    assert set(_OFF_DEFAULT) == names
    assert all(getattr(default, name) != value
               for name, (value, _) in _OFF_DEFAULT.items())
    taken = {command: {a.dest for a in sub._actions} & names
             for command, sub in _subcommands().items()}
    assert taken == COMMAND_SETTINGS
    assert set().union(*taken.values()) == names
    for command, sub in _subcommands().items():
        if not taken[command]:
            continue
        required = [arg for a in sub._actions if a.required
                    for arg in (a.option_strings[0], "x")]
        args = sub.parse_args([*required, *(
            arg for name in sorted(taken[command])
            for arg in _OFF_DEFAULT[name][1])])
        got = cli._config_from(args)
        assert got == dataclasses.replace(default, **{
            name: _OFF_DEFAULT[name][0] for name in taken[command]}), command


@pytest.mark.parametrize("argv", [
    ["sweep-alpha", "--alpha", "0.3"],
    ["identify", "--em-max-iters", "5"],
    ["identify", "--num-states", "3"],
    ["train-emotions", "--alpha", "0.3"],
    ["gen-synthetic", "--num-supra-states", "12"],
], ids=" ".join)
def test_flag_a_command_does_not_read_is_refused(small_pipeline, tmp_path,
                                                 capsys, argv):
    command, flag = argv[:2]
    if command == "gen-synthetic":
        paths = ["--out-dir", str(tmp_path / "corpus"), *_TINY_GEN]
    else:
        paths = ["--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                 "--features", str(small_pipeline / "corpus/features.bin"),
                 *SMALL_SPLIT]
        paths += (["--bank-dir", str(tmp_path / "bank"), *SMALL_FLAGS]
                  if command.startswith("train-") else
                  ["--bank-dir", str(small_pipeline / "bank"),
                   "--out", str(tmp_path / "out")])
    assert cli.main([*argv, *paths]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, name", [("identify", "results.jsonl"),
                                           ("sweep-alpha", "sweep.tsv")])
def test_scoring_reads_model_shapes_from_the_bank(small_pipeline, tmp_path,
                                                  command, name):
    # one experiment file for every command: scoring ignores its shape, EM
    # and seed settings, so the small 3-state bank scores as with no file
    config = tmp_path / "run.cfg"
    config.write_text("num_states = 9\nnum_mixtures = 10\n"
                      "num_supra_states = 9\nem_max_iters = 1\nseed = 3\n"
                      "train_sentences = 1,2\ntest_sentences = 3,4\n")
    run_cli(command, "--manifest", small_pipeline / "corpus/manifest.tsv",
            "--features", small_pipeline / "corpus/features.bin",
            "--bank-dir", small_pipeline / "bank", "--out", tmp_path / name,
            "--config", config)
    assert (tmp_path / name).read_bytes() == \
        (small_pipeline / name).read_bytes()


def test_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = 3  # \xff\n")
    code = cli.main(["gen-synthetic", "--out-dir", str(tmp_path / "corpus"),
                     "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err == (f"configuration error: {cfg}: not "
                                       f"UTF-8 text (invalid start byte)\n")
    assert not (tmp_path / "corpus").exists()


def test_seed_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    run_cli("gen-synthetic", "--out-dir", tmp_path / "a", *_TINY_GEN,
            "--seed", "3")
    run_cli("gen-synthetic", "--out-dir", tmp_path / "b", *_TINY_GEN,
            "--config", cfg)
    run_cli("gen-synthetic", "--out-dir", tmp_path / "c", *_TINY_GEN,
            "--config", cfg, "--seed", "4")
    run_cli("gen-synthetic", "--out-dir", tmp_path / "d", *_TINY_GEN,
            "--seed", "4")
    features = {k: (tmp_path / k / "features.bin").read_bytes()
                for k in "abcd"}
    assert features["a"] == features["b"]   # file value used
    assert features["c"] == features["d"]   # flag beats the file
    assert features["a"] != features["c"]


# --- extract -----------------------------------------------------------------


def test_extract_builds_feature_cache(tmp_path):
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    _write_wav(tmp_path / "tone.wav", 0.4 * np.sin(2 * np.pi * 150.0 * t))
    (tmp_path / "manifest.tsv").write_text(
        "id\tspeaker\tgender\temotion\tsentence\trepetition\taudio\n"
        "u1\ts1\tmale\tneutral\t1\t1\ttone.wav\n")
    run_cli("extract", "--manifest", tmp_path / "manifest.tsv",
            "--out", tmp_path / "features.bin")
    cache = read_feature_cache(tmp_path / "features.bin")
    assert set(cache) == {"u1"}
    assert np.asarray(cache["u1"].features).shape[0] == \
        cache["u1"].prosody.f0.size


def test_extract_is_thread_invariant(tmp_path):
    # the mel and DCT products must round alike at any BLAS thread count
    rng = np.random.default_rng(4)
    rows = []
    for i, seconds in enumerate((0.5, 1.3, 2.1)):
        t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
        hz = 110.0 + 60.0 * i + 40.0 * t
        _write_wav(tmp_path / f"c{i}.wav",
                   0.3 * np.sin(2 * np.pi * np.cumsum(hz) / SAMPLE_RATE)
                   + 0.02 * rng.standard_normal(t.size))
        rows.append(f"u{i}\ts1\tmale\tneutral\t1\t{i + 1}\tc{i}.wav\n")
    (tmp_path / "manifest.tsv").write_text(
        "id\tspeaker\tgender\temotion\tsentence\trepetition\taudio\n"
        + "".join(rows))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"features{threads}.bin"
        _python("-m", "emocue.cli", "extract",
                "--manifest", str(tmp_path / "manifest.tsv"), "--out", str(out),
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.append(out.read_bytes())
    assert len(read_feature_cache(tmp_path / "features1.bin")) == 3
    assert outputs[0] == outputs[1]
    # nor may the number of CPUs the frontend splits its rows over; on one
    # CPU it starts no thread
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no os.sched_setaffinity for a one-CPU run")
    out = tmp_path / "features_one_cpu.bin"
    run = _python("-c", f"""
import os, sys, threading
os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})
from emocue import cli
code = cli.main(sys.argv[1:])
print(threading.active_count())
sys.exit(code)
""", "extract", "--manifest", str(tmp_path / "manifest.tsv"), "--out", str(out))
    assert run.stdout.split()[-1] == "1"
    assert out.read_bytes() == outputs[0]


def test_extract_refuses_a_record_without_audio_before_reading_any(
        tmp_path, monkeypatch, capsys):
    # a missing audio path is reported before a broken WAV, and before any
    # clip is analysed
    _write_wav(tmp_path / "c1.wav", np.zeros(SAMPLE_RATE))
    (tmp_path / "broken.wav").write_bytes(b"")
    (tmp_path / "manifest.tsv").write_text(
        "id\tspeaker\tgender\temotion\tsentence\trepetition\taudio\n"
        "u1\ts1\tmale\tneutral\t1\t1\tc1.wav\n"
        "u2\ts1\tmale\tneutral\t1\t2\tbroken.wav\n"
        "u3\ts1\tmale\tneutral\t1\t3\t-\n")
    calls = []
    monkeypatch.setattr(cli, "load_audio", lambda path: calls.append(path))
    monkeypatch.setattr(cli, "analyze_clip", lambda clip: calls.append(clip))
    code = cli.main(["extract", "--manifest", str(tmp_path / "manifest.tsv"),
                     "--out", str(tmp_path / "features.bin")])
    assert code == 2
    assert "u3: no audio path; nothing to extract" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "features.bin").exists()


def test_only_the_frontend_starts_threads(small_pipeline, tmp_path):
    corpus_dir, bank = small_pipeline / "corpus", tmp_path / "bank"
    data = ["--manifest", str(corpus_dir / "manifest.tsv"),
            "--features", str(corpus_dir / "features.bin"),
            "--bank-dir", str(bank), *SMALL_SPLIT]
    commands = [["gen-synthetic", "--out-dir", str(tmp_path / "corpus"),
                 "--speakers", "2", "--emotions", "neutral,angry"]]
    commands += [[sub, *data, *SMALL_FLAGS] for sub in
                 ("train-emotions", "train-speakers", "train-onestage")]
    commands += [["identify", *data, "--out", str(tmp_path / "r.jsonl")],
                 ["evaluate", "--results", str(tmp_path / "r.jsonl"),
                  "--out-dir", str(tmp_path / "eval"), "--n-pool", "3"],
                 ["sweep-alpha", *data, "--out", str(tmp_path / "s.tsv")]]
    out = _python("-c", """
import json, sys, threading
started = []
start = threading.Thread.start
def counted(thread):
    started.append(thread.name)
    start(thread)
threading.Thread.start = counted
before = threading.active_count()
from emocue import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(before, threading.active_count(), started)
""", json.dumps(commands)).stdout.splitlines()
    assert out[-1] == "1 1 []"


def test_extract_rejects_cached_only_manifest(tmp_path, capsys):
    (tmp_path / "manifest.tsv").write_text(
        "id\tspeaker\tgender\temotion\tsentence\trepetition\taudio\n"
        "u1\ts1\tmale\tneutral\t1\t1\t-\n")
    code = cli.main(["extract", "--manifest", str(tmp_path / "manifest.tsv"),
                     "--out", str(tmp_path / "features.bin")])
    assert code == 2
    assert "nothing to extract" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"", "WAV file is cut short"),
    (b"RIFF\x00\x00", "WAV file is cut short"),
    (9601, "WAV data is cut short inside a sample"),
    (9600, "WAV data is cut short: 4800 of 16000 samples"),
], ids=["empty", "cut header", "odd data", "whole samples"])
def test_extract_names_a_damaged_wav(tmp_path, capsys, content, message):
    wav = tmp_path / "clip.wav"
    if isinstance(content, int):
        # a data chunk of 16000 samples cut to its first content bytes
        _write_wav(wav, np.zeros(SAMPLE_RATE))
        data = wav.read_bytes()
        wav.write_bytes(data[:44 + content])
    else:
        wav.write_bytes(content)
    (tmp_path / "manifest.tsv").write_text(
        "id\tspeaker\tgender\temotion\tsentence\trepetition\taudio\n"
        "u1\ts1\tmale\tneutral\t1\t1\tclip.wav\n")
    code = cli.main(["extract", "--manifest", str(tmp_path / "manifest.tsv"),
                     "--out", str(tmp_path / "features.bin")])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {wav}: {message}\n"
    assert not (tmp_path / "features.bin").exists()


@pytest.mark.parametrize("name, argv", [
    ("manifest.tsv", ["extract", "--manifest", "{path}", "--out", "{out}"]),
    ("results.jsonl", ["evaluate", "--results", "{path}", "--out-dir",
                       "{out}"]),
], ids=["manifest", "results"])
def test_text_input_that_is_not_utf8_is_named(tmp_path, capsys, name, argv):
    path, out = tmp_path / name, tmp_path / "out"
    path.write_bytes(b"id\tspeaker\xff\n")
    code = cli.main([a.format(path=path, out=out) for a in argv])
    assert code == 2
    assert capsys.readouterr().err == (f"data error: {path}: not UTF-8 text "
                                       f"(invalid start byte)\n")
    assert not out.exists()


# --- pipeline outputs --------------------------------------------------------


def test_results_rows_carry_all_fields(small_pipeline):
    rows = [json.loads(line) for line in
            (small_pipeline / "results.jsonl").read_text().splitlines()]
    assert rows
    want = {"id", "true_speaker", "true_emotion", "gender",
            "identified_emotion", "identified_speaker", "one_stage_speaker",
            "emotion_scores", "speaker_scores"}
    for row in rows:
        assert set(row) == want
        assert set(row["emotion_scores"]) == {"neutral", "angry"}


def test_evaluate_writes_tables_and_summary(small_pipeline):
    eval_dir = small_pipeline / "eval"
    assert (eval_dir / "confusion.tsv").exists()
    assert (eval_dir / "performance_two_stage.tsv").exists()
    assert (eval_dir / "performance_one_stage.tsv").exists()
    summary = json.loads((eval_dir / "summary.json").read_text())
    assert 0.0 <= summary["emotion_average_diagonal"] <= 100.0
    assert 0.0 <= summary["two_stage"]["mean"] <= 100.0
    assert summary["one_stage"] is not None
    assert summary["t_critical_005"] == 1.645
    assert summary["t_n_pool"] == 3
    lines = (eval_dir / "confusion.tsv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per emotion


def test_sweep_covers_default_grid(small_pipeline):
    lines = (small_pipeline / "sweep.tsv").read_text().splitlines()
    assert len(lines) == 12
    alphas = [line.split("\t")[0] for line in lines[1:]]
    assert alphas == [f"{0.1 * i:.1f}" for i in range(11)]


def test_sweep_labels_custom_weights_as_given(small_pipeline, tmp_path):
    # each row's label reads back as its weight; one decimal would write
    # 0.2, 0.3 and 0.1 here
    out = tmp_path / "sweep.tsv"
    run_cli("sweep-alpha", "--manifest", small_pipeline / "corpus/manifest.tsv",
            "--features", small_pipeline / "corpus/features.bin",
            "--bank-dir", small_pipeline / "bank", "--out", out,
            "--alphas", "0.25,0.35,0.05", *SMALL_SPLIT)
    labels = [line.split("\t")[0]
              for line in out.read_text().splitlines()[1:]]
    assert labels == ["0.25", "0.35", "0.05"]


def test_identify_selects_requested_ids(small_pipeline, tmp_path):
    rows = [json.loads(line) for line in
            (small_pipeline / "results.jsonl").read_text().splitlines()]
    wanted = [rows[1]["id"], rows[0]["id"]]
    out = tmp_path / "subset.jsonl"
    run_cli("identify", "--manifest", small_pipeline / "corpus/manifest.tsv",
            "--features", small_pipeline / "corpus/features.bin",
            "--bank-dir", small_pipeline / "bank", "--out", out,
            "--ids", ",".join(wanted), *SMALL_SPLIT)
    subset = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in subset] == wanted


def test_identify_rejects_unknown_id(small_pipeline, tmp_path, capsys):
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--out", str(tmp_path / "out.jsonl"),
                     "--ids", "nope", *SMALL_SPLIT])
    assert code == 2
    assert "unknown utterance ids" in capsys.readouterr().err


@pytest.mark.parametrize("ids, position", [("", 1), (",", 1), ("a,,b", 2)],
                         ids=["empty", "comma", "gap"])
def test_identify_rejects_ids_that_name_no_id(small_pipeline, tmp_path,
                                              capsys, ids, position):
    # an explicitly empty list, or an empty item, is a usage error: it never
    # falls back to the default test split
    out = tmp_path / "out.jsonl"
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--out", str(out), "--ids", ids, *SMALL_SPLIT])
    assert code == 1
    assert capsys.readouterr().err == \
        f"configuration error: --ids item {position} ('') is not a name\n"
    assert not out.exists()


def test_identify_rejects_repeated_ids(small_pipeline, tmp_path, capsys):
    uid = json.loads((small_pipeline / "results.jsonl").read_text()
                     .splitlines()[0])["id"]
    out = tmp_path / "out.jsonl"
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--out", str(out), "--ids", f"{uid},{uid}",
                     *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == \
        f"data error: repeated utterance ids: [{uid!r}]\n"
    assert not out.exists()


def test_a_feature_cache_lacking_a_read_record_exits_2(small_pipeline,
                                                       tmp_path, capsys):
    manifest = small_pipeline / "corpus/manifest.tsv"
    records = load_manifest(manifest)
    missing = next(r.id for r in records if r.sentence == 2)
    unread, kept = [r.id for r in records if r.sentence == 4][:2]
    full = read_feature_cache(small_pipeline / "corpus/features.bin")
    bank = ["--bank-dir", str(small_pipeline / "bank")]
    for gone, command, extra in (
            (missing, "train-emotions",
             ["--bank-dir", str(tmp_path / "bank"), *SMALL_FLAGS]),
            (missing, "identify", [*bank, "--out", str(tmp_path / "a.jsonl")]),
            (unread, "sweep-alpha", [*bank, "--out", str(tmp_path / "a.tsv")])):
        features = tmp_path / "features.bin"
        write_feature_cache(features, {uid: utt for uid, utt in full.items()
                                       if uid != gone})
        code = cli.main([command, "--manifest", str(manifest),
                         "--features", str(features), *extra, *SMALL_SPLIT])
        assert code == 2, command
        assert capsys.readouterr().err == (
            f"data error: {features}: feature cache is missing 1 utterances "
            f"(first: {gone!r})\n")
    assert not (tmp_path / "bank").exists()
    # identify reads the train split and the utterances it is asked for,
    # not the rest of the manifest
    out = tmp_path / "one.jsonl"
    assert cli.main(["identify", "--manifest", str(manifest),
                     "--features", str(features), *bank, "--out", str(out),
                     "--ids", kept, *SMALL_SPLIT]) == 0
    assert [json.loads(line)["id"]
            for line in out.read_text().splitlines()] == [kept]


def test_identify_rejects_non_finite_frame(small_pipeline, tmp_path, capsys,
                                          monkeypatch):
    uid = json.loads((small_pipeline / "results.jsonl").read_text()
                     .splitlines()[0])["id"]
    cache = read_feature_cache(small_pipeline / "corpus/features.bin")
    vectors = np.array(cache[uid].features)
    vectors[4, 2] = np.nan
    cache[uid] = cache[uid]._replace(features=vectors)
    # the writer refuses the frame; write the cache another writer might
    monkeypatch.setattr(frontend, "_check_finite", lambda *args: None)
    write_feature_cache(tmp_path / "features.bin", cache)
    monkeypatch.undo()
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(tmp_path / "features.bin"),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--out", str(tmp_path / "out.jsonl"), "--ids", uid,
                     *SMALL_SPLIT])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "frame 4 " in err and "not finite" in err
    assert repr(uid) in err


def _score_with_short_utterance(small_pipeline, tmp_path, command, out):
    """Run command on a copy of the feature cache in which one test
    utterance is cut to 2 frames, which fit no path through the 3-state
    models. Returns (exit code, the cut cache, the cut utterance's id)."""
    manifest = small_pipeline / "corpus/manifest.tsv"
    short = next(r.id for r in load_manifest(manifest) if r.sentence == 3)
    cache = read_feature_cache(small_pipeline / "corpus/features.bin")
    features, track = cache[short]
    cache[short] = UtteranceFeatures(
        features=features[:2],
        prosody=ProsodicTrack(f0=track.f0[:2],
                              log_energy=track.log_energy[:2]))
    cut = tmp_path / "features.bin"
    write_feature_cache(cut, cache)
    code = cli.main([command, "--manifest", str(manifest),
                     "--features", str(cut),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--out", str(out), *SMALL_SPLIT])
    return code, cut, short


def test_identify_names_utterance_that_fails_scoring(small_pipeline, tmp_path,
                                                     capsys):
    out = tmp_path / "out.jsonl"
    code, cut, short = _score_with_short_utterance(small_pipeline, tmp_path,
                                                   "identify", out)
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "no left-to-right path" in err
    assert str(cut) in err and repr(short) in err
    assert not out.exists()


def test_sweep_names_utterance_that_fails_scoring(small_pipeline, tmp_path,
                                                  capsys):
    out = tmp_path / "sweep.tsv"
    code, cut, short = _score_with_short_utterance(small_pipeline, tmp_path,
                                                   "sweep-alpha", out)
    assert code == 3
    assert capsys.readouterr().err == (
        f"numerical failure: {cut}: utterance {short!r}: no left-to-right "
        f"path through 3 states fits 2 frames\n")
    assert not out.exists()


def test_sweep_rejects_repeated_weight(small_pipeline, tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    code = cli.main([
        "sweep-alpha", "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
        "--features", str(small_pipeline / "corpus/features.bin"),
        "--bank-dir", str(small_pipeline / "bank"), *SMALL_SPLIT,
        "--out", str(out), "--alphas", "0.5,0.5"])
    assert code == 1
    assert capsys.readouterr().err == \
        "configuration error: repeated fusion weights: [0.5]\n"
    assert not out.exists()


@pytest.mark.parametrize("alphas", ["2,-1", "0.5,nan", "0.5,inf"])
def test_sweep_rejects_weights_outside_unit_interval(small_pipeline, tmp_path,
                                                     capsys, alphas):
    flags = ["--manifest", str(small_pipeline / "corpus/manifest.tsv"),
             "--features", str(small_pipeline / "corpus/features.bin"),
             "--bank-dir", str(small_pipeline / "bank"), *SMALL_SPLIT]
    out = tmp_path / "sweep.tsv"
    code = cli.main(["sweep-alpha", *flags, "--out", str(out),
                     "--alphas", alphas])
    err = capsys.readouterr().err
    assert not out.exists()
    # identify refuses an out-of-range weight with the same error and code
    identify_code = cli.main(["identify", *flags, "--alpha", "2",
                              "--out", str(tmp_path / "out.jsonl")])
    assert code == identify_code == 1
    assert "alpha must lie in [0, 1]" in err
    assert "alpha must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("relabel, message", [
    ({"angry": None}, "emotions without test utterances: ['angry']"),
    ({"angry": "sad"}, "no models for test emotions ['sad']"),
], ids=["missing", "unknown"])
def test_sweep_names_the_manifest_for_a_test_split_label_fault(
        small_pipeline, tmp_path, capsys, monkeypatch, relabel, message):
    # the test split lacks a bank emotion, or holds sentence 4 of one under
    # an emotion the bank lacks: a data error naming the manifest, raised
    # before any scoring
    (old, new), = relabel.items()
    records = []
    for r in load_manifest(small_pipeline / "corpus/manifest.tsv"):
        if r.emotion == old and r.sentence >= (3 if new is None else 4):
            if new is None:
                continue
            r = dataclasses.replace(r, emotion=new)
        records.append(r)
    manifest = tmp_path / "manifest.tsv"
    write_manifest(records, manifest)
    monkeypatch.setattr(hmm.ModelStack, "forward_and_viterbi", None)
    out = tmp_path / "sweep.tsv"
    code = cli.main(["sweep-alpha", "--manifest", str(manifest),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--out", str(out), *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {manifest}: {message}\n"
    assert not out.exists()


def test_evaluate_names_the_results_for_a_label_outside_the_bank(
        small_pipeline, tmp_path, capsys):
    # results scored on a neutral-only bank, with angry truths
    path = tmp_path / "results.jsonl"
    with open(path, "w") as fh:
        for line in (small_pipeline / "results.jsonl").read_text().splitlines():
            row = json.loads(line)
            row["emotion_scores"] = {"neutral": row["emotion_scores"]["neutral"]}
            row["identified_emotion"] = "neutral"
            fh.write(json.dumps(row) + "\n")
    code = cli.main(["evaluate", "--results", str(path),
                     "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: result labels ")
    assert "outside ('neutral',)" in err
    assert not (tmp_path / "eval").exists()


def test_zero_likelihood_fit_in_a_stacked_pass_exits_3(small_pipeline,
                                                        tmp_path, monkeypatch,
                                                        capsys):
    # the second of six stacked speaker fits starts 1e5 away from its frames
    # with variances of 1e-300, so every squared distance over a variance
    # overflows: the pass stops with the message a lone fit gives, and no
    # bank is written
    seeded = []
    stack = hmm.init_model_stack

    def far_second(sequence_lists, *args, **kwargs):
        models = stack(sequence_lists, *args, **kwargs)
        seeded.extend(models)
        model = models[1]
        models[1] = hmm.AcousticModel(model.transitions, model.weights,
                                      model.means + 1e5,
                                      np.full_like(model.variances, 1e-300))
        return models

    monkeypatch.setattr(hmm, "init_model_stack", far_second)
    code = cli.main([
        "train-speakers",
        "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
        "--features", str(small_pipeline / "corpus/features.bin"),
        "--bank-dir", str(tmp_path / "bank"), *SMALL_FLAGS, *SMALL_SPLIT])
    assert code == 3 and len(seeded) == 6
    assert capsys.readouterr().err == ("numerical failure: sequence has zero "
                                       "likelihood under the model\n")
    assert not (tmp_path / "bank").exists()


def test_train_reports_em_cap_and_records_training(small_pipeline, tmp_path,
                                                   capsys):
    flags = ["--manifest", str(small_pipeline / "corpus/manifest.tsv"),
             "--features", str(small_pipeline / "corpus/features.bin"),
             "--bank-dir", str(tmp_path / "bank"), *SMALL_FLAGS, *SMALL_SPLIT]
    # one EM pass never gets to test convergence
    assert cli.main(["train-emotions", *flags, "--em-max-iters", "1"]) == 0
    assert cli.main(["train-onestage", *flags]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == ("4 of 4 model fits stopped at --em-max-iters 1 "
                      "without converging")
    assert err[1].endswith("of 3 model fits stopped at --em-max-iters 40 "
                           "without converging")
    _, header, _ = container_parts((tmp_path / "bank/bank.bin").read_bytes())
    assert [entry["role"] for entry in header["models"]] == \
        ["emotion"] * 4 + ["one_stage"] * 3
    for entry in header["models"]:
        training = entry["training"]
        assert set(training) == {"iterations", "converged", "log_likelihood"}
        assert isinstance(training["log_likelihood"], float)
        if entry["role"] == "emotion":
            assert training == {**training, "iterations": 1,
                                "converged": False}
        else:
            assert 1 <= training["iterations"] <= 40
    # the bank the small pipeline trained records every model
    _, pipeline, _ = container_parts(
        (small_pipeline / "bank/bank.bin").read_bytes())
    assert [entry["role"] for entry in pipeline["models"]] == \
        ["emotion"] * (2 * 2) + ["speaker"] * (3 * 2) + ["one_stage"] * 3
    assert all(entry["training"] is not None for entry in pipeline["models"])
    assert [p.name for p in (small_pipeline / "bank").iterdir()] == \
        ["bank.bin"]


def test_evaluate_refuses_n_pool_below_one_as_ttest_does(small_pipeline,
                                                         tmp_path, capsys):
    assert cli.main(["ttest", "--sample1", "70,72", "--sample2", "75,77",
                     "--n-pool", "0"]) == 1
    ttest_err = capsys.readouterr().err
    code = cli.main(["evaluate", "--results",
                     str(small_pipeline / "results.jsonl"),
                     "--out-dir", str(tmp_path / "eval"), "--n-pool", "0"])
    assert code == 1
    assert capsys.readouterr().err == ttest_err == \
        "configuration error: n_pool must be >= 1, got 0\n"
    assert not (tmp_path / "eval").exists()
    rows = recognizer.read_results(small_pipeline / "results.jsonl")
    with pytest.raises(ValueError, match="^n_pool must be >= 1, got 0$"):
        evaluation.evaluate(rows, 0)


def test_evaluate_rejects_corrupt_results(tmp_path, capsys):
    bad = tmp_path / "results.jsonl"
    bad.write_text('{"ok": 1}\nnot json\n')
    code = cli.main(["evaluate", "--results", str(bad),
                     "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("damage, message", [
    (lambda row: [1, 2], "must be a JSON object"),
    (lambda row: {k: v for k, v in row.items() if k != "true_speaker"},
     "fields ['true_speaker']"),
    (lambda row: {**row, "identified_emotion": ["angry"]},
     "fields ['identified_emotion']"),
    (lambda row: {**row, "one_stage_speaker": None},
     "fields ['one_stage_speaker']"),
], ids=["not an object", "missing field", "mistyped field",
        "null one-stage decision"])
def test_evaluate_rejects_malformed_rows(small_pipeline, tmp_path, capsys,
                                         damage, message):
    lines = (small_pipeline / "results.jsonl").read_text().splitlines()
    lines[1] = json.dumps(damage(json.loads(lines[1])))
    path = tmp_path / "results.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["evaluate", "--results", str(path),
                     "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{path}:2: " in err and message in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("keep, message", [
    (lambda row: row["true_emotion"] != "angry",
     "labels never appear as truth: ['angry']"),
    (lambda row: row["gender"] != "female",
     "no utterances for groups [('neutral', 'female'), ('angry', 'female')]"),
], ids=["emotion", "gender"])
def test_evaluate_refuses_results_missing_a_group(small_pipeline, tmp_path,
                                                  capsys, keep, message):
    rows = [json.loads(line) for line in
            (small_pipeline / "results.jsonl").read_text().splitlines()]
    path = tmp_path / "results.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows
                            if keep(row)))
    code = cli.main(["evaluate", "--results", str(path),
                     "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["train-emotions", "train-speakers",
                                     "train-onestage"])
def test_train_refuses_an_empty_train_split(small_pipeline, tmp_path, capsys,
                                            command):
    # the small corpus has sentences 1-4, so sentence 5 selects nothing
    manifest = small_pipeline / "corpus/manifest.tsv"
    code = cli.main([command, "--manifest", str(manifest),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(tmp_path / "bank"), *SMALL_FLAGS,
                     "--train-sentences", "5", "--test-sentences", "1,2,3,4"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{manifest}: the train split selects no utterance" in err
    assert not (tmp_path / "bank" / "bank.bin").exists()


def test_train_speakers_names_an_empty_cell(small_pipeline, tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    write_manifest([r for r in load_manifest(small_pipeline /
                                             "corpus/manifest.tsv")
                    if (r.speaker, r.emotion) != ("spk01", "angry")
                    or r.sentence > 2], manifest)
    code = cli.main(["train-speakers", "--manifest", str(manifest),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(tmp_path / "bank"), *SMALL_FLAGS,
                     *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: {manifest}: the train split has no utterance of "
        f"speaker 'spk01' in emotion 'angry'\n")
    assert not (tmp_path / "bank").exists()


@pytest.mark.parametrize("command", ["train-emotions", "train-speakers",
                                     "train-onestage"])
def test_train_names_an_utterance_shorter_than_the_states(small_pipeline,
                                                          tmp_path, capsys,
                                                          command):
    manifest = small_pipeline / "corpus/manifest.tsv"
    short = next(r.id for r in load_manifest(manifest) if r.sentence == 2)
    cache = read_feature_cache(small_pipeline / "corpus/features.bin")
    features, track = cache[short]
    cache[short] = UtteranceFeatures(
        features=features[:2],
        prosody=ProsodicTrack(f0=track.f0[:2],
                              log_energy=track.log_energy[:2]))
    cut = tmp_path / "features.bin"
    write_feature_cache(cut, cache)
    code = cli.main([command, "--manifest", str(manifest),
                     "--features", str(cut),
                     "--bank-dir", str(tmp_path / "bank"), *SMALL_FLAGS,
                     *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: {cut}: utterance {short!r} has 2 frames, fewer than "
        f"num_states 3\n")
    assert not (tmp_path / "bank").exists()


def test_train_speakers_rejects_mismatched_bank(small_pipeline, tmp_path,
                                                capsys):
    run_cli("gen-synthetic", "--out-dir", tmp_path, "--speakers", "3",
            "--emotions", "neutral,sad", "--train-count", "2",
            "--test-count", "2", "--reps", "1", "--separation", "5",
            "--seed", "7")
    index_before = (small_pipeline / "bank/bank.bin").read_bytes()
    code = cli.main(["train-speakers",
                     "--manifest", str(tmp_path / "manifest.tsv"),
                     "--features", str(tmp_path / "features.bin"),
                     "--bank-dir", str(small_pipeline / "bank"),
                     *SMALL_FLAGS, *SMALL_SPLIT])
    assert code == 2
    assert "trained on emotions" in capsys.readouterr().err
    assert (small_pipeline / "bank/bank.bin").read_bytes() == index_before


def test_retrain_emotions_rejects_other_emotion_set(small_pipeline, tmp_path,
                                                    capsys):
    bank = tmp_path / "bank"
    shutil.copytree(small_pipeline / "bank", bank)
    run_cli("gen-synthetic", "--out-dir", tmp_path / "sad", "--speakers", "3",
            "--emotions", "neutral,sad", "--train-count", "2",
            "--test-count", "2", "--reps", "1", "--separation", "5",
            "--seed", "7")
    index_before = (bank / "bank.bin").read_bytes()
    code = cli.main(["train-emotions",
                     "--manifest", str(tmp_path / "sad/manifest.tsv"),
                     "--features", str(tmp_path / "sad/features.bin"),
                     "--bank-dir", str(bank), *SMALL_FLAGS, *SMALL_SPLIT])
    assert code == 2
    assert "trained on emotions" in capsys.readouterr().err
    assert (bank / "bank.bin").read_bytes() == index_before
    run_cli("identify", "--manifest", small_pipeline / "corpus/manifest.tsv",
            "--features", small_pipeline / "corpus/features.bin",
            "--bank-dir", bank, "--out", tmp_path / "out.jsonl",
            *SMALL_SPLIT)


@pytest.mark.parametrize("command", ["train-emotions", "train-speakers",
                                     "train-onestage"])
def test_default_config_rejects_small_bank(small_pipeline, tmp_path, capsys,
                                           command):
    # train-* must repeat the shapes a bank was trained with; identify and
    # sweep-alpha read them from the bank
    bank = tmp_path / "bank"
    shutil.copytree(small_pipeline / "bank", bank)
    index_before = (bank / "bank.bin").read_bytes()
    code = cli.main([command,
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(bank)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bank.bin" in err and "num_states = 3" in err
    assert (bank / "bank.bin").read_bytes() == index_before


@pytest.mark.parametrize("command", ["identify", "sweep-alpha",
                                     "train-onestage"])
def test_bank_from_another_train_split_is_refused(small_pipeline, tmp_path,
                                                  capsys, command):
    # the same labels and ids as the small pipeline's corpus, drawn from
    # another seed, so the utterances differ in length
    run_cli("gen-synthetic", "--out-dir", tmp_path / "other", "--speakers",
            "3", "--emotions", "neutral,angry", "--train-count", "2",
            "--test-count", "2", "--reps", "1", "--separation", "5",
            "--seed", "8")
    assert load_manifest(tmp_path / "other/manifest.tsv") == \
        load_manifest(small_pipeline / "corpus/manifest.tsv")
    bank = tmp_path / "bank"
    shutil.copytree(small_pipeline / "bank", bank)
    before = (bank / "bank.bin").read_bytes()
    argv = [command, "--manifest", str(tmp_path / "other/manifest.tsv"),
            "--features", str(tmp_path / "other/features.bin"),
            "--bank-dir", str(bank), *SMALL_SPLIT]
    argv += (SMALL_FLAGS if command.startswith("train-")
             else ["--out", str(tmp_path / "out")])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bank / 'bank.bin'}: bank was "
                          f"trained on another train split")
    assert (bank / "bank.bin").read_bytes() == before
    assert not (tmp_path / "out").exists()


def test_library_evaluation_equals_cli_evaluation(small_pipeline, tmp_path):
    records = load_manifest(small_pipeline / "corpus/manifest.tsv")
    cache = read_feature_cache(small_pipeline / "corpus/features.bin")
    cfg = RunConfig(train_sentences=(1, 2), test_sentences=(3, 4))
    train, test = split_records(records, cfg.protocol)
    bank, features = recognizer.open_bank(small_pipeline / "bank", train, test,
                                          cache)
    rows = recognizer.score_test_set(bank, test, features, cfg.fusion)
    assert rows == recognizer.read_results(small_pipeline / "results.jsonl")
    result = evaluation.evaluate(rows, n_pool=3)
    evaluation.write_evaluation(result, tmp_path)
    cli_dir = small_pipeline / "eval"
    names = sorted(p.name for p in cli_dir.iterdir())
    assert names == ["confusion.tsv", "performance_one_stage.tsv",
                     "performance_two_stage.tsv", "summary.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (cli_dir / name).read_bytes()
    assert result.summary == json.loads((cli_dir / "summary.json").read_text())


def test_interrupted_identify_keeps_previous_results(small_pipeline, tmp_path,
                                                     monkeypatch):
    out = tmp_path / "results.jsonl"
    shutil.copy(small_pipeline / "results.jsonl", out)
    before = out.read_bytes()
    score = recognizer.score_test_set

    def unencodable_third_row(*args, **kwargs):
        rows = score(*args, **kwargs)
        rows[2] = dataclasses.replace(rows[2], speaker_scores={"s": object()})
        return rows

    monkeypatch.setattr(recognizer, "score_test_set", unencodable_third_row)
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.main(["identify",
                  "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                  "--features", str(small_pipeline / "corpus/features.bin"),
                  "--bank-dir", str(small_pipeline / "bank"),
                  "--out", str(out), *SMALL_SPLIT])
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]


def test_identify_rejects_empty_test_split(tmp_path, capsys):
    # a one-speaker neutral corpus of sentences 1 and 2: the split's fault
    # lies in the manifest, not in the feature cache
    run_cli("gen-synthetic", "--out-dir", tmp_path / "corpus", *_TINY_GEN,
            "--seed", "1")
    manifest = tmp_path / "corpus/manifest.tsv"
    flags = ["--manifest", manifest,
             "--features", tmp_path / "corpus/features.bin",
             "--bank-dir", tmp_path / "bank",
             "--train-sentences", "1,2", "--test-sentences", "3"]
    for sub in ("train-emotions", "train-speakers", "train-onestage"):
        run_cli(sub, *flags, *SMALL_FLAGS)
    capsys.readouterr()
    code = cli.main(["identify", *map(str, flags),
                     "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == (f"data error: {manifest}: no test "
                                       f"records\n")
    assert not (tmp_path / "out.jsonl").exists()


def test_identify_requires_complete_bank(tmp_path, capsys):
    run_cli("gen-synthetic", "--out-dir", tmp_path / "corpus", *_TINY_GEN,
            "--seed", "1")
    code = cli.main(["identify",
                     "--manifest", str(tmp_path / "corpus/manifest.tsv"),
                     "--features", str(tmp_path / "corpus/features.bin"),
                     "--bank-dir", str(tmp_path / "bank"),
                     "--out", str(tmp_path / "out.jsonl")])
    assert code == 2


def test_identify_and_sweep_refuse_a_bank_without_one_stage_models(
        small_pipeline, tmp_path, capsys):
    flags = ["--manifest", str(small_pipeline / "corpus/manifest.tsv"),
             "--features", str(small_pipeline / "corpus/features.bin"),
             "--bank-dir", str(tmp_path / "bank"), *SMALL_SPLIT]
    for sub in ("train-emotions", "train-speakers"):
        run_cli(sub, *flags, *SMALL_FLAGS, "--em-max-iters", "1")
    path = tmp_path / "bank/bank.bin"
    before = path.read_bytes()
    capsys.readouterr()
    for command in ("identify", "sweep-alpha"):
        out = tmp_path / f"{command}.out"
        assert cli.main([command, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: bank is incomplete; train its emotion, "
            f"speaker and one-stage models first\n")
        assert not out.exists()
    assert path.read_bytes() == before


def test_identify_refuses_version_3_bank(small_pipeline, tmp_path, capsys):
    bank = tmp_path / "bank"
    shutil.copytree(small_pipeline / "bank", bank)
    data = (bank / "bank.bin").read_bytes()
    (bank / "bank.bin").write_bytes(b"EMOBK003" + data[8:])
    out = tmp_path / "out.jsonl"
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(bank), "--out", str(out),
                     *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: {bank / 'bank.bin'}: a version-3 bank; retrain it to "
        f"write a version-4 bank.bin\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["identify", "train-emotions"])
def test_a_version_1_feature_cache_is_refused_by_name(small_pipeline, tmp_path,
                                                      capsys, command):
    features = tmp_path / "features.bin"
    data = (small_pipeline / "corpus/features.bin").read_bytes()
    features.write_bytes(b"EMOFC001" + data[8:])
    bank = tmp_path / "bank"
    shutil.copytree(small_pipeline / "bank", bank)
    before = (bank / "bank.bin").read_bytes()
    out = tmp_path / "out.jsonl"
    flags = ["--out", str(out)] if command == "identify" else SMALL_FLAGS
    code = cli.main([command,
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(features), "--bank-dir", str(bank),
                     *flags, *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: {features}: a version-1 feature cache; re-run extract "
        f"or gen-synthetic\n")
    assert not out.exists()
    assert (bank / "bank.bin").read_bytes() == before


def test_train_refuses_overflowing_feature_statistics(tmp_path, capsys):
    corpus_dir, bank = tmp_path / "c", tmp_path / "bank"
    features = corpus_dir / "features.bin"
    run_cli("gen-synthetic", "--out-dir", corpus_dir, "--speakers", "2",
            "--emotions", "neutral,angry", "--train-count", "2",
            "--test-count", "2", "--reps", "1", "--seed", "7")
    records = load_manifest(corpus_dir / "manifest.tsv")
    train, _ = split_records(records, RunConfig(train_sentences=(1, 2),
                                                test_sentences=(3, 4)).protocol)
    cache = read_feature_cache(features)
    for record, value in zip(train, (1e300, -1e300)):
        vectors = np.array(cache[record.id].features)
        vectors[0, 0] = value
        cache[record.id] = UtteranceFeatures(vectors, cache[record.id].prosody)
    write_feature_cache(features, cache)
    capsys.readouterr()
    code = cli.main(["train-emotions",
                     "--manifest", str(corpus_dir / "manifest.tsv"),
                     "--features", str(features), "--bank-dir", str(bank),
                     *SMALL_FLAGS, *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: {features}: feature dimensions [0] overflow on the "
        f"training set\n")
    assert not bank.exists()


def _cut(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _cut_within(path, part):
    """Cut a container file halfway through its header or its payload."""
    data = path.read_bytes()
    _, _, payload = container_parts(data)
    head_end = len(data) - len(payload)
    path.write_bytes(data[:(16 + head_end) // 2 if part == "header"
                          else (head_end + len(data)) // 2])


def _drop_spk00(header):
    # spk00's first speaker model is filed under a speaker the bank lacks
    next(entry for entry in header["models"] if entry["role"] == "speaker"
         and entry["key"][0] == "spk00")["key"][0] = "nobody"


def _null(field):
    """Record null for field: for "training", in the last model's entry."""
    def edit(header):
        owner = header["models"][-1] if field == "training" else header
        owner[field] = None
    return lambda bank: edit_container_header(bank / "bank.bin", edit)


_CORRUPTIONS = {
    **{f"null {field}": _null(field) for field in
       ("config", "normalization", "train_split", "training")},
    "truncated index": lambda bank: _cut_within(bank / "bank.bin", "header"),
    "truncated model": lambda bank: _cut_within(bank / "bank.bin", "payload"),
    "missing speaker entry": lambda bank: edit_container_header(
        bank / "bank.bin", _drop_spk00),
    "short normalization": lambda bank: edit_container_header(
        bank / "bank.bin", lambda header: header["normalization"]["mean"].pop()),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_identify_rejects_corrupt_bank(small_pipeline, tmp_path, capsys,
                                       corruption):
    bank = tmp_path / "bank"
    shutil.copytree(small_pipeline / "bank", bank)
    _CORRUPTIONS[corruption](bank)
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(bank),
                     "--out", str(tmp_path / "out.jsonl"),
                     *SMALL_SPLIT])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bank / "bank.bin") in err
    assert not (tmp_path / "out.jsonl").exists()


def test_identify_refuses_a_prosodic_model_of_other_width(small_pipeline,
                                                          tmp_path, capsys):
    # the first emotion's prosodic entry re-encoded as a 16-column model
    bank = tmp_path / "bank"
    shutil.copytree(small_pipeline / "bank", bank)
    header, roles = recognizer._read_bank(bank)
    emotion = roles["emotion"]
    first = header["emotions"][0]
    emotion[(first, "supra")] = (emotion[(first, "acoustic")][0],
                                 emotion[(first, "supra")][1])
    recognizer._write_bank(bank, header, roles)
    message = (f"{bank / 'bank.bin'}: malformed model bank: a prosodic model "
               f"emits 5 columns, not 16")
    with pytest.raises(CorruptFileError) as info:
        recognizer.load_bank(bank)
    assert str(info.value) == message
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(bank),
                     "--out", str(tmp_path / "out.jsonl"), *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not (tmp_path / "out.jsonl").exists()


def _with_extra_component(model):
    """model with one more component per state, at weight 0."""
    return hmm.AcousticModel(
        model.transitions,
        np.concatenate([model.weights, np.zeros((1, model.num_states))]),
        *(np.concatenate([grid, grid[:1]])
          for grid in (model.means, model.variances)))


@pytest.mark.parametrize("role", ["speaker", "emotion"])
@pytest.mark.parametrize("command", ["identify", "sweep-alpha"])
def test_scoring_refuses_a_model_off_the_config_grid(small_pipeline, tmp_path,
                                                     capsys, command, role):
    # one speaker model, or the first emotion's prosodic model, gains a
    # component: a grid the bank's config does not give
    bank = tmp_path / "bank"
    shutil.copytree(small_pipeline / "bank", bank)
    header, roles = recognizer._read_bank(bank)
    key, grid = ((next(iter(roles[role])), (2, 3)) if role == "speaker" else
                 ((header["emotions"][0], "supra"), (1, 3)))
    model, training = roles[role][key]
    roles[role][key] = (_with_extra_component(model), training)
    recognizer._write_bank(bank, header, roles)
    message = (f"{bank / 'bank.bin'}: malformed model bank: {role} model "
               f"{key} has {grid[0] + 1} x {grid[1]} components (M x N); the "
               f"config gives {grid[0]} x {grid[1]}")
    with pytest.raises(CorruptFileError) as info:
        recognizer.load_bank(bank)
    assert str(info.value) == message
    out = tmp_path / "out"
    code = cli.main([command,
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(bank), "--out", str(out), *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()


def test_identify_refuses_a_model_with_unequal_component_counts(
        small_pipeline, tmp_path, capsys):
    # the first speaker entry's counts [2, 2, 2] read as [3, 2, 1], which
    # sizes the same payload
    bank = tmp_path / "bank"
    shutil.copytree(small_pipeline / "bank", bank)

    def ragged(header):
        entry = next(e for e in header["models"] if e["role"] == "speaker")
        assert entry["components"] == [2, 2, 2]
        entry["components"] = [3, 2, 1]
    edit_container_header(bank / "bank.bin", ragged)
    message = (f"{bank / 'bank.bin'}: malformed model bank: components "
               f"[3, 2, 1] differ between states; every state of a model has "
               f"the same count")
    with pytest.raises(CorruptFileError) as info:
        recognizer.load_bank(bank)
    assert str(info.value) == message
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(bank),
                     "--out", str(tmp_path / "out.jsonl"), *SMALL_SPLIT])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not (tmp_path / "out.jsonl").exists()


def test_identify_rejects_truncated_feature_cache(small_pipeline, tmp_path,
                                                  capsys):
    cache = tmp_path / "features.bin"
    shutil.copy(small_pipeline / "corpus/features.bin", cache)
    _cut(cache)
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(cache),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--out", str(tmp_path / "out.jsonl"),
                     *SMALL_SPLIT])
    assert code == 2
    err = capsys.readouterr().err
    assert f"data error: {cache}: feature cache is truncated" in err
