"""Command-line tests: exit codes, argument handling and the files each
subcommand leaves behind. The heavy pipeline path itself is exercised by the
session fixture; tests here read its outputs."""

import json
import wave

import numpy as np
import pytest

from emocue import cli
from emocue.corpus import load_manifest
from emocue.errors import NumericalUnderflowError
from emocue.frontend import (
    SAMPLE_RATE,
    FeatureSequence,
    read_feature_cache,
    write_feature_cache,
)

from conftest import run_cli


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


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    code = cli.main(["gen-synthetic", "--out-dir", str(tmp_path),
                     "--alpha", "1.5"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


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


# --- gen-synthetic and config layering ---------------------------------------


_TINY_GEN = ("--speakers", "1", "--emotions", "neutral", "--train-count", "1",
             "--test-count", "1", "--reps", "1", "--separation", "1")


def test_gen_synthetic_writes_loadable_corpus(tmp_path):
    run_cli("gen-synthetic", "--out-dir", tmp_path, *_TINY_GEN, "--seed", "3")
    records = load_manifest(tmp_path / "manifest.tsv")
    cache = read_feature_cache(tmp_path / "features.bin")
    assert {r.id for r in records} == set(cache)
    assert all(r.audio is None for r in records)


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


def test_extract_rejects_cached_only_manifest(tmp_path, capsys):
    (tmp_path / "manifest.tsv").write_text(
        "id\tspeaker\tgender\temotion\tsentence\trepetition\taudio\n"
        "u1\ts1\tmale\tneutral\t1\t1\t-\n")
    code = cli.main(["extract", "--manifest", str(tmp_path / "manifest.tsv"),
                     "--out", str(tmp_path / "features.bin")])
    assert code == 2
    assert "nothing to extract" in capsys.readouterr().err


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


def test_identify_selects_requested_ids(small_pipeline, tmp_path):
    rows = [json.loads(line) for line in
            (small_pipeline / "results.jsonl").read_text().splitlines()]
    wanted = [rows[1]["id"], rows[0]["id"]]
    out = tmp_path / "subset.jsonl"
    run_cli("identify", "--manifest", small_pipeline / "corpus/manifest.tsv",
            "--features", small_pipeline / "corpus/features.bin",
            "--bank-dir", small_pipeline / "bank", "--out", out,
            "--ids", ",".join(wanted))
    subset = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in subset] == wanted


def test_identify_rejects_unknown_id(small_pipeline, tmp_path):
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(small_pipeline / "corpus/features.bin"),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--out", str(tmp_path / "out.jsonl"),
                     "--ids", "nope"])
    assert code == 2


def test_identify_rejects_non_finite_frame(small_pipeline, tmp_path, capsys):
    uid = json.loads((small_pipeline / "results.jsonl").read_text()
                     .splitlines()[0])["id"]
    cache = read_feature_cache(small_pipeline / "corpus/features.bin")
    vectors = np.array(cache[uid].features.vectors)
    vectors[4, 2] = np.nan
    cache[uid] = cache[uid]._replace(features=FeatureSequence(vectors=vectors))
    write_feature_cache(tmp_path / "features.bin", cache)
    code = cli.main(["identify",
                     "--manifest", str(small_pipeline / "corpus/manifest.tsv"),
                     "--features", str(tmp_path / "features.bin"),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--out", str(tmp_path / "out.jsonl"), "--ids", uid])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "frame 4 " in err and "not finite" in err


def test_evaluate_rejects_corrupt_results(tmp_path, capsys):
    bad = tmp_path / "results.jsonl"
    bad.write_text('{"ok": 1}\nnot json\n')
    code = cli.main(["evaluate", "--results", str(bad),
                     "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    assert ":2:" in capsys.readouterr().err


def test_train_speakers_rejects_mismatched_bank(small_pipeline, tmp_path,
                                                capsys):
    run_cli("gen-synthetic", "--out-dir", tmp_path, "--speakers", "3",
            "--emotions", "neutral,sad", "--train-count", "2",
            "--test-count", "2", "--reps", "1", "--separation", "5",
            "--seed", "7")
    index_before = (small_pipeline / "bank/bank.json").read_bytes()
    code = cli.main(["train-speakers",
                     "--manifest", str(tmp_path / "manifest.tsv"),
                     "--features", str(tmp_path / "features.bin"),
                     "--bank-dir", str(small_pipeline / "bank"),
                     "--num-states", "3", "--num-mixtures", "2",
                     "--num-supra-mixtures", "1", "--supra-groups", "1,1,1",
                     "--train-sentences", "1,2", "--test-sentences", "3,4"])
    assert code == 2
    assert "trained on emotions" in capsys.readouterr().err
    assert (small_pipeline / "bank/bank.json").read_bytes() == index_before


def test_identify_requires_complete_bank(tmp_path, capsys):
    run_cli("gen-synthetic", "--out-dir", tmp_path / "corpus", *_TINY_GEN,
            "--seed", "1")
    code = cli.main(["identify",
                     "--manifest", str(tmp_path / "corpus/manifest.tsv"),
                     "--features", str(tmp_path / "corpus/features.bin"),
                     "--bank-dir", str(tmp_path / "bank"),
                     "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
