"""Command-line pipeline: extraction, training, identification, evaluation.

Subcommands cover the full experiment flow:

  extract         WAV manifest -> feature cache
  gen-synthetic   sample a labeled corpus from known generators
  train-emotions  emotion-level acoustic + prosodic models
  train-speakers  per-(speaker, emotion) acoustic models
  train-onestage  per-speaker models pooled over emotions
  identify        score utterances -> JSONL results
  evaluate        results -> confusion/performance tables + summary
  sweep-alpha     stage-a accuracy across fusion weights
  ttest           pooled-SD t statistic between two samples

Each command takes flags (and --config keys) only for the RunConfig settings
it reads; identify and sweep-alpha read the model shapes from the bank. Exit
codes: 0 success, 1 usage or configuration error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

from . import corpus, evaluation, recognizer
from .config import RunConfig, make_config, parse_items
from .errors import (
    DegenerateDimensionError,
    EmoCueError,
    EmptyResultsError,
    EmptyTrainingSetError,
    ManifestError,
    NoLegalPathError,
    NumericalUnderflowError,
    SequenceTooShortError,
    UnknownEmotionError,
    UnknownLabelError,
    _prefixed,
)
from .frontend import analyze_clips, load_audio, read_feature_cache, \
    write_feature_cache

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser exiting 1 on usage errors, with no flag abbreviations.
    No flag starts with a digit, so -1e5 or -1,2 is a value, not a flag."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_options(parser: argparse.ArgumentParser, names) -> None:
    group = parser.add_argument_group("run configuration")
    group.add_argument("--config", metavar="FILE",
                       help="key = value settings file")
    parser.set_defaults(settings=names)
    for f in (f for f in dataclasses.fields(RunConfig) if f.name in names):
        # a list arrives as text; RunConfig parses it, naming the flag
        group.add_argument("--" + f.name.replace("_", "-"),
                           metavar=f.metadata["metavar"],
                           type=f.type if f.type in (int, float) else None,
                           help=f.metadata["help"])


def _config_from(args) -> RunConfig:
    return make_config(args.config, args.settings,
                       **{name: getattr(args, name) for name in args.settings})


def _load_corpus(manifest, features):
    return corpus.load_manifest(manifest), read_feature_cache(features)


def _cmd_extract(args) -> int:
    records = corpus.load_manifest(args.manifest)
    root = args.audio_root or os.path.dirname(os.path.abspath(args.manifest))
    for record in records:
        if record.audio is None:
            raise ManifestError(
                f"{record.id}: no audio path; nothing to extract")
    entries = dict(zip([record.id for record in records], analyze_clips(
        load_audio(os.path.join(root, record.audio)) for record in records)))
    write_feature_cache(args.out, entries)
    print(f"extracted {len(entries)} utterances -> {args.out}")
    return EXIT_OK


def _cmd_gen_synthetic(args) -> int:
    cfg = _config_from(args)
    emotions = parse_items(args.emotions, str, "--emotions")
    unknown = [e for e in emotions if e not in corpus.DEFAULT_EMOTIONS]
    if unknown:
        raise ValueError(f"unknown emotions {unknown}; the manifest readers "
                         f"accept only {','.join(corpus.DEFAULT_EMOTIONS)}")
    synth = corpus.synthesize_corpus(
        num_speakers=args.speakers, emotions=emotions,
        train_sentences=args.train_count, test_sentences=args.test_count,
        repetitions=args.reps, separation=args.separation, seed=cfg.seed)
    corpus.write_manifest(synth.records,
                          os.path.join(args.out_dir, "manifest.tsv"))
    write_feature_cache(os.path.join(args.out_dir, "features.bin"),
                        synth.features)
    print(f"wrote {len(synth.records)} synthetic utterances to {args.out_dir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _config_from(args)
    records, cache = _load_corpus(args.manifest, args.features)
    train, _ = corpus.split_records(records, cfg.protocol)
    with _prefixed(args.manifest, EmptyTrainingSetError), \
            _prefixed(args.features, (SequenceTooShortError, ManifestError,
                                      DegenerateDimensionError)):
        trained = recognizer.train_role(args.role, args.bank_dir, cfg, train,
                                        cache)
    print(f"trained {len(trained)} {args.role} models "
          f"({len(train)} utterances) -> {args.bank_dir}")
    capped = sum(not report.converged for _, report in trained.values())
    print(f"{capped} of {len(trained)} model fits stopped at --em-max-iters "
          f"{cfg.em_max_iters} without converging", file=sys.stderr)
    return EXIT_OK


def _cmd_identify(args) -> int:
    cfg = _config_from(args)
    records, cache = _load_corpus(args.manifest, args.features)
    train, test = corpus.split_records(records, cfg.protocol)
    if args.ids is not None:
        wanted = parse_items(args.ids, str, "--ids")
        by_id = {r.id: r for r in records}
        missing = [i for i in wanted if i not in by_id]
        if missing:
            raise ManifestError(f"unknown utterance ids: {missing}")
        repeated = sorted({i for i in wanted if wanted.count(i) > 1})
        if repeated:
            raise ManifestError(f"repeated utterance ids: {repeated}")
        selected = [by_id[i] for i in wanted]
    else:
        selected = test
    with _prefixed(args.features, ManifestError):
        bank, features = recognizer.open_bank(args.bank_dir, train, selected,
                                              cache)
    with _prefixed(args.manifest, EmptyResultsError), \
            _prefixed(args.features, unless=EmptyResultsError):
        rows = recognizer.score_test_set(bank, selected, features, cfg.fusion)
    recognizer.write_results(args.out, rows)
    print(f"identified {len(rows)} utterances -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    rows = recognizer.read_results(args.results)
    with _prefixed(args.results, (EmptyResultsError, UnknownLabelError)):
        result = evaluation.evaluate(rows, args.n_pool)
    evaluation.write_evaluation(result, args.out_dir)
    print(f"emotion stage average: "
          f"{evaluation.average_diagonal(result.confusion):.2f}")
    for name, table in (("two", result.two_stage), ("one", result.one_stage)):
        print(f"{name}-stage speaker accuracy: {table.overall_mean:.2f} "
              f"(sd {table.overall_sd:.2f})")
    return EXIT_OK


def _cmd_sweep_alpha(args) -> int:
    cfg = _config_from(args)
    alphas = evaluation.DEFAULT_ALPHAS
    if args.alphas is not None:
        alphas = parse_items(args.alphas, float, "--alphas")
    records, cache = _load_corpus(args.manifest, args.features)
    train, test = corpus.split_records(records, cfg.protocol)
    with _prefixed(args.features, ManifestError):
        bank, features = recognizer.open_bank(args.bank_dir, train, test,
                                              cache)
    split_faults = (EmptyResultsError, UnknownEmotionError)
    with _prefixed(args.manifest, split_faults), \
            _prefixed(args.features, unless=split_faults):
        sweep = evaluation.alpha_sweep(bank, test, features, alphas=alphas)
    evaluation.write_sweep_tsv(sweep, args.out)
    print(f"swept {len(alphas)} fusion weights -> {args.out}")
    return EXIT_OK


def _cmd_ttest(args) -> int:
    stats_mode = args.mean1 is not None
    if stats_mode:
        if None in (args.sd1, args.mean2, args.sd2):
            raise ValueError(
                "stats mode needs --mean1 --sd1 --mean2 --sd2 together")
        result = evaluation.pooled_t_from_stats(args.mean1, args.sd1,
                                                args.mean2, args.sd2,
                                                args.n_pool)
    else:
        if not (args.sample1 and args.sample2):
            raise ValueError("pass either --sample1/--sample2 or "
                             "--mean1/--sd1/--mean2/--sd2")
        result = evaluation.pooled_t(
            parse_items(args.sample1, float, "--sample1"),
            parse_items(args.sample2, float, "--sample2"), args.n_pool)
    print(f"sample 1: mean {result.mean_1:.3f}, sd {result.sd_1:.3f}")
    print(f"sample 2: mean {result.mean_2:.3f}, sd {result.sd_2:.3f}")
    print(f"pooled sd (n = {result.n_pool}): {result.sd_pooled:.4f}")
    print(f"t = {result.t:.3f} (critical t at 0.05 level = "
          f"{evaluation.T_CRITICAL_005})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emocue",
                     description="Two-stage emotion-cue speaker identification")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("extract", help="compute features for a WAV manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--audio-root", help="base directory for audio paths "
                                        "(default: the manifest's directory)")
    p.add_argument("--out", required=True, help="feature cache to write")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("gen-synthetic",
                       help="sample a synthetic corpus from known generators")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--speakers", type=int, default=5)
    p.add_argument("--emotions", default=",".join(corpus.DEFAULT_EMOTIONS))
    p.add_argument("--train-count", type=int, default=4,
                   help="training sentences per (speaker, emotion)")
    p.add_argument("--test-count", type=int, default=4,
                   help="test sentences per (speaker, emotion)")
    p.add_argument("--reps", type=int, default=3,
                   help="repetitions per sentence")
    p.add_argument("--separation", type=float, default=5.0,
                   help="class separation in units of within-class deviation")
    _add_config_options(p, ("seed",))
    p.set_defaults(func=_cmd_gen_synthetic)

    for name, role, help_text in (
            ("train-emotions", "emotion",
             "train per-emotion acoustic and prosodic models"),
            ("train-speakers", "speaker",
             "train per-(speaker, emotion) acoustic models"),
            ("train-onestage", "one_stage",
             "train per-speaker models pooled over emotions")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True)
        p.add_argument("--features", required=True)
        p.add_argument("--bank-dir", required=True)
        _add_config_options(p, (
            "num_states", "num_mixtures", "num_supra_mixtures",
            "num_supra_states", "train_sentences", "test_sentences",
            "variance_floor", "em_tol", "em_max_iters"))
        p.set_defaults(func=_cmd_train, role=role)

    p = sub.add_parser("identify", help="run the two-stage recognizer")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--bank-dir", required=True)
    p.add_argument("--out", required=True, help="JSONL results file")
    p.add_argument("--ids", help="comma-separated utterance ids "
                                 "(default: the test split)")
    _add_config_options(p, ("train_sentences", "test_sentences", "alpha"))
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("evaluate", help="tabulate identification results")
    p.add_argument("--results", required=True, help="JSONL from identify")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-pool", type=int,
                   help="n for the pooled t (default: speaker count)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep-alpha",
                       help="stage-a sweep over fusion weights")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--bank-dir", required=True)
    p.add_argument("--out", required=True, help="TSV sweep table")
    p.add_argument("--alphas", help="comma-separated weights "
                                    "(default: 0.0,0.1,...,1.0)")
    _add_config_options(p, ("train_sentences", "test_sentences"))
    p.set_defaults(func=_cmd_sweep_alpha)

    p = sub.add_parser("ttest",
                       help="pooled-SD t between two samples or summaries")
    p.add_argument("--sample1", help="comma-separated percentages")
    p.add_argument("--sample2", help="comma-separated percentages")
    p.add_argument("--mean1", type=float)
    p.add_argument("--sd1", type=float)
    p.add_argument("--mean2", type=float)
    p.add_argument("--sd2", type=float)
    p.add_argument("--n-pool", type=int, required=True)
    p.set_defaults(func=_cmd_ttest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NumericalUnderflowError, NoLegalPathError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmoCueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
