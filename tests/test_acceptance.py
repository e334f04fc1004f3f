"""Acceptance suite: the eight checks that qualify a build.

Each test prints one "criterion N: PASS/FAIL" line (echoed again in the
terminal summary) and fails loudly if its pinned numbers or time budget
are missed. The expensive end-to-end runs come from session fixtures so
their cost is paid once.
"""

import time

import numpy as np
from scipy.special import logsumexp

from emocue import evaluation, hmm
from emocue.supra import FusionConfig, fused_score, score_components

import oracles
from conftest import ACCEPTANCE_LINES, run_small_pipeline
from oracles import (
    REF_CONFUSION_ACOUSTIC,
    REF_CONFUSION_FUSED,
    REF_EMOTIONS,
    REF_SPEAKER_ONE_STAGE,
    REF_SPEAKER_TWO_STAGE,
    REF_SPEAKER_TWO_STAGE_SUPRA,
    confusion_pairs,
    speaker_results,
)


def _check(num, description, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num}: {status} - {description}"
    extra = "; ".join(failures) if failures else detail
    if extra:
        line += f" ({extra})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert not failures, line


def test_criterion_1_evaluation_fidelity():
    started = time.perf_counter()
    failures = []

    fused = evaluation.confusion_matrix(
        confusion_pairs(REF_CONFUSION_FUSED), labels=REF_EMOTIONS)
    acoustic = evaluation.confusion_matrix(
        confusion_pairs(REF_CONFUSION_ACOUSTIC), labels=REF_EMOTIONS)
    for cm, want, label in ((fused, 83.83, "fused"),
                            (acoustic, 82.67, "acoustic-only")):
        got = evaluation.average_diagonal(cm)
        if abs(got - want) > 0.01:
            failures.append(f"{label} diagonal {got:.4f} != {want}")

    for cells, want_mean, want_sd, label in (
            (REF_SPEAKER_TWO_STAGE, 79.92, 6.03, "two-stage"),
            (REF_SPEAKER_ONE_STAGE, 71.58, 7.57, "one-stage"),
            (REF_SPEAKER_TWO_STAGE_SUPRA, 75.92, 6.44, "two-stage+prosody")):
        table = evaluation.performance_table(speaker_results(cells),
                                             emotions=REF_EMOTIONS)
        if abs(table.overall_mean - want_mean) > 0.01:
            failures.append(f"{label} mean {table.overall_mean:.4f} "
                            f"!= {want_mean}")
        if abs(table.overall_sd - want_sd) > 0.01:
            failures.append(f"{label} sd {table.overall_sd:.4f} != {want_sd}")

    t_checks = (
        (evaluation.pooled_t_from_stats(71.58, 7.57, 79.92, 6.03, 50).t,
         6.093, "t(two vs one, n=50)"),
        (evaluation.pooled_t_from_stats(75.92, 6.44, 79.92, 6.03, 50).t,
         3.206, "t(prosody vs two, n=50)"),
        (evaluation.pooled_t_from_stats(71.58, 7.57, 79.92, 6.03, 6).t,
         2.111, "t(two vs one, n=6)"),
    )
    for got, want, label in t_checks:
        if abs(got - want) > 0.005:
            failures.append(f"{label} = {got:.4f} != {want}")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _check(1, "evaluation statistics reproduce the reference tables",
           failures,
           f"t = {t_checks[0][0]:.3f}/{t_checks[1][0]:.3f}"
           f"/{t_checks[2][0]:.3f}, {elapsed:.2f}s")


def test_criterion_2_hmm_battery():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20260822)
    cases = 1000
    max_forward_err = max_viterbi_err = max_fb_err = 0.0
    for _ in range(cases):
        model, obs = oracles.random_case(rng)
        ll = hmm.forward_log_likelihood(model, obs)
        max_forward_err = max(max_forward_err,
                              abs(ll - oracles.enumerated_forward(model, obs)))
        _, score = hmm.viterbi(model, obs)
        _, ref_score = oracles.enumerated_viterbi(model, obs)
        max_viterbi_err = max(max_viterbi_err, abs(score - ref_score))
        if score > ll + 1e-9:
            failures.append(f"viterbi {score} above forward {ll}")
            break
        alpha, beta = hmm.forward_backward(model, obs)
        per_t = logsumexp(alpha + beta, axis=1)
        max_fb_err = max(max_fb_err, float(np.max(np.abs(per_t - ll))))
    if max_forward_err > 1e-9:
        failures.append(f"forward error {max_forward_err:.2e} > 1e-9")
    if max_viterbi_err > 1e-9:
        failures.append(f"viterbi error {max_viterbi_err:.2e} > 1e-9")
    if max_fb_err > 1e-8:
        failures.append(f"forward-backward error {max_fb_err:.2e} > 1e-8")

    for _ in range(15):
        model, _ = oracles.random_case(rng)
        seqs = [rng.normal(0.0, 2.0,
                           size=(int(rng.integers(model.num_states, 12)),
                                 model.feature_dim))
                for _ in range(3)]
        _, report = hmm.baum_welch(model, seqs, max_iters=8)
        lls = np.asarray(report.log_likelihood_per_iteration)
        slack = 1e-6 * np.maximum(1.0, np.abs(lls[:-1]))
        if np.any(np.diff(lls) < -slack):
            failures.append("training log-likelihood decreased")
            break

    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _check(2, f"{cases} randomized cases match brute-force enumeration",
           failures,
           f"max errors {max_forward_err:.1e}/{max_viterbi_err:.1e}"
           f"/{max_fb_err:.1e}, {elapsed:.1f}s")


def test_criterion_3_parameter_recovery():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(33)
    advance = 0.03
    bases = np.array([[0.0, 0.0], [4.0, 0.0], [8.0, 0.0]])
    offset = np.array([0.0, 4.0])
    true_means = np.stack([np.stack([b + offset, b - offset]) for b in bases])

    seqs = []
    for _ in range(200):
        t_len = int(rng.integers(80, 121))
        moves = rng.random(t_len) < advance
        moves[0] = False
        states = np.minimum(np.cumsum(moves), 2)
        comps = rng.integers(0, 2, size=t_len)
        seqs.append(true_means[states, comps]
                    + 0.5 * rng.standard_normal((t_len, 2)))

    model, report = hmm.baum_welch(hmm.init_model(seqs, 3, 2), seqs,
                                   max_iters=60, tol=1e-7)
    # left-to-right structure aligns learned state i with generator state i;
    # within a state the two components may come out in either order
    worst = 0.0
    for s in range(3):
        learned = model.mixtures[s].means
        for c in range(2):
            gap = np.linalg.norm(learned - true_means[s, c], axis=1).min()
            worst = max(worst, gap)
    if worst > 0.1:
        failures.append(f"worst component mean off by {worst:.4f} > 0.1")

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    _check(3, "training recovers the generating mixture means",
           failures,
           f"worst mean error {worst:.4f} after {report.iterations_run} "
           f"iterations, {elapsed:.1f}s")


def test_criterion_4_fusion_identities(tiny_trained):
    failures = []
    bank = tiny_trained["bank"]
    features = tiny_trained["features"]
    worst = 0.0
    for record in tiny_trained["test"][:4]:
        utt = features[record.id]
        for e in bank.emotions:
            pair = bank.emotion_models[e]
            log_a, log_s = score_components(pair.acoustic, pair.supra, utt)
            if fused_score(pair.acoustic, pair.supra, utt,
                           FusionConfig(alpha=0.0)) != log_a:
                failures.append("alpha 0 is not the acoustic score")
            if fused_score(pair.acoustic, pair.supra, utt,
                           FusionConfig(alpha=1.0)) != log_s:
                failures.append("alpha 1 is not the prosodic score")
            mid = fused_score(pair.acoustic, pair.supra, utt,
                              FusionConfig(alpha=0.5))
            worst = max(worst, abs(mid - 0.5 * (log_a + log_s)))
            for alpha in np.linspace(0.0, 1.0, 11):
                got = fused_score(pair.acoustic, pair.supra, utt,
                                  FusionConfig(alpha=float(alpha)))
                worst = max(worst,
                            abs(got - ((1.0 - alpha) * log_a + alpha * log_s)))
    if worst > 1e-12:
        failures.append(f"fusion deviates by {worst:.2e} > 1e-12")
    _check(4, "score fusion is exact at the endpoints and affine between",
           failures, f"max deviation {worst:.1e}")


def test_criterion_5_end_to_end(acceptance_run):
    failures = []
    summary = acceptance_run["summary"]
    emotion = summary["emotion_average_diagonal"]
    two = summary["two_stage"]["mean"]
    one = summary["one_stage"]["mean"]
    if emotion < 95.0:
        failures.append(f"emotion accuracy {emotion:.2f} < 95")
    if two < 90.0:
        failures.append(f"two-stage accuracy {two:.2f} < 90")
    if two < one:
        failures.append(f"two-stage {two:.2f} below one-stage {one:.2f}")
    if acceptance_run["elapsed"] >= 300.0:
        failures.append(f"pipeline took {acceptance_run['elapsed']:.0f}s, "
                        f"budget 300s")
    _check(5, "full pipeline separates a well-separated corpus",
           failures,
           f"emotion {emotion:.2f}, two-stage {two:.2f}, one-stage "
           f"{one:.2f}, {acceptance_run['elapsed']:.0f}s")


def test_criterion_6_fusion_weight_helps_nonneutral(acceptance_run):
    failures = []
    lines = acceptance_run["sweep_path"].read_text().splitlines()
    header = lines[0].split("\t")
    emotions = header[1:-1]
    by_alpha = {}
    for line in lines[1:]:
        parts = line.split("\t")
        by_alpha[parts[0]] = [float(v) for v in parts[1:-1]]
    nonneutral = [i for i, e in enumerate(emotions) if e != "neutral"]
    low = float(np.mean([by_alpha["0.1"][i] for i in nonneutral]))
    high = float(np.mean([by_alpha["0.9"][i] for i in nonneutral]))
    if high < low:
        failures.append(f"non-neutral accuracy {high:.2f} at weight 0.9 "
                        f"below {low:.2f} at 0.1")
    _check(6, "leaning on prosody does not hurt non-neutral emotions",
           failures, f"weight 0.1 -> {low:.2f}, weight 0.9 -> {high:.2f}")


def test_criterion_7_chance_floor(chance_run):
    failures = []
    rows = chance_run["rows"]
    if len(rows) < 500:
        failures.append(f"only {len(rows)} test utterances, need >= 500")
    accuracy = 100.0 * np.mean([r.identified_speaker == r.true_speaker
                                for r in rows])
    chance = 100.0 / chance_run["num_speakers"]
    if abs(accuracy - chance) > 5.0:
        failures.append(f"accuracy {accuracy:.2f} not within 5 points "
                        f"of chance {chance:.1f}")
    _check(7, "zero class separation scores at chance",
           failures,
           f"{accuracy:.2f}% over {len(rows)} utterances, chance "
           f"{chance:.1f}%")


def test_criterion_8_determinism(tmp_path):
    failures = []
    roots = (tmp_path / "first", tmp_path / "second")
    for root in roots:
        root.mkdir()
        run_small_pipeline(root, seed=7)
    files = [sorted(p.relative_to(root) for p in root.rglob("*")
                    if p.is_file())
             for root in roots]
    if files[0] != files[1]:
        failures.append("the two runs produced different file sets")
    else:
        different = [str(rel) for rel in files[0]
                     if (roots[0] / rel).read_bytes()
                     != (roots[1] / rel).read_bytes()]
        if different:
            failures.append(f"files differ between identical-seed runs: "
                            f"{different}")
    _check(8, "identical seeds give byte-identical pipeline outputs",
           failures, f"{len(files[0])} files compared")
