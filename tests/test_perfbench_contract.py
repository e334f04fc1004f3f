"""The benchmark's outside-in tracer (perfbench/tracer.py) wraps library
functions by name. These tests fail when a rename or deletion in the library
would leave `perfbench/run.py --trace 1` with a function it cannot find or a
binding it does not wrap."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import emocue
from emocue import hmm

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_functions(module):
    for layer, attrs in module.TRACED.items():
        for attr in attrs:
            owner = sys.modules[f"emocue.{layer}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            yield f"{layer}.{attr}", owner


def test_tracer_wraps_every_binding():
    module = _tracer_module()
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_bindings() == []
        wrapped = dict(_traced_functions(module))
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped.values())
    finally:
        tracer.uninstall()
    assert not [name for name, fn in _traced_functions(module)
                if hasattr(fn, "__wrapped__")]


def test_tracer_counts_a_real_baum_welch_fit():
    # the benchmark reads iterations, frame_iters and converged off the
    # (model, TrainingReport) pair baum_welch returns
    module = _tracer_module()
    tracer = module.Tracer()
    rng = np.random.default_rng(3)
    seqs = [rng.normal(size=(t, 2)) for t in (12, 20, 9)]
    init = hmm.init_model(seqs, 3, 2)
    tracer.install()
    try:
        with tracer.request("train-emotions", 0):
            _, report = hmm.baum_welch(init, seqs, max_iters=4)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s["name"] == "hmm.baum_welch"]
    assert len(spans) == 1
    assert spans[0]["iterations"] == report.iterations_run
    assert spans[0]["frame_iters"] == report.iterations_run * (12 + 20 + 9)
    assert spans[0]["converged"] == int(report.converged)


def test_score_test_set_keeps_the_pinned_call_counts(tiny_trained):
    # perfbench's closed forms pin U(2E+2S) forward passes (acoustic and
    # prosodic per emotion, speakers given the emotion, one-stage), U*E
    # Viterbi alignments and one emission pass per forward or Viterbi call
    bank, test = tiny_trained["bank"], tiny_trained["test"]
    u, e, s = len(test), len(bank.emotions), len(bank.speakers)
    module = _tracer_module()
    tracer = module.Tracer()
    tracer.install()
    try:
        with tracer.request("identify", 0):
            emocue.score_test_set(bank, test, tiny_trained["features"])
    finally:
        tracer.uninstall()
    calls = module.aggregate(tracer.spans)
    assert calls["hmm.forward_log_likelihood"]["calls"] == u * (2 * e + 2 * s)
    assert calls["hmm.viterbi"]["calls"] == u * e
    assert calls["hmm.state_log_densities"]["calls"] == u * (3 * e + 2 * s)
    # each emission pass evaluates frames x M x N Gaussians: every frame
    # under 2E + 2S acoustic models, and one summary row per acoustic state
    # under each of the E prosodic models
    frames = sum(len(tiny_trained["features"][r.id].features) for r in test)
    acoustic = bank.one_stage_models[bank.speakers[0]]
    prosodic = bank.emotion_models[bank.emotions[0]].supra
    assert calls["hmm.state_log_densities"]["gauss_evals"] == (
        frames * (2 * e + 2 * s) * acoustic.weights.size
        + u * e * acoustic.num_states * prosodic.weights.size)


def test_alpha_sweep_scores_through_model_stacks(tiny_trained):
    # sweep-alpha scores both streams through hmm.ModelStack and
    # supra.summary_stack, which the tracer does not wrap: a traced sweep
    # opens no span below its own, so it makes no Viterbi call and no
    # traced forward pass
    bank, test = tiny_trained["bank"], tiny_trained["test"]
    module = _tracer_module()
    tracer = module.Tracer()
    tracer.install()
    try:
        with tracer.request("sweep-alpha", 0):
            emocue.alpha_sweep(bank, test, tiny_trained["features"])
    finally:
        tracer.uninstall()
    calls = module.aggregate(tracer.spans)
    assert {name: entry["calls"] for name, entry in calls.items()} == {
        "cli.sweep-alpha": 1, "evaluation.alpha_sweep": 1}
