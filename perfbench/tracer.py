"""Outside-in layer tracer for the emocue benchmark.

The tracer wraps the public functions of the library's layers from the
benchmark's own code, so the library source stays untouched. A module-level
patch alone misses names that other modules pulled in with
``from ... import ...`` (``recognizer.fused_score``,
``evaluation.score_components`` and the frontend functions that ``cli``
imports), so every binding of each function in every loaded ``emocue``
module and class is replaced, and ``unpatched_bindings`` proves none is left.

Spans carry a name, start and end (``time.perf_counter``), the index of the
parent span, a request id (the CLI command that caused them) and the cycle
number. They are kept in memory and written out when the run ends. A layer's
self time is its span's duration minus the durations of its child spans;
children of one span never overlap because the library is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# Wrapped functions by layer (module): each layer's public entry points.
TRACED = {
    "frontend": ("load_audio", "frame_signal", "mfcc", "prosodic_track",
                 "analyze_clip", "read_feature_cache", "write_feature_cache"),
    "corpus": ("synthesize_corpus", "load_manifest", "normalize_features",
               "NormalizationParams.apply"),
    "hmm": ("state_log_densities", "forward_log_likelihood", "viterbi",
            "baum_welch", "init_model", "save_model", "load_model"),
    "supra": ("segment_summaries", "supra_observations", "score_components",
              "fused_score", "train_suprasegmental", "save_supra_model",
              "load_supra_model"),
    "recognizer": ("load_bank", "score_test_set", "identify_emotion",
                   "identify_speaker_given_emotion", "one_stage_identify"),
    "evaluation": ("alpha_sweep", "confusion_matrix", "performance_table"),
}

# Parent-less spans opened by the benchmark around each CLI command.
CLI_COMMANDS = ("gen-synthetic", "train-emotions", "train-speakers",
                "train-onestage", "identify", "evaluate", "sweep-alpha",
                "extract")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_file_bytes(index, name):
    def count(span, args, kwargs, result):
        span["bytes"] = os.path.getsize(_arg(args, kwargs, index, name))
    return count


def _count_frame_signal(span, args, kwargs, result):
    span["frames"] = len(result)


def _count_state_densities(span, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    mixtures = sum(mix.num_components for mix in model.mixtures)
    span["gauss_evals"] = len(_arg(args, kwargs, 1, "obs")) * mixtures


def _count_frames(span, args, kwargs, result):
    span["frames"] = len(_arg(args, kwargs, 1, "seq"))


def _count_baum_welch(span, args, kwargs, result):
    _, report = result
    frames = sum(len(s) for s in _arg(args, kwargs, 1, "sequences"))
    span["iterations"] = report.iterations_run
    span["frame_iters"] = report.iterations_run * frames
    span["converged"] = int(report.converged)


# Work counts recorded on a traced function's span after it returns.
COUNTERS = {
    "frontend.frame_signal": _count_frame_signal,
    "frontend.read_feature_cache": _count_file_bytes(0, "path"),
    "frontend.write_feature_cache": _count_file_bytes(0, "path"),
    "hmm.state_log_densities": _count_state_densities,
    "hmm.forward_log_likelihood": _count_frames,
    "hmm.viterbi": _count_frames,
    "hmm.baum_welch": _count_baum_welch,
    "hmm.save_model": _count_file_bytes(1, "path"),
}


class Tracer:
    """In-memory span recorder. Records only while a request is open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._request: str | None = None
        self._cycle = 0
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "request": self._request, "cycle": self._cycle}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, command: str, cycle: int):
        """One CLI command: the root span of its request."""
        self._request, self._cycle = command, cycle
        span = self._open(f"cli.{command}")
        try:
            yield span
        finally:
            self._close(span)
            self._request = None

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                counter(span, args, kwargs, result)
            return result

        return traced

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every traced function with a wrapper."""
        import emocue.cli  # noqa: F401  (loads the package and every layer)

        modules = _emocue_modules()
        wrappers = {}
        for layer, attrs in TRACED.items():
            module = sys.modules[f"emocue.{layer}"]
            for attr in attrs:
                owner, leaf = _resolve(module, attr)
                original = owner.__dict__[leaf]
                name = f"{layer}.{attr}"
                self._originals[name] = original
                wrappers[id(original)] = self._wrap(name, original)
        for namespace_owner in _namespaces(modules):
            for key, value in list(vars(namespace_owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((namespace_owner, key, value))
                    setattr(namespace_owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def unpatched_bindings(self) -> list[str]:
        """Places that still bind an original traced function."""
        originals = {id(fn): name for name, fn in self._originals.items()}
        left = []
        for owner in _namespaces(_emocue_modules()):
            for key, value in vars(owner).items():
                if id(value) in originals:
                    left.append(f"{getattr(owner, '__name__', owner)}.{key}")
        return left

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _emocue_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "emocue" or name.startswith("emocue."))]


def _namespaces(modules):
    """Each module plus each class it defines."""
    for module in modules:
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def _resolve(module, attr: str):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


# --- aggregation -----------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def aggregate(spans: list[dict], select=lambda span: True) -> dict:
    """name -> {"calls", "s" (self), "total_s", counters...} over selected spans."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for span, self_s in zip(spans, own):
        if not select(span):
            continue
        entry = out.setdefault(span["name"], {"calls": 0, "s": 0.0,
                                              "total_s": 0.0})
        entry["calls"] += 1
        entry["s"] += self_s
        entry["total_s"] += span["end"] - span["start"]
        for key, value in span.items():
            if key in ("name", "start", "end", "parent", "request", "cycle"):
                continue
            entry[key] = entry.get(key, 0) + value
    return out
