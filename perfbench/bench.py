"""One benchmark run: set-ups, measured cycles, output checks and metrics.

End-to-end metrics come from an untraced run: the median time of several
set-ups, the median time of the measured cycles, and the process's peak
resident memory. Times are in nominal seconds: wall time scaled by the host
speed that short probes, run between the timed intervals, measured over the
run (probe.py). A traced run first runs set-up and cycles untraced, then
installs the tracer and repeats them, so it can state the tracing overhead
and prove that tracing leaves every output byte-identical."""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import tracer as tracing
import workloads
from probe import Speed

MIN_CYCLES = 2
# Share of each timed interval spent probing the host's speed after it.
PROBE_SHARE = 0.1


@dataclass
class Outcome:
    metrics: dict
    report: dict          # name -> (value, unit), printed for people
    problems: list
    attempted: int
    failed: int
    setups: int
    cycles: int
    digest: str
    tracer: tracing.Tracer | None = None


@dataclass
class _Book:
    """Checks, item counts and output digests of one pass."""

    items: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_digests: list = field(default_factory=list)
    cycle_digests: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def add(self, check: workloads.CheckResult, digests: list) -> None:
        self.items += check.items
        self.failed += check.failed
        self.problems.extend(check.problems)
        digests.append(check.digest)
        self.quality = check.quality or self.quality

    def digest(self) -> str:
        """One digest of the outputs; differing repeats are a problem."""
        for kind, digests in (("set-up", self.setup_digests),
                              ("cycle", self.cycle_digests)):
            if len(set(digests)) > 1:
                self.problems.append(f"{kind} outputs differ between repeats")
        joined = "".join(self.setup_digests[:1] + self.cycle_digests[:1])
        return hashlib.sha256(joined.encode()).hexdigest()


def _setups(workload, runner, work_dir, seed, repeats, book, tag, speed):
    """Run set-up `repeats` times; keep the last one's directory.

    Returns the directory and the set-ups' (start, end) times. The host
    speed is probed before the first set-up and after each one.
    """
    spans = []
    speed.sample(0.0)
    for k in range(repeats):
        directory = os.path.join(work_dir, f"setup-{tag}{k}")
        start = time.perf_counter()
        workload.setup(runner, directory, seed, 0)
        spans.append((start, time.perf_counter()))
        speed.sample(PROBE_SHARE * (spans[-1][1] - start))
        book.add(workload.check_setup(directory), book.setup_digests)
        if k + 1 < repeats:
            shutil.rmtree(directory)
    return directory, spans


def _cycle(workload, runner, setup_dir, work_dir, book, number, speed):
    """One measured cycle in a fresh output directory, followed by host-speed
    probes for PROBE_SHARE of its time; returns its (start, end)."""
    out_dir = os.path.join(work_dir, f"cycle-{number}")
    os.makedirs(out_dir)
    start = time.perf_counter()
    workload.cycle(runner, setup_dir, out_dir, number)
    end = time.perf_counter()
    speed.sample(PROBE_SHARE * (end - start))
    book.add(workload.check(setup_dir, out_dir), book.cycle_digests)
    shutil.rmtree(out_dir)
    return start, end


def _cycles(workload, runner, setup_dir, work_dir, seconds, book, speed):
    """Closed loop: cycles back to back while the next one is expected to end
    within `seconds` (at least MIN_CYCLES)."""
    spans = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        spans.append(_cycle(workload, runner, setup_dir, work_dir, book,
                            len(spans) + 1, speed))
        now = time.perf_counter()
        if len(spans) >= MIN_CYCLES and now + (now - lap) - start > seconds:
            break
    return spans


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _command_seconds(runner) -> dict:
    out: dict[str, list] = {}
    for record in runner.records:
        if record["cycle"] > 0:
            out.setdefault(record["command"], []).append(record["seconds"])
    return out


def _ops(runner, book) -> tuple[int, int]:
    attempted = len(runner.records) + book.items
    failed = sum(r["code"] != 0 for r in runner.records) + book.failed
    return attempted, failed


def run(name, seed, seconds, trace, work_dir) -> Outcome:
    workload = workloads.WORKLOADS[name]()
    if trace:
        return _traced(workload, seed, seconds, work_dir)
    runner, book, speed = workloads.CommandRunner(), _Book(), Speed()
    setup_dir, setups = _setups(workload, runner, work_dir, seed,
                                workload.SETUP_REPEATS, book, "", speed)
    cycles = _cycles(workload, runner, setup_dir, work_dir, seconds, book,
                     speed)
    attempted, failed = _ops(runner, book)
    digest = book.digest()
    metrics = {"setup_s": _median_scaled(setups, speed),
               "cycle_s": _median_scaled(cycles, speed),
               "peak_rss_mb": _peak_rss_mb()}
    report = {"setup_s": (metrics["setup_s"], "s"),
              "cycle_s": (metrics["cycle_s"], "s"),
              "setup wall s": (_median_wall(setups), "s"),
              "cycle wall s": (_median_wall(cycles), "s"),
              "probe s": (statistics.median(speed.samples), "s"),
              **workload.report(_command_seconds(runner), book.quality),
              "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
              "ops_failed_pct": (100.0 * failed / attempted, "%")}
    return Outcome(metrics=metrics, report=report,
                   problems=runner.errors + book.problems,
                   attempted=attempted, failed=failed,
                   setups=len(setups), cycles=len(cycles), digest=digest)


def _median_scaled(spans, speed) -> float:
    """Median of the intervals in nominal seconds (see probe.py)."""
    return _median_wall(spans) * speed.factor()


def _median_wall(spans) -> float:
    return statistics.median(b - a for a, b in spans)


def _traced(workload, seed, seconds, work_dir) -> Outcome:
    """Set-up untraced and traced, one warm-up cycle, then pairs of traced and
    untraced cycles while the next pair is expected to end within `seconds`
    (at least one pair), so drift and warm-up weigh on both sides alike."""
    runner, book, tracer = workloads.CommandRunner(), _Book(), tracing.Tracer()

    def traced(fn, *args):
        tracer.install()
        runner.tracer = tracer
        try:
            return fn(*args)
        finally:
            runner.tracer = None
            tracer.uninstall()

    speed = Speed()
    _setups(workload, runner, work_dir, seed, 1, book, "plain", speed)
    setup_dir, _ = traced(_setups, workload, runner, work_dir, seed, 1, book,
                          "traced", speed)
    left = traced(tracer.unpatched_bindings)
    start = time.perf_counter()
    number = 1
    _cycle(workload, runner, setup_dir, work_dir, book, number, speed)
    spans = {True: [], False: []}
    while True:
        lap = time.perf_counter()
        for with_trace in (True, False):
            number += 1
            args = (workload, runner, setup_dir, work_dir, book, number, speed)
            spans[with_trace].append(traced(_cycle, *args) if with_trace
                                     else _cycle(*args))
        now = time.perf_counter()
        if now + (now - lap) - start > seconds:
            break
    digest = book.digest()

    problems = runner.errors + book.problems
    if left:
        problems.append(f"tracer left bindings unwrapped: {left}")
    problems += _closed_form_problems(workload, tracer.spans)

    metrics = layer_metrics(tracer.spans, len(spans[True]), workload)
    plain_s, traced_s = (_median_scaled(spans[k], speed)
                         for k in (False, True))
    overhead = 100.0 * (traced_s / plain_s - 1.0)
    metrics["trace.overhead_pct"] = overhead
    attempted, failed = _ops(runner, book)
    report = {"untraced cycle_s": (plain_s, "s"),
              "traced cycle_s": (traced_s, "s"),
              "trace.overhead_pct": (overhead, "%")}
    return Outcome(metrics=metrics, report=report, problems=problems,
                   attempted=attempted, failed=failed, setups=2,
                   cycles=number, digest=digest, tracer=tracer)


def _closed_form_problems(workload, spans) -> list[str]:
    """Traced call counts of each ``identify`` command against closed forms."""
    if not hasattr(workload, "closed_forms"):
        return []
    expected = workload.closed_forms()
    counts: dict = {}
    for span in spans:
        if span["request"] == "identify" and span["name"] in expected:
            key = (span["cycle"], span["name"])
            counts[key] = counts.get(key, 0) + 1
    cycles = {s["cycle"] for s in spans if s["name"] == "cli.identify"}
    problems = []
    for cycle in sorted(cycles):
        for name, want in expected.items():
            got = counts.get((cycle, name), 0)
            if got != want:
                problems.append(f"identify cycle {cycle}: {got} {name} calls, "
                                f"closed form gives {want}")
    if not cycles:
        problems.append("no identify command was traced")
    return problems


# --- per-layer metrics ---------------------------------------------------------

# (metric, span name, counter) for the work counts beyond calls and self time.
COUNTS = (
    ("frontend.frames", "frontend.frame_signal", "frames"),
    ("frontend.read_feature_cache.bytes", "frontend.read_feature_cache", "bytes"),
    ("frontend.write_feature_cache.bytes", "frontend.write_feature_cache", "bytes"),
    ("hmm.gauss_evals", "hmm.state_log_densities", "gauss_evals"),
    ("hmm.forward_log_likelihood.frames", "hmm.forward_log_likelihood", "frames"),
    ("hmm.viterbi.frames", "hmm.viterbi", "frames"),
    ("hmm.baum_welch.iterations", "hmm.baum_welch", "iterations"),
    ("hmm.baum_welch.frame_iters", "hmm.baum_welch", "frame_iters"),
    ("hmm.save_model.bytes", "hmm.save_model", "bytes"),
)


def layer_metrics(spans, cycles: int, workload) -> dict:
    """Per-layer numbers for one set-up plus one measured cycle.

    Set-up spans count once; spans of the measured cycles are averaged over
    the cycles. Layers that do not run in a workload read 0.
    """
    setup = tracing.aggregate(spans, lambda s: s["cycle"] == 0)
    measured = tracing.aggregate(spans, lambda s: s["cycle"] > 0)

    def value(name, key):
        return (setup.get(name, {}).get(key, 0)
                + measured.get(name, {}).get(key, 0) / cycles)

    out = {}
    for command in tracing.CLI_COMMANDS:
        out[f"cli.{command}.s"] = value(f"cli.{command}", "total_s")
        out[f"cli.{command}.self_s"] = value(f"cli.{command}", "s")
    for layer, attrs in tracing.TRACED.items():
        for attr in attrs:
            out[f"{layer}.{attr}.calls"] = value(f"{layer}.{attr}", "calls")
            out[f"{layer}.{attr}.s"] = value(f"{layer}.{attr}", "s")
    for metric, name, key in COUNTS:
        out[metric] = value(name, key)
    fits = value("hmm.baum_welch", "calls")
    out["hmm.baum_welch.converged_ratio"] = (
        value("hmm.baum_welch", "converged") / fits if fits else 0.0)
    out.update(_request_ratios(spans, cycles, workload))
    out["trace.spans_per_cycle"] = sum(s["cycle"] > 0 for s in spans) / cycles
    return out


def _request_ratios(spans, cycles: int, workload) -> dict:
    """Ratios over the CLI commands of one set-up plus one measured cycle."""
    per_request: dict = {}
    for span in spans:
        key = (span["request"], span["cycle"])
        counts = per_request.setdefault(key, {})
        counts[span["name"]] = counts.get(span["name"], 0) + 1

    used = normalised = forwards = identified = stage_b = swept = 0.0
    for (command, cycle), counts in per_request.items():
        weight = 1.0 if cycle == 0 else 1.0 / cycles
        applied = counts.get("corpus.NormalizationParams.apply", 0)
        need = workload.used_utterances(command)
        if applied and need is not None:
            used += weight * need
            normalised += weight * applied
        if command == "identify":
            forwards += weight * counts.get("hmm.forward_log_likelihood", 0)
            identified += weight * workload.test_utts
        if command == "sweep-alpha":
            stage_b += weight * counts.get(
                "recognizer.identify_speaker_given_emotion", 0)
            swept += weight * workload.test_utts * len(workloads.DEFAULT_ALPHAS)
    return {
        "corpus.normalize.useful_ratio": used / normalised if normalised else 0.0,
        "recognizer.forward_per_utt": forwards / identified if identified else 0.0,
        "evaluation.alpha_sweep.stage_b_reuse":
            1.0 - stage_b / swept if swept else 0.0,
    }
