"""Traced runs: spans and counts at the program's layer boundaries.

The tracer wraps, from outside the program, the names the ``experiment``
and ``cli`` modules call into other layers, plus
``CombinationWeights.validate_support``. Module functions are looked up in
the caller's namespace at call time, so replacing the name there puts a
span around every call. A span's layer is the module that defines the
wrapped function. Spans are kept in memory and written out when the run
ends.

Self time is a span's duration minus the durations of its child spans. The
program is single-threaded, so the children of a span never overlap.
Counting done by the tracer after a wrapped call is itself recorded as a
``perfbench.count`` span, so it is charged to no layer.

Spans are timed on the execution's program clock, which stops while the
calibration kernel runs, and every time metric is scaled to the reference
host speed by the same factor as the execution's ``wall_s``. So layer times
and end-to-end times are in the same units, and the self times of one
execution add up to its ``wall_s``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable

LAYERS = ("config", "network", "signals", "filters", "analysis", "experiment", "cli")
ALL = frozenset(("headline_run", "mu_sweep", "denoise_wav", "large_network"))
ENSEMBLE = frozenset(("headline_run", "mu_sweep", "large_network"))
GEOMETRIC = frozenset(("headline_run", "mu_sweep", "denoise_wav"))
NONE: frozenset[str] = frozenset()

# (module whose namespace is patched, attribute path, workloads that must call it)
BOUNDARIES = (
    ("cli", "parse_config", ALL),
    ("cli", "format_config", ALL),
    ("cli", "run_ensemble", frozenset(("headline_run", "large_network"))),
    ("cli", "sweep_step_size", frozenset(("mu_sweep",))),
    ("cli", "sweep_leakage", NONE),
    ("cli", "denoise_speech", frozenset(("denoise_wav",))),
    ("cli", "wav_bytes", frozenset(("denoise_wav",))),
    ("experiment", "build_setup", ALL),
    ("experiment", "run_ensemble", frozenset(("mu_sweep",))),
    ("experiment", "make_stream", ALL),
    ("experiment", "build_random_geometric", GEOMETRIC),
    ("experiment", "build_ring_lattice", frozenset(("large_network",))),
    ("experiment", "load_edge_list", NONE),
    ("experiment", "uniform_weights", ALL),
    ("experiment", "non_cooperative_weights", NONE),
    ("experiment", "default_lowpass_system", ALL),
    ("experiment", "gaussian_source", ENSEMBLE),
    ("experiment", "delay_line_source", frozenset(("denoise_wav",))),
    ("experiment", "load_samples", frozenset(("denoise_wav",))),
    ("experiment", "synthetic_speech", NONE),
    ("experiment", "run_filter", ALL),
    ("experiment", "detect_divergence", ENSEMBLE),
    ("experiment", "linear_deviation", ENSEMBLE),
    ("experiment", "steady_state_msd", frozenset(("mu_sweep",))),
    ("network", "CombinationWeights.validate_support", ALL),
)

COUNT_SPAN = "perfbench.count"

# per-layer metrics: name -> unit; *_s values are self times in seconds
PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "config.self_s": "s",
    "network.build_s": "s",
    "network.weights_s": "s",
    "network.validate_support_s": "s",
    "network.validate_support_calls": "count",
    "network.self_s": "s",
    "signals.stream_s": "s",
    "signals.samples_s": "s",
    "signals.streams": "count",
    "signals.unique_streams": "count",
    "signals.stream_reuse": "ratio",
    "signals.stream_bytes": "B",
    "signals.self_s": "s",
    "filters.run_filter_s": "s",
    "filters.calls": "count",
    "filters.rounds": "count",
    "filters.us_per_round": "us",
    "filters.flops": "flop",
    "filters.snapshot_bytes": "B",
    "filters.gflops": "Gflop/s",
    "filters.wasted_rounds": "count",
    "filters.useful_round_ratio": "ratio",
    "filters.self_s": "s",
    "analysis.divergence_s": "s",
    "analysis.deviation_s": "s",
    "analysis.diverged_trials": "count",
    "analysis.self_s": "s",
    "experiment.self_s": "s",
    "experiment.setup_builds": "count",
    "experiment.ensembles": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "trace.measured_wall_s": "s",
    "trace.scale": "ratio",
}

# per-layer times: scaled to the reference host speed like wall_s
SCALED = (
    "config.parse_s",
    "network.build_s",
    "network.weights_s",
    "network.validate_support_s",
    "signals.stream_s",
    "signals.samples_s",
    "filters.run_filter_s",
    "analysis.divergence_s",
    "analysis.deviation_s",
    *(f"{layer}.self_s" for layer in LAYERS),
)

# counts that must repeat exactly from one traced execution to the next
EXACT_COUNTS = (
    "network.validate_support_calls",
    "signals.streams",
    "signals.unique_streams",
    "signals.stream_bytes",
    "filters.calls",
    "filters.rounds",
    "filters.flops",
    "filters.snapshot_bytes",
    "filters.wasted_rounds",
    "analysis.diverged_trials",
    "experiment.setup_builds",
    "experiment.ensembles",
    "cli.bytes_written",
    "cli.files_written",
    "trace.spans",
)


class TraceError(RuntimeError):
    """A boundary is missing, recorded no spans where it must, or a count
    did not repeat."""


def round_flops(n: int, m: int) -> int:
    """Floating-point operations of one dense ATC or CTA round as the
    kernel computes it: three N x N x M products (u w^T, u^T E, a^T phi),
    the N x N error and weighting, and the N x M scale-and-add."""
    return 6 * n * n * m + 2 * n * n + 3 * n * m


def _count_run_filter(tracer: "Tracer", args, result) -> None:
    rounds, n, m = result.shape[0] - 1, result.shape[1], result.shape[2]
    tracer.counts["filters.calls"] += 1
    tracer.counts["filters.rounds"] += rounds
    tracer.counts["filters.flops"] += rounds * round_flops(n, m)
    tracer.counts["filters.snapshot_bytes"] += result.nbytes


def _count_stream(tracer: "Tracer", args, result) -> None:
    tracer.counts["signals.streams"] += 1
    tracer.counts["signals.stream_bytes"] += result.u.nbytes + result.d.nbytes + result.noise.nbytes
    digest = hashlib.blake2b(result.u.tobytes(), digest_size=16)
    digest.update(result.d.tobytes())
    tracer.stream_digests.add(digest.hexdigest())


def _count_divergence(tracer: "Tracer", args, result) -> None:
    if result.divergent:
        tracer.counts["analysis.diverged_trials"] += 1
        # rounds run after the one whose estimate crossed the threshold
        tracer.counts["filters.wasted_rounds"] += args[0].shape[0] - (result.first_iteration + 1)


def _count_call(name: str):
    def count(tracer: "Tracer", args, result) -> None:
        tracer.counts[name] += 1

    return count


COUNTERS = {
    "run_filter": _count_run_filter,
    "gaussian_source": _count_stream,
    "delay_line_source": _count_stream,
    "detect_divergence": _count_divergence,
    "validate_support": _count_call("network.validate_support_calls"),
    "build_setup": _count_call("experiment.setup_builds"),
    "run_ensemble": _count_call("experiment.ensembles"),
}


@dataclass
class Tracer:
    """Installs the boundary wrappers and records spans and counts."""

    workload: str
    spans: list[list] = field(default_factory=list)  # [name, start, end, parent, execution]
    execution: int = -1
    counts: Counter = field(default_factory=Counter)  # of the current execution
    stream_digests: set[str] = field(default_factory=set)  # of the current execution
    _per_execution: list[tuple[Counter, set[str]]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _calls: Counter = field(default_factory=Counter)
    _clock: Callable[[], float] = perf_counter

    def __enter__(self) -> "Tracer":
        for module_name, path, _ in BOUNDARIES:
            owner = importlib.import_module(f"diffusion_lms.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.__exit__()
                raise TraceError(f"boundary {module_name}:{path} is missing")
            layer = original.__module__.rpartition(".")[2]
            if layer not in LAYERS:
                self.__exit__()
                raise TraceError(f"boundary {module_name}:{path} is defined outside the layers ({layer})")
            boundary = f"{module_name}:{path}"
            setattr(owner, attr, self._wrap(f"{layer}.{original.__name__}", original, boundary))
            self._patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, boundary: str | None = None):
        counter = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.execution]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if boundary is not None:
                self._calls[boundary] += 1
            span[1] = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self._clock()
                self._stack.pop()
            if counter is not None:
                start = self._clock()
                counter(self, args, result)
                self.spans.append([COUNT_SPAN, start, self._clock(), parent, self.execution])
            return result

        return traced

    def run(self, main, argv: list[str], clock: Callable[[], float] = perf_counter) -> int:
        """One traced execution of ``main(argv)``, timed on ``clock``; its
        span is the top level."""
        self._clock = clock
        self.execution += 1
        self.counts, self.stream_digests = Counter(), set()
        self._per_execution.append((self.counts, self.stream_digests))
        return self._wrap("cli.main", main)(argv)

    def check_boundaries(self) -> None:
        """Fail when a boundary the workload uses recorded no span."""
        silent = [
            f"{module_name}:{path}"
            for module_name, path, used_by in BOUNDARIES
            if self.workload in used_by and self._calls[f"{module_name}:{path}"] == 0
        ]
        if silent:
            raise TraceError(f"{self.workload}: boundaries recorded no spans: {', '.join(silent)}")

    def execution_metrics(
        self, execution: int, wall_s: float, scale: float, files: dict[str, int]
    ) -> dict[str, float]:
        """Per-layer metrics of one traced execution (before cross-run
        medians). ``wall_s`` is on the program clock, and ``scale`` turns
        program-clock seconds into seconds at the reference speed."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == execution]
        self_s: dict[int, float] = {i: s[2] - s[1] for i, s in spans}
        for i, s in spans:
            if s[3] is not None:
                self_s[s[3]] -= s[2] - s[1]
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        for i, s in spans:
            by_name[s[0]] += self_s[i]
            by_layer[s[0].partition(".")[0]] += self_s[i]
        c, digests = self._per_execution[execution]
        rounds = c["filters.rounds"]
        streams = c["signals.streams"]
        m = {
            "config.parse_s": by_name["config.parse_config"],
            "network.build_s": sum(
                by_name[f"network.{f}"] for f in ("build_random_geometric", "build_ring_lattice", "load_edge_list")
            ),
            "network.weights_s": by_name["network.uniform_weights"] + by_name["network.non_cooperative_weights"],
            "network.validate_support_s": by_name["network.validate_support"],
            "signals.stream_s": by_name["signals.gaussian_source"] + by_name["signals.delay_line_source"],
            "signals.samples_s": by_name["signals.load_samples"] + by_name["signals.synthetic_speech"],
            "signals.unique_streams": len(digests),
            "filters.run_filter_s": by_name["filters.run_filter"],
            "analysis.divergence_s": by_name["analysis.detect_divergence"],
            "analysis.deviation_s": by_name["analysis.linear_deviation"],
            "cli.bytes_written": sum(files.values()),
            "cli.files_written": len(files),
            "trace.coverage": sum(s[2] - s[1] for _, s in spans if s[3] is None) / wall_s,
            "trace.spans": len(spans),
        }
        for name in EXACT_COUNTS:
            m.setdefault(name, c[name])
        for layer in LAYERS:
            m[f"{layer}.self_s"] = by_layer[layer]
        for name in SCALED:
            m[name] *= scale
        m["signals.stream_reuse"] = m["signals.unique_streams"] / streams if streams else 0.0
        m["filters.us_per_round"] = 1e6 * m["filters.run_filter_s"] / rounds if rounds else 0.0
        m["filters.gflops"] = c["filters.flops"] / m["filters.run_filter_s"] / 1e9 if rounds else 0.0
        m["filters.useful_round_ratio"] = (rounds - c["filters.wasted_rounds"]) / rounds if rounds else 0.0
        return m


def summarize(
    per_execution: list[dict[str, float]],
    traced_wall: list[float],
    untraced_wall: list[float],
    measured_wall: list[float],
    scales: list[float],
) -> dict[str, float]:
    """Medians across traced executions; counts must repeat exactly.
    ``traced_wall`` and ``untraced_wall`` are scaled; ``measured_wall`` and
    ``scales`` are the untraced executions' program-clock times and scale
    factors."""
    first = per_execution[0]
    for other in per_execution[1:]:
        moved = {k: (first[k], other[k]) for k in EXACT_COUNTS if other[k] != first[k]}
        if moved:
            raise TraceError(f"counts did not repeat across traced executions: {moved}")
    out = {k: first[k] if k in EXACT_COUNTS else median(e[k] for e in per_execution) for k in first}
    out["trace.overhead_s"] = median(traced_wall) - median(untraced_wall)
    out["trace.measured_wall_s"] = median(measured_wall)
    out["trace.scale"] = median(scales)
    return out
