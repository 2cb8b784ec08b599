"""Seeded ensemble experiments: learning curves, parameter sweeps, denoising.

Every trial derives its stream seed as base_seed + trial_index, and all
algorithms within a trial consume the identical materialized stream (paired
comparison). Network MSD is averaged across the non-divergent trials in the
linear domain and converted to dB at the end; divergent trials are excluded
and counted, never silently folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from diffusion_lms.analysis import (
    MsdTrace,
    detect_divergence,
    divergence_bound,
    linear_deviation,
    steady_state_msd,
)
from diffusion_lms.filters import run_filter
from diffusion_lms.network import (
    CombinationWeights,
    Topology,
    build_random_geometric,
    build_ring_lattice,
    load_edge_list,
    non_cooperative_weights,
    uniform_weights,
)
from diffusion_lms.signals import (
    ConfigError,
    DataFileError,
    FrameStream,
    default_lowpass_system,
    delay_line_source,
    gaussian_source,
    load_samples,
    synthetic_speech,
)

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_LABELS",
    "SYNTHETIC_SAMPLE_PATH",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentSetup",
    "DenoiseResult",
    "build_setup",
    "make_stream",
    "run_ensemble",
    "sweep_step_size",
    "sweep_leakage",
    "denoise_speech",
]

# the four algorithm labels, ordering x {plain, leaky}, each mapped to the
# output of the shared ATC recursion it reads (0 the combined tables, the ATC
# estimates; 1 the intermediates, the CTA estimates) and whether gamma applies
ALGORITHMS = {
    "atc_dlms": (0, False),
    "cta_dlms": (1, False),
    "atc_leaky_dlms": (0, True),
    "cta_leaky_dlms": (1, True),
}
ALGORITHM_LABELS = tuple(ALGORITHMS)

# sample_path token selecting the built-in nonstationary test signal
SYNTHETIC_SAMPLE_PATH = "synthetic"

TOPOLOGY_KINDS = ("ring_lattice", "random_geometric", "edge_list")
WEIGHT_RULES = ("uniform", "non_cooperative")
SOURCE_KINDS = ("white_gaussian", "delay_line")

# default per-node regressor-variance profile: uniform draws on this range,
# with node 14 (1-based) pinned to 0.35 on 20-node networks
VARIANCE_RANGE = (0.1, 1.0)
PINNED_NODE = 13
PINNED_VARIANCE = 0.35

# ensemble memory bound: bytes of stream, curve and buffer data per trial chunk
CHUNK_BYTES = 4 * 2**20
# rounds advanced between divergence scans; the block buffer holds this many
BLOCK_ROUNDS = 50


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; defaults give the headline
    Gaussian-input comparison (20 nodes, 0 dB SNR, mu 0.08, gamma 0.002,
    50 trials, horizon 1000).

    Construction checks every field and raises ConfigError, whose message
    starts with the offending key, so a config that exists is one that can
    run. Left to the setup and the streams, before any filter round: a
    sample or edge-list file, whether the samples' own power,
    ``regressor_variances`` and ``scale_exponent`` keep the delay-line
    input's power a float, whether ``regressor_variances`` keep the
    Gaussian one's, and whether the noise variance an ``snr_db`` gives
    against the signal power fits in a float.
    """

    # network
    nodes: int = 20
    topology: str = "random_geometric"
    radius: float = 0.35
    half_width: int = 2
    edge_list_path: str | None = None
    topology_seed: int = 42
    weights: str = "uniform"
    # model
    taps: int = 5
    coefficients: tuple[float, ...] | None = None
    snr_db: float = 0.0
    noise_variance: float | None = None
    regressor_variances: tuple[float, ...] | None = None
    # source
    source: str = "white_gaussian"
    sample_path: str = SYNTHETIC_SAMPLE_PATH
    scale_exponent: float = 2.0
    # run
    algorithms: tuple[str, ...] = ALGORITHM_LABELS
    mu: float = 0.08
    gamma: float = 0.002
    trials: int = 50
    horizon: int = 1000
    base_seed: int = 1234
    steady_window: int = 200

    def __post_init__(self) -> None:
        # bools are ints to Python; neither they nor floats can size or seed a run
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{f.name}: must be an integer, got {value!r}")
        for key, allowed in (("topology", TOPOLOGY_KINDS), ("weights", WEIGHT_RULES), ("source", SOURCE_KINDS)):
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(f"{key}: must be one of {', '.join(allowed)}; got {value!r}")
        for key in ("nodes", "taps", "trials", "horizon", "steady_window"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: must be >= 1, got {getattr(self, key)}")
        # numpy seeds its generators from non-negative integers only
        for key in ("topology_seed", "base_seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key}: must be >= 0, got {getattr(self, key)}")
        if not math.isfinite(self.scale_exponent):
            raise ConfigError(f"scale_exponent: must be finite, got {self.scale_exponent}")
        # the noise variance is calibrated by dividing by this power ratio
        try:
            snr_ratio = 10.0 ** (self.snr_db / 10.0)
        except OverflowError:
            snr_ratio = math.inf
        if not 0.0 < snr_ratio < math.inf:
            raise ConfigError(
                f"snr_db: 10**(snr_db/10) must be a finite nonzero float "
                f"(about -3236 < snr_db < 3082.5), got {self.snr_db}"
            )
        for key in ("noise_variance", "mu", "gamma"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{key}: must be finite and >= 0, got {value}")
        if not self.radius > 0.0:
            raise ConfigError(f"radius: must be positive, got {self.radius}")
        if self.half_width < 0:
            raise ConfigError(f"half_width: must be >= 0, got {self.half_width}")
        if self.topology == "ring_lattice" and 2 * self.half_width >= self.nodes:
            raise ConfigError(
                f"half_width: {self.half_width} too large for {self.nodes} nodes (need 2*half_width < nodes)"
            )
        if self.topology == "edge_list" and self.edge_list_path is None:
            raise ConfigError("edge_list_path: required when topology = edge_list")
        # a path is written back as one config value, which the parser reads
        # as unset when empty, strips, ends at a line break and cuts at a "#"
        # that starts it or follows whitespace
        for key in ("edge_list_path", "sample_path"):
            path = getattr(self, key)
            if path is None:
                continue
            comment = any(c == "#" and before.isspace() for before, c in zip(" " + path, path))
            if not path or path != path.strip() or "\n" in path or "\r" in path or comment:
                raise ConfigError(
                    f"{key}: must be non-empty, with no surrounding whitespace, line break, "
                    f"or '#' at its start or after whitespace; got {path!r}"
                )
        if self.coefficients is not None:
            if any(not math.isfinite(v) for v in self.coefficients):
                raise ConfigError("coefficients: entries must be finite")
            if not math.isfinite(sum(v * v for v in self.coefficients)):  # where every learning curve starts
                raise ConfigError("coefficients: the squared norm is beyond the float range")
            if len(self.coefficients) != self.taps:
                raise ConfigError(
                    f"coefficients: {len(self.coefficients)} entries contradict taps = {self.taps}"
                )
        if self.regressor_variances is not None:
            if len(self.regressor_variances) != self.nodes:
                raise ConfigError(
                    f"regressor_variances: {len(self.regressor_variances)} entries for {self.nodes} nodes"
                )
            if any(not (math.isfinite(v) and v > 0.0) for v in self.regressor_variances):
                raise ConfigError("regressor_variances: entries must be finite and positive")
        if not self.algorithms:
            raise ConfigError("algorithms: need at least one label")
        for label in self.algorithms:
            if label not in ALGORITHM_LABELS:
                raise ConfigError(
                    f"algorithms: unknown label {label!r} (choose from {', '.join(ALGORITHM_LABELS)})"
                )
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError("algorithms: duplicate labels")
        # a sample file sets its own length, checked when it is read
        uses_config_horizon = self.source == "white_gaussian" or self.sample_path == SYNTHETIC_SAMPLE_PATH
        if self.source == "delay_line" and self.sample_path == SYNTHETIC_SAMPLE_PATH and self.horizon < self.taps:
            raise ConfigError(f"horizon: {self.horizon} synthetic samples are fewer than taps = {self.taps}")
        if uses_config_horizon and self.steady_window > self.horizon:
            raise ConfigError(f"steady_window: {self.steady_window} exceeds horizon {self.horizon}")


@dataclass(frozen=True)
class ExperimentSetup:
    """Materialized network and model shared by every trial of a run."""

    topology: Topology
    weights: CombinationWeights
    w_o: np.ndarray
    variances: np.ndarray


@dataclass(frozen=True)
class DenoiseResult:
    """Single-run denoising byproducts at one node.

    ``filtered`` is the a-posteriori output u . w at each instant using that
    round's fresh estimate; ``residual`` is the noisy measurement minus the
    filtered output. ``clean`` (the noiseless response u . w_o) is carried
    for quality measurements against the known reference.
    """

    noisy: np.ndarray
    filtered: np.ndarray
    residual: np.ndarray
    clean: np.ndarray
    sample_rate: int | None


def build_setup(cfg: ExperimentConfig) -> ExperimentSetup:
    """The network and model of ``cfg``: its topology and combination
    weights, the unknown vector (explicit coefficients or the
    moving-average default) and the per-node regressor variances
    (explicit, or the seeded heterogeneous profile: uniform on
    VARIANCE_RANGE, node 14 pinned to 0.35 when N=20)."""
    if cfg.topology == "ring_lattice":
        topology = build_ring_lattice(cfg.nodes, cfg.half_width)
    elif cfg.topology == "random_geometric":
        topology = build_random_geometric(cfg.nodes, cfg.radius, cfg.topology_seed)
    else:
        topology = load_edge_list(cfg.edge_list_path, cfg.nodes)
    weights = uniform_weights(topology) if cfg.weights == "uniform" else non_cooperative_weights(topology.node_count)
    w_o = default_lowpass_system(cfg.taps) if cfg.coefficients is None else np.asarray(cfg.coefficients, dtype=float)
    if cfg.regressor_variances is not None:
        variances = np.asarray(cfg.regressor_variances, dtype=float)
    else:
        # the profile RNG is derived from base_seed on a spawn key so it
        # never collides with the per-trial stream seeds base_seed + t
        rng = np.random.default_rng(np.random.SeedSequence(cfg.base_seed, spawn_key=(1,)))
        variances = rng.uniform(VARIANCE_RANGE[0], VARIANCE_RANGE[1], cfg.nodes)
        if cfg.nodes == 20:
            variances[PINNED_NODE] = PINNED_VARIANCE
    return ExperimentSetup(topology=topology, weights=weights, w_o=w_o, variances=variances)


def _delay_line_samples(cfg: ExperimentConfig) -> tuple[np.ndarray, int | None]:
    if cfg.sample_path == SYNTHETIC_SAMPLE_PATH:
        # spawn-key derivation keeps the signal independent of the per-trial
        # noise streams seeded with base_seed + t
        seed = np.random.SeedSequence(cfg.base_seed, spawn_key=(2,))
        return synthetic_speech(cfg.horizon, seed), None
    samples, sample_rate = load_samples(cfg.sample_path)
    if samples.size < cfg.taps:
        raise DataFileError(f"{cfg.sample_path}: {samples.size} samples, fewer than taps = {cfg.taps}")
    return samples, sample_rate


def make_stream(
    cfg: ExperimentConfig,
    setup: ExperimentSetup,
    seed: int,
    samples: np.ndarray | None = None,
    out: tuple[np.ndarray | None, np.ndarray] | None = None,
    noise_out: np.ndarray | None = None,
) -> FrameStream:
    """Materialize one trial's measurement stream from its derived seed;
    a delay-line source takes the config's ``samples``, read once per run.

    ``out`` is an optional pair of caller tables, (T, N, M) regressors and
    (T, N) measurements, that the source draws into: the stream's arrays
    drawn there are read-only views of them, valid until the caller reuses
    the tables. A delay-line source writes only the measurements, since
    its regressors are a view of its own table and do not depend on the
    seed; its regressor entry may be None, and its measurement table may
    be time-reversed (see :func:`delay_line_source`). ``noise_out`` is an
    optional C-contiguous (T, N) noise table of the caller's in the same
    way, for either source; the delay-line source also uses it as scratch
    for the squares of its noiseless response before the noise is drawn."""
    if cfg.source == "white_gaussian":
        return gaussian_source(
            setup.variances,
            setup.w_o,
            seed=seed,
            horizon=cfg.horizon,
            snr_db=cfg.snr_db,
            noise_variance=cfg.noise_variance,
            out=out,
            noise_out=noise_out,
        )
    try:
        return delay_line_source(
            samples,
            setup.variances,
            setup.w_o,
            seed=seed,
            snr_db=cfg.snr_db,
            noise_variance=cfg.noise_variance,
            scale_exponent=cfg.scale_exponent,
            out=out,
            noise_out=noise_out,
        )
    except DataFileError as exc:
        raise DataFileError(f"{cfg.sample_path}: {exc}") from exc


def run_ensemble(cfg: ExperimentConfig, *, steady_only: bool = False) -> dict[str, MsdTrace]:
    """Ensemble-averaged learning curves, one result per algorithm label.

    Each trial draws one stream (seed base_seed + trial) shared by all
    algorithms. An algorithm whose every trial diverged has no curve
    (``per_iteration_db`` None); other labels are unaffected. Every result
    carries the first divergence in trial order. Deterministic for a fixed
    config.

    With ``steady_only`` the curves hold only the last ``cfg.steady_window``
    rounds, all a steady-state readout reads: every block is still scanned
    for divergence, so trials are kept, dropped and frozen as in the whole
    run, but only the rows of the window are reduced to deviation curves,
    and each curve's values are those of the same rounds of the whole run.
    A window longer than a sample file's trace raises ConfigError.

    ATC and CTA labels with the same (mu, gamma) share one recursion: its
    combined tables are the ATC estimates and its intermediates the CTA
    estimates, so the run holds one ATC recursion per distinct (mu, gamma)
    pair. Trials run in chunks, each batched over (trial, pair) and sized
    so that its streams, network deviation curves and block buffer fit in
    CHUNK_BYTES; memory therefore does not grow with the trial count. Each
    trial's stream is drawn into the chunk's (trials, T, N, M) regressor
    and (trials, T, N) measurement tables (see :func:`make_stream`), which
    the kernel reads in place; a delay-line chunk has no regressor table,
    since its regressors do not depend on the seed: every trial reads the
    first one's view. Each chunk advances BLOCK_ROUNDS rounds at a time
    into one block buffer of shape (rounds, output, trials, pairs, N, M),
    output 0 the combined tables and 1 the intermediates. The buffer and
    the tables are allocated once per run, and a shorter last chunk uses
    their leading trials. The buffer is idle while a chunk's streams are
    drawn, so each trial's noise is drawn into it. After every block the requested labels'
    estimates are read in place in it: when the labels fill a box of
    (output, pair) slots, as every label, one label, or the pairs of one
    output do, that box is one view, scanned for divergence and reduced to
    deviation curves in one pass; otherwise each label is its own view,
    so no slot is read that no label asks for. An estimate diverges when
    it is not finite or its max-norm passes the ``divergence_bound`` of
    the first trial's stream. Each label is judged on its own estimates
    (ATC labels on the combined tables, CTA labels on the
    intermediates), so the labels of one recursion can keep and drop
    different trials. A (trial, label) that diverges anywhere is dropped
    whole when the chunk ends, and its curve rows hold no meaningful
    values; a (trial, pair) whose labels have all diverged is
    held at zero, and a chunk stops once every one of its (trial, pair)s
    is held; a chunk with any live pair runs the whole horizon. The
    averages match running every (trial, label) on its own exactly.
    """
    setup = build_setup(cfg)
    setup.weights.validate_support(setup.topology)
    # per label: which recursion output (0 combined, 1 intermediate) of which pair
    labels = [
        (output, (cfg.mu, cfg.gamma if leaky else 0.0))
        for output, leaky in (ALGORITHMS[label] for label in cfg.algorithms)
    ]
    pairs = list(dict.fromkeys(pair for _, pair in labels))
    slots = [(output, pairs.index(pair)) for output, pair in labels]
    steps = np.array(pairs)
    gamma = steps[:, 1, None, None]
    feeds = np.arange(len(pairs))[:, None] == np.array([p for _, p in slots])  # (pair, label)

    # each group: a box of outputs [o0, o1) x pairs [p0, p1) and its labels
    # with their (output, pair) offsets in it. Every pair feeds a label, so
    # the labels' box spans all pairs and the outputs they read. Both readouts
    # stay, each chosen from the label set, with a benchmark workload on each
    # side: headline_run and mu_sweep read one box, and large_network, whose
    # two labels fill half of theirs, one view per label
    lo, hi = min(o for o, _ in slots), max(o for o, _ in slots) + 1
    if len(set(slots)) == (hi - lo) * len(pairs):
        groups = [((lo, hi, 0, len(pairs)), [(s, o - lo, p) for s, (o, p) in enumerate(slots)])]
    else:
        groups = [((o, o + 1, p, p + 1), [(s, 0, 0)]) for s, (o, p) in enumerate(slots)]

    samples = _delay_line_samples(cfg)[0] if cfg.source == "delay_line" else None
    horizon = cfg.horizon if samples is None else samples.size
    # the curves hold the rounds from `skip` on: all of them, or the steady window
    window = cfg.steady_window if steady_only else horizon
    if window > horizon:
        raise ConfigError(f"steady_window {cfg.steady_window} exceeds trace length {horizon}")
    skip = horizon - window
    n, m = setup.topology.node_count, setup.w_o.size
    chunk = min(cfg.trials, _chunk_trials(horizon, n, m, len(pairs), len(slots), samples is not None, window))
    # the chunk buffers, reused by every chunk: the block buffer, the tables
    # the streams are drawn into (Gaussian regressors and every trial's
    # measurements), and the curves. The block buffer is idle while a
    # chunk's streams are drawn, so each trial's noise is drawn into it
    shape = (BLOCK_ROUNDS + 1, 2, chunk, len(pairs), n, m)
    block_table = np.empty(max(math.prod(shape), horizon * n))
    outputs = block_table[: math.prod(shape)].reshape(shape)
    noise = block_table[: horizon * n].reshape(horizon, n)
    u_table = np.empty((chunk, horizon, n, m)) if samples is None else None
    d_table = np.empty((chunk, horizon, n))
    net = np.empty((window, chunk, len(slots)))
    acc_net = np.zeros((len(slots), window))
    kept = [0] * len(slots)
    first_failure: dict[int, tuple[int, int]] = {}
    for first in range(0, cfg.trials, chunk):
        trials = range(first, min(first + chunk, cfg.trials))
        k = len(trials)
        for j, t in enumerate(trials):
            # only the regressor view outlives the call: each stream is
            # dropped once its tables are filled
            tables = None if u_table is None else u_table[j], d_table[j]
            stream = make_stream(cfg, setup, cfg.base_seed + t, samples, out=tables, noise_out=noise)
            if t == 0:
                # neither a large unknown vector nor loud noise is divergence:
                # the bound follows the first trial's data, once per run
                bound = divergence_bound(setup.w_o, stream.u, stream.noise_variance)
            if j == 0:
                first_u = stream.u
            del stream
        # the data, with one trial axis that broadcasts over the pairs; the
        # delay-line regressors do not depend on the seed, so every trial of
        # the chunk reads the first one's
        u = first_u[:, None, None] if u_table is None else u_table[:k].swapaxes(0, 1)[:, :, None]
        d = d_table[:k].swapaxes(0, 1)[:, :, None]
        buffer = outputs[:, :, :k]
        buffer[0, 0] = 0.0
        mu = np.tile(steps[:, 0, None, None], (k, 1, 1, 1))
        first_it = np.full((k, len(slots)), -1)
        first_node = np.full((k, len(slots)), -1)
        for start in range(0, horizon, BLOCK_ROUNDS):
            stop = min(start + BLOCK_ROUNDS, horizon)
            rows = stop - start + 1
            run_filter(
                setup.weights,
                mu,
                gamma,
                u[start:stop],
                d[start:stop],
                out=buffer[:rows, 0],
                phi_out=buffer[:rows, 1],
            )
            # the whole block is scanned, the rounds before the window are not reduced
            lo = max(start, skip)
            for (o0, o1, p0, p1), members in groups:
                view = buffer[1:rows, o0:o1, :, p0:p1]
                report = detect_divergence(view, bound)
                if lo < stop:
                    with np.errstate(over="ignore", invalid="ignore"):
                        deviation = linear_deviation(view[lo - start :], setup.w_o)
                for s, o, p in members:
                    if report.divergent:
                        its = report.first_iterations[o, :, p]
                        fresh = (its >= 0) & (first_it[:, s] < 0)
                        first_it[fresh, s] = start + its[fresh]
                        first_node[fresh, s] = report.nodes[o, :, p][fresh]
                    if lo < stop:
                        net[lo - skip : stop - skip, :k, s] = deviation[:, o, :, p]
            buffer[0, 0] = buffer[rows - 1, 0]
            # a (trial, pair) is frozen once every label it feeds has diverged
            live = ((first_it < 0)[:, None, :] & feeds).any(axis=-1)
            if not live.any():
                break
            mu[~live] = 0.0
            buffer[0, 0][~live] = 0.0
        # trial order, so that the sums do not depend on the chunking
        for j in range(k):
            for s in range(len(slots)):
                if first_it[j, s] >= 0:
                    first_failure.setdefault(s, (int(first_it[j, s]), int(first_node[j, s])))
                else:
                    acc_net[s] += net[:, j, s]
                    kept[s] += 1

    results: dict[str, MsdTrace] = {}
    for s, label in enumerate(cfg.algorithms):
        net_db = None
        if kept[s]:
            with np.errstate(divide="ignore"):
                net_db = 10.0 * np.log10(acc_net[s] / kept[s])
        results[label] = MsdTrace(
            per_iteration_db=net_db,
            trials=cfg.trials,
            divergent_trials=cfg.trials - kept[s],
            first_divergence=first_failure.get(s),
        )
    return results


def _chunk_trials(horizon: int, n: int, m: int, pairs: int, labels: int, delay_line: bool, window: int) -> int:
    """Trials per chunk under CHUNK_BYTES. A trial holds its rows of the
    tables its stream is drawn into (Gaussian regressors and every
    source's measurements), one network deviation curve per label over
    the last ``window`` rounds and its rows of the block buffer (both
    outputs of every pair). A delay-line trial holds no regressors: they
    do not depend on the seed, so the chunk's trials all read the first
    one's view of its (N, T + M - 1) table. A stream's noise is not
    counted: it is drawn into the block buffer, which is idle while the
    chunk's streams are drawn and is allocated with at least T * N
    floats."""
    regressors = 0 if delay_line else horizon * n * m
    per_trial = regressors + horizon * n + labels * window + 2 * pairs * (BLOCK_ROUNDS + 1) * n * m
    return max(1, CHUNK_BYTES // (8 * per_trial))


def _sweep(
    cfg: ExperimentConfig, field: str, grid: tuple[float, ...]
) -> dict[str, tuple[tuple[float, float | None], ...]]:
    if len(grid) == 0:
        raise ConfigError("sweep grid must be nonempty")
    out: dict[str, list[tuple[float, float | None]]] = {label: [] for label in cfg.algorithms}
    for value in grid:
        point_cfg = replace(cfg, **{field: float(value)})
        for label, res in run_ensemble(point_cfg, steady_only=True).items():
            db = None if res.per_iteration_db is None else steady_state_msd(res, cfg.steady_window)
            out[label].append((float(value), db))
    return {label: tuple(points) for label, points in out.items()}


def sweep_step_size(
    cfg: ExperimentConfig, mu_grid: tuple[float, ...]
) -> dict[str, tuple[tuple[float, float | None], ...]]:
    """Steady-state MSD versus step size: one ensemble per grid point,
    which reduces only its last ``steady_window`` rounds (see
    :func:`run_ensemble`'s ``steady_only``).

    A grid point where the algorithm's every trial diverged is reported as
    None, never as a number.
    """
    if not all(math.isfinite(v) and v > 0.0 for v in mu_grid):
        raise ConfigError(f"mu grid values must be finite and positive, got {mu_grid}")
    return _sweep(cfg, "mu", tuple(mu_grid))


def sweep_leakage(
    cfg: ExperimentConfig, gamma_grid: tuple[float, ...]
) -> dict[str, tuple[tuple[float, float | None], ...]]:
    """Steady-state MSD versus leakage coefficient; gamma = 0 entries
    coincide with plain diffusion LMS."""
    if not all(math.isfinite(v) and v >= 0.0 for v in gamma_grid):
        raise ConfigError(f"gamma grid values must be finite and >= 0, got {gamma_grid}")
    return _sweep(cfg, "gamma", tuple(gamma_grid))


def denoise_speech(cfg: ExperimentConfig, node: int) -> DenoiseResult:
    """One delay-line run; emit the noisy, filtered, and residual sequences
    at ``node`` (0-based).

    Uses the first algorithm label in the config and the stream seeded with
    base_seed (no ensemble).
    """
    if cfg.source != "delay_line":
        raise ConfigError(f"source: denoising requires a delay_line source, got {cfg.source}")
    setup = build_setup(cfg)
    setup.weights.validate_support(setup.topology)
    if not 0 <= node < setup.topology.node_count:
        raise ValueError(f"node {node} out of range for {setup.topology.node_count} nodes")
    samples, sample_rate = _delay_line_samples(cfg)
    output, leaky = ALGORITHMS[cfg.algorithms[0]]
    n, m = setup.topology.node_count, setup.w_o.size
    noise, d, kept = _denoise_tables(samples.size, n, m, node)
    stream = make_stream(cfg, setup, cfg.base_seed, samples=samples, out=(None, d), noise_out=noise)
    noisy = stream.d[:, node].copy()
    kept[0] = 0.0
    unread = np.lib.stride_tricks.as_strided(np.zeros((n, m)), kept.shape, (0,) + kept.strides[1:])
    out, phi_out = (kept, unread) if output == 0 else (unread, kept)
    run_filter(setup.weights, cfg.mu, cfg.gamma if leaky else 0.0, stream.u, stream.d, out=out, phi_out=phi_out)

    u_node = stream.u[:, node, :]
    w_node = kept[1:, node, :]
    filtered = np.einsum("im,im->i", u_node, w_node)
    return DenoiseResult(
        noisy=noisy,
        filtered=filtered,
        residual=noisy - filtered,
        clean=u_node @ setup.w_o,
        sample_rate=sample_rate,
    )


def _denoise_tables(horizon: int, n: int, m: int, node: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of one scratch table of max((T * s + N) * M, 2 * T * N) floats,
    s = min(node + 1, N - node): the stream's (T, N) noise and measurements
    d, and the (T + 1, N, M) kept estimate rows of ``node``. Nothing is
    zeroed.

    run_filter writes row i of a buffer only after its last read of row
    i - 1 and reads no row of d after its round, so the three may share
    memory. Kept row i starts s node rows after row i - 1 (step node + 1,
    just past the node's entry of row i - 1) or before it (step node - N,
    ending just before that entry), so no later row covers the node's
    entries and the rows take at most half a stack. The noise lies where
    kept row 0 goes: it is dead once added to d, before row 0 is written.
    d lies at the end the kept rows move toward, in the order they pass it
    (time-reversed for step node - N). Kept row i then ends where row i of
    d starts or before, so round i writes only over rows of d that rounds 1
    to i read: row 0 because T >= M, later rows because they move s * M
    entries a round against d's N and the last one ends at the table's end
    at most."""
    s = min(node + 1, n - node)
    size = (horizon * s + n) * m
    table = np.empty(max(size, 2 * horizon * n))
    head, tail = table[: horizon * n].reshape(horizon, n), table[-horizon * n :].reshape(horizon, n)
    shape, strides = (horizon + 1, n, m), (s * m * table.itemsize, m * table.itemsize, table.itemsize)
    if node < n - node:
        return head, tail, np.lib.stride_tricks.as_strided(table[:size], shape, strides)
    return tail, head[::-1], np.lib.stride_tricks.as_strided(table[-size:], shape, strides)[::-1]
