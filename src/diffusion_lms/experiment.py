"""Seeded ensemble experiments: learning curves, parameter sweeps, denoising.

Every trial derives its stream seed as base_seed + trial_index, and all
algorithms within a trial consume the identical materialized stream (paired
comparison). Network MSD is averaged across the non-divergent trials in the
linear domain and converted to dB at the end; divergent trials are excluded
and counted, never silently folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from diffusion_lms.analysis import (
    MsdTrace,
    detect_divergence,
    linear_deviation,
    steady_state_msd,
)
from diffusion_lms.filters import ORDERINGS, AlgorithmSpec, BatchSpec, FrameBlock, run_filter
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
    FrameStream,
    default_lowpass_system,
    delay_line_source,
    gaussian_source,
    load_samples,
    synthetic_speech,
)

__all__ = [
    "ALGORITHM_LABELS",
    "SYNTHETIC_SAMPLE_PATH",
    "ExperimentConfig",
    "ExperimentSetup",
    "EnsembleDivergence",
    "DenoiseResult",
    "algorithm_spec",
    "build_setup",
    "make_stream",
    "run_ensemble",
    "sweep_step_size",
    "sweep_leakage",
    "denoise_speech",
]

# the four algorithm labels: ordering x {plain, leaky}
ALGORITHM_LABELS = ("atc_dlms", "cta_dlms", "atc_leaky_dlms", "cta_leaky_dlms")

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
# rounds advanced between divergence scans; the block buffers hold this many
BLOCK_ROUNDS = 50


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; defaults give the headline
    Gaussian-input comparison (20 nodes, 0 dB SNR, mu 0.08, gamma 0.002,
    50 trials, horizon 1000)."""

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


@dataclass(frozen=True)
class ExperimentSetup:
    """Materialized network and model shared by every trial of a run."""

    topology: Topology
    weights: CombinationWeights
    w_o: np.ndarray
    variances: np.ndarray


@dataclass(frozen=True)
class EnsembleDivergence:
    """Marker result for an algorithm whose every trial diverged."""

    trials: int
    first_iteration: int | None
    node: int | None


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


def algorithm_spec(label: str, mu: float, gamma: float) -> AlgorithmSpec:
    """Map an algorithm label to its ordering and effective leakage."""
    if label not in ALGORITHM_LABELS:
        raise ValueError(f"unknown algorithm label {label!r}")
    ordering = "atc" if label.startswith("atc") else "cta"
    effective_gamma = gamma if "leaky" in label else 0.0
    return AlgorithmSpec(ordering=ordering, mu=mu, gamma=effective_gamma)


def build_topology(cfg: ExperimentConfig) -> Topology:
    if cfg.topology == "ring_lattice":
        return build_ring_lattice(cfg.nodes, cfg.half_width)
    if cfg.topology == "random_geometric":
        return build_random_geometric(cfg.nodes, cfg.radius, cfg.topology_seed)
    if cfg.topology == "edge_list":
        if not cfg.edge_list_path:
            raise ValueError("edge_list topology requires edge_list_path")
        topo = load_edge_list(cfg.edge_list_path)
        if topo.node_count != cfg.nodes:
            raise ValueError(
                f"edge list has {topo.node_count} nodes, config says {cfg.nodes}"
            )
        return topo
    raise ValueError(f"unknown topology kind {cfg.topology!r}")


def build_weights(cfg: ExperimentConfig, topology: Topology) -> CombinationWeights:
    if cfg.weights == "uniform":
        return uniform_weights(topology)
    if cfg.weights == "non_cooperative":
        return non_cooperative_weights(topology.node_count)
    raise ValueError(f"unknown weight rule {cfg.weights!r}")


def resolve_system(cfg: ExperimentConfig) -> np.ndarray:
    """The unknown vector: explicit coefficients or the moving-average default."""
    if cfg.coefficients is not None:
        w_o = np.asarray(cfg.coefficients, dtype=float)
        if w_o.ndim != 1 or w_o.size == 0 or not np.isfinite(w_o).all():
            raise ValueError("coefficients must be a nonempty finite vector")
        return w_o
    return default_lowpass_system(cfg.taps)


def resolve_variances(cfg: ExperimentConfig) -> np.ndarray:
    """Per-node regressor variances: explicit, or the seeded heterogeneous
    profile (uniform on VARIANCE_RANGE, node 14 pinned to 0.35 when N=20).

    The profile RNG is derived from base_seed on a spawn key so it never
    collides with the per-trial stream seeds base_seed + t.
    """
    if cfg.regressor_variances is not None:
        var = np.asarray(cfg.regressor_variances, dtype=float)
        if var.shape != (cfg.nodes,):
            raise ValueError(
                f"regressor_variances has {var.size} entries for {cfg.nodes} nodes"
            )
        if (var <= 0.0).any() or not np.isfinite(var).all():
            raise ValueError("regressor_variances must be finite and positive")
        return var
    rng = np.random.default_rng(np.random.SeedSequence(cfg.base_seed, spawn_key=(1,)))
    var = rng.uniform(VARIANCE_RANGE[0], VARIANCE_RANGE[1], cfg.nodes)
    if cfg.nodes == 20:
        var[PINNED_NODE] = PINNED_VARIANCE
    return var


def build_setup(cfg: ExperimentConfig) -> ExperimentSetup:
    topology = build_topology(cfg)
    return ExperimentSetup(
        topology=topology,
        weights=build_weights(cfg, topology),
        w_o=resolve_system(cfg),
        variances=resolve_variances(cfg),
    )


def _delay_line_samples(cfg: ExperimentConfig) -> tuple[np.ndarray, int | None]:
    if cfg.sample_path == SYNTHETIC_SAMPLE_PATH:
        # spawn-key derivation keeps the signal independent of the per-trial
        # noise streams seeded with base_seed + t
        seed = np.random.SeedSequence(cfg.base_seed, spawn_key=(2,))
        return synthetic_speech(cfg.horizon, seed), None
    loaded = load_samples(cfg.sample_path)
    return loaded.data, loaded.sample_rate


def _trace_length(cfg: ExperimentConfig) -> int:
    """Rounds per trial: the sample count of a delay-line input file, else
    the configured horizon (the synthetic signal is generated at it)."""
    if cfg.source == "delay_line" and cfg.sample_path != SYNTHETIC_SAMPLE_PATH:
        return load_samples(cfg.sample_path).data.size
    return cfg.horizon


def make_stream(
    cfg: ExperimentConfig,
    setup: ExperimentSetup,
    seed: int,
    samples: np.ndarray | None = None,
) -> FrameStream:
    """Materialize one trial's measurement stream from its derived seed."""
    if cfg.source == "white_gaussian":
        return gaussian_source(
            setup.variances,
            setup.w_o,
            seed=seed,
            horizon=cfg.horizon,
            snr_db=cfg.snr_db,
            noise_variance=cfg.noise_variance,
        )
    if cfg.source == "delay_line":
        if samples is None:
            samples = _delay_line_samples(cfg)[0]
        return delay_line_source(
            samples,
            setup.variances,
            setup.w_o,
            seed=seed,
            snr_db=cfg.snr_db,
            noise_variance=cfg.noise_variance,
            scale_exponent=cfg.scale_exponent,
        )
    raise ValueError(f"unknown source kind {cfg.source!r}")


def run_ensemble(cfg: ExperimentConfig) -> dict[str, MsdTrace | EnsembleDivergence]:
    """Ensemble-averaged learning curves, one per algorithm label.

    Each trial draws one stream (seed base_seed + trial) shared by all
    algorithms. An algorithm whose every trial diverged maps to an
    EnsembleDivergence marker instead of a trace; other labels are
    unaffected. Deterministic for a fixed config.

    ATC and CTA labels with the same (mu, gamma) share one recursion: its
    combined tables are the ATC estimates and its intermediates the CTA
    estimates, so the run holds one ATC recursion per distinct (mu, gamma)
    pair. Trials run in chunks, each batched over (trial, pair) and sized
    so that its streams, network deviation curves and block buffers fit in
    CHUNK_BYTES; memory therefore does not grow with the trial count. Each
    chunk advances BLOCK_ROUNDS rounds at a time, and after every block the
    requested estimates are scanned for divergence and reduced to one
    network deviation curve per label. Each label is judged on its own
    estimates (ATC labels on the combined tables, CTA labels on the
    intermediates), so the labels of one recursion can keep and drop
    different trials. A (trial, label) that diverges anywhere is dropped
    whole when the chunk ends; a (trial, pair) whose labels have all
    diverged is held at zero. Every chunk runs the whole horizon, so the
    cost of a run does not depend on where or whether its trials diverge.
    The averages match running every (trial, label) on its own exactly.
    """
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    if not cfg.algorithms:
        raise ValueError("need at least one algorithm label")
    setup = build_setup(cfg)
    setup.weights.validate_support(setup.topology)
    specs = [algorithm_spec(label, cfg.mu, cfg.gamma) for label in cfg.algorithms]
    pairs = list(dict.fromkeys((spec.mu, spec.gamma) for spec in specs))
    # per label: which recursion output (0 combined, 1 intermediate) of which pair
    slots = [(ORDERINGS.index(spec.ordering), pairs.index((spec.mu, spec.gamma))) for spec in specs]

    samples = _delay_line_samples(cfg)[0] if cfg.source == "delay_line" else None
    horizon = cfg.horizon if samples is None else samples.size
    n = setup.topology.node_count
    chunk = min(cfg.trials, _chunk_trials(horizon, n, setup.w_o.size, len(pairs), len(slots)))
    acc_net = np.zeros((len(slots), horizon))
    # the chunk's deviation curves, reused by every chunk
    net = np.empty((horizon, chunk, len(slots)))
    kept = [0] * len(slots)
    first_failure: dict[int, tuple[int, int]] = {}
    for start in range(0, cfg.trials, chunk):
        trials = range(start, min(start + chunk, cfg.trials))
        first_it, first_node = _run_chunk(
            setup,
            [make_stream(cfg, setup, cfg.base_seed + t, samples=samples) for t in trials],
            pairs,
            slots,
            net[:, : len(trials)],
        )
        # trial order, so that the sums do not depend on the chunking
        for j in range(len(trials)):
            for s in range(len(slots)):
                if first_it[j, s] >= 0:
                    first_failure.setdefault(s, (int(first_it[j, s]), int(first_node[j, s])))
                else:
                    acc_net[s] += net[:, j, s]
                    kept[s] += 1

    results: dict[str, MsdTrace | EnsembleDivergence] = {}
    for s, label in enumerate(cfg.algorithms):
        if kept[s] == 0:
            it, k = first_failure[s]
            results[label] = EnsembleDivergence(trials=cfg.trials, first_iteration=it, node=k)
            continue
        with np.errstate(divide="ignore"):
            net_db = 10.0 * np.log10(acc_net[s] / kept[s])
        results[label] = MsdTrace(
            per_iteration_db=net_db,
            trials=cfg.trials,
            divergent_trials=cfg.trials - kept[s],
        )
    return results


def _chunk_trials(horizon: int, n: int, m: int, pairs: int, labels: int) -> int:
    """Trials per chunk under CHUNK_BYTES. A trial holds its stream (u, d
    and noise), one network deviation curve per label, and its rows of the
    two block buffers."""
    per_trial = 8 * (horizon * n * (m + 2) + labels * horizon + 2 * pairs * (BLOCK_ROUNDS + 1) * n * m)
    return max(1, CHUNK_BYTES // per_trial)


def _run_chunk(
    setup: ExperimentSetup,
    streams: list[FrameStream],
    pairs: list[tuple[float, float]],
    slots: list[tuple[int, int]],
    net: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one chunk of trials, batched over (trial, pair).

    Fills ``net``, shape (horizon, trials, labels), with the linear network
    deviation curves, and returns per (trial, label) the first divergent
    round and node (-1 where none). Curve rows of a (trial, label) that
    diverged are not meaningful.
    """
    horizon, n, m = streams[0].u.shape
    shape = (len(streams), len(pairs), n, m)
    steps = np.array(pairs)
    mu = np.tile(steps[:, 0, None, None], (len(streams), 1, 1, 1))
    gamma = steps[:, 1, None, None]
    estimates = np.zeros((BLOCK_ROUNDS + 1,) + shape)
    intermediates = np.zeros_like(estimates)
    outputs = (estimates, intermediates)
    feeds = np.arange(len(pairs))[:, None] == np.array([p for _, p in slots])  # (pair, label)

    first_it = np.full((len(streams), len(slots)), -1)
    first_node = np.full((len(streams), len(slots)), -1)
    for start in range(0, horizon, BLOCK_ROUNDS):
        stop = min(start + BLOCK_ROUNDS, horizon)
        rows = stop - start + 1
        block = FrameBlock(
            u=np.stack([s.u[start:stop] for s in streams], axis=1)[:, :, None],
            d=np.stack([s.d[start:stop] for s in streams], axis=1)[:, :, None],
        )
        run_filter(
            setup.weights,
            BatchSpec(mu, gamma),
            block,
            out=estimates[:rows],
            phi_out=intermediates[:rows],
        )
        snapshots = np.stack([outputs[o][1:rows, :, p] for o, p in slots], axis=2)
        report = detect_divergence(snapshots)
        if report.divergent:
            fresh = (report.first_iterations >= 0) & (first_it < 0)
            first_it[fresh] = start + report.first_iterations[fresh]
            first_node[fresh] = report.nodes[fresh]
        with np.errstate(over="ignore", invalid="ignore"):
            net[start:stop] = linear_deviation(snapshots, setup.w_o)
        estimates[0] = estimates[rows - 1]
        # a (trial, pair) is frozen once every label it feeds has diverged
        live = ((first_it < 0)[:, None, :] & feeds).any(axis=-1)
        mu[~live] = 0.0
        estimates[0][~live] = 0.0
    return first_it, first_node


def _sweep(
    cfg: ExperimentConfig, field: str, grid: tuple[float, ...]
) -> dict[str, tuple[tuple[float, float | None], ...]]:
    if len(grid) == 0:
        raise ValueError("sweep grid must be nonempty")
    length = _trace_length(cfg)
    if cfg.steady_window > length:
        raise ValueError(f"steady_window {cfg.steady_window} exceeds trace length {length}")
    out: dict[str, list[tuple[float, float | None]]] = {label: [] for label in cfg.algorithms}
    for value in grid:
        point_cfg = replace(cfg, **{field: float(value)})
        results = run_ensemble(point_cfg)
        for label, res in results.items():
            if isinstance(res, EnsembleDivergence):
                out[label].append((float(value), None))
            else:
                out[label].append((float(value), steady_state_msd(res, cfg.steady_window)))
    return {label: tuple(points) for label, points in out.items()}


def sweep_step_size(
    cfg: ExperimentConfig, mu_grid: tuple[float, ...]
) -> dict[str, tuple[tuple[float, float | None], ...]]:
    """Steady-state MSD versus step size; one full ensemble per grid point.

    A grid point where the algorithm's every trial diverged is reported as
    None, never as a number.
    """
    if not all(math.isfinite(v) and v > 0.0 for v in mu_grid):
        raise ValueError(f"mu grid values must be finite and positive, got {mu_grid}")
    return _sweep(cfg, "mu", tuple(mu_grid))


def sweep_leakage(
    cfg: ExperimentConfig, gamma_grid: tuple[float, ...]
) -> dict[str, tuple[tuple[float, float | None], ...]]:
    """Steady-state MSD versus leakage coefficient; gamma = 0 entries
    coincide with plain diffusion LMS."""
    if not all(math.isfinite(v) and v >= 0.0 for v in gamma_grid):
        raise ValueError(f"gamma grid values must be finite and >= 0, got {gamma_grid}")
    return _sweep(cfg, "gamma", tuple(gamma_grid))


def denoise_speech(cfg: ExperimentConfig, node: int) -> DenoiseResult:
    """One delay-line run; emit the noisy, filtered, and residual sequences
    at ``node`` (0-based).

    Uses the first algorithm label in the config and the stream seeded with
    base_seed (no ensemble).
    """
    if cfg.source != "delay_line":
        raise ValueError("denoising requires a delay_line source")
    setup = build_setup(cfg)
    setup.weights.validate_support(setup.topology)
    if not 0 <= node < setup.topology.node_count:
        raise ValueError(f"node {node} out of range for {setup.topology.node_count} nodes")
    samples, sample_rate = _delay_line_samples(cfg)
    stream = make_stream(cfg, setup, cfg.base_seed, samples=samples)
    spec = algorithm_spec(cfg.algorithms[0], cfg.mu, cfg.gamma)
    snapshots = run_filter(setup.weights, spec, stream)

    u_node = stream.u[:, node, :]
    w_node = snapshots[1:, node, :]
    filtered = np.einsum("im,im->i", u_node, w_node)
    noisy = stream.d[:, node]
    return DenoiseResult(
        noisy=noisy,
        filtered=filtered,
        residual=noisy - filtered,
        clean=u_node @ setup.w_o,
        sample_rate=sample_rate,
    )
