"""Diffusion LMS and leaky diffusion LMS as synchronous-round state machines.

Each round has two strict phases. Adapt-then-combine (ATC): every node first
forms an intermediate estimate from the previous round's estimates and the
data-shared innovations, then fuses neighbors' intermediates.
Combine-then-adapt (CTA) runs the phases in the opposite order. Setting the
leakage coefficient to zero recovers plain diffusion LMS exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from diffusion_lms.network import CombinationWeights, Topology
from diffusion_lms.signals import FrameStream, SampleFrame

__all__ = [
    "ORDERINGS",
    "AlgorithmSpec",
    "BatchSpec",
    "FrameBlock",
    "NodeState",
    "init_state",
    "atc_step",
    "cta_step",
    "run_filter",
]

ORDERINGS = ("atc", "cta")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Algorithm selector: phase ordering, step size, leakage coefficient.

    gamma = 0 gives plain diffusion LMS; gamma > 0 adds an l2 pull toward
    zero ((1 - mu * gamma) shrinkage of the adapted estimate). mu = 0 is
    permitted and makes the adaptation phase a no-op.
    """

    ordering: str
    mu: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}, got {self.ordering!r}")
        if not self.mu >= 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if not self.gamma >= 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class NodeState:
    """Per-node estimates ``w`` and intermediate estimates ``phi``, each N x M."""

    w: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if w.shape != phi.shape or w.ndim != 2:
            raise ValueError("w and phi must share an (N, M) shape")
        w.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class BatchSpec:
    """Per-element step sizes and leakages of a batch of ATC recursions.

    ``mu`` and ``gamma`` broadcast against the (*batch, N, M) estimate
    tables, e.g. shape (trials, pairs, 1, 1). A zero step size holds an
    all-zero element at zero.
    """

    mu: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class FrameBlock:
    """Consecutive rounds of data for a batch of recursions: regressors
    ``u`` (T, *batch, N, M) and measurements ``d`` (T, *batch, N), whose
    batch axes broadcast against the estimate tables."""

    u: np.ndarray
    d: np.ndarray


def init_state(n: int, m: int) -> NodeState:
    """All-zero initial state."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got ({n}, {m})")
    return NodeState(w=np.zeros((n, m)), phi=np.zeros((n, m)))


def _round(
    w: np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    mu: float | np.ndarray,
    leak: float | np.ndarray,
    a: np.ndarray,
    c: np.ndarray,
    w_out: np.ndarray | None = None,
    phi_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One adapt-then-combine round on (..., N, M) estimate tables.

    Adaptation: phi_k = leak * w_k + mu * sum over l of
    c[l, k] * (d_l - u_l . w_k) * u_l, with leak = 1 - mu * gamma; the
    combination then a-averages the intermediates. Leading axes are
    independent batch elements and broadcast, so data shared by several
    elements is passed once. Returns (combined estimates, intermediates),
    written into ``w_out`` and ``phi_out`` when given.
    """
    errors = d[..., :, None] - u @ w.swapaxes(-1, -2)  # entry (l, k) = d_l - u_l . w_k
    innovation = (u.swapaxes(-1, -2) @ (c * errors)).swapaxes(-1, -2)
    phi = np.add(leak * w, mu * innovation, out=phi_out)
    return np.matmul(a.T, phi, out=w_out), phi


def _drive(
    w: np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    mu: float | np.ndarray,
    leak: float | np.ndarray,
    a: np.ndarray,
    c: np.ndarray,
    w_rows: np.ndarray | None,
    phi_rows: np.ndarray | None,
) -> None:
    """Run ``len(u)`` rounds from ``w``; round i writes its combined
    estimates to ``w_rows[i]`` and its intermediates to ``phi_rows[i]``
    (a fresh array per round where the rows are None)."""
    w_rows = itertools.repeat(None) if w_rows is None else w_rows
    phi_rows = itertools.repeat(None) if phi_rows is None else phi_rows
    with np.errstate(over="ignore", invalid="ignore"):
        for u_i, d_i, w_row, phi_row in zip(u, d, w_rows, phi_rows):
            w, _ = _round(w, u_i, d_i, mu, leak, a, c, w_row, phi_row)


def atc_step(
    state: NodeState,
    frame: SampleFrame,
    spec: AlgorithmSpec,
    weights: CombinationWeights,
    topology: Topology | None = None,
) -> NodeState:
    """One adapt-then-combine round.

    Adaptation reads only the previous round's estimates: every node shrinks
    its own estimate by (1 - mu * gamma) and adds the c-weighted neighbor
    innovations; the combination phase then a-averages the fresh
    intermediates. Passing a topology additionally validates weight support.
    """
    _check_step_args(state, frame, weights, topology)
    leak = 1.0 - spec.mu * spec.gamma
    w_new, phi = _round(state.w, frame.u, frame.d, spec.mu, leak, weights.a, weights.c)
    return NodeState(w=w_new, phi=phi)


def cta_step(
    state: NodeState,
    frame: SampleFrame,
    spec: AlgorithmSpec,
    weights: CombinationWeights,
    topology: Topology | None = None,
) -> NodeState:
    """One combine-then-adapt round.

    Every node first a-averages neighbors' previous estimates into its
    intermediate, then adapts from that intermediate using the c-weighted
    neighbor innovations evaluated at it: the adaptation half of an ATC
    round started from the combined table (whose own combination, the next
    CTA round's, is discarded).
    """
    _check_step_args(state, frame, weights, topology)
    combined = weights.a.T @ state.w
    leak = 1.0 - spec.mu * spec.gamma
    _, adapted = _round(combined, frame.u, frame.d, spec.mu, leak, weights.a, weights.c)
    return NodeState(w=adapted, phi=combined)


def _check_step_args(
    state: NodeState,
    frame: SampleFrame,
    weights: CombinationWeights,
    topology: Topology | None,
) -> None:
    n, m = state.w.shape
    if frame.u.shape != (n, m):
        raise ValueError(f"frame regressors shape {frame.u.shape} does not match state {state.w.shape}")
    if frame.d.shape != (n,):
        raise ValueError(f"frame measurements shape {frame.d.shape} does not match {n} nodes")
    if weights.node_count != n:
        raise ValueError(f"weights are for {weights.node_count} nodes, state has {n}")
    if topology is not None:
        weights.validate_support(topology)


def run_filter(
    topology: Topology | None,
    weights: CombinationWeights,
    spec: AlgorithmSpec | BatchSpec,
    source: FrameStream | Iterable[SampleFrame] | FrameBlock,
    horizon: int | None = None,
    *,
    out: np.ndarray | None = None,
    phi_out: np.ndarray | None = None,
) -> np.ndarray:
    """Drive one algorithm over a source for ``horizon`` synchronous rounds.

    Returns the estimate snapshots as an array of shape (horizon + 1, N, M):
    index 0 is the all-zero initial table, index i the table after round i.
    Both orderings run the ATC recursion: its combined tables are the ATC
    estimates and its intermediates the CTA estimates for the same
    (mu, gamma), because a CTA round combines exactly what the previous ATC
    round combined. Non-finite states are returned as-is (overflow during
    divergence is silenced, never masked); detection is the analysis
    layer's job. A horizon of 0 returns only the initial snapshot.
    Deterministic given a deterministic source. Passing a topology
    validates the weights' support.

    Batched form: ``spec`` is a :class:`BatchSpec`, ``source`` a
    :class:`FrameBlock` of T rounds, and ``out`` and ``phi_out`` are
    (T + 1, *batch, N, M) buffers whose row 0 of ``out`` holds the
    estimates the block starts from. Row i of ``out`` receives the combined
    (ATC) tables after round i and row i of ``phi_out`` the intermediate
    (CTA) tables; ``out`` is returned.
    """
    if horizon is not None and horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if topology is not None:
        weights.validate_support(topology)
    n = weights.node_count
    a, c = weights.a, weights.c
    leak = 1.0 - spec.mu * spec.gamma

    if isinstance(source, FrameBlock):
        if not isinstance(spec, BatchSpec):
            raise TypeError("a FrameBlock source needs a BatchSpec")
        if out is None or phi_out is None or out.shape != phi_out.shape:
            raise ValueError("a FrameBlock source needs out and phi_out buffers of one shape")
        if out.shape[0] != len(source.u) + 1 or out.shape[-2] != n:
            raise ValueError(f"buffers of shape {out.shape} do not fit {len(source.u)} rounds on {n} nodes")
        _drive(out[0], source.u, source.d, spec.mu, leak, a, c, out[1:], phi_out[1:])
        return out

    keep_w = spec.ordering == "atc"
    if isinstance(source, FrameStream):
        if source.node_count != n:
            raise ValueError(f"source has {source.node_count} nodes, topology has {n}")
        total = len(source) if horizon is None else horizon
        if total > len(source):
            raise ValueError(f"horizon {total} exceeds source length {len(source)}")
        snapshots = np.zeros((total + 1, n, source.taps))
        rows = snapshots[1:]
        u, d = source.u[:total], source.d[:total]
        _drive(snapshots[0], u, d, spec.mu, leak, a, c, rows if keep_w else None, None if keep_w else rows)
        return snapshots

    it = iter(source)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("source yielded no frames") from None
    if first.u.shape[0] != n:
        raise ValueError(f"source has {first.u.shape[0]} nodes, topology has {n}")
    w = np.zeros_like(first.u)
    snapshot_list = [w]
    with np.errstate(over="ignore", invalid="ignore"):
        for frame in itertools.chain([first], it):
            if horizon is not None and len(snapshot_list) > horizon:
                break
            w, phi = _round(w, frame.u, frame.d, spec.mu, leak, a, c)
            snapshot_list.append(w if keep_w else phi)
    return np.stack(snapshot_list)
