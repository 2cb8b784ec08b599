"""Metrics and theory oracles: network MSD, divergence detection, the leaky
bias fixed point, mean-stability step-size bounds, and steady-state readout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DIVERGENCE_THRESHOLD",
    "MsdTrace",
    "DivergenceReport",
    "linear_deviation",
    "leaky_fixed_point",
    "step_size_upper_bound",
    "detect_divergence",
    "steady_state_msd",
]

# max-norm above which an estimate counts as divergent: far above any
# converging trajectory at these scales, far below float overflow. An
# ensemble multiplies it by max(1, max|w_o|), the scale of its unknown vector
DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class MsdTrace:
    """One algorithm's ensemble result: its network MSD learning curve and
    the trials it lost.

    ``per_iteration_db[i]`` is the network MSD in dB after round i + 1,
    averaged in the linear domain over the non-divergent trials and then
    converted to dB; it is None when every trial diverged. Divergent trials
    are excluded from the average and counted, and ``first_divergence`` is
    the 0-based (round, node) of the first of them in trial order (None
    when none diverged). Exactly-zero deviation appears as the -inf
    sentinel, never as a floor value.
    """

    per_iteration_db: np.ndarray | None
    trials: int
    divergent_trials: int
    first_divergence: tuple[int, int] | None = None


@dataclass(frozen=True)
class DivergenceReport:
    """First non-finite or threshold-crossing estimate in a snapshot stack.

    ``first_iterations`` and ``nodes`` give each batch element's first bad
    index and node (-1 where it stays bounded), and the scalar fields
    describe the earliest one (None when nothing diverged).
    """

    divergent: bool
    first_iterations: np.ndarray
    nodes: np.ndarray
    first_iteration: int | None = None
    node: int | None = None


def linear_deviation(snapshots: np.ndarray, w_o: np.ndarray) -> np.ndarray:
    """Linear-domain network deviation curve from a snapshot stack
    (T, ..., N, M): entry i is the node-averaged squared deviation at index
    i. Axes between the first and the node axis are independent batch
    elements and are kept. The stack may be a strided view; it is read in
    place, one (T, ..., N) tap slab at a time.
    """
    snapshots = np.asarray(snapshots)
    w_o = np.asarray(w_o, dtype=float)
    # the taps are summed in order, one slab per tap: on the short tap axis
    # this is far cheaper than a reduction, needs no (T, ..., N, M)
    # temporary, and gives the same bits to batched and unbatched calls
    per_node = snapshots[..., 0] - w_o[0]
    per_node *= per_node
    slab = np.empty_like(per_node)
    for j in range(1, snapshots.shape[-1]):
        np.subtract(snapshots[..., j], w_o[j], out=slab)
        slab *= slab
        per_node += slab
    return per_node.mean(axis=-1)


def leaky_fixed_point(r: np.ndarray, gamma: float, w_o: np.ndarray) -> np.ndarray:
    """Biased solution of the leakage-regularized least-squares cost.

    For regressor covariance R, the minimizer of the mean-square error plus
    gamma * ||w||^2 is (R + gamma * I)^{-1} R w_o; gamma = 0 returns w_o
    whenever R is invertible. Raises numpy.linalg.LinAlgError when
    R + gamma * I is singular (gamma = 0 with rank-deficient R).
    """
    r = np.asarray(r, dtype=float)
    w_o = np.asarray(w_o, dtype=float)
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    m = w_o.shape[0]
    if r.shape != (m, m):
        raise ValueError(f"R must be {m} x {m}, got {r.shape}")
    return np.linalg.solve(r + gamma * np.eye(m), r @ w_o)


def step_size_upper_bound(sigma_u_sq: float, gamma: float = 0.0) -> float:
    """Mean-stability step-size bound for white regressors.

    With covariance sigma_u_sq * I (any tap count) the largest
    eigenvalue is sigma_u_sq, so the bound is 2 / (gamma + sigma_u_sq):
    the contraction |1 - mu * (gamma + lambda)| < 1 holds for every
    eigenvalue lambda at any step size below it.
    """
    if sigma_u_sq <= 0.0:
        raise ValueError(f"sigma_u_sq must be positive, got {sigma_u_sq}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return 2.0 / (gamma + sigma_u_sq)


def detect_divergence(snapshots: np.ndarray, threshold: float = DIVERGENCE_THRESHOLD) -> DivergenceReport:
    """Flag the first estimate with a non-finite entry or max-norm above
    ``threshold``.

    ``snapshots`` is a stack (T, ..., N, M) whose middle axes, if any, are
    independent elements; the reported iterations are indices into it.
    ``first_iterations`` and ``nodes`` have the shape of the middle axes
    (0-d for a (T, N, M) stack), and the scalar fields name the first bad
    (iteration, element, node) in that order.
    """
    arr = np.asarray(snapshots)
    if arr.ndim < 3:
        raise ValueError(f"expected a (T, ..., N, M) stack, got shape {arr.shape}")
    # whole-stack fast path; NaN propagates through min and max and fails
    # both comparisons, so a stack holding one takes the full scan
    if not arr.size or (-threshold <= arr.min() and arr.max() <= threshold):
        clear = np.full(arr.shape[1:-2], -1)
        return DivergenceReport(divergent=False, first_iterations=clear, nodes=clear.copy())
    # NaN fails every comparison, so this also flags non-finite entries; two
    # comparisons build boolean tables only, no float copy of the stack
    with np.errstate(invalid="ignore"):
        inside = -threshold <= arr
        inside &= arr <= threshold
    bad_nodes = ~inside.all(axis=-1)
    bad_rounds = bad_nodes.any(axis=-1)
    first = np.argmax(bad_rounds, axis=0)
    nodes = np.argmax(np.take_along_axis(bad_nodes, first[None, ..., None], axis=0)[0], axis=-1)
    hit = bad_rounds.any(axis=0)
    report = DivergenceReport(
        divergent=bool(hit.any()), first_iterations=np.where(hit, first, -1), nodes=np.where(hit, nodes, -1)
    )
    t, rest = divmod(int(np.argmax(bad_nodes)), bad_nodes[0].size)
    return replace(report, first_iteration=t, node=rest % bad_nodes.shape[-1])


def steady_state_msd(trace: MsdTrace, window: int) -> float:
    """Mean of the final ``window`` dB values of a trace's learning curve;
    ValueError for a trace whose every trial diverged, which has none."""
    arr = trace.per_iteration_db
    if arr is None:
        raise ValueError(f"no learning curve: all {trace.trials} trials diverged")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > arr.shape[0]:
        raise ValueError(f"window {window} exceeds trace length {arr.shape[0]}")
    return float(arr[-window:].mean())
