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
# converging trajectory at these scales, far below float overflow
DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class MsdTrace:
    """Ensemble-averaged network MSD learning curve.

    ``per_iteration_db[i]`` is the network MSD in dB after round i + 1,
    averaged in the linear domain over the non-divergent trials and then
    converted to dB. Divergent trials are excluded from the average and
    counted. Exactly-zero deviation appears as the -inf sentinel, never as
    a floor value.
    """

    per_iteration_db: np.ndarray
    trials: int
    divergent_trials: int


@dataclass(frozen=True)
class DivergenceReport:
    """First non-finite or threshold-crossing estimate in a snapshot stack.

    For a batched stack, ``first_iterations`` and ``nodes`` give each batch
    element's first bad index and node (-1 where it stays bounded), and the
    scalar fields describe the earliest one.
    """

    divergent: bool
    first_iteration: int | None = None
    node: int | None = None
    first_iterations: np.ndarray | None = None
    nodes: np.ndarray | None = None


def linear_deviation(snapshots: np.ndarray, w_o: np.ndarray) -> np.ndarray:
    """Linear-domain network deviation curve from a snapshot stack
    (T, ..., N, M): entry i is the node-averaged squared deviation at index
    i. Axes between the first and the node axis are independent batch
    elements and are kept.
    """
    dev = snapshots - np.asarray(w_o, dtype=float)
    dev *= dev
    # the taps are summed in order, one strided add per tap: on the short
    # tap axis this is far cheaper than a reduction, and it gives the same
    # bits to batched and unbatched calls
    per_node = dev[..., 0].copy()
    for j in range(1, dev.shape[-1]):
        per_node += dev[..., j]
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


def step_size_upper_bound(sigma_u_sq: float, m: int, gamma: float = 0.0) -> float:
    """Mean-stability step-size bound for white regressors.

    With covariance sigma_u_sq * I (any tap count m >= 1) the largest
    eigenvalue is sigma_u_sq, so the bound is 2 / (gamma + sigma_u_sq):
    the contraction |1 - mu * (gamma + lambda)| < 1 holds for every
    eigenvalue lambda at any step size below it.
    """
    if sigma_u_sq <= 0.0:
        raise ValueError(f"sigma_u_sq must be positive, got {sigma_u_sq}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return 2.0 / (gamma + sigma_u_sq)


def detect_divergence(snapshots: np.ndarray, threshold: float = DIVERGENCE_THRESHOLD) -> DivergenceReport:
    """Flag the first estimate with a non-finite entry or max-norm above
    ``threshold``.

    ``snapshots`` is a stack (T, N, M), a single table (N, M), or a batched
    stack (T, ..., N, M) whose middle axes are independent elements; the
    reported iterations are indices into the given stack. The scalar
    report names the first bad (iteration, element, node) in that order.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    arr = np.asarray(snapshots)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim < 3:
        raise ValueError(f"expected an (N, M) table or (T, ..., N, M) stack, got shape {arr.shape}")
    # whole-stack fast path; NaN propagates through min and max and fails
    # both comparisons, so a stack holding one takes the full scan
    if arr.size and -threshold <= arr.min() and arr.max() <= threshold:
        if arr.ndim == 3:
            return DivergenceReport(divergent=False)
        clear = np.full(arr.shape[1:-2], -1)
        return DivergenceReport(divergent=False, first_iterations=clear, nodes=clear.copy())
    # NaN fails every comparison, so this also flags non-finite entries
    with np.errstate(invalid="ignore"):
        bad_nodes = ~(np.abs(arr) <= threshold).all(axis=-1)
    report = DivergenceReport(divergent=False)
    if bad_nodes.any():
        t, rest = divmod(int(np.argmax(bad_nodes)), bad_nodes[0].size)
        report = DivergenceReport(divergent=True, first_iteration=t, node=rest % bad_nodes.shape[-1])
    if arr.ndim == 3:
        return report
    bad_rounds = bad_nodes.any(axis=-1)
    first = np.argmax(bad_rounds, axis=0)
    nodes = np.argmax(np.take_along_axis(bad_nodes, first[None, ..., None], axis=0)[0], axis=-1)
    hit = bad_rounds.any(axis=0)
    return replace(report, first_iterations=np.where(hit, first, -1), nodes=np.where(hit, nodes, -1))


def steady_state_msd(trace: MsdTrace | np.ndarray, window: int) -> float:
    """Mean of the final ``window`` dB values of a learning curve."""
    arr = np.asarray(getattr(trace, "per_iteration_db", trace), dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > arr.shape[0]:
        raise ValueError(f"window {window} exceeds trace length {arr.shape[0]}")
    return float(arr[-window:].mean())
