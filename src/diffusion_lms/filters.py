"""Diffusion LMS and leaky diffusion LMS as synchronous-round state machines.

Each round has two strict phases. Adapt-then-combine (ATC): every node first
forms an intermediate estimate from the previous round's estimates and the
data-shared innovations, then fuses neighbors' intermediates.
Combine-then-adapt (CTA) runs the phases in the opposite order. Setting the
leakage coefficient to zero recovers plain diffusion LMS exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from diffusion_lms.network import CombinationWeights
from diffusion_lms.signals import FrameStream

__all__ = [
    "ORDERINGS",
    "AlgorithmSpec",
    "BatchSpec",
    "FrameBlock",
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
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


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


def run_filter(
    weights: CombinationWeights,
    spec: AlgorithmSpec | BatchSpec,
    source: FrameStream | FrameBlock,
    *,
    out: np.ndarray | None = None,
    phi_out: np.ndarray | None = None,
) -> np.ndarray:
    """Drive one algorithm over every round of a source.

    Returns the estimate snapshots as an array of shape (T + 1, N, M) for a
    T-round source: index 0 is the all-zero initial table, index i the
    table after round i. Both orderings run the ATC recursion: its combined
    tables are the ATC estimates and its intermediates the CTA estimates
    for the same (mu, gamma), because a CTA round combines exactly what the
    previous ATC round combined. Non-finite states are returned as-is
    (overflow during divergence is silenced, never masked); detection is
    the analysis layer's job. A source of 0 rounds gives only the initial
    snapshot. Deterministic given a deterministic source. The weights'
    support is not checked here; ``weights.validate_support(topology)``
    does that once per setup.

    One round on (..., N, M) estimate tables w: the adaptation forms the
    intermediates phi_k = leak * w_k + mu * sum over l of
    c[l, k] * (d_l - u_l . w_k) * u_l, with leak = 1 - mu * gamma, and the
    combination a-averages them into the next w. The weighted errors form
    one (..., N, N) table with entry (k, l) = c[l, k] * (d_l - w_k . u_l),
    built in place, so that its product with u is the (..., N, M)
    innovation table. Leading axes are independent batch elements and
    broadcast, so data shared by several elements is passed once.

    Batched form: ``spec`` is a :class:`BatchSpec`, ``source`` a
    :class:`FrameBlock` of T rounds, and ``out`` and ``phi_out`` are
    (T + 1, *batch, N, M) buffers whose row 0 of ``out`` holds the
    estimates the block starts from. Row i of ``out`` receives the combined
    (ATC) tables after round i and row i of ``phi_out`` the intermediate
    (CTA) tables; ``out`` is returned. ``out`` and ``phi_out`` belong to
    this form only: a :class:`FrameStream` source takes an
    :class:`AlgorithmSpec` and no buffers.
    """
    n = weights.node_count
    if isinstance(source, FrameBlock):
        if not isinstance(spec, BatchSpec):
            raise TypeError("a FrameBlock source needs a BatchSpec")
        if out is None or phi_out is None or out.shape != phi_out.shape:
            raise ValueError("a FrameBlock source needs out and phi_out buffers of one shape")
        if out.shape[0] != len(source.u) + 1 or out.shape[-2] != n:
            raise ValueError(f"buffers of shape {out.shape} do not fit {len(source.u)} rounds on {n} nodes")
        if source.u.shape[-2:] != out.shape[-2:] or source.d.shape[-1:] != (n,):
            raise ValueError(f"regressors {source.u.shape} and measurements {source.d.shape} do not fit {out.shape}")
        result, w_rows, phi_rows = out, out[1:], phi_out[1:]
    elif isinstance(source, FrameStream):
        if not isinstance(spec, AlgorithmSpec):
            raise TypeError("a FrameStream source needs an AlgorithmSpec")
        if out is not None or phi_out is not None:
            raise TypeError("out and phi_out buffers need a FrameBlock source")
        if source.node_count != n:
            raise ValueError(f"source has {source.node_count} nodes, weights have {n}")
        result = np.zeros((len(source) + 1,) + source.u.shape[1:])
        # the rows a caller does not keep all overwrite one scratch table,
        # so the starting table result[0] is never written
        rows, scratch = result[1:], itertools.repeat(np.empty(source.u.shape[1:]))
        w_rows, phi_rows = (rows, scratch) if spec.ordering == "atc" else (scratch, rows)
    else:
        raise TypeError(f"source must be a FrameStream or a FrameBlock, got {type(source).__name__}")

    w, u, d, mu = result[0], source.u, source.d, spec.mu
    leak = 1.0 - mu * spec.gamma
    batch = np.broadcast_shapes(w.shape[:-2], u.shape[1:-2])
    errors = np.empty(batch + (n, n))
    innovation = np.empty(batch + w.shape[-2:])
    a_t, c_t = weights.a.T, np.ascontiguousarray(weights.c.T)
    with np.errstate(over="ignore", invalid="ignore"):
        for u_i, u_t, d_col, w_row, phi_row in zip(u, u.swapaxes(-1, -2), d[..., None, :], w_rows, phi_rows):
            np.matmul(w, u_t, out=errors)
            np.subtract(d_col, errors, out=errors)
            errors *= c_t
            np.matmul(errors, u_i, out=innovation)
            innovation *= mu
            np.multiply(w, leak, out=phi_row)
            phi_row += innovation
            w = np.matmul(a_t, phi_row, out=w_row)
    return result
