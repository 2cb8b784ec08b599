"""Diffusion LMS and leaky diffusion LMS as synchronous-round state machines.

Each round has two strict phases. Adapt-then-combine (ATC): every node first
forms an intermediate estimate from the previous round's estimates and the
data-shared innovations, then fuses neighbors' intermediates.
Combine-then-adapt (CTA) runs the phases in the opposite order. Setting the
leakage coefficient to zero recovers plain diffusion LMS exactly.
"""

from __future__ import annotations

import numpy as np

from diffusion_lms.network import CombinationWeights

__all__ = ["run_filter"]


def run_filter(
    weights: CombinationWeights,
    mu: float | np.ndarray,
    gamma: float | np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    *,
    out: np.ndarray,
    phi_out: np.ndarray,
) -> np.ndarray:
    """Drive a batch of ATC recursions over T rounds of data, in place.

    ``u`` holds the regressors (T, *batch, N, M) and ``d`` the measurements
    (T, *batch, N). ``mu`` and ``gamma`` are scalars or arrays, e.g. of
    shape (trials, pairs, 1, 1); they and the data's batch axes broadcast
    against the (*batch, N, M) estimate tables, so data shared by several
    elements is passed once. ``mu`` and the leak 1 - mu * gamma are
    expanded once per call to full (*batch, N, M) tables, so every round
    multiplies same-shape arrays; a ``mu`` or ``gamma`` that does not
    broadcast to the tables raises ValueError before any round. ``out`` and
    ``phi_out`` are (T + 1, *batch, N, M) buffers. Row 0 of ``out`` holds
    the estimates the run starts from; round i writes its combined (ATC)
    tables to row i of ``out`` and its intermediate (CTA) tables to row i
    of ``phi_out``. ``out`` is returned. A zero step size holds an all-zero
    element at zero.

    Each round writes a row before it reads that row: round i reads row
    i - 1 of ``out`` and then only the rows it has just written. So a
    buffer whose rows the caller does not keep may be a writable
    zero-stride view of one table, which for ``out`` holds the starting
    estimates.

    Both orderings run the ATC recursion: its combined tables are the ATC
    estimates and its intermediates the CTA estimates for the same
    (mu, gamma), because a CTA round combines exactly what the previous ATC
    round combined. Non-finite states are written as-is (overflow, in a
    diverging round or a huge leak, is silenced, never masked); detection
    is the analysis layer's job. Deterministic given deterministic data.
    The weights' support is not checked here;
    ``weights.validate_support(topology)`` does that once per setup.

    One round on (..., N, M) estimate tables w: the adaptation forms the
    intermediates phi_k = leak * w_k + mu * sum over l of
    c[l, k] * (d_l - u_l . w_k) * u_l, with leak = 1 - mu * gamma, and the
    combination a-averages them into the next w. The weighted errors form
    one (..., N, N) table with entry (k, l) = c[l, k] * (d_l - w_k . u_l),
    built in place, so that its product with u is the (..., N, M)
    innovation table.
    """
    n = weights.node_count
    if out.shape != phi_out.shape:
        raise ValueError(f"out {out.shape} and phi_out {phi_out.shape} must have one shape")
    if out.shape[0] != len(u) + 1 or out.shape[-2] != n:
        raise ValueError(f"buffers of shape {out.shape} do not fit {len(u)} rounds on {n} nodes")
    if len(d) != len(u) or u.shape[-2:] != out.shape[-2:] or d.shape[-1:] != (n,):
        raise ValueError(f"regressors {u.shape} and measurements {d.shape} do not fit {out.shape}")

    w = out[0]
    batch = np.broadcast_shapes(w.shape[:-2], u.shape[1:-2])
    errors = np.empty(batch + (n, n))
    innovation = np.empty(batch + w.shape[-2:])
    a_t, c_t = weights.a.T, np.ascontiguousarray(weights.c.T)
    with np.errstate(over="ignore", invalid="ignore"):
        leak = np.array(np.broadcast_to(1.0 - mu * gamma, w.shape))
        mu = np.array(np.broadcast_to(mu, w.shape))
        for u_i, u_t, d_col, w_row, phi_row in zip(u, u.swapaxes(-1, -2), d[..., None, :], out[1:], phi_out[1:]):
            np.matmul(w, u_t, out=errors)
            np.subtract(d_col, errors, out=errors)
            errors *= c_t
            np.matmul(errors, u_i, out=innovation)
            innovation *= mu
            np.multiply(w, leak, out=phi_row)
            phi_row += innovation
            w = np.matmul(a_t, phi_row, out=w_row)
    return out
