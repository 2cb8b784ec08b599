"""Kernel runs the tests take through ``run_filter``: one round from a given
estimate table, and a whole stream's trajectory from all-zero tables. Also
``dense_run_filter``, the kernel's one-tile round on any network, as an
oracle for the halo tiles.

An ATC round from ``w`` is a one-round run whose row 0 of ``out`` is ``w``.
A CTA round from ``w`` is the adaptation half of an ATC round started from
the combined table ``a^T w``, read from the intermediates.
"""

from __future__ import annotations

import numpy as np

from diffusion_lms.filters import run_filter
from diffusion_lms.network import CombinationWeights
from diffusion_lms.signals import FrameStream


def one_round(
    w: np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    ordering: str,
    mu: float,
    gamma: float,
    weights: CombinationWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """One ``ordering`` ("atc" or "cta") round from the estimates ``w``
    (N, M), given the round's regressors ``u`` (N, M) and measurements
    ``d`` (N,).

    Returns (new estimates, intermediates) for ATC and (new estimates,
    combined table) for CTA.
    """
    start = w if ordering == "atc" else weights.a.T @ w
    out = np.empty((2,) + start.shape)
    out[0] = start
    phi_out = np.empty_like(out)
    run_filter(weights, mu, gamma, u[None], d[None], out=out, phi_out=phi_out)
    if ordering == "atc":
        return out[1], phi_out[1]
    return phi_out[1], start


def trajectory(
    weights: CombinationWeights, ordering: str, mu: float, gamma: float, stream: FrameStream
) -> np.ndarray:
    """The ``ordering`` estimates over every round of ``stream``, from
    all-zero tables: a (T + 1, N, M) stack whose row 0 is the starting table."""
    out = np.zeros((len(stream) + 1,) + stream.u.shape[1:])
    phi_out = np.zeros_like(out)
    run_filter(weights, mu, gamma, stream.u, stream.d, out=out, phi_out=phi_out)
    return out if ordering == "atc" else phi_out


def dense_run_filter(
    weights: CombinationWeights,
    mu: float | np.ndarray,
    gamma: float | np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    *,
    out: np.ndarray,
    phi_out: np.ndarray,
) -> np.ndarray:
    """``run_filter`` with both products dense in every round: one
    (..., N, N) weighted-error table and one combination with all of
    ``weights.a``, whatever the supports of the tables; no checks."""
    n = weights.node_count
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
