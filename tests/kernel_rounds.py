"""Kernel runs the tests take through ``run_filter``: one round from a given
estimate table, and a whole stream's trajectory from all-zero tables.

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
