"""One diffusion round from a given estimate table, through the batched form
of ``run_filter``: the tests' way to take single steps of the kernel.

An ATC round from ``w`` is a one-round block whose row 0 of ``out`` is ``w``.
A CTA round from ``w`` is the adaptation half of an ATC round started from
the combined table ``a^T w``, read from the intermediates.
"""

from __future__ import annotations

import numpy as np

from diffusion_lms.filters import AlgorithmSpec, BatchSpec, FrameBlock, run_filter
from diffusion_lms.network import CombinationWeights


def one_round(
    w: np.ndarray, u: np.ndarray, d: np.ndarray, spec: AlgorithmSpec, weights: CombinationWeights
) -> tuple[np.ndarray, np.ndarray]:
    """One ``spec.ordering`` round from the estimates ``w`` (N, M), given the
    round's regressors ``u`` (N, M) and measurements ``d`` (N,).

    Returns (new estimates, intermediates) for ATC and (new estimates,
    combined table) for CTA.
    """
    start = w if spec.ordering == "atc" else weights.a.T @ w
    out = np.empty((2,) + start.shape)
    out[0] = start
    phi_out = np.empty_like(out)
    run_filter(weights, BatchSpec(spec.mu, spec.gamma), FrameBlock(u=u[None], d=d[None]), out=out, phi_out=phi_out)
    if spec.ordering == "atc":
        return out[1], phi_out[1]
    return phi_out[1], start
