"""Diffusion LMS and leaky diffusion LMS as synchronous-round state machines.

Each round has two strict phases. Adapt-then-combine (ATC): every node first
forms an intermediate estimate from the previous round's estimates and the
data-shared innovations, then fuses neighbors' intermediates.
Combine-then-adapt (CTA) runs the phases in the opposite order. Setting the
leakage coefficient to zero recovers plain diffusion LMS exactly.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from diffusion_lms.network import CombinationWeights

__all__ = ["run_filter"]

# bytes of measurement rows staged at a time for a single trajectory on one
# tile: about 80 rounds of (20, 20) tables, small enough to stay in cache,
# and one round, not T, of a dense 200-node trajectory's (200, 200) tables.
# The same rounds' regressor rows are staged too: np.dot copies strided ones
STAGED_ROW_BYTES = 1 << 18


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

    Round i writes row i of ``out`` only after its last read of row i - 1,
    and reads no row of ``phi_out`` it has not written in that round. So
    the rows of either buffer may share memory, while the two buffers share
    none: a buffer whose rows the caller does not keep may be a writable
    zero-stride view of one table (for ``out``, one that holds the starting
    estimates), and one whose rows it keeps in part may have rows that
    overlap earlier rounds' rows in the entries it does not keep. Round i
    reads row i - 1 of ``d`` before it writes any row (a staged stretch
    copies its rows of ``d`` at its first round, earlier still), and no
    round reads a row of ``d`` after its own. So a buffer may also share
    memory with ``d`` if its row i covers no row of ``d`` from row i on:
    every row it writes over has been read.

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
    a table with entry (k, l) = c[l, k] * (d_l - w_k . u_l), built in
    place, so that its product with u is the (..., N, M) innovation table.
    A round runs in one of three layouts, all bitwise the same. One tile,
    batched (``weights.halo_tiles`` is None): the errors form one dense
    (..., N, N) table and the combination is one dense product with a; so
    does an unbatched run whose rows ``np.dot`` cannot write. One tile,
    staged: a run with no batch axes whose rows of ``out`` and ``phi_out``
    are C-contiguous float64 tables, as the denoise trajectory, copies its
    measurements ``STAGED_ROW_BYTES`` at a time into full (N, N) tables, so
    the subtraction runs on same-shape operands, and its regressor rows into
    one C-contiguous table. It takes the innovation and combination products
    through ``np.dot``, which skips the stacked product's dispatch but
    copies, on every call, any operand that is not one contiguous segment,
    such as a delay line's strided rows (``w @ u_t`` stays with
    ``np.matmul``: through ``np.dot`` it changes the last bit for
    M >= 16). Halo tiles: each tile
    of nodes k pairs only with its halo of nodes l, whose rows of u, d and
    the intermediates are gathered every round; the tiles' weight tables
    form (..., tiles, size, width) stacks, and each product is one stacked
    matmul. The terms the tiles leave out all have c[l, k] = a[l, k] = 0, so
    they add exact zeros while each is finite: every product w_k . u_l and
    every intermediate. A round whose intermediates do not sum to a finite
    number combines them in one dense product instead, so that a non-finite
    intermediate reaches every node (0 * inf is NaN) as with one tile. An
    overflowing w_k . u_l with a non-neighbour l has no such guard (one tile
    reads 0 * inf = NaN, the tiles leave the term out); a reported first
    divergence is the first crossing of the divergence bound, which comes
    rounds before that.
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
    halo, c_t, tile_a = weights.halo_tiles or (None, np.ascontiguousarray(weights.c.T), None)
    # staged rounds take np.dot, which writes only behaved C-contiguous float64
    # rows, and would copy other rows of phi_out where np.matmul runs its own loop
    staged = (
        not batch and halo is None and out.dtype == phi_out.dtype == np.float64 and w.flags.carray and phi_out[0].flags.carray
    )
    product = np.dot if staged else np.matmul
    innovation = np.empty(batch + w.shape[-2:])
    innovation_tables = innovation.reshape(batch + c_t.shape[:-1] + w.shape[-1:])
    errors = np.empty(batch + c_t.shape)
    phi_halos = None if halo is None else np.empty(batch + halo.shape + w.shape[-1:])
    a_t = weights.a.T
    # local names and positional outputs spare each few-microsecond round the
    # attribute lookups, keyword parsing and in-place operator dispatch
    matmul, subtract, multiply, add = np.matmul, np.subtract, np.multiply, np.add
    with np.errstate(over="ignore", invalid="ignore"):
        leak = np.array(np.broadcast_to(1.0 - mu * gamma, w.shape))
        mu = np.array(np.broadcast_to(mu, w.shape))
        for u_i, u_t, d_col, w_tiles, w_row_tiles, w_row, phi_row in _rounds(u, d, halo, staged, out, phi_out):
            matmul(w_tiles, u_t, errors)
            subtract(d_col, errors, errors)
            multiply(errors, c_t, errors)
            product(errors, u_i, innovation_tables)
            multiply(innovation, mu, innovation)
            multiply(w, leak, phi_row)
            add(phi_row, innovation, phi_row)
            if halo is None or not np.isfinite(phi_row.sum()):
                product(a_t, phi_row, w_row)
            else:
                # mode "raise" would take into a temporary; every index is in range
                matmul(tile_a, np.take(phi_row, halo, axis=-2, out=phi_halos, mode="clip"), w_row_tiles)
            w = w_row
    return out


def _rounds(
    u: np.ndarray, d: np.ndarray, halo: np.ndarray | None, staged: bool, out: np.ndarray, phi_out: np.ndarray
) -> Iterator[tuple[np.ndarray, ...]]:
    """The loop's operands per round: the regressors and their transposes,
    the measurements, the round's starting estimates and the row of ``out``
    it writes, both split into tiles, and its rows of ``out`` and
    ``phi_out``. A staged stretch of rounds copies its measurements, as
    (N, N) tables of d_i, and its regressor rows into C-contiguous tables;
    halo tiles gather their rows every round."""
    n = d.shape[-1]
    stretch = max(1, STAGED_ROW_BYTES // (8 * n * n) if staged else len(d))
    staged_d = np.empty((min(stretch, len(d)), n, n)) if staged else None
    staged_u = np.empty((min(stretch, len(d)),) + u.shape[1:], u.dtype) if staged else None
    # splitting the node axis is a view, so it shows the rows each round writes
    tiled = out if halo is None else np.reshape(out, out.shape[:-2] + (len(halo), -1) + out.shape[-1:], copy=False)
    for start in range(0, len(d), stretch):
        stop = min(start + stretch, len(d))
        u_rows, d_rows, w_rows = u[start:stop], d[start:stop, ..., None, :], tiled[start : stop + 1]
        if staged:
            u_rows, d_rows = staged_u[: stop - start], staged_d[: stop - start]
            np.copyto(u_rows, u[start:stop])
            np.copyto(d_rows, d[start:stop, None, :])
        rows = w_rows, w_rows[1:], out[start + 1 : stop + 1], phi_out[start + 1 : stop + 1]
        if halo is None:
            yield from zip(u_rows, u_rows.swapaxes(-1, -2), d_rows, *rows)
        else:
            d_halo = halo[:, None, :]
            for u_i, d_i, w_tiles, w_row_tiles, w_row, phi_row in zip(u_rows, d[start:stop], *rows):
                u_i = np.take(u_i, halo, axis=-2)
                yield u_i, u_i.swapaxes(-1, -2), np.take(d_i, d_halo, axis=-1), w_tiles, w_row_tiles, w_row, phi_row
