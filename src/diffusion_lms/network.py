"""Topologies as boolean adjacency tables, and combination-weight tables.

Nodes are indexed 0..n-1 throughout the API. The plain-text edge-list file
format (and the CLI) use 1-based indices. Every node's neighborhood
contains the node itself, and links are undirected.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from diffusion_lms.signals import ConfigError, DataFileError

__all__ = [
    "STOCHASTIC_TOL",
    "Topology",
    "CombinationWeights",
    "build_ring_lattice",
    "build_random_geometric",
    "uniform_weights",
    "non_cooperative_weights",
    "load_edge_list",
]

# absolute tolerance on column sums of weight tables
STOCHASTIC_TOL = 1e-12
# the smallest tile of nodes the filter kernel adapts apart from the others
MIN_TILE = 20


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph with self-inclusive neighborhoods.

    ``adjacency[k, l]`` is true when nodes k and l are linked: an N x N
    boolean table, symmetric, with a true diagonal. The table is a
    read-only copy of the one given.
    """

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.array(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise ValueError(f"adjacency must be a nonempty square table, got shape {adj.shape}")
        unlinked = np.flatnonzero(~adj.diagonal())
        if unlinked.size:
            raise ValueError(f"node {unlinked[0]} is not linked to itself")
        one_way = np.argwhere(adj != adj.T)
        if one_way.size:
            k, l = one_way[0]
            raise ValueError(f"link {k}-{l} is not symmetric")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    def is_connected(self) -> bool:
        """Whether every node is reachable from node 0."""
        reached = self.adjacency[0]
        while True:
            grown = self.adjacency[reached].any(axis=0)
            if np.array_equal(grown, reached):
                return bool(reached.all())
            reached = grown


@dataclass(frozen=True)
class CombinationWeights:
    """Nonnegative fusion weights for estimates (``a``) and shared data (``c``).

    ``a[l, k]`` is the weight node k places on node l's intermediate estimate
    and ``c[l, k]`` the weight node k places on node l's measurement data.
    Both tables are column-stochastic: each column sums to one within
    ``STOCHASTIC_TOL``. Arrays are frozen after construction.
    """

    a: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        c = np.array(self.c, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be square, got shape {a.shape}")
        if c.shape != a.shape:
            raise ValueError(f"c shape {c.shape} does not match a shape {a.shape}")
        for name, table in (("a", a), ("c", c)):
            if not np.isfinite(table).all():
                raise ValueError(f"{name} has non-finite entries")
            if (table < 0.0).any():
                raise ValueError(f"{name} has negative entries")
            err = np.abs(table.sum(axis=0) - 1.0).max()
            if err > STOCHASTIC_TOL:
                raise ValueError(
                    f"columns of {name} must sum to 1 within {STOCHASTIC_TOL} (max error {err:.3e})"
                )
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def node_count(self) -> int:
        return self.a.shape[0]

    @cached_property
    def halo_tiles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Both tables cut into tiles of consecutive nodes, or None for one tile.

        The N nodes split into equal tiles whose size is the smallest
        divisor of N that is at least ``MIN_TILE``. A tile's halo is the
        nodes l with ``a[l, k] != 0`` or ``c[l, k] != 0`` for some node k
        of the tile. Returns (halo, tile_c, tile_a): ``halo`` (tiles, width)
        holds each halo in ascending order, padded at its end with the
        lowest other nodes to the widest halo's width; ``tile_c`` (tiles,
        size, width) holds ``c[halo[t, p], k]`` for the tile's nodes k, and
        ``tile_a`` likewise ``a[halo[t, p], k]``, so that both are zero on
        the padding. None when N has no such divisor below N, or when the
        tiled (N, width) table would hold more than half of N * N entries.
        Computed on first use and kept.
        """
        n = self.node_count
        size = next((s for s in range(MIN_TILE, n) if n % s == 0), n)
        # weighs[t, l]: some node of tile t weighs node l's data or estimate
        weighs = ((self.a != 0.0) | (self.c != 0.0)).T.reshape(n // size, size, n).any(axis=1)
        width = int(weighs.sum(axis=1).max())
        if size == n or 2 * width > n:
            return None
        halo = np.argsort(~weighs, axis=1, kind="stable")[:, :width]
        tile_c, tile_a = (
            np.take_along_axis(table.T.reshape(n // size, size, n), halo[:, None, :], axis=2)
            for table in (self.c, self.a)
        )
        for table in (halo, tile_c, tile_a):
            table.setflags(write=False)
        return halo, tile_c, tile_a

    def validate_support(self, topology: Topology) -> None:
        """Raise if any nonzero weight falls on an unlinked pair."""
        n = topology.node_count
        if self.node_count != n:
            raise ValueError("weight tables do not match the topology size")
        # indexed [k, l]: the first offending pair in k-major, then l order
        stray = ~topology.adjacency & ((self.a != 0.0) | (self.c != 0.0)).T
        if stray.any():
            k, l = divmod(int(np.argmax(stray)), n)
            raise ValueError(f"nonzero weight on non-neighbor pair ({l}, {k})")


def build_ring_lattice(n: int, half_width: int) -> Topology:
    """Ring lattice: node k links to k +- 1 .. k +- half_width (mod n).

    Requires 2 * half_width < n so that no neighbor index wraps onto another.
    half_width = 0 yields isolated nodes (self-loops only).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if half_width < 0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    if 2 * half_width >= n:
        raise ValueError(f"half_width {half_width} too large for n={n} (need 2*half_width < n)")
    adj = np.eye(n, dtype=bool)
    nodes = np.arange(n)
    for d in range(1, half_width + 1):
        adj[nodes, (nodes + d) % n] = True
        adj[nodes, (nodes - d) % n] = True
    return Topology(adj)


def build_random_geometric(n: int, radius: float, seed: int) -> Topology:
    """Random geometric graph on the unit square, repaired to connectivity.

    Nodes are placed uniformly at random from the seed; two nodes link when
    their Euclidean distance is at most ``radius``. If the result is
    disconnected the radius is grown by 10% (by one ulp where a subnormal
    radius times 1.1 rounds back to itself) until it is (termination is
    guaranteed once the radius exceeds sqrt(2)). Deterministic in
    (n, radius, seed).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    r = float(radius)
    while True:
        # the diagonal distances are 0, so every node links to itself
        topo = Topology(d2 <= r * r)
        if topo.is_connected():
            return topo
        r = max(r * 1.1, math.nextafter(r, math.inf))


def uniform_weights(topology: Topology) -> CombinationWeights:
    """Uniform rule: every in-neighborhood weight is 1 / n_k, where n_k is
    the size of node k's neighborhood, itself included.

    Applied identically to the estimate table ``a`` and the data table ``c``.
    """
    adj = topology.adjacency
    a = adj / adj.sum(axis=0)
    return CombinationWeights(a=a, c=a.copy())


def non_cooperative_weights(n: int) -> CombinationWeights:
    """Identity tables: each node uses only its own estimate and data.

    Disables diffusion entirely; every node runs a stand-alone filter.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    eye = np.eye(n)
    return CombinationWeights(a=eye, c=eye.copy())


def load_edge_list(path: str | os.PathLike, nodes: int) -> Topology:
    """Read a topology file of ``nodes`` nodes.

    The format is plain text: first line "N", then one "k l" line per
    undirected edge, 1-based, self-loops implicit; blank lines and a
    leading UTF-8 byte-order mark are ignored. A malformed file raises
    DataFileError, and an N other than ``nodes`` raises ConfigError
    before any N x N table is built.
    """
    with open(path, "rb") as fh:
        text = fh.read().removeprefix(b"\xef\xbb\xbf").decode("ascii", errors="replace")
    # past a leading UTF-8 byte-order mark, a non-ASCII byte becomes U+FFFD, which
    # no number parses: its line is reported, and no Unicode digit makes an edge
    lines = [ln for ln in map(str.strip, io.StringIO(text, newline=None)) if ln]
    if not lines:
        raise DataFileError(f"{path}: empty edge-list file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise DataFileError(f"{path}: first line must be the node count") from exc
    if n < 1:
        raise DataFileError(f"{path}: node count must be >= 1, got {n}")
    if n != nodes:
        raise ConfigError(f"nodes: {nodes}, but edge list {path} has {n} nodes")
    adj = np.eye(n, dtype=bool)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise DataFileError(f"{path}: malformed edge line {ln!r}")
        try:
            k, l = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataFileError(f"{path}: malformed edge line {ln!r}") from exc
        if not (1 <= k <= n and 1 <= l <= n):
            raise DataFileError(f"{path}: edge {ln!r} out of range for n={n}")
        adj[k - 1, l - 1] = adj[l - 1, k - 1] = True
    return Topology(adj)
