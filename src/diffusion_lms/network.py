"""Topologies, neighbor sets, and combination-weight tables.

Nodes are indexed 0..n-1 throughout the API. The plain-text edge-list file
format (and the CLI) use 1-based indices. Every node's neighborhood
contains the node itself, and links are undirected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "STOCHASTIC_TOL",
    "Topology",
    "CombinationWeights",
    "build_ring_lattice",
    "build_random_geometric",
    "uniform_weights",
    "non_cooperative_weights",
    "save_edge_list",
    "load_edge_list",
]

# absolute tolerance on column sums of weight tables
STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph with self-inclusive neighborhoods."""

    node_count: int
    neighbors: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 1:
            raise ValueError(f"node_count must be >= 1, got {n}")
        if len(self.neighbors) != n:
            raise ValueError("need exactly one neighbor set per node")
        for k, nbrs in enumerate(self.neighbors):
            if k not in nbrs:
                raise ValueError(f"node {k} is missing from its own neighbor set")
            for l in nbrs:
                if not 0 <= l < n:
                    raise ValueError(f"neighbor {l} of node {k} is out of range")
                if k not in self.neighbors[l]:
                    raise ValueError(f"link {k}-{l} is not symmetric")

    def degree(self, k: int) -> int:
        """Size of node k's neighborhood, itself included."""
        return len(self.neighbors[k])

    def is_connected(self) -> bool:
        """Breadth-first reachability of every node from node 0."""
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self.neighbors[v]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return len(seen) == self.node_count


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

    def validate_support(self, topology: Topology) -> None:
        """Raise if any nonzero weight falls outside the neighbor sets."""
        n = topology.node_count
        if self.node_count != n:
            raise ValueError("weight tables do not match the topology size")
        linked = np.zeros((n, n), dtype=bool)
        for k, nbrs in enumerate(topology.neighbors):
            linked[k, list(nbrs)] = True
        # indexed [k, l]: the first offending pair in k-major, then l order
        stray = ~linked & ((self.a != 0.0) | (self.c != 0.0)).T
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
    if 2 * half_width >= n and not (n == 1 and half_width == 0):
        raise ValueError(f"half_width {half_width} too large for n={n} (need 2*half_width < n)")
    nbrs = []
    for k in range(n):
        s = {k}
        for d in range(1, half_width + 1):
            s.add((k + d) % n)
            s.add((k - d) % n)
        nbrs.append(frozenset(s))
    return Topology(node_count=n, neighbors=tuple(nbrs))


def build_random_geometric(n: int, radius: float, seed: int) -> Topology:
    """Random geometric graph on the unit square, repaired to connectivity.

    Nodes are placed uniformly at random from the seed; two nodes link when
    their Euclidean distance is at most ``radius``. If the result is
    disconnected the radius is grown by 10% until it is (termination is
    guaranteed once the radius exceeds sqrt(2)). Deterministic in
    (n, radius, seed).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    r = float(radius)
    while True:
        adj = d2 <= r * r
        nbrs = tuple(frozenset(np.nonzero(adj[k])[0].tolist()) | frozenset({k}) for k in range(n))
        topo = Topology(node_count=n, neighbors=tuple(frozenset(s) for s in nbrs))
        if topo.is_connected():
            return topo
        r *= 1.1


def uniform_weights(topology: Topology) -> CombinationWeights:
    """Uniform rule: every in-neighborhood weight is 1 / degree(k).

    Applied identically to the estimate table ``a`` and the data table ``c``.
    """
    n = topology.node_count
    a = np.zeros((n, n))
    for k in range(n):
        w = 1.0 / topology.degree(k)
        for l in topology.neighbors[k]:
            a[l, k] = w
    return CombinationWeights(a=a, c=a.copy())


def non_cooperative_weights(n: int) -> CombinationWeights:
    """Identity tables: each node uses only its own estimate and data.

    Disables diffusion entirely; every node runs a stand-alone filter.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    eye = np.eye(n)
    return CombinationWeights(a=eye, c=eye.copy())


def save_edge_list(topology: Topology, path: str | os.PathLike) -> None:
    """Write a topology as plain text: first line "N", then one "k l" line
    per undirected edge, 1-based, self-loops implicit."""
    lines = [str(topology.node_count)]
    for k in range(topology.node_count):
        for l in sorted(topology.neighbors[k]):
            if l > k:
                lines.append(f"{k + 1} {l + 1}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path: str | os.PathLike) -> Topology:
    """Read the edge-list format written by :func:`save_edge_list`."""
    with open(path, "r", encoding="ascii") as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln]
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"{path}: first line must be the node count") from exc
    if n < 1:
        raise ValueError(f"{path}: node count must be >= 1, got {n}")
    nbrs = [{k} for k in range(n)]
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed edge line {ln!r}")
        try:
            k, l = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed edge line {ln!r}") from exc
        if not (1 <= k <= n and 1 <= l <= n):
            raise ValueError(f"{path}: edge {ln!r} out of range for n={n}")
        nbrs[k - 1].add(l - 1)
        nbrs[l - 1].add(k - 1)
    return Topology(node_count=n, neighbors=tuple(frozenset(s) for s in nbrs))
