"""The tests' one writer of the plain-text topology format: first line "N",
then one "k l" line per undirected edge, 1-based, self-loops implicit."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from diffusion_lms.network import Topology


def write_edge_list(topology: Topology, path: Path) -> None:
    """Write ``topology`` to ``path``, its edges in (k, l) order with k < l."""
    lines = [str(topology.node_count)]
    lines += [f"{k + 1} {l + 1}" for k, l in np.argwhere(np.triu(topology.adjacency, 1))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
