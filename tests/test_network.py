import numpy as np
import pytest

from edge_lists import write_edge_list

from diffusion_lms.network import (
    STOCHASTIC_TOL,
    CombinationWeights,
    Topology,
    build_random_geometric,
    build_ring_lattice,
    load_edge_list,
    non_cooperative_weights,
    uniform_weights,
)
from diffusion_lms.signals import ConfigError, DataFileError

# the path 0 - 1 - 2
PATH3 = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)


def neighbors(topo, k):
    """Node k's neighborhood, itself included, read off its adjacency row."""
    return set(np.flatnonzero(topo.adjacency[k]).tolist())


def bfs_connected(topo):
    # independent connectivity oracle
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop(0)
        for nxt in neighbors(topo, v):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == topo.node_count


class TestRingLattice:
    def test_zero_half_width_isolates_nodes(self):
        topo = build_ring_lattice(5, 0)
        assert np.array_equal(topo.adjacency, np.eye(5, dtype=bool))

    def test_adjacent_ring(self):
        topo = build_ring_lattice(5, 1)
        assert neighbors(topo, 0) == {4, 0, 1}
        assert topo.adjacency[:, 0].sum() == 3

    def test_wide_ring_matches_exhaustive_adjacency(self):
        n, h = 20, 2
        topo = build_ring_lattice(n, h)
        for k in range(n):
            expected = {(k + d) % n for d in range(-h, h + 1)}
            assert neighbors(topo, k) == expected
            assert len(expected) == 2 * h + 1
        for k in range(n):
            for l in neighbors(topo, k):
                assert k in neighbors(topo, l)

    def test_rejects_overlapping_half_width(self):
        with pytest.raises(ValueError):
            build_ring_lattice(4, 2)
        with pytest.raises(ValueError):
            build_ring_lattice(5, 3)

    def test_single_node(self):
        topo = build_ring_lattice(1, 0)
        assert np.array_equal(topo.adjacency, [[True]])


class TestRandomGeometric:
    def test_single_node(self):
        topo = build_random_geometric(1, 0.2, 0)
        assert np.array_equal(topo.adjacency, [[True]])

    def test_pair_with_large_radius_fully_connected(self):
        topo = build_random_geometric(2, 1.5, 7)
        assert topo.adjacency.all()

    def test_twenty_nodes_connected_with_sane_degrees(self):
        topo = build_random_geometric(20, 0.35, 42)
        assert bfs_connected(topo)
        degrees = topo.adjacency.sum(axis=0)
        assert degrees.min() >= 2
        assert degrees.max() <= 20

    def test_deterministic_in_seed(self):
        a = build_random_geometric(20, 0.35, 42)
        b = build_random_geometric(20, 0.35, 42)
        assert np.array_equal(a.adjacency, b.adjacency)
        c = build_random_geometric(20, 0.35, 43)
        assert not np.array_equal(a.adjacency, c.adjacency)

    def test_rejects_non_positive_or_nan_radius(self):
        # a NaN radius links no pair, not even a node to itself, and never grows
        for radius in (0.0, -0.3, float("nan")):
            with pytest.raises(ValueError, match="radius must be positive"):
                build_random_geometric(5, radius, 0)

    def test_disconnected_draw_is_repaired(self):
        # tiny radius forces the growth loop; the result must be connected
        topo = build_random_geometric(12, 0.01, 3)
        assert bfs_connected(topo)


class TestTopologyInvariants:
    def test_rejects_missing_self_loop(self):
        adj = np.ones((3, 3), dtype=bool)
        adj[1, 1] = False
        with pytest.raises(ValueError, match=r"^node 1 is not linked to itself$"):
            Topology(adj)

    def test_rejects_asymmetry(self):
        adj = np.eye(3, dtype=bool)
        adj[0, 2] = True
        with pytest.raises(ValueError, match=r"^link 0-2 is not symmetric$"):
            Topology(adj)

    def test_rejects_non_square_or_empty(self):
        for shape in ((2, 3), (0, 0), (3,), (2, 2, 2)):
            with pytest.raises(ValueError, match="nonempty square"):
                Topology(np.ones(shape, dtype=bool))

    def test_is_connected_matches_breadth_first_search(self):
        two_pairs = np.zeros((4, 4), dtype=bool)
        two_pairs[:2, :2] = two_pairs[2:, 2:] = True
        tail = np.eye(4, dtype=bool)
        tail[:3, :3] = PATH3  # node 3 is isolated
        for adj in (two_pairs, tail, PATH3, np.eye(1, dtype=bool), np.eye(5, dtype=bool)):
            assert Topology(adj).is_connected() == bfs_connected(Topology(adj))
        assert build_ring_lattice(9, 1).is_connected()
        assert not Topology(tail).is_connected()

    def test_adjacency_is_a_read_only_copy(self):
        given = np.eye(3, dtype=bool)
        topo = Topology(given)
        given[0, 1] = given[1, 0] = True
        assert np.array_equal(topo.adjacency, np.eye(3, dtype=bool))
        with pytest.raises(ValueError):
            topo.adjacency[0, 1] = True


class TestWeights:
    def test_isolated_node_gets_unit_self_weight(self):
        topo = build_ring_lattice(3, 0)
        w = uniform_weights(topo)
        assert w.a[0, 0] == 1.0
        assert w.a[1, 0] == 0.0 and w.a[2, 0] == 0.0

    def test_degree_four_neighborhood_weight(self):
        # star of 3 spokes: center node 0 has degree 4 counting itself
        adj = np.eye(4, dtype=bool)
        adj[0, 1:] = adj[1:, 0] = True
        w = uniform_weights(Topology(adj))
        assert np.allclose(w.a[:, 0], 0.25)

    def test_three_node_path_column(self):
        w = uniform_weights(Topology(PATH3))
        assert np.allclose(w.a[:, 1], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(w.c[:, 1], [1 / 3, 1 / 3, 1 / 3])

    def test_non_cooperative_is_identity(self):
        w = non_cooperative_weights(3)
        assert np.array_equal(w.a, np.eye(3))
        assert np.array_equal(w.c, np.eye(3))
        assert np.array_equal(non_cooperative_weights(1).a, [[1.0]])

    @pytest.mark.parametrize(
        "topo",
        [
            build_ring_lattice(7, 2),
            build_ring_lattice(5, 0),
            build_random_geometric(20, 0.35, 42),
            build_random_geometric(9, 0.4, 5),
        ],
        ids=["ring7", "isolated5", "geo20", "geo9"],
    )
    def test_column_stochastic_and_supported(self, topo):
        w = uniform_weights(topo)
        for table in (w.a, w.c):
            assert np.abs(table.sum(axis=0) - 1.0).max() <= STOCHASTIC_TOL
            assert (table >= 0.0).all()
        for k in range(topo.node_count):
            degree = len(neighbors(topo, k))
            for l in range(topo.node_count):
                expected = 1.0 / degree if l in neighbors(topo, k) else 0.0
                assert w.a[l, k] == expected
                assert w.c[l, k] == expected
        w.validate_support(topo)

    def test_uniform_on_regular_graph_is_doubly_stochastic(self):
        topo = build_ring_lattice(10, 2)
        w = uniform_weights(topo)
        assert np.abs(w.a.sum(axis=1) - 1.0).max() <= STOCHASTIC_TOL

    def test_rejects_non_stochastic_table(self):
        bad = np.eye(3) * 0.5
        with pytest.raises(ValueError, match="sum to 1"):
            CombinationWeights(a=bad, c=bad)

    def test_rejects_negative_entries(self):
        bad = np.eye(3)
        bad[0, 1] = -0.1
        bad[1, 1] = 1.1
        with pytest.raises(ValueError, match="negative"):
            CombinationWeights(a=bad, c=np.eye(3))

    def test_support_violation_detected(self):
        topo = build_ring_lattice(5, 0)
        full = np.full((5, 5), 0.2)
        w = CombinationWeights(a=full, c=full.copy())
        with pytest.raises(ValueError, match="non-neighbor"):
            w.validate_support(topo)

    def test_support_violation_names_first_pair_node_major(self):
        # ring of 6: node 0 links to {5, 0, 1}, node 2 to {1, 2, 3}
        topo = build_ring_lattice(6, 1)
        a = uniform_weights(topo).a.copy()
        c = a.copy()
        a[3, 0], a[1, 0] = a[1, 0], 0.0  # node 0 weighs non-neighbor 3
        c[4, 0], c[5, 0] = c[5, 0], 0.0  # and non-neighbor 4
        c[0, 2], c[1, 2] = c[1, 2], 0.0  # node 2 weighs non-neighbor 0
        w = CombinationWeights(a=a, c=c)
        with pytest.raises(ValueError, match=r"^nonzero weight on non-neighbor pair \(3, 0\)$"):
            w.validate_support(topo)
        uniform_weights(topo).validate_support(topo)

    def test_tables_are_frozen(self):
        w = non_cooperative_weights(2)
        with pytest.raises(ValueError):
            w.a[0, 0] = 2.0


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        topo = build_random_geometric(9, 0.4, 11)
        path = tmp_path / "graph.txt"
        write_edge_list(topo, path)
        assert np.array_equal(load_edge_list(path, 9).adjacency, topo.adjacency)

    def test_file_format_is_one_based(self, tmp_path):
        path = tmp_path / "path.txt"
        path.write_text("3\n1 2\n2 3\n")
        assert np.array_equal(load_edge_list(path, 3).adjacency, PATH3)

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        text = b"4\n1 2\n2 3\n3 4\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert np.array_equal(load_edge_list(marked, 4).adjacency, load_edge_list(plain, 4).adjacency)
        # past the mark, a Unicode digit is still no edge
        marked.write_bytes(b"\xef\xbb\xbf4\n1 " + "\u0662".encode() + b"\n")
        with pytest.raises(DataFileError, match="malformed edge line '1 \ufffd\ufffd'"):
            load_edge_list(marked, 4)

    def test_load_rejects_bad_content(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2 3\n")
        with pytest.raises(DataFileError, match="malformed"):
            load_edge_list(path, 2)
        path.write_bytes(b"2\n1 \xff\n")
        with pytest.raises(DataFileError, match="malformed edge line '1 \ufffd'"):
            load_edge_list(path, 2)
        path.write_text("2\n1 5\n")
        with pytest.raises(DataFileError, match="out of range"):
            load_edge_list(path, 2)
        path.write_text("")
        with pytest.raises(DataFileError, match="empty"):
            load_edge_list(path, 2)
        # the header is checked against nodes before any N x N table is built
        path.write_text(f"{10**18}\n1 x\n")
        with pytest.raises(ConfigError, match=f"^nodes: 2, but edge list .* has {10**18} nodes$"):
            load_edge_list(path, 2)


# input checks of the tables and builders, one row each
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: CombinationWeights(a=np.full((2, 3), 0.5), c=np.ones((2, 3))), "a must be square, got shape (2, 3)"),
        (lambda: CombinationWeights(a=np.eye(2), c=np.eye(3)), "c shape (3, 3) does not match a shape (2, 2)"),
        (lambda: CombinationWeights(a=np.eye(2), c=np.array([[np.nan, 0.0], [1.0, 1.0]])), "c has non-finite entries"),
        (
            lambda: non_cooperative_weights(3).validate_support(build_ring_lattice(4, 1)),
            "weight tables do not match the topology size",
        ),
        (lambda: build_ring_lattice(0, 0), "n must be >= 1, got 0"),
        (lambda: build_ring_lattice(4, -1), "half_width must be >= 0, got -1"),
        (lambda: build_random_geometric(0, 0.5, 1), "n must be >= 1, got 0"),
        (lambda: non_cooperative_weights(0), "n must be >= 1, got 0"),
    ],
    ids=[
        "weights_not_square",
        "weights_mismatched",
        "weights_not_finite",
        "support_size_mismatch",
        "ring_no_nodes",
        "ring_negative_half_width",
        "geometric_no_nodes",
        "non_cooperative_no_nodes",
    ],
)
def test_rejects_invalid_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
