import numpy as np
import pytest

from diffusion_lms.network import (
    STOCHASTIC_TOL,
    CombinationWeights,
    Topology,
    build_random_geometric,
    build_ring_lattice,
    load_edge_list,
    non_cooperative_weights,
    save_edge_list,
    uniform_weights,
)


def bfs_connected(topo):
    # independent connectivity oracle
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop(0)
        for nxt in topo.neighbors[v]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == topo.node_count


class TestRingLattice:
    def test_zero_half_width_isolates_nodes(self):
        topo = build_ring_lattice(5, 0)
        assert all(topo.neighbors[k] == frozenset({k}) for k in range(5))
        assert all(topo.degree(k) == 1 for k in range(5))

    def test_adjacent_ring(self):
        topo = build_ring_lattice(5, 1)
        assert topo.neighbors[0] == frozenset({4, 0, 1})
        assert topo.degree(0) == 3

    def test_wide_ring_matches_exhaustive_adjacency(self):
        n, h = 20, 2
        topo = build_ring_lattice(n, h)
        for k in range(n):
            expected = {(k + d) % n for d in range(-h, h + 1)}
            assert topo.neighbors[k] == frozenset(expected)
            assert topo.degree(k) == 2 * h + 1
        for k in range(n):
            for l in topo.neighbors[k]:
                assert k in topo.neighbors[l]

    def test_rejects_overlapping_half_width(self):
        with pytest.raises(ValueError):
            build_ring_lattice(4, 2)
        with pytest.raises(ValueError):
            build_ring_lattice(5, 3)

    def test_single_node(self):
        topo = build_ring_lattice(1, 0)
        assert topo.neighbors == (frozenset({0}),)


class TestRandomGeometric:
    def test_single_node(self):
        topo = build_random_geometric(1, 0.2, 0)
        assert topo.neighbors[0] == frozenset({0})

    def test_pair_with_large_radius_fully_connected(self):
        topo = build_random_geometric(2, 1.5, 7)
        assert topo.neighbors[0] == frozenset({0, 1})
        assert topo.neighbors[1] == frozenset({0, 1})

    def test_twenty_nodes_connected_with_sane_degrees(self):
        topo = build_random_geometric(20, 0.35, 42)
        assert bfs_connected(topo)
        degrees = [topo.degree(k) for k in range(20)]
        assert min(degrees) >= 2
        assert max(degrees) <= 20

    def test_deterministic_in_seed(self):
        a = build_random_geometric(20, 0.35, 42)
        b = build_random_geometric(20, 0.35, 42)
        assert a == b
        c = build_random_geometric(20, 0.35, 43)
        assert a != c

    def test_disconnected_draw_is_repaired(self):
        # tiny radius forces the growth loop; the result must be connected
        topo = build_random_geometric(12, 0.01, 3)
        assert bfs_connected(topo)


class TestTopologyInvariants:
    def test_rejects_missing_self_loop(self):
        with pytest.raises(ValueError, match="own neighbor set"):
            Topology(node_count=2, neighbors=(frozenset({1}), frozenset({1})))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            Topology(node_count=2, neighbors=(frozenset({0, 1}), frozenset({1})))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Topology(node_count=2, neighbors=(frozenset({0, 5}), frozenset({1})))


class TestWeights:
    def test_isolated_node_gets_unit_self_weight(self):
        topo = build_ring_lattice(3, 0)
        w = uniform_weights(topo)
        assert w.a[0, 0] == 1.0
        assert w.a[1, 0] == 0.0 and w.a[2, 0] == 0.0

    def test_degree_four_neighborhood_weight(self):
        # star of 3 spokes: center node 0 has degree 4 counting itself
        nbrs = (
            frozenset({0, 1, 2, 3}),
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({0, 3}),
        )
        topo = Topology(node_count=4, neighbors=nbrs)
        w = uniform_weights(topo)
        assert np.allclose(w.a[list(nbrs[0]), 0], 0.25)

    def test_three_node_path_column(self):
        nbrs = (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({1, 2}))
        topo = Topology(node_count=3, neighbors=nbrs)
        w = uniform_weights(topo)
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
            for l in range(topo.node_count):
                if l not in topo.neighbors[k]:
                    assert w.a[l, k] == 0.0
                    assert w.c[l, k] == 0.0
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
        save_edge_list(topo, path)
        assert load_edge_list(path) == topo

    def test_file_format_is_one_based(self, tmp_path):
        nbrs = (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({1, 2}))
        topo = Topology(node_count=3, neighbors=nbrs)
        path = tmp_path / "path.txt"
        save_edge_list(topo, path)
        assert path.read_text() == "3\n1 2\n2 3\n"

    def test_load_rejects_bad_content(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2 3\n")
        with pytest.raises(ValueError, match="malformed"):
            load_edge_list(path)
        path.write_text("2\n1 5\n")
        with pytest.raises(ValueError, match="out of range"):
            load_edge_list(path)
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_edge_list(path)
