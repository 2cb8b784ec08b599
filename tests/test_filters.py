from dataclasses import replace

import numpy as np
import pytest

from edge_lists import write_edge_list
from kernel_rounds import dense_run_filter, one_round, trajectory
from reference_impl import atc_dlms_step, cta_dlms_step, standalone_leaky_lms

from diffusion_lms import filters
from diffusion_lms.analysis import linear_deviation
from diffusion_lms.experiment import ExperimentConfig, build_setup
from diffusion_lms.filters import run_filter
from diffusion_lms.network import (
    CombinationWeights,
    Topology,
    build_random_geometric,
    build_ring_lattice,
    load_edge_list,
    non_cooperative_weights,
    uniform_weights,
)
from diffusion_lms.signals import (
    FrameStream,
    default_lowpass_system,
    delay_line_source,
    gaussian_source,
    synthetic_speech,
)


def single_node_weights():
    return uniform_weights(build_ring_lattice(1, 0))


def first_rounds(stream, k):
    """The stream cut to its first k rounds."""
    return replace(stream, u=stream.u[:k], d=stream.d[:k], noise=stream.noise[:k])


class TestScalarHandValues:
    def test_atc_leaky_scalar_round(self):
        weights = single_node_weights()
        w, phi = one_round(np.zeros((1, 1)), np.array([[1.0]]), np.array([1.0]), "atc", 0.5, 0.2, weights)
        # (1 - 0.5*0.2)*0 + 0.5*1*(1 - 0) = 0.5, then combine over {self}
        assert np.isclose(phi[0, 0], 0.5, atol=1e-15)
        assert np.isclose(w[0, 0], 0.5, atol=1e-15)

    def test_cta_leaky_scalar_round(self):
        weights = single_node_weights()
        w, combined = one_round(np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]), "cta", 0.5, 0.2, weights)
        # combined = 0.5, then 0.9*0.5 + 0.5*(1 - 0.5) = 0.7
        assert np.isclose(combined[0, 0], 0.5, atol=1e-15)
        assert np.isclose(w[0, 0], 0.7, atol=1e-15)


class TestRoundStructure:
    def setup_method(self):
        self.weights = uniform_weights(build_random_geometric(6, 0.5, 2))
        self.rng = np.random.default_rng(0)

    def frame(self, n=6, m=3):
        """One round's regressors and measurements."""
        return self.rng.standard_normal((n, m)), self.rng.standard_normal(n)

    def test_zero_step_size_keeps_equal_states_fixed(self):
        w = np.tile(self.rng.standard_normal(3), (6, 1))
        w_new, phi = one_round(w, *self.frame(), "atc", 0.0, 0.3, self.weights)
        assert np.allclose(phi, w, atol=1e-15)
        assert np.allclose(w_new, w, atol=1e-12)

    def test_cta_fixed_point_of_pure_averaging(self):
        w = np.tile(self.rng.standard_normal(3), (6, 1))
        w_new, _ = one_round(w, *self.frame(), "cta", 0.0, 0.0, self.weights)
        assert np.allclose(w_new, w, atol=1e-12)

    def test_consensus_on_truth_is_invariant_without_leak(self):
        w_o = self.rng.standard_normal(3)
        w = np.tile(w_o, (6, 1))
        u = self.rng.standard_normal((6, 3))
        d = u @ w_o  # noiseless measurements
        for ordering in ("atc", "cta"):
            w_new, _ = one_round(w, u, d, ordering, 0.4, 0.0, self.weights)
            assert np.allclose(w_new, w, atol=1e-12)

    def test_leak_contracts_norm_without_excitation(self):
        # complete graph on 4 nodes: degree 4 keeps uniform weights exact
        weights = uniform_weights(Topology(np.ones((4, 4), dtype=bool)))
        mu, gamma = 0.1, 0.5
        w = np.tile(self.rng.standard_normal(3), (4, 1))
        for _ in range(50):
            w_new, _ = one_round(w, np.zeros((4, 3)), np.zeros(4), "atc", mu, gamma, weights)
            ratio = np.linalg.norm(w_new) / np.linalg.norm(w)
            assert np.isclose(ratio, 1.0 - mu * gamma, rtol=1e-12)
            w = w_new

    def test_shape_mismatch_rejected(self):
        # a measurement axis of 1 would broadcast one measurement to every node
        out = np.zeros((2, 1, 6, 3))
        for u, d in ((np.zeros((5, 3)), np.zeros(5)), (np.zeros((6, 3)), np.zeros(1)), (np.zeros((6, 4)), np.zeros(6))):
            with pytest.raises(ValueError):
                run_filter(self.weights, 0.1, 0.0, u[None, None], d[None, None], out=out, phi_out=np.zeros_like(out))
        # measurements for 4 rounds of 10 are rejected before any round runs
        out = np.zeros((11, 6, 3))
        out[0] = 1.0
        with pytest.raises(ValueError):
            run_filter(self.weights, 0.1, 0.0, np.ones((10, 6, 3)), np.ones((4, 6)), out=out, phi_out=np.zeros_like(out))
        assert not out[1:].any()


def banded_topology(n):
    """Node k links to the next k % 4 nodes, with no wrap: halos of tiles
    of 20 differ in width."""
    adj = np.eye(n, dtype=bool)
    for k in range(n):
        adj[k, k : k + k % 4 + 1] = adj[k : k + k % 4 + 1, k] = True
    return Topology(adj)


class TestAgainstReference:
    """Kernel rounds versus the independently coded per-node recursions,
    on one-tile networks and on networks the kernel cuts into halo tiles."""

    @staticmethod
    def networks(tmp_path):
        for n, tap_counts in ((1, (1, 5, 16, 33)), (2, (1, 5, 16, 33)), (3, (1, 5)), (20, (5, 16, 33)), (64, (1, 5, 16, 33))):
            weights = uniform_weights(build_ring_lattice(n, min(2, (n - 1) // 2)))
            assert weights.halo_tiles is None
            yield weights, tap_counts
        path = tmp_path / "banded.txt"
        write_edge_list(banded_topology(100), path)
        tiled = [
            uniform_weights(build_ring_lattice(60, 2)),
            uniform_weights(build_ring_lattice(200, 3)),
            non_cooperative_weights(80),
            uniform_weights(load_edge_list(path, 100)),
        ]
        # the banded network's halos differ in width: the narrower ones are padded
        halo_widths = (tiled[3].halo_tiles[1] != 0.0).any(axis=1).sum(axis=1)
        assert halo_widths.min() < halo_widths.max()
        for weights in tiled:
            assert weights.halo_tiles is not None
            yield weights, (4,)

    def cases(self, tmp_path):
        rng = np.random.default_rng(99)
        for weights, tap_counts in self.networks(tmp_path):
            n = weights.node_count
            for m in tap_counts:
                for _ in range(5 if n <= 20 else 2):
                    w = rng.standard_normal((n, m))
                    u = rng.standard_normal((n, m))
                    d = rng.standard_normal(n)
                    yield weights, w, u, d

    def assert_reduction_matches_reference(self, tmp_path, gamma):
        mu = 0.07
        for weights, w, u, d in self.cases(tmp_path):
            ref_w, ref_phi = atc_dlms_step(w, u, d, mu, weights.a, weights.c, gamma=gamma)
            out_w, out_phi = one_round(w, u, d, "atc", mu, gamma, weights)
            assert np.abs(out_w - ref_w).max() <= 1e-15
            assert np.abs(out_phi - ref_phi).max() <= 1e-15
            ref_w, ref_phi = cta_dlms_step(w, u, d, mu, weights.a, weights.c, gamma=gamma)
            out_w, out_phi = one_round(w, u, d, "cta", mu, gamma, weights)
            assert np.abs(out_w - ref_w).max() <= 1e-15
            assert np.abs(out_phi - ref_phi).max() <= 1e-15

    def test_plain_reduction_matches_reference(self, tmp_path):
        self.assert_reduction_matches_reference(tmp_path, 0.0)

    def test_leaky_reduction_matches_reference(self, tmp_path):
        self.assert_reduction_matches_reference(tmp_path, 0.5)

    def test_node_update_order_is_immaterial(self, tmp_path):
        for weights, w, u, d in self.cases(tmp_path):
            n = weights.node_count
            forward = atc_dlms_step(w, u, d, 0.1, weights.a, weights.c, node_order=range(n))
            reverse = atc_dlms_step(w, u, d, 0.1, weights.a, weights.c, node_order=range(n - 1, -1, -1))
            assert np.array_equal(forward[0], reverse[0])
            forward = cta_dlms_step(w, u, d, 0.1, weights.a, weights.c, node_order=range(n))
            reverse = cta_dlms_step(w, u, d, 0.1, weights.a, weights.c, node_order=range(n - 1, -1, -1))
            assert np.array_equal(forward[0], reverse[0])


class TestReductions:
    def test_non_cooperative_atc_equals_cta(self):
        rng = np.random.default_rng(5)
        weights = non_cooperative_weights(4)
        w = rng.standard_normal((4, 3))
        u, d = rng.standard_normal((4, 3)), rng.standard_normal(4)
        out_a, _ = one_round(w, u, d, "atc", 0.2, 0.1, weights)
        out_c, _ = one_round(w, u, d, "cta", 0.2, 0.1, weights)
        assert np.array_equal(out_a, out_c)

    def test_non_cooperative_matches_standalone_filters(self):
        # identity weights collapse diffusion to independent filters per node
        n, m, steps = 4, 3, 200
        weights = non_cooperative_weights(n)
        w_o = np.linspace(0.1, 0.4, m)
        stream = gaussian_source(np.full(n, 0.5), w_o, seed=12, horizon=steps, snr_db=10.0)
        for gamma in (0.0, 0.01):
            snaps = trajectory(weights, "atc", 0.1, gamma, stream)
            for k in range(n):
                ref = standalone_leaky_lms(stream.u[:, k, :], stream.d[:, k], 0.1, gamma)
                assert np.abs(snaps[:, k, :] - ref).max() <= 1e-13

    def test_single_node_orderings_coincide(self):
        weights = single_node_weights()
        stream = gaussian_source(np.array([0.35]), default_lowpass_system(5), seed=3, horizon=300)
        run_a = trajectory(weights, "atc", 0.05, 0.002, stream)
        run_c = trajectory(weights, "cta", 0.05, 0.002, stream)
        assert np.array_equal(run_a, run_c)


class TestRunFilter:
    def test_zero_horizon_returns_initial_snapshot(self):
        weights = single_node_weights()
        stream = gaussian_source(np.array([1.0]), default_lowpass_system(2), seed=0, horizon=5)
        out = np.zeros((1, 1, 2))
        snaps = run_filter(weights, 0.1, 0.0, stream.u[:0], stream.d[:0], out=out, phi_out=np.zeros_like(out))
        assert snaps is out
        assert not snaps.any()

    def test_initial_deviation_is_system_power(self):
        topo = build_ring_lattice(20, 2)
        w_o = default_lowpass_system(5)
        stream = gaussian_source(np.full(20, 0.5), w_o, seed=0, horizon=3)
        snaps = trajectory(uniform_weights(topo), "atc", 0.1, 0.0, first_rounds(stream, 0))
        network = linear_deviation(snaps, w_o)
        assert np.isclose(network[0], float(w_o @ w_o))

    def test_noiseless_single_node_converges_to_truth(self):
        weights = single_node_weights()
        w_o = default_lowpass_system(5)
        sigma_sq = 0.35
        mu = 2.0 / sigma_sq / 50.0
        stream = gaussian_source(np.array([sigma_sq]), w_o, seed=21, horizon=10_000, noise_variance=0.0)
        snaps = trajectory(weights, "atc", mu, 0.0, stream)
        assert np.abs(snaps[-1, 0] - w_o).max() < 1e-6

    def test_divergence_is_not_masked(self):
        weights = single_node_weights()
        ones = np.ones((400, 1))
        stream = FrameStream(u=ones[..., None], d=ones, noise=np.zeros((400, 1)), noise_variance=np.zeros(1))
        snaps = trajectory(weights, "atc", 5.0, 0.0, stream)  # far beyond the stable range
        assert not np.isfinite(snaps[-1]).all() or np.abs(snaps[-1]).max() > 1e6


class TestSharedRecursion:
    """ATC and CTA with one (mu, gamma) share one recursion."""

    def setup_method(self):
        self.weights = uniform_weights(build_random_geometric(8, 0.5, 3))

    def stream(self, seed, horizon=60):
        return gaussian_source(np.linspace(0.2, 1.0, 8), default_lowpass_system(3), seed=seed, horizon=horizon)

    def test_cta_snapshots_are_the_atc_intermediates(self):
        stream = self.stream(4)
        cta = trajectory(self.weights, "cta", 0.3, 0.01, stream)
        w = np.zeros((8, 3))
        for i, (u, d) in enumerate(zip(stream.u, stream.d), start=1):
            w, phi = one_round(w, u, d, "atc", 0.3, 0.01, self.weights)
            assert np.array_equal(cta[i], phi)
            assert np.array_equal(self.weights.a.T @ cta[i], w)

    def test_batched_blocks_equal_unbatched_runs(self):
        # two trials x three (mu, gamma) pairs, the horizon split into blocks of 7 and 4
        streams = [self.stream(11), self.stream(12)]
        pairs = [(0.1, 0.0), (0.1, 0.02), (0.5, 0.0)]
        mu = np.array([[[[p[0]]] for p in pairs]] * 2)
        gamma = np.array([[[p[1]]] for p in pairs])
        out = np.zeros((8, 2, 3, 8, 3))
        phi_out = np.zeros_like(out)
        estimates, intermediates = [out[0].copy()], [out[0].copy()]
        for start, stop in ((0, 7), (7, 11)):
            rows = stop - start + 1
            u = np.stack([s.u[start:stop] for s in streams], axis=1)[:, :, None]
            d = np.stack([s.d[start:stop] for s in streams], axis=1)[:, :, None]
            got = run_filter(self.weights, mu, gamma, u, d, out=out[:rows], phi_out=phi_out[:rows])
            assert got.base is out
            estimates.extend(out[1:rows].copy())
            intermediates.extend(phi_out[1:rows].copy())
            out[0] = out[rows - 1]
        estimates, intermediates = np.stack(estimates), np.stack(intermediates)
        for j, stream in enumerate(streams):
            stream = first_rounds(stream, 11)
            for p, (step, leak) in enumerate(pairs):
                atc = trajectory(self.weights, "atc", step, leak, stream)
                cta = trajectory(self.weights, "cta", step, leak, stream)
                assert np.array_equal(estimates[:, j, p], atc)
                assert np.array_equal(intermediates[1:, j, p], cta[1:])

    def test_zero_step_holds_a_zeroed_element(self):
        stream = self.stream(5, horizon=10)
        out = np.zeros((11, 2, 8, 3))
        mu = np.array([[[0.0]], [[0.2]]])
        run_filter(self.weights, mu, 0.0, stream.u[:, None], stream.d[:, None], out=out, phi_out=np.zeros_like(out))
        assert not out[:, 0].any()
        assert out[-1, 1].any()

    def test_block_buffers_must_fit(self):
        stream = self.stream(5, horizon=10)
        u, d = stream.u[:, None], stream.d[:, None]
        with pytest.raises(ValueError):
            run_filter(self.weights, 0.1, 0.0, u, d, out=np.zeros((10, 1, 8, 3)), phi_out=np.zeros((10, 1, 8, 3)))
        with pytest.raises(ValueError):
            run_filter(self.weights, 0.1, 0.0, u, d, out=np.zeros((11, 1, 8, 3)), phi_out=np.zeros((11, 2, 8, 3)))


class TestRoundScratch:
    """run_filter against T successive single steps, exactly: scratch
    shared across batch elements, or kept rows that alias scratch, would
    break the equality. Each run is repeated with the buffer whose rows are
    not kept passed as a writable zero-stride view of one zeroed table, as
    denoise_speech passes it; its kept rows must be bitwise those of the
    run with two full buffers."""

    def setup_method(self):
        self.weights = uniform_weights(build_random_geometric(7, 0.5, 9))

    def stream(self, seed, horizon=25):
        return gaussian_source(np.linspace(0.2, 1.0, 7), default_lowpass_system(4), seed=seed, horizon=horizon)

    def stepped(self, stream, mu, gamma):
        """(ATC estimates, CTA estimates) after each round, from all-zero tables."""
        atc, cta = [np.zeros((7, 4))], [np.zeros((7, 4))]
        for u, d in zip(stream.u, stream.d):
            atc.append(one_round(atc[-1], u, d, "atc", mu, gamma, self.weights)[0])
            cta.append(one_round(cta[-1], u, d, "cta", mu, gamma, self.weights)[0])
        return np.stack(atc), np.stack(cta)

    def kept_runs(self, mu, gamma, u, d, shape):
        """{ordering: kept buffer} of a run with two full buffers, checked
        bitwise against a run whose other buffer is a zero-stride view."""
        runs = {}
        for ordering in ("atc", "cta"):
            for aliased in (False, True):
                kept, table = np.zeros(shape), np.zeros(shape[1:])
                unread = np.lib.stride_tricks.as_strided(table, shape, (0,) + table.strides) if aliased else np.zeros(shape)
                out, phi_out = (kept, unread) if ordering == "atc" else (unread, kept)
                run_filter(self.weights, mu, gamma, u, d, out=out, phi_out=phi_out)
                runs.setdefault(ordering, kept)
                assert np.array_equal(kept, runs[ordering])
        return runs

    def test_unbatched_run_matches_steps(self):
        stream = self.stream(21)
        atc, cta = self.stepped(stream, 0.2, 0.01)
        runs = self.kept_runs(0.2, 0.01, stream.u, stream.d, (26, 7, 4))
        assert np.array_equal(runs["atc"], atc)
        assert np.array_equal(runs["cta"], cta)

    def test_batched_run_matches_steps(self):
        # 2 trials x 2 pairs, a distinct step size in every element
        streams = [self.stream(22), self.stream(23)]
        mu = np.array([[0.1, 0.3], [0.15, 0.25]])
        gamma = np.array([0.0, 0.05])
        u = np.stack([s.u for s in streams], axis=1)[:, :, None]
        d = np.stack([s.d for s in streams], axis=1)[:, :, None]
        runs = self.kept_runs(mu[..., None, None], gamma[:, None, None], u, d, (26, 2, 2, 7, 4))
        for j, stream in enumerate(streams):
            for p in range(2):
                atc, cta = self.stepped(stream, mu[j, p], gamma[p])
                assert np.array_equal(runs["atc"][:, j, p], atc)
                assert np.array_equal(runs["cta"][1:, j, p], cta[1:])


class TestHaloTiles:
    """The kernel's tiling of the data-sharing product by halo, against
    ``dense_run_filter``, the one-tile round on the same network."""

    @staticmethod
    def ring(n, half_width):
        return uniform_weights(build_ring_lattice(n, half_width))

    @staticmethod
    def batched_data(rng, rounds, n, m):
        """(mu, gamma, u, d) of 2 trials x 2 pairs, one plain and one leaky;
        the data's trial axis broadcasts over the pairs."""
        mu = np.array([[0.05, 0.02], [0.03, 0.04]])[..., None, None]
        gamma = np.array([0.0, 0.5])[:, None, None]
        return mu, gamma, rng.standard_normal((rounds, 2, 1, n, m)), rng.standard_normal((rounds, 2, 1, n))

    @staticmethod
    def both_runs(weights, mu, gamma, u, d, start):
        """(out, phi_out) of run_filter and of dense_run_filter from ``start``."""
        runs = []
        for kernel in (run_filter, dense_run_filter):
            out = np.empty((len(u) + 1,) + start.shape)
            out[0] = start
            phi_out = np.zeros_like(out)
            kernel(weights, mu, gamma, u, d, out=out, phi_out=phi_out)
            runs.append((out, phi_out))
        return runs

    def test_one_tile_networks(self):
        assert build_setup(ExperimentConfig()).weights.halo_tiles is None
        # the narrowest halos there are, each node weighing only its own data
        for n in range(1, 40):
            assert non_cooperative_weights(n).halo_tiles is None
        assert non_cooperative_weights(199).halo_tiles is None  # prime
        assert uniform_weights(build_random_geometric(200, 0.1, 1)).halo_tiles is None
        # the tiny large_network: 2 tiles of 20 with halo 26 fill 1,040 > 800 entries
        assert self.ring(40, 3).halo_tiles is None

    def test_ring_of_200_cuts_into_ten_tiles(self):
        weights = self.ring(200, 3)
        halo, tile_c, tile_a = weights.halo_tiles
        assert halo.shape == (10, 26) and tile_c.shape == tile_a.shape == (10, 20, 26)
        assert weights.halo_tiles is weights.halo_tiles
        assert halo[0].tolist() == list(range(23)) + [197, 198, 199]
        assert halo[1].tolist() == list(range(17, 43))
        for t in range(10):
            assert np.array_equal(tile_c[t], weights.c[halo[t]][:, 20 * t : 20 * t + 20].T)
            assert np.array_equal(tile_a[t], weights.a[halo[t]][:, 20 * t : 20 * t + 20].T)

    def test_narrower_halos_are_padded_with_zero_weights(self):
        weights = uniform_weights(banded_topology(100))
        halo, tile_c, tile_a = weights.halo_tiles
        padded = 0
        for t in range(5):
            weighed = np.flatnonzero(weights.a[:, 20 * t : 20 * t + 20].any(axis=1))
            padding = ~np.isin(halo[t], weighed)
            padded += padding.sum()
            assert not tile_c[t][:, padding].any() and not tile_a[t][:, padding].any()
        assert padded

    def test_halos_cover_both_tables(self):
        # a on ring half-width 3 and c on half-width 1, then the other way round
        rng = np.random.default_rng(7)
        wide, narrow = self.ring(200, 3), self.ring(200, 1)
        mu, gamma, u, d = self.batched_data(rng, 30, 200, 16)
        for a, c in ((wide.a, narrow.c), (narrow.a, wide.c)):
            weights = CombinationWeights(a=a, c=c)
            assert weights.halo_tiles[0].shape == (10, 26)
            for _ in range(3):
                round_mu, round_gamma, round_u, round_d = self.batched_data(rng, 1, 200, 4)
                start = rng.standard_normal((2, 2, 200, 4))
                (out, phi_out), (dense_out, dense_phi_out) = self.both_runs(
                    weights, round_mu, round_gamma, round_u, round_d, start
                )
                assert np.abs(out[1] - dense_out[1]).max() <= 1e-15
                assert np.abs(phi_out[1] - dense_phi_out[1]).max() <= 1e-15
            # bitwise at large_network's shape: 200 nodes, 16 taps
            (out, phi_out), (dense_out, dense_phi_out) = self.both_runs(weights, mu, gamma, u, d, np.zeros((2, 2, 200, 16)))
            assert np.array_equal(out, dense_out)
            assert np.array_equal(phi_out, dense_phi_out)

    def test_bitwise_dense_at_the_benchmark_shape(self):
        # large_network's shape: 200 nodes, 16 taps
        rng = np.random.default_rng(3)
        mu, gamma, u, d = self.batched_data(rng, 30, 200, 16)
        (out, phi_out), (dense_out, dense_phi_out) = self.both_runs(self.ring(200, 3), mu, gamma, u, d, np.zeros((2, 2, 200, 16)))
        assert np.array_equal(out, dense_out)
        assert np.array_equal(phi_out, dense_phi_out)

    def test_bitwise_dense_without_batch_axes(self):
        # large_network's ring and taps, as one trajectory in (T + 1, N, M) buffers
        weights = self.ring(200, 3)
        assert weights.halo_tiles is not None
        rng = np.random.default_rng(9)
        u, d = rng.standard_normal((30, 200, 16)), rng.standard_normal((30, 200))
        (out, phi_out), (dense_out, dense_phi_out) = self.both_runs(weights, 0.05, 0.02, u, d, np.zeros((200, 16)))
        assert np.isfinite(out).all() and out[-1].any()
        # the combined (ATC) rows and the intermediate (CTA) rows
        assert np.array_equal(out, dense_out)
        assert np.array_equal(phi_out, dense_phi_out)

    def test_dense_within_a_reassociation_per_round(self):
        rng = np.random.default_rng(4)
        for weights, m in [
            (self.ring(200, 3), 1),
            (self.ring(200, 3), 4),
            (self.ring(200, 3), 32),
            (self.ring(600, 3), 16),
            (self.ring(60, 2), 5),
            (non_cooperative_weights(80), 3),
            (uniform_weights(banded_topology(100)), 2),
        ]:
            assert weights.halo_tiles is not None
            n = weights.node_count
            for _ in range(3):
                mu, gamma, u, d = self.batched_data(rng, 1, n, m)
                start = rng.standard_normal((2, 2, n, m))
                (out, phi_out), (dense_out, dense_phi_out) = self.both_runs(weights, mu, gamma, u, d, start)
                assert np.abs(out[1] - dense_out[1]).max() <= 1e-15
                assert np.abs(phi_out[1] - dense_phi_out[1]).max() <= 1e-15

    def test_overflow_spreads_as_with_one_tile(self):
        rng = np.random.default_rng(5)
        weights = self.ring(60, 2)
        assert weights.halo_tiles is not None
        start = rng.standard_normal((60, 4))
        start[7, 2] = 1e308
        # the leak 1 - mu * gamma = -6 overflows node 7's estimate in one round
        (out, phi_out), (dense_out, dense_phi_out) = self.both_runs(
            weights, 0.5, 14.0, rng.standard_normal((1, 60, 4)), rng.standard_normal((1, 60)), start
        )
        for got, dense in ((out[1], dense_out[1]), (phi_out[1], dense_phi_out[1])):
            nodes = np.flatnonzero(~np.isfinite(got).all(axis=-1))
            assert nodes.size
            assert np.array_equal(nodes, np.flatnonzero(~np.isfinite(dense).all(axis=-1)))

    def test_overflow_partway_through_a_batch_runs_dense(self):
        # the leaky pair's leak 1 - mu * gamma, about -1e10, overflows the
        # intermediates near node 100, which starts far above the others,
        # some 30 rounds in and in a round whose error products are all
        # finite. The plain pair stays finite to the end
        rng = np.random.default_rng(8)
        mu, _, u, d = self.batched_data(rng, 40, 200, 16)
        gamma = np.array([0.0, 2e11])[:, None, None]
        start = np.zeros((2, 2, 200, 16))
        start[:, 1, 100] = 1e20
        (out, phi_out), (dense_out, dense_phi_out) = self.both_runs(self.ring(200, 3), mu, gamma, u, d, start)
        overflowed = ~np.isfinite(phi_out[:, :, 1]).all(axis=-1)
        first = np.argmax(overflowed.any(axis=-1), axis=0)
        assert (10 < first).all() and overflowed[-1].all()
        # the first overflow reaches the nodes around node 100 only
        for trial in range(2):
            assert not overflowed[first[trial], trial, :30].any()
        assert np.isfinite(out[:, :, 0]).all()
        assert np.array_equal(out, dense_out, equal_nan=True)
        assert np.array_equal(phi_out, dense_phi_out, equal_nan=True)

    @staticmethod
    def overlapping_rows(rows, n, m, node):
        """A zeroed (rows, N, M) buffer whose rows overlap, as the denoise
        run keeps them: row i starts just past ``node``'s entry of row i - 1
        when the node is in the first half, and ends just before it
        otherwise, so the rows of later rounds cover every entry of the
        earlier ones but the node's."""
        step = node + 1 if node < n - node else n - node
        table = np.zeros(((rows - 1) * step + n, m))
        if node < n - node:
            return np.lib.stride_tricks.as_strided(table, (rows, n, m), (step * table.strides[0],) + table.strides)
        return np.lib.stride_tricks.as_strided(table[-n:], (rows, n, m), (-step * table.strides[0],) + table.strides)

    # the 200-node ring runs on tiles; the 20- and 64-node rings on one tile,
    # where the unbatched runs are staged
    @pytest.mark.parametrize("n, m", ((200, 3), (20, 16), (64, 33)))
    def test_zero_stride_buffer_equals_full_buffers(self, n, m):
        weights = self.ring(n, 3 if n == 200 else 2)
        assert (weights.halo_tiles is None) == (n != 200)
        rng = np.random.default_rng(6)
        u, d = rng.standard_normal((12, n, m)), rng.standard_normal((12, n))
        full_out, full_phi_out = np.zeros((13, n, m)), np.zeros((13, n, m))
        run_filter(weights, 0.05, 0.1, u, d, out=full_out, phi_out=full_phi_out)
        for ordering in ("atc", "cta"):
            full = full_out if ordering == "atc" else full_phi_out
            # every round's rows kept, then only one node's rows kept
            for node in (None, 0, n // 2 - 1, n // 2, n - 1):
                kept = np.zeros_like(full) if node is None else self.overlapping_rows(13, n, m, node)
                table = np.zeros((n, m))
                unread = np.lib.stride_tricks.as_strided(table, full.shape, (0,) + table.strides)
                out, phi_out = (kept, unread) if ordering == "atc" else (unread, kept)
                run_filter(weights, 0.05, 0.1, u, d, out=out, phi_out=phi_out)
                nodes = slice(None) if node is None else node
                assert np.array_equal(kept[:, nodes], full[:, nodes])
                # the other nodes' rows were written over
                assert node is None or not np.array_equal(kept, full)


    @staticmethod
    def kept_rows_over_d(d, m, node):
        """The kept rows of ``overlapping_rows`` and a copy of ``d`` in one
        table, as close as the input rule lets them be: ``d`` lies where
        the kept rows move to, in the order they pass it (time-reversed for
        rows that move back), so that row i of the kept rows ends where row
        i of ``d`` starts or before, and exactly there at the closest row.
        Row 0 of the kept rows is zeroed."""
        rows, n = len(d) + 1, d.shape[1]
        forward = node < n - node
        step = node + 1 if forward else n - node
        kept_size = ((rows - 1) * step + n) * m
        # row 0 of d starts past the kept rows' row 0, and row T - 1 past theirs
        start = n * m + max(0, (rows - 2) * (step * m - n))
        table = np.full(max(kept_size, start + d.size), np.nan)
        if forward:
            base, d_table = table[:kept_size], table[start : start + d.size].reshape(d.shape)
        else:
            base = table[table.size - kept_size :]
            d_table = table[table.size - start - d.size : table.size - start].reshape(d.shape)[::-1]
        base = base.reshape(-1, m)
        kept = np.lib.stride_tricks.as_strided(base, (rows, n, m), (step * base.strides[0],) + base.strides)
        kept = kept if forward else kept[::-1]
        d_table[...] = d
        kept[0] = 0.0
        return kept, d_table

    # N = 20, M = 5 on one tile, staged (also a stretch of one round), with
    # kept rows that move below 4, 4 and at least 8 node rows a round, forward
    # and back; and the 200-node ring's halo tiles, which take np.matmul
    @pytest.mark.parametrize("n, m, nodes", ((20, 5, (1, 18, 3, 16, 7, 12, 9)), (200, 3, (0, 99, 100, 199))))
    def test_kept_rows_may_share_memory_with_d(self, n, m, nodes, monkeypatch):
        # round i reads d up to row i - 1 before it writes, and no row of d
        # after its round: kept rows that write over the rows of d already
        # read give bitwise the run with d in its own array
        weights = self.ring(n, 3 if n == 200 else 2)
        assert (weights.halo_tiles is None) == (n == 20)
        rng = np.random.default_rng(11)
        u, d = rng.standard_normal((100, n, m)), rng.standard_normal((100, n))
        full_out, full_phi_out = np.zeros((101, n, m)), np.zeros((101, n, m))
        run_filter(weights, 0.05, 0.1, u, d, out=full_out, phi_out=full_phi_out)
        for stretch in (None, 1):
            if stretch is not None:
                monkeypatch.setattr(filters, "STAGED_ROW_BYTES", stretch * 8 * n * n)
            for ordering in ("atc", "cta"):
                full = full_out if ordering == "atc" else full_phi_out
                for node in nodes:
                    kept, shared_d = self.kept_rows_over_d(d, m, node)
                    table = np.zeros((n, m))
                    unread = np.lib.stride_tricks.as_strided(table, full.shape, (0,) + table.strides)
                    out, phi_out = (kept, unread) if ordering == "atc" else (unread, kept)
                    run_filter(weights, 0.05, 0.1, u, shared_d, out=out, phi_out=phi_out)
                    assert np.array_equal(kept[:, node], full[:, node])
                    # the kept rows did write over d
                    assert not np.array_equal(shared_d, d)
            monkeypatch.undo()


class TestSingleTrajectory:
    """Unbatched runs on one tile, bitwise against the same data run as a
    batch of one trial and one pair and against ``dense_run_filter``, on
    delay-line regressors (a strided view, as the denoise stream passes
    them). Only runs whose rows of ``out`` and ``phi_out`` are C-contiguous
    float64 tables are staged: they copy their measurements and regressors
    a stretch of rounds at a time and take the innovation and combination
    products through ``np.dot``. Strided and float32 rows run the batched
    rounds."""

    @staticmethod
    def delay_line(n, m, rounds):
        """(weights, u, d) of a one-tile ring and the first ``rounds``
        rounds of a delay-line stream on it."""
        weights = uniform_weights(build_ring_lattice(n, min(2, (n - 1) // 2)))
        assert weights.halo_tiles is None
        samples = synthetic_speech(max(rounds, m), n * 100 + m)
        stream = delay_line_source(samples, np.linspace(0.2, 1.0, n), default_lowpass_system(m), seed=m, snr_db=10.0)
        assert not stream.u.flags.c_contiguous
        return weights, stream.u[:rounds], stream.d[:rounds]

    @staticmethod
    def buffer(layout, shape):
        """A zeroed (rows, ..., N, M) buffer: C-contiguous float64 rows,
        rows that are not C-contiguous, or float32 rows."""
        if layout == "strided":
            return np.zeros(shape[:-1] + (2 * shape[-1],))[..., ::2]
        return np.zeros(shape, dtype=np.float32 if layout == "float32" else float)

    def references(self, weights, u, d, start, layouts):
        """(out, phi_out) of the batch-of-one run and of ``dense_run_filter``
        from ``start``, in buffers of ``layouts`` (out's, phi_out's)."""
        runs = []
        for kernel, batch in ((run_filter, (1, 1)), (dense_run_filter, ())):
            out, phi_out = (self.buffer(layout, (len(u) + 1,) + batch + start.shape) for layout in layouts)
            out[0] = start
            axes = (slice(None),) + (None,) * len(batch)
            kernel(weights, 0.05, 0.02, u[axes], d[axes], out=out, phi_out=phi_out)
            runs.append((out.reshape(out.shape[:1] + start.shape), phi_out.reshape(out.shape[:1] + start.shape)))
        return runs

    @pytest.mark.parametrize("m", (1, 5, 16, 33))
    @pytest.mark.parametrize("n", (1, 2, 20, 64))
    def test_bitwise_the_batched_and_dense_rounds(self, n, m, monkeypatch):
        stretch = max(1, filters.STAGED_ROW_BYTES // (8 * n * n))
        # 0 rounds; 11 rounds, which no stretch below divides; and two
        # stretches of the module's own size and 5 rounds more, up to 300
        # rounds (the stretch is 81 rounds at N = 20 and 8 at N = 64)
        weights, u, d = self.delay_line(n, m, min(2 * stretch + 5, 300))
        start = np.random.default_rng(n * m).standard_normal((n, m))
        layout_pairs = [("c", "c"), ("strided", "strided"), ("float32", "float32"), ("c", "strided"), ("c", "float32")]
        for rows, cap in ((0, None), (11, None), (11, 3), (11, 4), (len(u), None)):
            if cap is not None:
                monkeypatch.setattr(filters, "STAGED_ROW_BYTES", cap * 8 * n * n)
            for layouts in layout_pairs:
                refs = self.references(weights, u[:rows], d[:rows], start, layouts)
                assert np.array_equal(refs[0][0], refs[1][0]) and np.array_equal(refs[0][1], refs[1][1])
                if rows:
                    assert np.isfinite(refs[0][0]).all() and refs[0][0][-1].any()
                (ref_out, ref_phi_out), _ = refs
                for kept in ("both", "out", "phi_out"):
                    buffers = [self.buffer(layout, ref_out.shape) for layout in layouts]
                    if kept != "both":
                        # the unkept buffer is a zero-stride view of one table
                        # of its layout, whose products match the reference's
                        unkept = 1 if kept == "out" else 0
                        table = self.buffer(layouts[unkept], ref_out.shape[1:])
                        buffers[unkept] = np.lib.stride_tricks.as_strided(table, ref_out.shape, (0,) + table.strides)
                    out, phi_out = buffers
                    out[0] = start
                    assert run_filter(weights, 0.05, 0.02, u[:rows], d[:rows], out=out, phi_out=phi_out) is out
                    if kept != "phi_out":
                        assert np.array_equal(out, ref_out)
                    if kept != "out":
                        assert np.array_equal(phi_out[1:], ref_phi_out[1:])
            monkeypatch.undo()

    def test_np_dot_reads_contiguous_operands(self, monkeypatch):
        # np.dot copies an operand that is not one contiguous segment into a
        # temporary on every call; a.T is F-contiguous and read as it is
        n, m = 20, 5
        stretch = filters.STAGED_ROW_BYTES // (8 * n * n)
        weights, u, d = self.delay_line(n, m, 2 * stretch + 5)
        dot, operands = np.dot, []

        def spy(*args, **kwargs):
            operands.extend(args)
            operands.extend(kwargs.values())
            return dot(*args, **kwargs)

        monkeypatch.setattr(np, "dot", spy)
        out, phi_out = np.zeros((2, len(u) + 1, n, m))
        run_filter(weights, 0.05, 0.02, u, d, out=out, phi_out=phi_out)
        assert len(operands) == 2 * 3 * len(u)
        assert all(a.flags.c_contiguous or a.flags.f_contiguous for a in operands)

    def test_buffers_np_dot_refuses_fall_back(self):
        # the strided and float32 buffers above are ones np.dot cannot write
        a_t, phi_row = np.eye(3), np.ones((3, 2))
        for layout in ("strided", "float32"):
            out = self.buffer(layout, (2, 3, 2))
            with pytest.raises(ValueError):
                np.dot(a_t, phi_row, out=out[1])
            np.matmul(a_t, phi_row, out=out[1])
        np.dot(a_t, phi_row, out=self.buffer("c", (2, 3, 2))[1])


class TestOperandForms:
    """``mu`` and ``gamma`` in every accepted form give bitwise the same
    run: a Python float, a 0-d array, a (..., 1, 1) array and a full
    (*batch, N, M) array."""

    def setup_method(self):
        self.weights = uniform_weights(build_random_geometric(6, 0.6, 4))

    @staticmethod
    def forms(value, shape):
        """Every form of one operand that is ``value`` (an array of the
        batch shape, or a scalar) in each element of tables of ``shape``."""
        value = np.asarray(value, dtype=float)
        ones = value.reshape(value.shape + (1, 1))
        found = [ones, np.array(np.broadcast_to(ones, shape))]
        if value.ndim == 0:
            found += [float(value), value]
        return found

    def runs(self, mu, gamma, u, d, shape):
        """(out, phi_out) of one run for every pair of operand forms."""
        for mu_form in self.forms(mu, shape):
            for gamma_form in self.forms(gamma, shape):
                out, phi_out = np.zeros((len(u) + 1,) + shape), np.zeros((len(u) + 1,) + shape)
                run_filter(self.weights, mu_form, gamma_form, u, d, out=out, phi_out=phi_out)
                yield out, phi_out

    def assert_forms_agree(self, mu, gamma, u, d, shape):
        (out, phi_out), *others = self.runs(mu, gamma, u, d, shape)
        assert np.isfinite(out).all() and out[-1].any()
        for other_out, other_phi_out in others:
            assert np.array_equal(other_out, out)
            assert np.array_equal(other_phi_out, phi_out)

    def test_unbatched_delay_line_run(self):
        # the denoise shape: one (T, N, M) trajectory of a delay-line stream
        stream = delay_line_source(synthetic_speech(80, 5), np.linspace(0.2, 1.0, 6), default_lowpass_system(4), seed=6)
        self.assert_forms_agree(0.3, 0.02, stream.u, stream.d, (6, 4))

    def test_batch_mixing_plain_and_leaky_pairs(self):
        # 2 trials x 3 pairs; the data's trial axis broadcasts over the pairs
        streams = [gaussian_source(np.linspace(0.2, 1.0, 6), default_lowpass_system(4), seed=s, horizon=40) for s in (7, 8)]
        u = np.stack([s.u for s in streams], axis=1)[:, :, None]
        d = np.stack([s.d for s in streams], axis=1)[:, :, None]
        shape = (2, 3, 6, 4)
        gamma = np.array([[0.0, 0.05, 0.0]] * 2)
        self.assert_forms_agree(0.2, gamma, u, d, shape)
        self.assert_forms_agree(np.array([[0.2, 0.2, 0.4], [0.1, 0.3, 0.2]]), gamma, u, d, shape)

    def test_operands_that_do_not_broadcast_are_rejected(self):
        stream = gaussian_source(np.linspace(0.2, 1.0, 6), default_lowpass_system(4), seed=9, horizon=10)
        for mu, gamma in ((np.full((3, 1, 1), 0.1), 0.0), (0.1, np.full((3, 1, 1), 0.01)), (np.full((6, 3), 0.1), 0.0)):
            out, phi_out = np.full((11, 6, 4), 2.0), np.full((11, 6, 4), 3.0)
            with pytest.raises(ValueError):
                run_filter(self.weights, mu, gamma, stream.u, stream.d, out=out, phi_out=phi_out)
            assert (out == 2.0).all() and (phi_out == 3.0).all()
