from dataclasses import replace

import numpy as np
import pytest

from kernel_rounds import one_round
from reference_impl import atc_dlms_step, cta_dlms_step, standalone_leaky_lms

from diffusion_lms.analysis import linear_deviation
from diffusion_lms.filters import AlgorithmSpec, BatchSpec, FrameBlock, run_filter
from diffusion_lms.network import (
    Topology,
    build_random_geometric,
    build_ring_lattice,
    non_cooperative_weights,
    uniform_weights,
)
from diffusion_lms.signals import FrameStream, default_lowpass_system, gaussian_source


def single_node_weights():
    return uniform_weights(build_ring_lattice(1, 0))


def first_rounds(stream, k):
    """The stream cut to its first k rounds."""
    return replace(stream, u=stream.u[:k], d=stream.d[:k], noise=stream.noise[:k])


class TestAlgorithmSpec:
    def test_accepts_zero_leakage_and_zero_step(self):
        AlgorithmSpec(ordering="atc", mu=0.0, gamma=0.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(ordering="atc", mu=-0.1)
        with pytest.raises(ValueError):
            AlgorithmSpec(ordering="atc", mu=0.1, gamma=-1.0)
        with pytest.raises(ValueError):
            AlgorithmSpec(ordering="sideways", mu=0.1)


class TestScalarHandValues:
    def test_atc_leaky_scalar_round(self):
        weights = single_node_weights()
        spec = AlgorithmSpec(ordering="atc", mu=0.5, gamma=0.2)
        w, phi = one_round(np.zeros((1, 1)), np.array([[1.0]]), np.array([1.0]), spec, weights)
        # (1 - 0.5*0.2)*0 + 0.5*1*(1 - 0) = 0.5, then combine over {self}
        assert np.isclose(phi[0, 0], 0.5, atol=1e-15)
        assert np.isclose(w[0, 0], 0.5, atol=1e-15)

    def test_cta_leaky_scalar_round(self):
        weights = single_node_weights()
        spec = AlgorithmSpec(ordering="cta", mu=0.5, gamma=0.2)
        w, combined = one_round(np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]), spec, weights)
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
        spec = AlgorithmSpec(ordering="atc", mu=0.0, gamma=0.3)
        w_new, phi = one_round(w, *self.frame(), spec, self.weights)
        assert np.allclose(phi, w, atol=1e-15)
        assert np.allclose(w_new, w, atol=1e-12)

    def test_cta_fixed_point_of_pure_averaging(self):
        w = np.tile(self.rng.standard_normal(3), (6, 1))
        spec = AlgorithmSpec(ordering="cta", mu=0.0, gamma=0.0)
        w_new, _ = one_round(w, *self.frame(), spec, self.weights)
        assert np.allclose(w_new, w, atol=1e-12)

    def test_consensus_on_truth_is_invariant_without_leak(self):
        w_o = self.rng.standard_normal(3)
        w = np.tile(w_o, (6, 1))
        u = self.rng.standard_normal((6, 3))
        d = u @ w_o  # noiseless measurements
        for ordering in ("atc", "cta"):
            w_new, _ = one_round(w, u, d, AlgorithmSpec(ordering=ordering, mu=0.4, gamma=0.0), self.weights)
            assert np.allclose(w_new, w, atol=1e-12)

    def test_leak_contracts_norm_without_excitation(self):
        # complete graph on 4 nodes: degree 4 keeps uniform weights exact
        weights = uniform_weights(Topology(np.ones((4, 4), dtype=bool)))
        spec = AlgorithmSpec(ordering="atc", mu=0.1, gamma=0.5)
        w = np.tile(self.rng.standard_normal(3), (4, 1))
        for _ in range(50):
            w_new, _ = one_round(w, np.zeros((4, 3)), np.zeros(4), spec, weights)
            ratio = np.linalg.norm(w_new) / np.linalg.norm(w)
            assert np.isclose(ratio, 1.0 - spec.mu * spec.gamma, rtol=1e-12)
            w = w_new

    def test_shape_mismatch_rejected(self):
        # a measurement axis of 1 would broadcast one measurement to every node
        spec = BatchSpec(np.full((1, 1, 1), 0.1), np.zeros((1, 1, 1)))
        out = np.zeros((2, 1, 6, 3))
        for u, d in ((np.zeros((5, 3)), np.zeros(5)), (np.zeros((6, 3)), np.zeros(1)), (np.zeros((6, 4)), np.zeros(6))):
            block = FrameBlock(u=u[None, None], d=d[None, None])
            with pytest.raises(ValueError):
                run_filter(self.weights, spec, block, out=out, phi_out=np.zeros_like(out))
        stream = gaussian_source(np.full(5, 0.5), np.ones(3), seed=0, horizon=4)
        with pytest.raises(ValueError, match="source has 5 nodes, weights have 6"):
            run_filter(self.weights, AlgorithmSpec("atc", 0.1), stream)


class TestAgainstReference:
    """Kernel rounds versus the independently coded per-node recursions."""

    def cases(self):
        rng = np.random.default_rng(99)
        for n, m in [(1, 1), (1, 5), (3, 1), (3, 5), (20, 5)]:
            topo = build_ring_lattice(n, min(2, (n - 1) // 2))
            weights = uniform_weights(topo)
            for _ in range(5):
                w = rng.standard_normal((n, m))
                u = rng.standard_normal((n, m))
                d = rng.standard_normal(n)
                yield topo, weights, w, u, d

    def test_plain_reduction_matches_reference(self):
        for topo, weights, w, u, d in self.cases():
            mu = 0.07
            ref_w, ref_phi = atc_dlms_step(w, u, d, mu, weights.a, weights.c)
            out_w, out_phi = one_round(w, u, d, AlgorithmSpec("atc", mu, 0.0), weights)
            assert np.abs(out_w - ref_w).max() <= 1e-15
            assert np.abs(out_phi - ref_phi).max() <= 1e-15
            ref_w, ref_phi = cta_dlms_step(w, u, d, mu, weights.a, weights.c)
            out_w, out_phi = one_round(w, u, d, AlgorithmSpec("cta", mu, 0.0), weights)
            assert np.abs(out_w - ref_w).max() <= 1e-15
            assert np.abs(out_phi - ref_phi).max() <= 1e-15

    def test_node_update_order_is_immaterial(self):
        for topo, weights, w, u, d in self.cases():
            n = topo.node_count
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
        out_a, _ = one_round(w, u, d, AlgorithmSpec("atc", 0.2, 0.1), weights)
        out_c, _ = one_round(w, u, d, AlgorithmSpec("cta", 0.2, 0.1), weights)
        assert np.array_equal(out_a, out_c)

    def test_non_cooperative_matches_standalone_filters(self):
        # identity weights collapse diffusion to independent filters per node
        n, m, steps = 4, 3, 200
        weights = non_cooperative_weights(n)
        w_o = np.linspace(0.1, 0.4, m)
        stream = gaussian_source(np.full(n, 0.5), w_o, seed=12, horizon=steps, snr_db=10.0)
        for gamma in (0.0, 0.01):
            spec = AlgorithmSpec("atc", 0.1, gamma)
            snaps = run_filter(weights, spec, stream)
            for k in range(n):
                ref = standalone_leaky_lms(stream.u[:, k, :], stream.d[:, k], 0.1, gamma)
                assert np.abs(snaps[:, k, :] - ref).max() <= 1e-13

    def test_single_node_orderings_coincide(self):
        weights = single_node_weights()
        stream = gaussian_source(np.array([0.35]), default_lowpass_system(5), seed=3, horizon=300)
        spec_a = AlgorithmSpec("atc", 0.05, 0.002)
        spec_c = AlgorithmSpec("cta", 0.05, 0.002)
        run_a = run_filter(weights, spec_a, stream)
        run_c = run_filter(weights, spec_c, stream)
        assert np.array_equal(run_a, run_c)


class TestRunFilter:
    def test_zero_horizon_returns_initial_snapshot(self):
        weights = single_node_weights()
        stream = gaussian_source(np.array([1.0]), default_lowpass_system(2), seed=0, horizon=5)
        snaps = run_filter(weights, AlgorithmSpec("atc", 0.1), first_rounds(stream, 0))
        assert snaps.shape == (1, 1, 2)
        assert not snaps.any()

    def test_initial_deviation_is_system_power(self):
        topo = build_ring_lattice(20, 2)
        w_o = default_lowpass_system(5)
        stream = gaussian_source(np.full(20, 0.5), w_o, seed=0, horizon=3)
        snaps = run_filter(uniform_weights(topo), AlgorithmSpec("atc", 0.1), first_rounds(stream, 0))
        network = linear_deviation(snaps, w_o)
        assert np.isclose(network[0], float(w_o @ w_o))

    def test_only_streams_and_blocks_are_sources(self):
        weights = single_node_weights()
        stream = gaussian_source(np.array([1.0]), default_lowpass_system(2), seed=0, horizon=5)
        with pytest.raises(TypeError):
            run_filter(weights, AlgorithmSpec("atc", 0.1), list(zip(stream.u, stream.d)))

    def test_noiseless_single_node_converges_to_truth(self):
        weights = single_node_weights()
        w_o = default_lowpass_system(5)
        sigma_sq = 0.35
        mu = 2.0 / sigma_sq / 50.0
        stream = gaussian_source(np.array([sigma_sq]), w_o, seed=21, horizon=10_000, noise_variance=0.0)
        snaps = run_filter(weights, AlgorithmSpec("atc", mu, 0.0), stream)
        assert np.abs(snaps[-1, 0] - w_o).max() < 1e-6

    def test_divergence_is_not_masked(self):
        weights = single_node_weights()
        ones = np.ones((400, 1))
        stream = FrameStream(u=ones[..., None], d=ones, noise=np.zeros((400, 1)), noise_variance=np.zeros(1))
        spec = AlgorithmSpec("atc", 5.0, 0.0)  # far beyond the stable range
        snaps = run_filter(weights, spec, stream)
        assert not np.isfinite(snaps[-1]).all() or np.abs(snaps[-1]).max() > 1e6


class TestSharedRecursion:
    """ATC and CTA with one (mu, gamma) share one recursion."""

    def setup_method(self):
        self.weights = uniform_weights(build_random_geometric(8, 0.5, 3))

    def stream(self, seed, horizon=60):
        return gaussian_source(np.linspace(0.2, 1.0, 8), default_lowpass_system(3), seed=seed, horizon=horizon)

    def test_cta_snapshots_are_the_atc_intermediates(self):
        stream = self.stream(4)
        cta = run_filter(self.weights, AlgorithmSpec("cta", 0.3, 0.01), stream)
        w = np.zeros((8, 3))
        for i, (u, d) in enumerate(zip(stream.u, stream.d), start=1):
            w, phi = one_round(w, u, d, AlgorithmSpec("atc", 0.3, 0.01), self.weights)
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
            block = FrameBlock(
                u=np.stack([s.u[start:stop] for s in streams], axis=1)[:, :, None],
                d=np.stack([s.d[start:stop] for s in streams], axis=1)[:, :, None],
            )
            got = run_filter(self.weights, BatchSpec(mu, gamma), block, out=out[:rows], phi_out=phi_out[:rows])
            assert got.base is out
            estimates.extend(out[1:rows].copy())
            intermediates.extend(phi_out[1:rows].copy())
            out[0] = out[rows - 1]
        estimates, intermediates = np.stack(estimates), np.stack(intermediates)
        for j, stream in enumerate(streams):
            stream = first_rounds(stream, 11)
            for p, (step, leak) in enumerate(pairs):
                atc = run_filter(self.weights, AlgorithmSpec("atc", step, leak), stream)
                cta = run_filter(self.weights, AlgorithmSpec("cta", step, leak), stream)
                assert np.array_equal(estimates[:, j, p], atc)
                assert np.array_equal(intermediates[1:, j, p], cta[1:])

    def test_zero_step_holds_a_zeroed_element(self):
        stream = self.stream(5, horizon=10)
        block = FrameBlock(u=stream.u[:, None], d=stream.d[:, None])
        out = np.zeros((11, 2, 8, 3))
        spec = BatchSpec(np.array([[[0.0]], [[0.2]]]), np.zeros((1, 1, 1)))
        run_filter(self.weights, spec, block, out=out, phi_out=np.zeros_like(out))
        assert not out[:, 0].any()
        assert out[-1, 1].any()

    def test_block_buffers_must_fit(self):
        stream = self.stream(5, horizon=10)
        block = FrameBlock(u=stream.u[:, None], d=stream.d[:, None])
        spec = BatchSpec(np.full((1, 1, 1), 0.1), np.zeros((1, 1, 1)))
        with pytest.raises(ValueError):
            run_filter(self.weights, spec, block, out=np.zeros((10, 1, 8, 3)), phi_out=np.zeros((10, 1, 8, 3)))
        with pytest.raises(ValueError):
            run_filter(self.weights, spec, block, out=np.zeros((11, 1, 8, 3)))
        with pytest.raises(TypeError):
            run_filter(self.weights, AlgorithmSpec("atc", 0.1), block, out=np.zeros((11, 1, 8, 3)))


class TestRoundScratch:
    """Every run_filter form against T successive single steps, exactly:
    scratch shared across batch elements, or returned rows that alias
    scratch, would break the equality."""

    def setup_method(self):
        self.weights = uniform_weights(build_random_geometric(7, 0.5, 9))

    def stream(self, seed, horizon=25):
        return gaussian_source(np.linspace(0.2, 1.0, 7), default_lowpass_system(4), seed=seed, horizon=horizon)

    def stepped(self, stream, mu, gamma):
        """(ATC estimates, CTA estimates) after each round, from all-zero tables."""
        atc, cta = [np.zeros((7, 4))], [np.zeros((7, 4))]
        for u, d in zip(stream.u, stream.d):
            atc.append(one_round(atc[-1], u, d, AlgorithmSpec("atc", mu, gamma), self.weights)[0])
            cta.append(one_round(cta[-1], u, d, AlgorithmSpec("cta", mu, gamma), self.weights)[0])
        return np.stack(atc), np.stack(cta)

    def test_frame_stream_matches_steps(self):
        stream = self.stream(21)
        atc, cta = self.stepped(stream, 0.2, 0.01)
        assert np.array_equal(run_filter(self.weights, AlgorithmSpec("atc", 0.2, 0.01), stream), atc)
        assert np.array_equal(run_filter(self.weights, AlgorithmSpec("cta", 0.2, 0.01), stream), cta)

    def test_frame_block_matches_steps(self):
        # 2 trials x 2 pairs, a distinct step size in every element
        streams = [self.stream(22), self.stream(23)]
        mu = np.array([[0.1, 0.3], [0.15, 0.25]])
        gamma = np.array([0.0, 0.05])
        block = FrameBlock(
            u=np.stack([s.u for s in streams], axis=1)[:, :, None],
            d=np.stack([s.d for s in streams], axis=1)[:, :, None],
        )
        out = np.zeros((26, 2, 2, 7, 4))
        phi_out = np.zeros_like(out)
        run_filter(self.weights, BatchSpec(mu[..., None, None], gamma[:, None, None]), block, out=out, phi_out=phi_out)
        for j, stream in enumerate(streams):
            for p in range(2):
                atc, cta = self.stepped(stream, mu[j, p], gamma[p])
                assert np.array_equal(out[:, j, p], atc)
                assert np.array_equal(phi_out[1:, j, p], cta[1:])
