import numpy as np
import pytest

from kernel_rounds import trajectory

from diffusion_lms.analysis import (
    DIVERGENCE_THRESHOLD,
    MsdTrace,
    detect_divergence,
    divergence_bound,
    leaky_fixed_point,
    linear_deviation,
    steady_state_msd,
    step_size_upper_bound,
)
from diffusion_lms.network import build_ring_lattice, non_cooperative_weights, uniform_weights
from diffusion_lms.signals import FrameStream, default_lowpass_system, gaussian_source


def constant_excitation_frames(u_row, w_o, count):
    """Deterministic noiseless single-node stream with a fixed regressor row."""
    u = np.tile(u_row, (count, 1, 1))
    d = np.tile(float(u_row @ w_o), (count, 1))
    return FrameStream(u=u, d=d, noise=np.zeros((count, 1)), noise_variance=np.zeros(1))


def network_msd(table, w_o):
    """Linear-domain network MSD of one (N, M) estimate table."""
    return linear_deviation(table[None], w_o)[0]


class TestNetworkMsd:
    def test_zero_deviation_is_minus_infinity(self):
        w_o = default_lowpass_system(4)
        table = np.tile(w_o, (7, 1))
        assert network_msd(table, w_o) == 0.0
        with np.errstate(divide="ignore"):
            assert 10.0 * np.log10(network_msd(table, w_o)) == float("-inf")

    def test_unit_deviation_is_zero_db(self):
        w_o = np.zeros(4)
        table = np.zeros((3, 4))
        table[:, 0] = 1.0  # every node deviates by exactly 1 in norm
        assert network_msd(table, w_o) == 1.0

    def test_two_node_hand_value(self):
        w_o = np.zeros(1)
        table = np.array([[0.1], [np.sqrt(0.03)]])  # squared deviations 0.01, 0.03
        assert np.isclose(network_msd(table, w_o), 0.02)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        w_o = rng.standard_normal(3)
        table = rng.standard_normal((6, 3))
        shuffled = table[rng.permutation(6)]
        assert np.isclose(network_msd(table, w_o), network_msd(shuffled, w_o))

    def test_strictly_increasing_in_single_node_deviation(self):
        w_o = np.zeros(2)
        table = np.ones((4, 2)) * 0.1
        base = network_msd(table, w_o)
        worse = table.copy()
        worse[2] *= 3.0
        assert network_msd(worse, w_o) > base

    def test_trace_helper_matches_scalar_metric(self):
        # a stack reduces index by index as its tables do one at a time
        rng = np.random.default_rng(3)
        w_o = rng.standard_normal(3)
        snaps = rng.standard_normal((5, 4, 3))
        net = linear_deviation(snaps, w_o)
        assert net.shape == (5,)
        for i in range(5):
            assert net[i] == network_msd(snaps[i], w_o)
            assert np.isclose(net[i], ((snaps[i] - w_o) ** 2).sum() / 4)

    def test_batched_deviation_equals_per_element(self):
        rng = np.random.default_rng(4)
        w_o = rng.standard_normal(3)
        snaps = rng.standard_normal((6, 2, 3, 20, 3))
        net = linear_deviation(snaps, w_o)
        assert net.shape == (6, 2, 3)
        for j in range(2):
            for p in range(3):
                assert np.array_equal(net[:, j, p], linear_deviation(snaps[:, j, p], w_o))


class TestLeakyFixedPoint:
    def test_no_leak_recovers_truth(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        r = a @ a.T + np.eye(4)  # positive definite
        w_o = rng.standard_normal(4)
        assert np.allclose(leaky_fixed_point(r, 0.0, w_o), w_o, atol=1e-10)

    def test_scalar_half(self):
        assert np.isclose(leaky_fixed_point(np.eye(1), 1.0, np.ones(1))[0], 0.5)

    def test_white_covariance_shrinks_uniformly(self):
        w_o = default_lowpass_system(5)
        out = leaky_fixed_point(0.35 * np.eye(5), 0.002, w_o)
        assert np.allclose(out, (0.35 / 0.352) * w_o)

    def test_singular_without_leak_raises(self):
        r = np.zeros((3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            leaky_fixed_point(r, 0.0, np.ones(3))

    def test_bias_grows_with_leakage(self):
        w_o = np.ones(3)
        r = 0.5 * np.eye(3)
        biases = []
        for gamma in (0.0, 0.001, 0.01, 0.1, 1.0):
            fp = leaky_fixed_point(r, gamma, w_o)
            biases.append(np.linalg.norm(w_o - fp))
        assert all(b2 > b1 for b1, b2 in zip(biases, biases[1:]))

    def test_ensemble_mean_of_leaky_runs_matches_fixed_point(self):
        # 600 independent single-node filters, realized as one identity-weight
        # network; the node-mean at steady state estimates the biased solution
        nodes, gamma, sigma_sq = 600, 0.002, 0.35
        w_o = default_lowpass_system(5)
        mu = step_size_upper_bound(sigma_sq, gamma) / 50.0
        topo = build_ring_lattice(nodes, 0)
        weights = non_cooperative_weights(nodes)
        stream = gaussian_source(
            np.full(nodes, sigma_sq), w_o, seed=77, horizon=1200, noise_variance=0.0
        )
        snaps = trajectory(weights, "atc", mu, gamma, stream)
        mean_estimate = snaps[-1].mean(axis=0)
        target = leaky_fixed_point(sigma_sq * np.eye(5), gamma, w_o)
        rel = np.linalg.norm(mean_estimate - target) / np.linalg.norm(target)
        assert rel < 0.02


class TestStepSizeBound:
    def test_classical_white_input_bound(self):
        assert step_size_upper_bound(1.0, 0.0) == 2.0

    def test_leaky_bound_value(self):
        assert np.isclose(step_size_upper_bound(2.0, 0.002), 2.0 / 2.002)

    def test_strictly_decreasing_in_both_arguments(self):
        for s1, s2 in [(0.1, 0.2), (0.5, 1.0)]:
            assert step_size_upper_bound(s2, 0.0) < step_size_upper_bound(s1, 0.0)
        for g1, g2 in [(0.0, 0.001), (0.01, 0.1)]:
            assert step_size_upper_bound(0.5, g2) < step_size_upper_bound(0.5, g1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            step_size_upper_bound(0.0, 0.0)

    def test_simulation_respects_the_bound(self):
        # deterministic excitation realizes the covariance exactly, making
        # the contraction |1 - mu (gamma + sigma^2)| the empirical edge
        sigma_sq, gamma = 0.35, 0.002
        w_o = np.array([1.0])
        bound = step_size_upper_bound(sigma_sq, gamma)
        topo = build_ring_lattice(1, 0)
        weights = uniform_weights(topo)
        frames = constant_excitation_frames(np.array([np.sqrt(sigma_sq)]), w_o, 1500)

        snaps = trajectory(weights, "atc", 0.9 * bound, gamma, frames)
        assert not detect_divergence(snaps).divergent
        target = leaky_fixed_point(sigma_sq * np.eye(1), gamma, w_o)
        assert np.abs(snaps[-1, 0] - target).max() < 1e-9
        # the leak biases the solution away from the true vector
        assert np.abs(snaps[-1, 0] - w_o).max() > 1e-4

        snaps = trajectory(weights, "atc", 1.5 * bound, gamma, frames)
        assert detect_divergence(snaps).divergent


class TestDetectDivergence:
    def test_zero_state_clean(self):
        report = detect_divergence(np.zeros((5, 3, 2)))
        assert not report.divergent
        assert report.first_iteration is None
        # an unbatched stack reports through 0-d arrays
        assert report.first_iterations.shape == report.nodes.shape == ()
        assert report.first_iterations == report.nodes == -1

    def test_nan_is_flagged_at_first_occurrence(self):
        snaps = np.zeros((6, 3, 2))
        snaps[4, 1, 0] = np.nan
        snaps[5, 2, 1] = np.nan
        report = detect_divergence(snaps)
        assert report.divergent
        assert report.first_iteration == 4
        assert report.first_iterations.shape == report.nodes.shape == ()
        assert (report.first_iterations, report.nodes) == (4, 1)

    def test_threshold_crossing_flagged(self):
        snaps = np.zeros((3, 2, 2))
        snaps[2, 0, 1] = 2e6
        report = detect_divergence(snaps)
        assert report.divergent and report.first_iteration == 2 and report.nodes == 0
        snaps[2, 0, 1] = DIVERGENCE_THRESHOLD
        assert not detect_divergence(snaps).divergent

    def test_bound_follows_the_largest_scale_of_the_data(self):
        # unit regressors on nodes 0 and 1; node 2 hears nothing, so its
        # noise, however loud, bounds no ratio
        u = np.ones((10, 3, 2))
        u[:, 2] = 0.0
        w_o = np.array([0.5, -0.25])
        quiet = np.array([0.25, 0.5, 1e300])
        assert divergence_bound(w_o, u, quiet) == DIVERGENCE_THRESHOLD
        assert divergence_bound(8.0 * w_o, u, quiet) == 4.0 * DIVERGENCE_THRESHOLD
        # noise std 100 over regressor std 1 on node 0, 50 over 0.5 on node 1
        assert divergence_bound(w_o, u, np.array([1e4, 0.0, 0.0])) == 100.0 * DIVERGENCE_THRESHOLD
        halved = u * [[[1.0], [0.5], [0.0]]]
        assert divergence_bound(w_o, halved, np.array([0.0, 625.0, 0.0])) == 50.0 * DIVERGENCE_THRESHOLD
        # a ratio beyond the float range leaves only non-finite estimates divergent
        assert divergence_bound(w_o, 1e-160 * u, np.array([1e300, 0.0, 0.0])) == np.inf
        # a run with no regressor power anywhere falls back to the unknown vector
        assert divergence_bound(w_o, 0.0 * u, quiet) == DIVERGENCE_THRESHOLD

    def test_bound_of_a_noisy_stream_is_its_largest_noise_to_regressor_ratio(self):
        # a first trial at -40 dB: each node's noise standard deviation over
        # its root-mean-square regressor, node by node, is far above max|w_o|
        w_o = default_lowpass_system(5)
        stream = gaussian_source(np.array([0.2, 1.5, 0.7, 0.05]), w_o, seed=3, horizon=400, snr_db=-40.0)
        ratios = []
        for k in range(4):
            rms = np.sqrt(np.mean(stream.u[:, k, :] ** 2))
            ratios.append(np.sqrt(stream.noise_variance[k]) / rms)
        assert max(ratios) > 10.0 * np.abs(w_o).max()
        bound = divergence_bound(w_o, stream.u, stream.noise_variance)
        assert bound == pytest.approx(DIVERGENCE_THRESHOLD * max(ratios), rel=1e-12)

    def test_batched_stack_reports_each_element(self):
        snaps = np.zeros((5, 2, 3, 4, 2))
        snaps[3, 0, 1, 2, 0] = np.inf
        snaps[1, 1, 2, 3, 1] = 5e6
        snaps[4, 1, 2, 0, 0] = np.nan
        report = detect_divergence(snaps)
        assert report.divergent and report.first_iteration == 1
        assert np.array_equal(report.first_iterations, [[-1, 3, -1], [-1, -1, 1]])
        assert np.array_equal(report.nodes, [[-1, 2, -1], [-1, -1, 3]])
        for j in range(2):
            for p in range(3):
                one = detect_divergence(snaps[:, j, p])
                assert one.divergent == (report.first_iterations[j, p] >= 0)
                if one.divergent:
                    assert (one.first_iterations, one.nodes) == (report.first_iterations[j, p], report.nodes[j, p])
        clean = detect_divergence(np.zeros((5, 2, 3, 4, 2)))
        assert not clean.divergent and clean.first_iteration is None
        assert (clean.first_iterations == -1).all() and clean.first_iterations.shape == (2, 3)

    def test_round_major_block_view_reads_like_each_element(self):
        # a block buffer (rounds, outputs, trials, pairs, N, M), read as one
        # view without its starting row, against each element's own stack
        rng = np.random.default_rng(9)
        w_o = rng.standard_normal(3)
        block = rng.standard_normal((7, 2, 3, 2, 4, 3))
        block[3, 1, 0, 1, 2, 0] = np.nan
        block[5, 0, 2, 0, 1, 2] = -3e6
        view = block[1:]
        report = detect_divergence(view)
        with np.errstate(invalid="ignore"):
            deviation = linear_deviation(view, w_o)
        assert report.first_iterations.shape == report.nodes.shape == (2, 3, 2)
        assert deviation.shape == (6, 2, 3, 2)
        assert report.first_iteration == 2
        for index in np.ndindex(2, 3, 2):
            element = np.ascontiguousarray(view[:, index[0], index[1], index[2]])
            one = detect_divergence(element)
            want = (one.first_iterations, one.nodes)
            assert (report.first_iterations[index], report.nodes[index]) == want, index
            with np.errstate(invalid="ignore"):
                curve = linear_deviation(element, w_o)
            assert np.array_equal(deviation[:, index[0], index[1], index[2]], curve, equal_nan=True), index
        assert (report.first_iterations >= 0).sum() == 2
        assert (report.first_iterations[1, 0, 1], report.nodes[1, 0, 1]) == (2, 2)
        assert (report.first_iterations[0, 2, 0], report.nodes[0, 2, 0]) == (4, 1)

    def test_single_table_rejected(self):
        # a table is a one-round stack: table[None]
        table = np.full((4, 2), np.inf)
        with pytest.raises(ValueError, match="expected a"):
            detect_divergence(table)
        assert detect_divergence(table[None]).divergent

    def test_deliberate_divergence_run_is_flagged(self):
        sigma_sq = 0.5
        w_o = np.array([1.0])
        mu = 2.0 * step_size_upper_bound(sigma_sq, 0.0)
        topo = build_ring_lattice(1, 0)
        weights = uniform_weights(topo)
        frames = constant_excitation_frames(np.array([np.sqrt(sigma_sq)]), w_o, 1000)
        snaps = trajectory(weights, "atc", mu, 0.0, frames)
        assert detect_divergence(snaps).divergent


def db_trace(values):
    return MsdTrace(per_iteration_db=np.asarray(values, dtype=float), trials=1, divergent_trials=0)


class TestSteadyState:
    def test_constant_trace(self):
        assert steady_state_msd(db_trace(np.full(10, -18.0)), 5) == -18.0

    def test_window_selects_tail(self):
        assert steady_state_msd(db_trace([-10.0, -18.0, -18.0]), 2) == -18.0

    def test_accepts_msd_trace_objects(self):
        trace = MsdTrace(
            per_iteration_db=np.array([-10.0, -12.0, -12.0]),
            trials=3,
            divergent_trials=0,
        )
        assert steady_state_msd(trace, 2) == -12.0

    def test_bare_array_rejected(self):
        with pytest.raises(AttributeError):
            steady_state_msd(np.full(10, -18.0), 5)

    def test_wholly_divergent_result_has_no_steady_state(self):
        failed = MsdTrace(per_iteration_db=None, trials=3, divergent_trials=3, first_divergence=(25, 0))
        with pytest.raises(ValueError, match="^no learning curve: all 3 trials diverged$"):
            steady_state_msd(failed, 1)

    def test_oversized_window_rejected(self):
        with pytest.raises(ValueError):
            steady_state_msd(db_trace(np.zeros(3)), 4)
        with pytest.raises(ValueError):
            steady_state_msd(db_trace(np.zeros(3)), 0)


# input checks of the theory oracles, one row each
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: leaky_fixed_point(np.eye(2), -0.1, np.ones(2)), "gamma must be >= 0, got -0.1"),
        (lambda: leaky_fixed_point(np.eye(3), 0.1, np.ones(2)), "R must be 2 x 2, got (3, 3)"),
        (lambda: step_size_upper_bound(1.0, -0.1), "gamma must be >= 0, got -0.1"),
    ],
    ids=["fixed_point_negative_gamma", "fixed_point_r_shape", "bound_negative_gamma"],
)
def test_rejects_invalid_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
