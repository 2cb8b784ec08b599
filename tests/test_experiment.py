import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from edge_lists import write_edge_list
from kernel_rounds import trajectory
from reference_impl import assert_same_results, ensemble_reference, label_rule

from diffusion_lms.analysis import (
    DIVERGENCE_THRESHOLD,
    detect_divergence,
    linear_deviation,
    steady_state_msd,
)
from diffusion_lms.experiment import (
    ALGORITHM_LABELS,
    BLOCK_ROUNDS,
    ConfigError,
    ExperimentConfig,
    build_setup,
    denoise_speech,
    _chunk_trials,
    _delay_line_samples,
    make_stream,
    run_ensemble,
    sweep_leakage,
    sweep_step_size,
)
from diffusion_lms.network import (
    build_random_geometric,
    build_ring_lattice,
    load_edge_list,
    non_cooperative_weights,
    uniform_weights,
)
from diffusion_lms.signals import default_lowpass_system

SMALL = ExperimentConfig(nodes=8, radius=0.5, trials=3, horizon=120, steady_window=40)


class TestConfigMaterialization:
    def test_defaults_describe_the_headline_run(self):
        cfg = ExperimentConfig()
        assert cfg.nodes == 20 and cfg.taps == 5
        assert cfg.mu == 0.08 and cfg.gamma == 0.002
        assert cfg.trials == 50 and cfg.horizon == 1000
        assert cfg.snr_db == 0.0
        assert len(cfg.algorithms) == 4

    def test_variance_profile_is_seeded_and_pins_node_14(self):
        cfg = ExperimentConfig()
        setup_a = build_setup(cfg)
        setup_b = build_setup(cfg)
        assert np.array_equal(setup_a.variances, setup_b.variances)
        assert setup_a.variances[13] == 0.35  # node 14, 1-based
        assert ((setup_a.variances >= 0.1) & (setup_a.variances <= 1.0)).all()
        other = build_setup(ExperimentConfig(base_seed=4321))
        assert not np.array_equal(setup_a.variances, other.variances)

    def test_explicit_variances_and_coefficients(self):
        cfg = ExperimentConfig(
            nodes=3,
            regressor_variances=(0.2, 0.3, 0.4),
            coefficients=(1.0, -1.0),
            taps=2,
        )
        setup = build_setup(cfg)
        assert np.array_equal(setup.variances, [0.2, 0.3, 0.4])
        assert np.array_equal(setup.w_o, [1.0, -1.0])

    @pytest.mark.parametrize("weights", ["uniform", "non_cooperative"])
    @pytest.mark.parametrize("topology", ["ring_lattice", "random_geometric", "edge_list"])
    def test_setup_is_what_the_named_builders_return(self, tmp_path, topology, weights):
        path = tmp_path / "net.txt"
        write_edge_list(build_random_geometric(7, 0.6, 5), path)
        fields = dict(nodes=7, half_width=2, radius=0.45, topology_seed=9, edge_list_path=str(path))
        cfg = ExperimentConfig(topology=topology, weights=weights, base_seed=77, **fields)
        want_topology = {
            "ring_lattice": lambda: build_ring_lattice(7, 2),
            "random_geometric": lambda: build_random_geometric(7, 0.45, 9),
            "edge_list": lambda: load_edge_list(path, 7),
        }[topology]()
        want_weights = uniform_weights(want_topology) if weights == "uniform" else non_cooperative_weights(7)
        setup = build_setup(cfg)
        assert np.array_equal(setup.topology.adjacency, want_topology.adjacency)
        assert np.array_equal(setup.weights.a, want_weights.a)
        assert np.array_equal(setup.weights.c, want_weights.c)
        assert np.array_equal(setup.w_o, default_lowpass_system(5))
        # the profile: uniform on [0.1, 1) from base_seed on spawn key 1, no pinned node off N = 20
        rng = np.random.default_rng(np.random.SeedSequence(77, spawn_key=(1,)))
        assert np.array_equal(setup.variances, rng.uniform(0.1, 1.0, 7))

        explicit = build_setup(
            replace(cfg, taps=3, coefficients=(0.5, -2.0, 4.0), regressor_variances=(0.3,) * 6 + (2.0,))
        )
        assert explicit.w_o.dtype == float and explicit.w_o.tolist() == [0.5, -2.0, 4.0]
        assert explicit.variances.dtype == float and explicit.variances.tolist() == [0.3] * 6 + [2.0]
        assert np.array_equal(explicit.topology.adjacency, want_topology.adjacency)


# 20 x 5 network: three trials per chunk; the horizon is not a multiple of the block
ORACLE = ExperimentConfig(horizon=777, steady_window=50)
# every trial shares the synthetic input and draws its own noise
DELAY_ORACLE = replace(ORACLE, source="delay_line", trials=7)


class TestBatchedEnsembleMatchesReference:
    """The batched, chunked run versus one (trial, label) at a time."""

    def test_oracle_config_splits_trials_into_blocks_and_chunks(self):
        assert ORACLE.horizon % BLOCK_ROUNDS != 0
        assert _chunk_trials(ORACLE.horizon, ORACLE.nodes, ORACLE.taps, 2, 4) == 3
        assert _chunk_trials(1000, 20, 5, 2, 4) == 3

    def test_delay_line_trials_are_budgeted_by_the_table_they_hold(self):
        # one (N, T + M - 1) table behind the (T, N, M) view: the default
        # delay-line run takes 5 trials per chunk, and DELAY_ORACLE's seven
        # trials run as chunks of 6 and 1 where a full table would give 3, 3, 1
        assert _chunk_trials(1000, 20, 5, 2, 4, delay_line=True) == 5
        assert _chunk_trials(DELAY_ORACLE.horizon, 20, 5, 2, 4, delay_line=True) == 6
        assert _chunk_trials(DELAY_ORACLE.horizon, 20, 5, 2, 4) == 3

    # at mu 5 atc_leaky_dlms loses 5 of the 7 trials and every other label all of them
    @pytest.mark.parametrize("mu", [0.08, 5.0])
    def test_delay_line_exactly_equal(self, mu):
        cfg = replace(DELAY_ORACLE, mu=mu)
        assert_same_results(run_ensemble(cfg), ensemble_reference(cfg))

    # mu 0.08 converges, at 2.15 and 2.2 some (trial, label) runs diverge
    # (at 2.15 trial 4's CTA labels from round 310 while its ATC labels
    # converge) and at 3.0 all do
    @pytest.mark.parametrize("mu", [0.08, 2.15, 2.2, 3.0])
    @pytest.mark.parametrize("trials", [1, 3, 5])
    def test_exactly_equal(self, trials, mu):
        cfg = replace(ORACLE, trials=trials, mu=mu)
        assert_same_results(run_ensemble(cfg), ensemble_reference(cfg))

    # a chunk stops after the block that freezes its last live (trial, pair):
    # at 3.0 every pair of the one chunk diverges early; at 2.15 trial 4's
    # ATC labels converge, so its chunk runs the whole horizon
    @pytest.mark.parametrize("mu,trials,full", [(0.08, 5, True), (2.15, 5, True), (3.0, 3, False)])
    def test_chunk_stops_once_every_pair_is_frozen(self, monkeypatch, mu, trials, full):
        from diffusion_lms import experiment

        rows = []
        real = experiment.run_filter

        def counted(weights, mu, gamma, u, d, **buffers):
            rows.append(u.shape[0])
            return real(weights, mu, gamma, u, d, **buffers)

        monkeypatch.setattr(experiment, "run_filter", counted)
        cfg = replace(ORACLE, trials=trials, mu=mu)
        results = run_ensemble(cfg)
        chunks = -(-trials // _chunk_trials(cfg.horizon, cfg.nodes, cfg.taps, 2, 4))
        if full:
            assert sum(rows) == cfg.horizon * chunks
        else:
            assert chunks == 1 and sum(rows) < cfg.horizon
            assert all(res.divergent_trials == trials for res in results.values())

    def test_each_label_is_judged_on_its_own_estimates(self):
        # trial 4 at mu 2.15 peaks just under the threshold in the shared
        # recursion's combined (ATC) tables and above it in its intermediates
        # (CTA), so the CTA labels drop one trial more than the ATC labels
        cfg = replace(ORACLE, trials=5, mu=2.15)
        results = run_ensemble(cfg)
        assert_same_results(results, ensemble_reference(cfg))
        dropped = {label: res.divergent_trials for label, res in results.items()}
        assert dropped == {"atc_dlms": 1, "cta_dlms": 2, "atc_leaky_dlms": 1, "cta_leaky_dlms": 2}
        setup = build_setup(cfg)
        stream = make_stream(cfg, setup, cfg.base_seed + 4)
        atc = trajectory(setup.weights, "atc", cfg.mu, 0.0, stream)
        cta = trajectory(setup.weights, "cta", cfg.mu, 0.0, stream)
        assert 0.99 * DIVERGENCE_THRESHOLD < np.abs(atc).max() <= DIVERGENCE_THRESHOLD
        assert np.abs(cta).max() > DIVERGENCE_THRESHOLD
        clean = detect_divergence(atc[1:])
        assert not clean.divergent and clean.first_iteration is None and clean.first_iterations == -1
        assert detect_divergence(cta[1:]).divergent

    @pytest.mark.parametrize(
        "algorithms", [("atc_dlms", "cta_leaky_dlms"), ("cta_dlms",), ("cta_leaky_dlms", "atc_dlms")]
    )
    def test_label_subsets_exactly_equal(self, algorithms):
        cfg = replace(ORACLE, trials=3, mu=2.2, algorithms=algorithms)
        assert_same_results(run_ensemble(cfg), ensemble_reference(cfg))

    # at mu 2.15 the ATC and CTA labels drop different trials; five trials
    # run as two chunks of several blocks. The first two sets fill a box
    # smaller than 2 x 2, the reversed four fill it, the last does not
    @pytest.mark.parametrize(
        "algorithms",
        [
            ("atc_dlms", "atc_leaky_dlms"),
            ("cta_dlms", "atc_dlms"),
            ("cta_leaky_dlms", "atc_leaky_dlms", "cta_dlms", "atc_dlms"),
            ("atc_dlms", "cta_dlms", "cta_leaky_dlms"),
        ],
    )
    def test_grouped_readout_exactly_equal(self, algorithms):
        cfg = replace(ORACLE, trials=5, mu=2.15, algorithms=algorithms)
        assert_same_results(run_ensemble(cfg), ensemble_reference(cfg))

    @pytest.mark.parametrize(
        "algorithms,gamma,boxes",
        [
            (ALGORITHM_LABELS, 0.002, [(2, 2)]),
            (ALGORITHM_LABELS, 0.0, [(2, 1)]),
            (("cta_leaky_dlms",), 0.002, [(1, 1)]),
            (("atc_leaky_dlms", "atc_dlms"), 0.002, [(1, 2)]),
            (("atc_dlms", "cta_leaky_dlms"), 0.002, [(1, 1), (1, 1)]),
            (("atc_dlms", "cta_dlms", "cta_leaky_dlms"), 0.002, [(1, 1)] * 3),
        ],
    )
    def test_readout_reads_only_requested_slots(self, monkeypatch, algorithms, gamma, boxes):
        # one scan per (output, pair) box per block, and no box the labels leave part empty
        from diffusion_lms import experiment

        seen = []

        def scan(view, *bound):
            seen.append((view.shape[1], view.shape[3]))
            return detect_divergence(view, *bound)

        monkeypatch.setattr(experiment, "detect_divergence", scan)
        cfg = replace(SMALL, trials=1, gamma=gamma, algorithms=algorithms)
        run_ensemble(cfg)
        blocks = -(-cfg.horizon // BLOCK_ROUNDS)
        assert seen == boxes * blocks

    def test_zero_leakage_pairs_collapse(self):
        cfg = replace(ORACLE, trials=3, gamma=0.0)
        results = run_ensemble(cfg)
        assert_same_results(results, ensemble_reference(cfg))
        assert np.array_equal(results["atc_dlms"].per_iteration_db, results["atc_leaky_dlms"].per_iteration_db)

    def test_delay_line_source_exactly_equal(self):
        cfg = replace(ORACLE, trials=3, source="delay_line", horizon=321)
        assert_same_results(run_ensemble(cfg), ensemble_reference(cfg))


class TestRunEnsemble:
    def test_holds_at_most_one_chunk_of_streams(self):
        # one trial per chunk: a stream kept alive while the next chunk's is built doubles the peak
        cfg = ExperimentConfig(
            nodes=60, topology="ring_lattice", half_width=3, taps=16, trials=3, horizon=1000, algorithms=("atc_dlms",)
        )
        assert _chunk_trials(cfg.horizon, cfg.nodes, cfg.taps, 1, 1) == 1
        stream = make_stream(cfg, build_setup(cfg), cfg.base_seed)
        stream_bytes = stream.u.nbytes + stream.d.nbytes + stream.noise.nbytes
        del stream
        tracemalloc.start()
        try:
            run_ensemble(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * stream_bytes

    def test_no_adaptation_gives_flat_trace_at_initial_msd(self):
        cfg = ExperimentConfig(
            nodes=5, radius=0.6, trials=1, horizon=1, mu=0.0, algorithms=("atc_dlms",), steady_window=1
        )
        trace = run_ensemble(cfg)["atc_dlms"]
        w_o = default_lowpass_system(cfg.taps)
        assert np.allclose(trace.per_iteration_db, 10 * np.log10(float(w_o @ w_o)), atol=1e-9)

    def test_deterministic_for_fixed_config(self):
        a = run_ensemble(SMALL)
        b = run_ensemble(SMALL)
        for label in SMALL.algorithms:
            assert np.array_equal(a[label].per_iteration_db, b[label].per_iteration_db)

    def test_traces_do_not_depend_on_co_scheduled_algorithms(self):
        # paired-trial discipline: each algorithm consumes the same streams
        # whether or not others run alongside it
        from dataclasses import replace

        solo = run_ensemble(replace(SMALL, algorithms=("cta_leaky_dlms",)))
        joint = run_ensemble(SMALL)
        assert np.array_equal(
            solo["cta_leaky_dlms"].per_iteration_db, joint["cta_leaky_dlms"].per_iteration_db
        )

    def test_ensemble_averages_in_linear_domain(self):
        cfg = ExperimentConfig(
            nodes=6, radius=0.6, trials=4, horizon=60, algorithms=("atc_dlms",), steady_window=20
        )
        trace = run_ensemble(cfg)["atc_dlms"]
        setup = build_setup(cfg)
        acc = np.zeros(cfg.horizon)
        for t in range(cfg.trials):
            stream = make_stream(cfg, setup, cfg.base_seed + t)
            snaps = trajectory(setup.weights, "atc", cfg.mu, 0.0, stream)
            acc += linear_deviation(snaps[1:], setup.w_o)
        expected = 10 * np.log10(acc / cfg.trials)
        assert np.allclose(trace.per_iteration_db, expected, atol=0.0)
        assert trace.trials == 4 and trace.divergent_trials == 0

    def test_partially_divergent_trials_are_excluded_and_counted(self):
        cfg = ExperimentConfig(nodes=10, radius=0.5, trials=6, horizon=300, mu=1.6, steady_window=50)
        results = run_ensemble(cfg)
        setup = build_setup(cfg)
        for label, trace in results.items():
            assert 0 < trace.divergent_trials < cfg.trials
            assert trace.first_divergence is not None
            assert np.isfinite(trace.per_iteration_db).all()
            # recompute the survivor-only average independently
            ordering, gamma = label_rule(label, cfg.gamma)
            acc, kept = np.zeros(cfg.horizon), 0
            for t in range(cfg.trials):
                stream = make_stream(cfg, setup, cfg.base_seed + t)
                snaps = trajectory(setup.weights, ordering, cfg.mu, gamma, stream)
                if detect_divergence(snaps[1:]).divergent:
                    continue
                acc += linear_deviation(snaps[1:], setup.w_o)
                kept += 1
            assert kept == cfg.trials - trace.divergent_trials
            assert np.allclose(trace.per_iteration_db, 10 * np.log10(acc / kept), atol=0.0)

    def test_divergence_bound_scales_with_the_unknown_vector(self):
        # a power-of-two gain scales every stream value, estimate and
        # deviation exactly, so the scaled run keeps every trial and its
        # curves move by the gain in dB; its estimates pass 1e6
        cfg = ExperimentConfig(nodes=8, radius=0.5, trials=3, horizon=600, steady_window=100)
        scaled = replace(cfg, coefficients=tuple(default_lowpass_system(cfg.taps) * 2.0**23))
        base, big = run_ensemble(cfg), run_ensemble(scaled)
        assert_same_results(big, ensemble_reference(scaled))
        for label in cfg.algorithms:
            assert base[label].divergent_trials == big[label].divergent_trials == 0
            assert np.allclose(
                big[label].per_iteration_db, base[label].per_iteration_db + 10 * np.log10(2.0**46), rtol=0, atol=1e-9
            )

    def test_wholly_divergent_algorithm_reports_failure(self):
        cfg = ExperimentConfig(nodes=10, radius=0.5, trials=3, horizon=200, mu=2.6, steady_window=50)
        results = run_ensemble(cfg)
        for label in cfg.algorithms:
            failure = results[label]
            assert failure.per_iteration_db is None
            assert failure.trials == failure.divergent_trials == 3
            assert failure.first_divergence is not None

    def test_overflowing_leak_diverges_every_trial_without_a_warning(self):
        # mu * gamma overflows, so the leak 1 - mu * gamma is -inf
        cfg = ExperimentConfig(nodes=6, radius=0.6, trials=2, horizon=100, steady_window=50, mu=1e300, gamma=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_ensemble(cfg)
        for label in cfg.algorithms:
            assert results[label].per_iteration_db is None
            assert results[label].trials == results[label].divergent_trials == 2

    @pytest.mark.parametrize("field", ["mu", "gamma"])
    def test_non_finite_step_or_leakage_fails_before_any_stream(self, monkeypatch, field):
        from diffusion_lms import experiment

        def no_stream(*args, **kwargs):
            raise AssertionError("a stream was built before the algorithm was checked")

        monkeypatch.setattr(experiment, "make_stream", no_stream)
        with pytest.raises(ConfigError, match=f"^{field}: must be finite"):
            run_ensemble(
                ExperimentConfig(nodes=6, radius=0.6, trials=2, horizon=120, steady_window=20, **{field: np.inf})
            )

    def test_steady_state_estimate_stabilizes_with_trial_count(self):
        # desk-scale check that more trials only refine the steady-state
        # readout at the expected 1/sqrt(trials) rate
        base = dict(nodes=8, radius=0.5, horizon=400, algorithms=("atc_dlms",), steady_window=100)
        few = run_ensemble(ExperimentConfig(**base, trials=200))["atc_dlms"]
        many = run_ensemble(ExperimentConfig(**base, trials=1000))["atc_dlms"]
        gap = abs(
            steady_state_msd(few, base["steady_window"]) - steady_state_msd(many, base["steady_window"])
        )
        assert gap < 0.5

    def test_edge_list_topology_round_trips_through_config(self, tmp_path):
        topo = build_random_geometric(6, 0.5, 3)
        path = tmp_path / "net.txt"
        write_edge_list(topo, path)
        cfg = ExperimentConfig(
            nodes=6,
            topology="edge_list",
            edge_list_path=str(path),
            trials=2,
            horizon=40,
            algorithms=("atc_dlms",),
            steady_window=10,
        )
        assert np.array_equal(build_setup(cfg).topology.adjacency, topo.adjacency)
        trace = run_ensemble(cfg)["atc_dlms"]
        assert np.isfinite(trace.per_iteration_db).all()


class TestSweeps:
    def test_singleton_grid_matches_direct_run(self):
        points = sweep_step_size(SMALL, (SMALL.mu,))
        direct = run_ensemble(SMALL)
        for label, values in points.items():
            (mu, db), = values
            assert mu == SMALL.mu
            assert db == steady_state_msd(direct[label], SMALL.steady_window)

    def test_zero_leakage_entry_equals_plain_dlms(self):
        points = sweep_leakage(SMALL, (0.0,))
        for leaky, plain in (("atc_leaky_dlms", "atc_dlms"), ("cta_leaky_dlms", "cta_dlms")):
            (_, leaky_db), = points[leaky]
            (_, plain_db), = points[plain]
            assert abs(leaky_db - plain_db) < 1e-12

    def test_divergent_grid_points_reported_as_divergent(self):
        points = sweep_step_size(SMALL, (0.05, 2.6))
        for label, values in points.items():
            assert values[0][1] is not None
            assert values[1][1] is None

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            sweep_step_size(SMALL, ())
        with pytest.raises(ConfigError):
            sweep_step_size(SMALL, (0.0,))
        with pytest.raises(ConfigError):
            sweep_leakage(SMALL, (-0.1,))


class TestDenoise:
    def speech_cfg(self, **over):
        base = dict(
            nodes=8,
            radius=0.5,
            source="delay_line",
            sample_path="synthetic",
            horizon=800,
            algorithms=("atc_leaky_dlms",),
            steady_window=100,
        )
        base.update(over)
        return ExperimentConfig(**base)

    def test_outputs_are_consistent(self):
        cfg = self.speech_cfg()
        result = denoise_speech(cfg, 3)
        assert result.noisy.shape == (800,)
        assert np.array_equal(result.residual, result.noisy - result.filtered)
        assert np.isfinite(result.filtered).all()
        assert result.sample_rate is None

    def test_noiseless_residual_vanishes_after_convergence(self):
        # plain dLMS (the leaky variants keep a deliberate bias) with strong
        # excitation everywhere so every node converges within the run
        cfg = self.speech_cfg(
            noise_variance=0.0,
            algorithms=("atc_dlms",),
            horizon=2400,
            regressor_variances=(1.0,) * 8,
        )
        result = denoise_speech(cfg, 2)
        tail = slice(2000, None)
        signal_power = (result.clean[tail] ** 2).mean()
        residual_power = (result.residual[tail] ** 2).mean()
        assert residual_power < 1e-4 * signal_power

    def test_zero_input_gives_zero_filter_output(self, tmp_path):
        path = tmp_path / "silence.txt"
        path.write_text("\n".join(["0.0"] * 200) + "\n")
        cfg = self.speech_cfg(sample_path=str(path))
        result = denoise_speech(cfg, 1)
        assert np.array_equal(result.filtered, np.zeros(200))
        assert np.array_equal(result.noisy, result.residual)

    @pytest.mark.parametrize("label", ["atc_dlms", "cta_dlms", "atc_leaky_dlms", "cta_leaky_dlms"])
    def test_filtered_output_of_every_label(self, label):
        # the first label's estimates at the node, by the literal label rule
        # (gamma = 0.01 applies to the leaky labels only)
        cfg = self.speech_cfg(algorithms=(label,), gamma=0.01, horizon=300)
        result = denoise_speech(cfg, 5)
        setup = build_setup(cfg)
        stream = make_stream(cfg, setup, cfg.base_seed, samples=_delay_line_samples(cfg)[0])
        ordering, gamma = label_rule(label, cfg.gamma)
        w = trajectory(setup.weights, ordering, cfg.mu, gamma, stream)[1:, 5]
        assert np.array_equal(result.filtered, np.einsum("im,im->i", stream.u[:, 5], w))

    def test_node_out_of_range_rejected(self):
        cfg = self.speech_cfg()
        with pytest.raises(ValueError):
            denoise_speech(cfg, -1)
        with pytest.raises(ValueError):
            denoise_speech(cfg, 8)

    def test_requires_delay_line_source(self):
        with pytest.raises(ConfigError, match="^source: "):
            denoise_speech(SMALL, 0)
