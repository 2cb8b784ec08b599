import pytest

from diffusion_lms.config import ConfigError, format_config, parse_config, parse_config_text
from diffusion_lms.experiment import ExperimentConfig


class TestParsing:
    def test_empty_config_materializes_defaults(self):
        cfg = parse_config_text("")
        assert cfg == ExperimentConfig()
        assert cfg.mu == 0.08
        assert cfg.gamma == 0.002
        assert cfg.trials == 50
        assert cfg.horizon == 1000
        assert cfg.snr_db == 0.0

    def test_values_and_comments(self):
        text = """
        # experiment
        [network]
        nodes = 6          # inline comment
        topology = ring_lattice
        half_width = 1

        [run]
        mu = 0.05
        trials = 7
        """
        cfg = parse_config_text(text)
        assert cfg.nodes == 6
        assert cfg.topology == "ring_lattice"
        assert cfg.mu == 0.05
        assert cfg.trials == 7
        assert cfg.gamma == 0.002  # untouched default

    def test_lists(self):
        text = """
        [model]
        coefficients = 0.5, 0.25, 0.25
        [run]
        algorithms = atc_dlms, cta_dlms
        """
        cfg = parse_config_text(text)
        assert cfg.coefficients == (0.5, 0.25, 0.25)
        assert cfg.taps == 3
        assert cfg.algorithms == ("atc_dlms", "cta_dlms")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[run]\nmu = 0.04\n")
        assert parse_config(path).mu == 0.04


class TestRejections:
    def test_negative_mu_names_the_key(self):
        with pytest.raises(ConfigError, match="mu"):
            parse_config_text("[run]\nmu = -1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="momentum"):
            parse_config_text("[run]\nmomentum = 0.9\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="plotting"):
            parse_config_text("[plotting]\ncolor = red\n")

    def test_type_mismatch_names_the_key(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config_text("[run]\ntrials = soon\n")

    @pytest.mark.parametrize(
        "snippet,key",
        [
            ("[network]\nnodes = 0\n", "nodes"),
            ("[network]\nradius = 0\n", "radius"),
            ("[network]\ntopology = ring_lattice\nnodes = 4\nhalf_width = 2\n", "half_width"),
            ("[network]\ntopology = edge_list\n", "edge_list_path"),
            ("[model]\ntaps = 0\n", "taps"),
            ("[model]\nnoise_variance = -0.5\n", "noise_variance"),
            ("[model]\nregressor_variances = 1.0, 2.0\n", "regressor_variances"),
            ("[run]\ngamma = -0.1\n", "gamma"),
            ("[run]\nmu = inf\n", "mu"),
            ("[run]\ngamma = inf\n", "gamma"),
            ("[run]\nmu = nan\n", "mu"),
            ("[run]\ngamma = nan\n", "gamma"),
            ("[run]\ntrials = 0\n", "trials"),
            ("[run]\nhorizon = 0\n", "horizon"),
            ("[run]\nalgorithms = warp_dlms\n", "algorithms"),
            ("[run]\nalgorithms = atc_dlms, atc_dlms\n", "algorithms"),
            ("[run]\nsteady_window = 2000\n", "steady_window"),
            ("[model]\ntaps = 4\ncoefficients = 1.0, 2.0\n", "coefficients"),
        ],
    )
    def test_constraint_violations_name_the_key(self, snippet, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(snippet)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[run]\nmu = 0.1\nmu = 0.2\n")


class TestRoundTrip:
    def test_defaults_round_trip_exactly(self):
        cfg = ExperimentConfig()
        assert parse_config_text(format_config(cfg)) == cfg

    def test_custom_config_round_trips_exactly(self):
        cfg = ExperimentConfig(
            nodes=6,
            topology="ring_lattice",
            half_width=2,
            weights="non_cooperative",
            taps=3,
            coefficients=(0.1, -0.7, 1.0 / 3.0),
            snr_db=-2.5,
            noise_variance=0.125,
            regressor_variances=(0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
            source="delay_line",
            sample_path="synthetic",
            scale_exponent=1.0,
            algorithms=("atc_leaky_dlms",),
            mu=0.123456789012345678,
            gamma=1e-4,
            trials=3,
            horizon=64,
            base_seed=-17,
            steady_window=16,
        )
        text = format_config(cfg)
        assert parse_config_text(text) == cfg
        # a second round trip is byte-stable
        assert format_config(parse_config_text(text)) == text
