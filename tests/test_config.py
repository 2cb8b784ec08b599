from dataclasses import fields

import pytest

from diffusion_lms.config import ConfigError, format_config, parse_config, parse_config_text
from diffusion_lms.experiment import ExperimentConfig

# each fault as a config snippet, the key its message starts with, and the
# same fault as ExperimentConfig arguments
REJECTED = [
    ("[network]\nnodes = 0\n", "nodes", dict(nodes=0)),
    # an int field takes neither a float nor a bool, which Python counts as an int
    ("[network]\nnodes = 20.5\n", "nodes", dict(nodes=20.5)),
    ("[model]\ntaps = 5.0\n", "taps", dict(taps=5.0)),
    ("[run]\ntrials = true\n", "trials", dict(trials=True)),
    ("[network]\nradius = 0\n", "radius", dict(radius=0.0)),
    (
        "[network]\ntopology = ring_lattice\nnodes = 4\nhalf_width = 2\n",
        "half_width",
        dict(topology="ring_lattice", nodes=4, half_width=2),
    ),
    (
        "[network]\ntopology = ring_lattice\nnodes = 1\nhalf_width = 1\n",
        "half_width",
        dict(topology="ring_lattice", nodes=1, half_width=1),
    ),
    ("[network]\ntopology = edge_list\n", "edge_list_path", dict(topology="edge_list")),
    ("[network]\ntopology = star\n", "topology", dict(topology="star")),
    ("[source]\nkind = wav\n", "source", dict(source="wav")),
    ("[source]\nsample_path =\n", "sample_path", dict(sample_path="")),
    # configparser joins an indented line onto the value before it
    ("[source]\nsample_path = a\n  b\n", "sample_path", dict(sample_path="a\nb")),
    ("[network]\ntopology_seed = -1\n", "topology_seed", dict(topology_seed=-1)),
    ("[model]\ntaps = 0\n", "taps", dict(taps=0)),
    ("[model]\nnoise_variance = -0.5\n", "noise_variance", dict(noise_variance=-0.5)),
    ("[model]\nnoise_variance = inf\n", "noise_variance", dict(noise_variance=float("inf"))),
    ("[model]\nsnr_db = -inf\n", "snr_db", dict(snr_db=float("-inf"))),
    ("[model]\nsnr_db = nan\n", "snr_db", dict(snr_db=float("nan"))),
    ("[model]\nsnr_db = 4000\n", "snr_db", dict(snr_db=4000.0)),
    ("[model]\nsnr_db = -4000\n", "snr_db", dict(snr_db=-4000.0)),
    ("[model]\nregressor_variances = 1.0, 2.0\n", "regressor_variances", dict(regressor_variances=(1.0, 2.0))),
    ("[run]\ngamma = -0.1\n", "gamma", dict(gamma=-0.1)),
    ("[run]\nmu = inf\n", "mu", dict(mu=float("inf"))),
    ("[run]\ngamma = inf\n", "gamma", dict(gamma=float("inf"))),
    ("[run]\nmu = nan\n", "mu", dict(mu=float("nan"))),
    ("[run]\ngamma = nan\n", "gamma", dict(gamma=float("nan"))),
    ("[run]\ntrials = 0\n", "trials", dict(trials=0)),
    ("[run]\nhorizon = 0\n", "horizon", dict(horizon=0)),
    ("[run]\nbase_seed = -1\n", "base_seed", dict(base_seed=-1)),
    ("[run]\nalgorithms = warp_dlms\n", "algorithms", dict(algorithms=("warp_dlms",))),
    ("[run]\nalgorithms = atc_dlms, atc_dlms\n", "algorithms", dict(algorithms=("atc_dlms", "atc_dlms"))),
    ("[run]\nsteady_window = 2000\n", "steady_window", dict(steady_window=2000)),
    (
        "[source]\nkind = delay_line\n\n[run]\nhorizon = 3\nsteady_window = 3\n",
        "horizon",
        dict(source="delay_line", horizon=3, steady_window=3),
    ),
    ("[model]\ntaps = 4\ncoefficients = 1.0, 2.0\n", "coefficients", dict(taps=4, coefficients=(1.0, 2.0))),
    # every learning curve starts at the squared norm of the coefficients
    ("[model]\ncoefficients = 1e200, 1e200\n", "coefficients", dict(taps=2, coefficients=(1e200, 1e200))),
    (
        "[model]\ncoefficients = 1e160, 1e160\nnoise_variance = 1\n",
        "coefficients",
        dict(taps=2, coefficients=(1e160, 1e160), noise_variance=1.0),
    ),
]
# the keys whose fields default to None: an empty value leaves them unset
OPTIONAL = [
    ("network", "edge_list_path"),
    ("model", "coefficients"),
    ("model", "noise_variance"),
    ("model", "regressor_variances"),
]


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

    def test_optional_keys_are_the_fields_that_default_to_none(self):
        assert [key for _, key in OPTIONAL] == [f.name for f in fields(ExperimentConfig) if f.default is None]

    @pytest.mark.parametrize("section,key", OPTIONAL)
    def test_empty_optional_key_is_unset(self, section, key):
        cfg = parse_config_text(f"[{section}]\n{key} =\n")
        assert getattr(cfg, key) is None
        assert cfg == ExperimentConfig()

    @pytest.mark.parametrize(
        "snippet,message",
        [
            ("[run]\nalgorithms =\n", "algorithms: expected a comma-separated list"),
            ("[run]\nmu =\n", "mu: expected a number, got ''"),
        ],
    )
    def test_empty_required_key_is_a_type_error(self, snippet, message):
        # an empty sample_path is a REJECTED row: it parses, and the config rejects it
        with pytest.raises(ConfigError) as err:
            parse_config_text(snippet)
        assert str(err.value) == message

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

    @pytest.mark.parametrize("snippet,key", [case[:2] for case in REJECTED])
    def test_constraint_violations_name_the_key(self, snippet, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config_text(snippet)
        # the library rejects the same config with the same message
        kwargs = next(case[2] for case in REJECTED if case[0] == snippet)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig(**kwargs)

    def test_empty_edge_list_path_rejected(self):
        # it would format as an empty value, which parses back as unset
        with pytest.raises(ConfigError, match="^edge_list_path: "):
            ExperimentConfig(edge_list_path="")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(edge_list_path=" "),  # surrounding whitespace: the parser strips it
            dict(sample_path="#x"),  # a '#' at the start opens a comment
            dict(edge_list_path="net #1.txt"),  # so does one after whitespace
            dict(sample_path="a\n  b"),  # a line break ends the value
            dict(sample_path="a\rb"),  # and so does a carriage return, in a file
        ],
        ids=["whitespace", "hash_at_start", "hash_after_space", "newline", "carriage_return"],
    )
    def test_path_that_would_not_read_back_rejected(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig(**kwargs)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[run]\nmu = 0.1\nmu = 0.2\n")

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"# caf\xe9\n[run]\nmu = 0.1\n")
        with pytest.raises(ConfigError, match="not UTF-8 text"):
            parse_config(path)


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
            base_seed=17,
            steady_window=16,
        )
        text = format_config(cfg)
        assert parse_config_text(text) == cfg
        # a second round trip is byte-stable
        assert format_config(parse_config_text(text)) == text

    def test_every_field_set_off_its_default_round_trips(self):
        # a key missing from the section table, or setting the wrong field,
        # would lose or move one of these values
        cfg = ExperimentConfig(
            nodes=6,
            topology="edge_list",
            radius=0.5,
            half_width=1,
            edge_list_path="net.txt",
            topology_seed=7,
            weights="non_cooperative",
            taps=3,
            coefficients=(0.1, -0.7, 1.0 / 3.0),
            snr_db=-2.5,
            noise_variance=0.125,
            regressor_variances=(0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
            source="delay_line",
            sample_path="speech.wav",
            scale_exponent=1.0,
            algorithms=("atc_leaky_dlms", "cta_dlms"),
            mu=0.05,
            gamma=1e-4,
            trials=3,
            horizon=64,
            base_seed=17,
            steady_window=16,
        )
        assert all(getattr(cfg, f.name) != f.default for f in fields(cfg))
        assert parse_config_text(format_config(cfg)) == cfg

    def test_paths_with_inner_spaces_and_hashes_round_trip_through_a_file(self, tmp_path):
        cfg = ExperimentConfig(edge_list_path="my net#1.txt", sample_path="a b\tc#d.wav")
        path = tmp_path / "exp.cfg"
        path.write_text(format_config(cfg), encoding="utf-8")
        assert parse_config(path) == cfg
