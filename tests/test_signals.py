import tracemalloc
import wave

import numpy as np
import pytest

from diffusion_lms.experiment import ExperimentConfig, denoise_speech
from diffusion_lms.signals import (
    ConfigError,
    DataFileError,
    _resolve_noise_variance,
    default_lowpass_system,
    delay_line_source,
    gaussian_source,
    load_samples,
    synthetic_speech,
    wav_bytes,
)


def freq_response_mag(taps, omega):
    # direct-summation oracle for the FIR magnitude response
    return abs(sum(t * np.exp(-1j * omega * m) for m, t in enumerate(taps)))


class TestDefaultSystem:
    def test_single_tap_identity(self):
        assert np.array_equal(default_lowpass_system(1), [1.0])

    def test_five_tap_moving_average(self):
        w = default_lowpass_system(5)
        assert np.allclose(w, 0.2)
        assert np.isclose(w.sum(), 1.0)  # unit DC gain

    def test_is_lowpass(self):
        w = default_lowpass_system(5)
        assert freq_response_mag(w, 0.8 * np.pi) < freq_response_mag(w, 0.2 * np.pi)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            default_lowpass_system(0)


class TestNoiseVarianceForSnr:
    """The calibrated noise variance is the signal power divided by
    10^(snr_db / 10), read off a white-Gaussian stream whose signal power
    is variances[k] * ||w_o||^2."""

    @staticmethod
    def resolved(variance, w_o, snr_db):
        return gaussian_source(np.array([variance]), np.asarray(w_o, dtype=float), 0, 1, snr_db).noise_variance[0]

    def test_zero_db_means_equal_power(self):
        assert self.resolved(1.0, [1.0], 0.0) == 1.0

    def test_ten_db(self):
        assert np.isclose(self.resolved(1.0, [1.0], 10.0), 0.1)

    def test_white_regressor_formula(self):
        # signal power sigma_u^2 * ||w_o||^2 with sigma_u^2 = 0.35, ||w_o||^2 = 0.2
        assert np.isclose(self.resolved(0.35, default_lowpass_system(5), 0.0), 0.07)

    def test_zero_power_falls_back_to_unit_variance(self):
        assert self.resolved(0.35, np.zeros(5), 10.0) == 1.0

    def test_per_node_resolution_is_the_scalar_rule_bitwise(self):
        power = np.array([0.0, 0.1, 0.35 * 0.2, 1.0, 2.5e-3, 7.0, 0.0])
        for snr_db in (0.0, -3.0, 10.0, 17.3):
            got = _resolve_noise_variance(power, snr_db, None, power.size)
            want = [1.0 if p <= 0.0 else float(p) / 10.0 ** (snr_db / 10.0) for p in power]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("snr_db", [-3100.0, -3235.0, float("nan")])
    def test_variance_beyond_the_float_range_is_a_config_error(self, snr_db):
        # no overflow warning escapes: the suite turns one into an error
        with pytest.raises(ConfigError, match="^snr_db: "):
            self.resolved(1.0, [1.0], snr_db)
        w_o = default_lowpass_system(5)
        with pytest.raises(ConfigError, match="^snr_db: "):
            delay_line_source(np.ones(20), np.array([1.0, 0.5]), w_o, seed=0, snr_db=snr_db)


class TestGaussianSource:
    def test_noiseless_measurements_match_model_exactly(self):
        variances = np.array([0.5, 1.0])
        w_o = default_lowpass_system(5)
        s = gaussian_source(variances, w_o, seed=3, horizon=50, noise_variance=0.0)
        assert np.array_equal(s.d, s.u @ w_o)
        assert np.array_equal(s.noise, np.zeros_like(s.d))

    def test_model_bookkeeping_is_exact(self):
        variances = np.array([0.5, 1.0, 0.2])
        w_o = default_lowpass_system(5)
        s = gaussian_source(variances, w_o, seed=9, horizon=200, snr_db=0.0)
        assert np.array_equal(s.d, s.u @ w_o + s.noise)

    def test_sample_covariance_matches_spec(self):
        variance = 0.7
        w_o = default_lowpass_system(5)
        s = gaussian_source(np.array([variance]), w_o, seed=11, horizon=100_000)
        u = s.u[:, 0, :]
        emp = u.T @ u / u.shape[0]
        target = variance * np.eye(5)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_empirical_snr_within_tolerance(self):
        variances = np.array([0.35, 0.9])
        w_o = default_lowpass_system(5)
        s = gaussian_source(variances, w_o, seed=5, horizon=100_000, snr_db=0.0)
        clean = s.u @ w_o
        for k in range(2):
            snr = 10 * np.log10((clean[:, k] ** 2).mean() / (s.noise[:, k] ** 2).mean())
            assert abs(snr - 0.0) < 0.2

    def test_same_seed_bitwise_identical(self):
        variances = np.array([0.3, 0.6])
        w_o = default_lowpass_system(3)
        a = gaussian_source(variances, w_o, seed=17, horizon=100)
        b = gaussian_source(variances, w_o, seed=17, horizon=100)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.noise, b.noise)

    @pytest.mark.parametrize("seed", [17, 1234])
    def test_stream_is_the_one_expression_draw_bitwise(self, seed):
        # the stream as first written: draw, scale and sum in one expression each
        variances = np.array([0.3, 0.6, 0.35])
        w_o = default_lowpass_system(5)
        s = gaussian_source(variances, w_o, seed=seed, horizon=300, snr_db=0.0)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((300, 3, 5)) * np.sqrt(variances)[None, :, None]
        noise = rng.standard_normal((300, 3)) * np.sqrt(s.noise_variance)[None, :]
        assert np.array_equal(s.noise_variance, variances * float(w_o @ w_o))
        assert np.array_equal(s.u, u)
        assert np.array_equal(s.noise, noise)
        assert np.array_equal(s.d, u @ w_o + noise)

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            gaussian_source(np.array([0.0]), default_lowpass_system(2), seed=0, horizon=5)

    @pytest.mark.parametrize("noise_variance", [None, 1.0])
    def test_power_overflow_blames_the_variances(self, noise_variance):
        # ||w_o||^2 = 2e10 is a float; times the variance 1e300 it is not
        with pytest.raises(ConfigError, match="^regressor_variances: "):
            gaussian_source(np.array([1.0, 1e300]), np.full(2, 1e5), seed=0, horizon=5, noise_variance=noise_variance)


class TestDelayLineSource:
    def test_constant_input_has_unit_dc_response(self):
        samples = np.ones(50)
        w_o = default_lowpass_system(5)
        s = delay_line_source(samples, np.array([1.0]), w_o, seed=0, noise_variance=0.0)
        assert np.allclose(s.d[4:, 0], 1.0, atol=1e-12)

    def test_impulse_traces_the_taps(self):
        # convolution identity: an impulse input reproduces the scaled taps
        samples = np.zeros(10)
        samples[0] = 1.0
        w_o = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        variance = 0.25
        s = delay_line_source(samples, np.array([variance]), w_o, seed=0, noise_variance=0.0)
        for i in range(5):
            assert s.d[i, 0] == variance * w_o[i]
        assert np.allclose(s.d[5:, 0], 0.0)

    def test_shift_property(self):
        samples = synthetic_speech(200, 8)
        w_o = default_lowpass_system(5)
        s = delay_line_source(samples, np.array([0.5, 1.0]), w_o, seed=2)
        assert np.array_equal(s.u[1:, :, 1:], s.u[:-1, :, :-1])

    def test_zero_input_yields_pure_noise(self):
        w_o = default_lowpass_system(3)
        s = delay_line_source(np.zeros(40), np.array([0.5]), w_o, seed=6, snr_db=0.0)
        assert np.array_equal(s.u, np.zeros_like(s.u))
        assert np.array_equal(s.d, s.noise)
        # silent input cannot realize an SNR target; unit noise keeps it defined
        assert s.noise_variance[0] == 1.0
        assert not np.allclose(s.noise, 0.0)

    def test_scale_exponent_one_uses_standard_deviation(self):
        samples = np.ones(10)
        variance = 0.25
        s2 = delay_line_source(samples, np.array([variance]), np.ones(2), seed=0, noise_variance=0.0)
        s1 = delay_line_source(
            samples, np.array([variance]), np.ones(2), seed=0, noise_variance=0.0, scale_exponent=1.0
        )
        assert np.allclose(s2.u[5], variance)
        assert np.allclose(s1.u[5], np.sqrt(variance))

    def test_snr_calibrated_from_empirical_power(self):
        samples = synthetic_speech(5000, 21)
        w_o = default_lowpass_system(5)
        s = delay_line_source(samples, np.array([0.35]), w_o, seed=3, snr_db=0.0)
        clean = s.u @ w_o
        assert np.isclose((clean[:, 0] ** 2).mean(), s.noise_variance[0])

    def test_model_bookkeeping_is_exact(self):
        samples = synthetic_speech(300, 4)
        w_o = default_lowpass_system(5)
        s = delay_line_source(samples, np.array([0.35, 0.8]), w_o, seed=3, snr_db=0.0)
        assert np.array_equal(s.d, s.u @ w_o + s.noise)

    def test_rejects_empty_or_short_input(self):
        w_o = default_lowpass_system(5)
        with pytest.raises(ValueError):
            delay_line_source(np.array([]), np.array([1.0]), w_o, seed=0)
        with pytest.raises(ValueError):
            delay_line_source(np.ones(3), np.array([1.0]), w_o, seed=0)

    def test_power_overflow_blames_the_samples_or_the_scale(self):
        w_o = default_lowpass_system(5)
        loud = np.tile([1e200, -1e200], 50)
        with pytest.raises(DataFileError, match="the samples' mean square"):
            delay_line_source(loud, np.array([0.5]), w_o, seed=0)
        # samples of unit size whose scale 2**1000 is a float but whose power is not
        with pytest.raises(ConfigError, match="^scale_exponent: 2000.0 "):
            delay_line_source(np.ones(100), np.array([2.0]), w_o, seed=0, scale_exponent=2000.0)


def test_delay_line_source_builds_no_full_regressor_table():
    horizon, n, m = 48_000, 20, 5
    samples = synthetic_speech(horizon, 1)
    variances = np.linspace(0.2, 1.2, n)
    w_o = default_lowpass_system(m)
    tracemalloc.start()
    try:
        stream = delay_line_source(samples, variances, w_o, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.u.shape == (horizon, n, m)
    assert peak < 8 * horizon * n * m  # one (T, N, M) float table: 38.4 MB


@pytest.mark.parametrize("label", ["atc_leaky_dlms", "cta_leaky_dlms"])
def test_denoise_keeps_one_estimate_stack(label):
    # the rows denoise_speech does not keep alias one (N, M) table
    horizon, n, m = 48_000, 20, 5
    cfg = ExperimentConfig(nodes=n, taps=m, source="delay_line", horizon=horizon, algorithms=(label,))
    tracemalloc.start()
    try:
        result = denoise_speech(cfg, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.filtered.shape == (horizon,)
    assert peak < 2 * 8 * (horizon + 1) * n * m  # two (T + 1, N, M) float tables: 76.8 MB


class TestLoadSamples:
    def test_text_file(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("0.5\n-0.5\n")
        loaded = load_samples(path)
        assert np.array_equal(loaded.data, [0.5, -0.5])
        assert loaded.sample_rate is None

    def test_text_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("# header\n1.0\n\n# mid\n2.0\n")
        assert np.array_equal(load_samples(path).data, [1.0, 2.0])

    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(64)
        path = tmp_path / "rt.txt"
        path.write_text("\n".join(format(v, ".17g") for v in data) + "\n")
        assert np.abs(load_samples(path).data - data).max() < 1e-9

    def test_text_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        # inf and nan parse as floats but are no samples; an undecodable byte is no number
        for line in (b"not-a-number", b"inf", b"-Infinity", b"nan", b"\xff0.5"):
            path.write_bytes(b"1.0\n" + line + b"\n")
            with pytest.raises(DataFileError, match=":2: not a decimal sample: "):
                load_samples(path)

    def test_wav_fixed_point_convention(self, tmp_path):
        path = tmp_path / "tone.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(np.array([16384, -16384, 0], dtype="<i2").tobytes())
        loaded = load_samples(path)
        assert np.array_equal(loaded.data, [0.5, -0.5, 0.0])
        assert loaded.sample_rate == 8000

    def test_wav_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        data = np.round(rng.uniform(-0.9, 0.9, 128) * 32768) / 32768
        path = tmp_path / "rt.wav"
        path.write_bytes(wav_bytes(data, 16000))
        loaded = load_samples(path)
        assert np.array_equal(loaded.data, data)
        assert loaded.sample_rate == 16000

    def test_wav_encodes_clipped_and_non_finite_samples(self, tmp_path):
        path = tmp_path / "edges.wav"
        path.write_bytes(wav_bytes(np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, 1.0, -2.0]), 8000))
        with wave.open(str(path), "rb") as wf:
            pcm = np.frombuffer(wf.readframes(7), dtype="<i2")
        assert pcm.tolist() == [0, 32767, -32768, 32767, -32768, 32767, -32768]

    def test_wav_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(np.zeros(8, dtype="<i2").tobytes())
        with pytest.raises(DataFileError, match="multi-channel"):
            load_samples(path)

    def test_wav_rejects_eight_bit(self, tmp_path):
        path = tmp_path / "eight.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(8000)
            wf.writeframes(bytes(8))
        with pytest.raises(DataFileError, match="16-bit"):
            load_samples(path)

    def test_wav_rejects_non_pcm(self, tmp_path):
        # hand-built RIFF/WAVE header with format code 3 (IEEE float)
        import struct

        fmt = struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
        data = bytes(8)
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(data)) + data
        blob = b"RIFF" + struct.pack("<I", len(body)) + body
        path = tmp_path / "float.wav"
        path.write_bytes(blob)
        with pytest.raises(DataFileError):
            load_samples(path)

    def test_wav_rejects_zero_sample_rate(self, tmp_path):
        # hand-built 16-bit mono PCM header whose rate field is 0
        import struct

        fmt = struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)
        data = bytes(8)
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(data)) + data
        path = tmp_path / "norate.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(DataFileError) as exc:
            load_samples(path)
        assert str(exc.value) == f"{path}: WAV sample rate must be positive, got 0"

    def test_wav_rejects_truncated_file(self, tmp_path):
        blob = wav_bytes(np.zeros(8), 8000)
        path = tmp_path / "cut.wav"
        for size, problem in ((30, "ends inside its header"), (len(blob) - 1, "ends inside a sample")):
            path.write_bytes(blob[:size])
            with pytest.raises(DataFileError, match=problem):
                load_samples(path)


class TestSyntheticSpeech:
    def test_deterministic_and_bounded(self):
        a = synthetic_speech(2000, 4321)
        b = synthetic_speech(2000, 4321)
        assert np.array_equal(a, b)
        assert a.shape == (2000,)
        assert np.isfinite(a).all()
        assert np.abs(a).max() < 2.0

    def test_is_nonstationary(self):
        s = synthetic_speech(4000, 7)
        block_power = (s.reshape(40, 100) ** 2).mean(axis=1)
        assert block_power.max() > 10 * block_power.min()
