"""Measurement-stream generation and sample-file ingestion.

Streams follow the linear model d_k(i) = u_{k,i} . w_o + v_k(i): every node k
observes a scalar measurement d through its own regressor row u and additive
noise v. Two source kinds are provided: white Gaussian regressors (fresh
independent vectors per node and instant) and a tapped delay line over a
shared scalar sample sequence (speech-style input).
"""

from __future__ import annotations

import io
import math
import os
import wave
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "DataFileError",
    "FrameStream",
    "default_lowpass_system",
    "gaussian_source",
    "delay_line_source",
    "load_samples",
    "wav_bytes",
    "synthetic_speech",
]

# 16-bit PCM fixed-point convention: sample 16384 maps to 0.5
_PCM_SCALE = 32768.0


class ConfigError(ValueError):
    """Invalid experiment config: unknown key, bad type, or bad constraint.
    The message starts with the offending key."""


class DataFileError(ValueError):
    """Raised when an input file (samples or an edge list) is malformed or
    in an unsupported format."""


@dataclass(frozen=True)
class FrameStream:
    """Measurement stream over a fixed horizon; every array is read-only.

    Attributes:
        u: regressors, shape (T, N, M); an array of its own, a view of a
            caller's table (the sources' ``out``), or a strided view of a
            smaller table (see :func:`delay_line_source`).
        d: measurements, shape (T, N), with d = u @ w_o + noise; an array
            of its own or a view of a caller's table (the sources' ``out``),
            which for a delay-line stream may be time-reversed.
        noise: the noise draws, shape (T, N); an array of its own or a view
            of a caller's table (the sources' ``noise_out``).
        noise_variance: resolved per-node noise variance, shape (N,).

    A view of a caller's table is valid until the caller reuses the table.
    """

    u: np.ndarray
    d: np.ndarray
    noise: np.ndarray
    noise_variance: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.u, self.d, self.noise, self.noise_variance):
            arr.setflags(write=False)


def default_lowpass_system(m: int) -> np.ndarray:
    """Length-m moving-average taps, 1/m each.

    A lowpass FIR with unit DC gain and monotonically decaying magnitude
    response on (0, pi). Serves as the default unknown system.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return np.full(m, 1.0 / m)


def _measured(
    rng: np.random.Generator,
    u: np.ndarray,
    d: np.ndarray,
    signal_power: np.ndarray,
    snr_db: float,
    noise_variance: float | np.ndarray | None,
    noise_out: np.ndarray | None = None,
) -> FrameStream:
    """Add the noise half of the model to the noiseless response ``d``, in
    place, and return the stream.

    The per-node noise variance is ``noise_variance`` when given, else the
    signal power divided by 10^(snr_db / 10). Nodes with zero signal power
    cannot realize any finite SNR; they fall back to unit noise variance so
    the stream stays well defined (the measurements there are pure noise).
    An SNR so low that a variance exceeds the float range raises
    ConfigError. The (T, N) noise is drawn from ``rng`` after any regressor
    draws: into ``noise_out`` when given, a C-contiguous float64 (T, N)
    table of the caller's, the same values in the same order, and the
    stream's ``noise`` is then a read-only view of it. ``noise_out`` must
    not share memory with ``d``, which may have any strides.
    """
    if noise_variance is not None:
        var = np.broadcast_to(np.asarray(noise_variance, dtype=float), signal_power.shape).copy()
        if (var < 0.0).any() or not np.isfinite(var).all():
            raise ValueError("noise_variance entries must be finite and >= 0")
    else:
        with np.errstate(over="ignore", divide="ignore"):
            var = np.where(signal_power <= 0.0, 1.0, signal_power / 10.0 ** (snr_db / 10.0))
        if not np.isfinite(var).all():
            raise ConfigError(f"snr_db: {snr_db} dB needs a noise variance beyond the float range")
    noise = rng.standard_normal(d.shape) if noise_out is None else rng.standard_normal(out=noise_out)
    noise *= np.sqrt(var)[None, :]
    d += noise
    return FrameStream(u=u, d=d.view(), noise=noise.view(), noise_variance=var)


def _check_variances(variances: np.ndarray) -> np.ndarray:
    variances = np.asarray(variances, dtype=float)
    if variances.ndim != 1:
        raise ValueError("per-node variances must be a 1-D array")
    if (variances <= 0.0).any() or not np.isfinite(variances).all():
        raise ValueError("per-node variances must be finite and strictly positive")
    return variances


def gaussian_source(
    variances: np.ndarray,
    w_o: np.ndarray,
    seed: int,
    horizon: int,
    snr_db: float = 0.0,
    noise_variance: float | np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    noise_out: np.ndarray | None = None,
) -> FrameStream:
    """White-Gaussian stream: independent regressors in time and space.

    Node k's regressor at each instant is a fresh length-M Gaussian vector
    with covariance variances[k] * I. Noise is independent Gaussian with
    per-node variance calibrated from ``snr_db`` (signal power
    variances[k] * ||w_o||^2), or fixed by ``noise_variance`` when given
    (0 yields a noiseless stream). A signal power beyond the float range
    raises ConfigError naming the variances. Deterministic for a fixed
    seed: all regressors are drawn first, then all noise.

    ``out``, when given, is the caller's pair of C-contiguous float64
    tables, (T, N, M) regressors and (T, N) measurements: the draws fill
    them in place, the same values in the same order, and the stream's
    ``u`` and ``d`` are read-only views of them, valid until the caller
    reuses the tables. ``noise_out``, when given, is the caller's
    C-contiguous float64 (T, N) table that the noise is drawn into (see
    :func:`_measured`).
    """
    variances = _check_variances(variances)
    w_o = np.asarray(w_o, dtype=float)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n = variances.shape[0]
    m = w_o.shape[0]
    with np.errstate(over="ignore"):
        signal_power = variances * float(w_o @ w_o)
    if not np.isfinite(signal_power).all():
        raise ConfigError("regressor_variances: the response power variances * ||w_o||^2 is beyond the float range")

    u, d = (np.empty((horizon, n, m)), np.empty((horizon, n))) if out is None else out
    rng = np.random.default_rng(seed)
    # scaled in place, each round's N * M draws by one contiguous row of scales
    draws = np.reshape(u, (horizon, n * m), copy=False)
    rng.standard_normal(out=draws)
    draws *= np.repeat(np.sqrt(variances), m)
    np.matmul(u, w_o, out=d)
    return _measured(rng, u.view(), d, signal_power, snr_db, noise_variance, noise_out)


def delay_line_source(
    samples: np.ndarray,
    variances: np.ndarray,
    w_o: np.ndarray,
    seed: int,
    snr_db: float = 0.0,
    noise_variance: float | np.ndarray | None = None,
    scale_exponent: float = 2.0,
    out: tuple[np.ndarray | None, np.ndarray] | None = None,
    noise_out: np.ndarray | None = None,
) -> FrameStream:
    """Tapped-delay-line stream over a shared scalar sample sequence.

    Node k's regressor at instant i is [s(i), s(i-1), ..., s(i-M+1)] scaled
    by sqrt(variances[k]) ** scale_exponent; pre-history samples are zero.
    The default exponent 2 multiplies the shared input by the per-node
    variance itself. Noise variance is calibrated per node from the
    empirical power of the noiseless response u . w_o over the whole
    sequence (see :func:`_measured` for silent inputs), or fixed by
    ``noise_variance``. When that power is beyond the float range, samples
    whose own mean square already is raise DataFileError; otherwise
    ConfigError names ``scale_exponent`` if the default exponent would keep
    the power a float, and ``regressor_variances`` if not. One stream
    instant per input sample.

    Layout: the stream holds one (N, T + M - 1) table whose row k is the
    time-reversed samples times node k's scale, followed by M - 1 zeros.
    ``u`` is a read-only (T, N, M) view of it: u[i, k] is M consecutive
    entries of row k, unit stride over the taps, so each round's (N, M)
    slice is a strided matrix that BLAS reads directly. The values are the
    products a full table would hold; no (T, N, M) array is built. The
    regressors depend on the samples and the variances only, not on the
    seed, so every seed's stream over one input has the same ``u``.

    ``out``, when given, is the caller's pair of tables as for
    :func:`gaussian_source`; only its float64 (T, N) measurement table is
    written, and may be paired with None. That table's rows are
    C-contiguous, but it may be time-reversed, a view with a negative row
    stride, as the denoise run stores it; the values are the same. The
    stream's ``d`` is then a read-only view of it, valid until the caller
    reuses the table. ``noise_out``, when given, is the caller's
    C-contiguous float64 (T, N) noise table, which the noise is drawn into
    (see :func:`_measured`); the squares of the noiseless response are
    written there first, for its power, so no (T, N) temporary is built
    beside it.
    """
    variances = _check_variances(variances)
    w_o = np.asarray(w_o, dtype=float)
    samples = np.asarray(samples, dtype=float)
    m = w_o.shape[0]
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("sample sequence must be a nonempty 1-D array")
    if samples.size < m:
        raise ValueError(f"sample sequence shorter than the filter ({samples.size} < {m})")

    # u[i, k] = table[k, T-1-i : T-1-i+M]
    reversed_padded = np.concatenate([samples[::-1], np.zeros(m - 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.sqrt(variances) ** scale_exponent
        table = scale[:, None] * reversed_padded
        u = np.lib.stride_tricks.sliding_window_view(table, m, axis=1).swapaxes(0, 1)[::-1]
        clean = np.matmul(u, w_o, out=None if out is None else out[1])
        signal_power = np.multiply(clean, clean, out=noise_out).mean(axis=0)
    if not np.isfinite(signal_power).all():
        with np.errstate(over="ignore"):
            own_power = (samples * samples).mean()
        if not np.isfinite(own_power):
            raise DataFileError("the samples' mean square is beyond the float range")
        # the default exponent 2 scales by the variances themselves: the
        # exponent is at fault only when that keeps the power a float
        with np.errstate(over="ignore", invalid="ignore"):
            at_default = variances[:, None] * (np.lib.stride_tricks.sliding_window_view(reversed_padded, m) @ w_o)
            default_power = (at_default * at_default).mean(axis=1)
        if np.isfinite(default_power).all():
            raise ConfigError(
                f"scale_exponent: {scale_exponent} takes the samples' response power beyond the float range"
            )
        raise ConfigError("regressor_variances: the samples' response power is beyond the float range")
    return _measured(np.random.default_rng(seed), u, clean, signal_power, snr_db, noise_variance, noise_out)


def _load_wav(path: str | os.PathLike) -> tuple[np.ndarray, int]:
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise DataFileError(f"{path}: multi-channel WAV is not supported")
            if wf.getsampwidth() != 2:
                raise DataFileError(f"{path}: only 16-bit PCM WAV is supported")
            rate = wf.getframerate()
            if rate < 1:
                raise DataFileError(f"{path}: WAV sample rate must be positive, got {rate}")
            raw = wf.readframes(wf.getnframes())
    except wave.Error as exc:
        raise DataFileError(f"{path}: malformed WAV file ({exc})") from exc
    except EOFError as exc:
        raise DataFileError(f"{path}: malformed WAV file (ends inside its header)") from exc
    if len(raw) % 2:
        raise DataFileError(f"{path}: malformed WAV file (ends inside a sample)")
    return np.frombuffer(raw, dtype="<i2").astype(float) / _PCM_SCALE, rate


def _load_text(path: str | os.PathLike) -> tuple[np.ndarray, None]:
    values: list[float] = []
    # an undecodable byte becomes U+FFFD, which no number parses: its line is reported
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                value = float(stripped)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataFileError(f"{path}:{lineno}: not a decimal sample: {stripped!r}")
            values.append(value)
    return np.array(values, dtype=float), None


def load_samples(path: str | os.PathLike) -> tuple[np.ndarray, int | None]:
    """Load a mono sample sequence from a 16-bit PCM WAV or a text file, as
    the pair (samples, sample_rate).

    WAV samples are normalized by 32768 into [-1, 1). Text files hold one
    finite decimal sample per line; lines starting with "#" are ignored.
    ``sample_rate`` is the WAV's rate, kept for output purposes only, and
    None for a text file.
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
    if len(head) >= 12 and head[:4] == b"RIFF" and head[8:12] == b"WAVE":
        return _load_wav(path)
    return _load_text(path)


def wav_bytes(data: np.ndarray, sample_rate: int) -> bytes:
    """Encode a mono 16-bit PCM WAV, clipping samples into [-1, 1).

    A diverged signal encodes without a warning: NaN as 0, and +-inf as the
    clip limits. Clipping to [-1, 1] before scaling is exact, so finite
    samples encode as if scaled first."""
    clipped = np.clip(np.nan_to_num(np.asarray(data, dtype=float)), -1.0, 1.0)
    pcm = np.clip(np.round(clipped * _PCM_SCALE), -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(sample_rate))
        wf.writeframes(pcm.tobytes())
    return buf.getvalue()


def synthetic_speech(length: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Seeded nonstationary test signal: amplitude-modulated tone bursts
    over a quiet AR(1) background.

    Stands in for recorded speech at desk scale: alternating voiced bursts
    (raised-cosine enveloped sinusoids of random frequency, amplitude and
    phase) separated by low-level correlated noise. Peak amplitude stays
    near 1, matching the normalization of loaded WAV input.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    s = np.zeros(length)

    eps = rng.standard_normal(length) * 0.05
    ar = np.zeros(length)
    for i in range(1, length):
        ar[i] = 0.9 * ar[i - 1] + eps[i]
    s += ar

    i = 0
    while i < length:
        i += int(rng.integers(40, 120))
        burst = int(rng.integers(120, 300))
        if i + 8 >= length:
            break
        burst = min(burst, length - i)
        freq = rng.uniform(0.02, 0.15)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.5, 1.0)
        t = np.arange(burst)
        envelope = np.sin(np.pi * t / burst) ** 2
        s[i : i + burst] += amp * envelope * np.sin(2.0 * np.pi * freq * t + phase)
        i += burst
    return s
