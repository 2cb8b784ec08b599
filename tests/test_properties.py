"""Property tests: the fast paths against literal per-entry, per-node and
per-round oracles on randomly drawn inputs.

Hypothesis runs derandomized and without an example database, so every run
of the suite draws the same examples.
"""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edge_lists import write_edge_list
from reference_impl import assert_same_results, atc_dlms_step, cta_dlms_step, ensemble_reference

from diffusion_lms import experiment
from diffusion_lms.analysis import DIVERGENCE_THRESHOLD, detect_divergence, linear_deviation
from diffusion_lms.config import ConfigError, format_config, parse_config, parse_config_text
from diffusion_lms.experiment import ALGORITHM_LABELS, SOURCE_KINDS, WEIGHT_RULES, ExperimentConfig, run_ensemble
from diffusion_lms.filters import run_filter
from diffusion_lms.network import (
    CombinationWeights,
    build_random_geometric,
    build_ring_lattice,
    load_edge_list,
    uniform_weights,
)
from diffusion_lms.signals import delay_line_source

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
CRITERION_1_TOL = 1e-15  # max entry error of one round against the reference steps

batch_shapes = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)


def divergence_oracle(arr, threshold):
    """First (iteration, node) with an entry outside [-threshold, threshold]
    (or NaN), per batch element, and the first such iteration overall, found
    one entry at a time."""
    batch = arr.shape[1:-2]
    first_iterations = np.full(batch, -1)
    nodes = np.full(batch, -1)
    first = None
    for t in range(arr.shape[0]):
        for b in np.ndindex(*batch):
            for k in range(arr.shape[-2]):
                if any(not abs(float(x)) <= threshold for x in arr[(t,) + b + (k,)]):
                    if first_iterations[b] < 0:
                        first_iterations[b], nodes[b] = t, k
                    if first is None:
                        first = t
                    break
    return first, first_iterations, nodes


def strided_view(stack):
    """``stack`` (T, ..., N, M) copied into one pair slot, rows 1:, of a
    NaN-filled (T + 1, ..., pairs, N, M) buffer, and returned as that
    non-contiguous view: the form in which the ensemble reads its labels."""
    buffer = np.full((stack.shape[0] + 1,) + stack.shape[1:-2] + (2,) + stack.shape[-2:], np.nan)
    view = buffer[1:, ..., 1, :, :]
    view[...] = stack
    return view


@PROPERTY
@given(
    steps=st.integers(1, 5),
    batch=batch_shapes,
    n=st.integers(1, 5),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    plants=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.sampled_from(["+edge", "-edge", "+above", "-above", "+inf", "-inf", "nan"]),
        ),
        max_size=3,
    ),
)
def test_detect_divergence_matches_per_entry_oracle(steps, batch, n, m, seed, plants):
    threshold = DIVERGENCE_THRESHOLD
    rng = np.random.default_rng(seed)
    arr = rng.uniform(-threshold, threshold, (steps,) + batch + (n, m))
    above = np.nextafter(threshold, np.inf)
    values = {
        "+edge": threshold,
        "-edge": -threshold,
        "+above": above,
        "-above": -above,
        "+inf": np.inf,
        "-inf": -np.inf,
        "nan": np.nan,
    }
    flat = arr.reshape(-1)
    for index, kind in plants:
        flat[index % flat.size] = values[kind]

    first, first_iterations, nodes = divergence_oracle(arr, threshold)
    report = detect_divergence(arr)
    assert report.divergent == (first is not None)
    assert report.first_iteration == first
    # an unbatched stack reports through 0-d arrays
    assert report.first_iterations.shape == report.nodes.shape == batch
    assert np.array_equal(report.first_iterations, first_iterations)
    assert np.array_equal(report.nodes, nodes)
    strided = detect_divergence(strided_view(arr))
    assert (strided.divergent, strided.first_iteration) == (report.divergent, report.first_iteration)
    assert np.array_equal(strided.first_iterations, report.first_iterations)
    assert np.array_equal(strided.nodes, report.nodes)


@PROPERTY
@given(
    steps=st.integers(1, 3),
    batch=batch_shapes,
    n=st.integers(1, 4),
    m=st.integers(1, 20),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_deviation_matches_per_node_loop(steps, batch, n, m, scale, seed):
    rng = np.random.default_rng(seed)
    snapshots = scale * rng.standard_normal((steps,) + batch + (n, m))
    w_o = rng.standard_normal(m)
    network = linear_deviation(snapshots, w_o)

    want = np.empty(snapshots.shape[:-1])
    for index in np.ndindex(*want.shape):
        total = 0.0
        for j in range(m):
            dev = float(snapshots[index + (j,)]) - float(w_o[j])
            total += dev * dev
        want[index] = total
    assert np.array_equal(network, want.mean(axis=-1))
    assert np.array_equal(linear_deviation(strided_view(snapshots), w_o), network)

    for b in np.ndindex(*batch):
        net_b = linear_deviation(snapshots[(slice(None),) + b], w_o)
        assert np.array_equal(net_b, network[(slice(None),) + b])


@st.composite
def delay_line_inputs(draw):
    samples = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    m = draw(st.integers(1, len(samples)))
    variances = draw(st.lists(st.floats(1e-3, 4.0), min_size=1, max_size=6))
    w_o = draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
    exponent = draw(st.sampled_from([1.0, 2.0]))
    return np.array(samples), np.array(variances), np.array(w_o), exponent


@PROPERTY
@given(inputs=delay_line_inputs(), seed=st.integers(0, 2**32 - 1))
def test_delay_line_regressors_match_per_entry_loop(inputs, seed):
    samples, variances, w_o, exponent = inputs
    stream = delay_line_source(samples, variances, w_o, seed=seed, scale_exponent=exponent)

    horizon, n, m = samples.size, variances.size, w_o.size
    want = np.empty((horizon, n, m))
    for i in range(horizon):
        for k in range(n):
            scale = math.sqrt(float(variances[k])) ** exponent
            for j in range(m):
                want[i, k, j] = float(samples[i - j]) * scale if i >= j else 0.0
    assert stream.u.shape == want.shape
    assert np.ascontiguousarray(stream.u).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        stream.u[0, 0, 0] = 1.0
    assert (stream.u @ w_o + stream.noise).tobytes() == stream.d.tobytes()


@st.composite
def networks(draw):
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["ring", "geometric", "edge_list"]))
    if kind == "ring":
        topology = build_ring_lattice(n, draw(st.integers(0, (n - 1) // 2)))
    elif kind == "geometric":
        topology = build_random_geometric(n, draw(st.floats(0.05, 0.8)), draw(st.integers(0, 1000)))
    else:
        pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.txt"
            path.write_text("\n".join([str(n)] + [f"{k + 1} {l + 1}" for k, l in edges]) + "\n")
            topology = load_edge_list(path, n)
            write_edge_list(topology, path)
            assert np.array_equal(load_edge_list(path, n).adjacency, topology.adjacency)
    weights = uniform_weights(topology)
    if draw(st.booleans()):
        # data shared differently from estimates: c keeps only the own data
        weights = CombinationWeights(a=weights.a, c=np.eye(n))
    return topology, weights


@PROPERTY
@given(
    network=networks(),
    m=st.integers(1, 8),
    trials=st.integers(1, 2),
    steps=st.lists(st.tuples(st.floats(0.01, 0.3), st.sampled_from([0.0, 0.002, 0.1, 1.5])), min_size=1, max_size=2),
    rounds=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_run_filter_matches_reference_steps(network, m, trials, steps, rounds, seed):
    # every round of every (trial, pair) against one reference step taken
    # from the kernel's own previous tables, at criterion 1's tolerance
    topology, weights = network
    n = topology.node_count
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((rounds, trials, 1, n, m))
    d = rng.standard_normal((rounds, trials, 1, n))
    mu = np.tile(np.array([[[s[0]]] for s in steps]), (trials, 1, 1, 1))
    gamma = np.array([[[s[1]]] for s in steps])
    out = np.zeros((rounds + 1, trials, len(steps), n, m))
    out[0] = rng.standard_normal(out.shape[1:])
    phi_out = np.zeros_like(out)
    run_filter(weights, mu, gamma, u, d, out=out, phi_out=phi_out)

    a, c = weights.a, weights.c
    worst = 0.0
    for i in range(1, rounds + 1):
        for j in range(trials):
            for p, (step, leak) in enumerate(steps):
                u_i, d_i = u[i - 1, j, 0], d[i - 1, j, 0]
                # ATC from the previous combined table
                ref_w, ref_phi = atc_dlms_step(out[i - 1, j, p], u_i, d_i, step, a, c, gamma=leak)
                worst = max(worst, np.abs(out[i, j, p] - ref_w).max(), np.abs(phi_out[i, j, p] - ref_phi).max())
                if i >= 2:
                    # CTA from the previous intermediate, which is its estimate
                    ref_w, ref_phi = cta_dlms_step(phi_out[i - 1, j, p], u_i, d_i, step, a, c, gamma=leak)
                    worst = max(
                        worst, np.abs(phi_out[i, j, p] - ref_w).max(), np.abs(out[i - 1, j, p] - ref_phi).max()
                    )
    assert worst <= CRITERION_1_TOL


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# any text: configs() discards the paths ExperimentConfig rejects
paths = st.text()
PATH_KEYS = ("edge_list_path", "sample_path")
seeds = st.integers(0, 2**70)


@st.composite
def configs(draw):
    """Valid resolved configs: every constraint ExperimentConfig enforces holds."""
    nodes = draw(st.integers(1, 40))
    topology = draw(st.sampled_from(["ring_lattice", "random_geometric", "edge_list"]))
    half_width = draw(st.integers(0, (nodes - 1) // 2 if topology == "ring_lattice" else 10))
    taps = draw(st.integers(1, 16))
    # entries within 2**500, so that the squared norm of up to 16 is a float
    coefficient = st.floats(-(2.0**500), 2.0**500)
    coefficients = draw(st.none() | st.lists(coefficient, min_size=taps, max_size=taps).map(tuple))
    source = draw(st.sampled_from(SOURCE_KINDS))
    sample_path = draw(st.just("synthetic") | paths)
    # a synthetic delay-line signal of horizon samples must fill the taps
    horizon = draw(st.integers(taps if source == "delay_line" and sample_path == "synthetic" else 1, 10**6))
    # the window is checked against the horizon unless a sample file sets the length
    window_cap = horizon if source == "white_gaussian" or sample_path == "synthetic" else 10**6
    labels = draw(st.permutations(ALGORITHM_LABELS))
    kwargs = dict(
        nodes=nodes,
        topology=topology,
        radius=draw(positive),
        half_width=half_width,
        edge_list_path=draw(paths) if topology == "edge_list" else draw(st.none() | paths),
        topology_seed=draw(seeds),
        weights=draw(st.sampled_from(WEIGHT_RULES)),
        taps=taps,
        coefficients=coefficients,
        # the noise power ratio 10**(snr_db/10) must be a finite nonzero float
        snr_db=draw(st.floats(-3236.0, 3082.5)),
        noise_variance=draw(st.none() | st.floats(min_value=0.0, allow_infinity=False)),
        regressor_variances=draw(st.none() | st.lists(positive, min_size=nodes, max_size=nodes).map(tuple)),
        source=source,
        sample_path=sample_path,
        scale_exponent=draw(finite),
        algorithms=tuple(labels[: draw(st.integers(1, len(labels)))]),
        mu=draw(st.floats(min_value=0.0, allow_infinity=False)),
        gamma=draw(st.floats(min_value=0.0, allow_infinity=False)),
        trials=draw(st.integers(1, 10**4)),
        horizon=horizon,
        base_seed=draw(seeds),
        steady_window=draw(st.integers(1, window_cap)),
    )
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError as exc:
        # a drawn path that would not read back as written
        assume(not str(exc).startswith(PATH_KEYS))
        raise


@PROPERTY
@given(cfg=configs())
def test_config_text_round_trips_exactly(cfg):
    text = format_config(cfg)
    assert parse_config_text(text) == cfg
    assert format_config(parse_config_text(text)) == text
    # a file is read with universal newlines, which a string is not
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        assert parse_config(path) == cfg


@st.composite
def ensemble_configs(draw):
    """Small runnable configs over both generated topologies, both weight
    rules, both sources and any label subset in any order, from stable to
    diverging step sizes and leaks."""
    nodes = draw(st.integers(2, 8))
    labels = draw(st.permutations(ALGORITHM_LABELS))
    return ExperimentConfig(
        nodes=nodes,
        topology=draw(st.sampled_from(["ring_lattice", "random_geometric"])),
        radius=draw(st.floats(0.1, 1.0)),
        half_width=draw(st.integers(0, (nodes - 1) // 2)),
        topology_seed=draw(st.integers(0, 1000)),
        weights=draw(st.sampled_from(WEIGHT_RULES)),
        taps=draw(st.integers(1, 4)),
        source=draw(st.sampled_from(SOURCE_KINDS)),
        algorithms=tuple(labels[: draw(st.integers(1, len(labels)))]),
        mu=draw(st.floats(0.01, 6.0)),
        gamma=draw(st.floats(0.0, 30.0)),
        trials=draw(st.integers(1, 6)),
        horizon=draw(st.integers(10, 160)),
        base_seed=draw(st.integers(0, 10**6)),
        steady_window=1,
    )


@settings(PROPERTY, max_examples=100)
@given(cfg=ensemble_configs(), chunk_bytes=st.integers(1, 200_000), block_rounds=st.integers(1, 60))
def test_ensemble_matches_per_trial_oracle(cfg, chunk_bytes, block_rounds):
    # chunks of one trial to all of them, blocks of one round to more than
    # the horizon; a label set that fills no box is read one view per label
    with (
        mock.patch.object(experiment, "CHUNK_BYTES", chunk_bytes),
        mock.patch.object(experiment, "BLOCK_ROUNDS", block_rounds),
    ):
        got = run_ensemble(cfg)
    assert_same_results(got, ensemble_reference(cfg))
