"""Mutation sentinels: faults that a named test was seen to catch, kept so
that a later change cannot silently weaken that test.

Each row is (file, exact old text, new text, pytest selector). The old text
must occur exactly once in its file; a change that moves or rewrites it
updates the row. ``tools/mutants.py`` applies each row to a copy of the
tree and requires its selector to fail there. Pytest does not collect this
module.
"""

ANALYSIS = "src/diffusion_lms/analysis.py"
EXPERIMENT = "src/diffusion_lms/experiment.py"
FILTERS = "src/diffusion_lms/filters.py"

DENOISE_TABLES = "tests/test_experiment.py::TestDenoise::test_tables_keep_every_row_until_it_is_read"
STEADY_TAIL = "tests/test_experiment.py::TestBatchedEnsembleMatchesReference::test_steady_window_is_the_tail_of_the_whole_run"
SHORT_FILE = "tests/test_experiment.py::TestSweeps::test_sample_file_shorter_than_the_window_fails_before_any_stream"
STAGED_BITWISE = "tests/test_filters.py::TestSingleTrajectory::test_bitwise_the_batched_and_dense_rounds"
PER_LABEL_ORACLE = "tests/test_experiment.py::TestBatchedEnsembleMatchesReference::test_each_label_is_judged_on_its_own_estimates"
LEAKY_REFERENCE = "tests/test_filters.py::TestAgainstReference::test_leaky_reduction_matches_reference"
ROUND_MAJOR_SCAN = "tests/test_analysis.py::TestDetectDivergence::test_round_major_block_view_reads_like_each_element"

MUTANTS = [
    # the denoise scratch table: d one row closer to the kept rows, for either
    # step sign
    (
        EXPERIMENT,
        "        return head, tail, np.lib",
        "        return head, table[-(horizon + 1) * n : -n].reshape(horizon, n), np.lib",
        DENOISE_TABLES,
    ),
    (
        EXPERIMENT,
        "    return tail, head[::-1], np.lib",
        "    return tail, table[n : (horizon + 1) * n].reshape(horizon, n)[::-1], np.lib",
        DENOISE_TABLES,
    ),
    # the table one row of d short
    (EXPERIMENT, "np.empty(max(size, 2 * horizon * n))", "np.empty(max(size, 2 * horizon * n - n))", DENOISE_TABLES),
    # the larger of the two steps
    (EXPERIMENT, "    s = min(node + 1, n - node)", "    s = max(node + 1, n - node)", DENOISE_TABLES),
    # the step's sign flipped at the tie node N / 2
    (EXPERIMENT, "    if node < n - node:", "    if node <= n - node:", DENOISE_TABLES),
    # d not time-reversed for a negative step
    (EXPERIMENT, "    return tail, head[::-1], np.lib", "    return tail, head, np.lib", DENOISE_TABLES),
    # the noise aliased to d
    (EXPERIMENT, "        return head, tail, np.lib", "        return tail, tail, np.lib", DENOISE_TABLES),
    # the steady window's start off by one, either way
    (EXPERIMENT, "    skip = horizon - window\n", "    skip = horizon - window + 1\n", STEADY_TAIL),
    (EXPERIMENT, "    skip = horizon - window\n", "    skip = horizon - window - 1\n", STEADY_TAIL),
    # the first block of the window reduced untrimmed
    (EXPERIMENT, "linear_deviation(view[lo - start :], setup.w_o)", "linear_deviation(view, setup.w_o)", STEADY_TAIL),
    # no check of the window against the trace length
    (
        EXPERIMENT,
        "    if window > horizon:\n        raise ConfigError(",
        "    if False:\n        raise ConfigError(",
        SHORT_FILE,
    ),
    # staged regressor rows: every stretch reads the first stretch's rows
    (FILTERS, "np.copyto(u_rows, u[start:stop])", "np.copyto(u_rows, u[: stop - start])", STAGED_BITWISE),
    # c in place of c.T in the weighting of the errors
    (FILTERS, "np.ascontiguousarray(weights.c.T)", "np.ascontiguousarray(weights.c)", PER_LABEL_ORACLE),
    # the leak dropped
    (FILTERS, "np.broadcast_to(1.0 - mu * gamma, w.shape)", "np.broadcast_to(1.0, w.shape)", LEAKY_REFERENCE),
    # the divergence scan's fast path without its lower bound
    (ANALYSIS, "(-threshold <= arr.min() and arr.max() <= threshold)", "(arr.max() <= threshold)", ROUND_MAJOR_SCAN),
]
