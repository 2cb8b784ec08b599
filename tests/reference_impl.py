"""Reference implementations used as test oracles.

The step oracles follow the (leaky) diffusion LMS recursions literally:
explicit loops over nodes, neighbor sums accumulated in ascending node
order, no code shared with the production kernel. The ensemble
oracle is the one-(trial, label)-at-a-time loop that the batched ensemble
replaced: one kernel trajectory per (trial, label), then the analysis
calls. It maps a label to its ordering and leakage by its own rule,
``label_rule``, not by the library's label table, and writes out its own
divergence bound.
"""

from __future__ import annotations

import numpy as np

from kernel_rounds import trajectory

from diffusion_lms.analysis import MsdTrace, detect_divergence, divergence_bound, linear_deviation
from diffusion_lms.experiment import _delay_line_samples, build_setup, make_stream


def atc_dlms_step(w, u, d, mu, a, c, node_order=None, gamma=0.0):
    """One adapt-then-combine round, node by node.

    Adaptation: phi_k = leak * w_k + mu * sum_l c[l,k] * (d_l - u_l . w_k) * u_l,
    with leak = 1 - mu * gamma (1 for the plain recursion, gamma = 0).
    Combination: w_k = sum_l a[l,k] * phi_l.
    ``node_order`` permutes the outer loop only; the inner sums always run
    in ascending l.
    """
    n, m = w.shape
    order = list(range(n)) if node_order is None else list(node_order)
    phi = np.zeros_like(w)
    for k in order:
        acc = np.zeros(m)
        for l in range(n):
            if c[l, k] != 0.0:
                err = d[l] - u[l] @ w[k]
                acc = acc + c[l, k] * err * u[l]
        phi[k] = w[k] + mu * acc if gamma == 0.0 else (1.0 - mu * gamma) * w[k] + mu * acc
    w_new = np.zeros_like(w)
    for k in order:
        acc = np.zeros(m)
        for l in range(n):
            if a[l, k] != 0.0:
                acc = acc + a[l, k] * phi[l]
        w_new[k] = acc
    return w_new, phi


def cta_dlms_step(w, u, d, mu, a, c, node_order=None, gamma=0.0):
    """One combine-then-adapt round, node by node.

    Combination: phi_k = sum_l a[l,k] * w_l.
    Adaptation: w_k = leak * phi_k + mu * sum_l c[l,k] * (d_l - u_l . phi_k) * u_l,
    with leak = 1 - mu * gamma.
    """
    n, m = w.shape
    order = list(range(n)) if node_order is None else list(node_order)
    phi = np.zeros_like(w)
    for k in order:
        acc = np.zeros(m)
        for l in range(n):
            if a[l, k] != 0.0:
                acc = acc + a[l, k] * w[l]
        phi[k] = acc
    w_new = np.zeros_like(w)
    for k in order:
        acc = np.zeros(m)
        for l in range(n):
            if c[l, k] != 0.0:
                err = d[l] - u[l] @ phi[k]
                acc = acc + c[l, k] * err * u[l]
        w_new[k] = phi[k] + mu * acc if gamma == 0.0 else (1.0 - mu * gamma) * phi[k] + mu * acc
    return w_new, phi


def standalone_leaky_lms(u_seq, d_seq, mu, gamma):
    """Single-filter leaky LMS trajectory from zero init.

    Returns the (T + 1, M) stack of estimates, index 0 the initial zero
    vector.
    """
    steps, m = u_seq.shape
    w = np.zeros(m)
    out = [w.copy()]
    for i in range(steps):
        err = d_seq[i] - u_seq[i] @ w
        w = (1.0 - mu * gamma) * w + mu * err * u_seq[i]
        out.append(w.copy())
    return np.stack(out)


def label_rule(label, gamma):
    """An algorithm label's ordering and leakage, by the literal rule: the
    ordering is the label's prefix, and plain labels have gamma = 0."""
    return label[:3], (gamma if "leaky" in label else 0.0)


def ensemble_reference(cfg):
    """Ensemble learning curves computed one (trial, label) at a time.

    Every trial's stream feeds each label's own unbatched run; a divergent
    run is counted and skipped, and the others are summed in trial order in
    the linear domain. Returns the same mapping as ``run_ensemble``.
    """
    setup = build_setup(cfg)
    rules = {label: label_rule(label, cfg.gamma) for label in cfg.algorithms}
    acc_net = {label: None for label in cfg.algorithms}
    kept = {label: 0 for label in cfg.algorithms}
    first_failure = {}
    samples = _delay_line_samples(cfg)[0] if cfg.source == "delay_line" else None
    for t in range(cfg.trials):
        stream = make_stream(cfg, setup, cfg.base_seed + t, samples=samples)
        if t == 0:
            # the shared rule, on the first trial's data
            bound = divergence_bound(setup.w_o, stream.u, stream.noise_variance)
        for label in cfg.algorithms:
            ordering, gamma = rules[label]
            snapshots = trajectory(setup.weights, ordering, cfg.mu, gamma, stream)
            report = detect_divergence(snapshots[1:], bound)
            if report.divergent:
                first_failure.setdefault(label, (int(report.first_iterations), int(report.nodes)))
                continue
            net = linear_deviation(snapshots[1:], setup.w_o)
            acc_net[label] = net if acc_net[label] is None else acc_net[label] + net
            kept[label] += 1

    results = {}
    for label in cfg.algorithms:
        curve = None
        if kept[label]:
            with np.errstate(divide="ignore"):
                curve = 10.0 * np.log10(acc_net[label] / kept[label])
        results[label] = MsdTrace(
            per_iteration_db=curve,
            trials=cfg.trials,
            divergent_trials=cfg.trials - kept[label],
            first_divergence=first_failure.get(label),
        )
    return results


def assert_same_results(got, want):
    """``run_ensemble`` results ``got`` equal ``want`` field by field, curves
    bit for bit, labels in the same order."""
    assert list(got) == list(want)
    for label, ref in want.items():
        res = got[label]
        assert (res.trials, res.divergent_trials, res.first_divergence) == (
            ref.trials,
            ref.divergent_trials,
            ref.first_divergence,
        ), label
        if ref.per_iteration_db is None:
            assert res.per_iteration_db is None, label
        else:
            assert np.array_equal(res.per_iteration_db, ref.per_iteration_db), label
