"""Host-speed calibration for timings on a shared machine.

On a shared host the speed of a CPU-bound Python process changes by 20-60%
from one second to the next, in a way common to work of the same kind. A
fixed kernel, timed between executions and every ``INTERVAL_S`` during
them (from a ``SIGALRM`` handler), measures that speed. An execution's
time on the program clock (wall time less the time spent in the kernel),
scaled by ``REFERENCE_S / mean kernel time``, gives seconds at the
reference speed.

The kernel is a few diffusion-LMS-shaped rounds (N x M regressors, N x N
combination products) on fixed random data, at the workload's network
shape, written here rather than taken from the program: a change to the
program cannot move it. Matching the shape matters. A kernel of 20 x 5
products tracked the 20-node workloads to within 3% but not the 200-node,
16-tap one, whose dense products respond to the host differently.

Each sample runs the kernel once untimed and times a second run, so the
timed run finds its own data in cache whatever the program left there.
Right after a 64 MB sweep an unwarmed run is 15-23% slower; a warmed one
is not. Without the warm-up, a change that touches more memory would slow
the samples taken during it and so scale its own cost down.
"""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter

import numpy as np

# per network shape (N, M): rounds per kernel run (0.3-0.6 ms), and the
# median kernel time on the reference host: a shared 2-core x86-64 virtual
# machine (Xeon), Python 3.11, numpy 2.4 with one OpenBLAS thread
ROUNDS = {(20, 5): 40, (40, 16): 30, (200, 16): 2}
REFERENCE_S = {(20, 5): 0.00033, (40, 16): 0.00041, (200, 16): 0.00057}
INTERVAL_S = 0.05
REPEATS = 9  # kernel runs per measurement between executions


class Kernel:
    """The calibration kernel for one network shape."""

    def __init__(self, shape: tuple[int, int]) -> None:
        n, m = shape
        rng = np.random.default_rng(0)
        a = rng.random((n, n))
        self.a = a / a.sum(axis=0)
        self.u = rng.standard_normal((n, m))
        self.d = rng.standard_normal(n)
        self.rounds = ROUNDS[shape]
        self.reference_s = REFERENCE_S[shape]

    def run(self) -> float:
        """Seconds for one run of the kernel."""
        start = perf_counter()
        w = np.zeros_like(self.u)
        for _ in range(self.rounds):
            e = self.d[:, None] - self.u @ w.T
            w = self.a.T @ (w + 0.01 * (self.u.T @ (self.a * e)).T)
        return perf_counter() - start

    def measure(self) -> float:
        """Median seconds over ``REPEATS`` runs after one warm-up run."""
        self.run()
        return median(self.run() for _ in range(REPEATS))

    def scale(self, kernel_times: list[float]) -> float:
        """The factor that turns seconds measured over an interval into
        seconds at the reference speed, given the kernel times measured over
        the same interval."""
        return self.reference_s / (sum(kernel_times) / len(kernel_times))


class Sampler:
    """Runs the kernel every ``INTERVAL_S`` of wall time while entered, and
    keeps a program clock that stops while the kernel runs."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.samples: list[float] = []  # timed (warm) kernel runs
        self.paused = 0.0  # seconds spent in the handler, warm-up included

    def clock(self) -> float:
        """Seconds of ``perf_counter`` less the time spent sampling."""
        return perf_counter() - self.paused

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.kernel.run()  # warm-up: brings the kernel's data into cache
        self.samples.append(self.kernel.run())
        self.paused += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
