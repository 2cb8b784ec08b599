"""Diffusion LMS and leaky diffusion LMS simulation over sensor networks.

A library plus CLI for distributed parameter estimation experiments:
network topologies and combination weights, white-Gaussian and
tapped-delay-line measurement streams, the four diffusion algorithms
(adapt-then-combine / combine-then-adapt, plain and leaky), network-MSD
learning curves from seeded ensembles, and speech-style denoising output.
"""

__version__ = "0.1.0"

from diffusion_lms.analysis import (
    MsdTrace,
    detect_divergence,
    leaky_fixed_point,
    linear_deviation,
    steady_state_msd,
    step_size_upper_bound,
)
from diffusion_lms.experiment import (
    ExperimentConfig,
    denoise_speech,
    run_ensemble,
    sweep_leakage,
    sweep_step_size,
)
from diffusion_lms.filters import run_filter
from diffusion_lms.network import (
    CombinationWeights,
    Topology,
    build_random_geometric,
    build_ring_lattice,
    load_edge_list,
    non_cooperative_weights,
    uniform_weights,
)
from diffusion_lms.signals import (
    FrameStream,
    default_lowpass_system,
    delay_line_source,
    gaussian_source,
    load_samples,
    synthetic_speech,
)

__all__ = [
    "CombinationWeights",
    "ExperimentConfig",
    "FrameStream",
    "MsdTrace",
    "Topology",
    "build_random_geometric",
    "build_ring_lattice",
    "default_lowpass_system",
    "delay_line_source",
    "denoise_speech",
    "detect_divergence",
    "gaussian_source",
    "leaky_fixed_point",
    "linear_deviation",
    "load_edge_list",
    "load_samples",
    "non_cooperative_weights",
    "run_ensemble",
    "run_filter",
    "steady_state_msd",
    "step_size_upper_bound",
    "sweep_leakage",
    "sweep_step_size",
    "synthetic_speech",
    "uniform_weights",
]
