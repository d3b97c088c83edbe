"""Exact posterior sampling for hidden Markov jump processes.

The sampler alternates two exact conditional draws: virtual candidate jump
times given the trajectory (a piecewise-homogeneous Poisson process), and a
fresh state skeleton on the merged time grid given the observations (forward
filtering-backward sampling). Companion modules provide independent exact
oracles at desk scale and empirical ergodicity diagnostics.
"""

from .errors import MJPError
from .ffbs import build_kernel
from .model import (
    Evidence,
    RateMatrix,
    SamplerConfig,
    Trajectory,
    UniformizedKernel,
    collapse_grid,
    trajectory_eval,
    validate_rate_matrix,
)
from .raoteh import initial_trajectory, rao_teh_step, run_chain
from .simulate import EmissionModel, generate_observations, gillespie_simulate, uniformized_simulate

__all__ = [
    "MJPError",
    "build_kernel",
    "Evidence",
    "RateMatrix",
    "SamplerConfig",
    "Trajectory",
    "UniformizedKernel",
    "collapse_grid",
    "trajectory_eval",
    "validate_rate_matrix",
    "initial_trajectory",
    "rao_teh_step",
    "run_chain",
    "EmissionModel",
    "generate_observations",
    "gillespie_simulate",
    "uniformized_simulate",
]

__version__ = "0.1.0"
