"""Privacy-preserving personalized pricing with nonparametric demand.

Simulation library for one parallel quadrisection price search over a
hypercube partition of the context space, privatized two ways: a
centrally-private policy backed by binary-counter (tree) aggregation of
rewards and counts, and a locally-private policy that perturbs each
customer's record before storage.
Includes demand environments, a regret harness, and a CLI that reproduces
the reference percentage-regret tables and scaling-law plots.
"""

from .cppq import CppqConfig, CppqPolicy
from .env import AdversarialEnv, DemandEnvironment, LinearDemandEnv
from .harness import (AggregateResult, PolicySpec, RunRecord, fit_loglog_slope,
                      make_env, percentage_regret, replicate, run_episode, run_one)
from .lppq import LppqConfig, LppqPolicy
from .partition import HypercubePartition, PriceGrid, build_partition, cube_index, phase_index
from .prng import RngStream, derive_stream, laplace_from_uniform
from .tree_agg import CapacityError, TreeAggregator

__version__ = "0.1.0"

__all__ = [
    "AdversarialEnv", "AggregateResult", "CapacityError", "CppqConfig", "CppqPolicy",
    "DemandEnvironment", "HypercubePartition", "LinearDemandEnv", "LppqConfig",
    "LppqPolicy", "PolicySpec", "PriceGrid", "RngStream", "RunRecord", "TreeAggregator",
    "build_partition", "cube_index",
    "derive_stream", "fit_loglog_slope", "laplace_from_uniform",
    "make_env", "percentage_regret", "phase_index", "replicate", "run_episode", "run_one",
]
