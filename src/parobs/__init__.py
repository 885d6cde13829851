"""Sampled-data observers for 1-D parabolic PDEs with non-local outputs.

The package synthesizes observer gains and small-gain certificates from
explicit spectral formulas, co-simulates plant and observer under uncertain
sampling, measurement noise and modeling error, and checks the certified
exponential-convergence and input-to-output stability bounds along
trajectories.
"""

from . import profiles
from .analysis import (
    check_ios_bound,
    divergence_verdict,
    fit_decay_rate,
    lyapunov_oracle,
    run_example_31,
    run_example_32,
)
from .errors import ParobsError
from .nonlinear import GainSaturatedTerm, LinearNonlocalTerm, ZeroTerm
from .observer_design import (
    ObserverDesign,
    OutputChannel,
    SmallGainReport,
    build_A,
    coupling_constant_K,
    injection_kernels,
    lyapunov_certificate,
    make_design,
    max_diameter,
    place_gain,
    select_Q,
    small_gain_predictor,
    small_gain_zoh,
)
from .schedule import SamplingSchedule, make_schedule
from .signals import Disturbances, NoiseSignal, SpaceTimeSignal, TimeSignal
from .simulator import Scenario, Trajectory, simulate
from .sturm_liouville import (
    GeneralSLProblem,
    SLProblem,
    SpectralBasis,
    analytic_eigensystem,
    check_h1,
    liouville_transform,
    numeric_eigensystem,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "profiles",
    "ParobsError",
    "SLProblem",
    "GeneralSLProblem",
    "SpectralBasis",
    "analytic_eigensystem",
    "numeric_eigensystem",
    "check_h1",
    "liouville_transform",
    "project",
    "OutputChannel",
    "ObserverDesign",
    "SmallGainReport",
    "build_A",
    "injection_kernels",
    "coupling_constant_K",
    "lyapunov_certificate",
    "place_gain",
    "make_design",
    "small_gain_predictor",
    "small_gain_zoh",
    "max_diameter",
    "select_Q",
    "SamplingSchedule",
    "make_schedule",
    "TimeSignal",
    "SpaceTimeSignal",
    "NoiseSignal",
    "Disturbances",
    "ZeroTerm",
    "LinearNonlocalTerm",
    "GainSaturatedTerm",
    "Scenario",
    "Trajectory",
    "simulate",
    "fit_decay_rate",
    "check_ios_bound",
    "lyapunov_oracle",
    "divergence_verdict",
    "run_example_31",
    "run_example_32",
    "__version__",
]
