import math
import warnings

import numpy as np
import pytest

from parobs import profiles as pf
from parobs.analysis import example31_design, example32_design
from parobs.observer_design import OutputChannel, make_design
from parobs.sturm_liouville import SLProblem, analytic_eigensystem


@pytest.fixture(scope="session")
def nn_problem():
    return SLProblem(p=1.0, q=0.0, a0=0.0, b0=1.0, a1=0.0, b1=1.0)


@pytest.fixture(scope="session")
def nn_basis(nn_problem):
    return analytic_eigensystem(nn_problem, 40, 1001)


@pytest.fixture(scope="session")
def ex31_design():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # design synthesis must be warning-free
        return example31_design(p=1.0)


@pytest.fixture(scope="session")
def ex32_design():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return example32_design(p=1.0, q=0.0)


@pytest.fixture(scope="session")
def two_channel_design(nn_problem):
    """m = 2 on the Neumann plant: the example 3.1 channel and a weighted
    average, each kernel offset from its approximant by a small polynomial."""
    average = pf.cosine_series(0.5, [0.0, 0.1 * math.sqrt(2.0)])
    channels = [OutputChannel(kernel=pf.polynomial([0.0, 1.0, 0.05]), approximant=pf.constant(0.5)),
                OutputChannel(kernel=average + pf.polynomial([0.02, -0.04]), approximant=average)]
    return make_design(nn_problem, analytic_eigensystem(nn_problem, 60, 1001), channels,
                       np.array([[-0.6 * math.pi**2, -0.4 * math.pi**2]]), N=1, Q=2.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
