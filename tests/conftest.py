import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from leon.core import BooleanDim, ContinuousDim, DesignSpace
from leon.tasks import make_dose_task, make_regimen_task

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def dose_task():
    return make_dose_task(0)


@pytest.fixture(scope="session")
def regimen_task():
    return make_regimen_task(0)


@pytest.fixture
def mixed_space():
    return DesignSpace((
        ContinuousDim("Dose", 0.0, 100.0),
        BooleanDim("Boost"),
        BooleanDim("Taper"),
    ))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
