import numpy as np
import pytest
from hypothesis import settings

from ballistic import PhysicalParams, SlitSource

# Property tests draw the same examples on every run: the seed comes from a
# hash of each test, and no example database carries failures between runs.
settings.register_profile("fixed_seed", derandomize=True, database=None)
settings.load_profile("fixed_seed")


@pytest.fixture
def params():
    # natural units: hbar = m = 1 so D = 0.5
    return PhysicalParams()


@pytest.fixture
def unit_source():
    return SlitSource(center=0.0, sigma0=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
