import numpy as np
import pytest

import nfvplace as nv
from helpers import reduced_setup, tiny_two_inps, two_resource_setup


@pytest.fixture(scope="session")
def bundled_cfg():
    return nv.seven_providers()


@pytest.fixture(scope="session")
def bundled(bundled_cfg):
    return bundled_cfg.infrastructure, bundled_cfg.service_types


@pytest.fixture(scope="session")
def tiny2():
    return tiny_two_inps()


@pytest.fixture(scope="session")
def reduced():
    return reduced_setup()


@pytest.fixture(scope="session")
def two_resource():
    return two_resource_setup()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
