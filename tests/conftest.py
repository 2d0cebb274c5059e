import numpy as np
import pytest

from tumaloc.config import SystemConfig, build_topology, desk_preset


@pytest.fixture(scope="session")
def desk_cfg():
    return desk_preset()


@pytest.fixture(scope="session")
def desk_topology(desk_cfg):
    return build_topology(desk_cfg)


@pytest.fixture(scope="session")
def tiny_cfg():
    """Smallest config that exercises every code path in seconds."""
    return desk_preset(
        M=8, K=12, T_targets=4, N_MC=40, K_max=3, Nc=80, T_AMP=3, A=1,
        ap_positions=((0.0, 0.0), (200.0, 0.0), (0.0, 200.0), (200.0, 200.0)),
    )


@pytest.fixture(scope="session")
def desk_prior_cache(tmp_path_factory):
    """Prior cache directory shared by the tests that run desk sweeps."""
    return str(tmp_path_factory.mktemp("prior_cache"))


@pytest.fixture()
def rng():
    # fresh per test: results do not depend on test execution order
    return np.random.default_rng(20240901)
