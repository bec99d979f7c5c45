"""Shared fixtures: mechanisms are session-scoped (construction is cheap
but reused hundreds of times); NumPy's RNG is seeded per-test.

Every test runs with ``np.random`` seeded from a CRC32 of its node id,
so stochastic tests are reproducible in isolation: rerunning a single
failing test re-derives the same seed, no ``-p no:randomly``-style
machinery needed. The seed is recorded as a ``numpy-seed`` user
property (visible in junit XML) and echoed in the failure report.
Tests that want a modern generator use the ``rng`` fixture, which is
seeded the same way.
"""

import zlib

import numpy as np
import pytest

from repro.chemistry import h2_li2004, ch4_onestep, ch4_twostep
from repro.chemistry.mechanisms import air
from repro.core import Grid, State
from repro.util.constants import P_ATM


def _node_seed(request) -> int:
    return zlib.crc32(request.node.nodeid.encode())


@pytest.fixture(autouse=True)
def _seed_numpy_rng(request):
    """Seed the legacy global NumPy RNG deterministically per-test."""
    seed = _node_seed(request)
    np.random.seed(seed)
    request.node.user_properties.append(("numpy-seed", seed))
    yield


@pytest.fixture
def rng(request):
    """A per-test `numpy.random.Generator` with a reported seed."""
    return np.random.default_rng(_node_seed(request))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and rep.failed:
        for name, value in item.user_properties:
            if name == "numpy-seed":
                rep.sections.append((
                    "numpy seed",
                    f"np.random seeded with {value} "
                    "(crc32 of the test node id — stable across runs)",
                ))


@pytest.fixture(scope="session")
def h2_mech():
    return h2_li2004()


@pytest.fixture(scope="session")
def air_mech():
    return air()


@pytest.fixture(scope="session")
def ch4_mech():
    return ch4_twostep()


@pytest.fixture(scope="session")
def ch4_1s_mech():
    return ch4_onestep()


@pytest.fixture(scope="session")
def h2_air_stoich(h2_mech):
    """Stoichiometric H2/air mass fractions."""
    X = np.zeros(h2_mech.n_species)
    X[h2_mech.index("H2")] = 0.296
    X[h2_mech.index("O2")] = 0.148
    X[h2_mech.index("N2")] = 0.556
    return h2_mech.mole_to_mass(X)


@pytest.fixture(scope="session")
def air_y(air_mech):
    return air_mech.mass_fractions_from({"O2": 0.233, "N2": 0.767})


def hot_spot_box(mech, Y):
    """24x24 periodic 2 mm box of composition ``Y`` at 900 K with a
    +500 K Gaussian hot spot (sigma 0.3 mm), moving at (1.0, 0.5) m/s."""
    grid = Grid((24, 24), (2e-3, 2e-3), periodic=(True, True))
    xx, yy = grid.meshgrid()
    T = 900.0 + 500.0 * np.exp(
        -((xx - 1e-3) ** 2 + (yy - 1e-3) ** 2) / (2 * (3e-4) ** 2)
    )
    Yf = np.asarray(Y)[:, None, None] * np.ones((1,) + grid.shape)
    rho = mech.density(P_ATM, T, Yf)
    return State.from_primitive(mech, grid, rho, [1.0, 0.5], T, Yf)


@pytest.fixture
def air_box(h2_mech):
    """The hot-spot box in air on the H2 mechanism: every species other
    than O2/N2 is exactly 0, so a low-storage RK stage (which conserves
    every sum on a periodic box) leaves the corner cell, the all-zero
    species and every variable's sum unchanged."""
    from repro.scenarios import fuel_and_coflow

    return hot_spot_box(h2_mech, fuel_and_coflow(h2_mech)[1])
