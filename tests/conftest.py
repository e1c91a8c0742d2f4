"""The session's pytest fixtures and hypothesis profile.

The fixture equations and seeded inputs are in fixtures.py, the references, replays and
check helpers in oracles.py: plain modules that the tests, scripts/ and CI all import.  The
five builders below are imported here too, for bench/test_bench.py, which reads them from
this module.
"""
import pytest
from hypothesis import settings

from ellgrid import solve

from fixtures import (  # noqa: F401  (read as conftest.<name> by bench/test_bench.py)
    aw_fixture,
    linear_fixture,
    log_linear_fixture,
    log_qlattice_fixture,
    qgeom_fixture,
)

settings.register_profile("ellgrid", deadline=None, derandomize=True)
settings.load_profile("ellgrid")


@pytest.fixture(scope="session")
def linear_solution():
    eq, select = linear_fixture()
    return eq, solve(eq, select, 10)


@pytest.fixture(scope="session")
def qgeom_solution():
    eq, select = qgeom_fixture()
    return eq, solve(eq, select, 10)


@pytest.fixture(scope="session")
def aw_solution():
    eq, select = aw_fixture()
    return eq, solve(eq, select, 10)


@pytest.fixture(scope="session")
def all_general_solutions(linear_solution, qgeom_solution, aw_solution):
    return {"linear": linear_solution, "qgeom": qgeom_solution,
            "askey-wilson": aw_solution}
