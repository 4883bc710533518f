import pytest

from xyness import ModelParams
# one source for the acceptance data; the test modules import it from here
from xyness.selftest import ACCEPTANCE_SETS, CRITICAL_SET, midpoint_grid  # noqa: F401


@pytest.fixture(scope="session")
def base_params():
    """A generic non-critical, out-of-equilibrium parameter set."""
    return ModelParams(0.5, 0.3, 1.0, 2.0)


@pytest.fixture(scope="session")
def base_seq(base_params):
    from xyness import build_block_sequence

    return build_block_sequence(33, base_params, tol=1e-12)
