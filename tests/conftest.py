import numpy as np
import pytest

from xyness import ModelParams
# one source for the acceptance data; the test modules import it from here
from xyness.selftest import ACCEPTANCE_SETS, CRITICAL_SET, midpoint_grid  # noqa: F401


def random_points(count, seed):
    """``count`` seeded generic points: |gamma| < 0.95, |lam| < 2, beta_r/beta_l in [1, 4]."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        beta_l = float(rng.uniform(0.1, 5.0))
        points.append(
            ModelParams(
                float(rng.uniform(-0.95, 0.95)),
                float(rng.uniform(-2.0, 2.0)),
                beta_l,
                beta_l * float(rng.uniform(1.0, 4.0)),
            )
        )
    return points


@pytest.fixture(scope="session")
def base_params():
    """A generic non-critical, out-of-equilibrium parameter set."""
    return ModelParams(0.5, 0.3, 1.0, 2.0)


@pytest.fixture(scope="session")
def base_seq(base_params):
    from xyness import build_block_sequence

    return build_block_sequence(33, base_params, tol=1e-12)
