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


def paper_coefficients(seq):
    """The paper's app and apm, read exactly from ``seq.blocks`` at the offsets of ``BlockSequence``."""
    return 1j * seq.blocks[:, 0, 0], -seq.blocks[:, 0, 1]


def mp_coefficient_sums(p, x_max, panel_width=0.2, dps=30):
    """app[-x_max .. x_max] and apm[-x_max .. x_max] as mpmath numbers at ``dps`` digits.

    Composite 48-point Gauss-Legendre on equal subpanels of each smooth piece
    between the zeros of kappa and of mu, all computed in mpmath; only the
    parameters come from the package.  sign(kappa) is constant on a piece and
    taken at its midpoint.  Negative frequencies are integrated like positive
    ones, so app[-x] = -app[x] is a result here, not an assumption.
    """
    mpmath = pytest.importorskip("mpmath")
    from mpmath.calculus.quadrature import GaussLegendre

    mp = mpmath.mp
    with mp.workdps(dps):
        gamma, lam = mp.mpf(p.gamma), mp.mpf(p.lam)
        beta, delta = mp.mpf(p.beta), mp.mpf(p.delta)
        cuts = [mp.zero, mp.pi, 2 * mp.pi]
        ratio = lam / (1 - gamma**2)
        if abs(ratio) <= 1:
            cuts += [mp.acos(ratio), 2 * mp.pi - mp.acos(ratio)]
        if gamma == 0 and abs(lam) <= 1:
            cuts += [mp.acos(lam), 2 * mp.pi - mp.acos(lam)]
        cuts = sorted(cuts)
        edges = [c for i, c in enumerate(cuts) if i == 0 or c - cuts[i - 1] > mp.mpf(10) ** (5 - dps)]
        rule = GaussLegendre(mp).calc_nodes(5, mp.prec)
        app = [mp.zero] * (2 * x_max + 1)
        apm = [mp.zero] * (2 * x_max + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            mid = (a + b) / 2
            sign_kappa = mp.sign(2 * lam * mp.sin(mid) - (1 - gamma**2) * mp.sin(2 * mid))
            parts = int(mp.ceil((b - a) / panel_width))
            h = (b - a) / parts
            for j in range(parts):
                c = a + (j + mp.mpf(0.5)) * h
                for t, w in rule:
                    xi = c + t * h / 2
                    m = mp.sqrt((mp.cos(xi) - lam) ** 2 + (gamma * mp.sin(xi)) ** 2)
                    den = mp.cosh(beta * m) + mp.cosh(delta * m)
                    w_pp = w * h / 2 * sign_kappa * mp.sinh(delta * m) / den
                    w_pm = w * h / 2 * (mp.cos(xi) - lam - 1j * gamma * mp.sin(xi)) / m * mp.sinh(beta * m) / den
                    step = mp.expj(-xi)
                    phase = mp.expj(x_max * xi)  # e^{-i x xi} at x = -x_max
                    for k in range(2 * x_max + 1):
                        apm[k] += w_pm * phase
                        app[k] += w_pp * phase
                        phase *= step
        return [v / (2 * mp.pi) for v in app], [v / (2 * mp.pi) for v in apm]


@pytest.fixture(scope="session")
def base_params():
    """A generic non-critical, out-of-equilibrium parameter set."""
    return ModelParams(0.5, 0.3, 1.0, 2.0)


@pytest.fixture(scope="session")
def base_seq(base_params):
    from xyness import build_block_sequence

    return build_block_sequence(33, base_params)
