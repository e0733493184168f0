import hypothesis
import numpy as np
import pytest

from kamtori import GOLDEN_MEAN, DissipativeStandardMap, newton
from kamtori.cohomology import divisor_grid
from kamtori.errors import DivisorTooSmall
from kamtori.fourier import FourierSeries

hypothesis.settings.register_profile("default", max_examples=25, deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture(autouse=True)
def _no_last_sample():
    """Every test starts with no torus sample kept by `newton._evaluate`, so
    the transforms a test counts do not depend on the tests before it."""
    newton._last_sample.clear()


@pytest.fixture(scope="session")
def omega():
    return GOLDEN_MEAN


@pytest.fixture(scope="session")
def fam():
    return DissipativeStandardMap(kappa=0.5, alpha=1.0, a=1)


@pytest.fixture(scope="session")
def base_torus(fam, omega):
    return fam.unperturbed_torus(omega, 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def per_mode_solve(eta, lam, omega, divisor_floor=1e-12):
    """Reference solve of lam*phi - phi o T_omega = eta on a series, mode by
    mode and with no table: (phi, the largest divisor gain off k = 0), where
    phi_k = eta_k / (lam - e^{2 pi i k.omega}) and, at lam = 1, phi_0 = 0.
    A divisor below the floor raises the DivisorTooSmall of the smallest;
    a per-mode floor spans eta's mode box.  The grid solve is held to it
    byte for byte (test_cohomology)."""
    lam, dim, kmax = complex(lam), eta.dim, eta.kmax
    center = (kmax,) * dim
    div = divisor_grid(dim, kmax, lam, omega)
    absdiv = np.abs(div)
    floor = np.broadcast_to(np.asarray(divisor_floor, dtype=float), absdiv.shape)
    bad = absdiv < floor
    bad[center] = False
    if np.any(bad):
        idx = np.unravel_index(int(np.argmin(np.where(bad, absdiv, np.inf))), absdiv.shape)
        raise DivisorTooSmall(tuple(int(i) - kmax for i in idx), absdiv[idx], floor[idx])
    inv = np.zeros_like(div)
    side = np.ones_like(absdiv, dtype=bool)
    side[center] = False
    inv[side] = 1.0 / div[side]
    if abs(lam - 1.0) > 1e-12:
        inv[center] = 1.0 / (lam - 1.0)
    phi = eta.coeffs * inv.reshape(inv.shape + (1,) * len(eta.value_shape))
    return FourierSeries(dim, kmax, phi), float(np.max(1.0 / absdiv[side], initial=0.0))
