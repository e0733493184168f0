import numpy as np
import pytest

from kamtori.embedding import TorusEmbedding, sample_jet
from kamtori.fourier import FourierSeries, from_grid, theta_grid, to_grid
from kamtori.lindstedt import _project
from kamtori.newton import _grid_size

OMEGA = np.array([(np.sqrt(5.0) - 1.0) / 2.0, np.sqrt(2.0) - 1.0])


# -- references: one transform per lift, per derivative and per order ---------------

def lift_grid(K: TorusEmbedding, n: int) -> np.ndarray:
    out = np.array(to_grid(K.periodic, n))
    for j, theta in enumerate(theta_grid(K.dim, n)):
        out[..., j] += theta
    return out


def shifted_lift_grid(K: TorusEmbedding, omega, n: int) -> np.ndarray:
    out = np.array(to_grid(K.periodic.shift(omega), n))
    for j, theta in enumerate(theta_grid(K.dim, n)):
        out[..., j] += theta + omega[j]
    return out


def vector_jacobian(series: FourierSeries) -> FourierSeries:
    cols = [series.differentiate(j).coeffs for j in range(series.dim)]
    return FourierSeries(series.dim, series.kmax, np.stack(cols, axis=-1))


def dk_series(K: TorusEmbedding) -> FourierSeries:
    d = K.dim
    coeffs = np.array(vector_jacobian(K.periodic).coeffs)
    center = (K.kmax,) * d
    block = coeffs[center].copy()
    block[:d, :d] += np.eye(d)
    coeffs[center] = block
    return FourierSeries(d, K.kmax, coeffs)


def lift_jet(K_coeffs, n: int, omega=None) -> np.ndarray:
    base = TorusEmbedding(K_coeffs[0])
    x0 = lift_grid(base, n) if omega is None else shifted_lift_grid(base, omega, n)
    out = np.zeros((len(K_coeffs),) + x0.shape, dtype=complex)
    out[0] = x0
    for j in range(1, len(K_coeffs)):
        out[j] = to_grid(K_coeffs[j] if omega is None else K_coeffs[j].shift(omega), n)
    return out


def _random_jet(rng, dim: int, kmax: int, orders: int) -> tuple:
    shape = (2 * kmax + 1,) * dim + (2 * dim,)
    return tuple(FourierSeries(dim, kmax, 0.1 * (rng.standard_normal(shape)
                                                 + 1j * rng.standard_normal(shape)))
                 for _ in range(orders))


# -- the sampler ---------------------------------------------------------------------

@pytest.mark.parametrize("orders", [1, 4])
@pytest.mark.parametrize("dim", [1, 2])
def test_sample_jet_matches_one_transform_per_lift(dim, orders):
    rng = np.random.default_rng(10 * dim + orders)
    kmax = 12 if dim == 1 else 5
    K_coeffs = _random_jet(rng, dim, kmax, orders)
    omega = OMEGA[:dim]
    n = _grid_size(kmax)
    X, Xshift, DK = sample_jet(np.stack([K.coeffs for K in K_coeffs]), omega, n)
    assert X.shape == Xshift.shape == (orders,) + (n,) * dim + (2 * dim,)
    assert DK.shape == (orders,) + (n,) * dim + (2 * dim, dim)
    assert X.tobytes() == lift_jet(K_coeffs, n).tobytes()
    assert Xshift.tobytes() == lift_jet(K_coeffs, n, omega).tobytes()
    base = TorusEmbedding(K_coeffs[0])
    assert X[0].tobytes() == lift_grid(base, n).tobytes()
    assert Xshift[0].tobytes() == shifted_lift_grid(base, omega, n).tobytes()
    assert DK[0].tobytes() == to_grid(dk_series(base), n).tobytes()
    for j in range(1, orders):
        assert DK[j].tobytes() == to_grid(vector_jacobian(K_coeffs[j]), n).tobytes()


# -- the projector -------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_project_matches_per_order_truncate_and_pad(dim):
    rng = np.random.default_rng(dim)
    B, kmax, n = 5, 9, 17
    bands = [0, 2, 4, 5]
    grids = rng.standard_normal((len(bands),) + (n,) * dim + (2 * dim,)) + 0j
    got = _project(grids, dim, B, bands, kmax)
    for grid, band, series in zip(grids, bands, got):
        want = from_grid(grid, dim, B).truncate(band).pad_to(kmax)
        assert series.kmax == kmax
        assert series.coeffs.tobytes() == want.coeffs.tobytes()
