import numpy as np
import pytest

from kamtori import embedding, lindstedt, newton
from kamtori.embedding import TorusEmbedding, sample_jet
from kamtori.fourier import FourierSeries, from_grid, theta_grid, to_grid
from kamtori.lindstedt import _project
from kamtori.newton import _grid_size

OMEGA = np.array([(np.sqrt(5.0) - 1.0) / 2.0, np.sqrt(2.0) - 1.0])


# -- references: one transform per lift, per derivative and per order ---------------

def lift_grid(K: TorusEmbedding, n: int) -> np.ndarray:
    out = np.array(to_grid(K.periodic, n))
    for j, theta in enumerate(theta_grid(K.dim, n)):
        out[j] += theta.ravel()
    return out


def shifted_lift_grid(K: TorusEmbedding, omega, n: int) -> np.ndarray:
    out = np.array(to_grid(K.periodic.shift(omega), n))
    for j, theta in enumerate(theta_grid(K.dim, n)):
        out[j] += theta.ravel() + omega[j]
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


@pytest.mark.parametrize("dim, value_shape", [(1, (3,)), (2, (2,)), (1, ())])
def test_embedding_needs_a_2d_valued_periodic_part(dim, value_shape):
    with pytest.raises(ValueError, match=r"^periodic part must be \(2d,\)-valued"):
        TorusEmbedding(FourierSeries.zeros(dim, 2, value_shape))


# -- the sampler ---------------------------------------------------------------------

@pytest.mark.parametrize("orders", [1, 4])
@pytest.mark.parametrize("dim", [1, 2])
def test_sample_jet_matches_one_transform_per_lift(dim, orders):
    rng = np.random.default_rng(10 * dim + orders)
    kmax = 12 if dim == 1 else 5
    K_coeffs = _random_jet(rng, dim, kmax, orders)
    omega = OMEGA[:dim]
    n = _grid_size(kmax)
    X, Xshift, DK, DKshift = sample_jet(np.stack([K.coeffs for K in K_coeffs]), omega, n)
    assert X.shape == Xshift.shape == (orders, 2 * dim, n ** dim)
    assert DK.shape == DKshift.shape == (orders, 2 * dim, dim, n ** dim)
    assert X.tobytes() == lift_jet(K_coeffs, n).tobytes()
    assert Xshift.tobytes() == lift_jet(K_coeffs, n, omega).tobytes()
    base = TorusEmbedding(K_coeffs[0])
    assert X[0].tobytes() == lift_grid(base, n).tobytes()
    assert Xshift[0].tobytes() == shifted_lift_grid(base, omega, n).tobytes()
    assert DK[0].tobytes() == to_grid(dk_series(base), n).tobytes()
    # DK o T_omega is the derivative of K o T_omega
    shifted = TorusEmbedding(base.periodic.shift(omega))
    assert DKshift[0].tobytes() == to_grid(dk_series(shifted), n).tobytes()
    for j in range(1, orders):
        assert DK[j].tobytes() == to_grid(vector_jacobian(K_coeffs[j]), n).tobytes()
        assert DKshift[j].tobytes() == \
            to_grid(vector_jacobian(K_coeffs[j].shift(omega)), n).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_sample_jet_samples_the_blocks_asked_for(dim):
    # each choice of blocks gives those blocks of the full sample bit for
    # bit, in the order lifts then DK, unshifted before shifted
    rng = np.random.default_rng(dim)
    kmax = 9 if dim == 1 else 4
    coeffs = np.stack([K.coeffs for K in _random_jet(rng, dim, kmax, 3)])
    omega, n = OMEGA[:dim], _grid_size(kmax)
    X, Xshift, DK, DKshift = sample_jet(coeffs, omega, n)
    cases = [
        (sample_jet(coeffs, omega, n, dk=False), (X, Xshift)),
        (sample_jet(coeffs, omega, n, lifts=False), (DK, DKshift)),
        (sample_jet(coeffs, None, n), (X, DK)),
        (sample_jet(coeffs, None, n, dk=False), (X,)),
        (sample_jet(coeffs, None, n, lifts=False), (DK,)),
    ]
    for got, want in cases:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.flags["C_CONTIGUOUS"]
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_sample_jet_copies_nothing(dim, monkeypatch):
    # one inverse transform per sample, and every block is a view of its
    # buffer, with a contiguous point axis
    rng = np.random.default_rng(dim)
    kmax = 9 if dim == 1 else 4
    coeffs = np.stack([K.coeffs for K in _random_jet(rng, dim, kmax, 3)])
    buffers = []
    sample = embedding._sample
    monkeypatch.setattr(embedding, "_sample",
                        lambda *args: buffers.append(sample(*args)) or buffers[-1])
    for omega in (OMEGA[:dim], None):
        for lifts, dk in ((True, True), (True, False), (False, True)):
            buffers.clear()
            blocks = sample_jet(coeffs, omega, _grid_size(kmax), lifts=lifts, dk=dk)
            assert len(buffers) == 1
            for block in blocks:
                assert np.shares_memory(block, buffers[0])
                assert block.strides[-1] == block.itemsize


def _composed_sample(coeffs, omega, n, lifts, dk, real):
    """The sampler's blocks as the composition of series gives them, each by a
    to_grid of its own: K with its orders behind the modes, K o T_omega =
    K.shift(omega), DK and DK o T_omega (the derivative of the shifted
    series), each with the identity in order 0's mean, then the lifts theta
    and theta + omega added to order 0's samples."""
    d = coeffs.shape[-1] // 2
    kmax = (coeffs.shape[1] - 1) // 2
    K = FourierSeries(d, kmax, np.moveaxis(coeffs, 0, d))
    base = (K,) if omega is None else (K, K.shift(omega))

    def dk_series(s):
        cols = np.stack([s.differentiate(j).coeffs for j in range(d)], axis=-1)
        cols[(kmax,) * d + (0,)][:d, :d] += np.eye(d)
        return FourierSeries(d, kmax, cols)

    blocks = (base if lifts else ()) + (tuple(dk_series(s) for s in base) if dk else ())
    out = [to_grid(b, n, real=real) for b in blocks]
    if lifts:
        for j, theta in enumerate(theta_grid(d, n)):
            out[0][0, j] += theta.ravel()
            if omega is not None:
                out[1][0, j] += theta.ravel() + omega[j]
    return out


@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan-mode"])
@pytest.mark.parametrize("orders", [1, 3])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("dim", [1, 2])
def test_sample_jet_is_the_series_composition_bit_for_bit(dim, real, orders, nan):
    # every block choice, with and without omega, on the kmax grid and on
    # the smallest one, equals the per-series composition byte for byte
    rng = np.random.default_rng(100 * dim + 10 * orders + real)
    kmax = 11 if dim == 1 else 4
    jet = [K.coeffs for K in _random_jet(rng, dim, kmax, orders)]
    if real:
        flip = (slice(None, None, -1),) * dim
        jet = [0.5 * (c + np.conj(c[flip])) for c in jet]
    coeffs = np.stack(jet)
    if nan:
        coeffs[(0,) + (kmax + 1,) * dim + (dim,)] = np.nan
    for n in (_grid_size(kmax), 2 * kmax + 1):
        for omega in (OMEGA[:dim], None):
            for lifts, dk in ((True, True), (True, False), (False, True)):
                got = sample_jet(coeffs, omega, n, lifts=lifts, dk=dk, real=real)
                want = _composed_sample(coeffs, omega, n, lifts, dk, real)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and g.dtype == w.dtype
                    assert g.tobytes() == w.tobytes()
                    assert np.isnan(g).any() == nan
    with pytest.raises(ValueError, match="Nyquist"):
        sample_jet(coeffs, None, 2 * kmax, real=real)


def _sampled_points(monkeypatch):
    """The grid values of every later inverse transform of the sampler."""
    points = []
    sample = embedding._sample

    def counted(*args):
        grid = sample(*args)
        points.append(grid.size)
        return grid

    monkeypatch.setattr(embedding, "_sample", counted)
    return points


def test_each_caller_samples_only_what_it_reads(fam, omega, base_torus, monkeypatch):
    # d = 1: a lift is 2 columns per order and DK 2; each caller's samples
    # hold only the blocks it reads
    K0, mu0 = base_torus
    sol = newton.run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    K, n = sol.K, _grid_size(sol.K.kmax)
    points = _sampled_points(monkeypatch)

    # the expansion: all four blocks of its one input order, on the grid of
    # its band 4 from the flat torus
    jet = lindstedt.lindstedt_expand(fam, K0, mu0, omega, 0.0, 4)
    assert points == [8 * _grid_size(4 * fam.degree)]
    # a Newton evaluation: X, X o T_omega, DK and DK o T_omega (run_newton's
    # last sample of K is dropped first)
    points.clear()
    newton._last_sample.clear()
    newton._evaluate(fam, K, sol.mu, omega, 0.05, real=True)
    assert points == [8 * n]
    # a repeat evaluation of the same K: the last sample serves it
    points.clear()
    newton._evaluate(fam, K, sol.mu, omega, 0.05, real=True)
    assert points == []
    # the invariance residual: the Newton evaluation's E, so all four blocks
    # (of a copy of K, which the last sample does not serve)
    fresh = TorusEmbedding(FourierSeries(K.dim, K.kmax, K.periodic.coeffs.copy()))
    newton.invariance_residual(fam, fresh, sol.mu, omega, 0.05)
    assert points == [8 * n]
    # the normalization: X and DK of K_ref, then of each shifted K
    points.clear()
    newton.normalize_embedding(K.shifted(0.01), K)
    assert len(points) >= 2 and set(points) == {4 * n}
    # the Lagrangian defect: DK alone
    points.clear()
    newton.lagrangian_defect(K)
    assert points == [2 * n]
    # the residual jet: X and X o T_omega of the 5 orders, on the grid of
    # its band 2 * 4 + 2 = 10 from the flat torus
    points.clear()
    lindstedt.residual_jet(fam, jet, omega)
    assert points == [5 * 4 * _grid_size(10 * fam.degree)]
    # the doubling: all four blocks of its 2 input orders at the band 3
    points.clear()
    lindstedt.lindstedt_double(fam, jet.truncated(1), omega)
    assert points == [2 * 8 * _grid_size(3 * fam.degree)]


# -- the projector -------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_project_matches_per_order_truncate_and_pad(dim):
    rng = np.random.default_rng(dim)
    B, kmax, n = 5, 9, 17
    bands = [0, 2, 4, 5]
    grids = rng.standard_normal((len(bands), 2 * dim, n ** dim)) + 0j
    got = _project(grids, dim, B, bands, kmax)
    for grid, band, series in zip(grids, bands, got):
        want = from_grid(grid, dim, B).truncate(band).pad_to(kmax)
        assert series.kmax == kmax
        assert series.coeffs.tobytes() == want.coeffs.tobytes()
