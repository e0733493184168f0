import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kamtori import fourier
from kamtori.fourier import (FourierSeries, dump_series, fast_grid_size,
                             from_grid, load_series, theta_grid, to_grid)

TWO_PI = 2 * np.pi


def random_series(rng, kmax=16, dim=1, decay=0.35, real=False):
    shape = (2 * kmax + 1,) * dim
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k1 = FourierSeries.zeros(dim, kmax).k_norm_grid()
    c = c * np.exp(-decay * k1)
    if real:
        flip = tuple(slice(None, None, -1) for _ in range(dim))
        c = 0.5 * (c + np.conj(c[flip]))
    return FourierSeries(dim, kmax, c)


# -- eval ----------------------------------------------------------------------

def test_eval_constant():
    s = FourierSeries.constant(3.0, dim=1, kmax=4)
    assert s.eval([0.123]) == pytest.approx(3.0)


def test_eval_two_cosine_modes():
    s = FourierSeries.from_modes(1, 2, {1: 1.0, -1: 1.0})
    assert s.eval([0.0]) == pytest.approx(2.0)


def test_eval_matches_direct_summation(rng):
    s = random_series(rng, kmax=16)
    ks = s.k_axis()
    for theta in rng.random(64):
        direct = np.sum(s.coeffs * np.exp(2j * np.pi * ks * theta))
        got = s.eval([theta])
        assert abs(got - direct) <= 1e-13 * max(abs(direct), 1.0)


def test_eval_complex_argument(rng):
    s = random_series(rng, kmax=8)
    theta = 0.3 + 0.05j
    direct = np.sum(s.coeffs * np.exp(2j * np.pi * s.k_axis() * theta))
    assert s.eval([theta]) == pytest.approx(direct, rel=1e-13)


# -- shift ----------------------------------------------------------------------

def test_shift_zero_is_identity(rng):
    s = random_series(rng)
    np.testing.assert_array_equal(s.shift([0.0]).coeffs, s.coeffs)


def test_shift_single_mode_quarter_turn():
    s = FourierSeries.from_modes(1, 1, {1: 1.0})
    assert s.shift([0.25]).mode(1) == pytest.approx(1j)


@given(w=st.floats(-2, 2, allow_nan=False))
def test_shift_group_property(w):
    rng = np.random.default_rng(7)
    s = random_series(rng, kmax=8)
    twice = s.shift([w]).shift([w])
    once = s.shift([2 * w])
    assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-15 * (
        1 + np.max(np.abs(s.coeffs)))


def test_shift_preserves_norm_for_real_shift(rng):
    s = random_series(rng)
    assert s.shift([0.37]).analytic_norm(0.2) == pytest.approx(
        s.analytic_norm(0.2), rel=1e-13)


# -- differentiate ---------------------------------------------------------------

def test_differentiate_constant_is_zero():
    s = FourierSeries.constant(5.0, 1, 3)
    d = s.differentiate(0)
    assert d.analytic_norm(0.0) == 0.0
    assert d.average() == 0


def test_differentiate_sine():
    # sin(2 pi t) = (e - e*) / 2i -> derivative 2 pi cos(2 pi t)
    s = FourierSeries.from_modes(1, 1, {1: 1 / 2j, -1: -1 / 2j})
    d = s.differentiate(0)
    cos = FourierSeries.from_modes(1, 1, {1: 0.5, -1: 0.5})
    assert np.max(np.abs(d.coeffs - TWO_PI * cos.coeffs)) < 1e-15


def test_differentiate_against_central_difference(rng):
    s = random_series(rng, kmax=12)
    d = s.differentiate(0)
    h = 1e-6
    for theta in rng.random(10):
        fd = (s.eval([theta + h]) - s.eval([theta - h])) / (2 * h)
        assert abs(d.eval([theta]) - fd) <= 1e-7 * max(1.0, abs(fd))


def test_differentiate_axis_out_of_range(rng):
    with pytest.raises(ValueError):
        random_series(rng).differentiate(1)


def test_shift_commutes_with_differentiate(rng):
    # exact commutation up to one reordering rounding per entry
    s = random_series(rng)
    a = s.shift([0.3]).differentiate(0)
    b = s.differentiate(0).shift([0.3])
    scale = np.abs(a.coeffs) + np.abs(b.coeffs) + 1e-300
    assert np.max(np.abs(a.coeffs - b.coeffs) / scale) <= 4 * np.finfo(float).eps


# -- analytic norm ---------------------------------------------------------------

def test_norm_zero_series():
    assert FourierSeries.zeros(1, 5).analytic_norm(0.3) == 0.0


def test_norm_single_mode_closed_form():
    s = FourierSeries.from_modes(1, 1, {1: 1.0})
    assert s.analytic_norm(0.1) == pytest.approx(np.exp(0.2 * np.pi), rel=1e-14)


def test_norm_majorizes_boundary_samples(rng):
    s = random_series(rng, kmax=10)
    rho = 0.08
    norm = s.analytic_norm(rho)
    thetas = np.linspace(0, 1, 256, endpoint=False)
    for sign in (+1, -1):
        vals = [abs(s.eval([t + sign * 1j * rho])) for t in thetas]
        assert norm >= max(vals) - 1e-12


def test_norm_monotone_in_rho(rng):
    s = random_series(rng)
    assert s.analytic_norm(0.05) <= s.analytic_norm(0.1) <= s.analytic_norm(0.2)


@given(st.integers(0, 2 ** 31 - 1))
def test_cauchy_coefficient_inequality(seed):
    s = random_series(np.random.default_rng(seed), kmax=8)
    rho = 0.1
    norm = s.analytic_norm(rho)
    mags = s.coeff_magnitudes()
    bound = norm * np.exp(-TWO_PI * np.abs(s.k_axis()) * rho)
    assert np.all(mags <= bound + 1e-12 * norm)


def test_banach_algebra_property(rng):
    for _ in range(10):
        a = random_series(rng, kmax=8)
        b = random_series(rng, kmax=8)
        # the product's coefficients are the convolution of the factors'
        p = FourierSeries(1, 16, np.convolve(a.coeffs, b.coeffs))
        for rho in (0.0, 0.05, 0.1):
            assert p.analytic_norm(rho) <= (
                a.analytic_norm(rho) * b.analytic_norm(rho) * (1 + 1e-12))


# -- reality ---------------------------------------------------------------------

def test_reality_flag_checks(rng):
    s = random_series(rng, real=True)
    assert s.reality_defect() <= 1e-14
    norm = s.analytic_norm(0.0)
    for theta in rng.random(16):
        assert abs(s.eval([theta]).imag) <= 1e-13 * norm


def test_zero_average_flag_enforced():
    with pytest.raises(ValueError):
        FourierSeries.from_modes(1, 2, {0: 1.0}, zero_average=True)


# -- grid transforms -------------------------------------------------------------

def test_constant_grid_only_dc():
    vals = np.full(16, 2.5, dtype=complex)
    s = from_grid(vals, 1, 4)
    assert s.mode(0) == pytest.approx(2.5)
    off = s.coeffs.copy()
    off[4] = 0
    assert np.max(np.abs(off)) < 1e-15


def test_grid_round_trip(rng):
    s = random_series(rng, kmax=16)
    for n in (33, 48, 64):
        back = from_grid(to_grid(s, n), 1, 16)
        rel = np.max(np.abs(back.coeffs - s.coeffs)) / np.max(np.abs(s.coeffs))
        assert rel <= 1e-13


def test_grid_round_trip_2d(rng):
    c = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    s = FourierSeries(2, 4, c)
    back = from_grid(to_grid(s, 12), 2, 4)
    assert np.max(np.abs(back.coeffs - s.coeffs)) <= 1e-13 * np.max(np.abs(c))


def _to_grid_fftshift(series, n):
    """Reference: centered box placed at n//2 - kmax, then ifftshift."""
    d, kmax = series.dim, series.kmax
    buf = np.zeros((n,) * d + series.value_shape, dtype=series.coeffs.dtype)
    lo = n // 2 - kmax
    buf[(slice(lo, lo + 2 * kmax + 1),) * d] = series.coeffs
    buf = np.fft.ifftshift(buf, axes=tuple(range(d)))
    return np.fft.ifftn(buf, axes=tuple(range(d))) * (n ** d)


def _from_grid_fftshift(values, dim, kmax):
    """Reference: scale every mode, fftshift, cut the centered box."""
    n = values.shape[0]
    chat = np.fft.fftn(values.astype(np.complex128), axes=tuple(range(dim))) / (n ** dim)
    chat = np.fft.fftshift(chat, axes=tuple(range(dim)))
    lo = n // 2 - kmax
    return np.ascontiguousarray(chat[(slice(lo, lo + 2 * kmax + 1),) * dim])


@pytest.mark.parametrize("dim, n, value_shape", [
    (1, 16, ()), (1, 17, ()), (1, 15, (2,)), (1, 24, (2, 2)),
    (2, 8, ()), (2, 9, (2,)), (2, 10, (2, 1)),
])
def test_transforms_match_fftshift_formulation(rng, dim, n, value_shape):
    # bit for bit, up to the Nyquist cutoff (n-1)//2 and below it
    for kmax in ((n - 1) // 2, (n - 1) // 2 - 2):
        shape = (2 * kmax + 1,) * dim + value_shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = FourierSeries(dim, kmax, c)
        grid = to_grid(s, n)
        ref = _to_grid_fftshift(s, n)
        assert grid.tobytes() == ref.tobytes()
        back = from_grid(grid, dim, kmax)
        assert back.coeffs.flags["C_CONTIGUOUS"]
        assert back.coeffs.tobytes() == _from_grid_fftshift(grid, dim, kmax).tobytes()
        # real samples are promoted as before
        real = from_grid(grid.real, dim, kmax).coeffs
        assert real.tobytes() == _from_grid_fftshift(grid.real, dim, kmax).tobytes()


def _fft_order(dim, kmax, n):
    """Reference: the fancy index of the centered box in FFT order, k mod n."""
    order = np.arange(-kmax, kmax + 1) % n
    return np.ix_(*[order] * dim)


@pytest.mark.parametrize("dim, kmax, n", [
    (1, 0, 1), (1, 0, 5), (1, 3, 7), (1, 5, 16), (2, 0, 3), (2, 2, 5), (2, 3, 10),
])
def test_slice_copies_match_the_fancy_index(rng, dim, kmax, n):
    # the transforms copy the box by 2^d slice blocks, and equal the fancy-index
    # scatter and gather byte for byte, also at kmax 0 and at n = 2 kmax + 1
    blocks = fourier._box_blocks(dim, kmax, n)
    assert len(blocks) == 2 ** dim
    shape = (2 * kmax + 1,) * dim + (2,)
    s = FourierSeries(dim, kmax,
                      rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    buf = np.zeros((n,) * dim + (2,), dtype=complex)
    buf[_fft_order(dim, kmax, n)] = s.coeffs
    ref = buf
    for axis in reversed(range(dim)):
        ref = np.fft.ifft(ref, axis=axis)
    grid = to_grid(s, n)
    assert grid.tobytes() == (ref * n ** dim).tobytes()
    chat = grid
    for axis in reversed(range(dim)):
        chat = np.fft.fft(chat, axis=axis)
    want = chat[_fft_order(dim, kmax, n)]
    want /= n ** dim
    assert from_grid(grid, dim, kmax).coeffs.tobytes() == want.tobytes()


def test_nyquist_violation_raises(rng):
    s = random_series(rng, kmax=16)
    with pytest.raises(ValueError):
        to_grid(s, 16)
    with pytest.raises(ValueError):
        from_grid(np.zeros(8, dtype=complex), 1, 16)


# -- structure helpers ------------------------------------------------------------

def test_pad_truncate_round_trip(rng):
    s = random_series(rng, kmax=6)
    assert np.array_equal(s.pad_to(10).truncate(6).coeffs, s.coeffs)
    assert s.pad_to(10).analytic_norm(0.1) == pytest.approx(s.analytic_norm(0.1))


def test_tail_mass(rng):
    lo = FourierSeries.from_modes(1, 8, {1: 1.0})
    assert lo.tail_mass() == 0.0
    hi = FourierSeries.from_modes(1, 8, {7: 1.0, 1: 1.0})
    assert hi.tail_mass() == pytest.approx(0.5)


def test_fast_grid_size():
    assert fast_grid_size(17) == 18
    for m in (5, 31, 97, 200):
        n = fast_grid_size(m)
        assert n >= m
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        assert r == 1


def test_theta_grid_shape():
    g = theta_grid(2, 8)
    assert len(g) == 2 and g[0].shape == (8, 8)
    assert g[0][1, 0] == pytest.approx(1 / 8)


# -- dump / load -------------------------------------------------------------------

def test_dump_load_round_trip(rng):
    s = random_series(rng, kmax=5, real=True)
    buf = io.StringIO()
    dump_series(s, buf)
    buf.seek(0)
    back = load_series(buf)
    assert back.kmax == s.kmax and back.dim == s.dim
    np.testing.assert_array_equal(back.coeffs, s.coeffs)


def test_dump_load_matrix_valued(rng):
    c = rng.standard_normal((7, 2, 2)) + 1j * rng.standard_normal((7, 2, 2))
    s = FourierSeries(1, 3, c)
    buf = io.StringIO()
    dump_series(s, buf)
    buf.seek(0)
    np.testing.assert_array_equal(load_series(buf).coeffs, s.coeffs)


@pytest.mark.parametrize("value_shape", [(2,), (2, 2)], ids=["vector", "matrix"])
def test_dump_load_is_exact_for_signed_zeros_and_inf(rng, value_shape):
    # each re/im pair is read as the two floats of one complex128: -0.0 parts
    # and a +-inf imaginary part come back bit for bit, where re + 1j * im
    # gave +0.0 and nan+inf j
    c = rng.standard_normal((7,) + value_shape) + 1j * rng.standard_normal((7,) + value_shape)
    flat = c.reshape(7, -1)
    flat[0, 0] = complex(-0.0, -0.0)
    flat[1, 0] = complex(-0.0, 0.0)
    flat[2, -1] = complex(0.0, -0.0)
    flat[3, 0] = complex(0.0, np.inf)
    flat[4, -1] = complex(-0.0, -np.inf)
    flat[5, 1] = complex(np.nan, -0.0)
    s = FourierSeries(1, 3, c)
    buf = io.StringIO()
    dump_series(s, buf)
    buf.seek(0)
    assert load_series(buf).coeffs.tobytes() == s.coeffs.tobytes()
