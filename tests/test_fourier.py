import io
from itertools import product

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


def test_magnitudes_of_large_finite_vector_modes_are_finite(rng):
    # |c|^2 overflows above about 1.3e154, where the magnitude of a finite
    # mode is still representable; modes whose squares sum to a finite float
    # keep the plain sum's bits
    s = FourierSeries.from_modes(1, 2, {1: [1e160, 1.0], -1: [3e200, 4e200],
                                        2: [0.3, 0.4]})
    mags = s.coeff_magnitudes()
    assert mags[3] == 1e160 and mags[1] == pytest.approx(5e200, rel=1e-15)
    assert mags[4] == np.sqrt(0.3 ** 2 + 0.4 ** 2) and mags[2] == 0.0
    assert s.analytic_norm() == pytest.approx(5e200, rel=1e-15)
    assert s.tail_mass() == pytest.approx(0.5 / 5e200, rel=1e-12)
    # a mode too large to represent reads inf; inf and nan stay as they were
    t = FourierSeries.from_modes(1, 1, {-1: [1.5e308, 1.5e308], 0: [np.inf, 1.0],
                                        1: [np.nan, 1.0]})
    assert t.coeff_magnitudes().tolist()[:2] == [np.inf, np.inf]
    assert np.isnan(t.coeff_magnitudes()[2])
    c = random_series(rng, kmax=4, dim=2).coeffs[..., None] * np.array([1.0, 2.0, 3.0])
    assert FourierSeries(2, 4, c).coeff_magnitudes().tobytes() == \
        np.sqrt(np.sum(np.abs(c) ** 2, axis=-1)).tobytes()


@pytest.mark.parametrize("value_shape", [(2,), (3,), (2, 2), (4, 2), (3, 3)])
@pytest.mark.parametrize("dim, kmax", [(1, 40), (2, 5)])
def test_magnitudes_are_the_plain_sum_bit_for_bit(rng, dim, kmax, value_shape):
    # the running sum of fewer than 8 squares and np.sum of 8 or more give
    # np.sum's bits, over magnitudes 1e-30..1e30; on the overflow path every
    # mode whose plain sum is finite keeps those bits too
    shape = (2 * kmax + 1,) * dim + value_shape
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** rng.uniform(-30, 30, shape)
    values = tuple(range(dim, c.ndim))
    want = np.sqrt(np.sum(np.abs(c) ** 2, axis=values))
    assert FourierSeries(dim, kmax, c.copy()).coeff_magnitudes().tobytes() == want.tobytes()
    c[(kmax + 1,) * dim] = 1e200
    with np.errstate(over="ignore"):
        plain = np.sqrt(np.sum(np.abs(c) ** 2, axis=values))
    mags = FourierSeries(dim, kmax, c).coeff_magnitudes()
    finite = np.isfinite(plain)
    assert not finite.all() and np.isfinite(mags).all()
    assert mags[finite].tobytes() == plain[finite].tobytes()


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


def _value_first(grid, dim):
    """A point-major sample, (n,)*dim + values, in the layout of to_grid: the
    values first, the grid points flattened on one trailing axis."""
    moved = np.moveaxis(grid, tuple(range(dim)), tuple(range(-dim, 0)))
    return np.ascontiguousarray(moved).reshape(grid.shape[dim:] + (-1,))


def _point_major(values, dim):
    """The inverse of _value_first: a view with the (n,)*dim grid axes in front."""
    n = round(values.shape[-1] ** (1 / dim))
    cells = values.reshape(values.shape[:-1] + (n,) * dim)
    return np.moveaxis(cells, tuple(range(-dim, 0)), tuple(range(dim)))


def _to_grid_fftshift(series, n):
    """Reference: centered box placed at n//2 - kmax, then ifftshift."""
    d, kmax = series.dim, series.kmax
    buf = np.zeros((n,) * d + series.value_shape, dtype=series.coeffs.dtype)
    lo = n // 2 - kmax
    buf[(slice(lo, lo + 2 * kmax + 1),) * d] = series.coeffs
    buf = np.fft.ifftshift(buf, axes=tuple(range(d)))
    return _value_first(np.fft.ifftn(buf, axes=tuple(range(d))) * (n ** d), d)


def _from_grid_fftshift(values, dim, kmax):
    """Reference: scale every mode, fftshift, cut the centered box."""
    values = _point_major(values, dim)
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
        # real samples take the rfftn contract
        real = from_grid(grid.real, dim, kmax).coeffs
        assert real.tobytes() == _from_grid_rfftn(grid.real, dim, kmax).tobytes()


def _hermitian_series(rng, dim, kmax, value_shape):
    shape = (2 * kmax + 1,) * dim + value_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flip = (slice(None, None, -1),) * dim
    return FourierSeries(dim, kmax, 0.5 * (c + np.conj(c[flip])))


def _to_grid_irfftn(series, n):
    """Reference for real samples: the modes k_d >= 0 in the n//2 + 1 bins of
    the last axis (FFT order on the others), np.fft.irfftn unscaled."""
    d, kmax = series.dim, series.kmax
    half = np.zeros((n,) * (d - 1) + (n // 2 + 1,) + series.value_shape, dtype=complex)
    bins = np.ix_(*([np.arange(-kmax, kmax + 1) % n] * (d - 1) + [np.arange(kmax + 1)]))
    half[bins] = series.coeffs[(slice(None),) * (d - 1) + (slice(kmax, None),)]
    grid = np.fft.irfftn(half, s=(n,) * d, axes=tuple(range(d)), norm="forward")
    return _value_first(grid, d)


def _from_grid_rfftn(values, dim, kmax):
    """Reference for real samples, mode by mode: np.fft.rfftn scaled by n^-d
    where the last nonzero k_i is positive, the conjugate of the mirror mode
    where it is negative, and the real part at k = 0."""
    values = _point_major(values, dim)
    n = values.shape[0]
    chat = np.fft.rfftn(values, axes=tuple(range(dim)))
    out = np.empty((2 * kmax + 1,) * dim + values.shape[dim:], dtype=complex)
    for k in product(range(-kmax, kmax + 1), repeat=dim):
        sign = next((np.sign(ki) for ki in reversed(k) if ki), 0)
        src = tuple(-ki for ki in k) if sign < 0 else k
        val = np.array(chat[tuple(ki % n for ki in src[:-1]) + (src[-1],)] / n ** dim)
        if sign < 0:
            val = np.conj(val)
        if sign == 0:
            val.imag = 0
        out[tuple(ki + kmax for ki in k)] = val
    return out


@pytest.mark.parametrize("dim, n, value_shape", [
    (1, 16, ()), (1, 17, (2,)), (1, 15, (2, 1)), (1, 24, (2, 2)),
    (2, 8, ()), (2, 9, (2,)), (2, 10, (2, 1)), (2, 11, (4, 2)),
    (3, 6, (2,)), (3, 7, ()),
])
def test_real_transforms_match_the_rfftn_formulation(rng, dim, n, value_shape):
    # float64 samples of a Hermitian series by irfftn, and an exactly Hermitian
    # box from float64 samples by rfftn, bit for bit, at and below Nyquist
    flip = (slice(None, None, -1),) * dim
    for kmax in ((n - 1) // 2, (n - 1) // 2 - 2):
        s = _hermitian_series(rng, dim, kmax, value_shape)
        grid = to_grid(s, n, real=True)
        assert grid.dtype == np.float64 and grid.shape == value_shape + (n ** dim,)
        assert grid.tobytes() == _to_grid_irfftn(s, n).tobytes()
        assert np.max(np.abs(grid - to_grid(s, n).real)) <= 1e-13 * np.max(np.abs(grid))
        back = from_grid(grid, dim, kmax).coeffs
        assert back.flags["C_CONTIGUOUS"] and back.dtype == np.complex128
        assert back.tobytes() == _from_grid_rfftn(grid, dim, kmax).tobytes()
        assert np.array_equal(back[flip], np.conj(back))
        assert np.max(np.abs(back - s.coeffs)) <= 1e-13 * np.max(np.abs(s.coeffs))
        # samples of a series that is not Hermitian still give a Hermitian box
        noise = rng.standard_normal(grid.shape)
        box = from_grid(noise, dim, kmax).coeffs
        assert box.tobytes() == _from_grid_rfftn(noise, dim, kmax).tobytes()
        assert np.array_equal(box[flip], np.conj(box))


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
    ref = _value_first(ref, dim)
    grid = to_grid(s, n)
    assert grid.tobytes() == (ref * n ** dim).tobytes()
    chat = _point_major(grid, dim)
    for axis in reversed(range(dim)):
        chat = np.fft.fft(chat, axis=axis)
    want = chat[_fft_order(dim, kmax, n)]
    want /= n ** dim
    assert from_grid(grid, dim, kmax).coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, kmax, n", [(1, 5, 11), (1, 12, 40), (2, 3, 7), (2, 4, 12)])
def test_to_grid_is_the_scaled_inverse_fftn_of_the_box(rng, dim, kmax, n):
    # the box in FFT order, inverse-transformed by ifftn and scaled by n^d
    shape = (2 * kmax + 1,) * dim + (3,)
    s = FourierSeries(dim, kmax, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    box = np.zeros((n,) * dim + (3,), dtype=complex)
    box[_fft_order(dim, kmax, n)] = s.coeffs
    want = _value_first(np.fft.ifftn(box, axes=tuple(range(dim))) * n ** dim, dim)
    assert to_grid(s, n).tobytes() == want.tobytes()


def test_real_coefficients_sample_as_complex(rng):
    c = rng.standard_normal(9)
    s = FourierSeries(1, 4, c)
    box = np.zeros(12)
    box[np.arange(-4, 5) % 12] = c
    assert to_grid(s, 12).tobytes() == (np.fft.ifft(box) * 12).tobytes()


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
    # truncating to a larger box pads
    assert np.array_equal(s.truncate(10).coeffs, s.pad_to(10).coeffs)


def test_tail_mass(rng):
    lo = FourierSeries.from_modes(1, 8, {1: 1.0})
    assert lo.tail_mass() == 0.0
    hi = FourierSeries.from_modes(1, 8, {7: 1.0, 1: 1.0})
    assert hi.tail_mass() == pytest.approx(0.5)
    assert FourierSeries.zeros(1, 8).tail_mass() == 0.0


_VECTOR = FourierSeries.zeros(1, 4, (2,))


@pytest.mark.parametrize("call, message", [
    (lambda: FourierSeries(1, 4, np.zeros(8)),
     r"coefficient array shape \(8,\) does not match dim=1, kmax=4"),
    (lambda: FourierSeries(2, 1, np.zeros((3, 2))),
     r"coefficient array shape \(3, 2\) does not match dim=2, kmax=1"),
    (lambda: _VECTOR.eval([0.1, 0.2]), r"theta must have shape \(1,\), got \(2,\)"),
    (lambda: _VECTOR.analytic_norm(-0.1), "rho must be >= 0"),
    (lambda: _VECTOR.pad_to(3), "pad_to cannot shrink the mode box; use truncate"),
    (lambda: _VECTOR + FourierSeries.zeros(1, 4, (3,)), "series shapes are incompatible"),
    (lambda: _VECTOR - FourierSeries.zeros(1, 4), "series shapes are incompatible"),
], ids=["shape", "shape-dim-2", "eval-theta", "norm-rho", "pad-shrinks", "add", "sub"])
def test_series_refuses_a_mismatched_shape_or_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


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


@pytest.mark.parametrize("m", [0, -3])
def test_fast_grid_size_needs_a_positive_minimum(m):
    with pytest.raises(ValueError, match="m >= 1"):
        fast_grid_size(m)


@pytest.mark.parametrize("dim, n", [(1, 7), (1, 200), (2, 9)])
def test_theta_grid_is_the_meshgrid_of_the_angle_axis(dim, n):
    want = np.meshgrid(*([np.arange(n) / n] * dim), indexing="ij")
    got = theta_grid(dim, n)
    assert len(got) == dim
    for g, w in zip(got, want):
        assert g.flags.writeable
        assert g.tobytes() == w.tobytes()


def _uncached_tail_band(dim, kmax):
    kinf = np.abs(np.arange(-kmax, kmax + 1))
    grid = np.zeros((2 * kmax + 1,) * dim)
    for j in range(dim):
        shape = [1] * dim
        shape[j] = kinf.size
        grid = np.maximum(grid, kinf.reshape(shape))
    return grid > kmax / 2


@pytest.mark.parametrize("table, args, formula", [
    (fourier.shift_phases, (7, 0.3819660112501051),
     lambda kmax, w: np.exp(2j * np.pi * np.arange(-kmax, kmax + 1) * complex(w))),
    (fourier.shift_phases, (3, -0.0),
     lambda kmax, w: np.exp(2j * np.pi * np.arange(-kmax, kmax + 1) * complex(w))),
    (fourier.shift_phases, (5, 0.1 + 0.02j),
     lambda kmax, w: np.exp(2j * np.pi * np.arange(-kmax, kmax + 1) * complex(w))),
    (fourier.derivative_factors, (9,), lambda kmax: 2j * np.pi * np.arange(-kmax, kmax + 1)),
    (fourier.angle_axis, (18,), lambda n: np.arange(n) / n),
    (fourier._tail_band, (1, 8), _uncached_tail_band),
    (fourier._tail_band, (2, 5), _uncached_tail_band),
])
def test_cached_tables_are_read_only_and_exact(table, args, formula):
    got = table(*args)
    assert table(*args) is got
    want = formula(*args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        got[0] = got[-1]


def test_shift_phases_tell_signed_zeros_apart():
    # the cache is keyed by the bytes of the shift, so -0.0 never reads the
    # table of +0.0
    pos, neg = fourier.shift_phases(2, 0.0), fourier.shift_phases(2, -0.0)
    assert pos is not neg
    k = np.arange(-2, 3)
    assert neg.tobytes() == np.exp(2j * np.pi * k * complex(-0.0)).tobytes()


def test_shift_differentiate_and_tail_mass_match_their_formulas(rng):
    # read through the cached tables, bit for bit at d = 2
    s = random_series(rng, kmax=6, dim=2)
    k = np.arange(-6, 7)
    w = (0.25, -0.125)
    want = s.coeffs * np.exp(2j * np.pi * k * complex(w[0]))[:, None]
    want = want * np.exp(2j * np.pi * k * complex(w[1]))[None, :]
    assert s.shift(w).coeffs.tobytes() == want.tobytes()
    assert s.differentiate(1).coeffs.tobytes() == \
        (s.coeffs * (2j * np.pi * k)[None, :]).tobytes()
    mags = s.coeff_magnitudes()
    tail = float(np.sum(mags[_uncached_tail_band(2, 6)])) / float(np.sum(mags))
    assert s.tail_mass() == tail


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


def _dumped_lines(rng):
    s = random_series(rng, kmax=2)
    buf = io.StringIO()
    dump_series(s, buf)
    return s, buf.getvalue().splitlines(keepends=True)


def test_load_skips_comment_lines_inside_a_table(rng):
    s, lines = _dumped_lines(rng)
    lines.insert(3, "# a comment between rows\n")
    assert load_series(io.StringIO("".join(lines))).coeffs.tobytes() == s.coeffs.tobytes()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[1:], "not a fourier series table"),
    (lambda lines: lines[:-1], "truncated fourier series table"),
    (lambda lines: lines[:3] + [" ".join(lines[3].split()[:-1]) + "\n"] + lines[4:],
     "mode 0: expected 2 value columns"),
], ids=["no-header", "truncated", "short-row"])
def test_load_rejects_a_malformed_table(rng, edit, message):
    _, lines = _dumped_lines(rng)
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_series(io.StringIO("".join(edit(lines))))


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
