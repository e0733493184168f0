import cmath
from itertools import product

import numpy as np
import pytest
from conftest import per_mode_solve
from hypothesis import given, strategies as st

from kamtori.cohomology import (_divisor_table, _divisors, divisor_grid, shell_count,
                                solve_twisted_grid, tame_bound, tame_constant)
from kamtori.diophantine import GOLDEN_MEAN, nu_lambda
from kamtori.errors import DivisorTooSmall
from kamtori.fourier import FourierSeries, fast_grid_size, from_grid, theta_grid, to_grid

UNTWISTED_REFUSAL = "eta must have finite modes and a finite zero average when lam = 1"


def random_eta(rng, kmax=32, decay=0.25, zero_avg=True):
    c = rng.standard_normal(2 * kmax + 1) + 1j * rng.standard_normal(2 * kmax + 1)
    c = c * np.exp(-decay * np.abs(np.arange(-kmax, kmax + 1)))
    if zero_avg:
        c[kmax] = 0.0
    return FourierSeries(1, kmax, c)


def _grid_solve(eta, lam, omega, divisor_floor=1e-12):
    """The grid solve of a series' complex samples, its phi read back as a
    series at eta's cutoff, and its divisor gain."""
    n = fast_grid_size(2 * eta.kmax + 1)
    phi, gain = solve_twisted_grid(to_grid(eta, n), eta.dim, eta.kmax, lam, omega,
                                   divisor_floor)
    return from_grid(phi, eta.dim, eta.kmax), gain


def _residual(phi, eta, lam, omega):
    """l1 norm at rho = 0 of lam*phi - phi o T_omega - eta."""
    resid = lam * phi.coeffs - phi.shift(omega).coeffs - eta.coeffs
    return FourierSeries(phi.dim, phi.kmax, resid).analytic_norm(0.0)


def test_zero_eta_gives_zero_phi(omega):
    eta = FourierSeries.zeros(1, 8)
    phi, _ = _grid_solve(eta, 0.9, omega)
    assert phi.analytic_norm(0.0) == 0.0
    assert _residual(phi, eta, 0.9, omega) == 0.0


def test_single_mode_closed_form(omega):
    lam = 0.93 + 0.02j
    eta = FourierSeries.from_modes(1, 4, {1: 1.0})
    phi, _ = _grid_solve(eta, lam, omega)
    expect = 1.0 / (lam - cmath.exp(2j * cmath.pi * omega))
    assert phi.mode(1) == pytest.approx(expect, rel=1e-14)


def test_residual_reconstruction_on_grid(rng, omega):
    eta = random_eta(rng, kmax=32)
    lam = 0.97
    phi, _ = _grid_solve(eta, lam, omega)
    n = 128
    phi_g = to_grid(phi, n)
    phi_shift = to_grid(phi.shift([omega]), n)
    eta_g = to_grid(eta, n)
    err = np.max(np.abs(lam * phi_g - phi_shift - eta_g))
    assert err <= 1e-12 * eta.analytic_norm(0.0)


def test_independent_per_mode_oracle(rng, omega):
    # plain python-loop division, independent of the vectorized path
    lam = 1.02 + 0.03j
    for _ in range(10):
        eta = random_eta(rng, kmax=24)
        phi, _ = per_mode_solve(eta, lam, omega)
        for k in range(-24, 25):
            if k == 0:
                expect = eta.mode(0) / (lam - 1.0)
            else:
                expect = eta.mode(k) / (lam - cmath.exp(2j * cmath.pi * k * omega))
            assert abs(phi.mode(k) - expect) <= 1e-12 * max(abs(expect), 1e-9)


def test_untwisted_zero_average_and_inversion(rng, omega):
    eta = random_eta(rng)
    phi, _ = per_mode_solve(eta, 1.0, omega)
    assert abs(phi.average()) == 0.0
    phi, _ = _grid_solve(eta, 1.0, omega)
    recon = FourierSeries(1, eta.kmax, phi.coeffs - phi.shift([omega]).coeffs)
    assert (recon - eta).analytic_norm(0.0) <= 1e-12 * eta.analytic_norm(0.0)


def test_untwisted_requires_zero_average(omega):
    # the grid solve drops a finite mean; a non-finite one fails, as it makes
    # every mode of the samples nan
    v = to_grid(FourierSeries.from_modes(1, 4, {1: 0.5}), 9)
    for mean in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite zero average"):
            solve_twisted_grid(v + mean, 1, 4, 1.0, omega)
    phi, _ = solve_twisted_grid(v + 1.0, 1, 4, 1.0, omega)
    assert phi.tobytes() == _series_solve(v + 1.0, 1, 4, 1.0, omega, 1e-12)[0].tobytes()


def test_untwisted_rejects_a_non_finite_mode(omega):
    # a nan off the mean leaves the average at 0.5 * 0 but not the scale
    eta = FourierSeries.from_modes(1, 4, {1: np.nan, 2: 0.5})
    with pytest.raises(ValueError, match="finite modes"):
        _grid_solve(eta, 1.0, omega)


def test_deterministic_bitwise(rng, omega):
    eta = random_eta(rng)
    a, _ = _grid_solve(eta, 0.95, omega)
    b, _ = _grid_solve(eta, 0.95, omega)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert _residual(a, eta, 0.95, omega) == _residual(b, eta, 0.95, omega)


@given(st.integers(0, 2 ** 31 - 1), st.floats(-2, 2), st.floats(-2, 2))
def test_linearity(seed, are, aim):
    omega = GOLDEN_MEAN
    rng = np.random.default_rng(seed)
    a = complex(are, aim)
    e1 = random_eta(rng, kmax=12)
    e2 = random_eta(rng, kmax=12)
    lam = 0.9
    combo = FourierSeries(1, 12, a * e1.coeffs + e2.coeffs)
    lhs = _grid_solve(combo, lam, omega)[0].coeffs
    rhs = a * _grid_solve(e1, lam, omega)[0].coeffs + _grid_solve(e2, lam, omega)[0].coeffs
    scale = np.max(np.abs(rhs)) + 1e-30
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(scale, 1.0)


def test_divisor_too_small_raises(omega):
    lam = cmath.exp(2j * cmath.pi * omega) * (1 + 1e-14)
    eta = FourierSeries.from_modes(1, 4, {1: 1.0})
    with pytest.raises(DivisorTooSmall) as err:
        _grid_solve(eta, lam, omega)
    assert abs(err.value.k[0]) == 1


def test_per_mode_floor_array(omega):
    eta = random_eta(np.random.default_rng(0), kmax=8)
    floor = np.full(17, 1e-12)
    floor[8 + 3] = 10.0     # impossible floor at k = +3
    with pytest.raises(DivisorTooSmall) as err:
        _grid_solve(eta, 0.9, omega, divisor_floor=floor)
    assert err.value.k == (3,)
    # a per-mode floor spans the solve's box exactly, neither a larger nor a smaller one
    for m in (12, 4):
        with pytest.raises(ValueError, match=f"floor for kmax {m} .* at kmax 8"):
            _grid_solve(eta, 0.9, omega, divisor_floor=np.full(2 * m + 1, 1e-12))


def test_matrix_valued_eta(rng, omega):
    c = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    eta = FourierSeries(1, 4, c)
    phi, _ = per_mode_solve(eta, 0.8, omega)
    div = divisor_grid(1, 4, 0.8, omega)
    expect = c / div[:, None, None]
    np.testing.assert_allclose(phi.coeffs, expect, rtol=1e-14)


# -- grid solve --------------------------------------------------------------------

OMEGAS = np.array([GOLDEN_MEAN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])


def _series_solve(v, d, band, lam, omega, floor):
    """The composition the grid solve replaces, through the per-mode
    reference solve, and its divisor gain."""
    eta = from_grid(v, d, band).remove_average()
    phi, gain = per_mode_solve(eta, lam, omega, floor)
    n = round(v.shape[-1] ** (1 / d))
    return to_grid(phi, n, real=v.dtype == np.float64), gain


def _samples(rng, d, real, rows, kmax, kind):
    n = fast_grid_size(3 * kmax + 2)
    shape = rows + (n ** d,)
    if kind == "constant":   # every mode but the mean is an exact zero of the FFT
        v = np.full(shape, 1.0)
    else:
        v = rng.standard_normal(shape) + 0.5
    return v if real else v + 1j * (0.0 if kind == "constant" else rng.standard_normal(shape))


@pytest.mark.parametrize("lam", [0.9, 0.9 + 0.1j, 1.0, 1.05 + 0.01j])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_solve_is_the_series_solve_bit_for_bit(rng, d, real, lam):
    # from_grid -> remove_average -> per_mode_solve -> to_grid, byte for byte:
    # 1 and 2 rows and a 2x2 matrix, the full cutoff and a band below it, a
    # scalar floor and a per-mode one over the band's box, random and constant
    # samples (every mode but the mean an exact zero); at d = 3 the real
    # transform's plane k_d = 0 has two mirror pairs
    kmax = {1: 20, 2: 6, 3: 4}[d]
    omega = OMEGAS[:d]
    for rows, band, per_mode, kind in product(
            [(1,), (2,), (2, 2)], [kmax, kmax // 2], [False, True], ["random", "constant"]):
        floor = np.full((2 * band + 1,) * d, 1e-12) if per_mode else 1e-12
        v = _samples(rng, d, real, rows, kmax, kind)
        want, want_gain = _series_solve(v, d, band, lam, omega, floor)
        got, gain = solve_twisted_grid(v, d, band, lam, omega, floor)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert gain == want_gain


def test_grid_solve_raises_the_series_solve_witness(rng, omega):
    v = _samples(rng, 1, True, (2,), 16, "random")
    floor = np.full(33, 1e-12)
    floor[16 - 5] = 10.0
    for f in (floor, 0.5):
        with pytest.raises(DivisorTooSmall) as want:
            _series_solve(v, 1, 16, 0.9, omega, f)
        with pytest.raises(DivisorTooSmall) as got:
            solve_twisted_grid(v, 1, 16, 0.9, omega, f)
        assert (got.value.k, got.value.divisor, got.value.floor) == \
            (want.value.k, want.value.divisor, want.value.floor)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("real", [True, False])
def test_untwisted_grid_solve_refuses_a_nan_row_like_the_series_solve(rng, omega, real):
    # the message the series solve refused it with, byte for byte
    v = _samples(rng, 1, real, (2,), 16, "random")
    v[1, 7] = np.nan
    with pytest.raises(ValueError) as got:
        solve_twisted_grid(v, 1, 16, 1.0, omega)
    assert str(got.value) == UNTWISTED_REFUSAL
    # lam != 1 solves it: a nan phi, as the series solve gives
    phi, _ = solve_twisted_grid(v, 1, 16, 0.9, omega)
    assert phi.tobytes() == _series_solve(v, 1, 16, 0.9, omega, 1e-12)[0].tobytes()


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_untwisted_grid_solve_refuses_an_inf_sample_with_its_value_error(rng, omega, real, bad):
    # an inf sample is refused before the transform, whose inf - inf would
    # warn first (an error under warnings-as-errors); lam != 1 solves it
    v = _samples(rng, 1, real, (2,), 16, "random")
    v[0, 3] = bad
    with pytest.raises(ValueError) as got:
        solve_twisted_grid(v, 1, 16, 1.0, omega)
    assert str(got.value) == UNTWISTED_REFUSAL
    with np.errstate(invalid="ignore"):
        phi, _ = solve_twisted_grid(v, 1, 16, 0.9, omega)
    assert not np.isfinite(phi[0]).any() and np.isfinite(phi[1]).all()


# -- divisor table ---------------------------------------------------------------

@pytest.mark.parametrize("dim, lam", [(1, 0.93 + 0.02j), (1, 1.0), (2, 1.05)])
def test_divisor_table_hit_is_byte_equal_to_cold_call(rng, dim, lam):
    omega = OMEGAS[:dim]
    kmax = 16 if dim == 1 else 6
    c = rng.standard_normal((2 * kmax + 1,) * dim + (2,)) + 0j
    c[(kmax,) * dim] = 0.0
    v = to_grid(FourierSeries(dim, kmax, c), fast_grid_size(2 * kmax + 1))
    floor = np.full((2 * kmax + 1,) * dim, 1e-9)
    for divisor_floor in (1e-12, floor):
        _divisor_table.cache_clear()
        cold = solve_twisted_grid(v, dim, kmax, lam, omega, divisor_floor)
        hits = _divisor_table.cache_info().hits
        hit = solve_twisted_grid(v, dim, kmax, lam, omega,
                                 np.array(divisor_floor))   # equal, not the same
        assert _divisor_table.cache_info().hits == hits + 1
        phi, gain = _series_solve(v, dim, kmax, lam, omega, divisor_floor)
        for got, got_gain in (cold, hit):
            assert got.tobytes() == phi.tobytes()
            assert got_gain == gain


def test_divisor_table_hit_on_failing_key_raises_the_same_witness(omega):
    lam = cmath.exp(2j * cmath.pi * 3 * omega) * (1 + 1e-9)
    eta = random_eta(np.random.default_rng(0), kmax=8)
    _divisor_table.cache_clear()
    raised = []
    for _ in range(2):
        with pytest.raises(DivisorTooSmall) as err:
            _grid_solve(eta, lam, omega, divisor_floor=1e-6)
        raised.append((err.value.k, err.value.divisor, err.value.floor))
    assert _divisor_table.cache_info().hits == 1
    with pytest.raises(DivisorTooSmall) as err:
        per_mode_solve(eta, lam, omega, 1e-6)
    assert raised == [(err.value.k, err.value.divisor, err.value.floor)] * 2
    assert raised[0][0] == (3,)


def test_divisor_table_keys_floor_arrays_by_value(omega):
    eta = random_eta(np.random.default_rng(0), kmax=8)
    loose = np.full(17, 1e-12)
    strict = loose.copy()
    strict[8 + 3] = 10.0     # one entry differs: an impossible floor at k = +3
    for first, second in ((loose, strict), (strict, loose)):
        _divisor_table.cache_clear()
        for floor in (first, second):
            if floor is strict:
                with pytest.raises(DivisorTooSmall) as err:
                    _grid_solve(eta, 0.9, omega, divisor_floor=floor)
                assert err.value.k == (3,)
            else:
                _grid_solve(eta, 0.9, omega, divisor_floor=floor)
        assert _divisor_table.cache_info().currsize == 2


def test_divisor_table_inverse_is_read_only(omega):
    inv, _, _ = _divisors(1, 8, 0.9, omega, 1e-12)
    assert not inv.flags.writeable
    with pytest.raises(ValueError):
        inv[0] = 1.0


def test_divisor_table_is_bounded():
    # Worst case held: every entry a complex128 inverse plus a float64
    # per-mode floor in its key, 24 bytes per mode.
    size = _divisor_table.cache_info().maxsize
    for dim, kmax, worst in ((1, 1024, 1_573_632), (2, 64, 12_780_288)):
        omega = OMEGAS[:dim]
        floor = np.full((2 * kmax + 1,) * dim, 1e-12)
        _divisor_table.cache_clear()
        for i in range(size + 3):
            inv, _, _ = _divisors(dim, kmax, 0.9 + 1e-3 * i, omega, floor)
            assert _divisor_table.cache_info().currsize == min(i + 1, size)
        assert size * (inv.nbytes + floor.nbytes) == worst


# -- tame bound -------------------------------------------------------------------

def test_tame_bound_zero_nu():
    assert tame_bound(1.0, 0.1, 1.0, 1, 0.0) == 0.0


def test_tame_bound_delta_power_law():
    lo = tame_bound(1.0, 0.2, 1.0, 1, 2.0)
    hi = tame_bound(1.0, 0.1, 1.0, 1, 2.0)
    assert hi >= lo * 2.0 ** (1.0 + 1.0)


def test_tame_bound_invalid_delta():
    with pytest.raises(ValueError):
        tame_bound(1.0, 0.0, 1.0, 1, 1.0)


def test_shell_counts():
    assert [shell_count(1, j) for j in (1, 2, 3)] == [2, 2, 2]
    assert [shell_count(2, j) for j in (1, 2, 3)] == [4, 8, 12]
    assert shell_count(3, 1) == 6


def test_tame_constant_cached_positive():
    c = tame_constant(1.0, 1)
    assert c > 0
    assert tame_constant(1.0, 1) == c


def test_measured_solution_below_tame_bound(rng, omega):
    # the contract of the bound: with nu covering the mode box, the majorant
    # of phi on the shrunk strip never exceeds it
    rho = 0.3
    tau = 1.0
    lam = 0.98
    nu = nu_lambda(lam, omega, tau, 4096).value
    for _ in range(20):
        kmax = 24
        c = rng.standard_normal(2 * kmax + 1) + 1j * rng.standard_normal(2 * kmax + 1)
        c = c * np.exp(-2 * np.pi * rho * np.abs(np.arange(-kmax, kmax + 1)))
        eta = FourierSeries(1, kmax, c).remove_average()
        phi, _ = per_mode_solve(eta, lam, omega)
        for delta in (0.05, 0.1, 0.2):
            measured = phi.analytic_norm(rho - delta)
            bound = tame_bound(eta.analytic_norm(rho), delta, tau, 1, nu)
            assert measured <= bound
