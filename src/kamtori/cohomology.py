"""Spectral solver for the twisted difference equation on the torus,

    lam * phi(theta) - phi(theta + omega) = eta(theta),

solved per mode by  phi_k = eta_k / (lam - e^{2 pi i k.omega}),  and the
tame norm bound its solution obeys on a slightly smaller strip.
`solve_twisted_grid` is the one solve, from grid samples to grid samples.
Its divisors come from a bounded table keyed by the bytes of (d, kmax, lam,
omega, floor), so only bit-equal inputs share an entry, and a solve from
the table equals a cold one byte for byte.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivisorTooSmall
from .fourier import TWO_PI, from_grid, multiply_modes

DEFAULT_DIVISOR_FLOOR = 1e-12

_AVG_TWIST_TOL = 1e-12     # |lam - 1| below this selects the untwisted branch
_UNTWISTED_REFUSAL = "eta must have finite modes and a finite zero average when lam = 1"


def divisor_grid(dim: int, kmax: int, lam: complex, omega) -> np.ndarray:
    """lam - e^{2 pi i k.omega} over the centered mode box."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    k = np.arange(-kmax, kmax + 1)
    phase = np.zeros((2 * kmax + 1,) * dim)
    for j in range(dim):
        shape = [1] * dim
        shape[j] = k.size
        phase = phase + (k * omega[j]).reshape(shape)
    return complex(lam) - np.exp(2j * np.pi * np.remainder(phase, 1.0))


_DIVISOR_TABLE_SIZE = 32


@lru_cache(maxsize=_DIVISOR_TABLE_SIZE)
def _divisor_table(dim: int, kmax: int, lam_bytes: bytes, omega_bytes: bytes,
                   floor_shape: tuple, floor_bytes: bytes) -> tuple:
    """(inv, gain, None): the read-only 1/(lam - e^{2 pi i k.omega}) over the
    mode box with the solve's k = 0 entry, and the largest gain off k = 0;
    or (None, None, (k, |divisor|, floor)) of the smallest divisor below
    the floor."""
    lam = complex(np.frombuffer(lam_bytes, dtype=np.complex128)[0])
    div = divisor_grid(dim, kmax, lam, np.frombuffer(omega_bytes))
    center = (kmax,) * dim

    absdiv = np.abs(div)
    floor = np.broadcast_to(np.frombuffer(floor_bytes).reshape(floor_shape), absdiv.shape)

    # the k = 0 divisor is lam - 1, not a resonance; it is handled below
    bad = absdiv < floor
    bad[center] = False
    if np.any(bad):
        idx = np.unravel_index(int(np.argmin(np.where(bad, absdiv, np.inf))), absdiv.shape)
        return None, None, (tuple(int(i) - kmax for i in idx), absdiv[idx], floor[idx])

    side = np.ones_like(absdiv, dtype=bool)
    side[center] = False
    inv = np.zeros_like(div)
    inv[side] = 1.0 / div[side]
    if abs(lam - 1.0) > _AVG_TWIST_TOL:
        inv[center] = 1.0 / (lam - 1.0)
    inv.setflags(write=False)
    return inv, float(np.max(1.0 / absdiv[side])) if np.any(side) else 0.0, None


def _divisors(dim: int, kmax: int, lam: complex, omega, divisor_floor) -> tuple:
    """The table entry of (d, kmax, lam, omega, floor), looked up by bytes;
    a per-mode floor must span the kmax mode box."""
    floor = np.asarray(divisor_floor, dtype=float)
    if floor.shape not in ((), (2 * kmax + 1,) * dim):
        raise ValueError(f"divisor floor for kmax {(floor.shape[0] - 1) // 2} (shape "
                         f"{floor.shape}) cannot serve a solve at kmax {kmax}: it must "
                         "span the same centred box")
    return _divisor_table(dim, kmax, np.complex128(lam).tobytes(),
                          np.atleast_1d(np.asarray(omega, dtype=float)).tobytes(),
                          floor.shape, floor.tobytes())


def solve_twisted_grid(eta: np.ndarray, dim: int, band: int, lam: complex, omega,
                       divisor_floor=DEFAULT_DIVISOR_FLOOR) -> tuple:
    """(phi, largest divisor gain) for grid samples eta, value_shape +
    (n^dim,): phi on the same grid and with eta's dtype, the zero-average
    solution of lam*phi - phi o T_omega = eta - avg(eta) at the cutoff `band`.

    Its modes are phi_k = eta_k / (lam - e^{2 pi i k.omega}) for 0 <
    |k|_inf <= band, eta_k those of `fourier.from_grid(eta, dim, band)`,
    sampled as `fourier.to_grid` samples them (real=True for real samples).
    Rows solved together equal the same rows solved one at a time.
    `divisor_floor` is a scalar or an array over the band's centred mode
    box, else ValueError; a divisor below it raises DivisorTooSmall.  For
    lam = 1 (within 1e-12) a sample or mode of eta that is not finite
    raises ValueError, with no warning before it.
    """
    lam = complex(lam)
    inv, gain, witness = _divisors(dim, band, lam, omega, divisor_floor)
    if witness is not None:
        raise DivisorTooSmall(*witness)
    if abs(lam - 1.0) > _AVG_TWIST_TOL:
        return multiply_modes(eta, dim, band, inv), gain
    if not np.isfinite(eta).all():
        raise ValueError(_UNTWISTED_REFUSAL)
    # finite samples whose modes overflow are refused, not warned about; a
    # solution that overflows shows as a non-finite phi
    with np.errstate(over="ignore", invalid="ignore"):
        phi = multiply_modes(eta, dim, band, inv)
        if (not np.isfinite(phi).all()
                and not np.isfinite(from_grid(eta, dim, band).remove_average().coeffs).all()):
            raise ValueError(_UNTWISTED_REFUSAL)
    return phi, gain


# -- tame bound --------------------------------------------------------------

def shell_count(dim: int, j: int) -> int:
    """Number of k in Z^d with |k|_1 = j (j >= 1)."""
    total = 0
    for i in range(1, min(dim, j) + 1):
        total += (2 ** i) * math.comb(dim, i) * math.comb(j - 1, i - 1)
    return total


def _weighted_shell_sum(tau: float, dim: int, delta: float) -> float:
    """sum_{k != 0} |k|_1^tau e^{-2 pi delta |k|_1}, summed to convergence."""
    total = 0.0
    j = 1
    while True:
        term = shell_count(dim, j) * j ** tau * math.exp(-TWO_PI * delta * j)
        total += term
        if j > 1 and term < 1e-18 * max(total, 1e-300):
            return total
        j += 1
        if j > 10_000_000:   # delta pathologically small
            return total


@lru_cache(maxsize=None)
def tame_constant(tau: float, dim: int) -> float:
    """Numeric sup of delta^(tau+d) * sum_k |k|^tau e^{-2 pi delta |k|} over
    delta in [1e-3, 1]; the delta-free constant in the tame estimate."""
    s = tau + dim
    grid = np.geomspace(1e-3, 1.0, 241)
    return max(float(d) ** s * _weighted_shell_sum(tau, dim, float(d)) for d in grid)


def tame_bound(eta_norm_rho: float, delta: float, tau: float, dim: int,
               nu_lambda_val: float) -> float:
    """Upper bound C(tau,d) * nu * delta^-(tau+d) * |eta|_rho for the majorant
    of the solution on the strip shrunk by delta, C(tau,d) evaluated
    numerically; it dominates the per-mode solution whenever nu covers the
    series' mode box.  ValueError for delta <= 0."""
    if delta <= 0:
        raise ValueError("delta must satisfy 0 < delta < rho")
    s = tau + dim
    c = max(tame_constant(tau, dim), delta ** s * _weighted_shell_sum(tau, dim, delta))
    return c * nu_lambda_val * delta ** (-s) * eta_norm_rho
