"""Spectral solver for the twisted difference equation on the torus,

    lam * phi(theta) - phi(theta + omega) = eta(theta),

solved per mode by  phi_k = eta_k / (lam - e^{2 pi i k.omega}),  together with
the tame norm bound the solution obeys on a slightly smaller strip.

One entry point solves it: `solve_twisted_grid` takes grid samples and
returns the zero-average solution of their zero-average part on the same
grid, through one forward and one inverse transform of the spectrum
(`fourier.multiply_modes`) with no series; the Newton step and both
Lindstedt engines solve through it.

It reads one divisor table: the inverse divisors over the mode box (with
the solve's k = 0 entry), the largest gain and the DivisorTooSmall witness,
at most 8 entries keyed by the bytes of (d, kmax, lam, omega, floor), so
only bit-equal inputs share an entry and a hit is one multiply by the
entry's read-only inverse; the least recently used entry is dropped first.
A solve raises the entry's witness as DivisorTooSmall and, at lam = 1,
refuses a right-hand side with a mode that is not finite (ValueError).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivisorTooSmall
from .fourier import TWO_PI, from_grid, multiply_modes

DEFAULT_DIVISOR_FLOOR = 1e-12

_AVG_TWIST_TOL = 1e-12     # |lam - 1| below this selects the untwisted branch


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


_DIVISOR_TABLE_SIZE = 8


@lru_cache(maxsize=_DIVISOR_TABLE_SIZE)
def _divisor_table(dim: int, kmax: int, lam_bytes: bytes, omega_bytes: bytes,
                   floor_shape: tuple, floor_bytes: bytes) -> tuple:
    """One entry (inv, gain, witness) of the divisor table: the read-only
    1/(lam - e^{2 pi i k.omega}) over the mode box with the solve's k = 0
    entry, and the largest gain off k = 0; or, when a divisor is below the
    floor, (None, None, the (k, |divisor|, floor) of the smallest one)."""
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
    a per-mode floor over a larger centred mode box is cut to the kmax box."""
    floor = np.asarray(divisor_floor, dtype=float)
    if floor.shape not in ((), (2 * kmax + 1,) * dim):
        m = (floor.shape[0] - 1) // 2
        if floor.shape != (2 * m + 1,) * dim or m < kmax:
            raise ValueError(f"divisor floor for kmax {m} (shape {floor.shape}) cannot serve "
                             f"a solve at kmax {kmax}: it must span a larger centred box")
        floor = floor[(slice(m - kmax, m + kmax + 1),) * dim]
    return _divisor_table(dim, kmax, np.complex128(lam).tobytes(),
                          np.atleast_1d(np.asarray(omega, dtype=float)).tobytes(),
                          floor.shape, floor.tobytes())


def solve_twisted_grid(eta: np.ndarray, dim: int, band: int, lam: complex, omega,
                       divisor_floor=DEFAULT_DIVISOR_FLOOR, *, negate: bool = False) -> tuple:
    """(phi, largest divisor gain) for grid samples eta, value_shape +
    (n^dim,): phi on the same grid and with eta's dtype, the zero-average
    solution of lam*phi - phi o T_omega = eta - avg(eta) at the cutoff
    `band`, or of its negative with `negate`.

    Its modes are phi_k = eta_k / (lam - e^{2 pi i k.omega}) for 0 <
    |k|_inf <= band, with eta_k those of `fourier.from_grid(eta, dim, band)`,
    and it is sampled as `fourier.to_grid` samples a box (real=True for real
    samples); the table's inverse divisors multiply the spectrum where it
    lies (`fourier.multiply_modes`).  `divisor_floor` may be a scalar or an
    array over the centred mode box of any cutoff >= band (e.g. a
    |k|-dependent threshold), cut to the band's box; a divisor below it
    raises DivisorTooSmall, flagging the parameter as outside the good set
    at this cutoff.  For lam = 1 (within 1e-12) eta's modes must be finite,
    else ValueError (finite modes pass even where their l1 norm overflows);
    the modes are checked only when phi is not finite.
    """
    lam = complex(lam)
    inv, gain, witness = _divisors(dim, band, lam, omega, divisor_floor)
    if witness is not None:
        raise DivisorTooSmall(*witness)
    phi = multiply_modes(eta, dim, band, inv, negate=negate)
    if (abs(lam - 1.0) <= _AVG_TWIST_TOL and not np.isfinite(phi).all()
            and not np.isfinite(from_grid(eta, dim, band).remove_average().coeffs).all()):
        raise ValueError("eta must have finite modes and a finite zero average "
                         "when lam = 1")
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
    """Upper bound  C(tau,d) * nu * delta^-(tau+d) * |eta|_rho  for the
    majorant of the solution on the strip shrunk by delta.

    C(tau,d) is evaluated numerically (sup of the weighted shell sum over a
    delta grid, refined at the queried delta) so the bound provably dominates
    the per-mode construction whenever nu covers the series' mode box.
    """
    if delta <= 0:
        raise ValueError("delta must satisfy 0 < delta < rho")
    s = tau + dim
    c = max(tame_constant(tau, dim), delta ** s * _weighted_shell_sum(tau, dim, delta))
    return c * nu_lambda_val * delta ** (-s) * eta_norm_rho
