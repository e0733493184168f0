"""Spectral solver for the twisted difference equation on the torus,

    lam * phi(theta) - phi(theta + omega) = eta(theta),

solved per mode by  phi_k = eta_k / (lam - e^{2 pi i k.omega}),  together with
the tame norm bound the solution obeys on a slightly smaller strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DivisorTooSmall
from .fourier import TWO_PI, FourierSeries

DEFAULT_DIVISOR_FLOOR = 1e-12

_AVG_TWIST_TOL = 1e-12     # |lam - 1| below this selects the untwisted branch


@dataclass(frozen=True)
class CohomologySolution:
    phi: FourierSeries
    max_divisor_gain: float   # largest |lam - e^{2 pi i k.omega}|^{-1} used
    eta: FourierSeries        # the right-hand side solved for
    lam: complex
    omega: np.ndarray

    @cached_property
    def residual(self) -> float:
        """l1 norm of lam*phi - phi o T_omega - eta at rho=0, computed on
        first read (the solvers never read it)."""
        resid = self.lam * self.phi.coeffs - self.phi.shift(self.omega).coeffs \
            - self.eta.coeffs
        return float(FourierSeries(self.phi.dim, self.phi.kmax, resid).analytic_norm(0.0))


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


def solve_twisted(eta: FourierSeries, lam: complex, omega,
                  divisor_floor=DEFAULT_DIVISOR_FLOOR) -> CohomologySolution:
    """Solve lam*phi - phi o T_omega = eta mode by mode.

    For lam = 1 (within 1e-12) the average of eta must vanish and phi is
    returned with zero average; otherwise the average solves (lam-1) phi_0 =
    eta_0.  `divisor_floor` may be a scalar or an array over the mode box
    (e.g. a |k|-dependent threshold); any divisor below it raises
    DivisorTooSmall, flagging the parameter as outside the good set at this
    cutoff.
    """
    lam = complex(lam)
    dim, kmax = eta.dim, eta.kmax
    div = divisor_grid(dim, kmax, lam, omega)
    center = (kmax,) * dim

    absdiv = np.abs(div)
    floor = np.broadcast_to(np.asarray(divisor_floor, dtype=float), absdiv.shape)
    untwisted = abs(lam - 1.0) <= _AVG_TWIST_TOL

    # the k = 0 divisor is lam - 1, not a resonance; it is handled below
    bad = absdiv < floor
    bad[center] = False
    if np.any(bad):
        idx = np.unravel_index(int(np.argmin(np.where(bad, absdiv, np.inf))), absdiv.shape)
        k = tuple(int(i) - kmax for i in idx)
        raise DivisorTooSmall(k, absdiv[idx], floor[idx])

    inv = np.zeros_like(div)
    side = np.ones_like(absdiv, dtype=bool)
    side[center] = False
    inv[side] = 1.0 / div[side]
    if untwisted:
        avg = eta.average()
        scale = eta.analytic_norm(0.0)
        if np.max(np.abs(np.atleast_1d(avg))) > 1e-12 * max(scale, 1e-30):
            raise ValueError("eta must have zero average when lam = 1")
        # phi_0 = 0: the unique zero-average solution
    else:
        inv[center] = 1.0 / (lam - 1.0)

    phi_coeffs = eta.coeffs * inv.reshape(inv.shape + (1,) * len(eta.value_shape))
    phi = FourierSeries(dim, kmax, phi_coeffs, zero_average=untwisted)
    gain = float(np.max(1.0 / absdiv[side])) if np.any(side) else 0.0
    return CohomologySolution(phi, gain, eta, lam, omega)


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
