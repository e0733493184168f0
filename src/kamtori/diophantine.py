"""Small-divisor constants and membership tests for the good parameter sets.

The quantities estimated here are running suprema over a finite mode scan,

    nu(omega; tau)        = max_{0<|k|<=k_scan} |e^{2 pi i k.omega} - 1|^{-1} |k|^{-tau}
    nu(lam; omega, tau)   = max_{0<|k|<=k_scan} |e^{2 pi i k.omega} - lam|^{-1} |k|^{-tau}

with |k| the l1 norm.  The scan bound is reported with every estimate: for
the truncated cohomology solves it is the finite-scan value (with k_scan
covering the mode box) that actually controls the solution, so that is the
operationally relevant quantity.  A divisor below 1e-300 is treated as an
exact zero and the estimate is flagged infinite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0

_ZERO_DIVISOR = 1e-300


def mode_ball(dim: int, k_scan: int) -> np.ndarray:
    """All k in Z^d with 0 < |k|_1 <= k_scan, as an (m, d) int array.

    For d = 1 this is +-1..+-k_scan; higher dimensions enumerate the l1 ball.
    """
    if dim == 1:
        k = np.arange(1, k_scan + 1)
        return np.concatenate([k, -k]).reshape(-1, 1)
    ks = []
    rng = range(-k_scan, k_scan + 1)
    for k in itertools.product(rng, repeat=dim):
        s = sum(abs(c) for c in k)
        if 0 < s <= k_scan:
            ks.append(k)
    return np.array(ks, dtype=int)


def resonances(omega, k_scan: int):
    """The resonance table over the mode ball 0 < |k|_1 <= k_scan: the modes
    ks (from `mode_ball`), the phases e^{2 pi i k.omega} (computed from
    k.omega mod 1) and the norms |k|_1 as floats."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    ks = mode_ball(omega.size, k_scan)
    phases = np.exp(2j * np.pi * np.remainder(ks @ omega, 1.0))
    return ks, phases, np.sum(np.abs(ks), axis=1).astype(float)


@dataclass(frozen=True)
class NuEstimate:
    """Finite-scan Diophantine constant with its witness mode."""

    value: float
    k: tuple
    divisor: float
    k_scan: int
    infinite: bool = False

    def __float__(self):
        return float("inf") if self.infinite else self.value


def nu_omega(omega, tau: float, k_scan: int) -> NuEstimate:
    """Scan estimate of nu(omega; tau); flagged infinite on a zero divisor."""
    if k_scan < 1:
        raise ValueError("k_scan must be >= 1")
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.size > 1:
        return nu_lambda(1.0, omega, tau, k_scan)
    # |e^{2 pi i k w} - 1| = 2 |sin(pi k w)|; conjugate modes match, scan k > 0
    k = np.arange(1, k_scan + 1)
    divisors = 2.0 * np.abs(np.sin(np.pi * np.remainder(k * float(omega[0]), 1.0)))
    return _reduce(k.reshape(-1, 1), divisors, k.astype(float), tau, k_scan)


def nu_lambda(lam: complex, omega, tau: float, k_scan: int) -> NuEstimate:
    """Scan estimate of nu(lam; omega, tau).

    For |lam| != 1 every scanned term is bounded by |1 - |lam||^{-1}, so the
    estimate inherits that analytic bound automatically.
    """
    if k_scan < 1:
        raise ValueError("k_scan must be >= 1")
    ks, phases, knorm = resonances(omega, k_scan)
    return _reduce(ks, np.abs(phases - complex(lam)), knorm, tau, k_scan)


def _reduce(ks, divisors, knorm, tau, k_scan) -> NuEstimate:
    dead = divisors < _ZERO_DIVISOR
    if np.any(dead):
        i = int(np.argmax(dead))
        return NuEstimate(float("inf"), tuple(int(c) for c in np.atleast_1d(ks[i])),
                          float(divisors[i]), int(k_scan), infinite=True)
    terms = 1.0 / (divisors * knorm ** tau)
    i = int(np.argmax(terms))
    return NuEstimate(float(terms[i]), tuple(int(c) for c in np.atleast_1d(ks[i])),
                      float(divisors[i]), int(k_scan))


def scan_trace(omega, tau: float, k_scan: int, lam: complex | None = None):
    """(|k|, divisor, running sup) rows for plotting, over the whole resonance
    table (both signs of k, also for d=1) in stable order of |k|; lam=None
    scans the divisors to 1."""
    ks, phases, knorm = resonances(omega, k_scan)
    order = np.argsort(knorm, kind="stable")
    ks, knorm = ks[order], knorm[order]
    target = 1.0 + 0j if lam is None else complex(lam)
    divisors = np.abs(phases[order] - target)
    with np.errstate(divide="ignore"):
        terms = np.where(divisors < _ZERO_DIVISOR, np.inf, 1.0 / (divisors * knorm ** tau))
    running = np.maximum.accumulate(terms)
    return np.column_stack([knorm, divisors, running]), ks


@dataclass(frozen=True)
class GoodSetParams:
    """Parameters of the good set: nu(lam; omega, tau) |lam - 1|^{N+1} <= A."""

    A: float
    N: int
    tau: float
    r0: float

    def __post_init__(self):
        if self.A <= 0 or self.r0 <= 0:
            raise ValueError("A and r0 must be positive")
        if self.N < 0:
            raise ValueError("N must be >= 0")


@dataclass(frozen=True)
class GoodSetWitness:
    member: bool
    nu: NuEstimate
    factor: float          # |lam - 1|^{N+1}
    attained: float        # nu * factor (the tested quantity)
    lam: complex


def lambda_in_good_set(lam: complex, params: GoodSetParams, omega, k_scan: int) -> GoodSetWitness:
    nu = nu_lambda(lam, omega, params.tau, k_scan)
    factor = float(abs(complex(lam) - 1.0) ** (params.N + 1))
    if factor == 0.0:
        attained = 0.0      # lam = 1: the Diophantine factor is switched off
    elif nu.infinite:
        attained = float("inf")
    else:
        attained = nu.value * factor
    return GoodSetWitness(attained <= params.A, nu, factor, attained, complex(lam))


def in_good_set(eps: complex, params: GoodSetParams, omega, lam_of_eps,
                k_scan: int) -> GoodSetWitness:
    """Membership test for the epsilon-plane set via the family's lam(eps).

    Callers are expected to keep |eps| <= r0; the radius gate itself is done
    by the atlas grid classifier.
    """
    return lambda_in_good_set(complex(lam_of_eps(eps)), params, omega, k_scan)
