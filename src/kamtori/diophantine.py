"""Small-divisor constants and membership tests for the good parameter sets.

The constants are running suprema over a finite scan of modes,

    nu(omega; tau)        = max_{0<|k|<=k_scan} |e^{2 pi i k.omega} - 1|^{-1} |k|^{-tau}
    nu(lam; omega, tau)   = max_{0<|k|<=k_scan} |e^{2 pi i k.omega} - lam|^{-1} |k|^{-tau}

with |k| the l1 norm, and each estimate reports its scan bound.  An exact
resonance, a zero divisor, gives the value inf.

The good set is G = {lam : nu(lam; omega, tau) |lam - 1|^{N+1} <= A}.
`nu_lambda`, `lambda_in_good_set`, `atlas.classify_grid` and the good-set
gate of `newton.run_newton` all decide it by the one scan `nu_scan`, so
they agree bit for bit.  The inequality's factor |lam - 1|^{N+1} and its
divisor floor factor |k|^{-tau} / A are computed by `GoodSetParams.factor`
and `GoodSetParams.floor` only, for the gate, the per-mode floor, the
excluded balls and the config check alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0

_CHUNK_BYTES = 4 << 20     # complex lam x modes distances per scan chunk


def mode_ball(dim: int, k_scan: int) -> np.ndarray:
    """All k in Z^d with 0 < |k|_1 <= k_scan, as an (m, d) int array: for
    d = 1 the order 1..k_scan, -1..-k_scan, else lexicographic."""
    if dim == 1:
        k = np.arange(1, k_scan + 1)
        return np.concatenate([k, -k]).reshape(-1, 1)
    ks = np.zeros((1, 0), dtype=int)
    left = np.array([k_scan])          # the l1 budget each prefix leaves
    for _ in range(dim):
        count = 2 * left + 1
        first = np.repeat(np.cumsum(count) - count, count)
        c = np.arange(first.size) - first - np.repeat(left, count)
        ks = np.column_stack([np.repeat(ks, count, axis=0), c])
        left = np.repeat(left, count) - np.abs(c)
    return ks[left < k_scan]           # only the origin spends none of it


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


def nu_scan(lam, omega, tau: float, k_scan: int):
    """For each lam of an array, over the resonance table: the largest term
    |k|^-tau / |e^{2 pi i k.omega} - lam|, its mode k (shape lam.shape +
    (d,)) and its divisor.  An exact resonance gives an infinite term; ties
    keep the first mode of the table.  ValueError for k_scan < 1."""
    if k_scan < 1:
        raise ValueError("k_scan must be >= 1")
    lam = np.asarray(lam, dtype=complex)
    ks, roots, knorm = resonances(omega, k_scan)
    weight = knorm ** (-tau)
    flat = lam.ravel()
    arg = np.empty(flat.size, dtype=np.intp)
    chunk = max(1, _CHUNK_BYTES // (16 * roots.size))
    with np.errstate(divide="ignore"):
        for lo in range(0, flat.size, chunk):
            dist = np.abs(roots[None, :] - flat[lo:lo + chunk, None])
            arg[lo:lo + chunk] = np.argmax(weight[None, :] / dist, axis=1)
        divisor = np.abs(roots[arg] - flat)
        term = weight[arg] / divisor
    return (term.reshape(lam.shape), ks[arg].reshape(lam.shape + (ks.shape[1],)),
            divisor.reshape(lam.shape))


def good_set_attained(lam, term, params: GoodSetParams):
    """(nu |lam - 1|^{N+1}, |lam - 1|^{N+1}) for the `nu_scan` terms of the
    lam array, the first 0 at lam = 1 (the Diophantine factor switched off)
    and inf where it overflows."""
    factor = params.factor(lam - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(factor == 0.0, 0.0, term * factor), factor


def nu_lambda(lam: complex, omega, tau: float, k_scan: int) -> NuEstimate:
    """Scan estimate of nu(lam; omega, tau)."""
    term, k, divisor = nu_scan(complex(lam), omega, tau, k_scan)
    return NuEstimate(float(term), tuple(int(c) for c in k), float(divisor), int(k_scan))


def nu_omega(omega, tau: float, k_scan: int) -> NuEstimate:
    """Scan estimate of nu(omega; tau) = nu(1; omega, tau)."""
    return nu_lambda(1.0, omega, tau, k_scan)


def scan_trace(omega, tau: float, k_scan: int, lam: complex | None = None):
    """(|k|, divisor, running sup) rows for plotting, over the whole resonance
    table (both signs of k, also for d=1) in stable order of |k|; lam=None
    scans the divisors to 1."""
    ks, phases, knorm = resonances(omega, k_scan)
    order = np.argsort(knorm, kind="stable")
    ks, knorm = ks[order], knorm[order]
    target = 1.0 + 0j if lam is None else complex(lam)
    divisors = np.abs(phases[order] - target)
    with np.errstate(divide="ignore", over="ignore"):
        terms = knorm ** (-tau) / divisors
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

    def factor(self, dist):
        """|dist|^{N+1} elementwise, as float64; inf where it overflows."""
        with np.errstate(over="ignore"):
            return np.abs(dist) ** (self.N + 1)

    def floor(self, factor, knorm):
        """The divisor floor factor |k|^{-tau} / A at the l1 norms `knorm`: a
        divisor of mode k below it breaks the inequality; inf where it
        overflows."""
        with np.errstate(over="ignore"):
            return factor * np.asarray(knorm, dtype=float) ** (-self.tau) / self.A


@dataclass(frozen=True)
class GoodSetWitness:
    """The outcome of the good-set test at one lam, with its witness."""

    member: bool
    nu: NuEstimate
    factor: float          # |lam - 1|^{N+1}
    attained: float        # nu * factor (the tested quantity)
    lam: complex
    floor: float           # factor |k|^-tau / A, the divisor floor of the witness k


def lambda_in_good_set(lam: complex, params: GoodSetParams, omega, k_scan: int) -> GoodSetWitness:
    """The good-set test at one lam, by the scan `classify_grid` runs per cell."""
    nu = nu_lambda(lam, omega, params.tau, k_scan)
    attained, factor = good_set_attained(np.array([complex(lam)]), nu.value, params)
    floor = params.floor(factor, np.abs(nu.k).sum())
    return GoodSetWitness(bool(attained[0] <= params.A), nu, float(factor[0]),
                          float(attained[0]), complex(lam), float(floor[0]))
