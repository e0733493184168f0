"""Torus embeddings K(theta) = (theta + u(theta), v(theta)) into T^d x R^d.

The angle block is the identity plus a periodic correction u, the action
block a periodic function v; both are carried as one (2d,)-valued Fourier
series.  All evaluations work on the universal cover (continuous lifts), so
differences of embeddings are genuinely periodic and free of mod-1 jumps.

`sample_jet` is the one place where tori and torus jets meet the grid: the
Newton solver and both Lindstedt engines evaluate the invariance equation on
the lifts and DK it samples, all orders in one packed transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import FourierSeries, _packed, theta_grid, to_grid


@dataclass(frozen=True)
class TorusEmbedding:
    periodic: FourierSeries

    def __post_init__(self):
        d = self.periodic.dim
        if self.periodic.value_shape != (2 * d,):
            raise ValueError(
                f"periodic part must be (2d,)-valued, got {self.periodic.value_shape}"
            )

    @property
    def dim(self) -> int:
        return self.periodic.dim

    @property
    def kmax(self) -> int:
        return self.periodic.kmax

    @classmethod
    def circle(cls, omega, kmax: int) -> "TorusEmbedding":
        """The flat embedding K(theta) = (theta, omega)."""
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        d = omega.size
        value = np.concatenate([np.zeros(d), omega]).astype(complex)
        return cls(FourierSeries.constant(value, d, kmax))

    def angle_correction(self) -> FourierSeries:
        d = self.dim
        return FourierSeries(d, self.kmax, self.periodic.coeffs[..., :d])

    def action(self) -> FourierSeries:
        d = self.dim
        return FourierSeries(d, self.kmax, self.periodic.coeffs[..., d:])

    def eval_lift(self, theta) -> np.ndarray:
        """K at one point on the universal cover."""
        theta = np.atleast_1d(np.asarray(theta))
        out = np.array(self.periodic.eval(theta))
        out[: self.dim] += theta
        return out

    def shifted(self, sigma) -> "TorusEmbedding":
        """K o T_sigma as an embedding of the same form."""
        sigma = np.atleast_1d(np.asarray(sigma))
        coeffs = self.periodic.shift(sigma).coeffs.copy()
        center = (self.kmax,) * self.dim
        coeffs[center][: self.dim] += sigma
        return TorusEmbedding(FourierSeries(self.dim, self.kmax, coeffs))

    def with_correction(self, delta: FourierSeries) -> "TorusEmbedding":
        return TorusEmbedding(self.periodic + delta)

    def pad_to(self, kmax: int) -> "TorusEmbedding":
        return TorusEmbedding(self.periodic.pad_to(kmax))

    def distance(self, other: "TorusEmbedding", rho: float = 0.0) -> float:
        return (self.periodic - other.periodic).analytic_norm(rho)


def _series_and_dk(coeffs: np.ndarray):
    """The torus jet as one series with the order axis behind the mode axes,
    and the coefficients of its DK (the identity block in order 0's mean)."""
    d = coeffs.shape[-1] // 2
    kmax = (coeffs.shape[1] - 1) // 2
    # transpose: np.moveaxis has more overhead
    series = FourierSeries(d, kmax, coeffs.transpose(*range(1, d + 1), 0, d + 1))
    dk = np.stack([series.differentiate(j).coeffs for j in range(d)], axis=-1)
    dk[(kmax,) * d + (0,)][:d, :d] += np.eye(d)
    return series, dk


def _order_first(grid: np.ndarray, d: int) -> np.ndarray:
    """A grid jet with its order axis moved from behind the d grid axes to the front."""
    return np.ascontiguousarray(grid.transpose(d, *range(d), *range(d + 1, grid.ndim)))


def sample_dk(coeffs: np.ndarray, n: int) -> np.ndarray:
    """The DK grid jet of `sample_jet` alone, with the same values: the
    transforms act column by column."""
    series, dk = _series_and_dk(coeffs)
    return _order_first(to_grid(FourierSeries(series.dim, series.kmax, dk), n), series.dim)


def sample_jet(coeffs: np.ndarray, omega, n: int):
    """Grid jets (X, X o T_omega, DK) of the torus jet K(eps) = sum_j K_j eps^j.

    `coeffs` stacks the periodic parts K_j, shape (orders,) + (2 kmax + 1,)*d
    + (2d,); a single torus K is the order-0 jet `K.periodic.coeffs[None]`.
    The results lead with the order axis, then the (n,)*d grid.  K, its shift
    by omega and the d columns of DK come from one packed to_grid; the lifts
    theta and theta + omega, and DK's identity block (added to the mean
    coefficient before the transform), enter order 0 only.
    """
    series, dk = _series_and_dk(coeffs)
    d, kmax = series.dim, series.kmax
    parts = _packed(lambda c: to_grid(FourierSeries(d, kmax, c), n),
                    (series.coeffs, series.shift(omega).coeffs, dk), d)
    X, Xshift, DK = (_order_first(p, d) for p in parts)
    omega = np.atleast_1d(np.asarray(omega))
    for j, theta in enumerate(theta_grid(d, n)):
        X[0, ..., j] += theta
        Xshift[0, ..., j] += theta + omega[j]
    return X, Xshift, DK
