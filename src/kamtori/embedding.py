"""Torus embeddings K(theta) = (theta + u(theta), v(theta)) into T^d x R^d.

The angle block is the identity plus a periodic correction u, the action
block a periodic function v; both are carried as one (2d,)-valued Fourier
series.  All evaluations work on the universal cover (continuous lifts), so
differences of embeddings are genuinely periodic and free of mod-1 jumps.

`sample_jet` samples tori and torus jets on the grid for the Newton solver,
the invariance residual and both Lindstedt engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import (FourierSeries, _sample, angle_axis, derivative_factors,
                      shift_phases, zero_spectrum)


@dataclass(frozen=True)
class TorusEmbedding:
    """K(theta) = (theta + u, v) from its (2d,)-valued periodic part (u, v)."""

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

    def distance(self, other: "TorusEmbedding") -> float:
        return (self.periodic - other.periodic).analytic_norm(0.0)


def sample_jet(coeffs: np.ndarray, omega, n: int, *, lifts: bool = True,
               dk: bool = True, real: bool = False) -> tuple:
    """Grid jets of the torus jet K(eps) = sum_j K_j eps^j: the lifts X and
    X o T_omega if `lifts`, then DK and DK o T_omega if `dk`; with omega
    None the shifted blocks are left out.

    `coeffs` stacks the periodic parts K_j, shape (orders,) + (2 kmax + 1,)*d
    + (2d,); a single torus K is the order-0 jet `K.periodic.coeffs[None]`.
    The results are grid jets (orders, 2d, n^d) and (orders, 2d, d, n^d),
    bit for bit the samples of the series that `FourierSeries.shift` and
    `differentiate` give.  One inverse transform samples them into one
    buffer, of which each is a view with a contiguous point axis.  The
    samples are complex128, or with `real` (Hermitian series and a real
    omega) float64, as by `to_grid(..., real=True)`.
    """
    orders, d = coeffs.shape[0], coeffs.shape[-1] // 2
    kmax, copies = (coeffs.shape[1] - 1) // 2, 1 if omega is None else 2
    lift_rows, rows = (copies * orders * 2 * d * k for k in (lifts, lifts + d * dk))
    spec, blocks = zero_spectrum((rows,), d, kmax, n, real)
    # (copies, orders, ..) blocks of rows; a block left out has no copies
    lift = spec[:lift_rows].reshape((-1, orders, 2 * d) + spec.shape[1:])
    jac = spec[lift_rows:].reshape((-1, orders, 2 * d, d) + spec.shape[1:])
    box = coeffs.transpose(0, d + 1, *range(1, d + 1))
    phases = [] if omega is None else [shift_phases(kmax, w) for w in np.atleast_1d(omega)]
    along = [(-1,) + (1,) * (d - 1 - j) for j in range(d)]   # 1-D table shapes per mode axis
    for b, fft in blocks:
        c = box[b]
        bins = lift[fft] if lifts else np.empty((copies,) + c.shape, dtype=complex)
        bins[0] = c
        for j, p in enumerate(phases):
            np.multiply(bins[1] if j else c, p[b[1 + j]].reshape(along[j]), out=bins[1])
        for j in range(d if dk else 0):
            np.multiply(bins, derivative_factors(kmax)[b[1 + j]].reshape(along[j]),
                        out=jac[:, :, :, j][fft])
    jac[(slice(None), 0, slice(None, d), slice(None)) + (0,) * d] += np.eye(d)

    grid = _sample(spec, d, n, real)
    X = grid[:lift_rows].reshape((-1, orders, 2 * d, n ** d))
    DK = grid[lift_rows:].reshape((-1, orders, 2 * d, d, n ** d))
    for j in range(d if lifts else 0):
        theta = angle_axis(n).reshape((1,) * j + (n,) + (1,) * (d - 1 - j))
        X[0, 0, j].reshape((n,) * d)[...] += theta
        if omega is not None:
            X[1, 0, j].reshape((n,) * d)[...] += theta + np.atleast_1d(omega)[j]
    return tuple(X) + tuple(DK)
