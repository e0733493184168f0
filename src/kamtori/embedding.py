"""Torus embeddings K(theta) = (theta + u(theta), v(theta)) into T^d x R^d.

The angle block is the identity plus a periodic correction u, the action
block a periodic function v; both are carried as one (2d,)-valued Fourier
series.  All evaluations work on the universal cover (continuous lifts), so
differences of embeddings are genuinely periodic and free of mod-1 jumps.

`sample_jet` is the one place where tori and torus jets meet the grid: the
Newton solver and both Lindstedt engines evaluate the invariance equation on
the lifts it samples and build their frames from its DK and DK o T_omega.
Each caller chooses the blocks it reads (the lifts, DK, and whether each
comes with its shift by omega), and all the chosen blocks of all orders are
sampled by one `to_grid` into one buffer, each block a row-slice view of it
(no copy): a Newton step takes all four, the invariance residual and
`lindstedt.residual_jet` the lifts and their shifts,
`newton.normalize_embedding` the unshifted lift and DK, and
`newton.lagrangian_defect` DK alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import FourierSeries, angle_axis, grid_columns, to_grid


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

    def distance(self, other: "TorusEmbedding") -> float:
        return (self.periodic - other.periodic).analytic_norm(0.0)


def _series(coeffs: np.ndarray) -> FourierSeries:
    """The torus jet as one series with the order axis behind the mode axes."""
    d = coeffs.shape[-1] // 2
    # transpose: np.moveaxis has more overhead
    return FourierSeries(d, (coeffs.shape[1] - 1) // 2,
                         coeffs.transpose(*range(1, d + 1), 0, d + 1))


def _dk(series: FourierSeries) -> FourierSeries:
    """The DK jet of a torus jet series (the identity block in order 0's mean)."""
    d, kmax = series.dim, series.kmax
    dk = np.empty(series.coeffs.shape + (d,), dtype=complex)
    for j in range(d):
        dk[..., j] = series.differentiate(j).coeffs
    dk[(kmax,) * d + (0,)][:d, :d] += np.eye(d)
    return FourierSeries(d, kmax, dk)


def sample_jet(coeffs: np.ndarray, omega, n: int, *, lifts: bool = True,
               dk: bool = True, real: bool = False) -> tuple:
    """Grid jets of the torus jet K(eps) = sum_j K_j eps^j: the lifts X and
    X o T_omega if `lifts`, then DK and DK o T_omega if `dk`; with omega
    None the shifted blocks are left out.

    `coeffs` stacks the periodic parts K_j, shape (orders,) + (2 kmax + 1,)*d
    + (2d,); a single torus K is the order-0 jet `K.periodic.coeffs[None]`.
    The results are grid jets (orders, 2d, n^d) and (orders, 2d, d, n^d).
    The chosen blocks (K, its shift by omega, and the d columns of DK and of
    DK o T_omega, the derivative of the shifted series) come from one
    to_grid, each a view of a block of rows of its buffer, with a contiguous
    point axis; the lifts theta and theta + omega, and DK's identity block
    (added to the mean coefficient before the transform), enter order 0 only.
    The samples are complex128, or with `real` (a jet of Hermitian series and
    a real omega; the Newton solver reads that off its problem) float64,
    sampled by `to_grid(..., real=True)`.
    """
    series = _series(coeffs)
    d = series.dim
    base = (series,) if omega is None else (series, series.shift(omega))
    blocks = (base if lifts else ()) + (tuple(_dk(s) for s in base) if dk else ())
    out = grid_columns(to_grid(blocks, n, real=real), blocks)
    if lifts:
        for j in range(d):
            theta = angle_axis(n).reshape((1,) * j + (n,) + (1,) * (d - 1 - j))
            out[0][0, j].reshape((n,) * d)[...] += theta
            if omega is not None:
                out[1][0, j].reshape((n,) * d)[...] += theta + np.atleast_1d(omega)[j]
    return tuple(out)
