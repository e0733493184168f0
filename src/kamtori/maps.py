"""Conformally symplectic map families f_{mu,eps} on T^d x R^d.

A family transports the symplectic form to lam(eps) times itself,
Df^T J Df = lam(eps) J pointwise, with lam(eps) = 1 + alpha*eps^a + ...
and lam(0) = 1.  The dissipative standard map is the one family built in.

A family is duck-typed: the solver reads only the names below.  Newton
reads the pointwise f, Df and df/dmu, the Lindstedt engines only the jets
and `lambda_jet` (and `lambda_eps` in the start check).  Phase points have
their 2d components on the leading axis (after a jet's order axis) and are
vectorized over the trailing axes, with lift semantics for the angles: a
point is (2d,), a grid stack (2d, points), a grid jet (orders, 2d,
points); Df is (2d, 2d, ...) and df/dmu (2d, d, ...).  Values may be
complex128, or float64 at real points; the dtype of df/dmu follows the points
and eps alone, so it is float64 at real points and a real eps even where
lam(eps) is complex.  For a real problem the Newton solver passes real
points, mu and eps and takes the real part of f, Df and df/dmu.
`lambda_eps` and `lambda_jet` return complex values.

    dim, J            d and the 2d x 2d structure matrix
    alpha, a          lam(eps) = 1 + alpha eps^a + ...
    degree            trigonometric degree in the angles: from the flat torus,
                      order j of a Lindstedt series has no mode beyond
                      |k|_inf <= j * degree
    lambda_eps(eps)   lam
    apply, jacobian, d_mu (x, mu, eps)
                      f, Df and df/dmu at phase points
    lambda_jet(eps0, order)
                      the jet of lam in eps about eps0
    jet_apply, jet_jacobian, jet_d_mu (x_jet, mu_jet, eps0)
                      f, Df and df/dmu as jets in eps about eps0;
                      jet_apply(..., work=w), called with one dict w on jets
                      that grow by one order per call and change between
                      calls only at the last call's last order, returns its
                      last order alone (a one-order jet)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import jets
from .embedding import TorusEmbedding


def symplectic_matrix(d: int) -> np.ndarray:
    """Constant structure matrix [[0, I], [-I, 0]]; with phase points ordered
    (angles, actions) the unperturbed twist family has torsion +1."""
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    return J


def jinv_mul(x: np.ndarray) -> np.ndarray:
    """J^-1 x for a stack (2d, k, points): J^-1 = J^T = [[0, -I], [I, 0]]
    is a signed block swap of the rows, equal in value to the product."""
    d = x.shape[-3] // 2
    return np.concatenate([-x[..., d:, :, :], x[..., :d, :, :]], axis=-3)


def mul_jinv(x: np.ndarray) -> np.ndarray:
    """x J^-1 for a stack (k, 2d, points): a signed block swap of the columns."""
    d = x.shape[-2] // 2
    return np.concatenate([x[..., d:, :], -x[..., :d, :]], axis=-2)


def verify_conformal(fam, sample_count: int, eps, rng=None) -> float:
    """Max over random phase points of |Df^T J Df - lam(eps) J| (Frobenius)."""
    rng = np.random.default_rng(0) if rng is None else rng
    d = fam.dim
    x = np.empty((2 * d, sample_count))
    x[:d] = rng.random((sample_count, d)).T
    x[d:] = rng.uniform(-1.5, 1.5, (sample_count, d)).T
    Df = fam.jacobian(x.astype(complex), np.zeros(d), eps)
    J = fam.J[..., None]
    defect = jets.mm(jets.mm(np.swapaxes(Df, -3, -2), J), Df) - fam.lambda_eps(eps) * J
    return float(np.max(np.sqrt(np.sum(np.abs(defect) ** 2, axis=(0, 1)))))


@dataclass(frozen=True)
class DissipativeStandardMap:
    """Kicked twist map with conformal dissipation on T x R:

        y' = lam(eps) * y + mu + eps * kappa * sin(2 pi x) / (2 pi)
        x' = x + y'

    with lam(eps) = 1 + alpha * eps^a, so Df^T J Df = lam J.  At eps = 0,
    K(theta) = (theta, omega) and mu = 0 solve the invariance equation.  At
    real points it returns float64 when eps, mu and lam(eps) are real.
    """

    kappa: float = 0.5
    alpha: complex = 1.0
    a: int = 1
    dim: ClassVar[int] = 1
    degree: ClassVar[int] = 1

    @property
    def J(self) -> np.ndarray:
        return symplectic_matrix(self.dim)

    def lambda_eps(self, eps):
        return 1.0 + self.alpha * np.asarray(eps, dtype=complex) ** self.a

    def lambda_jet(self, eps0, order: int) -> np.ndarray:
        out = np.zeros(order + 1, dtype=complex)
        out[0] = 1.0
        for n in range(0, min(order, self.a) + 1):
            out[n] += self.alpha * math.comb(self.a, n) * complex(eps0) ** (self.a - n)
        return out

    # -- pointwise ----------------------------------------------------------

    def _lam(self, x, eps):
        """lam(eps) as the points x take it: real at real points when it is real."""
        lam = self.lambda_eps(eps)
        return lam.real if x.dtype.kind != "c" and lam.imag == 0 else lam

    def _kick(self, x, eps):
        return eps * self.kappa * np.sin(2 * np.pi * x) / (2 * np.pi)

    def apply(self, x, mu, eps):
        x = np.asarray(x)
        lam = self._lam(x, eps)
        mu = np.atleast_1d(mu)[0] if np.ndim(mu) else mu
        ynew = lam * x[1] + mu + self._kick(x[0], eps)
        return np.array([x[0] + ynew, ynew])

    def jacobian(self, x, mu, eps):
        x = np.asarray(x)
        lam = self._lam(x, eps)
        c = eps * self.kappa * np.cos(2 * np.pi * x[0])
        out = np.empty((2, 2) + x.shape[1:], dtype=np.result_type(c, lam))
        out[0, 0] = 1.0 + c
        out[1, 0] = c
        out[:, 1] = lam
        return out

    def d_mu(self, x, mu, eps):
        x = np.asarray(x)
        return np.ones((2, 1) + x.shape[1:], dtype=np.result_type(x.dtype, eps, np.float64))

    # -- jets ---------------------------------------------------------------

    def jet_apply(self, x_jet, mu_jet, eps0, *, work=None):
        x_jet = np.asarray(x_jet)
        order = x_jet.shape[0] - 1
        lo = 0 if work is None else order
        a, b = x_jet[:, 0], x_jet[:, 1]
        s, c = jets.sincos(a, None if work is None else work.get("sincos"))
        if work is not None:
            work["sincos"] = (s, c)
        # eps and lam(eps) are polynomials: their orders through the degree
        kick = self.kappa / (2 * np.pi) * jets.cauchy(
            _expand(jets.variable(eps0, 1), s), s, order=order, start=lo)
        ynew = jets.cauchy(_expand(self.lambda_jet(eps0, self.a), b), b, order=order,
                           start=lo) + _expand(np.asarray(mu_jet)[lo:, 0], b) + kick
        return np.stack([a[lo:] + ynew, ynew], axis=1)

    def jet_jacobian(self, x_jet, mu_jet, eps0):
        x_jet = np.asarray(x_jet)
        order = x_jet.shape[0] - 1
        a = x_jet[:, 0]
        lamj = self.lambda_jet(eps0, order)
        _, c = jets.sincos(a)
        ck = self.kappa * jets.cauchy(_expand(jets.variable(eps0, 1), c), c, order=order)
        out = np.zeros((order + 1, 2, 2) + x_jet.shape[2:], dtype=complex)
        out[:, 0, 0] = ck
        out[0, 0, 0] += 1.0
        out[:, 1, 0] = ck
        lam_bc = lamj.reshape((order + 1,) + (1,) * (out.ndim - 3))
        out[:, 0, 1] = lam_bc * np.ones_like(ck)
        out[:, 1, 1] = lam_bc * np.ones_like(ck)
        return out

    def jet_d_mu(self, x_jet, mu_jet, eps0):
        x_jet = np.asarray(x_jet)
        out = np.zeros(x_jet.shape[:1] + (2, 1) + x_jet.shape[2:], dtype=complex)
        out[0] = 1.0
        return out

    def unperturbed_torus(self, omega, kmax: int):
        """Exact solution at eps = 0: the flat circle and zero drift."""
        return TorusEmbedding.circle(omega, kmax), np.zeros(self.dim, dtype=complex)


def _expand(coeff_jet, like):
    """Broadcast a (N+1,) coefficient jet against a (N+1, grid...) jet."""
    coeff_jet = np.asarray(coeff_jet, dtype=complex)
    return coeff_jet.reshape(coeff_jet.shape + (1,) * (like.ndim - 1))

