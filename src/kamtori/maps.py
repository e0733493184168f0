"""Conformally symplectic map families f_{mu,eps} on T^d x R^d.

A family transports the symplectic form to lam(eps) times itself,
Df^T J Df = lam(eps) J pointwise, with lam(eps) = 1 + alpha*eps^a + ...
and lam(0) = 1.  The dissipative standard map is the one family built in.

A family is duck-typed: the solver layers read only these names, and every
method is vectorized over the leading axes of its phase (or jet) array, with
lift semantics for the angle part.

    dim, J            d and the 2d x 2d structure matrix (`verify_conformal`;
                      callers of `newton.lagrangian_defect` pass J)
    alpha, a          lam(eps) = 1 + alpha eps^a + ... (`atlas`'s epsilon-plane balls)
    degree            trigonometric degree in the angles: from the flat torus,
                      order j of a Lindstedt series has no mode beyond
                      |k|_inf <= j * degree (`lindstedt`)
    lambda_eps(eps)   lam (`newton`, `atlas`, `verify_conformal`)
    apply, jacobian, d_mu (x, mu, eps)
                      f, Df and df/dmu at phase points (`newton`;
                      `verify_conformal` reads jacobian)
    lambda_jet(eps0, order)
                      the jet of lam in eps about eps0, whose order-1
                      coefficient is lam' (`lindstedt`, `atlas`)
    jet_apply, jet_jacobian, jet_d_mu (x_jet, mu_jet, eps0)
                      f, Df and df/dmu as jets in eps about eps0 (`lindstedt`)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import jets
from .embedding import TorusEmbedding


def symplectic_matrix(d: int) -> np.ndarray:
    """Constant structure matrix with blocks [[0, I], [-I, 0]].

    With phase points ordered (angles, actions) this sign choice makes the
    torsion of the unperturbed twist family equal +1.
    """
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    return J


def jinv_mul(x: np.ndarray) -> np.ndarray:
    """J^-1 x for a stack of (2d, k) matrices: J^-1 = J^T = [[0, -I], [I, 0]]
    is a signed block swap of the rows, equal in value to the product."""
    d = x.shape[-2] // 2
    return np.concatenate([-x[..., d:, :], x[..., :d, :]], axis=-2)


def mul_jinv(x: np.ndarray) -> np.ndarray:
    """x J^-1 for a stack of (k, 2d) matrices: a signed block swap of the columns."""
    d = x.shape[-1] // 2
    return np.concatenate([x[..., d:], -x[..., :d]], axis=-1)


def verify_conformal(fam, sample_count: int, eps, rng=None) -> float:
    """Max over random phase points of |Df^T J Df - lam(eps) J| (Frobenius)."""
    rng = np.random.default_rng(0) if rng is None else rng
    d = fam.dim
    x = np.empty((sample_count, 2 * d))
    x[:, :d] = rng.random((sample_count, d))
    x[:, d:] = rng.uniform(-1.5, 1.5, (sample_count, d))
    Df = fam.jacobian(x.astype(complex), np.zeros(d), eps)
    J = fam.J
    defect = jets.mm(jets.mm(np.swapaxes(Df, -1, -2), J), Df) - fam.lambda_eps(eps) * J
    return float(np.max(np.sqrt(np.sum(np.abs(defect) ** 2, axis=(-2, -1)))))


@dataclass(frozen=True)
class DissipativeStandardMap:
    """Kicked twist map with conformal dissipation on T x R:

        y' = lam(eps) * y + mu + eps * kappa * sin(2 pi x) / (2 pi)
        x' = x + y'

    with lam(eps) = 1 + alpha * eps^a.  The action Jacobian carries the
    factor lam, so Df^T J Df = lam J holds exactly in exact arithmetic.
    At eps = 0 the family is the integrable symplectic twist map and
    K(theta) = (theta, omega), mu = 0 solves the invariance equation.
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

    def _kick(self, x, eps):
        return eps * self.kappa * np.sin(2 * np.pi * x) / (2 * np.pi)

    def apply(self, x, mu, eps):
        x = np.asarray(x)
        lam = self.lambda_eps(eps)
        mu = np.atleast_1d(mu)[0] if np.ndim(mu) else mu
        ynew = lam * x[..., 1] + mu + self._kick(x[..., 0], eps)
        xnew = x[..., 0] + ynew
        return np.stack([xnew, ynew], axis=-1)

    def jacobian(self, x, mu, eps):
        x = np.asarray(x)
        lam = self.lambda_eps(eps)
        c = eps * self.kappa * np.cos(2 * np.pi * x[..., 0])
        out = np.empty(x.shape[:-1] + (2, 2), dtype=np.result_type(x.dtype, type(lam)))
        out[..., 0, 0] = 1.0 + c
        out[..., 0, 1] = lam
        out[..., 1, 0] = c
        out[..., 1, 1] = lam
        return out

    def d_mu(self, x, mu, eps):
        x = np.asarray(x)
        out = np.ones(x.shape[:-1] + (2, 1), dtype=complex)
        return out

    # -- jets ---------------------------------------------------------------

    def jet_apply(self, x_jet, mu_jet, eps0):
        x_jet = np.asarray(x_jet)
        order = x_jet.shape[0] - 1
        a, b = x_jet[..., 0], x_jet[..., 1]
        lamj = self.lambda_jet(eps0, order)
        epsj = jets.variable(eps0, order)
        s, _ = jets.sincos(a)
        kick = self.kappa / (2 * np.pi) * jets.cauchy(_expand(epsj, s), s, order=order)
        ynew = jets.cauchy(_expand(lamj, b), b, order=order) \
            + _expand(np.asarray(mu_jet)[:, 0], b) + kick
        xnew = a + ynew
        return np.stack([xnew, ynew], axis=-1)

    def jet_jacobian(self, x_jet, mu_jet, eps0):
        x_jet = np.asarray(x_jet)
        order = x_jet.shape[0] - 1
        a = x_jet[..., 0]
        lamj = self.lambda_jet(eps0, order)
        epsj = jets.variable(eps0, order)
        _, c = jets.sincos(a)
        ck = self.kappa * jets.cauchy(_expand(epsj, c), c, order=order)
        out = np.zeros(x_jet.shape[:-1] + (2, 2), dtype=complex)
        out[..., 0, 0] = ck
        out[0, ..., 0, 0] += 1.0
        out[..., 1, 0] = ck
        lam_bc = lamj.reshape((order + 1,) + (1,) * (out.ndim - 3))
        out[..., 0, 1] = lam_bc * np.ones_like(ck)
        out[..., 1, 1] = lam_bc * np.ones_like(ck)
        return out

    def jet_d_mu(self, x_jet, mu_jet, eps0):
        x_jet = np.asarray(x_jet)
        out = np.zeros(x_jet.shape[:-1] + (2, 1), dtype=complex)
        out[0] = 1.0
        return out

    def unperturbed_torus(self, omega, kmax: int):
        """Exact solution at eps = 0: the flat circle and zero drift."""
        return TorusEmbedding.circle(omega, kmax), np.zeros(self.dim, dtype=complex)


def _expand(coeff_jet, like):
    """Broadcast a (N+1,) coefficient jet against a (N+1, grid...) jet."""
    coeff_jet = np.asarray(coeff_jet, dtype=complex)
    return coeff_jet.reshape(coeff_jet.shape + (1,) * (like.ndim - 1))

