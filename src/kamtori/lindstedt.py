"""Power-series solutions of the invariance equation in the dissipation
parameter, around any base point eps0 where an exact torus is known.

Two engines are provided:

* `lindstedt_expand` builds the coefficients order by order: at order j a
  lam(eps0)-twisted and an untwisted difference equation are solved in the
  frame of the base torus, with the averaged 2d x 2d system fixing the drift
  coefficient (the (lam-1) entry is kept symbolic, so eps0 = 0, where the
  block is triangular, and eps0 != 0 share one code path).

* `lindstedt_double` performs one Newton step on the whole jet: frames,
  torsion and conformal factor are themselves jets, and a single step takes a
  jet whose residual vanishes through order N to one vanishing through
  2N + 1, leaving the already-exact lower orders unchanged.

Both engines use the reduced-system core of `newton`: the frame built from
jets (the pointwise Newton frame for `lindstedt_expand`, the frame jets for
`lindstedt_double`), the checked averaged block of the base torus, and
`solve_reduced` once per order on the right-hand side of that order.

Coefficients are normalized so that in the base frame the angle component of
every order has zero average; normalized jets are unique, which is what makes
the two engines agree coefficientwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import MAX_ORDER_DOUBLE
from .cohomology import DEFAULT_DIVISOR_FLOOR
from .embedding import TorusEmbedding
from .fourier import FourierSeries, dump_series, from_grid, load_series, to_grid
from .newton import (DEFAULT_DET_RTOL, _grid_size, _mean, build_frame,
                     checked_block, newton_frame, solve_reduced)


@dataclass(frozen=True)
class EpsilonJet:
    """Truncated power series (K(eps), mu(eps)) around eps0.

    K_coeffs[0] is the periodic part of the base embedding; higher orders are
    periodic correction series.  The actual embedding at eps is
    (theta + ..., ...) via `embedding_at`.
    """

    eps0: complex
    K_coeffs: tuple            # of (2d,)-valued FourierSeries
    mu_coeffs: np.ndarray      # (N+1, d) complex
    lambda_coeffs: np.ndarray  # (N+1,) complex

    @property
    def order(self) -> int:
        return len(self.K_coeffs) - 1

    @property
    def dim(self) -> int:
        return self.K_coeffs[0].dim

    @property
    def kmax(self) -> int:
        return self.K_coeffs[0].kmax

    def base_embedding(self) -> TorusEmbedding:
        return TorusEmbedding(self.K_coeffs[0])

    def embedding_at(self, eps) -> TorusEmbedding:
        de = complex(eps) - self.eps0
        acc = self.K_coeffs[-1].coeffs.astype(complex)
        for j in range(self.order - 1, -1, -1):
            acc = acc * de + self.K_coeffs[j].coeffs
        return TorusEmbedding(FourierSeries(self.dim, self.kmax, acc))

    def mu_at(self, eps) -> np.ndarray:
        return jets.poly_eval(self.mu_coeffs, complex(eps) - self.eps0)

    def truncated(self, order: int) -> "EpsilonJet":
        if order >= self.order:
            return self
        return EpsilonJet(self.eps0, self.K_coeffs[: order + 1],
                          np.array(self.mu_coeffs[: order + 1]),
                          np.array(self.lambda_coeffs[: order + 1]))

    def __sub__(self, other: "EpsilonJet") -> "EpsilonJet":
        """Coefficientwise difference (for comparing jets of one torus);
        the base points must agree."""
        if complex(other.eps0) != complex(self.eps0):
            raise ValueError(
                f"jet base points differ: {self.eps0} vs {other.eps0}")
        n = min(self.order, other.order)
        Ks = tuple(a - b for a, b in zip(self.K_coeffs[: n + 1],
                                         other.K_coeffs[: n + 1]))
        return EpsilonJet(self.eps0, Ks,
                          self.mu_coeffs[: n + 1] - other.mu_coeffs[: n + 1],
                          self.lambda_coeffs[: n + 1] - other.lambda_coeffs[: n + 1])


# -- jet arithmetic (thin public wrappers over the kernels) -------------------

def jet_add(a, b, order=None):
    a, b = np.asarray(a), np.asarray(b)
    n = (min(a.shape[0], b.shape[0]) - 1) if order is None else order
    return jets.pad(a, n) + jets.pad(b, n)


def jet_mul(a, b, order=None):
    """Cauchy product of coefficient jets (exact truncated algebra)."""
    return jets.cauchy(np.asarray(a), np.asarray(b), order=order)


def jet_compose_with_family(fam, jet: EpsilonJet):
    """Jet of f_{mu(eps),eps} o K(eps) on the sampling grid."""
    n = _grid_size(jet.kmax)
    x = _lift_jet(jet, n)
    return fam.jet_apply(x, jet.mu_coeffs, jet.eps0)


def _lift_jet(jet: EpsilonJet, n: int, order=None) -> np.ndarray:
    """Grid jet of the embedding lift; order 0 carries the identity part."""
    order = jet.order if order is None else order
    base = TorusEmbedding(jet.K_coeffs[0])
    x0 = base.lift_grid(n)
    out = np.zeros((order + 1,) + x0.shape, dtype=complex)
    out[0] = x0
    for j in range(1, min(order, jet.order) + 1):
        out[j] = to_grid(jet.K_coeffs[j], n)
    return out


def _shift_lift_jet(jet: EpsilonJet, omega, n: int, order=None) -> np.ndarray:
    order = jet.order if order is None else order
    base = TorusEmbedding(jet.K_coeffs[0])
    x0 = base.shifted_lift_grid(omega, n)
    out = np.zeros((order + 1,) + x0.shape, dtype=complex)
    out[0] = x0
    for j in range(1, min(order, jet.order) + 1):
        out[j] = to_grid(jet.K_coeffs[j].shift(omega), n)
    return out


def _avg_first_rows(Minv0, grid, d):
    return _mean((Minv0 @ grid[..., None])[..., 0], d)[:d]


# -- order-by-order engine ----------------------------------------------------

def lindstedt_expand(fam, K_base: TorusEmbedding, mu_base, omega, eps0, N: int,
                     divisor_floor=DEFAULT_DIVISOR_FLOOR,
                     det_rtol=DEFAULT_DET_RTOL,
                     base_tol: float = 1e-10) -> EpsilonJet:
    """Coefficients (K_j, mu_j), j <= N, of the normalized series at eps0.

    Requires an exact base solution (residual below base_tol) and the
    invertibility of the averaged block; for eps0 != 0 the twisted solves use
    the lam(eps0) divisors and may raise DivisorTooSmall.
    """
    if N > MAX_ORDER_DOUBLE:
        raise ValueError(
            f"order {N} beyond the double-precision cap {MAX_ORDER_DOUBLE}")
    d = K_base.dim
    mu_base = np.atleast_1d(np.asarray(mu_base, dtype=complex))
    fr = newton_frame(fam, K_base, mu_base, omega, eps0)
    kmax, n = fr.kmax, fr.n
    base_res = from_grid(fr.E[0], d, kmax).analytic_norm(0.0)
    if base_res > base_tol:
        raise ValueError(
            f"base residual {base_res:.3e} exceeds {base_tol:.1e}; "
            "the expansion needs an exact solution at eps0")
    core = checked_block(fr, divisor_floor, det_rtol)

    K_coeffs = [K_base.periodic]
    x0 = K_base.lift_grid(n)
    x_jet = np.zeros((N + 1,) + x0.shape, dtype=complex)
    x_jet[0] = x0
    mu_jet = np.zeros((N + 1, d), dtype=complex)
    mu_jet[0] = mu_base

    for j in range(1, N + 1):
        G = fam.jet_apply(x_jet[: j + 1], mu_jet[: j + 1], eps0)[j]
        Et = (fr.beta[0] @ (-G)[..., None])[..., 0]
        W1, W2, mu_j, _ = solve_reduced(core, Et[..., :d], Et[..., d:])
        Kj = from_grid((fr.M[0] @ np.concatenate([W1, W2], axis=-1)[..., None])[..., 0],
                       d, kmax)
        K_coeffs.append(Kj)
        x_jet[j] = to_grid(Kj, n)
        mu_jet[j] = mu_j

    return EpsilonJet(complex(eps0), tuple(K_coeffs), mu_jet, fam.lambda_jet(eps0, N))


# -- residual jet -------------------------------------------------------------

def residual_jet(fam, jet: EpsilonJet, omega, through: int | None = None):
    """Taylor coefficients of f_{mu(eps),eps} o K(eps) - K(eps) o T_omega
    around eps0, through order 2N+2 by default.

    Orders <= N must be at roundoff level for a valid jet; the leading tail
    order carries the asymptotic constant of the truncation error.
    """
    M = 2 * jet.order + 2 if through is None else through
    n = _grid_size(jet.kmax)
    x = _lift_jet(jet, n, order=M)
    mu = jets.pad(jet.mu_coeffs, M)
    G = fam.jet_apply(x, mu, jet.eps0)
    shift = _shift_lift_jet(jet, omega, n, order=M)
    return [from_grid(G[j] - shift[j], jet.dim, jet.kmax) for j in range(M + 1)]


def residual_jet_norms(fam, jet: EpsilonJet, omega, through: int | None = None):
    return np.array([r.analytic_norm(0.0)
                     for r in residual_jet(fam, jet, omega, through)])


def residual_tail_norm(fam, jet: EpsilonJet, omega, eps_values,
                       through: int | None = None):
    """Norm of the truncation defect sum_{j>N} r_j (eps-eps0)^j at each eps.

    Evaluating the Taylor tail instead of subtracting two O(1) lifts avoids
    the double-precision cancellation floor, so the scaling law stays visible
    down to defects of 1e-30 and below.
    """
    rs = residual_jet(fam, jet, omega, through)
    tail = rs[jet.order + 1:]
    out = []
    for eps in np.atleast_1d(eps_values):
        de = complex(eps) - jet.eps0
        acc = tail[-1].coeffs.astype(complex)
        for r in tail[-2::-1]:
            acc = acc * de + r.coeffs
        series = FourierSeries(jet.dim, jet.kmax, acc * de ** (jet.order + 1))
        out.append(series.analytic_norm(0.0))
    return np.array(out)


def residual_norm_direct(fam, jet: EpsilonJet, omega, eps) -> float:
    """Direct double-precision defect of the truncated polynomial at eps
    (cancellation-limited near 1e-15; used to cross-validate the tail form)."""
    from .newton import invariance_residual
    K = jet.embedding_at(eps)
    return invariance_residual(fam, K, jet.mu_at(eps), omega, eps).analytic_norm(0.0)


# -- quadratic (doubling) engine ----------------------------------------------

def _vector_jacobian(series: FourierSeries) -> FourierSeries:
    """(2d, d)-valued series of partial derivatives of a (2d,)-valued one."""
    cols = [series.differentiate(j).coeffs for j in range(series.dim)]
    return FourierSeries(series.dim, series.kmax, np.stack(cols, axis=-1))


def lindstedt_double(fam, jet: EpsilonJet, omega,
                     divisor_floor=DEFAULT_DIVISOR_FLOOR,
                     det_rtol=DEFAULT_DET_RTOL) -> EpsilonJet:
    """One Newton step on the jet: order N in, order 2N+1 out.

    All frame objects (DK, the normalization and torsion, the inverse frame
    and the conformal factor) are computed as jets; the corrections solve a
    twisted and an untwisted difference equation per order, with the same
    averaged block as the base torus.  Already-exact orders are reproduced up
    to roundoff, and the output is normalized in the base frame.
    """
    N = jet.order
    M_ord = 2 * N + 1
    if M_ord > MAX_ORDER_DOUBLE:
        raise ValueError(
            f"target order {M_ord} beyond the double-precision cap {MAX_ORDER_DOUBLE}")
    d, kmax = jet.dim, jet.kmax
    eps0 = jet.eps0
    n = _grid_size(kmax)

    x = _lift_jet(jet, n, order=M_ord)
    mu = jets.pad(jet.mu_coeffs, M_ord)
    lam = fam.lambda_jet(eps0, M_ord)
    E = fam.jet_apply(x, mu, eps0) - _shift_lift_jet(jet, omega, n, order=M_ord)
    dk = np.zeros((M_ord + 1,) + x.shape[1:-1] + (2 * d, d), dtype=complex)
    dk[0] = TorusEmbedding(jet.K_coeffs[0]).dk_grid(n)
    for j in range(1, N + 1):
        dk[j] = to_grid(_vector_jacobian(jet.K_coeffs[j]), n)
    fr = build_frame(fam.Jinv, lam, dk, E, fam.jet_jacobian(x, mu, eps0),
                     fam.jet_d_mu(x, mu, eps0), omega, kmax)
    # the averaged block of the (exact) order-0 torus serves every order
    core = checked_block(fr, divisor_floor, det_rtol)
    Minv0 = np.linalg.inv(fr.M[0])
    S, A1, A2 = fr.S, fr.A[..., :d, :], fr.A[..., d:, :]

    W1 = np.zeros((M_ord + 1,) + x.shape[1:-1] + (d,), dtype=complex)
    W2 = np.zeros_like(W1)
    sigma = np.zeros((M_ord + 1, d), dtype=complex)
    K_new = []
    mu_new = np.array(mu)

    for nn in range(M_ord + 1):
        rhs1 = -fr.Et[nn][..., :d]
        rhs2 = -fr.Et[nn][..., d:]
        for m in range(1, nn + 1):
            rhs2 = rhs2 - lam[m] * W2[nn - m] - (A2[m] @ sigma[nn - m][..., None])[..., 0]
            rhs1 = rhs1 - (S[m] @ W2[nn - m][..., None])[..., 0] \
                - (A1[m] @ sigma[nn - m][..., None])[..., 0]
        W1[nn], W2[nn], sigma[nn], _ = solve_reduced(core, rhs1, rhs2)

        # normalization in the base frame: zero average angle displacement
        Kn_grid = to_grid(jet.K_coeffs[nn], n) if nn <= N else \
            np.zeros(x.shape[1:], dtype=complex)
        corr = np.zeros(x.shape[1:], dtype=complex)
        for m in range(1, nn + 1):
            Wm = np.concatenate([W1[nn - m], W2[nn - m]], axis=-1)
            corr = corr + (fr.M[m] @ Wm[..., None])[..., 0]
        W1bar = -_avg_first_rows(Minv0, Kn_grid, d) - _avg_first_rows(Minv0, corr, d)
        W1[nn] = W1[nn] + W1bar

        Wn = np.concatenate([W1[nn], W2[nn]], axis=-1)
        delta = (fr.M[0] @ Wn[..., None])[..., 0] + corr
        K_new.append(from_grid(Kn_grid + delta, d, kmax))
        mu_new[nn] = mu_new[nn] + sigma[nn]

    return EpsilonJet(complex(eps0), tuple(K_new), mu_new, lam)


# -- jet files ----------------------------------------------------------------

def dump_jet(jet: EpsilonJet, fp) -> None:
    fp.write(f"# kamtori-jet d={jet.dim} kmax={jet.kmax} order={jet.order}\n")
    fp.write(f"# eps0 {jet.eps0.real:.17g} {jet.eps0.imag:.17g}\n")
    for label, arr in (("mu", jet.mu_coeffs), ("lambda", jet.lambda_coeffs)):
        flat = np.asarray(arr, dtype=complex).reshape(len(jet.K_coeffs), -1)
        for j, row in enumerate(flat):
            cells = " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row)
            fp.write(f"# {label}[{j}] {cells}\n")
    for series in jet.K_coeffs:
        dump_series(series, fp)


def load_jet(fp) -> EpsilonJet:
    head = fp.readline().split()
    meta = dict(tok.split("=") for tok in head[2:])
    order = int(meta["order"])
    eps_line = fp.readline().split()
    eps0 = complex(float(eps_line[2]), float(eps_line[3]))
    mu, lam = {}, {}
    for _ in range(2 * (order + 1)):
        toks = fp.readline().split()
        label = toks[1]
        vals = [float(t) for t in toks[2:]]
        row = np.array([complex(a, b) for a, b in zip(vals[0::2], vals[1::2])])
        if label.startswith("mu"):
            mu[int(label[3:-1])] = row
        else:
            lam[int(label[7:-1])] = row[0]
    K_coeffs = tuple(load_series(fp) for _ in range(order + 1))
    mu_arr = np.array([mu[j] for j in range(order + 1)])
    lam_arr = np.array([lam[j] for j in range(order + 1)])
    return EpsilonJet(eps0, K_coeffs, mu_arr, lam_arr)
