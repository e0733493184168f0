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
  2N + 1.  It solves only the new orders N+1..2N+1, each on its band; they
  read the frame jets through order N only, so those are all it builds.
  Orders <= N are returned as given, and an input not exact there (residual
  above BASE_TOL) is refused with a ValueError naming the order.

Both engines use the reduced-system core of `newton`: the frame built from
jets (the pointwise Newton frame for `lindstedt_expand`, the frame jets for
`lindstedt_double`), the checked averaged block of the base torus, and
`solve_reduced` once per order on the right-hand side of that order.  Jets
are sampled by `embedding.sample_jet`, all orders in one packed transform;
`lindstedt_double` and `residual_jet` take their grid jets back to series with
`_project`, one packed transform with each order cut to its band.

Coefficients are normalized so that in the base frame the angle component of
every order has zero average; normalized jets are unique, which is what makes
the two engines agree coefficientwise.

Band rule.  From the flat torus (order 0 constant in the angles) order j of
the series is a trigonometric polynomial of degree j * deg, deg being the
family's `degree`: each order adds at most one kick's worth of modes.  A jet
is *band-limited* when its order 0 is constant and no order j >= 1 has a
nonzero coefficient beyond |k|_inf <= j * deg; this is read from the
coefficients, never assumed.  For a band-limited input, `lindstedt_expand`,
`lindstedt_double` and `residual_jet` run at the cutoff B = min(kmax, M * deg),
M the highest order the call produces, on the one grid `_grid_size(B)`, and
project each output order j onto min(kmax, j * deg) before padding it back to
kmax.  The modes beyond the band then are exactly 0 instead of roundoff
amplified by the small divisors, and the result does not depend on kmax.
Bands are finite only from a flat base: for a base with u0 != 0,
sin 2 pi (theta + u0) and (DK^T DK)^-1 carry every mode, so a base of band
b0 > 0 saturates at kmax at once, not at b0 + j * deg.  Any input that is not
band-limited (every eps0 != 0 expansion, every Newton base, any jet with
out-of-band content) runs at B = kmax with no projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import MAX_ORDER_DOUBLE
from .cohomology import DEFAULT_DIVISOR_FLOOR
from .embedding import TorusEmbedding, sample_jet
from .fourier import (FourierSeries, _format_pairs, _parse_pairs, _read_header,
                      dump_series, from_grid, load_series, to_grid)
from .newton import (_evaluate, _grid_size, _mean, build_frame, checked_block,
                     newton_frame, solve_reduced)

BASE_TOL = 1e-10


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

    def embedding_at(self, eps) -> TorusEmbedding:
        acc = jets.poly_eval(np.stack([K.coeffs for K in self.K_coeffs]),
                             complex(eps) - self.eps0)
        return TorusEmbedding(FourierSeries(self.dim, self.kmax, acc))

    def mu_at(self, eps) -> np.ndarray:
        return jets.poly_eval(self.mu_coeffs, complex(eps) - self.eps0)

    def truncated(self, order: int) -> "EpsilonJet":
        if order >= self.order:
            return self
        return EpsilonJet(self.eps0, self.K_coeffs[: order + 1],
                          np.array(self.mu_coeffs[: order + 1]),
                          np.array(self.lambda_coeffs[: order + 1]))


def _within(series: FourierSeries, band: int) -> bool:
    """No nonzero coefficient beyond |k|_inf <= band."""
    return band >= series.kmax or np.array_equal(
        series.truncate(band).pad_to(series.kmax).coeffs, series.coeffs)


def _bands(fam, K_coeffs, order: int) -> list:
    """The mode band of each output order 0..order of a call on K_coeffs; the
    last one is the cutoff B the call computes at (the band rule of the
    module docstring)."""
    kmax = K_coeffs[0].kmax
    bands = [min(kmax, j * fam.degree) for j in range(order + 1)]
    if all(_within(K, b) for K, b in zip(K_coeffs, bands)):
        return bands
    return [kmax] * (order + 1)


def _evaluate_jet(fam, jet: EpsilonJet, omega, order: int):
    """The jet on the grid of a call producing orders 0..order: the bands of
    its output (the last is its cutoff B) and, on `_grid_size(B)`, the grid
    jets x = K, mu, DK, DK o T_omega and E = f_{mu,eps} o K - K o T_omega,
    zero beyond the jet's own order."""
    bands = _bands(fam, jet.K_coeffs, order)
    B = bands[-1]
    coeffs = np.stack([K.truncate(B).coeffs for K in jet.K_coeffs])
    x, xshift, dk, dkshift = (jets.pad(a, order)
                              for a in sample_jet(coeffs, omega, _grid_size(B)))
    mu = jets.pad(jet.mu_coeffs, order)
    return bands, x, mu, dk, dkshift, fam.jet_apply(x, mu, jet.eps0) - xshift


def _project(grids: np.ndarray, d: int, B: int, bands, kmax: int) -> list:
    """The series of a grid jet (order on the leading axis, sampled at
    cutoff B): one packed from_grid over all orders, then order j cut to
    bands[j] and padded to kmax."""
    coeffs = np.moveaxis(from_grid(np.moveaxis(grids, 0, d), d, B).coeffs, d, 0)
    out = np.zeros((len(bands),) + (2 * kmax + 1,) * d + coeffs.shape[d + 1:],
                   dtype=complex)
    for j, b in enumerate(bands):
        out[(j,) + (slice(kmax - b, kmax + b + 1),) * d] = \
            coeffs[(j,) + (slice(B - b, B + b + 1),) * d]
    return [FourierSeries(d, kmax, c) for c in out]


# -- order-by-order engine ----------------------------------------------------

def lindstedt_expand(fam, K_base: TorusEmbedding, mu_base, omega, eps0, N: int,
                     divisor_floor=DEFAULT_DIVISOR_FLOOR) -> EpsilonJet:
    """Coefficients (K_j, mu_j), j <= N, of the normalized series at eps0.

    Requires an exact base solution (residual below BASE_TOL) and the
    invertibility of the averaged block; for eps0 != 0 the twisted solves use
    the lam(eps0) divisors and may raise DivisorTooSmall.
    """
    if N > MAX_ORDER_DOUBLE:
        raise ValueError(
            f"order {N} beyond the double-precision cap {MAX_ORDER_DOUBLE}")
    d, kmax = K_base.dim, K_base.kmax
    mu_base = np.atleast_1d(np.asarray(mu_base, dtype=complex))
    bands = _bands(fam, (K_base.periodic,), N)
    B = bands[-1]
    K_cut = TorusEmbedding(K_base.periodic.truncate(B))
    ev = _evaluate(fam, K_cut, mu_base, omega, eps0)
    fr = newton_frame(fam, ev, mu_base, omega, eps0)
    base_res = ev.series.analytic_norm(0.0)
    if base_res > BASE_TOL:
        raise ValueError(
            f"base residual {base_res:.3e} exceeds {BASE_TOL:.1e}; "
            "the expansion needs an exact solution at eps0")
    core = checked_block(fr, divisor_floor)

    K_coeffs = [K_base.periodic]
    x_jet = jets.pad(ev.X[None], N)
    mu_jet = np.zeros((N + 1, d), dtype=complex)
    mu_jet[0] = mu_base

    for j in range(1, N + 1):
        G = fam.jet_apply(x_jet[: j + 1], mu_jet[: j + 1], eps0)[j]
        Et = jets.mm(fr.beta[0], (-G)[..., None])[..., 0]
        W1, W2, mu_j, _ = solve_reduced(core, Et[..., :d], Et[..., d:], B)
        Kj = from_grid(jets.mm(fr.M[0], np.concatenate([W1, W2], axis=-1)[..., None])[..., 0],
                       d, B).truncate(bands[j])
        K_coeffs.append(Kj.pad_to(kmax))
        x_jet[j] = to_grid(Kj, fr.n)
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
    bands, *_, E = _evaluate_jet(fam, jet.truncated(M), omega, M)
    return _project(E, jet.dim, bands[-1], bands, jet.kmax)


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
    tail = np.stack([r.coeffs for r in rs[jet.order + 1:]])
    out = []
    for eps in np.atleast_1d(eps_values):
        de = complex(eps) - jet.eps0
        acc = jets.poly_eval(tail, de)
        series = FourierSeries(jet.dim, jet.kmax, acc * de ** (jet.order + 1))
        out.append(series.analytic_norm(0.0))
    return np.array(out)


# -- quadratic (doubling) engine ----------------------------------------------

def lindstedt_double(fam, jet: EpsilonJet, omega,
                     divisor_floor=DEFAULT_DIVISOR_FLOOR) -> EpsilonJet:
    """One Newton step on the jet: order N in, order 2N+1 out.

    All frame objects (DK, the normalization and torsion, the inverse frame
    and the conformal factor) are computed as jets through order N, all that
    the new orders read; each new order N+1..2N+1 solves a twisted and an
    untwisted difference equation on its own band, with the same averaged
    block as the base torus, and is normalized in the base frame.  Orders
    <= N are returned as given, so the input must be exact there: a
    ValueError names the first order whose residual exceeds BASE_TOL on the
    grid.
    """
    N, M_ord = jet.order, 2 * jet.order + 1
    if M_ord > MAX_ORDER_DOUBLE:
        raise ValueError(
            f"target order {M_ord} beyond the double-precision cap {MAX_ORDER_DOUBLE}")
    d, kmax, eps0 = jet.dim, jet.kmax, jet.eps0
    bands, x, mu, dk, dkshift, E = _evaluate_jet(fam, jet, omega, M_ord)
    B = bands[-1]
    lam = fam.lambda_jet(eps0, M_ord)
    x0, mu0 = x[:N + 1], mu[:N + 1]
    fr = build_frame(lam[:N + 1], dk[:N + 1], dkshift[:N + 1],
                     fam.jet_jacobian(x0, mu0, eps0), fam.jet_d_mu(x0, mu0, eps0), omega, B)
    # the averaged block of the (exact) order-0 torus serves every order
    core = checked_block(fr, divisor_floor)
    for j in range(N + 1):
        sup = float(np.max(np.abs(E[j])))
        if not sup <= BASE_TOL:
            raise ValueError(f"input order {j} is not exact: its residual reaches "
                             f"{sup:.3e} on the grid, above {BASE_TOL:.1e}")
    Minv0 = jets.inv_stack(fr.M[0])
    # beta E through 2N+1 drops only beta[m > N] E[<= N], bounded by the guard
    Et = jets.matmul(fr.beta, E[..., None], order=M_ord)[..., 0]
    S, A1, A2 = fr.S, fr.A[..., :d, :], fr.A[..., d:, :]

    # W = (W1, W2) and the drift correction vanish at orders <= N, so order nn
    # sums only m < nn - N; its drift correction is the new mu[nn]
    W = np.zeros(x.shape, dtype=complex)
    K_grid = np.empty_like(x)
    mu_new = np.array(mu)

    for nn in range(N + 1, M_ord + 1):
        rhs1, rhs2 = -Et[nn][..., :d], -Et[nn][..., d:]
        corr = np.zeros(x.shape[1:], dtype=complex)
        for m in range(1, nn - N):
            W2m, sig = W[nn - m][..., d:], mu_new[nn - m][:, None]
            rhs2 = rhs2 - lam[m] * W2m - jets.mm(A2[m], sig)[..., 0]
            rhs1 = rhs1 - jets.mm(S[m], W2m[..., None])[..., 0] - jets.mm(A1[m], sig)[..., 0]
            corr = corr + jets.mm(fr.M[m], W[nn - m][..., None])[..., 0]
        W1, W2, mu_new[nn], _ = solve_reduced(core, rhs1, rhs2, bands[nn])
        # normalization in the base frame: zero average angle displacement
        W1 = W1 - _mean(jets.mm(Minv0, corr[..., None])[..., 0], d)[:d]
        W[nn] = np.concatenate([W1, W2], axis=-1)
        K_grid[nn] = jets.mm(fr.M[0], W[nn][..., None])[..., 0] + corr

    new = _project(K_grid[N + 1:], d, B, bands[N + 1:], kmax)
    return EpsilonJet(complex(eps0), tuple(jet.K_coeffs) + tuple(new), mu_new, lam)


# -- jet files ----------------------------------------------------------------

def dump_jet(jet: EpsilonJet, fp) -> None:
    """Write `jet` in the text form of `fourier`: its header lines (eps0 and
    every mu[j] and lambda[j]), then the series tables K_0 .. K_N."""
    fp.write(f"# kamtori-jet d={jet.dim} kmax={jet.kmax} order={jet.order}\n")
    fp.write(f"# eps0 {_format_pairs(jet.eps0)}\n")
    for label, arr in (("mu", jet.mu_coeffs), ("lambda", jet.lambda_coeffs)):
        for j, row in enumerate(arr):
            fp.write(f"# {label}[{j}] {_format_pairs(row)}\n")
    for series in jet.K_coeffs:
        dump_series(series, fp)


def load_jet(fp) -> EpsilonJet:
    head = _read_header(fp)
    order = int(dict(tok.split("=") for tok in head["kamtori-jet"])["order"])
    orders = range(order + 1)
    return EpsilonJet(complex(_parse_pairs(head["eps0"])[0]),
                      tuple(load_series(fp) for _ in orders),
                      np.array([_parse_pairs(head[f"mu[{j}]"]) for j in orders]),
                      np.array([_parse_pairs(head[f"lambda[{j}]"])[0] for j in orders]))
