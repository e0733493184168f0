"""Lindstedt series of the invariance equation in the dissipation
parameter: power series (K(eps), mu(eps)) about a base point eps0 where an
exact torus is known.

`lindstedt_expand` solves order by order.  `lindstedt_double` takes a jet
whose residual vanishes through order N to one vanishing through 2N + 1, by
one Newton step on the whole jet, and returns orders <= N as given.  Both
solve each order with `newton`'s reduced system on the base torus's frame.
The series is normalized: in the base frame the angle component of every
order has zero average.  Normalized jets are unique, so the two engines
agree coefficientwise.

Both engines begin with one start (`_start`; the expansion's base is an
order-0 jet) and check their input orders by one rule (`_check_exact`).
They read the family's jets, `degree` and `lambda_eps`, never its
pointwise f, Df or df/dmu.

Band rule.  From the flat torus (order 0 constant in the angles) order j of
the series is a trigonometric polynomial of degree j * deg, deg being the
family's `degree`.  A jet is band-limited when its order 0 is constant and
no order j >= 1 has a nonzero coefficient beyond |k|_inf <= j * deg; this
is read from the coefficients, never assumed.  For a band-limited input,
`lindstedt_expand`, `lindstedt_double` and `residual_jet` compute at the
cutoff B = min(kmax, M * deg), M the highest order the call produces, on
the grid `_grid_size(B)`, and output order j is exactly 0 beyond
min(kmax, j * deg), so the result does not depend on kmax.  Any other input
(every eps0 != 0 expansion, every Newton base) runs at B = kmax with no
projection.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import MAX_ORDER_DOUBLE
from .cohomology import DEFAULT_DIVISOR_FLOOR
from .embedding import TorusEmbedding, sample_jet
from .errors import InexactJet, JetOverflow
from .fourier import (FourierSeries, _format_pairs, _parse_pairs, _read_header,
                      dump_series, from_grid, load_series, to_grid)
from .newton import (_check_start, _grid_size, _mean, build_frame, checked_block,
                     solve_reduced)

BASE_TOL = 1e-10


@dataclass(frozen=True)
class EpsilonJet:
    """Truncated power series (K(eps), mu(eps)) about eps0: K_coeffs[j] is the
    periodic part of order j, and `embedding_at` gives the torus at eps."""

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
    """The band of each output order 0..order of a call on K_coeffs by the
    band rule; the last one is the cutoff B the call computes at."""
    kmax = K_coeffs[0].kmax
    bands = [min(kmax, j * fam.degree) for j in range(order + 1)]
    if all(_within(K, b) for K, b in zip(K_coeffs, bands)):
        return bands
    return [kmax] * (order + 1)


def _sample(fam, jet: EpsilonJet, omega, order: int, dk: bool = True):
    """(bands, x, x o T_omega, dks) for a call producing orders 0..order:
    `_bands`, and on `_grid_size(B)` the grid jets x = K and x o T_omega
    through `order`, and with `dk` (DK, DK o T_omega) through the jet's."""
    bands = _bands(fam, jet.K_coeffs, order)
    B = bands[-1]
    coeffs = np.stack([K.truncate(B).coeffs for K in jet.K_coeffs])
    x, xshift, *dks = sample_jet(coeffs, omega, _grid_size(B), dk=dk)
    return bands, jets.pad(x, order), jets.pad(xshift, order), tuple(dks)


@contextmanager
def _orders_checked():
    """Hide numpy's overflow and invalid-value warnings: the engines check
    every order instead (`_check_order`).  A warnings filter costs nothing per
    ufunc call, where a non-default np.errstate slows each by about 7%."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "(overflow|invalid value) encountered",
                                RuntimeWarning)
        yield


def _check_order(j: int, what: str, *arrays) -> None:
    """Raise JetOverflow naming order j when one of `arrays` is not finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise JetOverflow(j, what)


def _check_exact(E: np.ndarray, N: int) -> None:
    """JetOverflow naming the first order of the residual jet E (on the grid)
    that is not finite, else InexactJet the first order <= N above BASE_TOL."""
    if not np.isfinite(E).all():
        for j, Ej in enumerate(E):
            _check_order(j, "residual", Ej)
    for j in range(N + 1):
        sup = float(np.max(np.abs(E[j])))
        if sup > BASE_TOL:
            raise InexactJet(j, sup, BASE_TOL)


def _start(fam, jet: EpsilonJet, omega, order: int, divisor_floor):
    """(bands, x, x o T_omega, mu, lam, core) of an engine producing orders
    0..order from `jet`: `_sample`, mu and lam(eps) through `order`, and the
    checked block of the frame of the jet's orders.  In that order it raises
    ValueError for an `order` above MAX_ORDER_DOUBLE or an order 0 (eps0 and
    mu_coeffs[0] as given) that `run_newton` refuses as a start, then
    FrameSingular and NonDegeneracyFailure."""
    if order > MAX_ORDER_DOUBLE:
        raise ValueError(
            f"target order {order} beyond the double-precision cap {MAX_ORDER_DOUBLE}")
    eps0, n = jet.eps0, jet.order + 1
    mu0 = _check_start(fam, TorusEmbedding(jet.K_coeffs[0]), jet.mu_coeffs[0], omega, eps0)[1]
    mu = jets.pad(np.vstack([mu0, *jet.mu_coeffs[1:]]), order)   # order 0 as checked
    lam = fam.lambda_jet(eps0, order)
    with _orders_checked():
        bands, x, xshift, (dk, dkshift) = _sample(fam, jet, omega, order)
        fr = build_frame(lam[:n], dk, dkshift, fam.jet_jacobian(x[:n], mu[:n], eps0),
                         fam.jet_d_mu(x[:n], mu[:n], eps0), omega, bands[-1])
    # the averaged block of the (exact) order-0 torus serves every order
    Bb_grid, _ = fr.solve_twisted(-fr.A[0, fr.d:], fr.kmax, divisor_floor)
    return bands, x, xshift, mu, lam, checked_block(fr, Bb_grid, divisor_floor)


def _project(grids: np.ndarray, d: int, B: int, bands, kmax: int) -> list:
    """The series of a grid jet sampled at cutoff B, order j cut to bands[j]
    and padded to kmax."""
    coeffs = np.moveaxis(from_grid(grids, d, B).coeffs, d, 0)
    out = np.zeros((len(bands),) + (2 * kmax + 1,) * d + coeffs.shape[d + 1:],
                   dtype=complex)
    for j, b in enumerate(bands):
        out[(j,) + (slice(kmax - b, kmax + b + 1),) * d] = \
            coeffs[(j,) + (slice(B - b, B + b + 1),) * d]
    return [FourierSeries(d, kmax, c) for c in out]


# -- order-by-order engine ----------------------------------------------------

def lindstedt_expand(fam, K_base: TorusEmbedding, mu_base, omega, eps0, N: int,
                     divisor_floor=DEFAULT_DIVISOR_FLOOR) -> EpsilonJet:
    """The normalized series through order N at eps0, from an exact base.

    Raises as `_start` on the base as an order-0 jet, then as `_check_exact`
    on its residual (JetOverflow or InexactJet, order 0).  DivisorTooSmall as
    a Newton step raises it; JetOverflow names the first order whose
    right-hand side or solution is not finite.
    """
    # eps0 and mu_base as given, so that the start check names them as run_newton does
    base = EpsilonJet(eps0, (K_base.periodic,), [mu_base], None)
    bands, x, xshift, mu, lam, core = _start(fam, base, omega, N, divisor_floor)
    fr, d, B = core.frame, K_base.dim, bands[-1]
    K_coeffs = [K_base.periodic]
    work = {}   # the map's jet carried from order to order
    with _orders_checked():
        _check_exact(fam.jet_apply(x[:1], mu[:1], eps0, work=work) - xshift[:1], 0)
        for j in range(1, N + 1):
            G = fam.jet_apply(x[: j + 1], mu[: j + 1], eps0, work=work)[0]
            Et = jets.mm(fr.beta[0], (-G)[:, None])[:, 0]
            _check_order(j, "right-hand side", Et)
            Ba_grid, _ = fr.solve_twisted(Et[d:], B, divisor_floor)
            W1, W2, mu[j], _ = solve_reduced(core, Et[:d], Et[d:], Ba_grid, B)
            Kj = from_grid(jets.mm(fr.M[0], np.concatenate([W1, W2])[:, None])[:, 0],
                           d, B).truncate(bands[j])
            _check_order(j, "solution", Kj.coeffs)
            K_coeffs.append(Kj.pad_to(K_base.kmax))
            x[j] = to_grid(Kj, fr.n)

    return EpsilonJet(complex(eps0), tuple(K_coeffs), mu, lam)


# -- residual jet -------------------------------------------------------------

def residual_jet(fam, jet: EpsilonJet, omega, through: int | None = None):
    """Taylor coefficients, as series, of f_{mu(eps),eps} o K(eps) -
    K(eps) o T_omega about eps0, through order `through` (default 2N+2)."""
    M = 2 * jet.order + 2 if through is None else through
    jet = jet.truncated(M)
    bands, x, xshift, _ = _sample(fam, jet, omega, M, dk=False)
    E = fam.jet_apply(x, jets.pad(jet.mu_coeffs, M), jet.eps0) - xshift
    return _project(E, jet.dim, bands[-1], bands, jet.kmax)


def residual_jet_norms(fam, jet: EpsilonJet, omega, through: int | None = None):
    """The l1 norm at rho = 0 of each order of `residual_jet`."""
    return np.array([r.analytic_norm(0.0)
                     for r in residual_jet(fam, jet, omega, through)])


def residual_tail_norm(fam, jet: EpsilonJet, omega, eps_values,
                       through: int | None = None):
    """Norm of the truncation defect sum_{j>N} r_j (eps-eps0)^j at each eps,
    summed from the Taylor tail, so it has no cancellation floor."""
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
    """One Newton step on the jet: order N in, order 2N+1 out, orders <= N
    returned as given.

    Raises as `_start` on the jet with order 2N+1, then as `_check_exact`
    on its residual through 2N+1.  JetOverflow names the first new order
    whose right-hand side or solution is not finite.
    """
    N, M_ord = jet.order, 2 * jet.order + 1
    d, kmax, eps0 = jet.dim, jet.kmax, jet.eps0
    bands, x, xshift, mu, lam, core = _start(fam, jet, omega, M_ord, divisor_floor)
    fr, B = core.frame, bands[-1]
    Minv0 = jets.inv_stack(fr.M[0])
    S, A1, A2 = fr.S, fr.A[:, :d], fr.A[:, d:]

    # W = (W1, W2) and the drift correction vanish at orders <= N, so order nn
    # sums only m < nn - N; its drift correction is the new mu[nn]
    W = np.zeros(x.shape, dtype=complex)
    K_grid = np.empty_like(x)

    with _orders_checked():
        E = fam.jet_apply(x, mu, eps0) - xshift
        _check_exact(E, N)
        # beta E through 2N+1 drops only beta[m > N] E[<= N], bounded by the guard
        Et = jets.matmul(fr.beta, E[:, :, None], order=M_ord)[:, :, 0]
        for nn in range(N + 1, M_ord + 1):
            rhs1, rhs2 = -Et[nn][:d], -Et[nn][d:]
            corr = np.zeros(x.shape[1:], dtype=complex)
            for m in range(1, nn - N):
                W2m, sig = W[nn - m][d:], mu[nn - m][:, None, None]
                rhs2 = rhs2 - lam[m] * W2m - jets.mm(A2[m], sig)[:, 0]
                rhs1 = rhs1 - jets.mm(S[m], W2m[:, None])[:, 0] - jets.mm(A1[m], sig)[:, 0]
                corr = corr + jets.mm(fr.M[m], W[nn - m][:, None])[:, 0]
            _check_order(nn, "right-hand side", rhs1, rhs2)
            Ba_grid, _ = fr.solve_twisted(rhs2, bands[nn], divisor_floor)
            W1, W2, mu[nn], _ = solve_reduced(core, rhs1, rhs2, Ba_grid, bands[nn])
            # normalization in the base frame: zero average angle displacement
            W1 = W1 - _mean(jets.mm(Minv0, corr[:, None])[:, 0])[:d, None]
            W[nn] = np.concatenate([W1, W2])
            K_grid[nn] = jets.mm(fr.M[0], W[nn][:, None])[:, 0] + corr
            _check_order(nn, "solution", K_grid[nn])

    new = _project(K_grid[N + 1:], d, B, bands[N + 1:], kmax)
    return EpsilonJet(complex(eps0), tuple(jet.K_coeffs) + tuple(new), mu, lam)


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
    """Read a jet written by `dump_jet`."""
    head = _read_header(fp)
    order = int(dict(tok.split("=") for tok in head["kamtori-jet"])["order"])
    orders = range(order + 1)
    return EpsilonJet(complex(_parse_pairs(head["eps0"])[0]),
                      tuple(load_series(fp) for _ in orders),
                      np.array([_parse_pairs(head[f"mu[{j}]"]) for j in orders]),
                      np.array([_parse_pairs(head[f"lambda[{j}]"])[0] for j in orders]))
