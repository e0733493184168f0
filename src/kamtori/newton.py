"""Quadratic Newton solver for the invariance equation

    f_{mu,eps} o K = K o T_omega

of a conformally symplectic map, with automatic reducibility: in the
adapted frame M = [DK, J^-1 DK N], N = (DK^T DK)^-1, the linearized map is
[[I, S], [0, lam I]] up to an error bounded by the invariance defect.  A
step solves a lam-twisted and an untwisted difference equation and a
2d x 2d averaged system for the drift correction sigma, and converges
quadratically from any sufficiently accurate initial pair.

The reduced (triangular) system is written once, over jets in eps whose
order 0 is the Newton frame, and serves the Newton step and both Lindstedt
engines: `build_frame` makes the frame, `checked_block` the averaged block
of the order-0 torus, and `solve_reduced` solves one right-hand side.

Real problems stay real.  A solve is real when K's coefficients are
Hermitian bit for bit, eps, mu and lam(eps) have zero imaginary parts and
omega is not complex (`_real_problem`, decided once per solve).  Its grids
are then float64, and every iterate is Hermitian bit for bit with a float64
sigma; coefficients and mu stay complex128.  Any other problem runs on
complex128 grids.

Grid stacks are (values.., points), the points on one trailing axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .cohomology import DEFAULT_DIVISOR_FLOOR, solve_twisted_grid
from .diophantine import GoodSetParams, lambda_in_good_set
from .embedding import TorusEmbedding, sample_jet
from .errors import (Diverged, DivisorTooSmall, FrameSingular, NoConvergence,
                     NonDegeneracyFailure, NormalizationDiverged)
from .fourier import (FourierSeries, _format_pairs, _parse_pairs,
                      _read_header, dump_series, fast_grid_size, from_grid,
                      load_series)
from .maps import jinv_mul, mul_jinv, symplectic_matrix

DET_RTOL = 1e-10
DEFAULT_TAIL_THRESHOLD = 1e-10   # relative tail mass of K that doubles its cutoff
KMAX_CAP = 1024                  # the cutoff is never doubled past this

_FRAME_COND_LIMIT = 1e12


def _grid_size(kmax: int) -> int:
    return fast_grid_size(max(3 * kmax + 2, 16))


def _mean(grid: np.ndarray) -> np.ndarray:
    # what np.mean over the point axis computes, without its per-call argument handling
    return np.add.reduce(grid, axis=-1) / grid.shape[-1]


@dataclass(frozen=True)
class _Defect:
    """One evaluation of (K, mu) on the grid: X = K(theta), DK, DK o T_omega
    and E = f_{mu,eps} o K - K o T_omega; `residual` is the l1 norm at
    rho = 0 of E's series at K's cutoff."""

    X: np.ndarray
    DK: np.ndarray
    DKshift: np.ndarray
    E: np.ndarray
    dim: int
    kmax: int

    @cached_property
    def residual(self) -> float:
        return from_grid(self.E, self.dim, self.kmax).analytic_norm(0.0)


def _real_problem(fam, K: TorusEmbedding, mu, omega, eps) -> bool:
    """Whether (K, mu) at eps is a real problem, as the module states."""
    c = K.periodic.coeffs
    return bool((c[(slice(None, None, -1),) * K.dim] == c.conj()).all()
                and np.imag(eps) == 0 and not np.imag(mu).any()
                and not np.iscomplexobj(omega) and np.imag(fam.lambda_eps(eps)) == 0)


# The last sample of `_torus_sample`, keyed by the identity of K's read-only
# coefficient array (the entry holds it, so its id is not reused), omega's
# dtype and bytes and the real flag.
_last_sample: dict = {}


def _torus_sample(K: TorusEmbedding, omega, real: bool) -> tuple:
    """X, X o T_omega, DK and DK o T_omega of K on its grid, read-only; the
    last sample, with no transform, when it was of the same coefficient
    array, omega and flag."""
    coeffs, omega_arr = K.periodic.coeffs, np.asarray(omega)
    key = (id(coeffs), omega_arr.dtype.str, omega_arr.tobytes(), real)
    if key not in _last_sample:
        blocks = tuple(block[0] for block in sample_jet(coeffs[None], omega,
                                                        _grid_size(K.kmax), real=real))
        for block in blocks:
            block.setflags(write=False)
        _last_sample.clear()
        _last_sample[key] = (coeffs, blocks)
    return _last_sample[key][1]


def _evaluate(fam, K: TorusEmbedding, mu, omega, eps, *, real=None) -> _Defect:
    """(K, mu) on the grid, sampled by `_torus_sample`, with E in an array of
    its own.  With `real` (the solve's `_real_problem`, decided here when
    None) the samples are float64 and f's real part is taken; else they are
    complex128."""
    if real is None:
        real = _real_problem(fam, K, mu, omega, eps)
    if real:
        mu, omega, eps = np.real(mu), np.real(omega), np.real(eps)
    X, Xshift, DK, DKshift = _torus_sample(K, omega, real)
    F = fam.apply(X, mu, eps)
    E = (np.real(F) if real else F) - Xshift
    return _Defect(X, DK, DKshift, E, K.dim, K.kmax)


def invariance_residual(fam, K: TorusEmbedding, mu, omega, eps) -> FourierSeries:
    """E = f_{mu,eps} o K - K o T_omega as a (2d,)-valued series at K's cutoff."""
    return from_grid(_evaluate(fam, K, mu, omega, eps).E, K.dim, K.kmax)


# -- the reduced system ---------------------------------------------------------

def _gram_cond(gram: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack of Gram matrices, by the rules of
    np.linalg.cond (0 and inf give inf, nan stays nan)."""
    if gram.shape[-2] > 1:
        return np.linalg.cond(np.moveaxis(gram, -1, -3))
    g = gram[..., 0, 0, :]
    mag = np.abs(g)
    with np.errstate(invalid="ignore"):
        cond = mag / mag
    cond[np.isnan(cond) & ~np.isnan(g)] = np.inf
    return cond


def _not_finite_points(stack: np.ndarray) -> int:
    """The number of matrices of a stack (..., m, m, points) with a non-finite entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.add.reduce(stack, axis=None)):
            return 0
    return int(np.count_nonzero(~np.all(np.isfinite(stack), axis=(-3, -2))))


def _gate(stack: np.ndarray, what: str) -> None:
    """Raise FrameSingular naming `what` if a matrix of the grid stack is not finite."""
    bad = _not_finite_points(stack)
    if bad:
        raise FrameSingular(f"{what} at {bad} of {stack.shape[-1]} grid points")


def _frame_matrix(dks: np.ndarray):
    """Jets of N = (DK^T DK)^-1 and of M = [DK, J^-1 DK N] for a stack
    (order+1, copies, 2d, d, points) of DK jets.  Raises FrameSingular when
    an order-0 Gram has condition number above 1e12 or is not finite, or
    where order 0 of N is not finite, naming DK^T DK before N o T_omega."""
    gram = jets.matmul(np.swapaxes(dks, -3, -2), dks)
    cond = float(np.max(_gram_cond(gram[0, 0])))
    if not np.isfinite(cond) or cond > _FRAME_COND_LIMIT:
        raise FrameSingular(
            f"DK^T DK condition number {cond:.3e} exceeds {_FRAME_COND_LIMIT:.1e}")
    # a subnormal 1 x 1 Gram is well conditioned (|g|/|g| = 1), but 1/g overflows
    N = jets.inv_matrix(gram)
    for N0, what in zip(N[0], ("DK^T DK is singular or not finite", "N o T_omega is not finite")):
        _gate(N0, what)
    return N, np.concatenate([dks, jets.matmul(jinv_mul(dks), N)], axis=-2)


@dataclass(frozen=True)
class Frame:
    """Jets (order+1, rows, columns, points) of a torus's adapted frame on the grid."""

    d: int
    kmax: int
    n: int
    omega: np.ndarray
    lam: np.ndarray       # (order+1,) conformal factor
    Df: np.ndarray        # (2d, 2d)
    M: np.ndarray         # (2d, 2d) frame [DK, J^-1 DK N], N = (DK^T DK)^-1
    Mshift: np.ndarray    # M o T_omega
    beta: np.ndarray      # (M o T_omega)^-1
    S: np.ndarray         # (d, d) torsion
    A: np.ndarray         # (2d, d) frame-projected drift response

    def solve_twisted(self, eta: np.ndarray, band: int, divisor_floor) -> tuple:
        """(phi, largest divisor gain): the lam-twisted `solve_twisted_grid`
        of grid rows eta at the cutoff `band`, with order 0 of lam."""
        return solve_twisted_grid(eta, self.d, band, self.lam[0], self.omega, divisor_floor)


def build_frame(lam, dk, dkshift, Df, Dmu, omega, kmax: int) -> Frame:
    """The adapted frame from the jets of lam, DK, DK o T_omega, Df and
    D_mu f, all sampled on one grid.  Raises FrameSingular as `_frame_matrix`
    does, and where gamma o T_omega = (DK^T J^-1 DK) o T_omega or
    (M o T_omega)^-1 is not finite at a grid point."""
    d, points = dk.shape[-2:]
    N, M = _frame_matrix(np.stack([dk, dkshift], axis=1))
    Nshift, Mshift = N[:, 1], M[:, 1]
    gshift = jets.matmul(mul_jinv(np.swapaxes(dkshift, -3, -2)), dkshift)
    _gate(gshift[0], "gamma o T_omega is not finite")
    beta = jets.inv_matrix(Mshift)
    _gate(beta[0], "M o T_omega is singular or not finite")

    # M = [DK, J^-1 P] with P = DK N, and J = -J^-1 is a signed permutation,
    # so J M[..., d:] is P exactly, at K and at K o T_omega alike
    P = -jinv_mul(M[..., d:, :])
    # S = (P^T o T) Df J^-1 P - lam (N^T o T)(gamma o T)(N o T), associated
    # from the left throughout
    lam_bc = lam.reshape(lam.shape + (1,) * (Nshift.ndim - 1))
    S = jets.matmul(mul_jinv(jets.matmul(np.swapaxes(P[:, 1], -3, -2), Df)), P[:, 0]) \
        - jets.matmul(jets.matmul(jets.cauchy(lam_bc, np.swapaxes(Nshift, -3, -2)), gshift), Nshift)
    return Frame(d=d, kmax=kmax, n=round(points ** (1 / d)), omega=omega, lam=lam, Df=Df,
                 M=M[:, 0], Mshift=Mshift, beta=beta, S=S, A=jets.matmul(beta, Dmu))


def newton_frame(fam, ev: _Defect, mu, omega, eps) -> Frame:
    """The order-0 frame of `ev`, an evaluation of (K, mu) at eps; real when
    `ev`'s samples are float64."""
    real = not np.iscomplexobj(ev.X)
    if real:
        mu, eps = np.real(mu), np.real(eps)
    lam = np.array([complex(fam.lambda_eps(eps))])
    Df, Dmu = fam.jacobian(ev.X, mu, eps), fam.d_mu(ev.X, mu, eps)
    if real:
        lam, Df, Dmu = lam.real, np.real(Df), np.real(Dmu)
    return build_frame(lam, ev.DK[None], ev.DKshift[None], Df[None], Dmu[None],
                       omega, ev.kmax)


@dataclass(frozen=True)
class ReducedCore:
    """A frame with its checked averaged block and drift response Bb on the grid."""

    frame: Frame
    block: np.ndarray          # (2d, 2d) averaged system
    det: complex
    Bb_grid: np.ndarray
    divisor_floor: float | np.ndarray   # scalar or per-mode floor of the lam-twisted solves


def _twist(block: np.ndarray) -> float:
    """The twist constant: the 2-norm of the inverse averaged block."""
    return float(np.linalg.norm(np.linalg.inv(block), 2))


def checked_block(frame: Frame, Bb_grid: np.ndarray,
                  divisor_floor=DEFAULT_DIVISOR_FLOOR) -> ReducedCore:
    """The 2d x 2d averaged block of the order-0 torus, checked.  `Bb_grid`,
    (d, d, points), is `frame.solve_twisted` of -A2 (order 0 of A's last d
    rows) at the frame's kmax with `divisor_floor`.  `det` is the
    determinant of block / scale, scale the largest absolute row sum.
    Raises NonDegeneracyFailure unless 0 < scale < inf and |det| > DET_RTOL.
    A real frame and Bb give a real block."""
    d, lam = frame.d, frame.lam[0]
    S, A1, A2 = frame.S[0], frame.A[0, :d], frame.A[0, d:]
    block = np.zeros((2 * d, 2 * d), dtype=S.dtype)
    block[:d, :d] = _mean(S)
    block[:d, d:] = _mean(jets.mm(S, Bb_grid)) + _mean(A1)
    block[d:, :d] = (lam - 1.0) * np.eye(d)
    block[d:, d:] = _mean(A2)
    scale = float(np.max(np.sum(np.abs(block), axis=1)))
    if not 0 < scale < np.inf:
        raise NonDegeneracyFailure(np.nan, scale)
    det = np.linalg.det(block / scale)
    if abs(det) <= DET_RTOL:
        raise NonDegeneracyFailure(det, scale)
    return ReducedCore(frame, block, complex(det), Bb_grid, divisor_floor)


def solve_reduced(core: ReducedCore, rhs1: np.ndarray, rhs2: np.ndarray,
                  Ba_grid: np.ndarray, band: int):
    """Solve the triangular system of the order-0 frame,

        (W1 - W1 o T) + S W2 + A1 sigma = rhs1,
        (lam W2 - W2 o T) + A2 sigma = rhs2,

    for W1 (zero average) and W2, (d, points) and of the dtype of rhs1 and
    rhs2, and sigma, at the cutoff `band` <= the frame's kmax.  `Ba_grid` is
    `frame.solve_twisted` of rhs2 at `band` with the core's floor.  Returns
    (W1, W2, sigma, the largest divisor gain of the untwisted solve).
    """
    fr = core.frame
    d, lam = fr.d, fr.lam[0]
    S, A1 = fr.S[0], fr.A[0, :d]
    rhs_avg = np.concatenate([_mean(rhs1) - _mean(jets.mm(S, Ba_grid[:, None])[:, 0]),
                              _mean(rhs2)])
    sol = np.linalg.solve(core.block, rhs_avg)
    W2bar, sigma = sol[:d], sol[d:]
    W2 = Ba_grid + jets.mm(core.Bb_grid, sigma[:, None, None])[:, 0] + W2bar[:, None]

    r1 = rhs1 - jets.mm(S, W2[:, None])[:, 0] - jets.mm(A1, sigma[:, None, None])[:, 0]
    # a per-mode floor bounds the lam-twisted divisors of the good set; the
    # untwisted solve keeps a scalar one
    floor = core.divisor_floor if np.ndim(core.divisor_floor) == 0 else DEFAULT_DIVISOR_FLOOR
    W1, W1_gain = solve_twisted_grid(r1, d, band, 1.0, fr.omega, floor)
    return W1, W2, sigma, W1_gain


@dataclass(frozen=True)
class ReducibilityFrame:
    """The Newton frame of (K, mu), with the norms of its reducibility defect
    R = Df M - (M o T_omega) [[I, S], [0, lam I]] and of the invariance defect
    E, each the l1 norm at rho = 0 of its series."""

    frame: Frame
    R_norm: float
    E_norm: float
    ratio: float                # R_norm / max(E_norm, tiny)


def reducibility_frame(fam, K, mu, omega, eps) -> ReducibilityFrame:
    """The frame of (K, mu) at eps with the norms of R and E (ReducibilityFrame)."""
    ev = _evaluate(fam, K, mu, omega, eps)
    fr = newton_frame(fam, ev, mu, omega, eps)
    Ms1, Ms2 = fr.Mshift[0][:, :fr.d], fr.Mshift[0][:, fr.d:]
    R = jets.mm(fr.Df[0], fr.M[0]) \
        - np.concatenate([Ms1, jets.mm(Ms1, fr.S[0]) + fr.lam[0] * Ms2], axis=1)
    R_norm = from_grid(R, fr.d, fr.kmax).analytic_norm(0.0)
    E_norm = ev.residual
    return ReducibilityFrame(fr, R_norm, E_norm, R_norm / max(E_norm, 1e-300))


@dataclass(frozen=True)
class StepReport:
    """One Newton step, with the correction W in frame coordinates on the
    grid, the averaged block and the determinant of the scaled block
    (`checked_block`); `w_norm` and `twist` are computed when first read."""

    sigma: np.ndarray
    residual_before: float
    det: complex
    divisor_gain: float
    grid: int
    W: np.ndarray          # (2d, points) correction in frame coordinates
    block: np.ndarray      # (2d, 2d) averaged block
    kmax: int

    @cached_property
    def w_norm(self) -> float:
        return from_grid(self.W, self.W.shape[0] // 2, self.kmax).analytic_norm(0.0)

    @cached_property
    def twist(self) -> float:
        return _twist(self.block)


def newton_step(fam, K, mu, omega, eps, divisor_floor=DEFAULT_DIVISOR_FLOOR,
                *, _defect: _Defect | None = None):
    """One quadratic correction (K, mu) -> (K + M W, mu + sigma), returned with
    its StepReport.  `_defect` is an evaluation of (K, mu) to reuse."""
    ev = _evaluate(fam, K, mu, omega, eps) if _defect is None else _defect
    fr = newton_frame(fam, ev, mu, omega, eps)
    d, kmax = fr.d, fr.kmax
    rhs = -jets.mm(fr.beta[0], ev.E[:, None])[:, 0]
    # Bb (of -A2) and Ba (of the last d rows of -beta E) share lam, omega and
    # the cutoff: one solve of their stacked rows
    A2 = fr.A[0, d:]
    rows, gain = fr.solve_twisted(np.concatenate([-A2.reshape(d * d, -1), rhs[d:]]),
                                  kmax, divisor_floor)
    core = checked_block(fr, rows[:d * d].reshape(A2.shape), divisor_floor)
    W1, W2, sigma, W1_gain = solve_reduced(core, rhs[:d], rhs[d:], rows[d * d:], kmax)

    W = np.concatenate([W1, W2])
    K2 = K.with_correction(from_grid(jets.mm(fr.M[0], W[:, None])[:, 0], d, kmax))
    mu2 = np.atleast_1d(np.asarray(mu, dtype=complex)) + sigma

    report = StepReport(
        sigma=sigma,
        residual_before=ev.residual,
        det=core.det,
        divisor_gain=max(gain, W1_gain),
        grid=fr.n,
        W=W,
        block=core.block,
        kmax=kmax,
    )
    return K2, mu2, report


@dataclass(frozen=True)
class KamSolution:
    """An invariant torus K with its drift mu at eps."""

    K: TorusEmbedding
    mu: np.ndarray
    residual_norm: float
    twist_constant: float
    trace: tuple               # the residual of each evaluation, one per iteration
    eps: complex
    omega: np.ndarray
    lam: complex

    @cached_property
    def lagrangian_defect(self) -> float:
        """`lagrangian_defect(K)`, computed when first read."""
        return lagrangian_defect(self.K)


def _check_start(fam, K0, mu0, omega, eps):
    """(lam(eps), mu0 as a 1-d complex array) of a solve's starting point.
    ValueError for a non-finite eps, lam(eps), mu0, omega or K0 coefficient,
    or an omega without K0.dim components."""
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    with np.errstate(over="ignore", invalid="ignore"):
        lam = complex(fam.lambda_eps(eps))
    if not np.isfinite(lam):
        raise ValueError(f"lam(eps) must be finite, got {lam} at eps={eps}")
    mu = np.atleast_1d(np.asarray(mu0, dtype=complex))
    if not np.all(np.isfinite(mu)):
        raise ValueError(f"mu0 must be finite, got {mu0}")
    if np.atleast_1d(omega).shape != (K0.dim,) or not np.all(np.isfinite(omega)):
        raise ValueError(f"omega must have {K0.dim} finite components, got {omega}")
    bad = np.argwhere(~np.isfinite(K0.periodic.coeffs))
    if bad.size:
        k = tuple(int(i) - K0.kmax for i in bad[0][:K0.dim])
        raise ValueError(f"K0 must be finite, got {K0.periodic.coeffs[tuple(bad[0])]} "
                         f"at mode k={k}")
    return lam, mu


def run_newton(fam, K0, mu0, omega, eps, tol=1e-12, max_iter=20,
               divisor_floor=DEFAULT_DIVISOR_FLOOR,
               good_set: GoodSetParams | None = None,
               good_set_scan: int = 4096) -> KamSolution:
    """Iterate `newton_step` from (K0, mu0) until the l1 residual at rho = 0
    is at most tol; `trace` holds the residual of each evaluation.  While K's
    tail band carries relative mass above DEFAULT_TAIL_THRESHOLD its cutoff
    is doubled, up to KMAX_CAP.

    Raises Diverged when a residual is not finite or two consecutive
    residuals exceed the first, and NoConvergence after max_iter steps.  A
    non-finite eps, lam(eps), mu0, omega or K0 coefficient, a tol outside
    [0, inf) or a max_iter that is not an integer >= 0 raises ValueError.
    With `good_set`, lam(eps) must pass `lambda_in_good_set` over
    `good_set_scan` modes, else DivisorTooSmall carries its witness.
    """
    lam, mu = _check_start(fam, K0, mu0, omega, eps)
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must satisfy 0 <= tol < inf, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter}")
    if good_set is not None:
        witness = lambda_in_good_set(lam, good_set, omega, good_set_scan)
        if not witness.member:
            raise DivisorTooSmall(witness.nu.k, witness.nu.divisor, witness.floor)

    real = _real_problem(fam, K0, mu, omega, eps)
    K = K0
    trace = []
    report = None
    for it in range(max_iter + 1):
        ev = _evaluate(fam, K, mu, omega, eps, real=real)
        res = ev.residual
        trace.append(res)
        if not np.isfinite(res) or (len(trace) > 2 and min(trace[-2:]) > trace[0]):
            raise Diverged(trace)
        if res <= tol:
            # the twist of the last step's block, else of the converged frame
            twist = float("nan") if report is None else report.twist
            if not np.isfinite(twist):
                fr = newton_frame(fam, ev, mu, omega, eps)
                Bb_grid, _ = fr.solve_twisted(-fr.A[0, fr.d:], fr.kmax, divisor_floor)
                twist = _twist(checked_block(fr, Bb_grid, divisor_floor).block)
            return KamSolution(
                K=K, mu=mu, residual_norm=res, twist_constant=twist,
                trace=tuple(trace), eps=complex(eps),
                omega=np.atleast_1d(np.asarray(omega, dtype=float)),
                lam=lam,
            )
        if it == max_iter:
            break
        K, mu, report = newton_step(fam, K, mu, omega, eps,
                                    divisor_floor=divisor_floor, _defect=ev)
        if K.periodic.tail_mass() > DEFAULT_TAIL_THRESHOLD and K.kmax < KMAX_CAP:
            K = K.pad_to(min(2 * K.kmax, KMAX_CAP))
    raise NoConvergence(max_iter, trace)


def normalize_embedding(K: TorusEmbedding, K_ref: TorusEmbedding,
                        max_shift: float = 0.25):
    """(K o T_sigma, sigma) for the sigma at which, in K_ref's frame, the mean
    displacement of K o T_sigma from K_ref has no angle component, to 1e-13.
    Raises NormalizationDiverged if Newton's method leaves |sigma| <=
    max_shift or takes more than 60 steps, and FrameSingular if K_ref's
    frame cannot be built."""
    d = K.dim
    kmax = max(K.kmax, K_ref.kmax)
    K = K.pad_to(kmax)
    K_ref = K_ref.pad_to(kmax)
    n = _grid_size(kmax)

    ref_lift, dk = sample_jet(K_ref.periodic.coeffs[None], None, n)
    Minv = jets.inv_stack(_frame_matrix(dk[:, None])[1][0, 0])

    def g(sigma):
        # the condition and its Jacobian; the condition is holomorphic in
        # sigma, so a complex shift is allowed
        lift, dk = sample_jet(K.shifted(sigma).periodic.coeffs[None], None, n)
        diff = lift[0] - ref_lift[0]
        return (_mean(jets.mm(Minv, diff[:, None])[:, 0])[:d],
                _mean(jets.mm(Minv, dk[0]))[:d])

    sigma = np.zeros(d, dtype=complex)
    val, jac = g(sigma)
    for _ in range(60):
        if np.max(np.abs(val)) <= 1e-13:
            break
        sigma = sigma - np.linalg.solve(jac, val)
        if np.max(np.abs(sigma)) > max_shift:
            raise NormalizationDiverged(
                f"shift {sigma} left the trust region |sigma| <= {max_shift}"
            )
        val, jac = g(sigma)
    if np.max(np.abs(val)) > 1e-13:
        raise NormalizationDiverged("Newton iteration did not reach tolerance")
    if np.max(np.abs(sigma.imag)) < 1e-13:
        sigma = sigma.real
    return K.shifted(sigma), sigma


def lagrangian_defect(K: TorusEmbedding, J=None) -> float:
    """l1 norm of the d x d series DK^T (J o K) DK, zero on Lagrangian tori."""
    J = symplectic_matrix(K.dim) if J is None else J
    (dk,) = sample_jet(K.periodic.coeffs[None], None, _grid_size(K.kmax), lifts=False)
    L = jets.mm(jets.mm(np.swapaxes(dk[0], -3, -2), J[..., None]), dk[0])
    return from_grid(L, K.dim, K.kmax).analytic_norm(0.0)


# -- solution files -----------------------------------------------------------

def dump_solution(sol: KamSolution, fp) -> None:
    """Write `sol` in the text form of `fourier`: its header lines, then the
    angle correction u and the action v as two (d,)-valued series tables."""
    fp.write(f"# kamtori-solution d={sol.K.dim} kmax={sol.K.kmax}\n")
    fp.write("# omega " + " ".join(f"{w:.17g}" for w in sol.omega) + "\n")
    fp.write(f"# eps {_format_pairs(sol.eps)}\n")
    fp.write(f"# mu {_format_pairs(sol.mu)}\n")
    fp.write(f"# lambda {_format_pairs(sol.lam)}\n")
    fp.write(f"# residual {sol.residual_norm:.17g}\n")
    fp.write(f"# twist {sol.twist_constant:.17g}\n")
    dump_series(sol.K.angle_correction(), fp)
    dump_series(sol.K.action(), fp)


def load_solution(fp) -> KamSolution:
    """Read a solution written by `dump_solution`; its trace is (residual,)."""
    head = _read_header(fp)
    u, v = load_series(fp), load_series(fp)
    K = TorusEmbedding(FourierSeries(u.dim, u.kmax, np.concatenate([u.coeffs, v.coeffs], -1)))
    residual = float(head["residual"][0])
    return KamSolution(K=K, mu=_parse_pairs(head["mu"]), residual_norm=residual,
                       twist_constant=float(head["twist"][0]), trace=(residual,),
                       eps=complex(_parse_pairs(head["eps"])[0]),
                       omega=np.array([float(t) for t in head["omega"]]),
                       lam=complex(_parse_pairs(head["lambda"])[0]))
