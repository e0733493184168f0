"""Quadratic Newton solver for the invariance equation

    f_{mu,eps} o K = K o T_omega

on an adapted frame in which the linearized map is block triangular
[[I, S], [0, lam*I]] up to an error controlled by the invariance defect
(automatic reducibility).  One step solves a lam-twisted and an untwisted
difference equation plus a 2d x 2d averaged system for the drift correction,
and converges quadratically from any sufficiently accurate initial pair.

The reduced system is written once, over jets in eps whose order 0 is the
Newton frame, and both Lindstedt engines use it: `build_frame` turns the jets
of DK, DK o T_omega, Df and D_mu f (evaluated by the caller) into the frame, a
function of the torus alone (each solver forms its right-hand side beta E),
`checked_block` gates the averaged 2d x 2d block of the order-0 torus, and
`solve_reduced` solves one triangular system for (W1, W2, sigma).  N, M and
gamma = DK^T J^-1 DK are pointwise functions of DK, so the frame builds
N o T_omega, M o T_omega and gamma o T_omega by the same formulas on the
sample of DK o T_omega, with no grid transform.  N and M of DK and of
DK o T_omega are one stack (order axis first, then the two copies): one Gram
product, one `jets.inv_matrix` and one product for M (`_frame_matrix`, which
`normalize_embedding` calls on its one DK); P = DK N and P o T_omega are read
off M's second block column by the signed block swap J = -J^-1.

Real problems run on real grids.  `_real_problem` reads off the inputs of a
solve, once, with no option, whether (K, mu) at eps is real: K's
coefficients Hermitian bit for bit, eps, mu and lam(eps) with zero imaginary
parts and omega not complex.  Then the samples, the family's values (their
real parts), the frame, the averaged block, the cohomology solves and the
correction M W are float64 grids; `from_grid` of the real correction is
Hermitian bit for bit and sigma float64, so every iterate stays real and
each evaluation of the solve reuses the decision.  Coefficients and mu stay
complex128.  Any other problem keeps the complex grids and their bytes.

Each Newton iteration evaluates the map once: `run_newton` samples K as the
order-0 jet of `embedding.sample_jet` (X = K(theta), K o T_omega, DK and
DK o T_omega from one spectrum), forms E = f o K - K o T_omega, and reads the
residual of that evaluation (`_Defect.residual`, the l1 norm at rho = 0 of
E's series, computed once) into the trace; it hands the same evaluation to
`newton_step`, whose frame and step report reuse it.  So an iteration that
steps makes these transforms: the one inverse transform of `sample_jet` (its
shifted and differentiated blocks are products on the spectrum), the forward
one of E for the residual, one forward and one inverse transform for each of
the three cohomology solves (Bb in `checked_block`, Ba and W1 in
`solve_reduced`, each `cohomology.solve_twisted_grid` from grid to grid),
and the forward one of the correction M W; the frame builds its shifts from
DK o T_omega with none.  The Lagrangian defect of a solution is computed
from its torus when first read.  A `StepReport` keeps the step's W on the
grid and its averaged block; their norm and the twist are computed when
first read, and `run_newton` inverts a block only for the twist of its last
step (or of the converged frame when there was no step or that twist is not
finite).
The frame conditioning gate on DK^T DK uses the closed form |g|/|g| for the
1 x 1 Gram of d = 1 and `np.linalg.cond` for d > 1; both follow
`np.linalg.cond`'s rules (0 and inf give inf, nan stays nan), and every
non-finite or too large value raises FrameSingular.
The pointwise inverses N = (DK^T DK)^-1 and beta = (M o T_omega)^-1 come from
`jets.inv_stack`, in closed form for 1 x 1 and 2 x 2 matrices (the reciprocal,
the adjugate over the determinant: the Gram for d <= 2 and the frame for
d = 1) and from `np.linalg.inv` for larger ones.  A non-finite N, N o T_omega,
gamma o T_omega or beta at a grid point raises FrameSingular.
J^-1 = [[0, -I], [I, 0]] enters only as a signed block swap of rows
(`maps.jinv_mul`) or columns (`maps.mul_jinv`), never as a matrix product.
Grid stacks are (values.., points): every other product is a `jets.mm`
multiply-add along the contiguous point axis, and the d > 1 branches of
`_gram_cond` and `inv_stack` move that axis for `np.linalg`.
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
    """One evaluation of (K, mu) on the grid: the lift X = K(theta), DK,
    DK o T_omega and E = f_{mu,eps} o K - K o T_omega, with its residual:
    the l1 norm at rho = 0 of E's series at K's cutoff, computed on first
    read, so the trace and the step report share one transform and norm."""

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
    """Whether (K, mu) at eps is a real problem: K's coefficients are
    Hermitian bit for bit, c_-k == conj(c_k), eps, mu and lam(eps) have zero
    imaginary parts and omega is not complex."""
    c = K.periodic.coeffs
    return bool((c[(slice(None, None, -1),) * K.dim] == c.conj()).all()
                and np.imag(eps) == 0 and not np.imag(mu).any()
                and not np.iscomplexobj(omega) and np.imag(fam.lambda_eps(eps)) == 0)


def _evaluate(fam, K: TorusEmbedding, mu, omega, eps, *, real=None) -> _Defect:
    """(K, mu) on the grid: K sampled as the order-0 jet of `sample_jet`, and
    E = f_{mu,eps}(X) - X o T_omega written over the rows of X o T_omega.
    The samples are float64, of the real parts of mu, omega and eps, when
    `real` (the `_real_problem` decision of a solve, made here for (K, mu)
    when None), and f's real part is taken, so a family may return complex
    values with zero imaginary parts there; else they are complex128."""
    if real is None:
        real = _real_problem(fam, K, mu, omega, eps)
    if real:
        mu, omega, eps = np.real(mu), np.real(omega), np.real(eps)
    X, Xshift, DK, DKshift = sample_jet(K.periodic.coeffs[None], omega,
                                        _grid_size(K.kmax), real=real)
    F = fam.apply(X[0], mu, eps)
    E = np.subtract(np.real(F) if real else F, Xshift[0], out=Xshift[0])
    return _Defect(X[0], DK[0], DKshift[0], E, K.dim, K.kmax)


def invariance_residual(fam, K: TorusEmbedding, mu, omega, eps) -> FourierSeries:
    """E = f_{mu,eps} o K - K o T_omega as a (2d,)-valued series: the E of
    `_evaluate` (real samples for a real problem), truncated to the
    embedding's cutoff."""
    return from_grid(_evaluate(fam, K, mu, omega, eps).E, K.dim, K.kmax)


# -- the reduced system ---------------------------------------------------------

def _gram_cond(gram: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack of Gram matrices, by the rules of
    np.linalg.cond (0 and inf give inf, nan stays nan).

    A 1 x 1 Gram g has the closed form |g|/|g| (exactly 1.0 when g is finite
    and nonzero), which spares the batched SVD for d = 1; a nan entry gives
    nan there, where the SVD of np.linalg.cond may fail to converge instead.
    """
    if gram.shape[-2] > 1:
        return np.linalg.cond(np.moveaxis(gram, -1, -3))
    g = gram[..., 0, 0, :]
    mag = np.abs(g)
    with np.errstate(invalid="ignore"):
        cond = mag / mag
    cond[np.isnan(cond) & ~np.isnan(g)] = np.inf
    return cond


def _not_finite_points(stack: np.ndarray) -> int:
    """The number of matrices of a stack (..., m, m, points) with a non-finite entry.

    A finite sum of the stack proves there is none at the cost of one pass;
    only a sum that is not finite (a non-finite entry, or finite entries whose
    sum overflows) pays for the exact count.
    """
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
    """Jets of N = (DK^T DK)^-1 and of the frame M = [DK, J^-1 DK N] for a
    stack (order+1, copies, 2d, d, points) of DK jets, every copy in one pass:
    DK, and DK o T_omega when there are two.

    Raises FrameSingular when DK's order-0 Gram matrix is ill-conditioned, or
    where order 0 of N is not finite at a grid point, naming DK^T DK before
    N o T_omega (the higher orders are solved with that inverse).
    """
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


def build_frame(lam, dk, dkshift, Df, Dmu, omega, kmax: int) -> Frame:
    """The adapted frame from the jets of the conformal factor lam, DK,
    DK o T_omega and the map derivatives Df, D_mu f, all sampled on one grid.

    N, M and gamma = DK^T J^-1 DK are pointwise functions of DK, so their
    compositions with T_omega are the same formulas on DK o T_omega.  Raises
    FrameSingular when DK^T DK is ill-conditioned (see _frame_matrix), when
    N o T_omega or gamma o T_omega is not finite at a grid point (the Gram of
    DK o T_omega is singular or overflows there), or when (M o T_omega)^-1 is
    not finite at a grid point: a determinant of M o T_omega there is zero or
    not finite.
    """
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
    """The frame of the torus of `ev`, an evaluation of (K, mu) at eps on the
    grid: the pointwise map derivatives at its lift enter as order-0 jets.
    Of a real evaluation (float64 samples) the frame is real: the family gets
    the real parts of mu and eps, and lam, Df and D_mu f are taken real."""
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
    """A frame with its checked averaged block and drift response Bb on the
    grid, with the largest divisor gain of Bb's solve."""

    frame: Frame
    block: np.ndarray          # (2d, 2d) averaged system
    det: complex
    Bb_grid: np.ndarray
    Bb_gain: float
    divisor_floor: float | np.ndarray   # scalar or per-mode floor of the lam-twisted solves


def _twist(block: np.ndarray) -> float:
    """The twist constant: the 2-norm of the inverse averaged block."""
    return float(np.linalg.norm(np.linalg.inv(block), 2))


def checked_block(frame: Frame, divisor_floor=DEFAULT_DIVISOR_FLOOR) -> ReducedCore:
    """Assemble the 2d x 2d averaged block of the order-0 torus.

    Solves the twisted drift response Bb first (which may raise
    DivisorTooSmall) and raises NonDegeneracyFailure when
    |det| <= DET_RTOL * scale^(2d), scale being the largest absolute row sum.
    A real frame gives a real Bb on the grid and a real block.
    """
    d, lam = frame.d, frame.lam[0]
    S, A1, A2 = frame.S[0], frame.A[0, :d], frame.A[0, d:]
    Bb_grid, Bb_gain = solve_twisted_grid(-A2, d, frame.kmax, lam, frame.omega, divisor_floor)
    block = np.zeros((2 * d, 2 * d), dtype=S.dtype)
    block[:d, :d] = _mean(S)
    block[:d, d:] = _mean(jets.mm(S, Bb_grid)) + _mean(A1)
    block[d:, :d] = (lam - 1.0) * np.eye(d)
    block[d:, d:] = _mean(A2)
    scale = float(np.max(np.sum(np.abs(block), axis=1)))
    det = np.linalg.det(block)
    if not np.isfinite(scale) or abs(det) <= DET_RTOL * scale ** (2 * d):
        raise NonDegeneracyFailure(det, scale)
    return ReducedCore(frame, block, complex(det), Bb_grid, Bb_gain, divisor_floor)


def solve_reduced(core: ReducedCore, rhs1: np.ndarray, rhs2: np.ndarray, band: int):
    """Solve the triangular system of the order-0 frame,

        (W1 - W1 o T) + S W2 + A1 sigma = rhs1,
        (lam W2 - W2 o T) + A2 sigma = rhs2,

    for grid corrections W1 (zero average) and W2, (d, points) like rhs1 and
    rhs2, and the drift sigma: a lam-twisted solve, the averaged block for
    (avg W2, sigma), then an untwisted solve, both at the cutoff `band` <= the
    frame's kmax (each right-hand side is read from the grid at it, so the
    cut costs no transform).  Each solve returns the dtype of its right-hand
    side, whatever the frame: float64 ones are solved on real grids, complex
    ones on complex grids.  Returns (W1, W2, sigma, largest divisor gain).
    """
    fr = core.frame
    d, lam = fr.d, fr.lam[0]
    S, A1 = fr.S[0], fr.A[0, :d]
    Ba_grid, Ba_gain = solve_twisted_grid(rhs2, d, band, lam, fr.omega, core.divisor_floor)
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
    return W1, W2, sigma, max(Ba_gain, W1_gain)


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
    """One Newton step.  The report keeps the correction W of the frame
    coordinates on the grid and the averaged block, not the frame; its norm
    w_norm and the twist (inverse and SVD of the block) are computed when
    first read, which run_newton does only for the twist at convergence."""

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
    """One quadratic correction (K, mu) -> (K + M W, mu + sigma).

    `_defect` is run_newton's evaluation of (K, mu), reused for the frame and
    the report's residual instead of evaluating the map again; without it the
    step evaluates (K, mu) itself.
    """
    ev = _evaluate(fam, K, mu, omega, eps) if _defect is None else _defect
    fr = newton_frame(fam, ev, mu, omega, eps)
    core = checked_block(fr, divisor_floor)
    d, kmax = fr.d, fr.kmax
    Et = jets.mm(fr.beta[0], ev.E[:, None])[:, 0]
    W1, W2, sigma, gain = solve_reduced(core, -Et[:d], -Et[d:], kmax)

    W = np.concatenate([W1, W2])
    K2 = K.with_correction(from_grid(jets.mm(fr.M[0], W[:, None])[:, 0], d, kmax))
    mu2 = np.atleast_1d(np.asarray(mu, dtype=complex)) + sigma

    report = StepReport(
        sigma=sigma,
        residual_before=ev.residual,
        det=core.det,
        divisor_gain=max(gain, core.Bb_gain),
        grid=fr.n,
        W=W,
        block=core.block,
        kmax=kmax,
    )
    return K2, mu2, report


@dataclass(frozen=True)
class KamSolution:
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


def run_newton(fam, K0, mu0, omega, eps, tol=1e-12, max_iter=20,
               divisor_floor=DEFAULT_DIVISOR_FLOOR,
               good_set: GoodSetParams | None = None,
               good_set_scan: int = 4096) -> KamSolution:
    """Iterate newton_step until the l1 residual majorant at rho = 0 is below
    tol; `trace` holds that residual at every evaluation.

    Raises Diverged with the trace when a residual is not finite or two
    consecutive residuals exceed the first one, and NoConvergence when
    max_iter steps end above tol.  When the tail band of K carries relative
    mass above DEFAULT_TAIL_THRESHOLD the cutoff is doubled (up to KMAX_CAP).
    A non-finite eps, mu0, omega or K0 coefficient, a tol outside [0, inf) or
    a max_iter that is not an integer >= 0 raises ValueError.  With `good_set`
    lam(eps) must pass `lambda_in_good_set` over `good_set_scan` modes, or
    DivisorTooSmall carries its witness.
    """
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
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
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must satisfy 0 <= tol < inf, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter}")
    if good_set is not None:
        witness = lambda_in_good_set(fam.lambda_eps(eps), good_set, omega, good_set_scan)
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
                twist = _twist(checked_block(newton_frame(fam, ev, mu, omega, eps),
                                             divisor_floor).block)
            return KamSolution(
                K=K, mu=mu, residual_norm=res, twist_constant=twist,
                trace=tuple(trace), eps=complex(eps),
                omega=np.atleast_1d(np.asarray(omega, dtype=float)),
                lam=complex(fam.lambda_eps(eps)),
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
    """Find sigma so that, in the frame of K_ref, the angle component of the
    mean displacement of K o T_sigma from K_ref vanishes.

    Solved by Newton's method with the exact Jacobian mean(M^-1 DK o T_sigma)
    [:d], read from the sample of K o T_sigma that gives the condition, to
    1e-13 within 60 steps; |sigma| is of the order of the embedding distance.
    Raises NormalizationDiverged if the iteration leaves [-max_shift,
    max_shift] or does not reach 1e-13, and FrameSingular if the frame of
    K_ref cannot be built.
    """
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
    """l1 norm of the d x d series DK^T (J o K) DK (zero on Lagrangian tori),
    from DK alone sampled on the grid `_grid_size(K.kmax)`."""
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
    head = _read_header(fp)
    u, v = load_series(fp), load_series(fp)
    K = TorusEmbedding(FourierSeries(u.dim, u.kmax, np.concatenate([u.coeffs, v.coeffs], -1)))
    residual = float(head["residual"][0])
    return KamSolution(K=K, mu=_parse_pairs(head["mu"]), residual_norm=residual,
                       twist_constant=float(head["twist"][0]), trace=(residual,),
                       eps=complex(_parse_pairs(head["eps"])[0]),
                       omega=np.array([float(t) for t in head["omega"]]),
                       lam=complex(_parse_pairs(head["lambda"])[0]))
