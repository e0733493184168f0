"""Quadratic Newton solver for the invariance equation

    f_{mu,eps} o K = K o T_omega

on an adapted frame in which the linearized map is block triangular
[[I, S], [0, lam*I]] up to an error controlled by the invariance defect
(automatic reducibility).  One step solves a lam-twisted and an untwisted
difference equation plus a 2d x 2d averaged system for the drift correction,
and converges quadratically from any sufficiently accurate initial pair.

The reduced system is written once, over jets in eps whose order 0 is the
Newton frame, and both Lindstedt engines use it: `build_frame` turns the jets
of DK, E, Df and D_mu f (evaluated by the caller) into the frame data,
`checked_block` gates the averaged 2d x 2d block of the order-0 torus, and
`solve_reduced` solves one triangular system for (W1, W2, sigma).

Each Newton iteration evaluates the map once: `run_newton` samples
X = K(theta), the defect E = f o K - K o T_omega and E's series on the grid,
reads its residual from that series and hands the same evaluation to
`newton_step`, whose frame, step report and (at convergence) twist reuse it.
The frame conditioning gate on DK^T DK uses the closed form |g|/|g| for the
1 x 1 Gram of d = 1 and `np.linalg.cond` for d > 1; both follow
`np.linalg.cond`'s rules (0 and inf give inf, nan stays nan), and every
non-finite or too large value raises FrameSingular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .cohomology import CohomologySolution, DEFAULT_DIVISOR_FLOOR, solve_twisted
from .diophantine import GoodSetParams, lambda_in_good_set
from .embedding import TorusEmbedding
from .errors import (DivisorTooSmall, FrameSingular, NoConvergence,
                     NonDegeneracyFailure, NormalizationDiverged)
from .fourier import (FourierSeries, dump_series, fast_grid_size, from_grid,
                      load_series, to_grid)
from .maps import symplectic_matrix

DEFAULT_DET_RTOL = 1e-10
DEFAULT_TAIL_THRESHOLD = 1e-10

_FRAME_COND_LIMIT = 1e12


def _grid_size(kmax: int, n=None) -> int:
    wanted = max(3 * kmax + 2, 16)
    if n is not None:
        if n < 2 * kmax + 1:
            raise ValueError(f"grid size {n} violates the Nyquist bound for kmax={kmax}")
        wanted = max(wanted, n)
    return fast_grid_size(wanted)


def _mean(grid: np.ndarray, dim: int) -> np.ndarray:
    return np.mean(grid, axis=tuple(range(dim)))


def _shift_packed(grids, dim, kmax, omega, n) -> list:
    """Compose every order of each grid jet with T_omega (exact for the
    retained band; performed in coefficient space).

    The orders and values of all the jets are packed into the columns of one
    grid array, shifted with one from_grid/to_grid pair; the batched
    transforms act column by column, so every result equals the shift of its
    jet alone.
    """
    lead = grids[0].shape[:dim + 1]
    packed = np.concatenate([g.reshape(lead + (-1,)) for g in grids], axis=-1)
    columns = np.moveaxis(packed, 0, dim)
    shifted = np.moveaxis(to_grid(from_grid(columns, dim, kmax).shift(omega), n), dim, 0)
    out, start = [], 0
    for g in grids:
        size = int(np.prod(g.shape[dim + 1:]))
        out.append(np.ascontiguousarray(shifted[..., start:start + size]).reshape(g.shape))
        start += size
    return out


@dataclass(frozen=True)
class _Defect:
    """One evaluation of (K, mu) on the grid: the lift X = K(theta) and the
    defect E = f_{mu,eps} o K - K o T_omega, with E's series at K's cutoff."""

    X: np.ndarray
    E: np.ndarray
    dim: int
    kmax: int

    @cached_property
    def series(self) -> FourierSeries:
        return from_grid(self.E, self.dim, self.kmax)


def _evaluate(fam, K: TorusEmbedding, mu, omega, eps, n=None) -> _Defect:
    n = _grid_size(K.kmax, n)
    X = K.lift_grid(n)
    E = fam.apply(X, mu, eps) - K.shifted_lift_grid(omega, n)
    return _Defect(X, E, K.dim, K.kmax)


def invariance_residual(fam, K: TorusEmbedding, mu, omega, eps, n=None) -> FourierSeries:
    """E = f_{mu,eps} o K - K o T_omega as a (2d,)-valued series.

    Computed on an oversampled grid with continuous angle lifts, then
    truncated to the embedding's cutoff.
    """
    return _evaluate(fam, K, mu, omega, eps, n).series


# -- the reduced system ---------------------------------------------------------

def _gram_cond(gram: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack of Gram matrices, by the rules of
    np.linalg.cond (0 and inf give inf, nan stays nan).

    A 1 x 1 Gram g has the closed form |g|/|g| (exactly 1.0 when g is finite
    and nonzero), which spares the batched SVD for d = 1; a nan entry gives
    nan there, where the SVD of np.linalg.cond may fail to converge instead.
    """
    if gram.shape[-1] > 1:
        return np.linalg.cond(gram)
    g = gram[..., 0, 0]
    mag = np.abs(g)
    with np.errstate(invalid="ignore"):
        cond = mag / mag
    cond[np.isnan(cond) & ~np.isnan(g)] = np.inf
    return cond


def _frame_matrix(dk: np.ndarray, Jinv: np.ndarray):
    """Jets of N = (DK^T DK)^-1 and of the frame M = [DK, J^-1 DK N], and the
    worst conditioning of DK^T DK on the grid.

    Raises FrameSingular when the order-0 Gram matrix is ill-conditioned; the
    higher orders are solved with its inverse.
    """
    gram = jets.matmul(np.swapaxes(dk, -1, -2), dk)
    cond = float(np.max(_gram_cond(gram[0])))
    if not np.isfinite(cond) or cond > _FRAME_COND_LIMIT:
        raise FrameSingular(
            f"DK^T DK condition number {cond:.3e} exceeds {_FRAME_COND_LIMIT:.1e}"
        )
    N = jets.inv_matrix(gram)
    return N, np.concatenate([dk, jets.matmul(Jinv @ dk, N)], axis=-1), cond


@dataclass(frozen=True)
class Frame:
    """Jets, leading axis the order in eps, of the adapted frame on the grid."""

    d: int
    kmax: int
    n: int
    omega: np.ndarray
    lam: np.ndarray       # (order+1,) conformal factor
    E: np.ndarray         # (.., 2d) invariance defect
    Df: np.ndarray        # (.., 2d, 2d)
    M: np.ndarray         # (.., 2d, 2d) frame [DK, J^-1 DK N]
    Mshift: np.ndarray    # M o T_omega
    beta: np.ndarray      # (M o T_omega)^-1
    N: np.ndarray         # (.., d, d) normalization (DK^T DK)^-1
    S: np.ndarray         # (.., d, d) torsion
    A: np.ndarray         # (.., 2d, d) frame-projected drift response
    Et: np.ndarray        # (.., 2d) frame-projected defect beta E
    cond: float           # worst conditioning of DK^T DK on the grid


def build_frame(Jinv, lam, dk, E, Df, Dmu, omega, kmax: int) -> Frame:
    """The adapted frame from the jets of the conformal factor lam, DK, the
    defect E and the map derivatives Df, D_mu f, all sampled on one grid."""
    n, d = dk.shape[1], dk.shape[-1]
    N, M, cond = _frame_matrix(dk, Jinv)
    gamma = jets.matmul(np.swapaxes(dk, -1, -2) @ Jinv, dk)
    # M, N and gamma composed with T_omega in one batched shift
    Mshift, Nshift, gshift = _shift_packed((M, N, gamma), d, kmax, omega, n)
    beta = jets.inv_matrix(Mshift)

    P = jets.matmul(dk, N)
    # M o T = [DK o T, J^-1 (P o T)] and J^-1 is a signed permutation, so
    # J (M o T)[..., d:] is P o T exactly
    Pshift = Jinv.T @ Mshift[..., d:]
    # S = (P^T o T) Df J^-1 P - lam (N^T o T)(gamma o T)(N o T), associated
    # from the left throughout
    lam_bc = lam.reshape(lam.shape + (1,) * (Nshift.ndim - 1))
    S = jets.matmul(jets.matmul(np.swapaxes(Pshift, -1, -2), Df) @ Jinv, P) \
        - jets.matmul(jets.matmul(jets.cauchy(lam_bc, np.swapaxes(Nshift, -1, -2)),
                                  gshift), Nshift)
    return Frame(d=d, kmax=kmax, n=n, omega=omega, lam=lam, E=E, Df=Df, M=M,
                 Mshift=Mshift, beta=beta, N=N, S=S, A=jets.matmul(beta, Dmu),
                 Et=jets.matmul(beta, E[..., None])[..., 0], cond=cond)


def newton_frame(fam, K, mu, omega, eps, n=None, *, _defect: _Defect | None = None) -> Frame:
    """The frame of (K, mu) at eps: the pointwise map evaluations enter as
    order-0 jets.  `_defect` is an evaluation of (K, mu) on the grid the
    caller already holds; it fixes the grid, so n is then not used."""
    ev = _evaluate(fam, K, mu, omega, eps, n) if _defect is None else _defect
    X = ev.X
    lam = np.array([complex(fam.lambda_eps(eps))])
    return build_frame(fam.Jinv, lam, K.dk_grid(X.shape[0])[None], ev.E[None],
                       fam.jacobian(X, mu, eps)[None], fam.d_mu(X, mu, eps)[None],
                       omega, K.kmax)


@dataclass(frozen=True)
class ReducedCore:
    """A frame with its checked averaged block and drift response Bb."""

    frame: Frame
    block: np.ndarray          # (2d, 2d) averaged system
    det: complex
    Bb: CohomologySolution
    Bb_grid: np.ndarray
    divisor_floor: float | np.ndarray   # scalar or per-mode floor of every solve

    def twist(self) -> float:
        return float(np.linalg.norm(np.linalg.inv(self.block), 2))


def checked_block(frame: Frame, divisor_floor=DEFAULT_DIVISOR_FLOOR,
                  det_rtol=DEFAULT_DET_RTOL) -> ReducedCore:
    """Assemble the 2d x 2d averaged block of the order-0 torus.

    Solves the twisted drift response Bb first (which may raise
    DivisorTooSmall) and raises NonDegeneracyFailure when
    |det| <= det_rtol * scale^(2d), scale being the largest absolute row sum.
    """
    d, lam = frame.d, complex(frame.lam[0])
    S, A1, A2 = frame.S[0], frame.A[0, ..., :d, :], frame.A[0, ..., d:, :]
    Bb = solve_twisted(-from_grid(A2, d, frame.kmax).remove_average(), lam,
                       frame.omega, divisor_floor=divisor_floor)
    Bb_grid = to_grid(Bb.phi, frame.n)
    block = np.zeros((2 * d, 2 * d), dtype=complex)
    block[:d, :d] = _mean(S, d)
    block[:d, d:] = _mean(S @ Bb_grid, d) + _mean(A1, d)
    block[d:, :d] = (lam - 1.0) * np.eye(d)
    block[d:, d:] = _mean(A2, d)
    scale = float(np.max(np.sum(np.abs(block), axis=1)))
    det = np.linalg.det(block)
    if not np.isfinite(scale) or abs(det) <= det_rtol * scale ** (2 * d):
        raise NonDegeneracyFailure(det, scale)
    return ReducedCore(frame, block, complex(det), Bb, Bb_grid, divisor_floor)


def solve_reduced(core: ReducedCore, rhs1: np.ndarray, rhs2: np.ndarray):
    """Solve the triangular system of the order-0 frame,

        (W1 - W1 o T) + S W2 + A1 sigma = rhs1,
        (lam W2 - W2 o T) + A2 sigma = rhs2,

    for grid corrections W1 (zero average), W2 and the drift sigma: a
    lam-twisted solve, the averaged block for (avg W2, sigma), then an
    untwisted solve.  Returns (W1, W2, sigma, largest divisor gain).
    """
    fr = core.frame
    d, kmax, n, lam = fr.d, fr.kmax, fr.n, complex(fr.lam[0])
    S, A1 = fr.S[0], fr.A[0, ..., :d, :]
    Ba = solve_twisted(from_grid(rhs2, d, kmax).remove_average(), lam, fr.omega,
                       divisor_floor=core.divisor_floor)
    Ba_grid = to_grid(Ba.phi, n)
    rhs_avg = np.concatenate([
        _mean(rhs1, d) - _mean((S @ Ba_grid[..., None])[..., 0], d),
        _mean(rhs2, d),
    ])
    sol = np.linalg.solve(core.block, rhs_avg)
    W2bar, sigma = sol[:d], sol[d:]
    W2 = Ba_grid + core.Bb_grid @ sigma + W2bar

    r1 = rhs1 - (S @ W2[..., None])[..., 0] - A1 @ sigma
    W1sol = solve_twisted(from_grid(r1, d, kmax).remove_average(), 1.0, fr.omega,
                          divisor_floor=core.divisor_floor)
    W1 = to_grid(W1sol.phi, n)
    return W1, W2, sigma, max(Ba.max_divisor_gain, W1sol.max_divisor_gain)


@dataclass(frozen=True)
class ReducibilityFrame:
    M_frame: FourierSeries      # (2d, 2d) adapted frame, first block DK
    N_norm: FourierSeries       # (d, d) normalization (DK^T DK)^-1
    S_tors: FourierSeries       # (d, d) torsion
    A_tilde: FourierSeries      # (2d, d) frame-projected drift response
    beta: FourierSeries         # (2d, 2d) inverse of M o T_omega
    residual_R: FourierSeries   # reducibility defect
    R_norm: float
    E_norm: float
    ratio: float                # R_norm / max(E_norm, tiny)
    cond: float                 # worst conditioning of DK^T DK on the grid


def reducibility_frame(fam, K, mu, omega, eps, n=None) -> ReducibilityFrame:
    """Adapted frame with the reducibility defect R and its norm ratio to E."""
    fr = newton_frame(fam, K, mu, omega, eps, n)
    d, kmax = fr.d, fr.kmax
    tri = np.zeros(fr.S.shape[1:-2] + (2 * d, 2 * d), dtype=complex)
    idx = np.arange(d)
    tri[..., idx, idx] = 1.0
    tri[..., idx + d, idx + d] = fr.lam[0]
    tri[..., :d, d:] = fr.S[0]
    R_series = from_grid(fr.Df[0] @ fr.M[0] - fr.Mshift[0] @ tri, d, kmax)
    R_norm = R_series.analytic_norm(0.0)
    E_norm = from_grid(fr.E[0], d, kmax).analytic_norm(0.0)
    return ReducibilityFrame(
        M_frame=from_grid(fr.M[0], d, kmax),
        N_norm=from_grid(fr.N[0], d, kmax),
        S_tors=from_grid(fr.S[0], d, kmax),
        A_tilde=from_grid(fr.A[0], d, kmax),
        beta=from_grid(fr.beta[0], d, kmax),
        residual_R=R_series,
        R_norm=R_norm,
        E_norm=E_norm,
        ratio=R_norm / max(E_norm, 1e-300),
        cond=fr.cond,
    )


@dataclass(frozen=True)
class StepReport:
    w_norm: float
    sigma: np.ndarray
    residual_before: float
    twist: float
    det: complex
    divisor_gain: float
    grid: int


def newton_step(fam, K, mu, omega, eps, divisor_floor=DEFAULT_DIVISOR_FLOOR,
                det_rtol=DEFAULT_DET_RTOL, n=None, *, _defect: _Defect | None = None):
    """One quadratic correction (K, mu) -> (K + M W, mu + sigma).

    `_defect` is run_newton's evaluation of (K, mu), reused for the frame and
    the report's residual instead of evaluating the map again; without it the
    step evaluates (K, mu) on the grid of size n itself.
    """
    ev = _evaluate(fam, K, mu, omega, eps, n) if _defect is None else _defect
    fr = newton_frame(fam, K, mu, omega, eps, _defect=ev)
    core = checked_block(fr, divisor_floor, det_rtol)
    d, kmax = fr.d, fr.kmax
    W1, W2, sigma, gain = solve_reduced(core, -fr.Et[0, ..., :d], -fr.Et[0, ..., d:])

    W = np.concatenate([W1, W2], axis=-1)
    delta = from_grid((fr.M[0] @ W[..., None])[..., 0], d, kmax)
    K2 = K.with_correction(delta)
    mu2 = np.atleast_1d(np.asarray(mu, dtype=complex)) + sigma

    report = StepReport(
        w_norm=from_grid(W, d, kmax).analytic_norm(0.0),
        sigma=sigma,
        residual_before=ev.series.analytic_norm(0.0),
        twist=core.twist(),
        det=core.det,
        divisor_gain=max(gain, core.Bb.max_divisor_gain),
        grid=fr.n,
    )
    return K2, mu2, report


@dataclass(frozen=True)
class KamSolution:
    K: TorusEmbedding
    mu: np.ndarray
    residual_norm: float
    twist_constant: float
    lagrangian_defect: float
    trace: tuple               # ((residual, rho_n) per iteration)
    eps: complex
    omega: np.ndarray
    lam: complex


def run_newton(fam, K0, mu0, omega, eps, tol=1e-12, max_iter=20, rho=0.1,
               delta0=None, divisor_floor=DEFAULT_DIVISOR_FLOOR,
               det_rtol=DEFAULT_DET_RTOL, good_set: GoodSetParams | None = None,
               good_set_scan: int = 4096, force: bool = False,
               tail_threshold=DEFAULT_TAIL_THRESHOLD, kmax_cap: int = 1024) -> KamSolution:
    """Iterate newton_step until the l1 residual majorant is below tol.

    The strip bookkeeping follows rho_{n+1} = rho_n - delta0 / 2^{n+1} with
    delta0 = rho/4 by default, so the total loss stays below delta0.  When the
    tail band of K carries relative mass above `tail_threshold` the cutoff is
    doubled (up to kmax_cap).
    """
    if good_set is not None and not force:
        witness = lambda_in_good_set(complex(fam.lambda_eps(eps)), good_set,
                                     omega, good_set_scan)
        if not witness.member:
            knorm = max(sum(abs(c) for c in witness.nu.k), 1)
            floor = witness.factor / (good_set.A * knorm ** good_set.tau)
            raise DivisorTooSmall(witness.nu.k, witness.nu.divisor, floor)

    delta0 = rho / 4.0 if delta0 is None else delta0
    K = K0
    mu = np.atleast_1d(np.asarray(mu0, dtype=complex))
    rho_n = rho
    trace = []
    twist = float("nan")
    for it in range(max_iter + 1):
        ev = _evaluate(fam, K, mu, omega, eps)
        res = ev.series.analytic_norm(0.0)
        trace.append((res, rho_n))
        if res <= tol:
            if not np.isfinite(twist):
                twist = checked_block(newton_frame(fam, K, mu, omega, eps, _defect=ev),
                                      divisor_floor, det_rtol).twist()
            return KamSolution(
                K=K, mu=mu, residual_norm=res, twist_constant=twist,
                lagrangian_defect=lagrangian_defect(K, fam.J),
                trace=tuple(trace), eps=complex(eps),
                omega=np.atleast_1d(np.asarray(omega, dtype=float)),
                lam=complex(fam.lambda_eps(eps)),
            )
        if it == max_iter:
            break
        K, mu, report = newton_step(fam, K, mu, omega, eps,
                                    divisor_floor=divisor_floor,
                                    det_rtol=det_rtol, _defect=ev)
        twist = report.twist
        rho_n = max(rho_n - delta0 / 2.0 ** (it + 1), 0.0)
        if K.periodic.tail_mass() > tail_threshold and K.kmax < kmax_cap:
            K = K.pad_to(min(2 * K.kmax, kmax_cap))
    raise NoConvergence(max_iter, trace)


def normalize_embedding(K: TorusEmbedding, K_ref: TorusEmbedding,
                        max_shift: float = 0.25, tol: float = 1e-13,
                        max_iter: int = 60):
    """Find sigma so that, in the frame of K_ref, the angle component of the
    mean displacement of K o T_sigma from K_ref vanishes.

    Solved per component by a damped secant iteration; |sigma| is of the
    order of the embedding distance.  Raises NormalizationDiverged if the
    iteration leaves [-max_shift, max_shift], and FrameSingular if the frame
    of K_ref cannot be built.
    """
    d = K.dim
    kmax = max(K.kmax, K_ref.kmax)
    K = K.pad_to(kmax)
    K_ref = K_ref.pad_to(kmax)
    n = _grid_size(kmax)

    _, M, _ = _frame_matrix(K_ref.dk_grid(n)[None], symplectic_matrix(d).T)
    Minv = np.linalg.inv(M[0])
    ref_lift = K_ref.lift_grid(n)

    def g(sigma):
        # the condition is holomorphic in sigma, so a complex shift is allowed
        diff = K.shifted(sigma).lift_grid(n) - ref_lift
        return _mean((Minv @ diff[..., None])[..., 0], d)[:d]

    sigma = np.zeros(d, dtype=complex)
    val = g(sigma)
    h = 1e-7
    for _ in range(max_iter):
        if np.max(np.abs(val)) <= tol:
            break
        jac = np.empty((d, d), dtype=complex)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            jac[:, j] = (g(sigma + e) - g(sigma - e)) / (2 * h)
        sigma = sigma - np.linalg.solve(jac, val)
        if np.max(np.abs(sigma)) > max_shift:
            raise NormalizationDiverged(
                f"shift {sigma} left the trust region |sigma| <= {max_shift}"
            )
        val = g(sigma)
    else:
        if np.max(np.abs(val)) > tol:
            raise NormalizationDiverged("secant iteration did not reach tolerance")
    if np.max(np.abs(sigma.imag)) < 1e-13:
        sigma = sigma.real
    return K.shifted(sigma), sigma


def lagrangian_defect(K: TorusEmbedding, J=None) -> float:
    """l1 norm of the d x d series DK^T (J o K) DK (zero on Lagrangian tori)."""
    d = K.dim
    if J is None:
        J = symplectic_matrix(d)
    n = _grid_size(K.kmax)
    alpha = K.dk_grid(n)
    L = np.swapaxes(alpha, -1, -2) @ J @ alpha
    return from_grid(L, d, K.kmax).analytic_norm(0.0)


# -- solution files -----------------------------------------------------------

def dump_solution(sol: KamSolution, fp) -> None:
    fp.write(f"# kamtori-solution d={sol.K.dim} kmax={sol.K.kmax}\n")
    fp.write("# omega " + " ".join(f"{w:.17g}" for w in sol.omega) + "\n")
    fp.write(f"# eps {sol.eps.real:.17g} {sol.eps.imag:.17g}\n")
    fp.write("# mu " + " ".join(f"{m.real:.17g} {m.imag:.17g}" for m in sol.mu) + "\n")
    fp.write(f"# lambda {sol.lam.real:.17g} {sol.lam.imag:.17g}\n")
    fp.write(f"# rho {sol.trace[-1][1]:.17g}\n")
    fp.write(f"# residual {sol.residual_norm:.17g}\n")
    fp.write(f"# twist {sol.twist_constant:.17g}\n")
    dump_series(sol.K.angle_correction(), fp)
    dump_series(sol.K.action(), fp)


def load_solution(fp) -> KamSolution:
    head = {}
    pos = fp.tell()
    while True:
        line = fp.readline()
        if not line.startswith("#") or line.startswith("# fourier"):
            fp.seek(pos)
            break
        pos = fp.tell()
        toks = line[1:].split()
        head[toks[0]] = toks[1:]
    u = load_series(fp)
    v = load_series(fp)
    d = u.dim
    coeffs = np.concatenate([
        u.coeffs[..., None] if u.value_shape == () else u.coeffs,
        v.coeffs[..., None] if v.value_shape == () else v.coeffs,
    ], axis=-1)
    K = TorusEmbedding(FourierSeries(d, u.kmax, coeffs))
    mu_raw = [float(t) for t in head["mu"]]
    mu = np.array([complex(a, b) for a, b in zip(mu_raw[0::2], mu_raw[1::2])])
    eps = complex(float(head["eps"][0]), float(head["eps"][1]))
    lam = complex(float(head["lambda"][0]), float(head["lambda"][1]))
    residual = float(head["residual"][0])
    rho = float(head["rho"][0])
    twist = float(head["twist"][0])
    omega = np.array([float(t) for t in head["omega"]])
    return KamSolution(K=K, mu=mu, residual_norm=residual, twist_constant=twist,
                       lagrangian_defect=lagrangian_defect(K),
                       trace=((residual, rho),), eps=eps, omega=omega, lam=lam)
