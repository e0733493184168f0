import io

import numpy as np
import pytest

from kamtori.embedding import TorusEmbedding
from kamtori.errors import (DivisorTooSmall, FrameSingular, NoConvergence,
                            NonDegeneracyFailure, NormalizationDiverged)
from kamtori.fourier import FourierSeries
from kamtori.lindstedt import lindstedt_expand
from kamtori.maps import DissipativeStandardMap
from kamtori.newton import (_gram_cond, dump_solution, invariance_residual,
                            lagrangian_defect, load_solution, newton_step,
                            normalize_embedding, reducibility_frame, run_newton)
from kamtori.diophantine import GoodSetParams


def perturbed(K, rng, size=1e-3, kmax=None, seed_modes=3):
    kmax = K.kmax if kmax is None else kmax
    d = K.dim
    c = np.zeros((2 * kmax + 1, 2 * d), dtype=complex)
    for k in range(1, seed_modes + 1):
        z = size * (rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d))
        c[kmax + k] += 0.5 * z
        c[kmax - k] += 0.5 * np.conj(z)
    return K.with_correction(FourierSeries(1, kmax, c))


# -- invariance residual -----------------------------------------------------------

def test_exact_solution_zero_residual(fam, omega, base_torus):
    K0, mu0 = base_torus
    E = invariance_residual(fam, K0, mu0, omega, 0.0)
    assert E.analytic_norm(0.0) <= 1e-15


def test_wrong_drift_residual_pattern(fam, omega, base_torus):
    K0, _ = base_torus
    E = invariance_residual(fam, K0, np.array([0.1]), omega, 0.0)
    # constant defect 0.1 * (1, 1): Frobenius magnitude 0.1 * sqrt(2)
    assert E.analytic_norm(0.0) == pytest.approx(0.1 * np.sqrt(2), rel=1e-12)
    assert abs(E.mode(0)[0] - 0.1) < 1e-14


def test_residual_stable_under_grid_refinement(fam, omega, base_torus):
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    E1 = invariance_residual(fam, sol.K, sol.mu, omega, 0.05)
    E2 = invariance_residual(fam, sol.K, sol.mu, omega, 0.05,
                             n=2 * (3 * sol.K.kmax + 2))
    assert E2.analytic_norm(0.0) <= 2.0 * max(E1.analytic_norm(0.0), 1e-15)


# -- reducibility frame ------------------------------------------------------------

def test_frame_zero_error_on_exact_torus(fam, omega, base_torus):
    K0, mu0 = base_torus
    fr = reducibility_frame(fam, K0, mu0, omega, 0.0)
    assert fr.R_norm <= 1e-12
    assert fr.E_norm <= 1e-15


def test_unperturbed_twist_is_one(fam, omega, base_torus):
    K0, mu0 = base_torus
    fr = reducibility_frame(fam, K0, mu0, omega, 0.0)
    dev = fr.S_tors - FourierSeries.constant(np.array([[1.0]]), 1, fr.S_tors.kmax)
    assert dev.analytic_norm(0.0) <= 1e-13


def test_triangular_reduction_bounded_by_error(fam, omega, base_torus, rng):
    K0, mu0 = base_torus
    K = perturbed(K0, rng, 5e-3)
    fr = reducibility_frame(fam, K, mu0, omega, 0.02)
    assert fr.R_norm <= 50.0 * fr.E_norm


def test_frame_first_block_is_dk(fam, omega, base_torus, rng):
    K = perturbed(base_torus[0], rng, 1e-2)
    fr = reducibility_frame(fam, K, base_torus[1], omega, 0.01)
    d = K.dim
    np.testing.assert_allclose(fr.M_frame.coeffs[..., :, :d],
                               K.dk_series().coeffs, atol=1e-13)


def test_frame_singular_detected(fam, omega):
    # angle derivative 1 + u' vanishes at theta = 0 when u = -sin(2 pi t)/(2 pi)
    kmax = 8
    c = np.zeros((2 * kmax + 1, 2), dtype=complex)
    c[kmax + 1, 0] = -1.0 / (4j * np.pi)
    c[kmax - 1, 0] = 1.0 / (4j * np.pi)
    c[kmax, 1] = 0.6
    K = TorusEmbedding(FourierSeries(1, kmax, c))
    with pytest.raises(FrameSingular):
        reducibility_frame(fam, K, np.array([0.0]), omega, 0.0)


def test_closed_form_gram_cond_matches_numpy():
    vals = np.array([1.0, 0.0, np.inf, -np.inf, 3 + 4j, 1e-320, 2e300j,
                     complex(0, np.inf), -7.5])
    ours = _gram_cond(vals.reshape(-1, 1, 1))
    assert ours.tobytes() == np.linalg.cond(vals.reshape(-1, 1, 1)).tobytes()
    # with a nan entry LAPACK's SVD may fail to converge; where it returns,
    # nan stays nan
    with_nan = np.array([2.0, np.nan, complex(np.inf, np.nan), 0.0]).reshape(-1, 1, 1)
    ours = _gram_cond(with_nan)
    for g, c in zip(with_nan, ours):
        try:
            want = np.linalg.cond(g[None])[0]
        except np.linalg.LinAlgError:
            want = np.nan
        assert np.array_equal(c, want, equal_nan=True)
    assert np.isnan(np.max(ours))


# -- newton step -------------------------------------------------------------------

def test_step_at_fixed_point(fam, omega, base_torus):
    K0, mu0 = base_torus
    K1, mu1, rep = newton_step(fam, K0, mu0, omega, 0.0)
    assert rep.w_norm <= 1e-13
    assert np.max(np.abs(rep.sigma)) <= 1e-13
    assert K1.distance(K0) <= 1e-13


def test_quadratic_error_contraction(fam, omega, base_torus):
    K, mu = base_torus
    eps = 1e-3
    errs = []
    for _ in range(3):
        errs.append(invariance_residual(fam, K, mu, omega, eps).analytic_norm(0.0))
        K, mu, _ = newton_step(fam, K, mu, omega, eps)
    errs.append(invariance_residual(fam, K, mu, omega, eps).analytic_norm(0.0))
    for a, b in zip(errs, errs[1:]):
        if a > 1e-13:
            assert b <= max(10.0 * a ** 2, 5e-15)


def test_step_linear_response(fam, omega, base_torus, rng):
    # W responds linearly to a coefficient perturbation: Richardson check
    K0, mu0 = base_torus
    eps = 0.02
    sol = run_newton(fam, K0, mu0, omega, eps, tol=1e-13)

    def w_of(delta):
        pert = FourierSeries.from_modes(1, sol.K.kmax,
                                        {2: np.array([0.5j * delta, 0.0]),
                                         -2: np.array([0.5j * delta, 0.0])})
        Kp = sol.K.with_correction(pert)
        K1, mu1, rep = newton_step(fam, Kp, sol.mu, omega, eps)
        return (K1.periodic - Kp.periodic).coeffs

    d1 = w_of(1e-4)
    d2 = w_of(5e-5)
    # linear part cancels in d1 - 2 d2; what is left is O(delta^2)
    resid = np.max(np.abs(d1 - 2 * d2))
    assert resid <= 50.0 * (1e-4) ** 2


@pytest.mark.parametrize("solve", [
    lambda fam, K0, mu0, omega: newton_step(fam, K0, mu0, omega, 0.01),
    lambda fam, K0, mu0, omega: lindstedt_expand(fam, K0, mu0, omega, 0.0, 2),
], ids=["newton_step", "lindstedt_expand"])
def test_nondegeneracy_failure_detected(omega, base_torus, solve):
    class NoDrift(DissipativeStandardMap):
        def d_mu(self, x, mu, eps):
            return np.zeros(np.asarray(x).shape[:-1] + (2, 1), dtype=complex)

    fam = NoDrift(kappa=0.5)
    K0, mu0 = base_torus
    with pytest.raises(NonDegeneracyFailure):
        solve(fam, K0, mu0, omega)


# -- full runs ---------------------------------------------------------------------

def test_run_converges_immediately_at_eps0(fam, omega, base_torus):
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.0, tol=1e-12)
    assert len(sol.trace) == 1
    assert sol.residual_norm <= 1e-15
    assert np.isfinite(sol.twist_constant)


def test_run_at_desk_parameters(fam, omega, base_torus):
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    assert sol.residual_norm <= 1e-12
    assert sol.lagrangian_defect <= 1e-10
    rhos = [r for _, r in sol.trace]
    assert all(b <= a for a, b in zip(rhos, rhos[1:]))
    assert rhos[-1] >= 0.1 - 0.1 / 4


def test_run_respects_good_set_gate(fam, omega, base_torus):
    K0, mu0 = base_torus
    gs = GoodSetParams(A=1e-12, N=1, tau=1.0, r0=1.0)
    with pytest.raises(DivisorTooSmall):
        run_newton(fam, K0, mu0, omega, 0.15, good_set=gs)
    sol = run_newton(fam, K0, mu0, omega, 0.15, good_set=gs, force=True)
    assert sol.residual_norm <= 1e-12


def test_engineered_resonance_raises(fam, omega, base_torus):
    K0, mu0 = base_torus
    eps = np.exp(2j * np.pi * omega) - 1.0 + 1e-7   # lam within ~1e-7 of the k=1 root
    with pytest.raises((DivisorTooSmall, NoConvergence)) as err:
        run_newton(fam, K0, mu0, omega, eps, divisor_floor=1e-5, max_iter=6)
    if isinstance(err.value, DivisorTooSmall):
        assert abs(err.value.k[0]) == 1


def test_no_convergence_carries_trace(fam, omega, base_torus):
    K0, mu0 = base_torus
    with pytest.raises(NoConvergence) as err:
        run_newton(fam, K0, mu0, omega, 0.05, tol=1e-30, max_iter=3)
    assert len(err.value.trace) == 4


def test_run_evaluates_the_map_once_per_iteration(omega, base_torus):
    class Counting(DissipativeStandardMap):
        calls = [0]

        def apply(self, x, mu, eps):
            self.calls[0] += 1
            return super().apply(x, mu, eps)

    fam = Counting(kappa=0.5)
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    assert len(sol.trace) > 2
    assert fam.calls[0] == len(sol.trace)


def test_run_matches_hand_loop_of_steps(fam, omega):
    # run_newton hands its evaluation to newton_step; a loop of plain steps,
    # each evaluating on its own, must give the same iterates bit for bit
    K0, mu0 = fam.unperturbed_torus(omega, 6)
    eps, tail = 0.05, 1e-13
    sol = run_newton(fam, K0, mu0, omega, eps, tol=1e-12, tail_threshold=tail)
    K, mu = K0, np.atleast_1d(np.asarray(mu0, dtype=complex))
    residuals = []
    for _ in range(len(sol.trace) - 1):
        residuals.append(invariance_residual(fam, K, mu, omega, eps).analytic_norm(0.0))
        K, mu, rep = newton_step(fam, K, mu, omega, eps)
        assert rep.residual_before == residuals[-1]
        if K.periodic.tail_mass() > tail and K.kmax < 1024:
            K = K.pad_to(min(2 * K.kmax, 1024))
    residuals.append(invariance_residual(fam, K, mu, omega, eps).analytic_norm(0.0))
    assert K.kmax > 6
    assert residuals == [r for r, _ in sol.trace]
    assert K.periodic.coeffs.tobytes() == sol.K.periodic.coeffs.tobytes()
    assert mu.tobytes() == sol.mu.tobytes()
    assert rep.twist == sol.twist_constant


def test_tail_doubling_triggers(fam, omega):
    K0, mu0 = fam.unperturbed_torus(omega, 6)
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12, tail_threshold=1e-13)
    assert sol.K.kmax > 6
    assert sol.residual_norm <= 1e-12


def test_displacement_scales_with_initial_error(fam, omega, base_torus, rng):
    # a-posteriori flavor: halving the initial defect halves the distance
    # from the initial guess to the converged torus, within a factor 4
    K0, mu0 = base_torus
    eps = 0.03
    sol = run_newton(fam, K0, mu0, omega, eps, tol=1e-13)
    moves = []
    for size in (2e-3, 1e-3):
        Kp = perturbed(sol.K, rng, size, seed_modes=2)
        sol2 = run_newton(fam, Kp, sol.mu, omega, eps, tol=1e-13)
        Kn, _ = normalize_embedding(sol2.K, sol.K)
        moves.append(Kp.distance(Kn))
    ratio = moves[0] / moves[1]
    assert 0.5 <= ratio <= 8.0


# -- normalization ------------------------------------------------------------------

def test_normalize_identity(fam, omega, base_torus):
    K0, _ = base_torus
    Kn, sigma = normalize_embedding(K0, K0)
    assert np.max(np.abs(sigma)) <= 1e-12
    assert Kn.distance(K0) <= 1e-10


def test_normalize_recovers_constructed_shift(fam, omega, base_torus):
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-13)
    shifted = sol.K.shifted(0.01)
    _, sigma = normalize_embedding(shifted, sol.K)
    assert np.real(sigma[0]) == pytest.approx(-0.01, abs=1e-10)


def test_normalize_uniqueness_of_representative(fam, omega, base_torus, rng):
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-13)
    a, _ = normalize_embedding(sol.K.shifted(0.004), sol.K)
    b, _ = normalize_embedding(sol.K.shifted(-0.007), sol.K)
    assert a.distance(b) <= 1e-10


def test_normalize_trust_region(fam, omega, base_torus):
    K0, _ = base_torus
    with pytest.raises(NormalizationDiverged):
        normalize_embedding(K0.shifted(0.2), K0, max_shift=0.05)


# -- lagrangian defect ---------------------------------------------------------------

def test_lagrangian_defect_flat_circle(base_torus):
    assert lagrangian_defect(base_torus[0]) <= 1e-16


def test_lagrangian_defect_converged_torus(fam, omega, base_torus):
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    assert sol.lagrangian_defect <= 1e-10


def test_lagrangian_defect_nonzero_in_2d(rng):
    # a random (non-invariant) 2-torus embedding has an O(1) defect
    kmax = 4
    c = 0.3 * (rng.standard_normal((9, 9, 4)) + 1j * rng.standard_normal((9, 9, 4)))
    K = TorusEmbedding(FourierSeries(2, kmax, c))
    assert lagrangian_defect(K) > 1e-2


# -- files ---------------------------------------------------------------------------

def test_solution_dump_load_round_trip(fam, omega, base_torus):
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    buf = io.StringIO()
    dump_solution(sol, buf)
    buf.seek(0)
    back = load_solution(buf)
    assert back.eps == sol.eps
    assert back.lam == sol.lam
    np.testing.assert_array_equal(back.mu, sol.mu)
    assert back.K.distance(sol.K) == 0.0
