import io
import re

import numpy as np
import pytest

from kamtori import embedding, fourier, jets, newton
from kamtori.atlas import coupled_divisor_floor
from kamtori.embedding import TorusEmbedding, sample_jet
from kamtori.errors import (Diverged, DivisorTooSmall, FrameSingular, NoConvergence,
                            NonDegeneracyFailure, NormalizationDiverged)
from kamtori.fourier import FourierSeries, _packed, fast_grid_size, from_grid, to_grid
from kamtori.lindstedt import lindstedt_expand
from kamtori.maps import DissipativeStandardMap
from kamtori.newton import (_evaluate, _gram_cond, dump_solution,
                            invariance_residual, lagrangian_defect, load_solution,
                            newton_step, normalize_embedding, reducibility_frame,
                            run_newton)
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

class _ZeroMap:
    """apply is zero, so the defect is 0 - K o T_omega exactly."""

    def apply(self, x, mu, eps):
        return np.zeros_like(x)


@pytest.mark.parametrize("dim", [1, 2])
def test_packed_evaluation_matches_separate_lifts(dim):
    # _evaluate samples K as the order-0 jet of sample_jet (which
    # test_embedding checks against one transform per lift): X, DK,
    # DK o T_omega and E = 0 - K o T_omega are that jet's order 0 byte for byte
    rng = np.random.default_rng(dim)
    kmax = 12 if dim == 1 else 5
    shape = (2 * kmax + 1,) * dim + (2 * dim,)
    K = TorusEmbedding(FourierSeries(
        dim, kmax, 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))))
    omega = np.array([(np.sqrt(5.0) - 1.0) / 2.0, np.sqrt(2.0) - 1.0][:dim])
    ev = _evaluate(_ZeroMap(), K, None, omega, 0.0)
    X, Xshift, DK, DKshift = sample_jet(K.periodic.coeffs[None], omega, ev.X.shape[0])
    assert ev.X.tobytes() == X[0].tobytes()
    assert ev.E.tobytes() == (0.0 - Xshift[0]).tobytes()
    assert ev.DK.tobytes() == DK[0].tobytes()
    assert ev.DKshift.tobytes() == DKshift[0].tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_packed_from_grid_matches_separate_transforms(dim):
    rng = np.random.default_rng(dim)
    grids = [rng.standard_normal((20,) * dim + shape) + 0j for shape in ((2 * dim,), (dim, 3))]
    got = _packed(lambda g: from_grid(g, dim, 7).coeffs, grids, dim)
    for g, part in zip(grids, got):
        assert part.tobytes() == from_grid(g, dim, 7).coeffs.tobytes()


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


def test_residual_stable_under_grid_refinement(fam, omega, base_torus, monkeypatch):
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    E1 = invariance_residual(fam, sol.K, sol.mu, omega, 0.05)
    # the same torus sampled on a grid oversampled twice as much
    monkeypatch.setattr(newton, "_grid_size",
                        lambda kmax: fast_grid_size(2 * (3 * kmax + 2)))
    E2 = invariance_residual(fam, sol.K, sol.mu, omega, 0.05)
    assert E2.analytic_norm(0.0) <= 2.0 * max(E1.analytic_norm(0.0), 1e-15)


# -- reducibility frame ------------------------------------------------------------

def test_frame_zero_error_on_exact_torus(fam, omega, base_torus):
    K0, mu0 = base_torus
    fr = reducibility_frame(fam, K0, mu0, omega, 0.0)
    assert fr.R_norm <= 1e-12
    assert fr.E_norm <= 1e-15


def test_unperturbed_twist_is_one(fam, omega, base_torus):
    K0, mu0 = base_torus
    fr = reducibility_frame(fam, K0, mu0, omega, 0.0).frame
    one = FourierSeries.constant(np.array([[1.0]]), 1, fr.kmax)
    dev = from_grid(fr.S[0], 1, fr.kmax) - one
    assert dev.analytic_norm(0.0) <= 1e-13


def test_triangular_reduction_bounded_by_error(fam, omega, base_torus, rng):
    K0, mu0 = base_torus
    K = perturbed(K0, rng, 5e-3)
    fr = reducibility_frame(fam, K, mu0, omega, 0.02)
    assert fr.R_norm <= 50.0 * fr.E_norm


def test_reducibility_view_matches_the_triangular_product(fam, omega, base_torus, rng):
    # R is formed from the blocks of M o T_omega; the reference multiplies
    # by the whole matrix tri = [[I, S], [0, lam I]]
    K, mu, eps = perturbed(base_torus[0], rng, 5e-3), base_torus[1], 0.02
    view = reducibility_frame(fam, K, mu, omega, eps)
    fr = view.frame
    tri = np.zeros(fr.S.shape[1:-2] + (2, 2), dtype=complex)
    tri[..., 0, 0] = 1.0
    tri[..., 1, 1] = fr.lam[0]
    tri[..., :1, 1:] = fr.S[0]
    R = jets.mm(fr.Df[0], fr.M[0]) - jets.mm(fr.Mshift[0], tri)
    R_norm = from_grid(R, 1, fr.kmax).analytic_norm(0.0)
    E_norm = invariance_residual(fam, K, mu, omega, eps).analytic_norm(0.0)
    assert E_norm > 1e-6
    assert (view.R_norm, view.E_norm, view.ratio) == (R_norm, E_norm, R_norm / E_norm)


def test_frame_first_block_is_dk(fam, omega, base_torus, rng):
    K = perturbed(base_torus[0], rng, 1e-2)
    fr = reducibility_frame(fam, K, base_torus[1], omega, 0.01).frame
    d, kmax = K.dim, K.kmax
    DK = sample_jet(K.periodic.coeffs[None], omega, 3 * kmax + 2)[2][0]
    np.testing.assert_allclose(from_grid(fr.M[0], d, kmax).coeffs[..., :, :d],
                               from_grid(DK, d, kmax).coeffs, atol=1e-13)


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


def _frame_of(dk, dkshift):
    """build_frame on order-0 jets of DK and DK o T_omega sampled at 4 points,
    with Df = I and D_mu f = 1."""
    Df = np.broadcast_to(np.eye(2, dtype=complex), (1, 4, 2, 2))
    return newton.build_frame(np.array([1.0 + 0j]), dk, dkshift, Df,
                              np.ones((1, 4, 2, 1), dtype=complex), np.array([0.25]), 1)


def _angle_dk(values):
    dk = np.zeros((1, 4, 2, 1), dtype=complex)
    dk[0, :, 0, 0] = values
    return dk


@pytest.mark.parametrize("shift_dk", [
    # the Gram of DK o T_omega is 0 at one point
    [1.0, 0.0, 1.0, 1.0],
    # a NaN sample of DK o T_omega makes its Gram NaN there
    [1.0, np.nan, 1.0, 1.0],
], ids=["singular", "nan"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:divide by zero:RuntimeWarning")
def test_singular_shifted_frame_raises_frame_singular(shift_dk):
    # DK itself is well conditioned, so the frame names the shifted matrix,
    # never DK^T DK
    with pytest.raises(FrameSingular) as err:
        _frame_of(_angle_dk([1.0] * 4), _angle_dk(shift_dk))
    assert str(err.value) == "N o T_omega is not finite at 1 of 4 grid points"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_frame_whose_normalization_overflows_its_shift_is_singular():
    # a subnormal Gram g of DK o T_omega at one point: N o T_omega = 1/g
    # overflows there
    with pytest.raises(FrameSingular) as err:
        _frame_of(_angle_dk([1.0] * 4), _angle_dk([1.0, 1.0, 1e-160, 1.0]))
    assert str(err.value) == "N o T_omega is not finite at 1 of 4 grid points"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_frame_names_a_subnormal_gram_of_dk_as_dk():
    # a subnormal Gram g of DK passes the conditioning gate (|g|/|g| = 1),
    # but N = 1/g overflows; the frame names DK's Gram, not the shifted one
    with pytest.raises(FrameSingular) as err:
        _frame_of(_angle_dk([1.0, 1.0, 1e-160, 1.0]), _angle_dk([1.0] * 4))
    assert str(err.value) == "DK^T DK is singular or not finite at 1 of 4 grid points"


def test_shifted_frame_is_the_frame_of_the_shifted_dk(fam, omega, base_torus, monkeypatch):
    # M o T_omega and its inverse beta are the pointwise formulas on the
    # sample of DK o T_omega, bit for bit, and no grid transform is made
    kmax = 16
    k = np.abs(np.arange(-kmax, kmax + 1))
    rng = np.random.default_rng(7)
    c = np.array(fam.unperturbed_torus(omega, kmax)[0].periodic.coeffs)
    c += 1e-2 * np.exp(-0.3 * k)[:, None] * (rng.standard_normal(c.shape)
                                             + 1j * rng.standard_normal(c.shape))
    K = TorusEmbedding(FourierSeries(1, kmax, c))
    ev = _evaluate(fam, K, base_torus[1], omega, 0.01)
    # DK o T_omega: the derivative of K o T_omega, the identity in its mean
    dks = np.array(K.periodic.shift(omega).differentiate(0).coeffs)[..., None]
    dks[kmax, 0, 0] += 1.0
    dks = to_grid(FourierSeries(1, kmax, dks), ev.X.shape[0])
    assert dks.tobytes() == ev.DKshift.tobytes()

    def no_transform(*args, **kwargs):
        raise AssertionError("build_frame made a grid transform")

    for module in (newton, fourier):
        monkeypatch.setattr(module, "from_grid", no_transform)
        monkeypatch.setattr(module, "to_grid", no_transform)
    monkeypatch.setattr(FourierSeries, "shift", no_transform)
    fr = newton.newton_frame(fam, ev, base_torus[1], omega, 0.01)
    _, Mshift = newton._frame_matrix(dks[None])
    assert fr.Mshift[0].tobytes() == Mshift[0].tobytes()
    assert fr.beta[0].tobytes() == jets.inv_stack(Mshift[0]).tobytes()


def test_not_finite_points_counts_one_nan_grid_point(rng):
    stack = rng.standard_normal((3125, 2, 2)) + 0j
    assert newton._not_finite_points(stack) == 0
    stack[1234, 1, 0] = complex(0.0, np.nan)
    assert newton._not_finite_points(stack) == 1
    stack[7, 0, 0] = stack[7, 0, 1] = np.inf
    assert newton._not_finite_points(stack) == 2


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


@pytest.mark.parametrize("eps, mu0, bad, kw, named", [
    (np.nan, [0.0], None, {}, "eps must be finite, got nan"),
    (complex(0.05, np.inf), [0.0], None, {}, "eps must be finite, got (0.05+infj)"),
    (0.05, [np.nan], None, {}, "mu0 must be finite, got [nan]"),
    (0.05, [0.0], ((32, 1), np.nan), {}, "K0 must be finite, got (nan+0j) at mode k=(0,)"),
    (0.05, [0.0], ((33, 0), np.nan), {}, "K0 must be finite, got (nan+0j) at mode k=(1,)"),
    (0.05, [0.0], ((31, 1), np.inf), {}, "K0 must be finite, got (inf+0j) at mode k=(-1,)"),
    (0.05, [0.0], None, {"omega": np.nan}, "omega must have 1 finite components, got nan"),
    (0.05, [0.0], None, {"omega": [np.inf]},
     "omega must have 1 finite components, got [inf]"),
    (0.05, [0.0], None, {"omega": [0.5, 0.25]},
     "omega must have 1 finite components, got [0.5, 0.25]"),
    (0.05, [0.0], None, {"tol": np.nan}, "tol must satisfy 0 <= tol < inf, got nan"),
    (0.05, [0.0], None, {"tol": -1e-12}, "tol must satisfy 0 <= tol < inf, got -1e-12"),
    (0.05, [0.0], None, {"tol": np.inf}, "tol must satisfy 0 <= tol < inf, got inf"),
    (0.05, [0.0], None, {"max_iter": -1}, "max_iter must be an integer >= 0, got -1"),
    (0.05, [0.0], None, {"max_iter": 2.5}, "max_iter must be an integer >= 0, got 2.5"),
], ids=["eps-nan", "eps-inf", "mu0-nan", "K0-nan-mean", "K0-nan-k1", "K0-inf",
        "omega-nan", "omega-inf", "omega-length", "tol-nan", "tol-negative", "tol-inf",
        "max_iter-negative", "max_iter-float"])
def test_run_rejects_non_finite_input(fam, omega, base_torus, eps, mu0, bad, kw, named):
    # a NaN eps used to run into NonDegeneracyFailure("determinant nan"), a
    # NaN mean of K0 into a zero-average check and a NaN at k = 1 into
    # FrameSingular("DK^T DK condition number nan"); a NaN omega into
    # FrameSingular("M o T_omega ..."), tol = nan into NoConvergence after 20
    # iterations and max_iter = -1 into NoConvergence after -1 iterations
    K0 = base_torus[0]
    if bad is not None:
        coeffs = np.array(K0.periodic.coeffs)
        coeffs[bad[0]] = bad[1]
        K0 = TorusEmbedding(FourierSeries(1, K0.kmax, coeffs))
    with pytest.raises(ValueError) as err:
        run_newton(fam, K0, mu0, **{"omega": omega, "eps": eps, **kw})
    assert str(err.value) == named


def test_run_respects_good_set_gate(fam, omega, base_torus):
    K0, mu0 = base_torus
    gs = GoodSetParams(A=1e-12, N=1, tau=1.0, r0=1.0)
    with pytest.raises(DivisorTooSmall):
        run_newton(fam, K0, mu0, omega, 0.15, good_set=gs)
    sol = run_newton(fam, K0, mu0, omega, 0.15)
    assert sol.residual_norm <= 1e-12


def test_per_mode_floor_leaves_the_untwisted_solve_alone(fam, omega):
    # the good-set floor bounds |lam - e^{2 pi i k.omega}|; applied to the
    # lam = 1 solve it would reject |1 - e^{2 pi i omega}| = 1.864 < 1.974 at k = 1
    K0, mu0 = fam.unperturbed_torus(omega, 64)
    eps, gs = 0.31414, GoodSetParams(A=0.05, N=1, tau=1.0, r0=1.0)
    floor = coupled_divisor_floor(64, 1, fam.lambda_eps(eps), gs)
    gated = run_newton(fam, K0, mu0, omega, eps, good_set=gs)
    sol = run_newton(fam, K0, mu0, omega, eps, divisor_floor=floor)
    assert sol.residual_norm <= 1e-12
    assert sol.K.periodic.coeffs.tobytes() == gated.K.periodic.coeffs.tobytes()
    assert sol.mu.tobytes() == gated.mu.tobytes()


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


def test_run_reports_divergence_with_its_trace(omega):
    # kappa 1, alpha 0.01 at eps 3.0: the residual falls once, then exceeds
    # its start twice in a row; the run used to go on past overflow and
    # report a determinant of the averaged block from there
    fam = DissipativeStandardMap(kappa=1.0, alpha=0.01, a=1)
    K0, mu0 = fam.unperturbed_torus(omega, 64)
    with pytest.raises(Diverged) as err:
        run_newton(fam, K0, mu0, omega, 3.0)
    trace = err.value.trace
    assert len(trace) == 4 and trace[1] < trace[0] < min(trace[2:])
    assert (err.value.label, err.value.exit_code, err.value.status) == \
        ("diverged", 5, "diverged")
    assert str(err.value) == (f"diverged after 4 evaluations (residual {trace[-1]:.3e}, "
                              f"first {trace[0]:.3e})")


class _NanMap(DissipativeStandardMap):
    def apply(self, x, mu, eps):
        return np.full_like(super().apply(x, mu, eps), np.nan)


def test_run_reports_a_non_finite_residual_as_divergence(omega, base_torus):
    with pytest.raises(Diverged) as err:
        run_newton(_NanMap(kappa=0.5), *base_torus, omega, 0.05)
    assert len(err.value.trace) == 1 and np.isnan(err.value.trace[0])


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


def test_run_matches_hand_loop_of_steps(fam, omega, monkeypatch):
    # run_newton hands its evaluation to newton_step; a loop of plain steps,
    # each evaluating on its own, must give the same iterates bit for bit
    K0, mu0 = fam.unperturbed_torus(omega, 6)
    eps, tail = 0.05, 1e-13
    monkeypatch.setattr(newton, "DEFAULT_TAIL_THRESHOLD", tail)
    sol = run_newton(fam, K0, mu0, omega, eps, tol=1e-12)
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
    assert residuals == list(sol.trace)
    assert K.periodic.coeffs.tobytes() == sol.K.periodic.coeffs.tobytes()
    assert mu.tobytes() == sol.mu.tobytes()
    assert rep.twist == sol.twist_constant


def test_tail_doubling_triggers(fam, omega, monkeypatch):
    K0, mu0 = fam.unperturbed_torus(omega, 6)
    monkeypatch.setattr(newton, "DEFAULT_TAIL_THRESHOLD", 1e-13)
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
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


def test_converged_lagrangian_defect_is_the_defect_of_its_torus(fam, omega, base_torus,
                                                                 monkeypatch):
    # run_newton samples K once per evaluation and none for the defect; the
    # defect read from the solution is the one lagrangian_defect computes
    # from its torus
    calls = []
    monkeypatch.setattr(newton, "sample_jet",
                        lambda *args: calls.append(args[2]) or sample_jet(*args))
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    got = sol.lagrangian_defect
    assert len(calls) == len(sol.trace)
    direct = lagrangian_defect(sol.K, fam.J)
    assert np.float64(got).tobytes() == np.float64(direct).tobytes()


def test_lagrangian_defect_is_computed_once_when_read(fam, omega, base_torus, monkeypatch):
    # neither run_newton nor load_solution computes the defect; the first read
    # computes it once and a second read reuses it
    calls = []
    monkeypatch.setattr(newton, "lagrangian_defect",
                        lambda *args: calls.append(args) or lagrangian_defect(*args))
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    assert calls == []
    got = sol.lagrangian_defect
    assert len(calls) == 1
    assert sol.lagrangian_defect == got and len(calls) == 1
    direct = lagrangian_defect(sol.K, fam.J)
    assert np.float64(got).tobytes() == np.float64(direct).tobytes()

    buf = io.StringIO()
    dump_solution(sol, buf)
    buf.seek(0)
    back = load_solution(buf)
    assert len(calls) == 1
    assert back.lagrangian_defect == lagrangian_defect(back.K, fam.J)
    assert len(calls) == 2


def test_lagrangian_defect_samples_only_dk(fam, omega, monkeypatch):
    # the defect transforms DK alone, n * 2d * d grid values, and its value is
    # bit for bit the formula DK^T J DK on the DK sample_jet gives
    K0, mu0 = fam.unperturbed_torus(omega, 32)
    K = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12).K
    n = newton._grid_size(K.kmax)
    dk = sample_jet(K.periodic.coeffs[None], omega, n)[2][0]
    L = jets.mm(jets.mm(np.swapaxes(dk, -1, -2), fam.J), dk)
    want = from_grid(L, K.dim, K.kmax).analytic_norm(0.0)
    points = []

    def counted(series, n):
        grid = to_grid(series, n)
        points.append(grid.size)
        return grid

    monkeypatch.setattr(embedding, "to_grid", counted)
    got = lagrangian_defect(K, fam.J)
    assert points == [n * 2 * 1]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


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


def test_solution_file_with_a_rho_line_loads(fam, omega, base_torus):
    # files written before the strip bookkeeping went carry a `# rho` line
    # after `# lambda`; the reader ignores it
    sol = run_newton(fam, base_torus[0], base_torus[1], omega, 0.05, tol=1e-12)
    buf = io.StringIO()
    dump_solution(sol, buf)
    text = buf.getvalue().replace("\n# residual ", "\n# rho 0.087500000000000008\n# residual ")
    assert "# rho" in text
    back = load_solution(io.StringIO(text))
    assert back.K.periodic.coeffs.tobytes() == sol.K.periodic.coeffs.tobytes()
    assert back.mu.tobytes() == sol.mu.tobytes()
    assert back.residual_norm == sol.residual_norm
    assert back.trace == (sol.residual_norm,)


def test_solution_file_with_series_flag_tokens_loads(fam, omega, base_torus):
    # older files end each series header with `real=<0|1> zeroavg=<0|1>`;
    # the reader ignores them
    sol = run_newton(fam, base_torus[0], base_torus[1], omega, 0.05, tol=1e-12)
    buf = io.StringIO()
    dump_solution(sol, buf)
    text = re.sub(r"^(# fourier dim=\S+ kmax=\S+ shape=\S+).*$", r"\1 real=1 zeroavg=0",
                  buf.getvalue(), flags=re.M)
    assert text.count(" real=1 zeroavg=0\n") == 2
    back = load_solution(io.StringIO(text))
    assert back.K.periodic.coeffs.tobytes() == sol.K.periodic.coeffs.tobytes()
    assert back.mu.tobytes() == sol.mu.tobytes()
