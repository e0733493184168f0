import hashlib
import io
import re

import numpy as np
import pytest

from kamtori import GOLDEN_MEAN, embedding, fourier, jets, lindstedt, newton
from kamtori.atlas import coupled_divisor_floor
from kamtori.embedding import TorusEmbedding, sample_jet
from kamtori.errors import (Diverged, DivisorTooSmall, FrameSingular, NoConvergence,
                            NonDegeneracyFailure, NormalizationDiverged)
from kamtori.fourier import FourierSeries, fast_grid_size, from_grid, to_grid
from kamtori.lindstedt import lindstedt_expand
from kamtori.maps import DissipativeStandardMap, jinv_mul, mul_jinv, symplectic_matrix
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
    ev = _evaluate(_ZeroMap(), K, None, omega, 0.0, real=False)
    n = newton._grid_size(kmax)
    assert ev.X.shape[-1] == n ** dim
    X, Xshift, DK, DKshift = sample_jet(K.periodic.coeffs[None], omega, n)
    assert ev.X.tobytes() == X[0].tobytes()
    assert ev.E.tobytes() == (0.0 - Xshift[0]).tobytes()
    assert ev.DK.tobytes() == DK[0].tobytes()
    assert ev.DKshift.tobytes() == DKshift[0].tobytes()


def test_a_cached_sample_is_read_only(fam, omega, base_torus):
    # the last sample is served as it was made, so none of its blocks can be
    # written; E is an array of its own, not the cached X o T_omega
    K0, mu0 = base_torus
    blocks = newton._torus_sample(K0, omega, True)
    assert all(a is b for a, b in zip(blocks, newton._torus_sample(K0, omega, True)))
    for block in blocks:
        with pytest.raises(ValueError, match="read-only"):
            block[...] = 0.0
    ev = _evaluate(fam, K0, mu0, omega, 0.05, real=True)
    assert ev.X is blocks[0] and ev.DK is blocks[2] and ev.DKshift is blocks[3]
    want = ev.E.tobytes()
    ev.E[...] = 0.0
    assert _evaluate(fam, K0, mu0, omega, 0.05, real=True).E.tobytes() == want


def test_a_continuation_point_starts_from_the_last_sample(fam, omega, base_torus,
                                                          monkeypatch):
    # two consecutive solves: the first evaluation of the second is the first's
    # converged sample (no transform), and the second's K, mu and trace are
    # those of the same solve with no sample kept
    K0, mu0 = base_torus
    first = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    transforms, per_evaluation = [], []
    sample, evaluate = embedding._sample, newton._evaluate

    def counted(*args):
        transforms.append(args)
        return sample(*args)

    def spy(*args, **kw):
        before = len(transforms)
        ev = evaluate(*args, **kw)
        per_evaluation.append(len(transforms) - before)
        return ev

    monkeypatch.setattr(embedding, "_sample", counted)
    monkeypatch.setattr(newton, "_evaluate", spy)
    warm = run_newton(fam, first.K, first.mu, omega, 0.1, tol=1e-12)
    assert per_evaluation == [0] + [1] * (len(warm.trace) - 1) and len(warm.trace) >= 3
    newton._last_sample.clear()
    per_evaluation.clear()
    cold = run_newton(fam, first.K, first.mu, omega, 0.1, tol=1e-12)
    assert per_evaluation == [1] * len(cold.trace)
    for a, b in ((warm.K.periodic.coeffs, cold.K.periodic.coeffs), (warm.mu, cold.mu),
                 (np.array(warm.trace), np.array(cold.trace))):
        assert a.tobytes() == b.tobytes()


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
    tri = np.zeros((2, 2) + fr.S.shape[3:], dtype=complex)
    tri[0, 0] = 1.0
    tri[1, 1] = fr.lam[0]
    tri[:1, 1:] = fr.S[0]
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
    Df = np.broadcast_to(np.eye(2, dtype=complex)[..., None], (1, 2, 2, 4))
    return newton.build_frame(np.array([1.0 + 0j]), dk, dkshift, Df,
                              np.ones((1, 2, 1, 4), dtype=complex), np.array([0.25]), 1,
                              newton.DEFAULT_DIVISOR_FLOOR)


def _angle_dk(values):
    dk = np.zeros((1, 2, 1, 4), dtype=complex)
    dk[0, 0, 0] = values
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


def test_frame_whose_normalization_overflows_its_shift_is_singular():
    # a subnormal Gram g of DK o T_omega at one point: N o T_omega = 1/g
    # overflows there
    with pytest.raises(FrameSingular) as err:
        _frame_of(_angle_dk([1.0] * 4), _angle_dk([1.0, 1.0, 1e-160, 1.0]))
    assert str(err.value) == "N o T_omega is not finite at 1 of 4 grid points"


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
    ev = newton._checked_evaluation(fam, K, base_torus[1], omega, 0.01)
    # DK o T_omega: the derivative of K o T_omega, the identity in its mean
    dks = np.array(K.periodic.shift(omega).differentiate(0).coeffs)[..., None]
    dks[kmax, 0, 0] += 1.0
    dks = to_grid(FourierSeries(1, kmax, dks), ev.X.shape[-1])
    assert dks.tobytes() == ev.DKshift.tobytes()

    def no_transform(*args, **kwargs):
        raise AssertionError("build_frame made a grid transform")

    for module, names in ((newton, ("from_grid", "solve_twisted_grid")),
                          (fourier, ("from_grid", "to_grid", "multiply_modes"))):
        for name in names:
            monkeypatch.setattr(module, name, no_transform)
    monkeypatch.setattr(FourierSeries, "shift", no_transform)
    fr = newton.newton_frame(fam, ev, newton.DEFAULT_DIVISOR_FLOOR)
    _, Mshift = newton._frame_matrix(dks[None, None])
    assert fr.Mshift[0].tobytes() == Mshift[0, 0].tobytes()
    assert fr.beta[0].tobytes() == jets.inv_stack(Mshift[0, 0]).tobytes()


@pytest.mark.parametrize("dk, shift_dk, message", [
    # DK's Gram is 0 at one point: the conditioning gate names it
    ([1.0, 0.0, 1.0, 1.0], [1.0] * 4, "DK^T DK condition number inf exceeds 1.0e+12"),
    # both singular: DK is named first
    ([1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0],
     "DK^T DK condition number inf exceeds 1.0e+12"),
    # N = 1/g overflows at a subnormal g of DK, and DK o T_omega is singular:
    # one stack of N, gated DK first
    ([1.0, 1.0, 1e-160, 1.0], [0.0, 1.0, 1.0, 1.0],
     "DK^T DK is singular or not finite at 1 of 4 grid points"),
], ids=["dk", "both", "dk-overflow-and-shifted"])
def test_singular_gram_is_named_dk_before_its_shift(dk, shift_dk, message):
    with pytest.raises(FrameSingular) as err:
        _frame_of(_angle_dk(dk), _angle_dk(shift_dk))
    assert str(err.value) == message


def _two_pass_frame(lam, dk, dkshift, Df, Dmu, omega, kmax, divisor_floor):
    """The frame built one DK at a time, with P = DK N formed by its own
    product: the reference the one-pass build_frame is held to byte for byte."""
    d, points = dk.shape[-2:]

    def normalized(g):
        N = jets.inv_matrix(jets.matmul(np.swapaxes(g, -3, -2), g))
        return N, np.concatenate([g, jets.matmul(jinv_mul(g), N)], axis=-2)

    N, M = normalized(dk)
    Nshift, Mshift = normalized(dkshift)
    gshift = jets.matmul(mul_jinv(np.swapaxes(dkshift, -3, -2)), dkshift)
    beta = jets.inv_matrix(Mshift)
    P, Pshift = jets.matmul(dk, N), -jinv_mul(Mshift[..., d:, :])
    lam_bc = lam.reshape(lam.shape + (1,) * (Nshift.ndim - 1))
    S = jets.matmul(mul_jinv(jets.matmul(np.swapaxes(Pshift, -3, -2), Df)), P) \
        - jets.matmul(jets.matmul(jets.cauchy(lam_bc, np.swapaxes(Nshift, -3, -2)), gshift), Nshift)
    return newton.Frame(d=d, kmax=kmax, n=round(points ** (1 / d)), omega=omega, lam=lam,
                        Df=Df, M=M, Mshift=Mshift, beta=beta, S=S, A=jets.matmul(beta, Dmu),
                        divisor_floor=divisor_floor)


def _assert_two_pass_frame(fr, args):
    """`fr`, built by build_frame from `args`, is `_two_pass_frame(*args)` byte for byte."""
    want = _two_pass_frame(*args)
    assert (fr.d, fr.kmax, fr.n) == (want.d, want.kmax, want.n)
    assert fr.divisor_floor is want.divisor_floor
    for name in ("M", "Mshift", "beta", "S", "A"):
        got, ref = getattr(fr, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name


def _frames_held_to_two_passes(monkeypatch, module):
    """Make `module.build_frame` check each frame it builds against
    `_two_pass_frame` on the same arguments; returns the frames built."""
    built, build = [], newton.build_frame

    def checked(*args):
        fr = build(*args)
        _assert_two_pass_frame(fr, args)
        built.append(fr)
        return fr

    monkeypatch.setattr(module, "build_frame", checked)
    return built


@pytest.mark.parametrize("eps, dtype", [(0.05, np.float64), (0.05 + 0.01j, np.complex128)])
def test_newton_frame_is_the_two_pass_frame(fam, omega, base_torus, monkeypatch, eps, dtype):
    # a real Newton evaluation (float64 frame) and a complex one
    sol = run_newton(fam, *base_torus, omega, 0.05)
    built = _frames_held_to_two_passes(monkeypatch, newton)
    newton.newton_step(fam, sol.K, sol.mu, omega, eps)
    assert len(built) == 1 and built[0].M.dtype == dtype


@pytest.mark.parametrize("eps0", [0.0, 0.05])
def test_doubling_frame_jets_are_the_two_pass_frame(fam, omega, base_torus, monkeypatch, eps0):
    # the order-3 frame jets of a 3 -> 7 doubling, from the flat torus and
    # from a Newton base
    K, mu = base_torus
    if eps0:
        sol = run_newton(fam, K, mu, omega, eps0)
        K, mu = sol.K, sol.mu
    jet = lindstedt_expand(fam, K, mu, omega, eps0, 3)
    built = _frames_held_to_two_passes(monkeypatch, lindstedt)
    assert lindstedt.lindstedt_double(fam, jet, omega).order == 7
    assert len(built) == 1 and built[0].M.shape[0] == 4


def _synthetic_frame_args(d, real=False, seed=22):
    """build_frame's arguments for an order-0 frame of a random torus near the
    flat one at kmax 3, its own Df and D_mu f, lam = 0.9 and the default
    floor: complex, or real (Hermitian K sampled as float64, real Df, D_mu f
    and lam)."""
    rng = np.random.default_rng(seed)
    kmax = 3
    omega = np.array([(np.sqrt(5.0) - 1.0) / 2.0, np.sqrt(2.0) - 1.0])[:d]
    shape = (2 * kmax + 1,) * d + (2 * d,)
    c = 0.02 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if real:
        c = (c + np.conj(c[(slice(None, None, -1),) * d])) / 2
    K = TorusEmbedding(FourierSeries(d, kmax, c))
    n = newton._grid_size(kmax)
    _, _, dk, dkshift = sample_jet(K.periodic.coeffs[None], omega, n, real=real)
    Df = np.eye(2 * d) + 0.2 * rng.standard_normal((2 * d, 2 * d))
    Dmu = rng.standard_normal((2 * d, d))
    points = n ** d
    return (np.array([0.9] if real else [0.9 + 0j]), dk, dkshift,
            np.broadcast_to(Df[None, ..., None], (1, 2 * d, 2 * d, points)),
            np.broadcast_to(Dmu[None, ..., None], (1, 2 * d, d, points)), omega, kmax,
            newton.DEFAULT_DIVISOR_FLOOR)


@pytest.mark.parametrize("d", [1, 2])
def test_frame_matches_a_pointwise_linalg_reference(d):
    # every matrix of the frame is the np.linalg formula at its grid point:
    # at d = 1 the closed-form 1 x 1 and 2 x 2 inverses and the 1 x 1
    # condition branch, at d = 2 the 2 x 2 Gram (conditioned by
    # np.linalg.cond's SVD) and the 4 x 4 frame (inverted by np.linalg.inv)
    args = _synthetic_frame_args(d)
    (lam,), dk, dkshift = args[:3]
    Df, Dmu = args[3][0, ..., 0], args[4][0, ..., 0]
    fr = newton.build_frame(*args)
    # the Grams of DK and DK o T_omega in one stack: the two-pass frame's bytes
    _assert_two_pass_frame(fr, args)

    Jinv = np.linalg.inv(symplectic_matrix(d))

    def frame(g):               # point-major DK (points, 2d, d) -> N, M
        N = np.linalg.inv(np.swapaxes(g, -1, -2) @ g)
        return N, np.concatenate([g, Jinv @ g @ N], axis=-1)

    g, gs = np.moveaxis(dk[0], -1, 0), np.moveaxis(dkshift[0], -1, 0)
    N, M = frame(g)
    Ns, Ms = frame(gs)
    beta = np.linalg.inv(Ms)
    P, Ps = g @ N, gs @ Ns
    S = np.swapaxes(Ps, -1, -2) @ Df @ Jinv @ P \
        - lam * np.swapaxes(Ns, -1, -2) @ (np.swapaxes(gs, -1, -2) @ Jinv @ gs) @ Ns
    points = dk.shape[-1]
    assert fr.n ** d == points
    for got, want in ((fr.M, M), (fr.Mshift, Ms), (fr.beta, beta), (fr.S, S),
                      (fr.A, beta @ Dmu)):
        assert got.shape == (1,) + want.shape[1:] + (points,)
        assert np.max(np.abs(np.moveaxis(got[0], -1, 0) - want)) <= 1e-13


def _assert_solves_the_reduced_system(fr, rhs1, rhs2):
    """solve_reduced's (W1, W2, sigma) on the order-0 frame `fr`, at its kmax
    and its floor, satisfy the two difference equations of its
    docstring mode by mode at the cutoff, to 1e-12 relative."""
    d, band, lam = fr.d, fr.kmax, fr.lam[0]
    S, A1, A2 = fr.S[0], fr.A[0, :d], fr.A[0, d:]
    Bb, _ = fr.solve_twisted(-A2.reshape(d * d, -1), band)
    core = newton.checked_block(fr, Bb.reshape(A2.shape))
    Ba, _ = fr.solve_twisted(rhs2, band)
    W1, W2, sigma, _ = newton.solve_reduced(core, rhs1, rhs2, Ba, band)
    assert W1.dtype == W2.dtype == rhs1.dtype and W1.shape == W2.shape == rhs1.shape

    def shifted(W):             # W o T_omega of a grid function with no mode beyond the band
        return to_grid(from_grid(W, d, band).shift(fr.omega), fr.n, real=W.dtype.kind != "c")

    sig = sigma[:, None, None]
    for lhs, rhs in ((W1 - shifted(W1) + jets.mm(S, W2[:, None])[:, 0]
                      + jets.mm(A1, sig)[:, 0], rhs1),
                     (lam * W2 - shifted(W2) + jets.mm(A2, sig)[:, 0], rhs2)):
        scale = np.max(np.abs(from_grid(rhs, d, band).coeffs))
        assert np.max(np.abs(from_grid(lhs - rhs, d, band).coeffs)) <= 1e-12 * scale


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_the_reduced_solve_of_a_two_dimensional_frame_solves_its_equations(real):
    # the d x d branches of checked_block and solve_reduced, on the synthetic
    # frame of the linalg reference test
    fr = newton.build_frame(*_synthetic_frame_args(2, real))
    assert (fr.S.dtype.kind == "c") is not real
    rng = np.random.default_rng(5)
    rhs = [to_grid(FourierSeries(2, fr.kmax, rng.standard_normal((7, 7, 2))
                                 + 1j * rng.standard_normal((7, 7, 2))), fr.n)
           for _ in range(2)]
    _assert_solves_the_reduced_system(fr, *[r.real if real else r for r in rhs])


@pytest.mark.parametrize("eps", [0.05, 0.05 + 0.01j], ids=["real", "complex"])
def test_the_reduced_solve_of_a_newton_frame_solves_its_equations(fam, omega, base_torus,
                                                                eps):
    # the right-hand side of a Newton step, -beta E, on a perturbed torus
    K, mu = perturbed(base_torus[0], np.random.default_rng(3), 5e-3), base_torus[1]
    ev = newton._checked_evaluation(fam, K, mu, omega, eps)
    fr = newton.newton_frame(fam, ev, newton.DEFAULT_DIVISOR_FLOOR)
    assert (fr.S.dtype.kind == "c") is (eps != 0.05)
    rhs = -jets.mm(fr.beta[0], ev.E[:, None])[:, 0]
    _assert_solves_the_reduced_system(fr, rhs[:1], rhs[1:])


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_the_twist_is_the_linalg_norm_of_the_inverse_checked_block(d, real):
    # a 2 x 2 and a 4 x 4 checked block of the synthetic frame
    fr = newton.build_frame(*_synthetic_frame_args(d, real))
    A2 = fr.A[0, d:]
    Bb, _ = fr.solve_twisted(-A2.reshape(d * d, -1), fr.kmax)
    block = newton.checked_block(fr, Bb.reshape(A2.shape)).block
    assert block.dtype == (np.float64 if real else np.complex128)
    want = np.linalg.norm(np.linalg.inv(block), 2)
    assert np.float64(newton._twist(block)).tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha, eps, dtype", [
    (1.0, 0.05, np.float64), (1.0, 0.05 + 0.01j, np.complex128),
    (1.0 + 0.5j, 0.05, np.complex128),
], ids=["real", "complex-eps", "complex-alpha"])
def test_a_newton_frame_takes_d_mu_in_its_paths_dtype(omega, base_torus, monkeypatch,
                                                      alpha, eps, dtype):
    # d_mu no longer reads lam(eps), yet a complex lam still runs on complex
    # points, so the frame sees the dtypes it saw when d_mu did
    fam = DissipativeStandardMap(kappa=0.5, alpha=alpha, a=1)
    seen, d_mu = [], DissipativeStandardMap.d_mu

    def spy(self, x, mu, eps):
        out = d_mu(self, x, mu, eps)
        seen.append((x.dtype, out.dtype))
        return out

    monkeypatch.setattr(DissipativeStandardMap, "d_mu", spy)
    _, _, rep = newton_step(fam, *base_torus, omega, eps)
    assert seen == [(dtype, dtype)] and rep.block.dtype == rep.W.dtype == dtype


def test_a_singular_large_matrix_is_blamed_on_its_grid_point_alone():
    # four 3 x 3 identities with one zero matrix: only that point is not finite
    stack = np.repeat(np.eye(3, dtype=complex)[..., None], 4, axis=-1)
    stack[..., 2] = 0.0
    with pytest.raises(FrameSingular) as err:
        newton._gate(jets.inv_stack(stack), "M o T_omega is singular or not finite")
    assert str(err.value) == "M o T_omega is singular or not finite at 1 of 4 grid points"


def test_not_finite_points_counts_one_nan_grid_point(rng):
    stack = rng.standard_normal((2, 2, 3125)) + 0j
    assert newton._not_finite_points(stack) == 0
    stack[1, 0, 1234] = complex(0.0, np.nan)
    assert newton._not_finite_points(stack) == 1
    stack[0, 0, 7] = stack[0, 1, 7] = np.inf
    assert newton._not_finite_points(stack) == 2


def test_closed_form_gram_cond_matches_numpy():
    vals = np.array([1.0, 0.0, np.inf, -np.inf, 3 + 4j, 1e-320, 2e300j,
                     complex(0, np.inf), -7.5])
    ours = _gram_cond(vals.reshape(1, 1, -1))
    assert ours.tobytes() == np.linalg.cond(vals.reshape(-1, 1, 1)).tobytes()
    # with a nan entry LAPACK's SVD may fail to converge; where it returns,
    # nan stays nan
    with_nan = np.array([2.0, np.nan, complex(np.inf, np.nan), 0.0]).reshape(-1, 1, 1)
    ours = _gram_cond(with_nan.reshape(1, 1, -1))
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
    lambda fam, K0, mu0, omega: lindstedt.lindstedt_double(
        fam, lindstedt_expand(DissipativeStandardMap(kappa=0.5), K0, mu0, omega, 0.0, 1), omega),
], ids=["newton_step", "lindstedt_expand", "lindstedt_double"])
def test_nondegeneracy_failure_detected(omega, base_torus, solve):
    # Newton reads df/dmu pointwise, the Lindstedt engines as a jet
    class NoDrift(DissipativeStandardMap):
        def d_mu(self, x, mu, eps):
            return np.zeros((2, 1) + np.asarray(x).shape[1:], dtype=complex)

        def jet_d_mu(self, x_jet, mu_jet, eps0):
            return np.zeros(np.shape(x_jet)[:1] + (2, 1) + np.shape(x_jet)[2:], dtype=complex)

    fam = NoDrift(kappa=0.5)
    K0, mu0 = base_torus
    with pytest.raises(NonDegeneracyFailure):
        solve(fam, K0, mu0, omega)


@pytest.mark.parametrize("rows, det", [
    ([[1e200, 0.0], [1e200, 1e200]], 0.25),
    ([[1e200, 1e200], [1e200, 1e200]], None),
], ids=["regular", "singular"])
def test_a_huge_averaged_block_gives_a_typed_result(rows, det):
    # block entries near 1e200: no OverflowError from scale^(2d) and no
    # overflow warning from the determinant; det is that of block / scale
    points = 8
    S = np.full((1, 1, 1, points), rows[0][0])
    A = np.array(rows)[None, :, 1:, None] * np.ones(points)
    fr = newton.Frame(d=1, kmax=2, n=points, omega=np.array([0.5]),
                      lam=np.array([1.0 + rows[1][0]]), Df=None, M=None, Mshift=None,
                      beta=None, S=S, A=A, divisor_floor=newton.DEFAULT_DIVISOR_FLOOR)
    Bb_grid = np.zeros((1, 1, points))
    if det is None:
        with pytest.raises(NonDegeneracyFailure) as err:
            newton.checked_block(fr, Bb_grid)
        assert err.value.det == 0 and err.value.scale == 2e200
    else:
        core = newton.checked_block(fr, Bb_grid)
        assert core.block.tolist() == rows and core.det == det


@pytest.mark.parametrize("A2, scale", [(0.0, 0.0), (np.inf, np.inf)], ids=["zero", "inf"])
def test_a_block_of_scale_zero_or_inf_is_a_nondegeneracy_failure(A2, scale):
    # the block [[S, A1], [lam - 1, A2]] = [[0, 0], [0, A2]]: no determinant is
    # taken, the failure carries det nan and the scale
    points = 8
    fr = newton.Frame(d=1, kmax=2, n=points, omega=np.array([0.5]), lam=np.array([1.0]),
                      Df=None, M=None, Mshift=None, beta=None,
                      S=np.zeros((1, 1, 1, points)),
                      A=np.array([0.0, A2])[None, :, None, None] * np.ones(points),
                      divisor_floor=newton.DEFAULT_DIVISOR_FLOOR)
    with pytest.raises(NonDegeneracyFailure) as err:
        newton.checked_block(fr, np.ones((1, 1, points)))
    assert np.isnan(err.value.det) and err.value.scale == scale


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


_ENTRIES = {"run_newton": run_newton, "newton_step": newton_step,
            "invariance_residual": invariance_residual,
            "reducibility_frame": reducibility_frame}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("eps, mu0, w, named", [
    (np.nan, [0.0], None, "eps must be finite"),
    (0.05, [np.nan], None, "mu0 must be finite"),
    (0.05, [0.0], np.nan, "omega must have 1 finite components"),
    (0.05, [0.0], [0.5, 0.25], "omega must have 1 finite components"),
    (0.05, [0.0], np.complex128(GOLDEN_MEAN + 0.1j), "omega must be real"),
], ids=["eps-nan", "mu0-nan", "omega-nan", "omega-length", "omega-complex"])
def test_every_newton_entry_refuses_a_bad_start_as_run_newton_does(fam, omega, base_torus,
                                                                   entry, eps, mu0, w, named):
    # the exported entries used to run on without the start check: nan
    # results, an IndexError, a ComplexWarning, FrameSingular or a ValueError
    # about eta's modes, each hiding the bad input
    K0 = base_torus[0]
    w = omega if w is None else w
    with pytest.raises(ValueError) as want:
        run_newton(fam, K0, mu0, w, eps)
    with pytest.raises(ValueError) as err:
        _ENTRIES[entry](fam, K0, mu0, w, eps)
    assert str(err.value) == str(want.value) and str(err.value).startswith(named)


@pytest.mark.filterwarnings("error")
def test_a_complex_omega_is_refused_before_any_transform(fam, omega, base_torus, monkeypatch):
    # it used to run: its shifts took the complex omega and its divisor
    # tables the real part, with a ComplexWarning each (an error under
    # warnings-as-errors), and the solution kept the real part as its omega
    def no_transform(*args, **kwargs):
        raise AssertionError("a grid transform ran")

    monkeypatch.setattr(fourier, "_fft", no_transform)
    w = np.complex128(omega + 1e-3j)
    for solve in (lambda: run_newton(fam, *base_torus, w, 0.05),
                  lambda: lindstedt_expand(fam, *base_torus, w, 0.0, 3)):
        with pytest.raises(ValueError) as err:
            solve()
        assert str(err.value) == f"omega must be real, got {w}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("as_complex", [np.complex128,
                                        lambda w: np.array([w], dtype=complex)],
                         ids=["scalar", "array"])
def test_an_omega_of_complex_dtype_with_zero_imaginary_part_is_the_real_omega(
        fam, omega, base_torus, as_complex):
    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    sols = [run_newton(fam, *base_torus, w, 0.05) for w in (omega, as_complex(omega))]
    assert all(same(getattr(sols[0], name), getattr(sols[1], name))
               for name in ("mu", "trace", "twist_constant", "omega"))
    assert same(sols[0].K.periodic.coeffs, sols[1].K.periodic.coeffs)
    jets_ = [lindstedt_expand(fam, *base_torus, w, 0.0, 3) for w in (omega, as_complex(omega))]
    assert same(jets_[0].mu_coeffs, jets_[1].mu_coeffs)
    assert all(same(a.coeffs, b.coeffs) for a, b in zip(jets_[0].K_coeffs, jets_[1].K_coeffs))


@pytest.mark.parametrize("alpha, a, eps", [(1e308, 1, 10.0), (1.0, 1000000, 2.0)],
                         ids=["alpha", "a"])
def test_run_rejects_a_lam_that_overflows(omega, alpha, a, eps):
    # a finite eps whose lam(eps) = 1 + alpha eps^a overflows used to warn and
    # raise Diverged with residual nan
    fam = DissipativeStandardMap(kappa=0.5, alpha=alpha, a=a)
    K0, mu0 = fam.unperturbed_torus(omega, 8)
    with pytest.raises(ValueError, match=r"^lam\(eps\) must be finite, got .* at eps="):
        run_newton(fam, K0, mu0, omega, eps)


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
    # from its torus, by one sample of DK
    calls = []
    monkeypatch.setattr(newton, "sample_jet",
                        lambda *args, **kw: calls.append(args[2]) or sample_jet(*args, **kw))
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-12)
    assert len(calls) == len(sol.trace)
    got = sol.lagrangian_defect
    assert len(calls) == len(sol.trace) + 1
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
    L = jets.mm(jets.mm(np.swapaxes(dk, -3, -2), fam.J[..., None]), dk)
    want = from_grid(L, K.dim, K.kmax).analytic_norm(0.0)
    points = []
    sample = embedding._sample

    def counted(*args):
        grid = sample(*args)
        points.append(grid.size)
        return grid

    monkeypatch.setattr(embedding, "_sample", counted)
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


# -- real and complex problems ----------------------------------------------------

def _sampled_real_flags(monkeypatch):
    """The `real` flag of every later sample_jet call of the solver."""
    flags = []
    sample = newton.sample_jet

    def spy(*args, real=False, **kw):
        flags.append(real)
        return sample(*args, real=real, **kw)

    monkeypatch.setattr(newton, "sample_jet", spy)
    return flags


def _hermitian(K):
    c = K.periodic.coeffs
    return np.array_equal(c[(slice(None, None, -1),) * K.dim], np.conj(c))


def test_a_real_problem_runs_on_real_grids(fam, omega, base_torus, monkeypatch):
    # from the flat torus every evaluation of a real continuation is real: each
    # correction keeps K Hermitian bit for bit, and every grid is float64
    K, mu = base_torus
    flags = _sampled_real_flags(monkeypatch)
    for eps in (0.05, 0.1):
        sol = run_newton(fam, K, mu, omega, eps, tol=1e-12)
        K, mu = sol.K, sol.mu
        assert _hermitian(K) and not np.any(mu.imag)
    assert flags and all(flags)
    ev = newton._checked_evaluation(fam, K, mu, omega, 0.1)
    fr = newton.newton_frame(fam, ev, newton.DEFAULT_DIVISOR_FLOOR)
    Bb_grid, _ = fr.solve_twisted(-fr.A[0, 1:], fr.kmax)
    core = newton.checked_block(fr, Bb_grid)
    _, _, rep = newton_step(fam, K, mu, omega, 0.1, _defect=ev)
    for grid in (ev.X, ev.DK, ev.DKshift, ev.E, fr.lam, fr.Df, fr.M, fr.Mshift,
                 fr.beta, fr.S, fr.A, core.block, core.Bb_grid, rep.W, rep.sigma):
        assert grid.dtype == np.float64


def _solve_spied(monkeypatch, fam, K, mu, omega, eps):
    """run_newton with its start checks, each of which decides realness, and,
    for every evaluation, the torus evaluated and the dtypes of its samples
    and E."""
    decisions, evaluations = [], []
    decide, evaluate = newton._check_start, newton._evaluate

    def decide_spy(*args):
        decisions.append(args)
        return decide(*args)

    def evaluate_spy(fam, K, mu, omega, eps, **kw):
        ev = evaluate(fam, K, mu, omega, eps, **kw)
        evaluations.append((K, {a.dtype for a in (ev.X, ev.DK, ev.DKshift, ev.E)}))
        return ev

    monkeypatch.setattr(newton, "_check_start", decide_spy)
    monkeypatch.setattr(newton, "_evaluate", evaluate_spy)
    sol = run_newton(fam, K, mu, omega, eps, tol=1e-12)
    return sol, decisions, evaluations


def test_a_real_solve_decides_once_and_every_iterate_stays_real(fam, omega, base_torus,
                                                                monkeypatch):
    # realness is read off the inputs once; every iterate of the solve is
    # Hermitian bit for bit and every evaluation float64
    K0, mu0 = base_torus
    sol, decisions, evaluations = _solve_spied(monkeypatch, fam, K0, mu0, omega, 0.1)
    assert len(decisions) == 1 and len(evaluations) == len(sol.trace) >= 3
    for K, dtypes in evaluations:
        assert _hermitian(K) and dtypes == {np.dtype(np.float64)}
    assert _hermitian(sol.K) and not np.any(sol.mu.imag)


def test_a_complex_eps_solve_keeps_complex_grids_throughout(fam, omega, base_torus,
                                                            monkeypatch):
    K0, mu0 = base_torus
    sol, decisions, evaluations = _solve_spied(monkeypatch, fam, K0, mu0, omega,
                                               0.05 + 0.01j)
    assert len(decisions) == 1 and len(evaluations) == len(sol.trace) >= 3
    assert all(dtypes == {np.dtype(np.complex128)} for _, dtypes in evaluations)


def test_the_real_path_agrees_with_the_complex_one(fam, omega, base_torus, monkeypatch):
    # the same continuation forced onto complex grids: the same cutoffs and
    # iteration counts, the tori equal to roundoff
    runs, check = [], newton._check_start
    for force_complex in (False, True):
        if force_complex:
            monkeypatch.setattr(newton, "_check_start",
                                lambda *args: check(*args)[:3] + (False,))
        K, mu = base_torus
        sols = []
        for eps in (0.05, 0.1, 0.2):
            sol = run_newton(fam, K, mu, omega, eps, tol=1e-12)
            K, mu = sol.K, sol.mu
            sols.append(sol)
        runs.append(sols)
    for real, cplx in zip(*runs):
        assert real.K.kmax == cplx.K.kmax and len(real.trace) == len(cplx.trace)
        assert real.K.distance(cplx.K) <= 1e-13 * real.K.periodic.analytic_norm(0.0)
        assert np.max(np.abs(real.mu - cplx.mu)) <= 1e-14 * np.max(np.abs(real.mu))


def _anti_hermitian_start(base_torus):
    """The flat torus with c_1 = c_-1 = 1e-3 i in its action: one mode pair
    whose conjugates do not match."""
    K0, mu0 = base_torus
    c = K0.periodic.coeffs.copy()
    c[K0.kmax + 1, 1] += 1e-3j
    c[K0.kmax - 1, 1] += 1e-3j
    return TorusEmbedding(FourierSeries(1, K0.kmax, c)), mu0


# sha256 of K's coefficients, mu and the trace of each solve, from kmax 32 at
# tol 1e-12: the complex path gives these bytes with or without the real one
_COMPLEX_SOLVES = {
    "complex eps": "5c95d15056cf9dcf07b9834abf632a12960f7ff364f31d20cb90f301b1018114",
    "complex alpha": "7a5f715113c5c72e342ae043b5b0ce98a94044d60114f8d0dae84f24326c7d35",
    "anti-Hermitian K0": "2b73b897bd7f0ce89f1f2ec21e1b1d5bb334d4f3b71d019f5327452bd9b3a79f",
}


@pytest.mark.parametrize("case", sorted(_COMPLEX_SOLVES))
def test_a_complex_problem_keeps_its_complex_grids_and_bytes(omega, base_torus,
                                                            monkeypatch, case):
    fam = DissipativeStandardMap(kappa=0.5, alpha=1.0 + 0.5j if case == "complex alpha"
                                 else 1.0, a=1)
    K0, mu0 = (_anti_hermitian_start(base_torus) if case == "anti-Hermitian K0"
               else base_torus)
    eps = 0.05 + 0.01j if case == "complex eps" else 0.05
    assert newton._check_start(fam, K0, mu0, omega, eps)[3] is False
    assert newton._checked_evaluation(fam, K0, mu0, omega, eps).X.dtype == np.complex128
    flags = _sampled_real_flags(monkeypatch)
    sol = run_newton(fam, K0, mu0, omega, eps, tol=1e-12)
    assert flags and not any(flags)
    digest = hashlib.sha256()
    for a in (sol.K.periodic.coeffs, sol.mu, np.array(sol.trace)):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == _COMPLEX_SOLVES[case]


class _ComplexValuedFamily(DissipativeStandardMap):
    """The built-in family with f, Df and df/dmu always complex, as a duck-typed
    family may return them at real points."""

    def apply(self, x, mu, eps):
        return super().apply(x, mu, eps).astype(complex)

    def jacobian(self, x, mu, eps):
        return super().jacobian(x, mu, eps).astype(complex)

    def d_mu(self, x, mu, eps):
        return super().d_mu(x, mu, eps).astype(complex)


def test_a_family_with_complex_values_at_real_points_runs_the_real_path(omega, base_torus):
    # the solver takes the real parts, which are the real values bit for bit
    fams = (DissipativeStandardMap(kappa=0.5, alpha=1.0, a=1),
            _ComplexValuedFamily(kappa=0.5, alpha=1.0, a=1))
    K0, mu0 = base_torus
    sols = [run_newton(f, K0, mu0, omega, 0.1, tol=1e-12) for f in fams]
    assert newton._checked_evaluation(fams[1], K0, mu0, omega, 0.1).E.dtype == np.float64
    assert sols[0].K.periodic.coeffs.tobytes() == sols[1].K.periodic.coeffs.tobytes()
    assert sols[0].mu.tobytes() == sols[1].mu.tobytes() and sols[0].trace == sols[1].trace
