import numpy as np
import pytest

from kamtori import jets
from kamtori.atlas import excluded_balls
from kamtori.diophantine import GoodSetParams
from kamtori.embedding import sample_jet
from kamtori.lindstedt import lindstedt_double, lindstedt_expand
from kamtori.maps import (DissipativeStandardMap, jinv_mul, mul_jinv, symplectic_matrix,
                          verify_conformal)
from kamtori.newton import _grid_size, run_newton


def test_symplectic_matrix_blocks():
    J = symplectic_matrix(2)
    assert np.array_equal(J[:2, 2:], np.eye(2))
    assert np.array_equal(J[2:, :2], -np.eye(2))
    np.testing.assert_array_equal(J @ J, -np.eye(4))


@pytest.mark.parametrize("d", [1, 2])
def test_jinv_block_swap_is_the_matrix_product(rng, d):
    Jinv = symplectic_matrix(d).T
    for k in (1, d, 3):
        # the stacks are (rows, columns, points); the products run point-major
        xp = rng.standard_normal((5, 2 * d, k)) + 1j * rng.standard_normal((5, 2 * d, k))
        x, yp = np.moveaxis(xp, 0, -1), np.swapaxes(xp, -1, -2)
        assert np.array_equal(jinv_mul(x), np.moveaxis(Jinv @ xp, 0, -1))
        y = np.moveaxis(yp, 0, -1)
        assert np.array_equal(mul_jinv(y), np.moveaxis(yp @ Jinv, 0, -1))


def test_dimension_is_fixed_by_the_class():
    # the map acts on T x R: a dim=2 instance used to build and then ignore it
    assert DissipativeStandardMap.dim == 1
    with pytest.raises(TypeError):
        DissipativeStandardMap(dim=2)


def test_unperturbed_is_twist_map(fam):
    x = np.array([0.3, 0.45], dtype=complex)
    out = fam.apply(x, 0.0, 0.0)
    np.testing.assert_allclose(out, [0.75, 0.45], atol=1e-15)


def test_pure_drift(fam):
    out = fam.apply(np.array([0.0, 0.0], dtype=complex), 0.2, 0.0)
    np.testing.assert_allclose(out, [0.2, 0.2], atol=1e-15)


def test_composition_matches_double_apply(fam, rng):
    eps, mu = 0.04, -0.02
    x = np.stack([rng.random(20), rng.uniform(-1, 1, 20)]).astype(complex)
    once = fam.apply(fam.apply(x, mu, eps), mu, eps)
    for i in range(20):
        two = fam.apply(fam.apply(x[:, i], mu, eps), mu, eps)
        np.testing.assert_allclose(once[:, i], two, atol=1e-14)


def test_jacobian_structure_at_eps0(fam, rng):
    x = np.stack([rng.random(5), rng.uniform(-1, 1, 5)]).astype(complex)
    Df = fam.jacobian(x, 0.0, 0.0)
    want = np.array([[1.0, 1.0], [0.0, 1.0]])[..., None]
    np.testing.assert_allclose(Df, np.broadcast_to(want, Df.shape), atol=1e-15)


@pytest.mark.parametrize("alpha, eps, x_dtype, want", [
    (1.0, 0.05, float, np.float64), (1.0, 0.05 + 0.01j, float, np.complex128),
    (1.0 + 0.5j, 0.05, float, np.complex128), (1.0, 0.05, complex, np.complex128),
])
def test_values_are_real_at_real_points_of_a_real_map(rng, alpha, eps, x_dtype, want):
    # real points, eps and mu with a real lam(eps) give float64 values, equal
    # to the real parts of the complex evaluation; otherwise complex128.
    # df/dmu does not read lam(eps): real points and eps give it float64
    fam = DissipativeStandardMap(kappa=0.5, alpha=alpha, a=1)
    x = np.stack([rng.random(7), rng.uniform(-1, 1, 7)]).astype(x_dtype)
    real_points = x_dtype is float and np.imag(eps) == 0
    for name in ("apply", "jacobian", "d_mu"):
        method = getattr(fam, name)
        got = method(x, 0.01, eps)
        dtype = np.float64 if name == "d_mu" and real_points else want
        assert got.dtype == dtype
        if dtype == np.float64:
            ref = method(x.astype(complex), 0.01, eps)
            assert got.tobytes() == np.ascontiguousarray(ref.real).tobytes()


def test_d_mu_column(fam):
    D = fam.d_mu(np.array([0.1, 0.2], dtype=complex), 0.0, 0.03)
    np.testing.assert_allclose(D[..., 0], [1.0, 1.0], atol=1e-16)


def test_d_mu_does_not_evaluate_lam(rng, monkeypatch):
    # its constant ones take their dtype from the points and eps alone
    def no_lam(self, eps):
        raise AssertionError("d_mu evaluated lam(eps)")

    monkeypatch.setattr(DissipativeStandardMap, "lambda_eps", no_lam)
    fam = DissipativeStandardMap(kappa=0.5, alpha=1.0 + 0.5j, a=1)
    x = np.stack([rng.random(7), rng.uniform(-1, 1, 7)])
    for points, eps, dtype in ((x, 0.05, np.float64), (x, 0.05 + 0.01j, np.complex128),
                               (x.astype(complex), 0.05, np.complex128)):
        D = fam.d_mu(points, 0.01, eps)
        assert D.dtype == dtype and D.shape == (2, 1, 7) and np.all(D == 1.0)


def test_jacobian_against_central_difference(fam, rng):
    eps, mu = 0.07, 0.01
    h = 1e-6
    for _ in range(10):
        x = np.array([rng.random(), rng.uniform(-1, 1)], dtype=complex)
        Df = fam.jacobian(x, mu, eps)
        fd = np.empty((2, 2), dtype=complex)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (fam.apply(x + e, mu, eps) - fam.apply(x - e, mu, eps)) / (2 * h)
        assert np.max(np.abs(Df - fd)) <= 1e-7


def test_d_eps_against_central_difference(fam, rng):
    # at a constant x jet the order-1 coefficient of jet_apply is d/d eps of
    # the map, the eps derivative the jet engines use
    mu = 0.01
    h = 1e-6
    x = np.array([0.23, 0.71], dtype=complex)
    for eps in (0.05, 0.2):
        de = fam.jet_apply(jets.pad(x[None], 1), np.array([[mu], [0.0]]), eps)[1]
        fd = (fam.apply(x, mu, eps + h) - fam.apply(x, mu, eps - h)) / (2 * h)
        np.testing.assert_allclose(de, fd, atol=1e-8)


# -- conformality -----------------------------------------------------------------

def test_conformal_identity(fam, rng):
    for eps in (0.0, 0.05, 0.3 + 0.1j):
        assert verify_conformal(fam, 100, eps, rng=rng) <= 1e-13


def test_symplectic_at_eps0(fam, rng):
    assert verify_conformal(fam, 100, 0.0, rng=rng) <= 1e-14


class _BrokenFamily(DissipativeStandardMap):
    """Action row forgets the conformal factor: y' = y + mu + kick."""

    def apply(self, x, mu, eps):
        x = np.asarray(x)
        mu0 = np.asarray(mu, dtype=complex).reshape(-1)[0] if np.size(mu) else 0.0
        ynew = x[1] + mu0 + self._kick(x[0], eps)
        return np.stack([x[0] + ynew, ynew])

    def jacobian(self, x, mu, eps):
        out = super().jacobian(x, mu, eps)
        out[0, 1] = 1.0
        out[1, 1] = 1.0
        return out


def test_broken_family_detected(rng):
    fam = _BrokenFamily(kappa=0.5)
    eps = 0.2
    defect = verify_conformal(fam, 200, eps, rng=rng)
    # the missing factor shows up at the size of |lam - 1|
    assert defect >= 0.5 * abs(fam.lambda_eps(eps) - 1.0)


# -- the family protocol ------------------------------------------------------------

class _PlainFamily:
    """No base class: the attributes and the eight methods of the protocol in
    the `maps` docstring, and nothing else.  The pointwise methods are written
    out in the protocol's layout, components on the leading axis and any grid
    behind them; the others are forwarded to a family."""

    def __init__(self, fam):
        self.dim, self.degree, self.alpha, self.a, self.J, self.kappa = \
            fam.dim, fam.degree, fam.alpha, fam.a, fam.J, fam.kappa
        for name in ("lambda_eps", "lambda_jet", "jet_apply", "jet_jacobian", "jet_d_mu"):
            setattr(self, name, getattr(fam, name))

    def apply(self, x, mu, eps):
        y = self.lambda_eps(eps) * x[1] + np.atleast_1d(mu)[0] \
            + eps * self.kappa * np.sin(2 * np.pi * x[0]) / (2 * np.pi)
        return np.stack([x[0] + y, y])

    def jacobian(self, x, mu, eps):
        c = eps * self.kappa * np.cos(2 * np.pi * x[0])
        lam = self.lambda_eps(eps) * np.ones_like(c)
        return np.stack([np.stack([1.0 + c, lam]), np.stack([c, lam])])

    def d_mu(self, x, mu, eps):
        return np.ones((2, 1) + np.shape(x)[1:], dtype=complex)


def _jet_bytes(jet):
    return [K.coeffs.tobytes() for K in jet.K_coeffs] + [np.asarray(jet.mu_coeffs).tobytes()]


def test_the_protocol_alone_runs_every_layer(omega):
    fam = DissipativeStandardMap(kappa=0.5, alpha=1.0, a=2)
    K0, mu0 = fam.unperturbed_torus(omega, 32)
    runs = []
    for f in (fam, _PlainFamily(fam)):
        sol = run_newton(f, K0, mu0, omega, 0.05)
        jet = lindstedt_expand(f, K0, mu0, omega, 0.0, 4)
        doubled = lindstedt_double(f, jet.truncated(1), omega)
        balls = excluded_balls(GoodSetParams(A=0.1, N=1, tau=1.0, r0=0.3), omega, 256,
                               0.05, fam=f, plane="epsilon")
        runs.append([sol.K.periodic.coeffs.tobytes(), sol.mu.tobytes(), sol.trace,
                     _jet_bytes(jet), _jet_bytes(doubled),
                     verify_conformal(f, 50, 0.07, rng=np.random.default_rng(3)), balls])
    assert runs[1][-1] and runs[1][-1][0].plane == "epsilon"
    assert runs[1] == runs[0]


# -- jets ---------------------------------------------------------------------------

def test_lambda_jet_profiles():
    fam1 = DissipativeStandardMap(kappa=0.1, alpha=2.0, a=1)
    np.testing.assert_allclose(fam1.lambda_jet(0.0, 3), [1.0, 2.0, 0.0, 0.0])
    fam3 = DissipativeStandardMap(kappa=0.1, alpha=1.0, a=3)
    np.testing.assert_allclose(fam3.lambda_jet(0.0, 4), [1.0, 0.0, 0.0, 1.0, 0.0])
    # around eps0 != 0: binomial shift
    jet = fam3.lambda_jet(0.1, 3)
    np.testing.assert_allclose(jet, [1.0 + 0.1 ** 3, 3 * 0.1 ** 2, 3 * 0.1, 1.0])


def test_jet_apply_order0_is_apply(fam, rng):
    x = np.array([[0.3, 0.7]], dtype=complex)     # order-0 jet
    mu = np.array([[0.02]], dtype=complex)
    out = fam.jet_apply(x, mu, 0.06)
    np.testing.assert_allclose(out[0], fam.apply(x[0], 0.02, 0.06), atol=1e-15)


def test_jet_apply_matches_pointwise_eval(fam, rng):
    # polynomial consistency: evaluating the jet at de reproduces the map at
    # eps0 + de applied to the evaluated argument jet, up to O(de^{N+1})
    N = 6
    eps0 = 0.02
    x_jet = (rng.standard_normal((N + 1, 2, 4)) * 0.3).astype(complex)
    x_jet[0, 0] = rng.random(4)
    mu_jet = (rng.standard_normal((N + 1, 1)) * 0.1).astype(complex)
    G = fam.jet_apply(x_jet, mu_jet, eps0)
    for de in (1e-2, 5e-3, 2.5e-3):
        lhs = jets.poly_eval(G, de)
        rhs = fam.apply(jets.poly_eval(x_jet, de), jets.poly_eval(mu_jet, de),
                        eps0 + de)
        err = np.max(np.abs(lhs - rhs))
        assert err <= max(50 * de ** (N + 1), 1e-14)


@pytest.mark.parametrize("a, eps0", [(1, 0.0), (3, 0.0), (2, 0.05 - 0.01j)])
def test_incremental_jet_apply_is_the_last_order_of_the_whole_jet(rng, a, eps0):
    # a caller growing its jet one order at a time, each order known only
    # after the call that saw it as zero, as the Lindstedt expansion does
    fam = DissipativeStandardMap(kappa=0.5, alpha=1.0 + 0.5j, a=a)
    N = 9
    x = (rng.standard_normal((N + 1, 2, 6)) * 0.2).astype(complex)
    x[0, 0] = rng.random(6)
    mu = (rng.standard_normal((N + 1, 1)) * 0.05).astype(complex)
    grown, mu_grown = np.zeros_like(x), np.zeros_like(mu)
    grown[0], mu_grown[0] = x[0], mu[0]
    work = {}
    for j in range(1, N + 1):
        got = fam.jet_apply(grown[:j + 1], mu_grown[:j + 1], eps0, work=work)
        want = fam.jet_apply(grown[:j + 1], mu_grown[:j + 1], eps0)
        assert got.shape == (1, 2, 6) and got.tobytes() == want[j:].tobytes()
        grown[j], mu_grown[j] = x[j], mu[j]


def test_jet_chain_rule_consistency(fam, rng):
    # d/d eps of the composed jet equals Df.x' + D_mu f.mu' + d_eps f along
    # the jet, rebuilt from the family's jet pieces
    N = 5
    eps0 = 0.03
    x_jet = (rng.standard_normal((N + 1, 2, 8)) * 0.2).astype(complex)
    x_jet[0, 0] = rng.random(8)
    mu_jet = (rng.standard_normal((N + 1, 1)) * 0.05).astype(complex)

    G = fam.jet_apply(x_jet, mu_jet, eps0)
    lhs = jets.derivative(G)

    M = N - 1
    Df = fam.jet_jacobian(x_jet, mu_jet, eps0)[: M + 1]
    Dmu = fam.jet_d_mu(x_jet, mu_jet, eps0)[: M + 1]
    xp = jets.derivative(x_jet)
    mup = jets.derivative(mu_jet)
    term = jets.matmul(Df, xp[:, :, None])[:, :, 0] \
        + jets.matmul(Dmu, mup[:, :, None, None] * np.ones((1, 1, 1, 8)))[:, :, 0]

    # remaining explicit eps-derivative: lam'(eps) y + kappa V'(x)
    lamp = jets.derivative(fam.lambda_jet(eps0, N))
    s, _ = jets.sincos(x_jet[:, 0])
    dv = fam.kappa / (2 * np.pi) * s[: M + 1]
    de_f = jets.cauchy(lamp.reshape(-1, 1), x_jet[: M + 1, 1]) + dv
    term = term + np.stack([de_f, de_f], axis=1)

    assert np.max(np.abs(lhs - term)) <= 1e-11


def test_jet_d_mu_constant(fam):
    x_jet = np.zeros((3, 2, 5), dtype=complex)
    out = fam.jet_d_mu(x_jet, np.zeros((3, 1)), 0.0)
    assert np.max(np.abs(out[1:])) == 0.0
    np.testing.assert_allclose(out[0, :, 0], np.ones((2, 5)))


def test_unperturbed_torus_solves(fam, omega):
    K, mu = fam.unperturbed_torus(omega, 16)
    th = 0.37
    img = fam.apply(K.eval_lift(th), mu, 0.0)
    np.testing.assert_allclose(img, K.eval_lift(th + omega), atol=1e-15)


def test_a_single_point_is_evaluated_as_on_the_grid(fam, omega):
    # a (2d,) point, as the benchmark's off-grid checks pass it, gives the
    # values of the grid evaluation at that point
    K0, mu0 = fam.unperturbed_torus(omega, 16)
    sol = run_newton(fam, K0, mu0, omega, 0.1)
    (X,) = sample_jet(sol.K.periodic.coeffs[None], None, _grid_size(sol.K.kmax), dk=False)
    grid = [f(X[0], sol.mu, 0.1) for f in (fam.apply, fam.jacobian, fam.d_mu)]
    for p in (0, 7, X.shape[-1] - 1):
        for f, values in zip((fam.apply, fam.jacobian, fam.d_mu), grid):
            point = f(X[0][:, p], sol.mu, 0.1)
            assert point.shape == values.shape[:-1]
            assert point.tobytes() == np.ascontiguousarray(values[..., p]).tobytes()
