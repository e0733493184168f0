import dataclasses
import io
import re

import numpy as np
import pytest

from kamtori import embedding, jets, lindstedt, newton
from kamtori.cohomology import _divisor_table
from kamtori.embedding import TorusEmbedding, sample_jet
from kamtori.errors import FrameSingular, InexactJet, JetOverflow
from kamtori.fourier import FourierSeries, fast_grid_size, from_grid
from kamtori.lindstedt import (EpsilonJet, dump_jet, lindstedt_double,
                               lindstedt_expand, load_jet, residual_jet,
                               residual_jet_norms, residual_tail_norm)
from kamtori.maps import DissipativeStandardMap
from kamtori.newton import _grid_size, invariance_residual, run_newton


@pytest.fixture(scope="module")
def jet4(fam, omega, base_torus):
    K0, mu0 = base_torus
    return lindstedt_expand(fam, K0, mu0, omega, 0.0, 4)


# -- jet arithmetic -----------------------------------------------------------------

def test_geometric_identity_truncated():
    one_plus = np.array([1.0, 1.0, 0.0], dtype=complex)
    one_minus = np.array([1.0, -1.0, 0.0], dtype=complex)
    np.testing.assert_allclose(jets.cauchy(one_plus, one_minus), [1.0, 0.0, -1.0])


def test_jet_mul_matches_convolution(rng):
    a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    got = jets.cauchy(a, b, order=8)
    want = np.convolve(a, b)[:9]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_jet_add_pads():
    out = jets.pad(np.array([1.0, 2.0]), 2) + jets.pad(np.array([3.0]), 2)
    np.testing.assert_allclose(out, [4.0, 2.0, 0.0])


def test_compose_constant_jet_is_pointwise_apply(fam, omega, base_torus):
    K0, mu0 = base_torus
    X, *_ = sample_jet(K0.periodic.coeffs[None], omega, _grid_size(K0.kmax))
    G = fam.jet_apply(X, np.array([mu0]), 0.05 + 0j)
    np.testing.assert_allclose(G[0], fam.apply(X[0], mu0, 0.05), atol=1e-14)


def test_jet_inverse_kernel(rng):
    A = rng.standard_normal((5, 2, 2, 3)) + 1j * rng.standard_normal((5, 2, 2, 3))
    A[0] += 4 * np.eye(2)[..., None]
    X = jets.inv_matrix(A)
    prod = jets.matmul(A, X)
    assert np.max(np.abs(prod[0] - np.eye(2)[..., None])) <= 1e-13
    assert np.max(np.abs(prod[1:])) <= 1e-12


# -- order-by-order engine -------------------------------------------------------------

def test_order_zero_is_base(fam, omega, base_torus):
    K0, mu0 = base_torus
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, 0)
    assert jet.order == 0
    np.testing.assert_array_equal(jet.K_coeffs[0].coeffs, K0.periodic.coeffs)
    np.testing.assert_array_equal(jet.mu_coeffs[0], mu0)


def test_first_order_drift_coefficient(fam, omega, jet4):
    # solvability of the averaged action row forces mu_1 = -omega
    assert jet4.mu_coeffs[1, 0] == pytest.approx(-omega, rel=1e-13)


def test_first_order_against_dense_solve(fam, omega, base_torus):
    # independent oracle: solve the order-1 equation as one dense linear
    # system over stacked mode unknowns plus the drift coefficient
    kmax = 16
    K0, mu0 = fam.unperturbed_torus(omega, kmax)
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, 1)

    nm = 2 * kmax + 1
    ks = np.arange(-kmax, kmax + 1)
    A0 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)   # Df on the circle
    Dmu = np.array([1.0, 1.0], dtype=complex)
    # F = -d/d eps f on the circle: -(alpha*omega + kappa sin(2 pi t)/(2 pi))*(1,1)
    F = {0: -np.array([omega, omega], dtype=complex)}
    amp = fam.kappa / (2 * np.pi)
    F[1] = -np.array([amp / 2j, amp / 2j], dtype=complex)
    F[-1] = np.conj(F[1]) * 1.0

    rows = []
    rhs = []
    # unknown layout: [K1hat(k) for k] (2 per mode), then mu1
    def col(kidx, comp):
        return 2 * kidx + comp

    ncols = 2 * nm + 1
    for i, k in enumerate(ks):
        rot = np.exp(2j * np.pi * k * omega)
        blk = A0 - rot * np.eye(2)
        for r in range(2):
            row = np.zeros(ncols, dtype=complex)
            row[col(i, 0)] = blk[r, 0]
            row[col(i, 1)] = blk[r, 1]
            if k == 0:
                row[2 * nm] = Dmu[r]
            rhs.append(F.get(int(k), np.zeros(2))[r])
            rows.append(row)
    # normalization: average angle coefficient vanishes
    row = np.zeros(ncols, dtype=complex)
    row[col(kmax, 0)] = 1.0
    rows.append(row)
    rhs.append(0.0)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)

    K1_dense = sol[: 2 * nm].reshape(nm, 2)
    mu1_dense = sol[2 * nm]
    assert jet.mu_coeffs[1, 0] == pytest.approx(mu1_dense, abs=1e-12)
    assert np.max(np.abs(jet.K_coeffs[1].coeffs - K1_dense)) <= 1e-10


def test_residual_orders_vanish_through_N(fam, omega, jet4):
    norms = residual_jet_norms(fam, jet4, omega)
    assert max(norms[:5]) <= 1e-10
    assert norms[5] > 1e-4


def test_residual_scaling_with_added_orders(fam, omega, base_torus):
    # at eps = 1e-3 each added order shrinks the defect by about 1e-3
    K0, mu0 = base_torus
    eps = 1e-3
    vals = []
    for N in (1, 2, 3, 4):
        jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, N)
        vals.append(residual_tail_norm(fam, jet, omega, [eps])[0])
    ratios = [vals[i + 1] / vals[i] for i in range(3)]
    assert all(r < 5e-2 for r in ratios)


def test_corrupted_coefficient_localizes(fam, omega, jet4):
    bad = list(jet4.K_coeffs)
    bump = np.zeros_like(bad[2].coeffs)
    bump[bad[2].kmax + 1, 0] = 1e-3
    bad[2] = FourierSeries(1, bad[2].kmax, bad[2].coeffs + bump)
    jet_bad = EpsilonJet(jet4.eps0, tuple(bad), jet4.mu_coeffs, jet4.lambda_coeffs)
    norms = residual_jet_norms(fam, jet_bad, omega)
    assert norms[0] <= 1e-12 and norms[1] <= 1e-12
    assert norms[2] > 1e-5


def test_expansion_deterministic(fam, omega, base_torus):
    K0, mu0 = base_torus
    a = lindstedt_expand(fam, K0, mu0, omega, 0.0, 3)
    b = lindstedt_expand(fam, K0, mu0, omega, 0.0, 3)
    for x, y in zip(a.K_coeffs, b.K_coeffs):
        np.testing.assert_array_equal(x.coeffs, y.coeffs)


class _FromOrderZero(DissipativeStandardMap):
    """The expansion's former evaluation, the oracle of the incremental one:
    every call computes the map's jet from order 0, with full Cauchy products
    over the zero-padded jets of eps and lam(eps), and the expansion reads its
    last order, jet_apply(x[:j+1], mu[:j+1], eps0)[j]."""

    def jet_apply(self, x_jet, mu_jet, eps0, *, work=None):
        order = x_jet.shape[0] - 1
        a, b = x_jet[:, 0], x_jet[:, 1]
        lamj = self.lambda_jet(eps0, order)[:, None]
        epsj = jets.variable(eps0, order)[:, None]
        s, _ = jets.sincos(a)
        kick = self.kappa / (2 * np.pi) * jets.cauchy(epsj, s, order=order)
        ynew = jets.cauchy(lamj, b, order=order) + mu_jet[:, :1] + kick
        return np.stack([a + ynew, ynew], axis=1)[order:]


def _expansions(fam, base, omega, eps0, N):
    return [_jet_bytes(lindstedt_expand(f, *base, omega, eps0, N))
            for f in (fam, _FromOrderZero(fam.kappa, fam.alpha, fam.a))]


def _jet_bytes(jet):
    return [K.coeffs.tobytes() for K in jet.K_coeffs] + [
        jet.mu_coeffs.tobytes(), jet.lambda_coeffs.tobytes()]


@pytest.mark.parametrize("a", [1, 2, 3])
def test_expansion_is_the_order_by_order_recomputation_on_the_flat_torus(omega, a):
    fam = DissipativeStandardMap(kappa=0.5, alpha=1.0, a=a)
    got, want = _expansions(fam, fam.unperturbed_torus(omega, 32), omega, 0.0, 16)
    assert got == want


@pytest.mark.parametrize("eps0", [0.05, 0.04 - 0.02j])
@pytest.mark.parametrize("a", [1, 3])
def test_expansion_is_the_order_by_order_recomputation_on_a_newton_base(omega, a, eps0):
    fam = DissipativeStandardMap(kappa=0.5, alpha=1.0, a=a)
    sol = run_newton(fam, *fam.unperturbed_torus(omega, 32), omega, eps0, tol=1e-14)
    got, want = _expansions(fam, (sol.K, sol.mu), omega, eps0, 10)
    assert got == want


@pytest.mark.parametrize("kappa, order", [(1e200, 2), (1e100, 4)])
def test_incremental_expansion_names_the_same_overflowing_order(omega, kappa, order):
    fam = DissipativeStandardMap(kappa=kappa, alpha=1.0, a=1)
    errors = []
    for f in (fam, _FromOrderZero(kappa, 1.0, 1)):
        with pytest.raises(JetOverflow) as err:
            lindstedt_expand(f, *f.unperturbed_torus(omega, 32), omega, 0.0, 8)
        errors.append((err.value.order, str(err.value)))
    assert errors[0] == errors[1] and errors[0][0] == order


def test_order_cap_enforced(fam, omega, base_torus):
    K0, mu0 = base_torus
    with pytest.raises(ValueError):
        lindstedt_expand(fam, K0, mu0, omega, 0.0, 33)


def test_doubling_order_cap_enforced(fam, omega, base_torus):
    # a jet of order N doubles to 2N + 1, one past the cap for N = cap // 2
    K0, mu0 = base_torus
    N = jets.MAX_ORDER_DOUBLE // 2
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, N)
    with pytest.raises(ValueError, match=f"^target order {2 * N + 1} beyond the "
                                         f"double-precision cap {jets.MAX_ORDER_DOUBLE}$"):
        lindstedt_double(fam, jet, omega)


def test_base_must_be_exact(fam, omega, base_torus):
    # mu = 0.05 on the flat torus: the residual is 0.05 in both rows
    K0, mu0 = base_torus
    with pytest.raises(InexactJet, match="input order 0 is not exact") as err:
        lindstedt_expand(fam, K0, np.array([0.05]), omega, 0.0, 2)
    assert err.value.order == 0 and err.value.tol == lindstedt.BASE_TOL
    assert err.value.residual == pytest.approx(0.05, rel=1e-12)


class _JetsOnly(DissipativeStandardMap):
    """The family with its pointwise f, Df and df/dmu refused."""

    def apply(self, x, mu, eps):
        raise AssertionError("apply called")

    def jacobian(self, x, mu, eps):
        raise AssertionError("jacobian called")

    def d_mu(self, x, mu, eps):
        raise AssertionError("d_mu called")


def test_the_engines_read_only_the_familys_jets(fam, omega, base_torus):
    spy = _JetsOnly(kappa=fam.kappa, alpha=fam.alpha, a=fam.a)
    sol = run_newton(fam, *base_torus, omega, 0.05, tol=1e-14)
    for run in (lambda f: lindstedt_expand(f, *base_torus, omega, 0.0, 5),
                lambda f: lindstedt_expand(f, sol.K, sol.mu, omega, 0.05, 5),
                lambda f: lindstedt_double(f, lindstedt_expand(fam, *base_torus, omega,
                                                               0.0, 3), omega)):
        assert _jet_bytes(run(spy)) == _jet_bytes(run(fam))


def _start_error(fam, K, mu, omega, eps):
    with pytest.raises(ValueError) as err:
        run_newton(fam, K, mu, omega, eps)
    return str(err.value)


_BAD_STARTS = pytest.mark.parametrize("alpha, mu, omega_of, eps0", [
    (1.0, [np.nan], lambda w: w, 0.0),
    (1.0, [0.0], lambda w: np.nan, 0.0),
    (1.0, [0.0], lambda w: [w, w], 0.0),
    (1.0, [0.0], lambda w: w, np.nan),
    (1.0, [0.0], lambda w: w, np.inf),
    # lam(eps0) = 1 + alpha eps0 overflows
    (1e308, [0.0], lambda w: w, 10.0),
], ids=["mu-nan", "omega-nan", "omega-length", "eps0-nan", "eps0-inf", "lam-overflows"])


@_BAD_STARTS
def test_expansion_refuses_the_starts_that_newton_refuses(omega, alpha, mu, omega_of, eps0):
    # these used to give a nan mu, FrameSingular, IndexError or a RuntimeWarning
    fam = DissipativeStandardMap(kappa=0.5, alpha=alpha, a=1)
    K0 = fam.unperturbed_torus(omega, 16)[0]
    named = _start_error(fam, K0, mu, omega_of(omega), eps0)
    with pytest.raises(ValueError) as err:
        lindstedt_expand(fam, K0, mu, omega_of(omega), eps0, 3)
    assert str(err.value) == named


@_BAD_STARTS
def test_doubling_refuses_the_starts_that_newton_refuses(omega, alpha, mu, omega_of, eps0):
    # these used to give JetOverflow, IndexError or a RuntimeWarning
    fam = DissipativeStandardMap(kappa=0.5, alpha=alpha, a=1)
    jet = lindstedt_expand(DissipativeStandardMap(kappa=0.5, alpha=1.0, a=1),
                           *fam.unperturbed_torus(omega, 16), omega, 0.0, 3)
    mu_coeffs = np.array(jet.mu_coeffs)
    mu_coeffs[0] = mu
    jet = dataclasses.replace(jet, eps0=complex(eps0), mu_coeffs=mu_coeffs)
    named = _start_error(fam, TorusEmbedding(jet.K_coeffs[0]), jet.mu_coeffs[0],
                         omega_of(omega), jet.eps0)
    with pytest.raises(ValueError) as err:
        lindstedt_double(fam, jet, omega_of(omega))
    assert str(err.value) == named


# -- expansion around eps0 != 0 -----------------------------------------------------

def test_expand_around_interior_point(fam, omega, base_torus):
    K0, mu0 = base_torus
    eps0 = 0.04
    sol = run_newton(fam, K0, mu0, omega, eps0, tol=1e-13)
    jet = lindstedt_expand(fam, sol.K, sol.mu, omega, eps0, 3)
    norms = residual_jet_norms(fam, jet, omega)
    assert max(norms[:4]) <= 1e-10
    # the polynomial predicts nearby true solutions to O(de^{N+1})
    de = 5e-3
    sol2 = run_newton(fam, sol.K, sol.mu, omega, eps0 + de, tol=1e-13)
    pred_mu = jet.mu_at(eps0 + de)
    assert abs(pred_mu[0] - sol2.mu[0]) <= 100 * de ** 4


# -- doubling engine ------------------------------------------------------------------

@pytest.mark.parametrize("N", [1, 2, 3])
def test_doubling_residual_orders(fam, omega, base_torus, N):
    K0, mu0 = base_torus
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, N)
    dbl = lindstedt_double(fam, jet, omega)
    assert dbl.order == 2 * N + 1
    norms = residual_jet_norms(fam, dbl, omega)
    assert max(norms[: 2 * N + 2]) <= 1e-10


def test_doubling_frame_singular_detected(fam, omega):
    # the embedding of test_frame_singular_detected: 1 + u' vanishes at theta = 0
    kmax = 8
    c = np.zeros((2 * kmax + 1, 2), dtype=complex)
    c[kmax + 1, 0] = -1.0 / (4j * np.pi)
    c[kmax - 1, 0] = 1.0 / (4j * np.pi)
    c[kmax, 1] = 0.6
    jet = EpsilonJet(0j, (FourierSeries(1, kmax, c),), np.zeros((1, 1), dtype=complex),
                     fam.lambda_jet(0.0, 0))
    with pytest.raises(FrameSingular):
        lindstedt_double(fam, jet, omega)


def test_doubling_frame_stops_at_the_input_order(omega, base_torus):
    # the new orders 8..15 of a 7 -> 15 doubling read the frame's orders <= 7
    # only, so the map derivatives are taken as jets through order 7
    class Recording(DissipativeStandardMap):
        def jet_jacobian(self, x_jet, mu_jet, eps0):
            seen.append(x_jet.shape[0])
            return super().jet_jacobian(x_jet, mu_jet, eps0)

    seen = []
    fam = Recording(kappa=0.5, alpha=1.0, a=1)
    jet = lindstedt_expand(fam, *base_torus, omega, 0.0, 7)
    seen.clear()
    assert lindstedt_double(fam, jet, omega).order == 15
    assert seen == [8]


def test_doubling_idempotent_on_exact_orders(fam, omega, base_torus):
    K0, mu0 = base_torus
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, 2)
    dbl = lindstedt_double(fam, jet, omega)
    for j in range(3):
        assert dbl.K_coeffs[j].coeffs.tobytes() == jet.K_coeffs[j].coeffs.tobytes()
        assert dbl.mu_coeffs[j].tobytes() == jet.mu_coeffs[j].tobytes()


def _rel_gap(a, b):
    """Largest |a - b| relative to the largest |b|."""
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_three_doublings_match_order_by_order(flat_jets):
    # from the flat torus both engines run on the band and the doubling solves
    # each new order on its own band, so three doublings 1 -> 15 agree with
    # the order-16 expansion at roundoff at every kmax (measured 9.2e-14)
    for kmax, (expanded, doubled) in flat_jets.items():
        jet = doubled[-1]
        assert jet.order == 15
        for j in range(16):
            assert _rel_gap(jet.K_coeffs[j].coeffs, expanded.K_coeffs[j].coeffs) <= 1e-12
        assert _rel_gap(jet.mu_coeffs, expanded.mu_coeffs[:16]) <= 1e-12


@pytest.fixture(scope="module")
def jets_at_the_cap(fam, omega):
    """The order-32 expansion and four doublings 1 -> 31 from the flat torus,
    at kmax 32 and 64."""
    out = {}
    for kmax in (32, 64):
        K0, mu0 = fam.unperturbed_torus(omega, kmax)
        expanded = lindstedt_expand(fam, K0, mu0, omega, 0.0, jets.MAX_ORDER_DOUBLE)
        doubled = expanded.truncated(1)
        for _ in range(4):
            doubled = lindstedt_double(fam, doubled, omega)
        out[kmax] = expanded, doubled
    return out


def test_the_order_32_expansion_solves_every_order(fam, omega, jets_at_the_cap):
    # measured at most 3.8e-15 of the order's norm
    expanded = jets_at_the_cap[64][0]
    assert expanded.order == 32
    norms = residual_jet_norms(fam, expanded, omega, through=32)
    for j in range(33):
        assert norms[j] <= 1e-14 * expanded.K_coeffs[j].analytic_norm(0.0)


def test_four_doublings_match_the_order_32_expansion(jets_at_the_cap):
    # measured 2.1e-11 on K and 2.0e-12 on mu
    expanded, doubled = jets_at_the_cap[64]
    assert doubled.order == 31
    for j in range(32):
        assert _rel_gap(doubled.K_coeffs[j].coeffs, expanded.K_coeffs[j].coeffs) <= 1e-10
    assert _rel_gap(doubled.mu_coeffs, expanded.mu_coeffs[:32]) <= 1e-10


def test_jets_at_the_cap_do_not_depend_on_kmax(jets_at_the_cap):
    for jet, ref in zip(jets_at_the_cap[64], jets_at_the_cap[32]):
        assert jet.mu_coeffs.tobytes() == ref.mu_coeffs.tobytes()
        for K, K_ref in zip(jet.K_coeffs, ref.K_coeffs):
            assert K.truncate(32).coeffs.tobytes() == K_ref.coeffs.tobytes()


def test_doubling_is_stable_under_input_noise(fam, omega, base_torus):
    # 1e-15 relative noise on the in-band coefficients of an exact order-7
    # jet moves the doubled orders 8-15 at roundoff, not through the small
    # divisors of the orders above (measured 1.9e-13; a doubling that solves
    # orders <= 7 again moves them by 9.7e-6)
    K0, mu0 = base_torus
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, 7)
    rng = np.random.default_rng(7)
    noisy = []
    for j, K in enumerate(jet.K_coeffs):
        c = K.coeffs.copy()
        band = (slice(K.kmax - j * fam.degree, K.kmax + j * fam.degree + 1),)
        shape = c[band].shape
        c[band] += 1e-15 * np.max(np.abs(c)) * (rng.standard_normal(shape)
                                                + 1j * rng.standard_normal(shape))
        noisy.append(FourierSeries(1, K.kmax, c))
    mu = jet.mu_coeffs * (1 + 1e-15 * rng.standard_normal(jet.mu_coeffs.shape))
    want = lindstedt_double(fam, jet, omega)
    got = lindstedt_double(fam, EpsilonJet(jet.eps0, tuple(noisy), mu, jet.lambda_coeffs),
                           omega)
    for j in range(16):
        assert _rel_gap(got.K_coeffs[j].coeffs, want.K_coeffs[j].coeffs) <= 1e-12
    assert _rel_gap(got.mu_coeffs, want.mu_coeffs) <= 1e-12


def test_doubling_from_a_newton_base_keeps_the_given_orders(fam, omega, base_torus):
    # a Newton base is not band-limited, so the doubling runs at kmax; the
    # given orders come back as they are and the new ones are exact
    K0, mu0 = base_torus
    sol = run_newton(fam, K0, mu0, omega, 0.05, tol=1e-14)
    jet = lindstedt_expand(fam, sol.K, sol.mu, omega, 0.05, 15).truncated(7)
    dbl = lindstedt_double(fam, jet, omega)
    assert dbl.order == 15
    for j in range(8):
        assert dbl.K_coeffs[j].coeffs.tobytes() == jet.K_coeffs[j].coeffs.tobytes()
    assert dbl.mu_coeffs[:8].tobytes() == jet.mu_coeffs.tobytes()
    # measured at most 9.7e-15; a doubling that solves orders <= 7 again
    # re-phases order 0 and reaches 6.8e-6
    norms = residual_jet_norms(fam, dbl, omega, through=15)
    for j in range(16):
        assert norms[j] <= 1e-13 * max(1.0, dbl.K_coeffs[j].analytic_norm(0.0))


def test_doubling_refuses_an_inexact_input(fam, omega, jet4):
    # orders <= N are returned as given, so they must be exact
    bad = list(jet4.K_coeffs)
    bump = np.zeros_like(bad[2].coeffs)
    bump[bad[2].kmax + 1, 0] = 1e-6
    bad[2] = FourierSeries(1, bad[2].kmax, bad[2].coeffs + bump)
    jet_bad = EpsilonJet(jet4.eps0, tuple(bad), jet4.mu_coeffs, jet4.lambda_coeffs)
    with pytest.raises(InexactJet, match="input order 2 is not exact") as err:
        lindstedt_double(fam, jet_bad, omega)
    assert err.value.order == 2 and err.value.residual > err.value.tol == lindstedt.BASE_TOL


# -- band rule -------------------------------------------------------------------------

def _flat_jets(fam, omega, kmax):
    K0, mu0 = fam.unperturbed_torus(omega, kmax)
    expanded = lindstedt_expand(fam, K0, mu0, omega, 0.0, 16)
    doubled = [expanded.truncated(1)]
    for _ in range(3):
        doubled.append(lindstedt_double(fam, doubled[-1], omega))
    return expanded, doubled[1:]


def _outside_band(series, band):
    inner = series.truncate(min(band, series.kmax)).pad_to(series.kmax)
    return series.coeffs - inner.coeffs


@pytest.fixture(scope="module")
def flat_jets(fam, omega):
    return {kmax: _flat_jets(fam, omega, kmax) for kmax in (32, 64, 128)}


def test_flat_torus_jets_do_not_depend_on_kmax(fam, omega, flat_jets):
    # the order-16 expansion and three doublings from the flat torus: order j
    # holds no mode beyond j * degree, and the band is the same at every kmax
    ref_e, ref_d = flat_jets[32]
    for kmax, (expanded, doubled) in flat_jets.items():
        for jet, ref in zip([expanded] + doubled, [ref_e] + ref_d):
            assert jet.kmax == kmax and jet.order == ref.order
            assert jet.mu_coeffs.tobytes() == ref.mu_coeffs.tobytes()
            for j, (K, K_ref) in enumerate(zip(jet.K_coeffs, ref.K_coeffs)):
                assert not np.any(_outside_band(K, j * fam.degree))
                assert K.truncate(32).coeffs.tobytes() == K_ref.coeffs.tobytes()
        # and so does the residual jet of the last doubling, through order 32
        ref_r = residual_jet(fam, ref_d[-1], omega)
        for j, (r, r_ref) in enumerate(zip(residual_jet(fam, doubled[-1], omega), ref_r)):
            assert not np.any(_outside_band(r, j * fam.degree))
            assert r.truncate(32).coeffs.tobytes() == r_ref.coeffs.tobytes()


def _flat_jets_at_kmax_64(fam, omega):
    K0, mu0 = fam.unperturbed_torus(omega, 64)
    expanded = lindstedt_expand(fam, K0, mu0, omega, 0.0, 16)
    doubled = lindstedt_double(fam, lindstedt_double(fam, expanded.truncated(1), omega), omega)
    return expanded, doubled


@pytest.mark.parametrize("factor", [5, 8])
def test_flat_torus_jets_do_not_depend_on_the_grid_factor(fam, omega, factor, monkeypatch):
    # the order-16 expansion and two doublings (orders 1-7) on grids
    # oversampled by `factor` agree with the default factor 3 per order to
    # 1e-12, relative (measured at most 1.7e-13 and 4.6e-15)
    ref = _flat_jets_at_kmax_64(fam, omega)
    sizes = set()

    def grid_size(kmax):
        size = fast_grid_size(max(factor * kmax + 2, 16))
        sizes.add(size)
        return size

    for module in (newton, lindstedt):
        monkeypatch.setattr(module, "_grid_size", grid_size)
    for jet, jet_ref in zip(_flat_jets_at_kmax_64(fam, omega), ref):
        assert jet.order == jet_ref.order
        for j in range(1, jet.order + 1):
            gap = np.max(np.abs(jet.K_coeffs[j].coeffs - jet_ref.K_coeffs[j].coeffs))
            assert gap <= 1e-12 * np.max(np.abs(jet_ref.K_coeffs[j].coeffs))
        assert np.max(np.abs(jet.mu_coeffs - jet_ref.mu_coeffs)) <= 1e-12
    assert fast_grid_size(factor * 16 + 2) in sizes


def test_out_of_band_bump_is_reported(fam, omega, jet4):
    # an order-2 coefficient at k = 5 is outside the band 2 * degree: the jet
    # is not band-limited, so its residual is computed at kmax and shows it
    bad = list(jet4.K_coeffs)
    bump = np.zeros_like(bad[2].coeffs)
    bump[bad[2].kmax + 5, 0] = 1e-3
    bad[2] = FourierSeries(1, bad[2].kmax, bad[2].coeffs + bump)
    jet_bad = EpsilonJet(jet4.eps0, tuple(bad), jet4.mu_coeffs, jet4.lambda_coeffs)
    norms = residual_jet_norms(fam, jet_bad, omega)
    assert max(residual_jet_norms(fam, jet4, omega)[:5]) <= 1e-12
    assert norms[0] <= 1e-12 and norms[1] <= 1e-12
    assert norms[2] > 1e-5


def _grid_sizes(monkeypatch):
    """The set of grid sizes every later to_grid call and sample_jet transform
    samples on and every later cohomology solve of the reduced system solves on."""
    seen = set()
    to_grid, sample = lindstedt.to_grid, embedding._sample
    monkeypatch.setattr(lindstedt, "to_grid",
                        lambda series, n, **kw: seen.add(n) or to_grid(series, n, **kw))
    monkeypatch.setattr(embedding, "_sample",
                        lambda spec, dim, n, real: seen.add(n) or sample(spec, dim, n, real))
    solve = newton.solve_twisted_grid

    def spy(eta, dim, *args, **kw):
        seen.add(round(eta.shape[-1] ** (1 / dim)))
        return solve(eta, dim, *args, **kw)

    monkeypatch.setattr(newton, "solve_twisted_grid", spy)
    return seen


def test_newton_base_jets_run_on_the_kmax_grid(fam, omega, base_torus, monkeypatch):
    K0, mu0 = base_torus
    eps0 = 0.02
    sol = run_newton(fam, K0, mu0, omega, eps0, tol=1e-13)
    seen = _grid_sizes(monkeypatch)
    jet = lindstedt_expand(fam, sol.K, sol.mu, omega, eps0, 3)
    lindstedt_double(fam, jet.truncated(1), omega)
    residual_jet_norms(fam, jet, omega)
    assert seen == {_grid_size(sol.K.kmax)}
    # from the flat torus the same calls run on the grid of their band
    seen.clear()
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, 3)
    assert seen == {_grid_size(3)}
    seen.clear()
    lindstedt_double(fam, jet.truncated(1), omega)
    assert seen == {_grid_size(3)}
    seen.clear()
    residual_jet_norms(fam, jet, omega)
    assert seen == {_grid_size(8)}


def test_a_second_doubling_round_misses_no_divisor_table_entry(fam, omega, base_torus):
    # three doublings 1 -> 3 -> 7 -> 15 from the flat torus solve on the bands
    # 2..15, a table key each; the table holds them all, so a second round
    # builds no entry and gives the same jet
    jet = lindstedt_expand(fam, *base_torus, omega, 0.0, 1)
    rounds = []
    for _ in range(2):
        doubled = jet
        for _ in range(3):
            doubled = lindstedt_double(fam, doubled, omega)
        rounds.append((doubled, _divisor_table.cache_info()))
    (first, before), (second, after) = rounds
    assert after.misses == before.misses and after.hits > before.hits
    for a, b in zip(first.K_coeffs, second.K_coeffs):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()


def test_jets_are_normalized(fam, omega, jet4):
    # zero average angle displacement in the base frame at every order
    base = TorusEmbedding(jet4.K_coeffs[0])
    n = 128
    _, _, dk, _ = sample_jet(base.periodic.coeffs[None], omega, n)
    dk = np.moveaxis(dk[0], -1, 0)   # point-major, for np.linalg
    Minv = np.linalg.inv(np.concatenate(
        [dk, np.array([[0.0, -1.0], [1.0, 0.0]]) @ dk], axis=-1))
    for j in range(1, jet4.order + 1):
        from kamtori.fourier import to_grid
        g = to_grid(jet4.K_coeffs[j], n).T
        avg = np.mean((Minv @ g[..., None])[..., 0], axis=0)
        assert abs(avg[0]) <= 1e-12


# -- asymptoticity / floors ------------------------------------------------------------

def residual_norm_direct(fam, jet: EpsilonJet, omega, eps) -> float:
    """Direct double-precision defect of the truncated polynomial at eps
    (cancellation-limited near 1e-15): the oracle for the tail form."""
    K = jet.embedding_at(eps)
    return invariance_residual(fam, K, jet.mu_at(eps), omega, eps).analytic_norm(0.0)


def test_tail_vs_direct_cross_validation(fam, omega, base_torus):
    # where the direct subtraction is far above the cancellation floor the
    # two evaluations of the defect agree to a percent
    K0, mu0 = base_torus
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, 2)
    for eps in (8e-3, 1.2e-2, 2e-2):
        direct = residual_norm_direct(fam, jet, omega, eps)
        tail = residual_tail_norm(fam, jet, omega, [eps])[0]
        assert direct > 1e-11
        assert abs(direct - tail) <= 0.01 * direct


def test_polynomial_evaluation_matches_horner_loop(fam, omega, jet4):
    # embedding_at and residual_tail_norm evaluate through jets.poly_eval; a
    # Horner loop over the FourierSeries coefficients is the bit-for-bit reference
    def horner(series, de):
        acc = series[-1].coeffs.astype(complex)
        for s in series[-2::-1]:
            acc = acc * de + s.coeffs
        return acc

    tail = residual_jet(fam, jet4, omega, 9)[jet4.order + 1:]
    for eps in (0.01, 0.03 + 0.01j, -0.2):
        de = complex(eps) - jet4.eps0
        assert np.array_equal(jet4.embedding_at(eps).periodic.coeffs,
                              horner(jet4.K_coeffs, de))
        ref = FourierSeries(jet4.dim, jet4.kmax, horner(tail, de) * de ** 5)
        assert residual_tail_norm(fam, jet4, omega, [eps], through=9)[0] \
            == ref.analytic_norm(0.0)


def test_point_oracle_extended_precision(fam, omega, base_torus):
    # evaluate the defect of the truncated polynomial at one angle in 40-digit
    # arithmetic and compare against the Taylor-tail prediction
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    K0, mu0 = base_torus
    N = 3
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, N)
    eps = mp.mpf("0.004")
    theta = mp.mpf("0.3125")

    def series_eval(series, th, comp):
        kmax = series.kmax
        acc = mp.mpc(0)
        for i in range(2 * kmax + 1):
            c = series.coeffs[i][comp]
            acc += mp.mpc(c.real, c.imag) * mp.e ** (2j * mp.pi * (i - kmax) * th)
        return acc

    # embedding and drift of the truncated polynomial at eps
    u = mp.mpc(0)
    v = mp.mpc(0)
    for j, Ks in enumerate(jet.K_coeffs):
        u += series_eval(Ks, theta, 0) * eps ** j
        v += series_eval(Ks, theta, 1) * eps ** j
    mu = sum(mp.mpc(m[0].real, m[0].imag) * eps ** j
             for j, m in enumerate(jet.mu_coeffs))
    x = theta + u
    lam = 1 + eps
    ynew = lam * v + mu + eps * fam.kappa * mp.sin(2 * mp.pi * x) / (2 * mp.pi)
    xnew = x + ynew
    # shifted polynomial at theta + omega
    us = mp.mpc(0)
    vs = mp.mpc(0)
    for j, Ks in enumerate(jet.K_coeffs):
        us += series_eval(Ks, theta + mp.mpf(omega), 0) * eps ** j
        vs += series_eval(Ks, theta + mp.mpf(omega), 1) * eps ** j
    dx = xnew - (theta + mp.mpf(omega) + us)
    dy = ynew - vs
    defect = mp.sqrt(abs(dx) ** 2 + abs(dy) ** 2)

    rs = residual_jet(fam, jet, omega)
    pred = np.zeros(2, dtype=complex)
    for j in range(N + 1, len(rs)):
        pred += rs[j].eval([0.3125]) * float(eps) ** j
    pred_mag = np.linalg.norm(pred)
    assert pred_mag == pytest.approx(float(defect), rel=2e-2)


def test_strip_norm_growth_of_coefficients(fam, omega, base_torus):
    # finite on shrinking margins, monotone in the evaluation strip
    K0, mu0 = base_torus
    jet = lindstedt_expand(fam, K0, mu0, omega, 0.0, 5)
    for j in range(1, 6):
        norms = [jet.K_coeffs[j].analytic_norm(r) for r in (0.0, 0.02, 0.04)]
        assert all(np.isfinite(norms))
        assert norms[0] <= norms[1] <= norms[2]


# -- files -------------------------------------------------------------------------------

def test_jet_dump_load_round_trip(fam, omega, jet4):
    buf = io.StringIO()
    dump_jet(jet4, buf)
    buf.seek(0)
    back = load_jet(buf)
    assert back.order == jet4.order
    assert back.eps0 == jet4.eps0
    np.testing.assert_array_equal(back.mu_coeffs, jet4.mu_coeffs)
    np.testing.assert_array_equal(back.lambda_coeffs, jet4.lambda_coeffs)
    for a, b in zip(back.K_coeffs, jet4.K_coeffs):
        np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_jet_file_with_series_flag_tokens_loads(jet4):
    # older files end each series header with `real=<0|1> zeroavg=<0|1>`;
    # the reader ignores them
    buf = io.StringIO()
    dump_jet(jet4, buf)
    text = re.sub(r"^(# fourier dim=\S+ kmax=\S+ shape=\S+).*$", r"\1 real=1 zeroavg=0",
                  buf.getvalue(), flags=re.M)
    assert text.count(" real=1 zeroavg=0\n") == jet4.order + 1
    back = load_jet(io.StringIO(text))
    assert back.mu_coeffs.tobytes() == jet4.mu_coeffs.tobytes()
    assert back.lambda_coeffs.tobytes() == jet4.lambda_coeffs.tobytes()
    for a, b in zip(back.K_coeffs, jet4.K_coeffs):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()


def test_jet_file_header_lines_load_by_key(jet4):
    # header lines are read by key: an unknown `# note` line and the
    # lambda[j] lines moved ahead of eps0 and mu[j] load to the same bytes
    buf = io.StringIO()
    dump_jet(jet4, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    mu = [line for line in lines if line.startswith("# mu[")]
    lam = [line for line in lines if line.startswith("# lambda[")]
    tables = lines[2 + len(mu) + len(lam):]
    assert len(mu) == len(lam) == jet4.order + 1 and tables[0].startswith("# fourier")
    text = "".join(lines[:1] + ["# note written by hand\n"] + lam + lines[1:2] + mu + tables)
    back = load_jet(io.StringIO(text))
    assert back.eps0 == jet4.eps0
    assert back.mu_coeffs.tobytes() == jet4.mu_coeffs.tobytes()
    assert back.lambda_coeffs.tobytes() == jet4.lambda_coeffs.tobytes()
    for a, b in zip(back.K_coeffs, jet4.K_coeffs, strict=True):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
