import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kamtori.diophantine import (GOLDEN_MEAN, GoodSetParams,
                                 lambda_in_good_set, mode_ball,
                                 nu_lambda, nu_omega, nu_scan, resonances,
                                 scan_trace)

# frozen by a 50-digit scan over |k| <= 1e5: the sup sits at k = 1
NU_GOLDEN_TAU1 = 0.53646202345015873
SQRT5_OVER_2PI = np.sqrt(5.0) / (2.0 * np.pi)


def test_rational_frequency_flagged_infinite():
    est = nu_omega(0.5, 1.0, 10)
    assert est.value == np.inf
    assert abs(est.k[0]) == 2


def test_golden_mean_pinned_value():
    est = nu_omega(GOLDEN_MEAN, 1.0, 100000)
    assert est.value == pytest.approx(NU_GOLDEN_TAU1, rel=1e-12)
    assert est.k == (1,)


def test_fibonacci_terms_approach_asymptote():
    # the Fibonacci subsequence of divisor terms tends to sqrt(5)/(2 pi)
    fib = [1, 1]
    while fib[-1] < 100000:
        fib.append(fib[-1] + fib[-2])
    q = fib[-2]
    term = 1.0 / (2 * q * abs(np.sin(np.pi * ((q * GOLDEN_MEAN) % 1.0))))
    assert term == pytest.approx(SQRT5_OVER_2PI, abs=5e-7)


def test_scan_monotone_in_k_scan():
    a = nu_omega(GOLDEN_MEAN, 1.0, 1000)
    b = nu_omega(GOLDEN_MEAN, 1.0, 100000)
    assert a.value <= b.value


@given(st.floats(0.1, 3.0))
def test_exponent_monotonicity(psi):
    tau = 0.1
    if psi < tau:
        psi, tau = tau, psi
    hi = nu_omega(GOLDEN_MEAN, tau, 500).value
    lo = nu_omega(GOLDEN_MEAN, psi, 500).value
    assert lo <= hi + 1e-15


def test_mode_ball_d1():
    ks = mode_ball(1, 3)
    assert sorted(k[0] for k in ks) == [-3, -2, -1, 1, 2, 3]


def test_mode_ball_d2_l1():
    ks = mode_ball(2, 2)
    norms = np.sum(np.abs(ks), axis=1)
    assert np.all((norms >= 1) & (norms <= 2))
    # l1 ball of radius 2 in Z^2 minus origin: 4 + 8 points
    assert len(ks) == 12


@pytest.mark.parametrize("dim, k_scan", [(2, 0), (2, 1), (2, 7), (3, 1), (3, 5)])
def test_mode_ball_matches_the_product_box_filter(dim, k_scan):
    # the (2k+1)^d box in itertools' lexicographic order, filtered to the
    # l1 ball: the reference the direct enumeration must equal byte for byte
    rng = range(-k_scan, k_scan + 1)
    ref = np.array([k for k in itertools.product(rng, repeat=dim)
                    if 0 < sum(abs(c) for c in k) <= k_scan], dtype=int).reshape(-1, dim)
    ks = mode_ball(dim, k_scan)
    assert ks.dtype == ref.dtype and ks.shape == ref.shape
    assert ks.tobytes() == ref.tobytes()


def test_nu_omega_d2():
    omega = np.array([GOLDEN_MEAN, np.sqrt(2) - 1])
    est = nu_omega(omega, 2.0, 30)
    assert np.isfinite(est.value) and est.value > 0


# -- nu for the conformal factor ------------------------------------------------

def test_nu_lambda_off_circle_bound():
    for lam in (2.0, 0.5, 1.3 + 0.4j):
        est = nu_lambda(lam, GOLDEN_MEAN, 1.0, 2000)
        assert est.value <= 1.0 / abs(1.0 - abs(lam)) + 1e-12


def test_nu_lambda_two_is_below_one():
    assert nu_lambda(2.0, GOLDEN_MEAN, 1.0, 1000).value <= 1.0


def test_nu_lambda_per_mode_bound():
    lam = 1.25
    ks = mode_ball(1, 200)
    roots = np.exp(2j * np.pi * (ks[:, 0] * GOLDEN_MEAN % 1.0))
    terms = 1.0 / (np.abs(roots - lam) * np.abs(ks[:, 0]) ** 1.0)
    assert np.all(terms <= 1.0 / abs(1 - abs(lam)) + 1e-12)


def test_nu_lambda_resonance_infinite():
    lam = np.exp(2j * np.pi * GOLDEN_MEAN)
    est = nu_lambda(lam, GOLDEN_MEAN, 1.0, 10)
    assert est.value == np.inf and est.divisor == 0.0
    assert abs(est.k[0]) == 1


def test_nu_lambda_at_one_reduces_to_nu_omega():
    a = nu_lambda(1.0, GOLDEN_MEAN, 1.5, 3000)
    b = nu_omega(GOLDEN_MEAN, 1.5, 3000)
    assert a.value == pytest.approx(b.value, rel=1e-13)


def test_nu_lambda_continuity_away_from_zeros():
    lam = 0.9 + 0.05j
    a = nu_lambda(lam, GOLDEN_MEAN, 1.0, 500).value
    b = nu_lambda(lam + 1e-9, GOLDEN_MEAN, 1.0, 500).value
    assert abs(a - b) <= 1e-6 * a


# -- good set ---------------------------------------------------------------------

def lam_linear(eps):
    return 1.0 + eps


def test_origin_in_good_set():
    params = GoodSetParams(A=0.1, N=2, tau=1.0, r0=0.5)
    w = lambda_in_good_set(lam_linear(0.0), params, GOLDEN_MEAN, 1000)
    assert w.member
    assert w.attained == 0.0


def test_real_eps_below_root_in_good_set():
    # for lam = 1 + eps real the analytic bound gives nu <= 1/eps, so the
    # membership inequality reduces to eps^N <= A
    N, A = 3, 1e-3
    params = GoodSetParams(A=A, N=N, tau=1.0, r0=0.5)
    eps = 0.9 * A ** (1.0 / N)
    assert lambda_in_good_set(lam_linear(eps), params, GOLDEN_MEAN, 2000).member
    assert not lambda_in_good_set(lam_linear(2.5 * A ** (1.0 / N)), params,
                                  GOLDEN_MEAN, 2000).member


def test_resonant_eps_excluded():
    params = GoodSetParams(A=10.0, N=1, tau=1.0, r0=3.0)
    eps = np.exp(2j * np.pi * GOLDEN_MEAN) - 1.0   # lam(eps) hits the k=1 resonance
    w = lambda_in_good_set(lam_linear(eps), params, GOLDEN_MEAN, 100)
    assert not w.member
    assert w.attained == np.inf


def test_witness_records_maximizer():
    w = lambda_in_good_set(1.05, GoodSetParams(A=0.5, N=1, tau=1.0, r0=1.0),
                           GOLDEN_MEAN, 500)
    assert w.nu.k != ()
    assert w.attained == pytest.approx(w.nu.value * w.factor)


@pytest.mark.parametrize("call, message", [
    (lambda: nu_scan(1.1, GOLDEN_MEAN, 1.0, 0), "k_scan must be >= 1"),
    (lambda: GoodSetParams(A=0.0, N=1, tau=1.0, r0=0.3), "A and r0 must be positive"),
    (lambda: GoodSetParams(A=0.1, N=1, tau=1.0, r0=-1.0), "A and r0 must be positive"),
    (lambda: GoodSetParams(A=0.1, N=-1, tau=1.0, r0=0.3), "N must be >= 0"),
], ids=["k-scan-0", "A-0", "r0-negative", "N-negative"])
def test_scan_and_good_set_refuse_values_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_scan_trace_running_sup():
    trace, ks = scan_trace(GOLDEN_MEAN, 1.0, 200)
    running = trace[:, 2]
    assert np.all(np.diff(running) >= 0)
    assert running[-1] == pytest.approx(nu_omega(GOLDEN_MEAN, 1.0, 200).value)


def test_scan_trace_running_sup_is_nu_lambda_bit_for_bit():
    # the trace's terms used to be 1 / (divisor |k|^tau), which differs from
    # nu_scan's |k|^-tau / divisor in the last bits for 12 of these lam
    x, y = np.random.default_rng(0).standard_normal((2, 50))
    for lam in 1.0 + 0.05 * (x + 1j * y):
        trace, _ = scan_trace(GOLDEN_MEAN, 1.0, 2048, lam=lam)
        assert trace[-1, 2] == nu_lambda(lam, GOLDEN_MEAN, 1.0, 2048).value


@pytest.mark.parametrize("omega", [GOLDEN_MEAN, [GOLDEN_MEAN, np.sqrt(2.0) - 1.0]],
                         ids=["d1", "d2"])
def test_resonance_table_matches_direct_scan(omega):
    # every scan reads one resonance table; the direct per-use computation
    # (phases of the sorted modes, divisors to 1) is the bit-for-bit reference
    om = np.atleast_1d(omega)
    ks, phases, knorm = resonances(om, 40)
    assert np.array_equal(ks, mode_ball(om.size, 40))
    assert np.array_equal(knorm, np.abs(ks).sum(axis=1))
    trace, kt = scan_trace(om, 1.3, 40, lam=0.9 + 0.05j)
    kt_ref = ks[np.argsort(np.abs(ks).sum(axis=1), kind="stable")]
    div_ref = np.abs(np.exp(2j * np.pi * np.remainder(kt_ref @ om, 1.0)) - (0.9 + 0.05j))
    assert np.array_equal(kt, kt_ref) and np.array_equal(trace[:, 1], div_ref)
    if om.size > 1:
        nu = nu_omega(om, 1.3, 40)
        terms = 1.0 / (np.abs(phases - 1.0) * knorm ** 1.3)
        assert nu.value == terms.max() and nu.k == tuple(ks[np.argmax(terms)])
