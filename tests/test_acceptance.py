"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Desk-scale setting throughout: d = 1, dissipative standard map, golden-mean
frequency, conformal factor 1 + eps (or 1 + eps^3 where noted).  Tolerances
are pinned in the assertions; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import cmath

import numpy as np
import pytest

import kamtori as kt
from kamtori.atlas import excluded_balls, excluded_measure, sweep_continuation
from conftest import per_mode_solve
from kamtori.cohomology import solve_twisted_grid, tame_bound
from kamtori.diophantine import GOLDEN_MEAN, GoodSetParams, nu_lambda
from kamtori.fourier import FourierSeries, from_grid, to_grid
from kamtori.lindstedt import (lindstedt_double, lindstedt_expand,
                               residual_jet_norms, residual_tail_norm)
from kamtori.newton import (invariance_residual, newton_step,
                            normalize_embedding, reducibility_frame,
                            run_newton)

OMEGA = GOLDEN_MEAN
FAM = kt.DissipativeStandardMap(kappa=0.5, alpha=1.0, a=1)


def _report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def base():
    return FAM.unperturbed_torus(OMEGA, 32)


@pytest.fixture(scope="module")
def jets(base):
    K0, mu0 = base
    return {N: lindstedt_expand(FAM, K0, mu0, OMEGA, 0.0, N) for N in (2, 4, 8)}


def test_criterion_1_cohomology_oracle_equivalence():
    rng = np.random.default_rng(11)
    kmax = 64
    worst_coeff = 0.0
    worst_resid = 0.0
    lams = [0.97, 1.03, 1.0 + 0.05j, 0.9 - 0.1j, 1.0]
    for trial in range(50):
        lam = lams[trial % len(lams)]
        c = rng.standard_normal(2 * kmax + 1) + 1j * rng.standard_normal(2 * kmax + 1)
        c *= np.exp(-0.15 * np.abs(np.arange(-kmax, kmax + 1)))
        c[kmax] = 0.0
        eta = FourierSeries(1, kmax, c)
        n = 160
        phi = from_grid(solve_twisted_grid(to_grid(eta, n), 1, kmax, lam, OMEGA)[0], 1, kmax)
        scale = np.max(np.abs(phi.coeffs))
        for k in range(-kmax, kmax + 1):
            if k == 0:
                expect = 0.0 if lam == 1.0 else eta.mode(0) / (lam - 1.0)
            else:
                # reduce the angle mod 1 before exponentiating, otherwise the
                # oracle itself loses ~1e-12 to libm argument reduction
                root = cmath.exp(2j * cmath.pi * ((k * OMEGA) % 1.0))
                expect = eta.mode(k) / (lam - root)
            worst_coeff = max(worst_coeff, abs(phi.mode(k) - expect) / scale)
        recon = lam * to_grid(phi, n) - to_grid(phi.shift([OMEGA]), n)
        worst_resid = max(worst_resid,
                          float(np.max(np.abs(recon - to_grid(eta, n))))
                          / eta.analytic_norm(0.0))
    ok = worst_coeff <= 1e-12 and worst_resid <= 1e-12
    _report("criterion-1 cohomology-oracle", ok,
            f"coeff sup err {worst_coeff:.2e} <= 1e-12, "
            f"residual {worst_resid:.2e} <= 1e-12 over 50 trials")


def test_criterion_2_tame_bound_conformance():
    rng = np.random.default_rng(23)
    rho, tau, kmax = 0.3, 1.0, 32
    passes = 0
    trials = 100
    margins = []
    for t in range(trials):
        lam = [0.98, 1.02, 1.0 + 0.04j, 1.0, 0.95 - 0.03j][t % 5]
        nu = nu_lambda(lam, OMEGA, tau, 4096).value if lam != 1.0 else \
            kt.nu_omega(OMEGA, tau, 4096).value
        c = rng.standard_normal(2 * kmax + 1) + 1j * rng.standard_normal(2 * kmax + 1)
        c *= np.exp(-2 * np.pi * rho * np.abs(np.arange(-kmax, kmax + 1)))
        eta = FourierSeries(1, kmax, c).remove_average()
        # the exact per-mode solve: the roundoff of a grid round trip,
        # weighted by e^{2 pi (rho - delta) |k|}, would outgrow the bound
        phi, _ = per_mode_solve(eta, lam, OMEGA)
        ok_all = True
        for delta in (0.05, 0.1, 0.2):
            measured = phi.analytic_norm(rho - delta)
            bound = tame_bound(eta.analytic_norm(rho), delta, tau, 1, nu)
            ok_all &= measured <= bound
            margins.append(measured / bound)
        passes += ok_all
    _report("criterion-2 tame-bound", passes == trials,
            f"{passes}/{trials} trials within bound at deltas 0.05/0.1/0.2 "
            f"(worst margin {max(margins):.3f})")


def test_criterion_3_quadratic_newton(base):
    K, mu = base
    eps, floor = 0.05, 1e-13
    res = []
    for _ in range(6):
        res.append(invariance_residual(FAM, K, mu, OMEGA, eps).analytic_norm(0.0))
        if res[-1] <= 1e-14:
            break
        K, mu, _ = newton_step(FAM, K, mu, OMEGA, eps)
    pairs = [(a, b) for a, b in zip(res, res[1:]) if a > floor]
    measurable = [b / a ** 2 for a, b in pairs if b > floor]
    C = max(measurable)
    quadratic = all(b <= max(C * a ** 2, floor) for a, b in pairs)
    ok = len(pairs) >= 3 and quadratic and C <= 1e4
    _report("criterion-3 quadratic-newton", ok,
            f"{len(pairs)} iterations above floor, fitted C = {C:.3f}, "
            f"residuals {['%.2e' % r for r in res]}")


def test_criterion_4_lindstedt_residual_scaling(jets):
    eps = np.geomspace(1e-4, 1e-2, 8)
    details = []
    ok = True
    for N in (2, 4, 8):
        jet = jets[N]
        junk = residual_jet_norms(FAM, jet, OMEGA)[: N + 1].max()
        vals = residual_tail_norm(FAM, jet, OMEGA, eps)
        slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
        ok &= junk <= 1e-10 and slope >= N + 1 - 0.2
        details.append(f"N={N}: slope {slope:.3f} >= {N + 1 - 0.2}")
    _report("criterion-4 lindstedt-scaling", ok, "; ".join(details))


def test_criterion_5_doubling_correctness(base):
    K0, mu0 = base
    details = []
    ok = True
    for N in (1, 2, 3):
        jet = lindstedt_expand(FAM, K0, mu0, OMEGA, 0.0, N)
        dbl = lindstedt_double(FAM, jet, OMEGA)
        norms = residual_jet_norms(FAM, dbl, OMEGA)[: 2 * N + 2]
        ok &= max(norms) <= 1e-10
        details.append(f"N={N}: max residual order<=2N+1 {max(norms):.2e}")
    jet7d = lindstedt_double(
        FAM, lindstedt_double(FAM, lindstedt_expand(FAM, K0, mu0, OMEGA, 0.0, 1),
                              OMEGA), OMEGA)
    jet7 = lindstedt_expand(FAM, K0, mu0, OMEGA, 0.0, 7)
    coeff = max(np.max(np.abs(a.coeffs - b.coeffs))
                for a, b in zip(jet7d.K_coeffs, jet7.K_coeffs))
    coeff = max(coeff, float(np.max(np.abs(jet7d.mu_coeffs - jet7.mu_coeffs))))
    ok &= coeff <= 1e-9
    details.append(f"two doublings vs order-by-order: {coeff:.2e} <= 1e-9")
    _report("criterion-5 doubling", ok, "; ".join(details))


def test_criterion_6_asymptoticity_of_true_solution(base, jets):
    K0, mu0 = base
    # 8 values within [1e-3, 3e-2]; below ~5e-3 the N=4 difference sits at
    # the solver/normalization floor (~2e-15) and would flatten the fit
    eps_list = np.geomspace(6e-3, 3e-2, 8)
    sols = []
    K, mu = K0, mu0
    for eps in eps_list:
        sol = run_newton(FAM, K, mu, OMEGA, float(eps), tol=1e-13)
        K, mu = sol.K, sol.mu
        Kn, _ = normalize_embedding(sol.K, K0)
        sols.append((Kn, sol.mu))
    ok = True
    details = []
    for N in (2, 4):
        jet = jets[4].truncated(N)
        diffs = [jet.embedding_at(e).distance(Kn) + abs(jet.mu_at(e)[0] - mu[0])
                 for e, (Kn, mu) in zip(eps_list, sols)]
        slope = float(np.polyfit(np.log(eps_list), np.log(diffs), 1)[0])
        ok &= slope >= N + 1 - 0.3
        details.append(f"N={N}: slope {slope:.3f} >= {N + 1 - 0.3}")
    _report("criterion-6 asymptoticity", ok, "; ".join(details))


def test_criterion_6_asymptoticity_on_complex_rays_and_at_a_3(base, jets):
    # the series is the asymptotic expansion of the true torus off the real
    # axis, and for lam = 1 + eps^3 as for lam = 1 + eps: along rays
    # eps = r e^{i phi} the normalized error of the order-N jet falls as r^{N+1}
    K0, mu0 = base
    fam3 = kt.DissipativeStandardMap(kappa=0.5, alpha=1.0, a=3)
    jet3 = lindstedt_expand(fam3, K0, mu0, OMEGA, 0.0, 8)
    rays = [(FAM, jets[8], phi) for phi in (0.25, 0.5, 1.0, 2.0)] \
        + [(fam3, jet3, phi) for phi in (0.0, 0.25, 0.5, 1.0, np.pi / 3)]
    radii = np.geomspace(6e-3, 4e-2, 6)
    ok = True
    details = []
    for fam, jet, phi in rays:
        K, mu = K0, mu0
        sols = []
        for eps in radii * cmath.exp(1j * phi):
            sol = run_newton(fam, K, mu, OMEGA, eps, tol=1e-13)
            K, mu = sol.K, sol.mu
            sols.append((eps, normalize_embedding(sol.K, K0)[0], sol.mu))
        for N in (2, 4):
            jetN = jet.truncated(N)
            diffs = [jetN.embedding_at(e).distance(Kn) + abs(jetN.mu_at(e)[0] - m[0])
                     for e, Kn, m in sols]
            slope = float(np.polyfit(np.log(radii), np.log(diffs), 1)[0])
            ok &= slope >= N + 1 - 0.3
            details.append(f"a={fam.a} phi={phi:.3f} N={N}: slope {slope:.3f}")
    _report("criterion-6 complex rays and a = 3", ok, "; ".join(details))


def test_criterion_7_uniqueness_normalization(base):
    K0, mu0 = base
    eps = 0.04
    rng = np.random.default_rng(3)

    def perturb(K, size, seed):
        r = np.random.default_rng(seed)
        c = np.zeros((2 * K.kmax + 1, 2), dtype=complex)
        for k in range(1, 4):
            z = size * (r.standard_normal(2) + 1j * r.standard_normal(2))
            c[K.kmax + k] += 0.5 * z
            c[K.kmax - k] += 0.5 * np.conj(z)
        return K.with_correction(FourierSeries(1, K.kmax, c))

    ref = run_newton(FAM, K0, mu0, OMEGA, eps, tol=1e-13)
    a = run_newton(FAM, perturb(ref.K, 2e-3, 7), ref.mu + 1e-4, OMEGA, eps,
                   tol=1e-13)
    b = run_newton(FAM, perturb(ref.K, 3e-3, 13), ref.mu - 2e-4, OMEGA, eps,
                   tol=1e-13)
    Ka, _ = normalize_embedding(a.K, K0)
    Kb, _ = normalize_embedding(b.K, K0)
    dist = Ka.distance(Kb)
    mudist = float(np.max(np.abs(a.mu - b.mu)))

    shifted = ref.K.shifted(0.0123)
    _, sigma = normalize_embedding(shifted, ref.K)
    shift_err = abs(np.real(sigma[0]) + 0.0123)
    ok = dist <= 1e-9 and mudist <= 1e-9 and shift_err <= 1e-10
    _report("criterion-7 uniqueness", ok,
            f"normalized distance {dist:.2e} <= 1e-9, |d mu| {mudist:.2e}, "
            f"shift recovery error {shift_err:.2e} <= 1e-10")


def test_criterion_8_domain_geometry():
    params = GoodSetParams(A=0.1, N=1, tau=1.0, r0=1.0)
    fit = excluded_measure(0.08, params, OMEGA, 4096)
    want = 2 * (params.N + 1) + (2 * params.tau - 1) / params.tau
    ok = fit.exponent >= want - 0.5
    _report("criterion-8 domain-geometry", ok,
            f"fitted exponent {fit.exponent:.2f} >= {want - 0.5} "
            f"(areas {fit.areas})")


def test_criterion_9_resonance_obstruction():
    fam = kt.DissipativeStandardMap(kappa=0.05, alpha=1.0, a=1)
    gs = GoodSetParams(A=5.0, N=1, tau=1.0, r0=2.0)
    K0, mu0 = fam.unperturbed_torus(OMEGA, 32)

    real_path = np.linspace(0.02, 2.0, 20)
    res_real = sweep_continuation(fam, OMEGA, real_path, K0, mu0, good_set=gs)

    target = np.exp(2j * np.pi * OMEGA) - 1.0
    path = target * np.linspace(0.05, 0.999, 30)
    res_ray = sweep_continuation(fam, OMEGA, path, K0, mu0, good_set=gs)
    last = res_ray.steps[-1]
    ball = [b for b in excluded_balls(gs, OMEGA, 2, abs(target) * 0.9,
                                      fam=fam, plane="epsilon") if b.k == (1,)][0]
    dist = abs(last.eps - ball.center)
    ok = (res_real.reached_end
          and not res_ray.reached_end
          and last.status == "divisor"
          and abs(last.obstruction_k[0]) == 1
          and dist <= 10.0 * ball.radius)
    _report("criterion-9 resonance-obstruction", ok,
            f"real ray reached r0: {res_real.reached_end}; resonance ray "
            f"stopped by k={last.obstruction_k} at distance {dist:.3f} "
            f"(ball radius {ball.radius:.3f})")


def test_criterion_10_structural_identities(base):
    K0, mu0 = base
    conf = kt.verify_conformal(FAM, 200, 0.07, rng=np.random.default_rng(2))

    sol = run_newton(FAM, K0, mu0, OMEGA, 0.05, tol=1e-12)
    lagr = sol.lagrangian_defect

    K, mu = K0, mu0
    ratios = []
    for _ in range(3):
        fr = reducibility_frame(FAM, K, mu, OMEGA, 0.05)
        if fr.E_norm > 1e-12:
            ratios.append(fr.ratio)
        K, mu, _ = newton_step(FAM, K, mu, OMEGA, 0.05)
    C = 50.0
    ok = (conf <= 1e-13 and lagr <= 1e-10 and len(ratios) >= 3
          and all(r <= C for r in ratios))
    _report("criterion-10 structural-identities", ok,
            f"conformality {conf:.2e} <= 1e-13, lagrangian {lagr:.2e} <= 1e-10, "
            f"reducibility ratios {['%.2f' % r for r in ratios]} all <= {C}")
