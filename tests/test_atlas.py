import io
import itertools

import numpy as np
import pytest

from kamtori.atlas import (INSIDE, EXCLUDED, OUTSIDE_R0, ExclusionBall,
                           _union_area, circle_accessibility_fraction, classify_grid,
                           coupled_divisor_floor, detour_path, excluded_balls,
                           excluded_measure, grid_table, render_svg,
                           sweep_continuation, sweep_table,
                           tangential_cone_check)
from kamtori.diophantine import GoodSetParams, lambda_in_good_set
from kamtori.maps import DissipativeStandardMap
from kamtori.newton import normalize_embedding, run_newton


@pytest.fixture(scope="module")
def params():
    return GoodSetParams(A=0.1, N=1, tau=1.0, r0=0.3)


# -- excluded balls ------------------------------------------------------------------

def test_band_filter(params, omega):
    rho = 0.05
    balls = excluded_balls(params, omega, 512, rho)
    assert balls
    for b in balls:
        assert abs(b.center - 1.0) <= 3.0 * rho


def test_radius_power_law(params, omega):
    rho = 0.05
    r1 = params.A ** -1 * rho ** 2 / 55.0
    balls = {b.k[0]: b for b in excluded_balls(params, omega, 512, rho)}
    assert balls[55].radius == pytest.approx(r1, rel=1e-13)
    # doubling |k| divides the radius by 2^tau
    if 110 in balls:
        assert balls[110].radius == pytest.approx(balls[55].radius / 2, rel=1e-13)
    assert balls[55].radius == pytest.approx(
        2.0 ** params.tau * r1 / 2 ** params.tau)


def test_ball_symmetry_conjugate_centers(params, omega):
    balls = excluded_balls(params, omega, 512, 0.05)
    by_k = {b.k[0]: b for b in balls}
    for k, b in by_k.items():
        assert -k in by_k
        assert by_k[-k].center == pytest.approx(np.conj(b.center))
        assert by_k[-k].radius == b.radius


def test_grid_cover_oracle(params, omega):
    # with the covering value of the radius constant, every annulus point
    # that violates the membership inequality lies inside a listed ball
    rho = 0.05
    scale = 2.0 ** (params.N + 1)
    balls = excluded_balls(params, omega, 2048, rho, radius_scale=scale)
    rng = np.random.default_rng(5)
    rad = np.sqrt(rng.uniform(rho ** 2, (2 * rho) ** 2, 1500))
    ang = rng.uniform(0, 2 * np.pi, 1500)
    pts = 1.0 + rad * np.exp(1j * ang)
    for z in pts:
        w = lambda_in_good_set(z, params, omega, 2048)
        if not w.member:
            assert any(b.contains(z) for b in balls), z


def test_epsilon_plane_branches(params, omega):
    fam = DissipativeStandardMap(kappa=0.5, alpha=1.0, a=3)
    balls = excluded_balls(params, omega, 256, 0.05, fam=fam, plane="epsilon")
    by_k = {}
    for b in balls:
        by_k.setdefault(b.k, []).append(b)
    for k, group in by_k.items():
        assert len(group) == 3       # one ball per cube-root branch
        root = np.exp(2j * np.pi * (k[0] * omega % 1.0))
        for b in group:
            assert complex(fam.lambda_eps(b.center)) == pytest.approx(root, abs=1e-10)


@pytest.mark.parametrize("plane, with_family", [
    ("Lambda", True), ("lamda", False), ("eps", True)])
def test_excluded_balls_rejects_an_unknown_plane(params, omega, plane, with_family):
    # an unknown plane used to be read as the epsilon-plane
    fam = DissipativeStandardMap(kappa=0.5, alpha=1.0, a=3) if with_family else None
    with pytest.raises(ValueError, match=f"unknown plane '{plane}'"):
        excluded_balls(params, omega, 256, 0.05, fam=fam, plane=plane)


def test_epsilon_plane_balls_need_the_family_even_when_none_are_kept(params, omega):
    # k_max 2 keeps no ball in this annulus; the family used to be asked
    # for only when a ball was mapped, so this returned []
    assert excluded_balls(params, omega, 2, 0.05) == []
    with pytest.raises(ValueError, match="need the map family"):
        excluded_balls(params, omega, 2, 0.05, plane="epsilon")


# -- classification ------------------------------------------------------------------

def test_classify_off_circle_collar_inside(params, omega):
    # just outside the unit circle the analytic bound nu <= 1/(|lam|-1)
    # makes the membership inequality |lam-1|^(N+1)/(|lam|-1) <= A hold
    grid = classify_grid("lambda", (1.01, 1.09, -0.001, 0.001), (12, 4), params,
                         omega, k_scan=256)
    assert np.all(grid.status == INSIDE)


def test_classify_ball_centers_excluded(params, omega):
    balls = excluded_balls(params, omega, 128, 0.1)
    b = balls[0]
    eps_box = 1e-6
    grid = classify_grid("lambda",
                         (b.center.real - eps_box, b.center.real + eps_box,
                          b.center.imag - eps_box, b.center.imag + eps_box),
                         (3, 3), params, omega, k_scan=128)
    assert grid.status[1, 1] == EXCLUDED


def test_classify_agrees_with_pointwise(params, omega):
    # every cell's status and witness mode are those of the pointwise test,
    # in the lambda-plane and the eps-plane (a = 3, with its r0 gate), at
    # d = 1 and d = 2: the oracle any faster search in classify_grid must keep
    fam3 = DissipativeStandardMap(kappa=0.5, alpha=1.0, a=3)
    eps_params = GoodSetParams(A=0.1, N=1, tau=1.0, r0=0.7)
    cases = [("lambda", (0.7, 1.3, -0.3, 0.3), params),
             ("epsilon", (-0.8, 0.8, -0.8, 0.8), eps_params)]
    for (plane, bounds, par), (om, k_scan) in itertools.product(
            cases, [(omega, 512), ([omega, np.sqrt(2.0) - 1.0], 40)]):
        grid = classify_grid(plane, bounds, (40, 32), par, om, fam=fam3, k_scan=k_scan)
        xs, ys = grid.cell_centers()
        zz = xs[:, None] + 1j * ys[None, :]
        lam = zz if plane == "lambda" else fam3.lambda_eps(zz)
        gated = (np.abs(zz) > par.r0) & (plane == "epsilon")
        assert np.all((grid.status == OUTSIDE_R0) == gated)
        counts = np.bincount(grid.status.ravel(), minlength=3)
        assert counts[INSIDE] > 0 and counts[EXCLUDED] > 0
        for i, j in zip(*np.nonzero(~gated)):
            w = lambda_in_good_set(lam[i, j], par, om, k_scan)
            assert grid.status[i, j] == (INSIDE if w.member else EXCLUDED)
            assert tuple(grid.witness_k[i, j]) == w.nu.k


def test_classify_epsilon_r0_gate(params, omega, fam):
    grid = classify_grid("epsilon", (-0.5, 0.5, -0.5, 0.5), (21, 21), params,
                         omega, fam=fam, k_scan=128)
    xs, ys = grid.cell_centers()
    zz = xs[:, None] + 1j * ys[None, :]
    assert np.all((np.abs(zz) > params.r0) == (grid.status == OUTSIDE_R0))


def test_classify_monotone_in_A(omega):
    bounds = (0.95, 1.05, -0.05, 0.05)
    small = classify_grid("lambda", bounds, (30, 30),
                          GoodSetParams(A=0.02, N=1, tau=1.0, r0=1.0),
                          omega, k_scan=512)
    large = classify_grid("lambda", bounds, (30, 30),
                          GoodSetParams(A=0.2, N=1, tau=1.0, r0=1.0),
                          omega, k_scan=512)
    assert np.all((small.status == INSIDE) <= (large.status == INSIDE))


# -- excluded measure -----------------------------------------------------------------

def test_measure_decreases_with_N(omega):
    areas = []
    for N in (1, 2, 3):
        p = GoodSetParams(A=0.1, N=N, tau=1.0, r0=1.0)
        fit = excluded_measure(0.08, p, omega, 2048, levels=1)
        areas.append(fit.areas[0])
    assert areas[0] > areas[1] > areas[2]


def test_measure_exponent_fit(params, omega):
    fit = excluded_measure(0.08, params, omega, 4096)
    want = 2 * (params.N + 1) + (2 * params.tau - 1) / params.tau
    assert fit.exponent >= want - 0.5


def test_measured_area_below_union_bound(params, omega):
    fit = excluded_measure(0.08, params, omega, 2048)
    assert np.all(fit.areas <= fit.union_bound * (1 + 1e-12))


def _lens(r1, r2, d):
    """Area of the intersection of two crossing discs, as two segments."""
    a1 = np.arccos((d * d + r1 * r1 - r2 * r2) / (2 * d * r1))
    a2 = np.arccos((d * d + r2 * r2 - r1 * r1) / (2 * d * r2))
    return r1 * r1 * (a1 - np.sin(2 * a1) / 2) + r2 * r2 * (a2 - np.sin(2 * a2) / 2)


# annulus 0.1 < |z-1| < 0.2: (center, radius) per ball, and the closed form
_RHO = 0.1
_UNION_CASES = {
    "inside": ([(1.15, 0.02)], np.pi * 0.02 ** 2),
    "lens": ([(1.15, 0.02), (1.15 + 0.025j, 0.015)],
             np.pi * (0.02 ** 2 + 0.015 ** 2) - _lens(0.02, 0.015, 0.025)),
    "inner-cut": ([(1 + 0.11j, 0.03)], np.pi * 0.03 ** 2 - _lens(0.03, _RHO, 0.11)),
    "outer-cut": ([(1 - 0.19, 0.03)], _lens(0.03, 2 * _RHO, 0.19)),
    "both-cut": ([(1.15, 0.07)], _lens(0.07, 2 * _RHO, 0.15) - _lens(0.07, _RHO, 0.15)),
    "nested": ([(1.15, 0.03), (1.155 + 0.005j, 0.01)], np.pi * 0.03 ** 2),
}


@pytest.mark.parametrize("case", sorted(_UNION_CASES))
def test_union_area_closed_forms(case):
    discs, want = _UNION_CASES[case]
    balls = [ExclusionBall((1,), complex(c), r, "lambda") for c, r in discs]
    assert _union_area(balls, _RHO) == pytest.approx(want, rel=1e-12, abs=0)
    assert _union_area(balls[::-1], _RHO) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("outer", [True, False], ids=["outer", "inner"])
def test_union_area_of_a_small_ball_on_an_annulus_circle(outer):
    # a thin crossing triangle: the cosine rule's arccos is 1e-5 off here
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rho, r = 0.08, 1e-5
    R = 2 * rho if outer else rho
    center = 1 + R * np.exp(0.7j)
    d, big, small = mp.mpf(abs(center - 1)), mp.mpf(R), mp.mpf(r)
    a1 = mp.acos((d * d + small * small - big * big) / (2 * d * small))
    a2 = mp.acos((d * d + big * big - small * small) / (2 * d * big))
    lens = small ** 2 * (a1 - mp.sin(2 * a1) / 2) + big ** 2 * (a2 - mp.sin(2 * a2) / 2)
    want = float(lens if outer else mp.pi * small ** 2 - lens)
    ball = ExclusionBall((1,), complex(center), r, "lambda")
    assert _union_area([ball], rho) == pytest.approx(want, rel=1e-6, abs=0)


def test_union_area_of_disjoint_balls_inside_is_their_sum(omega):
    rho = 0.02
    balls = excluded_balls(GoodSetParams(A=0.1, N=1, tau=1.0, r0=1.0), omega, 4096, rho)
    c = np.array([b.center for b in balls]) - 1.0
    r = np.array([b.radius for b in balls])
    gap = np.abs(c[:, None] - c[None, :]) - r[:, None] - r[None, :]
    np.fill_diagonal(gap, np.inf)
    assert len(balls) > 10 and gap.min() > 0
    assert np.all(np.abs(c) - r > rho) and np.all(np.abs(c) + r < 2 * rho)
    assert _union_area(balls, rho) == pytest.approx(np.pi * np.sum(r ** 2),
                                                    rel=1e-12, abs=0)


def _mc_union_area(balls, rho, samples, rng):
    """Monte Carlo estimate of the clipped union area and its standard error,
    from uniform samples in the annulus rho < |z-1| < 2 rho."""
    hits = 0
    chunk = 500_000   # samples held in memory at once
    for lo in range(0, samples, chunk):
        m = min(chunk, samples - lo)
        rad = np.sqrt(rng.uniform(rho ** 2, (2 * rho) ** 2, m))
        ang = rng.uniform(0.0, 2 * np.pi, m)
        z = np.sort(1.0 + rad * np.exp(1j * ang))   # by real part
        hit = np.zeros(m, dtype=bool)
        for b in balls:
            a, e = np.searchsorted(z.real, [b.center.real - b.radius,
                                            b.center.real + b.radius])
            hit[a:e] |= np.abs(z[a:e] - b.center) < b.radius
        hits += int(np.count_nonzero(hit))
    annulus = np.pi * ((2 * rho) ** 2 - rho ** 2)
    frac = hits / samples
    return frac * annulus, annulus * np.sqrt(frac * (1 - frac) / samples)


def test_union_area_agrees_with_monte_carlo(omega):
    # the criterion-8 level-0 balls: 208 of them, many overlapping
    rho = 0.08
    balls = excluded_balls(GoodSetParams(A=0.1, N=1, tau=1.0, r0=1.0), omega, 4096, rho)
    est, stderr = _mc_union_area(balls, rho, 4_000_000, np.random.default_rng(0))
    assert abs(_union_area(balls, rho) - est) <= 4 * stderr


# -- cones ---------------------------------------------------------------------------

def test_cone_clear_when_no_balls():
    assert tangential_cone_check(1.0 + 0j, 1j, 2, 1.0, 0.01, [])


def test_cone_blocked_at_ball_center():
    ball = ExclusionBall((1,), 1.0 + 0j, 1e-3, "lambda")
    assert not tangential_cone_check(1.0 + 0j, 1j, 2, 1.0, 0.01, [ball])


def test_cone_order_validated():
    with pytest.raises(ValueError):
        tangential_cone_check(0j, 1j, 1, 1.0, 0.1, [])


def test_accessibility_grows_with_gamma(omega):
    # sigma > m*d; A large enough that the balls cover only a sliver of the
    # circle, so the gamma sweep can push the accessible fraction up
    fracs = [circle_accessibility_fraction(omega, sigma=2.5, A=20.0, m=2,
                                           gamma=g, delta=0.05, k_max=64,
                                           n_samples=400)
             for g in (1.0, 20.0, 400.0)]
    assert fracs[0] <= fracs[1] <= fracs[2]
    assert fracs[2] >= 0.9


# -- compensation ---------------------------------------------------------------------

def test_detour_straight_when_clear():
    pts, length = detour_path(0.0 + 0j, 1.0 + 0j, [])
    assert length == pytest.approx(1.0)


def test_detour_length_bounded(rng):
    # pairs separated by a blocking ball: arc length stays below pi * distance
    for _ in range(10):
        e1 = complex(rng.uniform(-1, 0), rng.uniform(-0.2, 0.2))
        e2 = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2))
        mid = 0.5 * (e1 + e2)
        ball = ExclusionBall((1,), mid, 0.3 * abs(e2 - e1), "lambda")
        pts, length = detour_path(e1, e2, [ball])
        assert not any(ball.contains(p) for p in pts)
        assert length <= np.pi * abs(e2 - e1) * 1.05


# -- sweeps --------------------------------------------------------------------------

def test_real_ray_reaches_r0(fam, omega):
    gs = GoodSetParams(A=5.0, N=1, tau=1.0, r0=2.0)
    K0, mu0 = fam.unperturbed_torus(omega, 32)
    path = np.linspace(0.02, 0.3, 8)
    res = sweep_continuation(fam, omega, path, K0, mu0, good_set=gs)
    assert res.reached_end
    assert len(res.solutions) == 8
    assert res.path_length == pytest.approx(0.28, rel=1e-12)


def test_resonance_ray_obstructed(omega):
    fam = DissipativeStandardMap(kappa=0.05, alpha=1.0, a=1)
    gs = GoodSetParams(A=5.0, N=1, tau=1.0, r0=2.0)
    K0, mu0 = fam.unperturbed_torus(omega, 32)
    target = np.exp(2j * np.pi * omega) - 1.0
    path = target * np.linspace(0.05, 0.999, 30)
    res = sweep_continuation(fam, omega, path, K0, mu0, good_set=gs)
    assert not res.reached_end
    last = res.steps[-1]
    assert last.status == "divisor"
    assert abs(last.obstruction_k[0]) == 1
    # failure within the predicted ball radius, order of magnitude
    ball = [b for b in excluded_balls(gs, omega, 2, abs(target) * 0.9,
                                      fam=fam, plane="epsilon")
            if b.k == (1,)][0]
    assert abs(last.eps - ball.center) <= 10.0 * ball.radius


def test_sweep_halts_only_where_lambda_leaves_the_good_set(fam, omega):
    # the halt comes from the good-set test at lam(eps) over run_newton's
    # default 4096 modes, never from a divisor of an untwisted solve
    gs = GoodSetParams(A=0.05, N=1, tau=1.0, r0=1.0)
    K0, mu0 = fam.unperturbed_torus(omega, 64)
    res = sweep_continuation(fam, omega, np.linspace(0.01, 0.5, 30), K0, mu0, good_set=gs)
    *solved, last = res.steps
    for st in solved:
        assert lambda_in_good_set(fam.lambda_eps(st.eps), gs, omega, 4096).member
    w = lambda_in_good_set(fam.lambda_eps(last.eps), gs, omega, 4096)
    assert not w.member
    assert not res.reached_end and last.status == "divisor"
    assert last.obstruction_k == w.nu.k
    assert last.note == f"divisor {w.nu.divisor:.3e} < floor {w.floor:.3e}"


def test_sweep_from_a_coarse_cutoff_reaches_its_end(fam, omega):
    # run_newton doubles kmax from 8 to 16 on this path, past the box of any
    # floor built at the starting cutoff
    gs = GoodSetParams(A=0.5, N=2, tau=1.0, r0=0.3)
    K0, mu0 = fam.unperturbed_torus(omega, 8)
    res = sweep_continuation(fam, omega, np.linspace(0.01, 0.25, 5), K0, mu0, good_set=gs)
    assert res.reached_end
    assert [sol.K.kmax for sol in res.solutions] == [8, 16, 16, 16, 16]


def test_coupled_floor_over_a_smaller_box_raises_a_named_error(fam, omega):
    # the solve doubles kmax from 8 to 16; the floor covers only the kmax 8 box
    gs = GoodSetParams(A=0.5, N=2, tau=1.0, r0=0.3)
    K0, mu0 = fam.unperturbed_torus(omega, 8)
    floor = coupled_divisor_floor(8, 1, fam.lambda_eps(0.2), gs)
    with pytest.raises(ValueError, match="floor for kmax 8 .* at kmax 16"):
        run_newton(fam, K0, mu0, omega, 0.2, divisor_floor=floor)


def test_sweep_solves_with_run_newtons_defaults(fam, omega):
    K0, mu0 = fam.unperturbed_torus(omega, 32)
    res = sweep_continuation(fam, omega, [0.01], K0, mu0)
    assert res.solutions[0].trace == run_newton(fam, K0, mu0, omega, 0.01).trace
    assert res.steps[0].residual <= 1e-12


def test_sweep_round_trip_returns_same_torus(fam, omega):
    K0, mu0 = fam.unperturbed_torus(omega, 32)
    fwd_path = np.linspace(0.01, 0.2, 9)
    fwd = sweep_continuation(fam, omega, fwd_path, K0, mu0, tol=1e-13)
    assert fwd.reached_end
    back = sweep_continuation(fam, omega, fwd_path[::-1], fwd.solutions[-1].K,
                              fwd.solutions[-1].mu, tol=1e-13)
    assert back.reached_end
    Ka = fwd.solutions[0].K
    Kb, _ = normalize_embedding(back.solutions[-1].K, Ka)
    Ka, _ = normalize_embedding(Ka, Ka)
    assert Ka.distance(Kb) <= 1e-8
    assert abs(fwd.solutions[0].mu[0] - back.solutions[-1].mu[0]) <= 1e-10


def test_coupled_floor_shape(params):
    floor = coupled_divisor_floor(8, 1, 1.05, params)
    assert floor.shape == (17,)
    # decreasing in |k|
    assert floor[8 + 1] >= floor[8 + 5] >= floor[8 + 8]


# -- exports --------------------------------------------------------------------------

def test_grid_table_and_svg(params, omega, tmp_path):
    grid = classify_grid("lambda", (0.95, 1.05, -0.05, 0.05), (8, 8), params,
                         omega, k_scan=128)
    buf = io.StringIO()
    grid_table(grid, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 2 + 64
    balls = excluded_balls(params, omega, 128, 0.05)
    svg = render_svg(balls, (0.9, 1.1, -0.1, 0.1), unit_circle=True)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<circle") == len(balls) + 1


@pytest.mark.parametrize("bounds", [
    (1.0, 1.0, -0.15, 0.15),       # an empty real range divided by zero
    (1.1, 0.9, -0.1, 0.1),
    (0.9, 1.1, 0.1, -0.1),         # gave an SVG of negative height
    (0.9, 1.1, 0.1, 0.1),
    (np.nan, 1.1, -0.1, 0.1),
], ids=["re-empty", "re-reversed", "im-reversed", "im-empty", "nan"])
def test_atlas_bounds_must_be_ordered(params, omega, bounds):
    named = f"bounds must have re0 < re1 and im0 < im1, got {bounds}"
    with pytest.raises(ValueError) as err:
        render_svg([], bounds)
    assert str(err.value) == named
    with pytest.raises(ValueError) as err:
        classify_grid("lambda", bounds, (4, 4), params, omega, k_scan=16)
    assert str(err.value) == named


def test_sweep_table_format(fam, omega):
    K0, mu0 = fam.unperturbed_torus(omega, 16)
    res = sweep_continuation(fam, omega, [0.01, 0.02], K0, mu0)
    buf = io.StringIO()
    sweep_table(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("# sweep")
    assert len(lines) == 3
    assert "ok" in lines[1]


def test_ball_radii_decrease_in_k(params, omega):
    balls = excluded_balls(params, omega, 1024, 0.05)
    pos = sorted((b for b in balls if b.k[0] > 0), key=lambda b: b.k[0])
    radii = [b.radius for b in pos]
    assert all(a >= b for a, b in zip(radii, radii[1:]))


def test_classification_deterministic(params, omega):
    kw = dict(plane="lambda", bounds=(0.95, 1.05, -0.05, 0.05),
              resolution=(16, 16), params=params, omega=omega, k_scan=256)
    a = classify_grid(**kw)
    b = classify_grid(**kw)
    assert np.array_equal(a.status, b.status)
    assert np.array_equal(a.witness_k, b.witness_k)
