"""Geometry of the good parameter sets: excluded resonance balls, grid
classification of the lambda- and epsilon-planes, the excluded area and its
scaling across annuli, tangential-accessibility cones, and continuation
sweeps.

The bad set near lam = 1 is covered by balls B_k centered at the resonances
e^{2 pi i k.omega}; within the annulus rho < |lam - 1| < 2 rho the covering
radius is radius_scale * rho^{N+1} |k|^{-tau} / A.  Epsilon-plane centers are
the preimages under lam(eps), one per branch of the leading root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import DEFAULT_DIVISOR_FLOOR
from .diophantine import GoodSetParams, good_set_attained, nu_scan, resonances
from .errors import Diverged, DivisorTooSmall, KamtoriError, NoConvergence
from .newton import run_newton

@dataclass(frozen=True)
class ExclusionBall:
    """The open ball of resonance k in the lambda- or epsilon-plane."""

    k: tuple
    center: complex
    radius: float
    plane: str                 # "lambda" | "epsilon"
    branch: int = 0            # root branch for epsilon-plane preimages

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) < self.radius


def excluded_balls(params: GoodSetParams, omega, k_max: int, rho_band: float,
                   radius_scale: float = 1.0,
                   fam=None, plane: str = "lambda") -> list[ExclusionBall]:
    """The balls that meet the annulus rho < |lam-1| < 2 rho, sorted by |k|_1.
    For plane="epsilon" each center is mapped through all `a` branches of
    the root of lam(eps) = center and its radius divided by |lam'| there.
    Any other plane, and the epsilon-plane without `fam`, raise ValueError.
    """
    _check_plane(plane, fam)
    ks, roots, knorm = resonances(omega, k_max)
    radius = params.floor(radius_scale * params.factor(rho_band), knorm)
    dist = np.abs(roots - 1.0)
    keep = (dist > rho_band - radius) & (dist < 2.0 * rho_band + radius)
    balls = []
    for i in np.nonzero(keep)[0]:
        lam_ball = ExclusionBall(tuple(int(c) for c in ks[i]), complex(roots[i]),
                                 float(radius[i]), "lambda")
        if plane == "lambda":
            balls.append(lam_ball)
        else:
            balls.extend(_to_eps_plane(lam_ball, fam))
    balls.sort(key=lambda b: (sum(abs(c) for c in b.k), b.k, b.branch))
    return balls


def _check_plane(plane: str, fam) -> None:
    """ValueError unless the plane is "lambda", or "epsilon" with a family."""
    if plane not in ("lambda", "epsilon"):
        raise ValueError(f"unknown plane {plane!r}")
    if plane == "epsilon" and fam is None:
        raise ValueError("epsilon-plane balls and cells need the map family")


def _to_eps_plane(ball: ExclusionBall, fam) -> list[ExclusionBall]:
    a = int(fam.a)
    alpha = complex(fam.alpha)
    w = (ball.center - 1.0) / alpha
    r0 = w ** (1.0 / a) if w != 0 else 0.0
    out = []
    for m in range(a):
        eps_c = r0 * np.exp(2j * np.pi * m / a)
        eps_c = _polish_root(fam, eps_c, ball.center)
        dlam = _lambda_prime(fam, eps_c)
        if abs(dlam) == 0.0:
            continue
        out.append(ExclusionBall(ball.k, complex(eps_c),
                                 ball.radius / abs(dlam), "epsilon", branch=m))
    return out


def _lambda_prime(fam, eps):
    return complex(fam.lambda_jet(eps, 1)[1])


def _polish_root(fam, eps, target):
    for _ in range(4):
        d = _lambda_prime(fam, eps)
        if abs(d) == 0.0:
            break
        eps = eps - (complex(fam.lambda_eps(eps)) - target) / d
    return eps


# -- grid classification ------------------------------------------------------

INSIDE, EXCLUDED, OUTSIDE_R0 = 0, 1, 2


@dataclass(frozen=True)
class AtlasGrid:
    """The status and witness mode of each cell of a classified plane."""

    plane: str
    bounds: tuple             # (re_min, re_max, im_min, im_max)
    resolution: tuple         # (nx, ny)
    status: np.ndarray        # (nx, ny) int, INSIDE | EXCLUDED | OUTSIDE_R0
    witness_k: np.ndarray     # (nx, ny, d) int, maximizing mode of the nu scan
    params: GoodSetParams
    k_scan: int

    def cell_centers(self):
        return _cell_centers(self.bounds, self.resolution)


def _check_bounds(bounds) -> None:
    """Raise ValueError unless bounds (re0, re1, im0, im1) have re0 < re1 and im0 < im1."""
    re0, re1, im0, im1 = bounds
    if not (re0 < re1 and im0 < im1):
        raise ValueError(f"bounds must have re0 < re1 and im0 < im1, got {tuple(bounds)}")


def _cell_centers(bounds, resolution):
    re0, re1, im0, im1 = bounds
    nx, ny = resolution
    xs = re0 + (np.arange(nx) + 0.5) * (re1 - re0) / nx
    ys = im0 + (np.arange(ny) + 0.5) * (im1 - im0) / ny
    return xs, ys


def classify_grid(plane: str, bounds, resolution, params: GoodSetParams,
                  omega, fam=None, k_scan: int = 2048) -> AtlasGrid:
    """Good-set membership of each cell center, as `lambda_in_good_set`
    decides it: of lam itself, or with plane="epsilon" of lam(eps) and
    OUTSIDE_R0 where |eps| > r0; a cell whose lam(eps) is not finite is
    EXCLUDED, with no warning.  Bounds without re0 < re1 and im0 < im1,
    or another plane, raise ValueError.
    """
    _check_plane(plane, fam)
    _check_bounds(bounds)
    xs, ys = _cell_centers(bounds, resolution)
    zz = xs[:, None] + 1j * ys[None, :]
    with np.errstate(over="ignore", invalid="ignore"):   # a lam that is not finite
        lam = zz if plane == "lambda" else np.asarray(fam.lambda_eps(zz))
    term, witness, _ = nu_scan(lam, omega, params.tau, k_scan)
    attained, _ = good_set_attained(lam, term, params)
    status = np.where(attained <= params.A, INSIDE, EXCLUDED).astype(np.int8)
    if plane == "epsilon":
        status[np.abs(zz) > params.r0] = OUTSIDE_R0
    return AtlasGrid(plane, tuple(bounds), tuple(resolution), status, witness, params,
                     k_scan)


# -- excluded measure ---------------------------------------------------------

@dataclass(frozen=True)
class MeasureFit:
    """Excluded areas per annulus and their fitted scaling exponent."""

    rhos: np.ndarray
    areas: np.ndarray
    counts: np.ndarray
    exponent: float
    union_bound: np.ndarray    # sum of ball areas per annulus


def excluded_measure(rho: float, params: GoodSetParams, omega, k_max: int,
                     levels: int = 3) -> MeasureFit:
    """The exact area of the union of the balls in each annulus r < |lam-1| <
    2r, r = rho / 2^i, i < levels, and the log-log exponent fitted across
    them.  ValueError unless 2 tau > d; KamtoriError for an empty annulus.
    """
    omega_v = np.atleast_1d(np.asarray(omega, dtype=float))
    if 2 * params.tau <= omega_v.size:
        raise ValueError("the measure estimate needs 2*tau > d")
    rhos = rho / 2.0 ** np.arange(levels)
    areas, counts, bounds = [], [], []
    for r in rhos:
        balls = excluded_balls(params, omega_v, k_max, r)
        counts.append(len(balls))
        bounds.append(float(np.pi * sum(b.radius ** 2 for b in balls)))
        areas.append(_union_area(balls, r))
    areas = np.array(areas)
    if np.any(areas <= 0):
        raise KamtoriError(
            "an annulus carried no excluded balls; increase k_max or rho")
    exponent = float(np.polyfit(np.log(rhos), np.log(areas), 1)[0]) \
        if levels >= 2 else float("nan")
    return MeasureFit(rhos, areas, np.array(counts), exponent, np.array(bounds))


def _union_area(balls, rho) -> float:
    """Exact area of (union of the balls) & {rho < |z-1| < 2 rho}, by Green's
    theorem over the arcs that bound it, to a few eps rho^2."""
    n = len(balls)
    centers = np.array([b.center - 1.0 for b in balls] + [0.0, 0.0], dtype=complex)
    radii = np.array([b.radius for b in balls] + [2.0 * rho, rho])
    area = 0.0
    for i, (ci, ri) in enumerate(zip(centers, radii)):
        d = np.abs(centers - ci)
        cross = (d < ri + radii) & (d > np.abs(ri - radii))
        phi = np.angle(centers[cross] - ci)
        half = _crossing_half_angle(ri, d[cross], radii[cross])
        t = np.sort(np.remainder(np.concatenate([phi - half, phi + half]), 2 * np.pi))
        if t.size == 0:
            t = np.zeros(1)
        t0, t1 = t, np.append(t[1:], t[0] + 2 * np.pi)
        mid = ci + ri * np.exp(0.5j * (t0 + t1))
        in_ball = np.abs(mid[:, None] - centers[None, :n]) < radii[None, :n]
        if i < n:
            in_ball[:, i] = False
            keep = ~in_ball.any(axis=1) & (np.abs(mid) > rho) & (np.abs(mid) < 2 * rho)
        else:
            keep = in_ball.any(axis=1)
        green = 0.5 * np.dot(keep, ri ** 2 * (t1 - t0)
                             + ri * (ci.real * (np.sin(t1) - np.sin(t0))
                                     - ci.imag * (np.cos(t1) - np.cos(t0))))
        area += -green if i == n + 1 else green
    return float(area)


def _crossing_half_angle(r1, d, r2):
    """Angle at the center of circle 1 between the line of centers (length d)
    and a crossing with circle 2, its sine from Kahan's stable Heron formula
    (full relative precision for a small ball on an annulus circle)."""
    a, b, s = np.sort(np.broadcast_arrays(r1, d, r2), axis=0)[::-1]
    quad = (a + (b + s)) * (s - (a - b)) * (s + (a - b)) * (a + (b - s))
    return np.arctan2(np.sqrt(np.maximum(quad, 0.0)), r1 ** 2 + (d - r2) * (d + r2))


# -- tangential accessibility -------------------------------------------------

def tangential_cone_check(point: complex, u: complex, m: int, gamma: float,
                          delta: float, balls, t_samples: int = 64,
                          s_samples: int = 8) -> bool:
    """True iff the discretized parabolic cone {point + t u + s conj(u):
    |t|,|s| < delta, s >= gamma |t|^m} avoids every listed ball."""
    if m < 2:
        raise ValueError("cone order m must be >= 2")
    point = complex(point)
    u = complex(u) / abs(complex(u))
    near = [b for b in balls
            if abs(b.center - point) < 2.0 * delta + b.radius]
    t = np.linspace(-delta, delta, t_samples)
    floor_s = np.minimum(gamma * np.abs(t) ** m, delta)
    frac = np.linspace(0.0, 1.0, s_samples) ** 2
    s = floor_s[:, None] + (delta - floor_s[:, None]) * frac[None, :]
    zs = (point + t[:, None] * u + s * np.conj(u)).ravel()
    return not _path_blocked(np.append(zs, point), near)


def circle_accessibility_fraction(omega, sigma: float, A: float, m: int,
                                  gamma: float, delta: float, k_max: int,
                                  n_samples: int = 10_000) -> float:
    """Fraction of unit-circle points whose tangential cone clears the
    resonance balls of radius |k|^{-sigma}/A (the sigma > m*d regime makes
    this fraction approach 1 as gamma grows)."""
    ks, roots, knorm = resonances(omega, k_max)
    balls = [ExclusionBall(tuple(int(c) for c in ks[i]), complex(roots[i]),
                           float(knorm[i] ** (-sigma) / A), "lambda")
             for i in range(len(ks))]
    phis = 2 * np.pi * (np.arange(n_samples) + 0.5) / n_samples
    ok = 0
    for phi in phis:
        z = np.exp(1j * phi)
        if tangential_cone_check(z, 1j * z, m, gamma, delta, balls,
                                 t_samples=24, s_samples=5):
            ok += 1
    return ok / n_samples


# -- continuation sweeps --------------------------------------------------------

@dataclass(frozen=True)
class SweepStep:
    """One point of a sweep: its solution's residual and mu, or its error."""

    eps: complex
    status: str                # "ok" or the halting error's status
    residual: float
    mu: np.ndarray | None
    obstruction_k: tuple | None = None
    note: str = ""


@dataclass(frozen=True)
class SweepResult:
    """The rows and accepted solutions of a sweep, and what halted it."""

    steps: tuple
    reached_end: bool
    path_length: float
    solutions: tuple           # KamSolution per accepted step
    error: KamtoriError | None = None   # what halted the sweep


def coupled_divisor_floor(kmax: int, dim: int, lam: complex,
                          params: GoodSetParams) -> np.ndarray:
    """Per-mode divisor floor `params.floor` over the mode box, at least
    DEFAULT_DIVISOR_FLOOR: a divisor below it is exactly a violation of the
    good-set inequality at that mode.  Where it is above DEFAULT_DIVISOR_FLOOR
    it equals the witness floor of `lambda_in_good_set` bit for bit."""
    from .fourier import FourierSeries
    knorm = FourierSeries.zeros(dim, kmax).k_norm_grid()
    knorm[(kmax,) * dim] = 1.0
    factor = params.factor(np.array([complex(lam)]) - 1.0)   # as the gate takes it
    return np.maximum(params.floor(factor, knorm), DEFAULT_DIVISOR_FLOOR)


def sweep_continuation(fam, omega, path, K0, mu0, **newton) -> SweepResult:
    """Walk the epsilon path, solving at each point from the previous
    solution; `newton` holds the `run_newton` keywords of every solve.

    The first KamtoriError halts the sweep and stays on the result.  Its
    row carries the error's `status`, with the witness mode, divisor and
    floor for DivisorTooSmall and the last residual of the trace for
    NoConvergence and Diverged (nan otherwise).
    """
    K, mu = K0, mu0
    steps = []
    sols = []
    length = 0.0
    prev = None
    for eps in np.asarray(path, dtype=complex):
        try:
            sol = run_newton(fam, K, mu, omega, eps, **newton)
        except KamtoriError as err:
            residual, k, note = float("nan"), None, ""
            if isinstance(err, (NoConvergence, Diverged)):
                residual = err.trace[-1]
            if isinstance(err, DivisorTooSmall):
                k, note = err.k, f"divisor {err.divisor:.3e} < floor {err.floor:.3e}"
            steps.append(SweepStep(complex(eps), err.status, residual, None, k, note))
            return SweepResult(tuple(steps), False, length, tuple(sols), err)
        steps.append(SweepStep(complex(eps), "ok", sol.residual_norm, sol.mu))
        sols.append(sol)
        K, mu = sol.K, sol.mu
        if prev is not None:
            length += abs(complex(eps) - prev)
        prev = complex(eps)
    return SweepResult(tuple(steps), True, length, tuple(sols))


def detour_path(eps1: complex, eps2: complex, balls):
    """(points, length), 257 points, of a path from eps1 to eps2 that avoids
    the balls: the straight segment when clear, else the flattest circular
    arc that clears them, its center at most 8 chords from the chord's
    midpoint.  KamtoriError when no such arc exists.
    """
    eps1, eps2 = complex(eps1), complex(eps2)
    chord = eps2 - eps1
    dist = abs(chord)
    ts = np.linspace(0.0, 1.0, 257)
    seg = eps1 + ts * chord
    if not _path_blocked(seg, balls):
        return seg, dist
    mid = 0.5 * (eps1 + eps2)
    normal = 1j * chord / dist
    for bulge in np.linspace(0.05, 8.0, 160):
        for side in (1, -1):
            center = mid + side * bulge * dist * normal
            pts, sweep = _arc(eps1, eps2, center, ts.size)
            if not _path_blocked(pts, balls):
                return pts, abs(eps1 - center) * abs(sweep)
    raise KamtoriError("no clearing arc found between the endpoints")


def _path_blocked(points, balls) -> bool:
    pts = np.asarray(points)
    for b in balls:
        if np.any(np.abs(pts - b.center) < b.radius):
            return True
    return False


def _arc(e1, e2, center, samples):
    """The shorter arc from e1 to e2 about center, and its signed sweep angle."""
    r1 = e1 - center
    a1 = np.angle(r1)
    d = (np.angle(e2 - center) - a1) % (2 * np.pi)
    if d > np.pi:
        d -= 2 * np.pi
    ang = a1 + np.linspace(0.0, d, samples)
    return center + abs(r1) * np.exp(1j * ang), d


# -- exports ------------------------------------------------------------------

def grid_table(grid: AtlasGrid, fp) -> None:
    """Tabular cell records: re, im, status, witness mode."""
    xs, ys = grid.cell_centers()
    names = {INSIDE: "inside", EXCLUDED: "excluded", OUTSIDE_R0: "outside-r0"}
    fp.write(f"# atlas plane={grid.plane} nx={grid.resolution[0]} "
             f"ny={grid.resolution[1]} kscan={grid.k_scan}\n")
    fp.write("# re im status k...\n")
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            kk = " ".join(str(int(c)) for c in grid.witness_k[i, j])
            fp.write(f"{x:.17g} {y:.17g} {names[int(grid.status[i, j])]} {kk}\n")


def sweep_table(result: SweepResult, fp) -> None:
    """One row per sweep point: eps, status, residual, mu and note."""
    fp.write("# sweep re(eps) im(eps) status residual re(mu) im(mu) note\n")
    for st in result.steps:
        mu_re = f"{st.mu[0].real:.17g}" if st.mu is not None else "nan"
        mu_im = f"{st.mu[0].imag:.17g}" if st.mu is not None else "nan"
        note = st.note.replace(" ", "_") if st.note else "-"
        if st.obstruction_k is not None:
            note += "_k=" + ",".join(str(c) for c in st.obstruction_k)
        fp.write(f"{st.eps.real:.17g} {st.eps.imag:.17g} {st.status} "
                 f"{st.residual:.17g} {mu_re} {mu_im} {note}\n")


def render_svg(balls, bounds, unit_circle: bool = False) -> str:
    """Deterministic SVG, 640 pixels wide, of the excluded balls (black)
    inside the bounds, which must have re0 < re1 and im0 < im1 (ValueError)."""
    _check_bounds(bounds)
    re0, re1, im0, im1 = bounds
    width = 640
    height = int(round(width * (im1 - im0) / (re1 - re0)))

    def sx(x):
        return (x - re0) / (re1 - re0) * width

    def sy(y):
        return (im1 - y) / (im1 - im0) * height

    scale = width / (re1 - re0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if unit_circle:
        parts.append(
            f'<circle cx="{sx(0):.2f}" cy="{sy(0):.2f}" r="{scale:.2f}" '
            'fill="none" stroke="#888" stroke-width="1"/>')
    for b in balls:
        parts.append(
            f'<circle cx="{sx(b.center.real):.2f}" cy="{sy(b.center.imag):.2f}" '
            f'r="{max(b.radius * scale, 0.75):.2f}" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)
