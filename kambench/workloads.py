"""The three benchmark workloads: seeded inputs, one pass, and the checks.

Every workload is a closed loop of passes, run one after another in one
thread. A pass calls the public kamtori API on inputs generated here from the
seed; the program receives nothing else. A workload may generate several
variants of its inputs (``variants``); pass i runs variant i mod variants, so
the work of a run does not hang on one draw of the jitter. The checks run
outside the timed region, on the outputs of the last pass of each variant.

Calls go through the kamtori modules (``newton.run_newton``, not a name
imported into this file), so the traced run sees them after it rebinds the
module attributes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from kamtori import GOLDEN_MEAN, DissipativeStandardMap, GoodSetParams
from kamtori import atlas, diophantine, lindstedt, newton

OMEGA = GOLDEN_MEAN

# Correctness bounds. The invariance and Lagrangian bounds sit two orders of
# magnitude above the worst value seen on a good torus (3.5e-12); 1e-9 is the
# coefficient agreement acceptance criterion 5 demands of the two jet engines.
INVARIANCE_TOL = 1e-10
LAGRANGIAN_TOL = 1e-10
JET_RESIDUAL_TOL = 1e-10
JET_AGREE_TOL = 1e-9
THETAS_PER_TORUS = 8


def jittered(nominal, rng) -> np.ndarray:
    """Move each path point back towards the start by less than a quarter of
    the gap to its nearest neighbour, so the jittered path keeps the order of
    the nominal one and never passes its nominal end (the breakdown path ends
    at eps 0.97, within 1e-3 of where the Newton iteration stops converging)."""
    nominal = np.asarray(nominal, dtype=float)
    gaps = np.diff(nominal)
    room = np.minimum(np.r_[gaps[:1], gaps], np.r_[gaps, gaps[-1:]]) / 4.0
    return nominal - rng.uniform(0.0, 1.0, nominal.size) * room


@dataclass
class Pass:
    """What one pass produced: its outputs, its per-operation timings and the
    number of operations the program completed; the pass's wall time and the
    reference kernel's time after it."""

    outputs: dict
    variant: int = 0
    times: dict = field(default_factory=dict)
    done: int = 0
    wall: float = 0.0
    ref: float = 0.0


def _torus_failures(fam, sol, omega, eps, thetas) -> list[str]:
    """Why an accepted torus is not a torus of the map, if it is not."""
    why = []
    K, mu = sol.K, sol.mu
    worst = 0.0
    for th in thetas:
        image = fam.apply(K.eval_lift(th).astype(complex), mu, eps)
        worst = max(worst, float(np.max(np.abs(image - K.eval_lift(th + omega)))))
    if not worst <= INVARIANCE_TOL:
        why.append(f"off-grid invariance error {worst:.2e} > {INVARIANCE_TOL:.0e}")
    tail = K.periodic.tail_mass()
    if not tail <= newton.DEFAULT_TAIL_THRESHOLD:
        why.append(f"tail mass {tail:.2e} > {newton.DEFAULT_TAIL_THRESHOLD:.0e} "
                   f"at kmax {K.kmax}")
    lag = newton.lagrangian_defect(K, fam.J)
    if not lag <= LAGRANGIAN_TOL:
        why.append(f"Lagrangian defect {lag:.2e} > {LAGRANGIAN_TOL:.0e}")
    return why


class _Continuation:
    """Shared part of the two Newton workloads: a continuation along a
    jittered eps path, each point seeded by the last accepted torus. With
    several variants each has its own jittered path and its operations are
    named path<v>.torus[i]."""

    def __init__(self, inputs):
        self.paths = np.asarray(inputs["eps_paths"], dtype=float)
        self.thetas = np.asarray(inputs["thetas"], dtype=float)
        self.variants = len(self.paths)

    def torus_op(self, v, i) -> str:
        return f"torus[{i}]" if self.variants == 1 else f"path{v}.torus[{i}]"

    def newton_options(self, K, eps) -> dict:
        return {}

    def run_pass(self, mark, variant=0) -> Pass:
        p = Pass({"variant": variant}, variant)
        fam = self.fam
        K, mu = fam.unperturbed_torus(OMEGA, self.kmax0)
        tori, times = [], []
        for i, eps in enumerate(self.paths[variant]):
            mark(self.torus_op(variant, i))
            options = self.newton_options(K, eps)
            t0 = time.perf_counter()
            try:
                sol = newton.run_newton(fam, K, mu, OMEGA, eps, tol=self.tol, **options)
            except Exception as err:  # a failed operation; the checks report it
                sol = err
            times.append(time.perf_counter() - t0)
            tori.append(sol)
            if not isinstance(sol, Exception):
                K, mu = sol.K, sol.mu
        p.outputs["tori"] = tori
        p.times["torus"] = times
        p.done = sum(1 for s in tori if not isinstance(s, Exception))
        return p

    def check(self, out) -> dict:
        fails = {}
        v = out["variant"]
        for i, (eps, sol) in enumerate(zip(self.paths[v], out["tori"])):
            if isinstance(sol, Exception):
                why = [f"run_newton raised {type(sol).__name__}: {sol}"]
            else:
                why = _torus_failures(self.fam, sol, OMEGA, eps, self.thetas[v][i])
            if why:
                fails[self.torus_op(v, i)] = [f"eps={eps:.6f}: {w}" for w in why]
        return fails

    def ops(self) -> list[str]:
        return [self.torus_op(v, i) for v in range(self.variants)
                for i in range(self.paths.shape[1])]

    def fingerprint(self, out):
        return [complex(s.mu[0]) if not isinstance(s, Exception) else None
                for s in out["tori"]]

    def rate(self, p) -> float:
        """Accepted tori per second of run_newton time in one pass."""
        return p.done / sum(p.times["torus"])

    def report(self, passes) -> dict:
        samples = np.concatenate([p.times["torus"] for p in passes]) * 1e3
        return {
            "tori_per_s": (_median(self.rate(p) for p in passes), "1/s"),
            "torus_ms_p50": (float(np.percentile(samples, 50)), "ms"),
            "torus_ms_p90": (float(np.percentile(samples, 90)), "ms"),
            "torus_samples": (int(samples.size), "count"),
        }


class Golden(_Continuation):
    """The configs/golden.cfg family (kappa 0.5, a 1, golden omega, kmax 64):
    a 13-point sweep with the good-set-coupled divisor floor, as the CLI
    sweep runs it, an order-16 expansion and three doublings 1 -> 15.

    The grids are small (n ~ 200), so per-call overhead in newton, cohomology
    and maps dominates; it is the only workload where jets and lindstedt do
    real work."""

    name = "golden"
    config = "configs/golden.cfg"
    unit = "tori"
    reference = "compute"
    # ROADMAP 4(a): at kmax 64 the doubled jet differs from the expansion by
    # ~3e-6 at order 7 and ~6e4 at order 15.
    known_defects = ("jets.double",)

    def __init__(self, inputs):
        super().__init__(inputs)
        self.fam = DissipativeStandardMap(kappa=0.5, alpha=1.0, a=1)
        self.good_set = GoodSetParams(A=0.5, N=2, tau=1.0, r0=0.3)
        self.kmax0, self.tol = 64, 1e-12
        self.order, self.rounds = inputs["jet_order"], inputs["double_rounds"]

    @staticmethod
    def make_inputs(rng, small):
        n = 4 if small else 13
        path = jittered(np.linspace(0.01, 0.25, n), rng)
        return {"eps_paths": [path.tolist()],
                "thetas": rng.random((1, n, THETAS_PER_TORUS)).tolist(),
                "jet_order": 7 if small else 16,
                "double_rounds": 2 if small else 3}

    def newton_options(self, K, eps):
        return {"divisor_floor": atlas.coupled_divisor_floor(
            K.kmax, K.dim, self.fam.lambda_eps(eps), self.good_set)}

    def run_pass(self, mark, variant=0) -> Pass:
        p = super().run_pass(mark, variant)
        fam = self.fam
        K0, mu0 = fam.unperturbed_torus(OMEGA, self.kmax0)
        mark("jets.expand")
        t0 = time.perf_counter()
        expanded = lindstedt.lindstedt_expand(fam, K0, mu0, OMEGA, 0.0, self.order)
        t1 = time.perf_counter()
        mark("jets.double")
        jet = expanded.truncated(1)
        for _ in range(self.rounds):
            jet = lindstedt.lindstedt_double(fam, jet, OMEGA)
        t2 = time.perf_counter()
        norms = lindstedt.residual_jet_norms(fam, jet, OMEGA)
        p.outputs.update(expanded=expanded, doubled=jet, doubled_norms=norms)
        p.times.update(jet_expand=t1 - t0, jet_double=t2 - t1)
        return p

    def ops(self):
        return super().ops() + ["jets.expand", "jets.double"]

    def check(self, out) -> dict:
        fails = super().check(out)
        expanded, doubled = out["expanded"], out["doubled"]
        N = expanded.order
        norms = lindstedt.residual_jet_norms(self.fam, expanded, OMEGA, through=N)
        rel = max(float(norms[j]) / max(1.0, expanded.K_coeffs[j].analytic_norm(0.0))
                  for j in range(N + 1))
        if not rel <= JET_RESIDUAL_TOL:
            fails["jets.expand"] = [f"relative residual through order {N} "
                                    f"{rel:.2e} > {JET_RESIDUAL_TOL:.0e}"]
        M = min(doubled.order, N)
        worst, at = 0.0, 0
        for j in range(M + 1):
            gap = max(float(np.max(np.abs(doubled.K_coeffs[j].coeffs
                                          - expanded.K_coeffs[j].coeffs))),
                      float(np.max(np.abs(doubled.mu_coeffs[j] - expanded.mu_coeffs[j]))))
            if not gap <= worst:
                worst, at = gap, j
        if not worst <= JET_AGREE_TOL:
            fails["jets.double"] = [f"doubled jet differs from the expansion by "
                                    f"{worst:.2e} at order {at} > {JET_AGREE_TOL:.0e}"]
        return fails

    def fingerprint(self, out):
        return super().fingerprint(out) + [
            complex(out["expanded"].mu_coeffs[-1][0]),
            complex(out["doubled"].mu_coeffs[-1][0])]

    def report(self, passes):
        rep = super().report(passes)
        rep["jet_expand_ms"] = (_median(p.times["jet_expand"] for p in passes) * 1e3, "ms")
        rep["jet_double_ms"] = (_median(p.times["jet_double"] for p in passes) * 1e3, "ms")
        return rep


class Breakdown(_Continuation):
    """kappa 1, alpha 0.01, a 1, golden omega: a 16-point continuation to
    tol 1e-11 over eps 0.1..0.9 and 0.91..0.97, starting at kmax 64 and letting
    the tail rule double kmax up to 1024. Near breakdown the jitter moves the
    number of steps at kmax 1024 by up to 15%, so a run rotates through four
    jittered paths.

    Same newton/fourier/cohomology layers as golden on large grids
    (n ~ 3000), where transforms, the batched frame build and the duplicate
    residual evaluation dominate; a gain for large grids that costs small
    ones shows as a split between the two workloads."""

    name = "breakdown"
    config = "configs/golden.cfg"
    unit = "tori"
    reference = "compute"

    def __init__(self, inputs):
        super().__init__(inputs)
        self.fam = DissipativeStandardMap(kappa=1.0, alpha=0.01, a=1)
        self.kmax0, self.tol = 64, 1e-11
        # ROADMAP 4(b): the last two points (eps ~0.96 and ~0.97) are accepted
        # at the kmax cap with tails ~1e-9 and ~6e-7.
        self.known_defects = tuple(self.torus_op(v, i) for v in range(self.variants)
                                   for i in (14, 15))

    @staticmethod
    def make_inputs(rng, small):
        nominal = np.array([0.1, 0.2, 0.3]) if small else np.r_[
            np.arange(1, 10) / 10, np.arange(91, 98) / 100]
        variants = 2 if small else 4
        return {"eps_paths": [jittered(nominal, rng).tolist() for _ in range(variants)],
                "thetas": rng.random((variants, nominal.size, THETAS_PER_TORUS)).tolist()}


class Atlas:
    """configs/atlas_lambda.cfg: classify_grid on the lambda-plane at 160^2
    with kscan 2048, excluded_balls (ball_kmax 1024) in the lambda-plane and
    the eps-plane (a = 3), and excluded_measure with the criterion-8
    parameters.

    All of the work is in atlas and diophantine, none in Fourier or Newton:
    the workload that bypasses the Newton and jet layers and exercises the
    atlas geometry."""

    name = "atlas"
    config = "configs/atlas_lambda.cfg"
    unit = "cells"
    reference = "memory"
    known_defects = ()
    variants = 1

    def __init__(self, inputs):
        self.fam = DissipativeStandardMap(kappa=0.5, alpha=1.0, a=3)
        self.good_set = GoodSetParams(A=0.1, N=1, tau=1.0, r0=0.5)
        self.window = tuple(inputs["window"])
        self.resolution = tuple(inputs["resolution"])
        self.k_scan, self.ball_kmax = inputs["kscan"], inputs["ball_kmax"]
        self.measure_params = GoodSetParams(A=0.1, N=1, tau=1.0, r0=1.0)
        self.measure_k = inputs["measure_kmax"]
        self.rng = np.random.default_rng(inputs["check_seed"])
        self.checked = None

    @staticmethod
    def make_inputs(rng, small):
        res = 40 if small else 160
        half = 0.15
        cell = 2 * half / res
        cx, cy = 1.0 + rng.uniform(-2, 2) * cell, rng.uniform(-2, 2) * cell
        return {"window": [cx - half, cx + half, cy - half, cy + half],
                "resolution": [res, res],
                "kscan": 512 if small else 2048,
                "ball_kmax": 256 if small else 1024,
                "measure_kmax": 4096,
                "check_seed": int(rng.integers(2 ** 32))}

    def run_pass(self, mark, variant=0) -> Pass:
        p = Pass({})
        mark("classify")
        t0 = time.perf_counter()
        grid = atlas.classify_grid("lambda", self.window, self.resolution,
                                   self.good_set, OMEGA, fam=self.fam,
                                   k_scan=self.k_scan)
        t1 = time.perf_counter()
        mark("balls")
        balls = [atlas.excluded_balls(self.good_set, OMEGA, self.ball_kmax, 0.04,
                                      radius_scale=1.0, fam=fam, plane=plane)
                 for plane, fam in (("lambda", None), ("epsilon", self.fam))]
        mark("measure")
        t2 = time.perf_counter()
        fit = atlas.excluded_measure(0.08, self.measure_params, OMEGA, self.measure_k)
        t3 = time.perf_counter()
        p.outputs.update(grid=grid, balls=balls, fit=fit)
        p.times.update(classify=t1 - t0, measure=t3 - t2)
        p.done = grid.status.size
        return p

    def check_cells(self, grid):
        """About 200 cells, half from the excluded set, picked by the seed."""
        if self.checked is None:
            flat = grid.status.ravel()
            picks = []
            for pool in (np.flatnonzero(flat == atlas.EXCLUDED),
                         np.flatnonzero(flat != atlas.EXCLUDED)):
                picks += self.rng.choice(pool, min(100, pool.size), replace=False).tolist()
            self.checked = [divmod(int(c), grid.status.shape[1]) for c in sorted(picks)]
        return self.checked

    def ops(self):
        return [f"cell[{i},{j}]" for i, j in self.checked] + ["measure"]

    def check(self, out) -> dict:
        grid, fit = out["grid"], out["fit"]
        fails = {}
        xs, ys = grid.cell_centers()
        for i, j in self.check_cells(grid):
            w = diophantine.lambda_in_good_set(complex(xs[i], ys[j]), self.good_set,
                                               OMEGA, self.k_scan)
            want = atlas.INSIDE if w.member else atlas.EXCLUDED
            got, k = int(grid.status[i, j]), tuple(int(c) for c in grid.witness_k[i, j])
            if got != want or k != w.nu.k:
                fails[f"cell[{i},{j}]"] = [f"status {got} witness {k}, "
                                           f"lambda_in_good_set gives {want} {w.nu.k}"]
        par = self.measure_params
        bound = 2 * (par.N + 1) + (2 * par.tau - 1) / par.tau - 0.5
        if not fit.exponent >= bound:
            fails["measure"] = [f"fitted exponent {fit.exponent:.3f} < {bound}"]
        return fails

    def fingerprint(self, out):
        grid = out["grid"]
        return [grid.status.tobytes(), grid.witness_k.tobytes(),
                [len(b) for b in out["balls"]], float(out["fit"].exponent)]

    def rate(self, p) -> float:
        """Classified cells per second of classify_grid time in one pass."""
        return p.done / p.times["classify"]

    def report(self, passes):
        return {
            "cells_per_s": (_median(self.rate(p) for p in passes), "1/s"),
            "measure_ms": (_median(p.times["measure"] for p in passes) * 1e3, "ms"),
        }


def _median(values) -> float:
    return float(np.median(list(values)))


WORKLOADS = {w.name: w for w in (Golden, Breakdown, Atlas)}
