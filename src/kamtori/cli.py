"""Configuration-driven experiment runner.

    kamtori <command> --config <file> --out <dir> [--seed n] [--force]

Commands: solve, lindstedt, double, atlas, sweep, verify.  Output files are
written atomically and a manifest records the config hash, the package
version and every emitted file; floats are printed with 17 significant
digits so identical configs reproduce byte-identical tables.

Exit codes: 0 ok, 1 a failed verify check; an error prints its label and
exits with its code, both named by its class in `errors`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .atlas import (classify_grid, excluded_balls, grid_table, render_svg,
                    sweep_continuation, sweep_table)
from .cohomology import solve_twisted_grid
from .config import load_config, sweep_path
from .diophantine import lambda_in_good_set, nu_omega, scan_trace
from .errors import ConfigError, KamtoriError
from .fourier import FourierSeries, from_grid, to_grid
from .lindstedt import (BASE_TOL, dump_jet, lindstedt_double, lindstedt_expand,
                        residual_jet_norms)
from .newton import dump_solution, invariance_residual, run_newton
from .maps import verify_conformal

EXIT_OK = 0
EXIT_ERROR = 1


def _atomic_write(path, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kamtori-")
    # mkstemp creates the file 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fp:
            os.fchmod(fp.fileno(), 0o666 & ~umask)
            fp.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Run:
    def __init__(self, args):
        self.cfg = load_config(args.config)
        self.config = args.config
        self.out = args.out
        self.seed = args.seed
        # the run_newton keywords of every solve in the run; --force drops the gate
        self.newton = dict(self.cfg.newton)
        if args.force:
            self.newton["good_set"] = None
        os.makedirs(self.out, exist_ok=True)
        with open(args.config, "rb") as fp:
            self.config_hash = hashlib.sha256(fp.read()).hexdigest()
        self.files = []

    def emit(self, name: str, text: str):
        path = os.path.join(self.out, name)
        _atomic_write(path, text)
        self.files.append(name)
        return path

    def manifest(self):
        lines = [
            f"version {__version__}",
            f"config-sha256 {self.config_hash}",
            f"seed {self.seed}",
        ]
        lines += [f"file {name}" for name in sorted(self.files)]
        _atomic_write(os.path.join(self.out, "manifest.txt"), "\n".join(lines) + "\n")


def _solver_start(cfg):
    return cfg.family.unperturbed_torus(cfg.omega, cfg.kmax)


def cmd_solve(run: _Run):
    """Solve at [solve].eps: solution.txt and newton_trace.txt."""
    cfg = run.cfg
    eps = cfg.sections["solve"]["eps"]
    if eps is None:
        raise ConfigError("missing required key 'eps'", f"{run.config}[solve].eps")
    K0, mu0 = _solver_start(cfg)
    sol = run_newton(cfg.family, K0, mu0, cfg.omega, eps, **run.newton)
    buf = io.StringIO()
    dump_solution(sol, buf)
    run.emit("solution.txt", buf.getvalue())
    trace = "\n".join(f"{i} {r:.17g}" for i, r in enumerate(sol.trace))
    run.emit("newton_trace.txt", "# iter residual\n" + trace + "\n")
    print(f"solved eps={eps}: residual {sol.residual_norm:.3e} "
          f"in {len(sol.trace) - 1} iterations")
    return EXIT_OK


def _expand_from_config(run: _Run, order: int, eps0: complex):
    cfg = run.cfg
    if eps0 != 0 and run.newton["tol"] > BASE_TOL:
        raise ConfigError(f"tol above {BASE_TOL:.1e}: the expansion at eps0 != 0 needs "
                          "an exact base", f"{run.config}[solver].tol")
    K0, mu0 = _solver_start(cfg)
    if eps0 != 0:
        sol = run_newton(cfg.family, K0, mu0, cfg.omega, eps0, **run.newton)
        K0, mu0 = sol.K, sol.mu
    return lindstedt_expand(cfg.family, K0, mu0, cfg.omega, eps0, order,
                            divisor_floor=cfg.newton["divisor_floor"])


def _emit_jet(run: _Run, jet):
    """Write jet.txt and residual_orders.txt; return the residual norms."""
    buf = io.StringIO()
    dump_jet(jet, buf)
    run.emit("jet.txt", buf.getvalue())
    norms = residual_jet_norms(run.cfg.family, jet, run.cfg.omega)
    run.emit("residual_orders.txt", "# order residual_norm\n" + "\n".join(
        f"{j} {v:.17g}" for j, v in enumerate(norms)) + "\n")
    return norms


def cmd_lindstedt(run: _Run):
    """Expand to [lindstedt].order at eps0: jet.txt and residual_orders.txt."""
    sec = run.cfg.sections["lindstedt"]
    order, eps0 = sec["order"], sec["eps0"]
    norms = _emit_jet(run, _expand_from_config(run, order, eps0))
    print(f"lindstedt order {order} at eps0={eps0}: "
          f"max residual through order {order}: {max(norms[:order + 1]):.3e}")
    return EXIT_OK


def cmd_double(run: _Run):
    """Expand to [double].order at 0 and double `rounds` times, as `lindstedt`."""
    cfg = run.cfg
    sec = cfg.sections["double"]
    order, rounds = sec["order"], sec["rounds"]
    jet = _expand_from_config(run, order, 0.0)
    for _ in range(rounds):
        jet = lindstedt_double(cfg.family, jet, cfg.omega,
                               divisor_floor=cfg.newton["divisor_floor"])
    norms = _emit_jet(run, jet)
    print(f"doubled {rounds}x from order {order}: final order {jet.order}, "
          f"max residual through order {jet.order}: {max(norms[:jet.order + 1]):.3e}")
    return EXIT_OK


def cmd_atlas(run: _Run):
    """Classify the [atlas] plane: cells.txt, balls.txt, atlas.svg, nu_trace.txt."""
    cfg = run.cfg
    if cfg.good_set is None:
        raise ConfigError("atlas needs a [goodset] section", f"{run.config}[goodset]")
    sec = cfg.sections["atlas"]
    plane, bounds, rho_band = sec["plane"], sec["bounds"], sec["rho_band"]

    grid = classify_grid(plane, bounds, sec["resolution"], cfg.good_set, cfg.omega,
                         fam=cfg.family, k_scan=cfg.k_scan)
    buf = io.StringIO()
    grid_table(grid, buf)
    run.emit("cells.txt", buf.getvalue())

    balls = excluded_balls(cfg.good_set, cfg.omega, sec["ball_kmax"], rho_band,
                           radius_scale=sec["radius_scale"],
                           fam=cfg.family if plane == "epsilon" else None,
                           plane=plane)
    rows = [f"# balls plane={plane} rho_band={rho_band:.17g}",
            "# k re(center) im(center) radius branch"]
    rows += [f"{','.join(str(c) for c in b.k)} {b.center.real:.17g} "
             f"{b.center.imag:.17g} {b.radius:.17g} {b.branch}" for b in balls]
    run.emit("balls.txt", "\n".join(rows) + "\n")
    run.emit("atlas.svg", render_svg(balls, bounds, unit_circle=(plane == "lambda")))

    trace, _ = scan_trace(cfg.omega, cfg.tau, min(cfg.k_scan, 4096))
    lines = ["# knorm divisor running_sup"]
    lines += [f"{int(row[0])} {row[1]:.17g} {row[2]:.17g}" for row in trace]
    run.emit("nu_trace.txt", "\n".join(lines) + "\n")

    counts = np.bincount(grid.status.ravel(), minlength=3)
    print(f"atlas {plane}: inside={counts[0]} excluded={counts[1]} "
          f"outside-r0={counts[2]}, {len(balls)} balls")
    return EXIT_OK


def cmd_sweep(run: _Run):
    """Continue along the [sweep] path: sweep.txt; a halt exits with its code."""
    cfg = run.cfg
    sec = cfg.sections["sweep"]
    start, steps = sec["start"], sec["steps"]
    end, path = sec["end"], sweep_path(sec)
    K0, mu0 = _solver_start(cfg)
    result = sweep_continuation(cfg.family, cfg.omega, path, K0, mu0, **run.newton)
    buf = io.StringIO()
    sweep_table(result, buf)
    run.emit("sweep.txt", buf.getvalue())
    status = "reached end" if result.reached_end else \
        f"halted: {result.steps[-1].status}"
    print(f"sweep {start} -> {end}: {status}, "
          f"{sum(1 for s in result.steps if s.status == 'ok')}/{steps} points, "
          f"path length {result.path_length:.6g}")
    return EXIT_OK if result.error is None else result.error.exit_code


def cmd_verify(run: _Run):
    """Deterministic invariant battery on the configured family."""
    cfg = run.cfg
    rng = np.random.default_rng(run.seed)
    checks = []

    def check(name, value, bound):
        ok = value <= bound
        checks.append((name, value, bound, ok))
        return ok

    fam = cfg.family
    K0, mu0 = _solver_start(cfg)
    check("conformality-defect", verify_conformal(fam, 200, 0.07, rng=rng), 1e-13)
    E0 = invariance_residual(fam, K0, mu0, cfg.omega, 0.0)
    check("exact-torus-residual", E0.analytic_norm(0.0), 1e-14)

    coeffs = (rng.standard_normal((33,)) + 1j * rng.standard_normal((33,)))
    series = FourierSeries(1, 16, coeffs * np.exp(-0.4 * np.abs(np.arange(-16, 17))))
    grid = to_grid(series, 64)
    rt = from_grid(grid, 1, 16)
    check("grid-round-trip", (rt - series).analytic_norm(0.0)
          / series.analytic_norm(0.0), 1e-13)

    # the solve on the grid, its residual lam*phi - phi o T_omega - eta taken
    # on the modes of phi against the zero-average part of the series
    eta = series.remove_average()
    phi = from_grid(solve_twisted_grid(grid, 1, 16, 0.97, cfg.omega)[0], 1, 16)
    resid = 0.97 * phi.coeffs - phi.shift(cfg.omega).coeffs - eta.coeffs
    check("cohomology-residual", FourierSeries(1, 16, resid).analytic_norm(0.0)
          / eta.analytic_norm(0.0), 1e-12)

    n1 = nu_omega(cfg.omega, cfg.tau, 1000)
    n2 = nu_omega(cfg.omega, cfg.tau, 100000)
    check("nu-monotone", 0.0 if n1.value <= n2.value else 1.0, 0.0)

    if cfg.good_set is not None:
        w = lambda_in_good_set(fam.lambda_eps(0.0), cfg.good_set, cfg.omega, cfg.k_scan)
        check("origin-in-good-set", 0.0 if w.member else 1.0, 0.0)

    sol = run_newton(fam, K0, mu0, cfg.omega, 0.05, tol=1e-12,
                     divisor_floor=cfg.newton["divisor_floor"])
    check("newton-residual", sol.residual_norm, 1e-12)
    check("lagrangian-defect", sol.lagrangian_defect, 1e-10)

    lines = []
    all_ok = True
    for name, value, bound, ok in checks:
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} {value:.3e} <= {bound:.1e}")
    run.emit("verify.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if all_ok else EXIT_ERROR


_COMMANDS = {
    "solve": cmd_solve,
    "lindstedt": cmd_lindstedt,
    "double": cmd_double,
    "atlas": cmd_atlas,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    """Run one command; return its exit code (see the module docstring)."""
    parser = argparse.ArgumentParser(
        prog="kamtori",
        description="invariant tori, dissipation-series jets and analyticity atlases "
                    "for conformally symplectic map families")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--force", action="store_true",
                        help="skip the good-set membership gate")
    args = parser.parse_args(argv)

    try:
        run = _Run(args)
        code = _COMMANDS[args.command](run)
        run.manifest()
        return code
    except KamtoriError as err:
        print(f"{err.label}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
