"""Print the in-process cost of the pieces of one Newton step.

    python tools/step_cost.py [REPO_DIR] [--repeats R] [--kmax K ...]

Times, as the minimum over R repeats (default 7), each piece of the step
`newton.newton_step` makes, on the kamtori of REPO_DIR/src (default: the
repository holding this script):

- evaluate: `newton._evaluate` with its residual, on a torus not sampled before;
- newton_frame: `newton.newton_frame` of that evaluation;
- twisted_solve: the frame's stacked lam-twisted solve of Bb and Ba;
- checked_block: `newton.checked_block`;
- solve_reduced: `newton.solve_reduced`;
- newton_step: `newton.newton_step` with the evaluation given, as
  `run_newton` calls it.

A cutoff K <= 64 (default 64) times a golden torus: the configs/golden.cfg
family, solved from the flat torus at kmax K at eps 0.1 and cut or padded
to kmax K, stepped at eps 0.12 with the good-set-coupled divisor floor.  A
larger K (default 256 and 1024) times a breakdown torus: kappa 1, alpha 0.01,
the first torus of the continuation over eps 0.1, 0.2, ... whose cutoff
reaches K, cut to K and stepped at the next eps with the default floor.

Prints one line `<piece> <case> kmax <K> <microseconds> us` per piece and
cutoff, the cutoffs in the order given.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

GOLDEN_KMAX = 64          # the largest cutoff timed on a golden torus
BREAKDOWN_PATH = np.r_[np.arange(1, 10) / 10, np.arange(91, 98) / 100]
PIECES = ("evaluate", "newton_frame", "twisted_solve", "checked_block",
          "solve_reduced", "newton_step")


def _fit(K, kmax):
    """K cut or padded to the cutoff kmax."""
    from kamtori.embedding import TorusEmbedding
    if K.kmax > kmax:
        return TorusEmbedding(K.periodic.truncate(kmax))
    return K.pad_to(kmax)


def make_case(kmax: int) -> dict:
    """The family, torus, drift, eps and step options timed at `kmax`."""
    from kamtori import GOLDEN_MEAN, DissipativeStandardMap, GoodSetParams, atlas, newton
    if kmax <= GOLDEN_KMAX:
        fam = DissipativeStandardMap(kappa=0.5, alpha=1.0, a=1)
        K, mu = fam.unperturbed_torus(GOLDEN_MEAN, kmax)
        sol = newton.run_newton(fam, K, mu, GOLDEN_MEAN, 0.1)
        eps, K = 0.12, _fit(sol.K, kmax)
        floor = atlas.coupled_divisor_floor(kmax, 1, fam.lambda_eps(eps),
                                            GoodSetParams(A=0.5, N=2, tau=1.0, r0=0.3))
        return dict(name="golden", fam=fam, K=K, mu=sol.mu, eps=eps,
                    omega=GOLDEN_MEAN, floor=floor)
    fam = DissipativeStandardMap(kappa=1.0, alpha=0.01, a=1)
    K, mu = fam.unperturbed_torus(GOLDEN_MEAN, GOLDEN_KMAX)
    for eps, following in zip(BREAKDOWN_PATH, BREAKDOWN_PATH[1:]):
        sol = newton.run_newton(fam, K, mu, GOLDEN_MEAN, eps, tol=1e-11)
        K, mu = sol.K, sol.mu
        if K.kmax >= kmax:
            return dict(name="breakdown", fam=fam, K=_fit(K, kmax), mu=mu, eps=following,
                        omega=GOLDEN_MEAN, floor=newton.DEFAULT_DIVISOR_FLOOR)
    raise ValueError(f"the breakdown continuation never reaches kmax {kmax}")


def _fresh(K):
    """A copy of K with its own coefficient array, so no sample memo serves it."""
    from kamtori.embedding import TorusEmbedding
    from kamtori.fourier import FourierSeries
    return TorusEmbedding(FourierSeries(K.dim, K.kmax, np.array(K.periodic.coeffs)))


def _best(call, repeats: int, setup) -> float:
    """The least time of `repeats` calls call(*setup()), setup untimed, in seconds."""
    best = np.inf
    for _ in range(repeats):
        args = setup()
        t0 = time.perf_counter()
        call(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def time_pieces(case: dict, repeats: int) -> dict:
    """The least time in seconds of each of PIECES on `case`."""
    from kamtori import jets, newton
    fam, K, mu, eps, omega, floor = (case[k] for k in ("fam", "K", "mu", "eps", "omega",
                                                       "floor"))
    _, mu, omega, real = newton._check_start(fam, K, mu, omega, eps)

    def evaluate(K):
        ev = newton._evaluate(fam, K, mu, omega, eps, real=real)
        ev.residual
        return ev

    ev = evaluate(_fresh(K))
    fr = newton.newton_frame(fam, ev, floor)
    d, kmax = fr.d, fr.kmax
    rhs = -jets.mm(fr.beta[0], ev.E[:, None])[:, 0]
    A2 = fr.A[0, d:]
    stacked = np.concatenate([-A2.reshape(d * d, -1), rhs[d:]])
    rows, _ = fr.solve_twisted(stacked, kmax)
    Bb_grid, Ba_grid = rows[:d * d].reshape(A2.shape), rows[d * d:]
    core = newton.checked_block(fr, Bb_grid)
    calls = (
        (evaluate, lambda: (_fresh(K),)),
        (lambda: newton.newton_frame(fam, ev, floor), tuple),
        (lambda: fr.solve_twisted(stacked, kmax), tuple),
        (lambda: newton.checked_block(fr, Bb_grid), tuple),
        (lambda: newton.solve_reduced(core, rhs[:d], rhs[d:], Ba_grid, kmax), tuple),
        (lambda: newton.newton_step(fam, K, mu, omega, eps, divisor_floor=floor, _defect=ev),
         tuple),
    )
    return {piece: _best(call, repeats, setup) for piece, (call, setup) in zip(PIECES, calls)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--kmax", type=int, nargs="+", default=[64, 256, 1024])
    parser.add_argument("repo", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sys.path.insert(0, str(args.repo / "src"))
    for kmax in args.kmax:
        case = make_case(kmax)
        for piece, seconds in time_pieces(case, args.repeats).items():
            print(f"{piece:<14} {case['name']:<9} kmax {kmax:>4} {seconds * 1e6:>10.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
