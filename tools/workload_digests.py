"""Print a sha256 digest of every torus and jet one pass of the Newton workloads makes.

    python tools/workload_digests.py [--small] [--golden SEED ...]
        [--breakdown SEED ...] [REPO_DIR]

Generates the inputs of the golden and breakdown workloads of
`kambench/workloads.py` at each seed (default: golden 100 and 101,
breakdown 200 and 201; `--small` for the small inputs) and runs one pass of
every input variant, on the kamtori and kambench of REPO_DIR (default: the
repository holding this script).

Prints one line `<sha256>  <workload> seed <S> variant <V> <output>` per
output: per torus of the continuation `torus[i]`, the digest of its K
coefficients, mu, trace and twist constant (of the error's type and message
for a torus that was refused); for golden also `expanded` and `doubled`,
the digest of each jet's K coefficients, mu and lambda coefficients.  Two
checkouts whose listings are equal computed the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

DEFAULT_SEEDS = {"golden": (100, 101), "breakdown": (200, 201)}


def torus_digest(sol) -> str:
    """The digest of one torus of a continuation, or of the error that refused it."""
    if isinstance(sol, Exception):
        return hashlib.sha256(f"{type(sol).__name__}: {sol}".encode()).hexdigest()
    parts = (sol.K.periodic.coeffs, np.asarray(sol.mu), np.asarray(sol.trace),
             np.float64(sol.twist_constant))
    return hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts)).hexdigest()


def jet_digest(jet) -> str:
    """The digest of a jet's K coefficients, mu and lambda coefficients."""
    parts = [K.coeffs for K in jet.K_coeffs] + [jet.mu_coeffs, jet.lambda_coeffs]
    return hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts)).hexdigest()


def listing(seeds: dict, small: bool) -> list[str]:
    """The digest lines of one pass of every variant of each workload at each
    of its seeds, `seeds` mapping a workload name to its seeds."""
    from workloads import WORKLOADS
    lines = []
    for name, runs in seeds.items():
        cls = WORKLOADS[name]
        for seed in runs:
            workload = cls(cls.make_inputs(np.random.default_rng(seed), small))
            for variant in range(workload.variants):
                out = workload.run_pass(lambda op: None, variant).outputs
                where = f"{name} seed {seed} variant {variant}"
                lines += [f"{torus_digest(sol)}  {where} torus[{i}]"
                          for i, sol in enumerate(out["tori"])]
                lines += [f"{jet_digest(out[key])}  {where} {key}"
                          for key in ("expanded", "doubled") if key in out]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--small", action="store_true")
    for name, seeds in DEFAULT_SEEDS.items():
        parser.add_argument(f"--{name}", type=int, nargs="*", default=list(seeds),
                            metavar="SEED")
    parser.add_argument("repo", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.repo / "src"), str(args.repo / "kambench")]
    seeds = {name: getattr(args, name) for name in DEFAULT_SEEDS}
    for line in listing(seeds, args.small):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
