"""Benchmark of the kamtori solver stack.

    python3 kambench/run.py --workload {golden,breakdown,atlas} --seed N \\
        --seconds S --trace {0,1} [--small]

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each run measures set-up time in fresh interpreters, runs
one untimed warm-up pass and then timed passes of the workload for S seconds
in one single-threaded process (BLAS and OpenMP pinned to one thread), and
checks the outputs of the last pass of each input variant.

The host the benchmark runs on is shared: over minutes the speed it gives
the process drifts by tens of percent. So after every pass a fixed reference
kernel of the workload's kind, which uses no kamtori code, is timed too (see
reference.py), and the gated times are per-pass ratios to it: ``wall_ref``
is the median of pass time / reference time and ``ops_per_ref`` the median
of operations per reference time. The raw ``wall_s`` and ``ops_per_s`` and
the reference time ``ref_ms`` are printed beside them.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
half of the time runs untraced and half with spans around the public
functions of every module, and the per-layer metrics are reported. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name every metric of the workload
with its unit, every failed operation, the generated inputs and the
environment. The same record, and the spans of a traced run, are written
under kambench/out/.

``correct`` is false when an operation fails that is not one of the known
defects a workload lists, or when a timed pass produced other outputs than
the checked pass of its variant. Known defects still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 11
MIN_TORUS_SAMPLES = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("golden", "breakdown", "atlas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def setup_seconds(config: Path, env: dict) -> float:
    """Median wall time of a fresh interpreter that imports kamtori and loads
    the workload's config; the first, which may compile bytecode, is untimed.
    The wait blocks in waitpid: a wait with a timeout polls, and its sleeps of
    up to 50 ms would show in the time. A timer kills a child that hangs."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import kamtori; "
            f"from kamtori.config import load_config; load_config({str(config)!r})")
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT)
        guard = threading.Timer(60, child.kill)
        guard.start()
        try:
            status = child.wait()
        finally:
            guard.cancel()
        times.append(time.perf_counter() - t0)
        if status != 0:
            raise subprocess.CalledProcessError(status, child.args)
    return statistics.median(times[1:])


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy too old to report its build as dicts
        blas = "unknown"
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_passes(workload, seconds, min_passes, reference, mark=lambda op: None,
               on_pass=None):
    """Timed passes, in whole rounds over the workload's input variants, until
    `seconds` have gone and at least `min_passes` ran; each is followed by one
    timed run of the reference kernel (a fixed number, so that the reference
    time does not hang on the program's speed). Only the last outputs of each
    variant are kept; every pass leaves a (variant, fingerprint) pair."""
    passes, prints, last = [], [], {}
    min_passes = max(min_passes, workload.variants)
    start = time.perf_counter()
    while True:
        if on_pass is not None:
            on_pass(len(passes))
        variant = len(passes) % workload.variants
        t0 = time.perf_counter()
        p = workload.run_pass(mark, variant)
        p.wall = time.perf_counter() - t0
        p.ref = reference()
        prints.append((variant, workload.fingerprint(p.outputs)))
        last[variant] = p.outputs
        p.outputs = None
        passes.append(p)
        if (len(passes) >= min_passes and len(passes) % workload.variants == 0
                and time.perf_counter() - start >= seconds):
            return passes, prints, last


def same(a, b) -> bool:
    """Outputs agree: bytes exactly, numbers to 1e-9 relative."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float, complex)) and isinstance(b, (int, float, complex)):
        return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) or a == b
    return a == b


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kamtori" / "__init__.py").is_file():
        print(f"kambench: no kamtori sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import kamtori
    if Path(kamtori.__file__).resolve().parent != SRC / "kamtori":
        print(f"kambench: imported kamtori from {kamtori.__file__}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing
    from reference import KERNELS
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    inputs = cls.make_inputs(np.random.default_rng(args.seed), args.small)
    workload = cls(inputs)
    env = environment(np)
    setup_s = setup_seconds(ROOT / cls.config, dict(os.environ))

    min_passes = 1
    if not args.small and cls.unit == "tori":
        min_passes = -(-MIN_TORUS_SAMPLES // len(inputs["eps_paths"][0]))
    reference = KERNELS[cls.reference](np)
    workload.run_pass(lambda op: None)  # warm-up, untimed
    reference()

    record = {}
    if args.trace:
        half = args.seconds / 2
        passes, prints, _ = run_passes(workload, half, 1, reference)
        with tracing.Tracer() as tracer:
            def on_pass(i):
                tracer.pass_index = i
            traced, more, last = run_passes(workload, half, 1, reference,
                                            tracer.mark, on_pass)
        prints += more
        metrics = tracing.layer_metrics(
            tracer.spans, len(traced),
            statistics.median(p.wall / p.ref for p in traced),
            statistics.median(p.wall / p.ref for p in passes))
        shown = dict(metrics)
        record.update(spans=len(tracer.spans), missing_functions=tracer.missing)
    else:
        passes, prints, last = run_passes(workload, args.seconds, min_passes, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        shown = workload.report(passes)
        shown.update(
            setup_s=(setup_s, "s"),
            wall_s=(statistics.median(p.wall for p in passes), "s"),
            ops_per_s=(shown[f"{cls.unit}_per_s"][0], "1/s"),
            ref_ms=(statistics.median(p.ref for p in passes) * 1e3, "ms"),
            wall_ref=(statistics.median(p.wall / p.ref for p in passes), "ref"),
            ops_per_ref=(statistics.median(workload.rate(p) * p.ref for p in passes),
                         "1/ref"),
            peak_rss_mb=(peak_rss_mb, "MB"))
        metrics = {k: shown[k] for k in ("setup_s", "wall_ref", "ops_per_ref",
                                         "peak_rss_mb")}

    fails = {}
    for v in sorted(last):
        fails.update(workload.check(last[v]))
    ops = workload.ops()
    unknown = sorted(set(fails) - set(workload.known_defects))
    checked = {v: fp for v, fp in prints}
    differing = [i for i, (v, fp) in enumerate(prints) if not same(fp, checked[v])]
    correct = not unknown and not differing

    shown["failed_frac"] = (len(fails) / len(ops), "ratio")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    for op, why in sorted(fails.items()):
        tag = "known defect" if op not in unknown else "unexpected"
        for w in why:
            print(f"failed {args.workload}.{op} ({tag}): {w}")
    if differing:
        print(f"passes {differing} produced other outputs than the checked pass "
              "of their variant")
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  small=args.small, passes=len(prints), inputs=inputs,
                  checked=getattr(workload, "checked", None), env=env,
                  metrics=shown, failed_ops=fails)
    print("inputs " + json.dumps(inputs, separators=(",", ":")))
    if record["checked"] is not None:
        print("checked " + json.dumps(record["checked"], separators=(",", ":")))
    print("env " + json.dumps(env, separators=(",", ":")))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.csv.gz")
    result = {"correct": correct, "attempted": len(ops), "failed": len(fails),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
