"""Spans around the public functions of each kamtori module, and the
per-layer metrics computed from them.

A traced function is rebound wherever it is bound: on its own module (or
class) and on every kamtori module that imported it by name, so calls made
inside the package are seen as well as calls from the benchmark. Spans are
kept in memory as (name, start, end, parent span, op id, pass, note) and
written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> (module, class or None, public functions traced)
TRACED = {
    "fourier": ("kamtori.fourier", None, ("to_grid", "from_grid", "product")),
    "embedding": ("kamtori.embedding", "TorusEmbedding",
                  ("lift_grid", "shifted_lift_grid", "dk_grid", "pad_to",
                   "with_correction")),
    "maps": ("kamtori.maps", "DissipativeStandardMap",
             ("apply", "jacobian", "d_mu", "jet_apply", "jet_jacobian", "jet_d_mu")),
    "cohomology": ("kamtori.cohomology", None, ("solve_twisted", "divisor_grid")),
    "newton": ("kamtori.newton", None,
               ("run_newton", "newton_step", "invariance_residual", "lagrangian_defect")),
    "jets": ("kamtori.jets", None,
             ("zero_like", "pad", "cauchy", "matmul", "sincos", "inv_matrix",
              "poly_eval", "derivative", "variable")),
    "lindstedt": ("kamtori.lindstedt", None,
                  ("lindstedt_expand", "lindstedt_double", "residual_jet",
                   "residual_jet_norms")),
    "diophantine": ("kamtori.diophantine", None, ("mode_ball", "nu_lambda", "scan_trace")),
    "atlas": ("kamtori.atlas", None,
              ("classify_grid", "excluded_balls", "excluded_measure",
               "coupled_divisor_floor")),
}

STEP_BUCKETS = (64, 128, 256, 512, 1024)


def _grid_note(arr):
    return (arr.size, arr.nbytes)


# span name -> note(args, result) stored with the span; points and bytes of a
# transform are computed from the shape of its grid array
_NOTES = {
    "fourier.to_grid": lambda args, out: _grid_note(out),
    "fourier.from_grid": lambda args, out: _grid_note(args[0]),
    "newton.newton_step": lambda args, out: args[1].kmax,
    "atlas.excluded_balls": lambda args, out: len(out),
}

# span fields
NAME, START, END, PARENT, OP, PASS, NOTE, OK = range(8)


class Tracer:
    """Context manager that rebinds the traced functions to span-recording
    wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = ""
        self.pass_index = -1
        self.missing = []
        self._undo = []

    def mark(self, op: str):
        self.op = op

    def _wrapper(self, name, fn):
        spans, stack, note = self.spans, self.stack, _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, self.pass_index,
                   None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                rec[OK] = True
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, out)
            return out

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kamtori" or n.startswith("kamtori."))]
        for layer, (modname, clsname, names) in TRACED.items():
            home = importlib.import_module(modname)
            if clsname is not None:
                home = getattr(home, clsname)
            for fname in names:
                orig = home.__dict__.get(fname)
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self._wrapper(f"{layer}.{fname}", orig)
                owners = [home] if clsname is not None else \
                    [m for m in modules if m.__dict__.get(fname) is orig]
                for owner in owners:
                    setattr(owner, fname, wrapped)
                    self._undo.append((owner, fname, orig))
        return self

    def __exit__(self, *exc):
        for owner, fname, orig in reversed(self._undo):
            setattr(owner, fname, orig)
        self._undo.clear()
        return False

    def write(self, path):
        """Write every span as one CSV row (gzip), times in ns."""
        with gzip.open(path, "wt") as fp:
            fp.write("id,name,start_ns,end_ns,parent,op,pass,ok\n")
            for i, s in enumerate(self.spans):
                fp.write(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},"
                         f"{s[OP]},{s[PASS]},{int(s[OK])}\n")


def self_times(spans) -> np.ndarray:
    """Span duration minus the time its direct children cover (children of
    one span never overlap in a single thread), in seconds."""
    dur = np.array([s[END] - s[START] for s in spans], dtype=float)
    own = dur.copy()
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= dur[i]
    return own * 1e-9


def layer_metrics(spans, passes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics: counts per pass, self times as the median over
    passes of the per-pass sum, and newton_step times bucketed by kmax.
    A layer the workload does not exercise reports 0."""
    own = self_times(spans)
    names = [s[NAME] for s in spans]
    by_pass = defaultdict(lambda: np.zeros(passes))
    count = defaultdict(int)
    for i, s in enumerate(spans):
        name = s[NAME]
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            by_pass[key][s[PASS]] += own[i]
            count[key] += 1

    def self_s(*keys):
        return float(np.median(sum((by_pass[k] for k in keys), np.zeros(passes))))

    def per_pass(n):
        return n / passes

    out = {}
    for layer in ("fourier", "embedding", "cohomology", "jets", "diophantine"):
        out[f"{layer}.calls"] = (per_pass(count[layer]), "count")
        out[f"{layer}.self_s"] = (self_s(layer), "s")
    notes = defaultdict(lambda: np.zeros(2))
    for s in spans:
        if s[NAME] in ("fourier.to_grid", "fourier.from_grid"):
            notes["fourier"] += s[NOTE]
    out["fourier.points"] = (per_pass(float(notes["fourier"][0])), "count")
    out["fourier.bytes_computed"] = (per_pass(float(notes["fourier"][1])), "bytes")
    out["maps.self_s"] = (self_s("maps.apply", "maps.jacobian", "maps.d_mu"), "s")
    out["maps.jet_self_s"] = (self_s("maps.jet_apply", "maps.jet_jacobian",
                                     "maps.jet_d_mu"), "s")

    solves = [i for i, n in enumerate(names) if n == "newton.run_newton"]
    steps = [s for s in spans if s[NAME] == "newton.newton_step"]
    out["newton.iterations_per_torus"] = (len(steps) / max(len(solves), 1), "count")
    for k in STEP_BUCKETS:
        ms = [(s[END] - s[START]) * 1e-6 for s in steps if s[NOTE] == k]
        out[f"newton.step_ms.k{k}"] = (float(np.median(ms)) if ms else 0.0, "ms")
    out["newton.step_self_s"] = (self_s("newton.newton_step"), "s")
    out["newton.residual_self_s"] = (self_s("newton.invariance_residual"), "s")
    out["newton.lagrangian_self_s"] = (self_s("newton.lagrangian_defect"), "s")
    solve_set = set(solves)
    doublings = sum(1 for s in spans
                    if s[NAME] == "embedding.pad_to" and s[PARENT] in solve_set)
    out["newton.kmax_doublings"] = (per_pass(doublings), "count")
    accepted = sum(1 for i in solves if spans[i][OK])
    out["newton.accepted_ratio"] = (accepted / len(solves) if solves else 0.0, "ratio")

    out["jets.inv_matrix_self_s"] = (self_s("jets.inv_matrix"), "s")
    out["lindstedt.expand_self_s"] = (self_s("lindstedt.lindstedt_expand"), "s")
    out["lindstedt.double_self_s"] = (self_s("lindstedt.lindstedt_double"), "s")
    out["lindstedt.residual_jet_self_s"] = (self_s("lindstedt.residual_jet",
                                                   "lindstedt.residual_jet_norms"), "s")
    out["atlas.classify_self_s"] = (self_s("atlas.classify_grid"), "s")
    out["atlas.measure_self_s"] = (self_s("atlas.excluded_measure"), "s")
    out["atlas.balls_self_s"] = (self_s("atlas.excluded_balls"), "s")
    balls = sum(s[NOTE] for s in spans if s[NAME] == "atlas.excluded_balls")
    out["atlas.balls"] = (per_pass(balls), "count")
    out["atlas.coupled_floor_self_s"] = (self_s("atlas.coupled_divisor_floor"), "s")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return out
