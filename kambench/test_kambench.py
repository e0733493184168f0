"""Tests of the benchmark itself: a reduced-size run of every workload, the
refusal to run without the program's sources, and the failure accounting.

    python3 -m pytest kambench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from kamtori import FourierSeries, TorusEmbedding  # noqa: E402
from kamtori.atlas import EXCLUDED, INSIDE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every end-to-end metric the benchmark prints, per workload, with its unit
REPORTED = {
    "golden": {"tori_per_s": "1/s", "torus_ms_p50": "ms", "torus_ms_p90": "ms",
               "jet_expand_ms": "ms", "jet_double_ms": "ms"},
    "breakdown": {"tori_per_s": "1/s", "torus_ms_p50": "ms", "torus_ms_p90": "ms"},
    "atlas": {"cells_per_s": "1/s", "measure_ms": "ms"},
}
COMMON = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "ref_ms": "ms",
          "wall_ref": "ref", "ops_per_ref": "1/ref", "failed_frac": "ratio",
          "peak_rss_mb": "MB"}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "kambench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: (v["unit"]) for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])
    if not trace:
        printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
        for name, unit in {**COMMON, **REPORTED[workload]}.items():
            assert printed.get(name) == unit, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "golden", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def small(name):
    cls = WORKLOADS[name]
    workload = cls(cls.make_inputs(np.random.default_rng(5), True))
    return workload, workload.run_pass(lambda op: None).outputs


def test_corrupt_torus_coefficient_is_counted():
    workload, out = small("golden")
    before = workload.check(out)
    sol = out["tori"][1]
    coeffs = np.array(sol.K.periodic.coeffs)
    coeffs[sol.K.kmax + 3, 1] += 1e-6
    bad = TorusEmbedding(FourierSeries(sol.K.dim, sol.K.kmax, coeffs))
    out["tori"][1] = dataclasses.replace(sol, K=bad)
    after = workload.check(out)
    assert "torus[1]" not in before and "torus[1]" in after
    assert len(after) == len(before) + 1


def test_flipped_atlas_status_is_counted():
    workload, out = small("atlas")
    assert workload.check(out) == {}
    grid = out["grid"]
    i, j = workload.checked[0]
    status = np.array(grid.status)
    status[i, j] = INSIDE if status[i, j] == EXCLUDED else EXCLUDED
    out["grid"] = dataclasses.replace(grid, status=status)
    assert list(workload.check(out)) == [f"cell[{i},{j}]"]
