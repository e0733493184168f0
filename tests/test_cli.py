import os
import stat
import textwrap

import pytest

from kamtori.cli import main
from kamtori.newton import load_solution

GOLDEN = textwrap.dedent("""\
    [family]
    name = dissipative_standard
    kappa = 0.5
    alpha = 1.0
    a = 1

    [frequency]
    omega = golden
    tau = 1.0

    [solver]
    tol = 1e-12
    max_iter = 20
    rho = 0.1
    kmax = 32

    [goodset]
    A = 0.5
    N = 2
    r0 = 0.3
    kscan = 2048

    [solve]
    eps = 0.0

    [lindstedt]
    order = 3
    eps0 = 0

    [double]
    order = 1
    rounds = 1

    [sweep]
    start = 0.01
    end = 0.1
    steps = 5
    """)

ATLAS = GOLDEN + textwrap.dedent("""
    [atlas]
    plane = lambda
    bounds = 0.9 1.1 -0.1 0.1
    resolution = 24 24
    ball_kmax = 256
    rho_band = 0.05
    """)


@pytest.fixture()
def golden_cfg(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(GOLDEN)
    return str(p)


def test_verify_golden_passes(golden_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["verify", "--config", golden_cfg, "--out", out]) == 0
    text = open(os.path.join(out, "verify.txt")).read()
    assert "FAIL" not in text
    assert "PASS" in text


def test_missing_omega_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[family]\nname = dissipative_standard\n")
    code = main(["solve", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 64
    assert "omega" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(GOLDEN.replace("[solver]\n", "[solver]\nwarp = 9\n"))
    code = main(["solve", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 64
    assert "'warp'" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(GOLDEN + "\n[mystery]\nx = 1\n")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 64


def test_solve_exact_case(golden_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", golden_cfg, "--out", out]) == 0
    with open(os.path.join(out, "solution.txt")) as fp:
        sol = load_solution(fp)
    assert sol.residual_norm <= 1e-13
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "solution.txt" in manifest
    assert "config-sha256" in manifest


def test_reproducible_outputs(golden_cfg, tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["lindstedt", "--config", golden_cfg, "--out", out1]) == 0
    assert main(["lindstedt", "--config", golden_cfg, "--out", out2]) == 0
    for name in ("jet.txt", "residual_orders.txt", "manifest.txt"):
        a = open(os.path.join(out1, name)).read()
        b = open(os.path.join(out2, name)).read()
        assert a == b


def test_double_command(golden_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["double", "--config", golden_cfg, "--out", out]) == 0
    head = open(os.path.join(out, "jet.txt")).readline()
    assert "order=3" in head


def test_sweep_command(golden_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", golden_cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "sweep.txt")).read().strip().splitlines()
    assert len(lines) == 6
    assert all("ok" in l for l in lines[1:])


def test_sweep_resonance_exit_code(tmp_path):
    import numpy as np
    from kamtori.diophantine import GOLDEN_MEAN
    target = np.exp(2j * np.pi * GOLDEN_MEAN) - 1.0
    cfg = GOLDEN.replace("kappa = 0.5", "kappa = 0.05")
    cfg = cfg.replace("A = 0.5", "A = 5.0").replace("r0 = 0.3", "r0 = 2.0")
    cfg = cfg.replace("N = 2", "N = 1")
    cfg = cfg.replace("start = 0.01", f"start = {0.05 * target.real:.17g} {0.05 * target.imag:.17g}")
    cfg = cfg.replace("end = 0.1", f"end = {0.999 * target.real:.17g} {0.999 * target.imag:.17g}")
    cfg = cfg.replace("steps = 5", "steps = 25")
    p = tmp_path / "res.cfg"
    p.write_text(cfg)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", str(p), "--out", out]) == 3
    assert "divisor" in open(os.path.join(out, "sweep.txt")).read()


def test_atlas_command(tmp_path):
    p = tmp_path / "atlas.cfg"
    p.write_text(ATLAS)
    out = str(tmp_path / "out")
    assert main(["atlas", "--config", str(p), "--out", out]) == 0
    for name in ("cells.txt", "balls.txt", "atlas.svg", "nu_trace.txt",
                 "manifest.txt"):
        assert os.path.exists(os.path.join(out, name))
    cells = open(os.path.join(out, "cells.txt")).read()
    assert "inside" in cells


@pytest.mark.parametrize("command, old, new", [
    ("lindstedt", "order = 3", "order = six"),
    ("double", "rounds = 1", "rounds = two"),
    ("sweep", "steps = 5", "steps = five"),
    ("atlas", "plane = lambda", "plane = lamda"),
    ("atlas", "resolution = 24 24", "resolution = 24"),
], ids=["lindstedt-order", "double-rounds", "sweep-steps", "atlas-plane",
        "atlas-resolution"])
def test_bad_command_value_is_config_error(tmp_path, capsys, command, old, new):
    p = tmp_path / "bad.cfg"
    p.write_text(ATLAS.replace(old, new))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 64
    assert f"[{command}].{old.split()[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command, old, new, key", [
    ("lindstedt", "order = 3", "order = 17", "order"),
    ("lindstedt", "order = 3", "order = -1", "order"),
    ("double", "rounds = 1", "rounds = 4", "rounds"),
    ("sweep", "steps = 5", "steps = 5\ndirection = 0", "direction"),
    ("sweep", "steps = 5", "steps = 0", "steps"),
], ids=["lindstedt-order-17", "lindstedt-order-negative", "double-rounds-4",
        "sweep-direction-0", "sweep-steps-0"])
def test_out_of_range_command_value_is_config_error(tmp_path, capsys, command, old,
                                                    new, key):
    p = tmp_path / "bad.cfg"
    p.write_text(GOLDEN.replace(old, new))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 64
    assert f"[{command}].{key}" in capsys.readouterr().err


def test_outputs_honor_umask(golden_cfg, tmp_path):
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["solve", "--config", golden_cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    for name in ("solution.txt", "newton_trace.txt", "manifest.txt"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o644
