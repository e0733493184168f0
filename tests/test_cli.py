import inspect
import io
import os
import re
import stat
import textwrap
from pathlib import Path

import pytest

from kamtori import atlas, cli
from kamtori.atlas import SweepResult, SweepStep, sweep_table
from kamtori.cli import main
from kamtori.config import load_config
from kamtori.errors import FrameSingular, KamtoriError, NoConvergence
from kamtori.lindstedt import dump_jet, load_jet
from kamtori.newton import dump_solution, load_solution, run_newton

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    text = Path(out, "verify.txt").read_text()
    assert "FAIL" not in text
    assert "PASS" in text


def test_verify_fails_a_wrong_cohomology_solve(golden_cfg, tmp_path, monkeypatch, capsys):
    # the residual check reads the grid solve the program runs: a phi off by
    # a relative 1e-9 leaves a residual of about 1e-9, above its 1e-12 bound
    solve = cli.solve_twisted_grid

    def scaled(*args, **kwargs):
        phi, gain = solve(*args, **kwargs)
        return phi * (1 + 1e-9), gain

    monkeypatch.setattr(cli, "solve_twisted_grid", scaled)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", golden_cfg, "--out", out]) == 1
    assert "FAIL cohomology-residual" in capsys.readouterr().out
    assert "FAIL cohomology-residual" in Path(out, "verify.txt").read_text()


def test_missing_omega_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[family]\nname = dissipative_standard\n")
    code = main(["solve", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 64
    assert "omega" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["family", "frequency", "solver", "goodset", "solve",
                                     "lindstedt", "double", "sweep", "atlas"])
def test_unknown_key_rejected(tmp_path, capsys, section):
    p = tmp_path / "bad.cfg"
    p.write_text(ATLAS.replace(f"[{section}]\n", f"[{section}]\nwarp = 9\n"))
    code = main(["solve", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 64
    err = capsys.readouterr().err
    assert "'warp'" in err and f"[{section}]" in err


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
    manifest = Path(out, "manifest.txt").read_text()
    assert "solution.txt" in manifest
    assert "config-sha256" in manifest


def test_reproducible_outputs(golden_cfg, tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["lindstedt", "--config", golden_cfg, "--out", out1]) == 0
    assert main(["lindstedt", "--config", golden_cfg, "--out", out2]) == 0
    for name in ("jet.txt", "residual_orders.txt", "manifest.txt"):
        a = Path(out1, name).read_text()
        b = Path(out2, name).read_text()
        assert a == b


def test_double_command(golden_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["double", "--config", golden_cfg, "--out", out]) == 0
    head = Path(out, "jet.txt").read_text().splitlines()[0]
    assert "order=3" in head


@pytest.mark.parametrize("command, name, load, dump", [
    ("solve", "solution.txt", load_solution, dump_solution),
    ("double", "jet.txt", load_jet, dump_jet),
], ids=["solve", "double"])
def test_output_file_reloads_to_its_bytes(tmp_path, command, name, load, dump):
    # loading a written file and writing it again gives its bytes back
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / "golden.cfg"), "--out", str(out)]) == 0
    text = (out / name).read_text()
    with open(out / name) as fp:
        back = load(fp)
    buf = io.StringIO()
    dump(back, buf)
    assert buf.getvalue() == text


def test_sweep_command(golden_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", golden_cfg, "--out", out]) == 0
    lines = Path(out, "sweep.txt").read_text().strip().splitlines()
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
    assert "divisor" in Path(out, "sweep.txt").read_text()


def test_atlas_command(tmp_path):
    p = tmp_path / "atlas.cfg"
    p.write_text(ATLAS)
    out = str(tmp_path / "out")
    assert main(["atlas", "--config", str(p), "--out", out]) == 0
    for name in ("cells.txt", "balls.txt", "atlas.svg", "nu_trace.txt",
                 "manifest.txt"):
        assert os.path.exists(os.path.join(out, name))
    cells = Path(out, "cells.txt").read_text()
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
    ("lindstedt", "order = 3", "order = 33", "order"),
    ("lindstedt", "order = 3", "order = -1", "order"),
    ("double", "rounds = 1", "rounds = 5", "rounds"),
    ("sweep", "steps = 5", "steps = 0", "steps"),
    ("atlas", "resolution = 24 24", "resolution = 0 0", "resolution"),
    ("atlas", "resolution = 24 24", "resolution = 24 0", "resolution"),
    ("atlas", "ball_kmax = 256", "ball_kmax = -1", "ball_kmax"),
    ("atlas", "ball_kmax = 256", "ball_kmax = 0", "ball_kmax"),
    ("atlas", "rho_band = 0.05", "rho_band = 0", "rho_band"),
    ("atlas", "rho_band = 0.05", "rho_band = inf", "rho_band"),
    ("atlas", "rho_band = 0.05", "rho_band = 0.05\nradius_scale = -1", "radius_scale"),
    ("solve", "eps = 0.0", "eps = nan", "eps"),
    ("atlas", "bounds = 0.9 1.1 -0.1 0.1", "bounds = 0.9 inf -0.1 0.1", "bounds"),
    # finite bounds whose widths overflow
    ("atlas", "bounds = 0.9 1.1 -0.1 0.1", "bounds = -1e308 1e308 -1e308 1e308", "bounds"),
    ("atlas", "bounds = 0.9 1.1 -0.1 0.1", "bounds = 0.9 1.1 -1e308 1e308", "bounds"),
    # finite widths whose image height 640 (im1 - im0) / (re1 - re0) overflows
    ("atlas", "bounds = 0.9 1.1 -0.1 0.1", "bounds = 0.9 0.9000000000000001 -1e300 1e300",
     "bounds"),
    # the largest ball radius rho_band^(N+1) / A overflows
    ("atlas", "rho_band = 0.05", "rho_band = 1e200", "rho_band"),
    ("atlas", "rho_band = 0.05", "rho_band = 1e300", "rho_band"),
], ids=["lindstedt-order-33", "lindstedt-order-negative", "double-rounds-5",
        "sweep-steps-0", "atlas-resolution-0-0",
        "atlas-resolution-24-0", "atlas-ball-kmax-negative", "atlas-ball-kmax-0",
        "atlas-rho-band-0", "atlas-rho-band-inf", "atlas-radius-scale-negative",
        "solve-eps-nan", "atlas-bounds-inf", "atlas-bounds-width-overflows",
        "atlas-bounds-height-overflows", "atlas-bounds-image-height-overflows",
        "atlas-rho-band-1e200", "atlas-rho-band-1e300"])
def test_out_of_range_command_value_is_config_error(tmp_path, capsys, command, old,
                                                    new, key):
    p = tmp_path / "bad.cfg"
    p.write_text(ATLAS.replace(old, new))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 64
    assert f"[{command}].{key}" in capsys.readouterr().err


@pytest.mark.parametrize("edits, key", [
    # end - start is -inf, so every point but the start is nan
    ({"start = 0.01": "start = 1e308", "end = 0.1": "end = -1e308"}, "end"),
], ids=["span-overflows"])
def test_a_sweep_path_that_is_not_finite_is_config_error(tmp_path, capsys, edits, key):
    text = GOLDEN
    for old, new in edits.items():
        text = text.replace(old, new)
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 64
    assert f"[sweep].{key}: the sweep path is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (None, r"config error: \[Errno 2\] No such file or directory: '.*missing\.cfg'"),
    ("kappa = 0.5\n", r"config error: .*missing\.cfg: File contains no section headers\."),
    ("[frequency]\nomega = golden\n", r"config error: .*missing\.cfg: missing section \[family\]"),
], ids=["missing-file", "no-section-header", "no-family"])
def test_a_config_file_that_cannot_be_read_is_config_error(tmp_path, capsys, text,
                                                           message):
    p = tmp_path / "missing.cfg"
    if text is not None:
        p.write_text(text)
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 64
    assert re.match(message, capsys.readouterr().err)


def test_an_eps_of_three_numbers_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(GOLDEN.replace("eps = 0.0", "eps = 1 2 3"))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 64
    assert capsys.readouterr().err == (f"config error: {p}[solve].eps: invalid value "
                                       "'1 2 3' (expected 1 or 2 numbers, got 3)\n")


def test_outputs_honor_umask(golden_cfg, tmp_path):
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["solve", "--config", golden_cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    for name in ("solution.txt", "newton_trace.txt", "manifest.txt"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o644


@pytest.mark.parametrize("fails", ["write", "rename"])
def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch, fails):
    def refuse(*args):
        raise OSError("rename refused")

    if fails == "rename":
        monkeypatch.setattr(os, "replace", refuse)
    # a text that is not a str makes the write raise TypeError
    with pytest.raises(TypeError if fails == "write" else OSError):
        cli._atomic_write(str(tmp_path / "out.txt"), 1 if fails == "write" else "table\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, edits, where", [
    ("solve", {"A = 0.5": "A = -1"}, "[goodset].A"),
    ("solve", {"N = 2": "N = -1"}, "[goodset].N"),
    ("solve", {"r0 = 0.3": "r0 = 0"}, "[goodset].r0"),
    ("verify", {"kscan = 2048": "kscan = 0"}, "[goodset].kscan"),
    ("solve", {"kmax = 32": "kmax = -3"}, "[solver].kmax"),
    ("solve", {"kmax = 32": "kmax = 0"}, "[solver].kmax"),
    # rho and delta0 are not [solver] keys
    ("solve", {"tol = 1e-12": "tol = 1e-12\nrho = 0.1"}, "[solver]: unknown key 'rho'"),
    # a sweep runs from start to end; direction is not a [sweep] key
    ("sweep", {"steps = 5": "steps = 5\ndirection = 1"}, "[sweep]: unknown key 'direction'"),
    ("solve", {"tol = 1e-12": "tol = 1e-12\ndivisor_floor = -1"},
     "[solver].divisor_floor"),
    ("solve", {"tol = 1e-12": "tol = 1e-12\ndelta0 = 0.025"},
     "[solver]: unknown key 'delta0'"),
    ("solve", {"max_iter = 20": "max_iter = -1"}, "[solver].max_iter"),
    ("solve", {"tol = 1e-12": "tol = -1"}, "[solver].tol"),
    ("solve", {"omega = golden": "omega = 1/0"}, "[frequency].omega"),
    ("solve", {"omega = golden": "omega = golden golden"}, "[frequency].omega"),
    ("solve", {"omega = golden": "omega = nan"}, "[frequency].omega"),
    ("solve", {"omega = golden": "omega = 1/" + "1" * 400}, "[frequency].omega"),
    ("atlas", {"tau = 1.0": "tau = -1"}, "[frequency].tau"),
    ("solve", {"a = 1": "a = 0"}, "[family].a"),
    ("solve", {"kappa = 0.5": "kappa = nan"}, "[family].kappa"),
    ("atlas", {"alpha = 1.0": "alpha = 0", "plane = lambda": "plane = epsilon"},
     "[family].alpha"),
    ("atlas", {"bounds = 0.9 1.1": "bounds = 1.0 1.0"}, "[atlas].bounds"),
    ("atlas", {"bounds = 0.9 1.1": "bounds = 1.1 0.9"}, "[atlas].bounds"),
    ("atlas", {"-0.1 0.1": "0.1 -0.1"}, "[atlas].bounds"),
], ids=["goodset-A-negative", "goodset-N-negative", "goodset-r0-0", "goodset-kscan-0",
        "solver-kmax-negative", "solver-kmax-0", "solver-rho-unknown",
        "sweep-direction-unknown",
        "solver-divisor-floor-negative", "solver-delta0-unknown",
        "solver-max-iter-negative", "solver-tol-negative", "frequency-omega-1/0",
        "frequency-omega-2-components", "frequency-omega-nan", "frequency-omega-overflow",
        "frequency-tau-negative", "family-a-0", "family-kappa-nan", "family-alpha-0",
        "atlas-bounds-empty", "atlas-bounds-re-reversed", "atlas-bounds-im-reversed"])
def test_out_of_range_run_value_is_config_error(tmp_path, capsys, command, edits, where):
    text = ATLAS
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 64
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("key", ["A", "N", "r0"])
def test_missing_goodset_key_is_config_error(tmp_path, capsys, key):
    lines = [l for l in ATLAS.splitlines() if not l.startswith(f"{key} = ")]
    p = tmp_path / "bad.cfg"
    p.write_text("\n".join(lines) + "\n")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 64
    assert f"[goodset].{key}" in capsys.readouterr().err


@pytest.mark.parametrize("command, dropped, where", [
    ("solve", ("eps = ",), "[solve].eps"),
    ("atlas", ("[goodset]", "A = ", "N = ", "r0 = ", "kscan = "), "[goodset]"),
], ids=["solve", "atlas"])
def test_command_config_error_names_the_file(tmp_path, capsys, command, dropped, where):
    # keys that only one command needs are checked by the command itself
    lines = [l for l in ATLAS.splitlines() if not l.startswith(dropped)]
    p = tmp_path / "bad.cfg"
    p.write_text("\n".join(lines) + "\n")
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 64
    assert f"{p}{where}: " in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_committed_config_loads(path):
    cfg = load_config(path)
    assert cfg.omega.size == cfg.family.dim


def test_an_epsilon_plane_atlas_whose_lam_overflows_runs(tmp_path, capsys):
    # lam(eps) = 1 + eps^3 overflows on every cell of these bounds; computing it
    # used to warn, a traceback under warnings-as-errors
    text = (CONFIGS / "atlas_lambda.cfg").read_text()
    for old, new in {"plane = lambda": "plane = epsilon",
                     "bounds = 0.85 1.15 -0.15 0.15": "bounds = 0 1e120 0 1e120"}.items():
        assert old in text
        text = text.replace(old, new)
    p = tmp_path / "atlas.cfg"
    p.write_text(text)
    assert main(["atlas", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "atlas epsilon: inside=0 excluded=0 outside-r0=25600, 78 balls"


CONFIG_TEXTS = {**{p.name: p.read_text() for p in sorted(CONFIGS.glob("*.cfg"))},
                "GOLDEN": GOLDEN, "ATLAS": ATLAS}


@pytest.mark.parametrize("name", sorted(CONFIG_TEXTS))
def test_newton_hand_off_names_run_newton_parameters(tmp_path, name):
    # a keyword dropped from run_newton but kept in the config (or the
    # reverse) would otherwise fail only when a command runs
    p = tmp_path / "run.cfg"
    p.write_text(CONFIG_TEXTS[name])
    keys = set(load_config(p).newton)
    assert keys <= set(inspect.signature(run_newton).parameters)


# -- failures through solve and sweep, on configs/golden.cfg ----------------------------

GOODSET = "[goodset]\nA = 0.5\nN = 2\nr0 = 0.3\nkscan = 4096\n"
# a good set that excludes lam(0.05) at mode 144
NARROW = {"tau = 1.0": "tau = 0.1", "A = 0.5": "A = 0.01", "N = 2": "N = 1"}


def _at(eps):
    """Edits that put the solve and a one-point sweep at eps."""
    return {"eps = 0.0": f"eps = {eps}", "start = 0.01": f"start = {eps}",
            "end = 0.25": f"end = {eps}", "steps = 13": "steps = 1"}


def _golden(tmp_path, command, edits, *flags, out=None):
    """Run `command` on configs/golden.cfg with the text edits; the exit code."""
    text = (CONFIGS / "golden.cfg").read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    p = tmp_path / "golden.cfg"
    p.write_text(text)
    return main([command, "--config", str(p), "--out", str(tmp_path / (out or command)),
                 *flags])


def _last_sweep_row(tmp_path):
    return (tmp_path / "sweep" / "sweep.txt").read_text().splitlines()[-1].split()


@pytest.mark.parametrize("edits, code, message, status", [
    # the residual grows past its start at the 3rd and 4th evaluations
    ({"kappa = 0.5": "kappa = 1", "alpha = 1.0": "alpha = 0.01", GOODSET: "", **_at(3.0)},
     5, "diverged: diverged after 4 evaluations (", "diverged"),
    ({"max_iter = 20": "max_iter = 0", **_at(0.05)},
     4, "no convergence: no convergence after 0 iterations", "no-convergence"),
], ids=["diverged", "no-convergence"])
def test_solve_and_sweep_report_a_failure_alike(tmp_path, capsys, edits, code, message,
                                                status):
    assert _golden(tmp_path, "solve", edits) == code
    assert capsys.readouterr().err.startswith(message)
    assert _golden(tmp_path, "sweep", edits) == code
    assert _last_sweep_row(tmp_path)[2] == status


def test_sweep_no_convergence_row_holds_the_last_residual(tmp_path):
    edits = {"max_iter = 20": "max_iter = 0", "steps = 13": "steps = 1"}
    assert _golden(tmp_path, "sweep", edits) == 4
    cfg = load_config(tmp_path / "golden.cfg")
    K0, mu0 = cfg.family.unperturbed_torus(cfg.omega, cfg.kmax)
    with pytest.raises(NoConvergence) as err:
        run_newton(cfg.family, K0, mu0, cfg.omega, 0.01, max_iter=0)
    assert float(_last_sweep_row(tmp_path)[3]) == err.value.trace[-1]


@pytest.mark.parametrize("edits, flags, code, status", [
    ({**NARROW, "kscan = 4096": "kscan = 1"}, (), 0, "ok"),
    (NARROW, ("--force",), 0, "ok"),
    ({"divisor_floor = 1e-12": "divisor_floor = 0.1"}, (), 3, "divisor"),
], ids=["kscan", "force", "divisor-floor"])
def test_one_point_sweep_solves_as_solve_does(tmp_path, capsys, edits, flags, code,
                                              status):
    edits = {**edits, **_at(0.05)}
    assert _golden(tmp_path, "solve", edits, *flags) == code
    solve_err = capsys.readouterr().err
    assert _golden(tmp_path, "sweep", edits, *flags) == code
    assert _last_sweep_row(tmp_path)[2] == status
    if code:
        k = solve_err.split("k=(")[1].split(",)")[0]
        assert _last_sweep_row(tmp_path)[-1].endswith(f"_k={k}")


def test_lindstedt_base_solve_passes_the_good_set_gate(tmp_path, capsys):
    edits = {**NARROW, "eps0 = 0": "eps0 = 0.05"}
    assert _golden(tmp_path, "lindstedt", edits) == 3
    err = capsys.readouterr().err
    assert err.startswith("small divisor: ") and "k=(144,)" in err
    assert _golden(tmp_path, "lindstedt", edits, "--force", out="forced") == 0
    assert _golden(tmp_path, "lindstedt", {GOODSET: "", "eps0 = 0": "eps0 = 0.05"},
                   out="ungated") == 0
    assert ((tmp_path / "forced" / "jet.txt").read_bytes()
            == (tmp_path / "ungated" / "jet.txt").read_bytes())


@pytest.mark.parametrize("command", ["lindstedt", "double"])
def test_an_overflowing_jet_order_is_named(tmp_path, capsys, command):
    # with kappa 1e200 order 1 is about 1e199 and order 2 overflows: each engine
    # names that order (the expansion by its right-hand side, the doubling by
    # the residual of its input jet) instead of failing in a solve
    assert _golden(tmp_path, command, {"kappa = 0.5": "kappa = 1e200"}) == 6
    err = capsys.readouterr().err
    assert err.startswith("jet overflow: order 2 of the jet is not finite: its ")
    assert not (tmp_path / command / "jet.txt").exists()


def test_doubling_names_an_inexact_input_order(tmp_path, capsys):
    # with kappa 1e100 order 1 is about 1e99, so its roundoff on the grid is far
    # above BASE_TOL: the doubling refuses the jet naming that order, its
    # residual and the tolerance, with its own exit code instead of a traceback
    assert _golden(tmp_path, "double", {"kappa = 0.5": "kappa = 1e100"}) == 7
    err = capsys.readouterr().err
    assert re.fullmatch(r"inexact jet: input order 1 is not exact: its residual reaches "
                        r"\S+e\+\d+ on the grid, above 1\.0e-10\n", err)
    assert not (tmp_path / "double" / "jet.txt").exists()


def test_lindstedt_at_eps0_refuses_a_tol_above_the_base_tolerance(tmp_path, capsys):
    # the expansion at eps0 != 0 needs a base residual <= lindstedt.BASE_TOL, so
    # a looser [solver] tol is refused before any solve; at BASE_TOL it runs
    edits = {"eps0 = 0": "eps0 = 0.05"}
    assert _golden(tmp_path, "lindstedt", {**edits, "tol = 1e-12": "tol = 1e-8"}) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {tmp_path / 'golden.cfg'}[solver].tol: ")
    assert "exact base" in err
    assert _golden(tmp_path, "lindstedt", {**edits, "tol = 1e-12": "tol = 1e-10"}) == 0


def test_lindstedt_at_a_huge_eps0_reports_a_degenerate_block(tmp_path, capsys):
    # at eps0 = 1e300 the averaged block holds entries near 1e300: its check
    # names the failure instead of overflowing
    assert _golden(tmp_path, "lindstedt", {"eps0 = 0": "eps0 = 1e300"}, "--force") == 2
    assert capsys.readouterr().err.startswith("non-degeneracy failure: ")


def test_solve_at_a_huge_eps_is_refused_by_the_gate_without_a_warning(tmp_path, capsys):
    # |lam(1e300) - 1|^3 overflows to inf, so the witness floor is inf; the
    # suite turns warnings into errors, so an overflow warning fails here
    assert _golden(tmp_path, "solve", {"eps = 0.0": "eps = 1e300"}) == 3
    assert re.fullmatch(r"small divisor: divisor 1\.000e\+300 at mode k=\(1,\) "
                        r"below floor inf\n", capsys.readouterr().err)


@pytest.mark.parametrize("command, edits, key", [
    ("solve", {"alpha = 1.0": "alpha = 1e308", "eps = 0.0": "eps = 10"}, "[solve].eps"),
    ("solve", {"\na = 1\n": "\na = 1000000\n", "eps = 0.0": "eps = 2"}, "[solve].eps"),
    ("lindstedt", {"alpha = 1.0": "alpha = 1e308", "eps0 = 0": "eps0 = 10"},
     "[lindstedt].eps0"),
    ("sweep", {"alpha = 1.0": "alpha = 1e308", "start = 0.01": "start = 10"},
     "[sweep].start"),
    ("sweep", {"alpha = 1.0": "alpha = 1e308", "end = 0.25": "end = 10"}, "[sweep].end"),
    ("sweep", {"\na = 1\n": "\na = 1000000\n", "end = 0.25": "end = 2"}, "[sweep].end"),
], ids=["solve-alpha", "solve-a", "lindstedt-alpha", "sweep-start", "sweep-end",
        "sweep-end-a"])
def test_a_lam_that_overflows_is_config_error(tmp_path, capsys, command, edits, key):
    # lam(eps) = 1 + alpha eps^a is not finite at a finite eps: each command used
    # to warn and report a divergence with residual nan, exit 5
    assert _golden(tmp_path, command, edits, "--force") == 64
    assert capsys.readouterr().err == (f"config error: {tmp_path / 'golden.cfg'}{key}: "
                                       "lam(eps) = 1 + alpha eps^a is not finite\n")


@pytest.mark.parametrize("command, target", [("solve", cli), ("sweep", atlas)])
def test_a_singular_frame_has_its_own_exit_code(tmp_path, capsys, monkeypatch,
                                                command, target):
    def singular(*args, **kwargs):
        raise FrameSingular("DK^T DK is singular or not finite at 1 of 200 grid points")

    monkeypatch.setattr(target, "run_newton", singular)
    assert _golden(tmp_path, command, {}) == 8
    if command == "solve":
        assert capsys.readouterr().err.startswith("frame singular: DK^T DK is singular")
    else:
        assert _last_sweep_row(tmp_path)[2] == "frame-singular"


def _error_classes(cls=KamtoriError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


def test_each_error_class_names_its_exit_code_and_sweep_status():
    codes = [cls.exit_code for cls in _error_classes() if "exit_code" in vars(cls)]
    assert len(set(codes)) == len(codes) and 0 not in codes
    for cls in _error_classes():
        assert cls.status != "ok"
        buf = io.StringIO()
        sweep_table(SweepResult((SweepStep(0.1, cls.status, float("nan"), None),),
                                False, 0.0, ()), buf)
        assert buf.getvalue().splitlines()[-1].split()[2] == cls.status
