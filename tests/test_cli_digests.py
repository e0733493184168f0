import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from kamtori import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"
CONFIGS = TOOL.parent.parent / "configs"
_spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_listing_digests_every_file_then_the_exit_codes(tmp_path):
    tree = {"solve/out/solution.txt": b"K 1\n", "solve/out/manifest.txt": b"seed 0\n",
            "solve/stdout": b"solved\n", "solve/stderr": b"", "solve/exit_code": b"0\n",
            "atlas/out/cells.txt": b"1 0 inside\n", "atlas/stdout": b"",
            "atlas/stderr": b"small divisor\n", "atlas/exit_code": b"3\n"}
    for name, data in tree.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    digests = [f"{_sha(tree[name])}  {name}" for name in sorted(tree)
               if not name.endswith("exit_code")]
    assert cli_digests.listing(tmp_path) == digests + ["exit 3  atlas", "exit 0  solve"]
    assert digests[0].endswith("  atlas/out/cells.txt")
    assert digests[-1].endswith("  solve/stdout")


def test_every_cli_command_is_run_once():
    # atlas runs once in each plane, lindstedt from the flat torus and from a
    # Newton base
    runs = cli_digests.RUNS
    assert sorted(command for _, command, _, _ in runs) == \
        sorted([*cli._COMMANDS, "atlas", "lindstedt"])
    assert len({name for name, _, _, _ in runs}) == len(runs)

    def configs(command):
        return [cli_digests.run_config((CONFIGS / cfg).read_text(), values)
                for _, c, cfg, values in runs if c == command]

    assert ["plane = epsilon" in text for text in configs("atlas")] == [False, True]
    assert [re.search(r"^eps0 = (.*)$", text, re.M)[1] for text in configs("lindstedt")] == \
        ["0", "0.05"]


def test_run_config_sets_one_line_per_key():
    text = "[atlas]\nplane = lambda\nbounds = 0 1 0 1\n"
    assert cli_digests.run_config(text, {"plane": "epsilon"}) == \
        "[atlas]\nplane = epsilon\nbounds = 0 1 0 1\n"
    with pytest.raises(ValueError, match="expected one 'steps' line, found 0"):
        cli_digests.run_config(text, {"steps": "3"})
