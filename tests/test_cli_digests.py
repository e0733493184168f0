import hashlib
import importlib.util
from pathlib import Path

from kamtori import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"
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
    assert sorted(command for command, _ in cli_digests.COMMANDS) == sorted(cli._COMMANDS)
