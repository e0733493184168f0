"""Print a sha256 digest of every output of the CLI commands on the committed configs.

    python tools/cli_digests.py [REPO_DIR]

Runs `solve`, `lindstedt`, `double`, `sweep` and `verify` on
`configs/golden.cfg`, `lindstedt` again with `eps0 = 0.05` (from a Newton
base), and `atlas` on `configs/atlas_lambda.cfg` in its lambda plane and,
with `plane = epsilon` and `bounds = -0.4 0.4 -0.4 0.4`, in its epsilon
plane, of REPO_DIR (default: the repository holding this script).  Each
run is `python -W error -m kamtori.cli` with REPO_DIR/src on PYTHONPATH,
in a temporary directory that holds the run's copy of its config.  The
output tree has one directory per run (RUNS), holding `out/` (the
command's files) and its `stdout`, `stderr` and `exit_code`.

Prints one line `<sha256>  <run>/<file>` per file of the tree, sorted by
name, then one line `exit <code>  <run>` per run.  Two checkouts
whose listings are equal wrote the same bytes, printed the same text and
exited alike.

Uses the standard library only.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# (tree name, command, config, {key: value} set in the run's copy of the config)
RUNS = (*((command, command, "golden.cfg", {})
          for command in ("solve", "lindstedt", "double", "sweep", "verify")),
        ("lindstedt-newton-base", "lindstedt", "golden.cfg", {"eps0": "0.05"}),
        ("atlas", "atlas", "atlas_lambda.cfg", {}),
        ("atlas-epsilon", "atlas", "atlas_lambda.cfg",
         {"plane": "epsilon", "bounds": "-0.4 0.4 -0.4 0.4"}))


def listing(root: Path) -> list[str]:
    """The digest lines of the output tree at `root`: one per file, sorted by
    its path relative to `root`, then one per `exit_code` file, sorted."""
    root = Path(root)
    names = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    digests, exits = [], []
    for name in names:
        data = (root / name).read_bytes()
        if name.endswith("/exit_code"):
            exits.append(f"exit {data.decode().strip()}  {name[:-len('/exit_code')]}")
        else:
            digests.append(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return digests + exits


def run_config(text: str, values: dict) -> str:
    """The config `text` with each `key = ...` line of `values` set to its
    value; ValueError unless the key has exactly one line."""
    for key, value in values.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        if count != 1:
            raise ValueError(f"expected one {key!r} line, found {count}")
    return text


def run_commands(repo: Path, work: Path) -> Path:
    """Make each run of RUNS in `work`, on its copy `<name>.cfg` of its config
    there; return the root of the output tree, `work`/tree."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    for name, command, cfg, values in RUNS:
        copy = work / f"{name}.cfg"
        copy.write_text(run_config((repo / "configs" / cfg).read_text(), values))
        out = work / "tree" / name
        out.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "kamtori.cli", command,
             "--config", copy.name, "--out", f"tree/{name}/out"],
            cwd=work, env=env, capture_output=True)
        (out / "stdout").write_bytes(proc.stdout)
        (out / "stderr").write_bytes(proc.stderr)
        (out / "exit_code").write_text(f"{proc.returncode}\n")
    return work / "tree"


def main(argv: list[str]) -> int:
    repo = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory(prefix="cli-digests-") as work:
        print("\n".join(listing(run_commands(repo, Path(work)))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
