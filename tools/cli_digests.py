"""Print a sha256 digest of every output of the CLI commands on the committed configs.

    python tools/cli_digests.py [REPO_DIR]

Runs `solve`, `lindstedt`, `double`, `sweep` and `verify` on
`configs/golden.cfg` and `atlas` on `configs/atlas_lambda.cfg` of REPO_DIR
(default: the repository holding this script), each as
`python -W error -m kamtori.cli` with REPO_DIR/src on PYTHONPATH, in a
temporary directory that holds copies of the configs.  The output tree has
one directory per command, holding `out/` (the command's files) and its
`stdout`, `stderr` and `exit_code`.

Prints one line `<sha256>  <command>/<file>` per file of the tree, sorted by
name, then one line `exit <code>  <command>` per command.  Two checkouts
whose listings are equal wrote the same bytes, printed the same text and
exited alike.

Uses the standard library only.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (("solve", "golden.cfg"), ("lindstedt", "golden.cfg"),
            ("double", "golden.cfg"), ("sweep", "golden.cfg"),
            ("verify", "golden.cfg"), ("atlas", "atlas_lambda.cfg"))


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


def run_commands(repo: Path, work: Path) -> Path:
    """Run each command of COMMANDS in `work`, on copies of the configs there;
    return the root of the output tree, `work`/tree."""
    for cfg in {cfg for _, cfg in COMMANDS}:
        shutil.copy(repo / "configs" / cfg, work / cfg)
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    for command, cfg in COMMANDS:
        out = work / "tree" / command
        out.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "kamtori.cli", command,
             "--config", cfg, "--out", f"tree/{command}/out"],
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
