import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_cost.py"
_spec = importlib.util.spec_from_file_location("step_cost", TOOL)
step_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_cost)


def test_one_line_per_piece_of_a_golden_step(capsys):
    assert step_cost.main(["--repeats", "1", "--kmax", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(step_cost.PIECES)
    for line in lines:
        match = re.fullmatch(r"(\w+) +golden +kmax +16 +(\d+\.\d) us", line)
        assert match and float(match[2]) > 0, line
