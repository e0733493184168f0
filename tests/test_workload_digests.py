import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "workload_digests.py"
_spec = importlib.util.spec_from_file_location("workload_digests", TOOL)
workload_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workload_digests)


def test_two_runs_on_the_small_inputs_print_equal_listings(capsys):
    args = ["--small", "--golden", "100", "--breakdown", "200"]
    outs = []
    for _ in range(2):
        assert workload_digests.main(args) == 0
        outs.append(capsys.readouterr().out.splitlines())
    assert outs[0] == outs[1]
    # golden: 4 tori and the two jets; breakdown: 3 tori on each of 2 paths
    names = [re.fullmatch(r"[0-9a-f]{64}  (.*)", line)[1] for line in outs[0]]
    assert names == [f"golden seed 100 variant 0 {o}"
                     for o in ("torus[0]", "torus[1]", "torus[2]", "torus[3]", "expanded",
                               "doubled")] + \
        [f"breakdown seed 200 variant {v} torus[{i}]" for v in (0, 1) for i in range(3)]
