"""Smoke test of tools/opcount.py on one small pool slot: two runs of one
tree count the same instructions, so a tree against itself reads ratio 1."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("opcount", ROOT / "tools" / "opcount.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_two_runs_of_one_tree_count_the_same(capsys):
    tool = load_tool()
    src = ROOT / "src"
    first, second = tool.run_trees([src, src], ["eta-near"], ["eta-squarefree"], functions=True)
    assert first == second
    slots = first["eta-near"]["slots"]
    assert list(slots) == ["eta-squarefree"] and slots["eta-squarefree"] > 0
    assert sum(first["eta-near"]["functions"].values()) == slots["eta-squarefree"]
    assert tool.main([str(src), str(src), "--workload", "eta-near", "--slot", "eta-squarefree"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "eta-near" and len(rows) == 3
    assert all(row.endswith("  1.0000") for row in rows[1:])
