"""Smoke test of tools/same_outputs.py: one pool slot of this tree against
itself gives the same outputs on every job.  And the failure path that it
shares with tools/opcount.py: a tree that cannot be run is named, exit 2."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_tree_gives_its_own_outputs(capsys):
    tool = load_tool("same_outputs")
    src = str(ROOT / "src")
    assert tool.main([src, src, "--workload", "certify", "--slot", "decide-preset"]) == 0
    assert capsys.readouterr().out == "48 jobs, 0 differ\n"


@pytest.mark.parametrize("name", ["same_outputs", "opcount"])
def test_a_tree_without_bfree_is_named_and_exits_2(name, tmp_path, capsys):
    tool = load_tool(name)
    broken = tmp_path / "src"
    broken.mkdir()
    argv = [str(ROOT / "src"), str(broken), "--workload", "eta-near", "--slot", "eta-squarefree"]
    assert tool.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: the tree at {broken} could not be run" in err
