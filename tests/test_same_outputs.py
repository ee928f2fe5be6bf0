"""Smoke test of tools/same_outputs.py: one pool slot of this tree against
itself gives the same outputs on every job."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_gives_its_own_outputs(capsys):
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    src = str(ROOT / "src")
    assert tool.main([src, src, "--workload", "certify", "--slot", "decide-preset"]) == 0
    assert capsys.readouterr().out == "48 jobs, 0 differ\n"
