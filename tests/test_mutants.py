"""Smoke test of the mutation harness, tools/mutants.py: one mutant, run
against one fast test file in a copy of the package and that file alone
(with tests/conftest.py, which registers the harness's Hypothesis profile),
is killed, and the working tree is left as it was; a mutant whose test
never ends is stopped and reported as a timeout.  The full list runs as
the CI workflow's ``mutants`` job on pull requests."""

import dataclasses
import importlib.util
import shutil
from pathlib import Path

from hypothesis import Phase, settings

ROOT = Path(__file__).resolve().parent.parent


def load_harness():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_exactly_once():
    mutants = load_harness()
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert all((ROOT / t).is_file() for t in m.tests), m.name


def test_a_mutant_is_killed_in_a_copy(tmp_path):
    mutants = load_harness()
    mutant = next(m for m in mutants.MUTANTS if m.name == "outside-any-to-all")
    mutant = dataclasses.replace(mutant, tests=("tests/test_certificate_snapshots.py",))
    before = (ROOT / mutant.path).read_text()
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "tests/conftest.py", *mutant.tests, "tests/data/certificate_snapshots.json"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, tmp_path / name)
    assert mutants.run_mutant(mutant, tmp_path)[0] == "killed"
    assert (ROOT / mutant.path).read_text() == before
    assert (tmp_path / mutant.path).read_text() == before


def test_a_mutant_that_never_ends_is_stopped(tmp_path):
    mutants = load_harness()
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    shutil.copy2(ROOT / "tests" / "conftest.py", tmp_path / "tests" / "conftest.py")
    (tmp_path / "src" / "spin.py").write_text("FOREVER = False\n")
    (tmp_path / "tests" / "test_spin.py").write_text(
        "import spin\n\n\ndef test_spin():\n    while spin.FOREVER:\n        pass\n"
    )
    mutant = mutants.Mutant("spin", "src/spin.py", "FOREVER = False", "FOREVER = True", ("tests/test_spin.py",))
    outcome, seconds = mutants.run_mutant(mutant, tmp_path, timeout=2)
    assert outcome == "timeout" and seconds >= 2
    assert (tmp_path / "src" / "spin.py").read_text() == "FOREVER = False\n"


def test_the_mutants_profile_stops_at_the_first_failure():
    profile = settings.get_profile("mutants")
    assert Phase.shrink not in profile.phases and Phase.generate in profile.phases
    assert profile.database is None


def test_the_mutants_profile_draws_the_same_examples_on_every_run():
    assert settings.get_profile("mutants").derandomize
