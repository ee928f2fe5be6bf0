"""Start-up: the package loads submodules on first use, with an unchanged
public surface, and defines its record classes without generating their
methods from source text."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bfree

SRC = Path(bfree.__file__).resolve().parent.parent

PUBLIC = sorted(
    """
    BFreeError BadInputError Box ConditionRow ConditionsReport CoprimeFamily CoprimeList
    CoprimeSubscheme CoverCheck Covering CoveringReport DensityProfile Evidence
    Explicit FactorizationError FamilyParseError FamilySpec FixedTranslateReport
    FreeWindow Geometric InconsistencyError InvalidCoverError Lattice NotAZeroWindowError
    NotCoprimeError NotEnoughIdealsError NotPairwiseCoprimeError Primes
    ProductIdeal ProfileRow QuadIdeal QuadraticRing RankDeficientError RectEntry RectTemplate
    Rectangular SearchBudget Shape Static Template TooLargeError UnimodularMap UnknownPresetError
    UnsettledEntryError Verdict ZeroElementError all_zero_windows check_coprime_cover_candidate
    check_covering check_fixed_translate conditions_report coprime_index_subset covered_flags crt
    crt_integers crt_product crt_window_certificate decide density_profile errors
    factor families find_zero_window format_family
    free_window hnf intersect_all is_prime lattices numtheory odd_primes parse_family preset
    primes_up_to principal prove_no_zero_window proximality quadratic split_in_sum syndetic_period
    unit_ideal windows xgcd zero_window_by_crt
    """.split()
)
SUBMODULES = ("errors", "families", "lattices", "numtheory", "proximality", "quadratic", "windows")


def run_fresh(code: str, *args: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


RUN_COMMAND = """
import contextlib, io, json, sys
from bfree import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("bfree"))]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["eta", "--preset", "ex2", "--box", "-3:3,-3:3", "--out", "{out}/eta.csv"],
        ["density", "--preset", "ex2", "--sides", "1,2", "--shift-search", "-2:2,-2:2"],
        ["zero", "--preset", "ex2", "--shape", "0:1x0:1", "--search", "-4:4,-4:4"],
        ["decide", "--preset", "ex2", "--max-side", "1", "--radius", "2"],
    ],
    ids=["eta", "density", "zero", "decide"],
)
def test_commands_never_load_quadratic(tmp_path, argv):
    argv = [a.format(out=tmp_path) for a in argv]
    code, loaded = run_fresh(RUN_COMMAND, *argv)
    assert code == 0
    assert "bfree.quadratic" not in loaded


def test_cli_loads_every_module_it_uses_at_import():
    # a profiler that wraps the functions of the modules loaded before the
    # first command sees every layer the CLI calls
    code = 'import json, sys, bfree.cli; print(json.dumps(sorted(m for m in sys.modules if m.startswith("bfree"))))'
    loaded = run_fresh(code)
    assert loaded == ["bfree"] + [f"bfree.{m}" for m in ("cli", *SUBMODULES) if m != "quadratic"]


def test_import_loads_no_submodule():
    code = 'import json, sys, bfree; print(json.dumps(sorted(m for m in sys.modules if m.startswith("bfree"))))'
    loaded = run_fresh(code)
    assert loaded == ["bfree"]


def test_public_names_are_unchanged_and_resolve_to_their_home_objects():
    assert sorted(bfree.__all__) == PUBLIC
    assert len(PUBLIC) == 84
    for name in PUBLIC:
        value = getattr(bfree, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"bfree.{name}"]
            continue
        home = value.__module__
        assert home in {f"bfree.{m}" for m in SUBMODULES}, name
        assert value is getattr(sys.modules[home], name)
    assert set(dir(bfree)) >= set(PUBLIC)
    with pytest.raises(AttributeError):
        bfree.nope


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from bfree import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC)
    assert all(namespace[name] is getattr(bfree, name) for name in PUBLIC)


CACHE_HOMES = """
import importlib, json, pkgutil, sys
import bfree, bfree.cli
bfree.parse_family("dim 1\\nrect [2]\\n")
loaded = sorted(m for m in sys.modules if m.startswith("bfree"))
caches = []
for info in pkgutil.iter_modules(bfree.__path__):
    mod = importlib.import_module(f"bfree.{info.name}")
    for val in vars(mod).values():
        members = list(vars(val).values()) if isinstance(val, type) else []
        for obj in [val] + members:
            home = getattr(obj, "__module__", None) or ""
            if callable(getattr(obj, "cache_clear", None)) and home.startswith("bfree"):
                caches.append([home, obj.__qualname__])
print(json.dumps([loaded, sorted(caches)]))
"""


def test_every_cache_lives_in_a_module_loaded_at_start_up():
    # a benchmark clears caches it finds in sys.modules before the first
    # command; a cache in a module loaded later would outlive its command
    loaded, caches = run_fresh(CACHE_HOMES)
    assert caches, "no cache found: the walk is broken"
    assert [c for c in caches if c[0] not in loaded] == []


COUNT_EXECS = """
import builtins, dataclasses, json, sys
real, strings = builtins.exec, []

def counting(source, *args, **kwargs):
    if isinstance(source, str):
        strings.append(source)
    return real(source, *args, **kwargs)

builtins.exec = counting
import bfree.cli
builtins.exec = real
records = [
    val.__qualname__
    for name, mod in sys.modules.items() if name.startswith("bfree")
    for val in vars(mod).values()
    if isinstance(val, type) and val.__module__ == name and dataclasses.is_dataclass(val)
]
print(json.dumps([len(strings), records]))
"""


def test_import_builds_at_most_one_function_source_per_record_class():
    # dataclass(frozen=True) execs source text for six methods per class
    # (one batch on 3.13); a record execs only its __init__
    execs, records = run_fresh(COUNT_EXECS)
    assert len(records) == 26
    assert execs <= len(records)


def test_no_module_applies_a_frozen_dataclass_directly():
    # records go through lattices.record, which shares every method but __init__
    found = []
    for path in sorted((SRC / "bfree").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "dataclass":
                if any(kw.arg == "frozen" for kw in node.keywords):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
