"""The exactness contract end to end: random families go through the CLI's
``decide``, ``report``, ``eta``, ``zero`` and ``density`` in-process
(``bfree.cli.main``), drawn from ``tests/helpers.entries`` (dims 1-3, a
transform half the time) and from the hard families.  For every draw:

* no exception escapes ``main``, and every exit code is 0-3;
* an exit 3 names its breach on stderr: the check that refused, and the
  limit's name, value and the count it met;
* every verdict, of ``decide`` and inside ``report``, passes
  ``perfbench/checks.py``'s ``check_verdict`` (imported read-only, as
  ``tests/test_pool_outputs.py`` does), exact ones included;
* ``eta``'s bits are the per-cell ``spec.covered``;
* a translate that ``zero`` finds has every cell of its shape covered, and
  under a drawn ``--limit-cells`` ``zero`` exits 3 or answers as without it.
"""

import contextlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from bfree import cli
from bfree.families import FamilySpec, format_family, parse_family
from bfree.windows import Box, FreeWindow
from helpers import entries, hard_families, random_unimodular

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402

HALF_SIDE = {1: 20, 2: 4, 3: 2}
BREACH = re.compile(r"limit breached: .+ \(check: [^;]+; limit: \w+ = \d+; count: \d+\)\n")


@st.composite
def families(draw):
    if draw(st.booleans()):
        return draw(hard_families(draw(st.integers(2, 3))))
    m = draw(st.integers(1, 3))
    es = draw(st.lists(entries(m), min_size=1, max_size=3))
    transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m) if draw(st.booleans()) else None
    return FamilySpec(m, tuple(es), transform)


def _run(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert code in (0, 1, 2, 3), argv
    if code == 3:
        assert BREACH.fullmatch(err.getvalue()), (argv, err.getvalue())
    return code, out.getvalue()


def _check_verdict(spec, verdict):
    assert checks.check_verdict(spec, verdict, verdict["status"]) is None, verdict


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=families(), center=st.lists(st.integers(-50, 50), min_size=3, max_size=3), limit=st.integers(1, 1000))
def test_every_command_keeps_the_contract(spec, center, limit):
    text = format_family(spec)
    spec = parse_family(text)
    m, h = spec.dim, HALF_SIDE[spec.dim]
    box = Box(tuple(c - h for c in center[:m]), tuple(c + h for c in center[:m]))
    with tempfile.TemporaryDirectory(prefix="bfree-contract-") as tmp:
        path, out = Path(tmp) / "spec.txt", Path(tmp) / "eta.json"
        path.write_text(text)
        budget = ("--max-side", 2, "--radius", 6)
        code, stdout = _run("decide", "--spec", path, *budget)
        if code == 0:
            verdict = json.loads(stdout)
            event(f"verdict: {verdict['status']}")
            _check_verdict(spec, verdict)
        code, stdout = _run("report", "--spec", path, *budget)
        if code == 0:
            _check_verdict(spec, json.loads(stdout)["verdict"])
        code, _ = _run("eta", "--spec", path, "--box", box.format(), "--format", "json", "--out", out)
        if code == 0:
            window = FreeWindow.from_json_dict(json.loads(out.read_text()))
            assert window.box == box
            assert all(window.get(p) == (not spec.covered(p)) for p in box.points())
        shape = "x".join(["0:1"] * m)
        zero = ("zero", "--spec", path, "--shape", shape, "--search", box.format())
        code, stdout = _run(*zero)
        if code == 0:
            translate = json.loads(stdout)["translate"]
            assert all(spec.covered(tuple(map(sum, zip(translate, p)))) for p in Box((0,) * m, (1,) * m).points())
        # a cell limit refuses the shape or the scan with exit 3, or changes nothing
        limited = _run(*zero, "--limit-cells", limit)
        event(f"zero under --limit-cells: exit {limited[0]}")
        assert limited[0] == 3 or limited == (code, stdout)
        _run("density", "--spec", path, "--sides", "0,1", "--shift-search", box.format())
