import argparse
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bfree import cli, proximality, windows
from bfree.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EX2_CLOSED_FORM = lambda n, m: n % 2 == 1 and m % 2 == 1 and abs(m - n) == 2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eta_pgm_ex2(tmp_path, capsys):
    out = tmp_path / "w.pgm"
    code, stdout, _ = run(
        capsys, "eta", "--preset", "ex2", "--box", "-10:10,-10:10", "--format", "pgm",
        "--out", str(out),
    )
    assert code == 0
    ones = sum(
        1 for x in range(-10, 11) for y in range(-10, 11) if EX2_CLOSED_FORM(x, y)
    )
    assert stdout.strip() == f"ones={ones} cells=441"
    text = out.read_text().splitlines()
    assert text[0] == "P2" and text[1] == "21 21" and text[2] == "1"


def test_eta_csv_ex1(tmp_path, capsys):
    out = tmp_path / "w.csv"
    code, stdout, _ = run(
        capsys, "eta", "--preset", "ex1", "--box", "-6:6,-6:6", "--format", "csv",
        "--out", str(out),
    )
    assert code == 0
    # ones at {-2,0,2} x odd: 3 columns x 6 odd rows
    assert stdout.strip() == "ones=18 cells=169"
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 13
    # row 0 is y=6 (even): all zero
    assert set(rows[0].split(",")) == {"0"}


def test_eta_empty_family_all_ones(tmp_path, capsys):
    spec = tmp_path / "empty.fam"
    spec.write_text("dim 2\n")
    out = tmp_path / "w.csv"
    code, stdout, _ = run(
        capsys, "eta", "--spec", str(spec), "--box", "0:3,0:3", "--out", str(out)
    )
    assert code == 0
    assert stdout.strip() == "ones=16 cells=16"


def test_eta_parse_error_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_text("dim 2\nstatic [[1,0],[0,1]]\n")
    code, _, err = run(capsys, "eta", "--spec", str(bad), "--box", "0:1,0:1")
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", ["decide", "report"])
def test_identity_base_template_answers_as_its_recttemplate(tmp_path, capsys, command):
    # one family in two spellings: the same bytes, from the coprime family
    outputs = []
    for name, line in [
        ("template", "template base=[[1,0],[0,1]] scale=(1,1) params=primes"),
        ("recttemplate", "recttemplate [t,1] params=primes"),
    ]:
        spec = tmp_path / f"{name}.fam"
        spec.write_text(f"dim 2\n{line}\n")
        outputs.append(run(capsys, command, "--spec", str(spec)))
    assert outputs[0] == outputs[1]
    code, stdout, _ = outputs[0]
    assert code == 0 and '"status": "Proximal"' in stdout
    rule = "members diag(t, 1) over all primes: distinct prime parameters give pairwise coprime members"
    assert f'"rule": "{rule}"' in stdout


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("dim 2\nrect [2,1,3]\n", 2),
        ("dim 2\nrecttemplate [t] params=primes\n", 2),
        ("dim 2\ntransform [[1]]\n", 2),
        ("dim 1\nrect [2]\ndim 2\nrect [2,1]\n", 3),
        ("dim 0\n", 1),
        ("dim 2\nrect [2.5,1]\n", 2),
    ],
)
def test_decide_spec_file_bad_input_exit2(tmp_path, capsys, text, line_no):
    spec = tmp_path / "bad.fam"
    spec.write_text(text)
    code, stdout, err = run(capsys, "decide", "--spec", str(spec))
    assert code == 2 and stdout == ""
    assert err.startswith(f"bad input: line {line_no}: ")


def test_eta_limit_exit3(capsys):
    code, _, err = run(
        capsys, "eta", "--preset", "ex2", "--box", "-50:50,-50:50", "--limit-cells", "100"
    )
    assert code == 3
    assert "limit" in err


def test_eta_limit_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BFREE_LIMIT_CELLS", "100")
    code, _, _ = run(capsys, "eta", "--preset", "ex2", "--box", "-50:50,-50:50")
    assert code == 3


@pytest.mark.parametrize("command", ["decide", "report"])
def test_evidence_search_obeys_the_cell_limit(command, capsys, monkeypatch):
    code, _, err = run(capsys, command, "--preset", "ex2", "--limit-cells", "10")
    assert code == 3
    assert "cell limit" in err
    monkeypatch.setenv("BFREE_LIMIT_CELLS", "10")
    code, _, _ = run(capsys, command, "--preset", "ex2")
    assert code == 3


def test_report_checks_every_evidence_side_before_it_sieves(capsys, monkeypatch):
    # side 303 is the first whose 33 x 33 translates times (k + 1)^2 cells
    # pass the default cell limit; no side is sieved before that is known
    sieved = []
    monkeypatch.setattr(windows, "covered_flags", lambda *args: sieved.append(args))
    code, stdout, err = run(capsys, "report", "--preset", "ex2", "--max-side", "400")
    assert code == 3 and stdout == ""
    assert err == (
        "limit breached: scan exceeds the cell limit"
        " (check: zero-window scan; limit: cell_limit = 100000000; count: 100641024)\n"
    )
    assert sieved == []


def test_zero_trivial_single_cell(capsys):
    code, stdout, _ = run(capsys, "zero", "--preset", "ex2", "--shape", "0:0x0:0")
    assert code == 0
    payload = json.loads(stdout)
    assert "translate" in payload and "period" in payload


def test_zero_crt_rect_demo(capsys):
    code, stdout, _ = run(
        capsys, "zero", "--preset", "rect-demo", "--shape", "0:1x0:0", "--crt"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["period"] == [[6, 0], [0, 6]]
    x, y = payload["translate"]
    assert x % 2 == 0 and y % 2 == 0 and (x + 1) % 3 == 0 and y % 3 == 0


def test_zero_crt_takes_non_diagonal_members(capsys):
    # ex1's members of index <= 2000 hold one diagonal lattice, Z x 2Z; the
    # second cell comes from {x = y mod 2}, which is coprime to it
    code, stdout, _ = run(capsys, "zero", "--preset", "ex1", "--shape", "0:1x0:0", "--crt")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["translate"] == [1, 0]
    assert payload["period"] == [[2, 0], [0, 2]]
    assert payload["certificate"]["lattices"] == [[[1, 0], [0, 2]], [[1, 1], [0, 2]]]


def test_zero_periodic_exact_negative(tmp_path, capsys):
    spec = tmp_path / "geom.fam"
    spec.write_text("dim 2\nrecttemplate [t,3] params=geometric:2\n")
    code, _, err = run(
        capsys, "zero", "--spec", str(spec), "--shape", "0:1x0:0", "--periodic-exact"
    )
    assert code == 1
    assert "exact: no zero translate exists" in err


def test_zero_periodic_exact_falls_back_past_the_period_limit(tmp_path, capsys):
    spec = tmp_path / "big.fam"
    spec.write_text("dim 2\nrect [1009,1]\nrect [1,1013]\n")
    code, stdout, err = run(
        capsys, "zero", "--spec", str(spec), "--shape", "0:0x0:1", "--periodic-exact"
    )
    assert code == 0
    assert "a period of 1022117 cosets" in err
    assert "above the limit of 1000000; falling back to the bounded search" in err
    x, _ = json.loads(stdout)["translate"]
    assert x % 1009 == 0


def test_zero_periodic_exact_reads_the_verdict_without_evidence_scans(capsys, monkeypatch):
    # ex1 is Inconclusive: decide's zero-window evidence would scan a 33 x 33
    # box per side, past --limit-cells, for a certificate the command never reads
    scans = []
    sieve = proximality._Sieve

    def counting(*args):
        scans.append(args)
        return sieve(*args)

    monkeypatch.setattr(proximality, "_Sieve", counting)
    code, stdout, _ = run(
        capsys, "zero", "--preset", "ex1", "--shape", "0:1x0:1", "--periodic-exact",
        "--search", "0:3,0:3", "--limit-cells", "2000",
    )
    assert code == 0
    assert json.loads(stdout) == {"translate": [3, 0], "period": [[8, 0], [0, 2]]}
    assert scans == []


def test_zero_not_found_plain_scan(tmp_path, capsys):
    spec = tmp_path / "even.fam"
    spec.write_text("dim 2\nrect [2,2]\n")
    code, _, err = run(
        capsys, "zero", "--spec", str(spec), "--shape", "0:1x0:0", "--search", "-4:4,-4:4"
    )
    assert code == 1
    assert "not a nonexistence proof" in err


def test_zero_limit_cells_exit3(capsys):
    code, stdout, err = run(
        capsys, "zero", "--preset", "ex2", "--shape", "0:1x0:1", "--limit-cells", "1000"
    )
    assert code == 3 and stdout == ""
    assert err == (
        "limit breached: scan exceeds the cell limit"
        " (check: zero-window scan; limit: cell_limit = 1000; count: 4356)\n"
    )


def test_zero_rectangle_past_the_cell_limit_exit3_before_any_offset(capsys, monkeypatch):
    def refuse(box):
        raise AssertionError("offsets built before the cell limit was read")

    monkeypatch.setattr(cli.Shape, "from_box", refuse)
    code, stdout, err = run(
        capsys, "zero", "--preset", "ex2", "--shape", "0:999x0:999", "--limit-cells", "10"
    )
    assert code == 3 and stdout == ""
    assert err == (
        "limit breached: scan exceeds the cell limit (check: zero shape; limit: cell_limit = 10; count: 1000000)\n"
    )


def test_report_dprime_scan_obeys_the_cell_limit(tmp_path, capsys, monkeypatch):
    # 45 odd primes up to 200, each member scanned at 25^3 points
    family = tmp_path / "f.fam"
    family.write_text("dim 3\nrecttemplate [t,1,1] params=primes\n")
    candidate = tmp_path / "c.fam"
    candidate.write_text("dim 3\nrecttemplate [t,1,1] params=oddprimes\n")
    tested = []
    flags = proximality.covered_flags
    monkeypatch.setattr(proximality, "covered_flags", lambda spec, box: tested.append(box) or flags(spec, box))
    code, stdout, err = run(
        capsys, "report", "--spec", str(family), "--dprime", str(candidate), "--limit-cells", "1000"
    )
    assert code == 3 and stdout == ""
    assert err == (
        "limit breached: d' check: the scan of 703125 candidate points exceeds the cell limit of 1000"
        " (check: d' check; limit: cell_limit = 1000; count: 703125)\n"
    )
    assert tested == []


def test_report_dprime_proves_members_held_by_the_family_without_scanning(tmp_path, capsys, monkeypatch):
    # each candidate member pZ x Z x Z is itself a member of the family, so
    # every one is proved inside the union and no point is scanned
    family = tmp_path / "f.fam"
    family.write_text("dim 3\nrecttemplate [t,1,1] params=primes\n")
    candidate = tmp_path / "c.fam"
    candidate.write_text("dim 3\nrecttemplate [t,1,1] params=oddprimes\n")
    tested = []
    flags = proximality.covered_flags
    monkeypatch.setattr(proximality, "covered_flags", lambda spec, box: tested.append(box) or flags(spec, box))
    code, stdout, _ = run(capsys, "report", "--spec", str(family), "--dprime", str(candidate))
    assert code == 0
    assert json.loads(stdout)["conditions"]["d_prime"] == {
        "holds": True,
        "mode": "evidence",
        "detail": "no candidate point escapes the union (members of index <= 200, coefficients within +/-12)",
    }
    assert tested == []


def test_budget_flags_default_to_the_library_values():
    for command in ("decide", "report"):
        args = cli._quick_parse([command, "--preset", "ex2"])
        assert (args.max_side, args.radius) == (
            proximality.SearchBudget().max_side,
            proximality.SearchBudget().search_radius,
        )
    args = cli._quick_parse(["zero", "--preset", "ex2", "--shape", "0:0x0:0"])
    assert args.instance_bound == proximality.CRT_INSTANCE_BOUND


def test_zero_sparse_offsets_past_the_sieve_limit_exit3(tmp_path, capsys):
    # 33 x 33 translates of two cells pass the scan check; the box they span,
    # 33 x (10^9 + 33) cells, is refused before anything is sieved
    offsets = tmp_path / "far.txt"
    offsets.write_text("0 0\n0 1000000000\n")
    code, stdout, err = run(capsys, "zero", "--preset", "ex2", "--shape", f"@{offsets}")
    assert code == 3 and stdout == ""
    assert f"scan sieves {33 * (10**9 + 33)} cells, above the cell limit" in err


def test_decide_squarefree(capsys):
    code, stdout, _ = run(capsys, "decide", "--preset", "squarefree-1d")
    assert code == 0
    assert json.loads(stdout)["status"] == "Proximal"


def test_decide_spec_file_geometric(tmp_path, capsys):
    spec = tmp_path / "geom.fam"
    spec.write_text("dim 2\nrecttemplate [t,3] params=geometric:2\n")
    code, stdout, _ = run(capsys, "decide", "--spec", str(spec))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["status"] == "NotProximal"
    assert payload["certificate"]["covers"] == [[[2, 0], [0, 3]]]


def test_density_csv(capsys):
    code, stdout, _ = run(
        capsys, "density", "--preset", "ex2", "--sides", "5,10,20",
        "--shift-search", "0:0,0:45",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "side,shift,ratio"
    ratios = [line.split(",")[2] for line in lines[1:]]
    values = [int(r.split("/")[0]) / int(r.split("/")[1]) for r in ratios]
    assert values == sorted(values)
    assert values[-1] == 1.0


def test_report_ex2(capsys):
    code, stdout, _ = run(
        capsys, "report", "--preset", "ex2", "--max-side", "3", "--radius", "16"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["conditions"]["b"]["holds"] is True
    assert payload["conditions"]["d"]["holds"] is False


def test_report_rows_claim_nothing_when_a_window_side_is_missed(tmp_path, capsys):
    # no zero window of side 2, 3 or 4 is found: (b) says so as no proof,
    # and the rows equivalent to it stay unknown
    spec = tmp_path / "family.txt"
    spec.write_text("dim 2\ntemplate base=[[1,1],[0,2]] scale=(1,1) params=primes\nrect [1,3]\n")
    code, stdout, _ = run(capsys, "report", "--spec", str(spec), "--max-side", "4", "--radius", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["verdict"]["status"] == "Inconclusive"
    rows = payload["conditions"]
    assert rows["b"] == {
        "holds": None,
        "mode": "unknown",
        "detail": "no zero window found for sides [2, 3, 4] (translates in -2:2,-2:2); not a proof",
    }
    for key in "acef":
        assert (rows[key]["holds"], rows[key]["mode"]) == (None, "unknown"), key
        assert rows[key]["detail"].startswith("equivalent to (b)"), key


def test_spec_and_preset_mutually_exclusive(capsys):
    code, _, err = run(capsys, "eta", "--preset", "ex2", "--spec", "x", "--box", "0:1,0:1")
    assert code == 2


def test_determinism_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "eta", "--preset", "ex2", "--box", "-8:8,-8:8", "--format", "pgm",
            "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_flag_rejected(tmp_path, capsys):
    # --threads had no effect since windows are sieved in one thread; it is gone
    with pytest.raises(SystemExit) as exc:
        main(["eta", "--preset", "ex1", "--box", "-6:6,-6:6", "--out", str(tmp_path / "a.csv"),
              "--threads", "3"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bfree.cli", "decide", "--preset", "rect-demo"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "NotProximal"


def test_closed_stdout_exits_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "bfree.cli", "decide", "--preset", "rect-demo"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "Exception ignored" not in err


def _os_error(code: int, name: str) -> str:
    return f"[Errno {code}] {os.strerror(code)}: {name!r}"


NOT_TEXT = "bytes.fam is not text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"

# a path that cannot be read or written as the command needs: one "bad
# input" line and exit 2 (exit 1 is zero's "nothing found")
UNUSABLE_PATHS = {
    "spec-directory": (("decide", "--spec", "adir"), _os_error(errno.EISDIR, "adir")),
    "spec-under-a-file": (("decide", "--spec", "good.fam/x"), _os_error(errno.ENOTDIR, "good.fam/x")),
    "spec-missing": (("decide", "--spec", "missing.fam"), _os_error(errno.ENOENT, "missing.fam")),
    "spec-not-text": (("decide", "--spec", "bytes.fam"), NOT_TEXT),
    "dprime-directory": (("report", "--preset", "ex2", "--dprime", "adir"), _os_error(errno.EISDIR, "adir")),
    "dprime-not-text": (("report", "--preset", "ex2", "--dprime", "bytes.fam"), NOT_TEXT),
    "offsets-directory": (("zero", "--preset", "ex2", "--shape", "@adir"), _os_error(errno.EISDIR, "adir")),
    "offsets-not-text": (
        ("zero", "--preset", "ex2", "--shape", "@bytes.fam"),
        f"argument --shape: '@bytes.fam' is not a shape a:bxc:d or @offsets-file ({NOT_TEXT})",
    ),
    "outdir-a-file": (("reproduce", "ex1", "--outdir", "good.fam"), _os_error(errno.EEXIST, "good.fam")),
    "out-a-directory": (
        ("eta", "--preset", "ex2", "--box", "0:1,0:1", "--out", "adir"), _os_error(errno.EISDIR, "adir")
    ),
}


@pytest.mark.parametrize(("argv", "message"), UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS.keys())
def test_an_unusable_path_is_bad_input_without_a_traceback(tmp_path, argv, message):
    (tmp_path / "adir").mkdir()
    (tmp_path / "good.fam").write_text("dim 2\nrect [2,1]\n")
    (tmp_path / "bytes.fam").write_bytes(b"\xffdim 2\n")
    # run from tmp_path, so the paths (and the messages naming them) are short
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), "PYTHONUTF8": "1"}
    proc = subprocess.run([sys.executable, "-m", "bfree.cli", *argv], cwd=tmp_path, capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_BAD_INPUT, "", f"bad input: {message}\n")


def test_an_unreadable_spec_is_bad_input(tmp_path, capsys, monkeypatch):
    # a permission the process lacks, which a privileged test run cannot lose
    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    assert run(capsys, "decide", "--spec", "s.fam") == (2, "", f"bad input: {_os_error(errno.EACCES, 's.fam')}\n")


def test_reproduce_matches_goldens(tmp_path, capsys):
    for name in ("ex1", "ex2"):
        code, stdout, err = run(capsys, "reproduce", name, "--outdir", str(tmp_path / name))
        assert code == 0, err
        assert f"reproduced 3 artifacts for {name}" in stdout


def test_eta_json_format(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, stdout, _ = run(
        capsys, "eta", "--preset", "ex2", "--box", "-3:3,-3:3", "--format", "json",
        "--out", str(out),
    )
    assert code == 0
    from bfree.windows import FreeWindow

    data = json.loads(out.read_text())
    w = FreeWindow.from_json_dict(data)
    assert w.box.lo == (-3, -3) and w.ones() == int(stdout.split()[0].split("=")[1])


def test_zero_shape_from_file(tmp_path, capsys):
    offsets = tmp_path / "shape.txt"
    offsets.write_text("# two cells\n0 0\n1 0\n")
    code, stdout, _ = run(
        capsys, "zero", "--preset", "rect-demo", "--shape", f"@{offsets}", "--crt"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["period"] == [[6, 0], [0, 6]]


def test_report_with_dprime_candidate(tmp_path, capsys):
    cand = tmp_path / "cand.fam"
    cand.write_text("dim 2\nrecttemplate [t,t] params=oddprimes\n")
    code, stdout, _ = run(
        capsys, "report", "--preset", "ex1", "--max-side", "2", "--dprime", str(cand)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["conditions"]["d_prime"]["holds"] is False


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("eta", "--preset", "ex2", "--box", "0:x,0:3"), "--box"),
        (("eta", "--preset", "ex2", "--box", "3:0,0:1"), "--box"),
        (("eta", "--preset", "ex2", "--box", "0:3"), "--box"),
        (("zero", "--preset", "ex2", "--shape", "0:1x0:0", "--search", "0:1,a:2"), "--search"),
        (("zero", "--preset", "ex2", "--shape", "0:1x", "--search", "0:1,0:2"), "--shape"),
        (("zero", "--preset", "ex2", "--shape", "0:1"), "--shape"),
        (("density", "--preset", "ex2", "--sides", "2,x"), "--sides"),
        (("density", "--preset", "ex2", "--sides", "-3"), "--sides"),
        (("density", "--preset", "ex2", "--sides", "2", "--shift-search", "0:1,"), "--shift-search"),
        (("density", "--preset", "ex2", "--sides", "2", "--shift-search", "0:1"), "--shift-search"),
        (("eta", "--preset", "ex2", "--box", "0:1,0:1", "--limit-cells", "-5"), "--limit-cells"),
        (("decide", "--preset", "ex2", "--radius", "-3"), "--radius"),
    ],
    ids=[
        "box-malformed",
        "box-empty",
        "box-dimension",
        "search-malformed",
        "shape-malformed",
        "shape-dimension",
        "sides-malformed",
        "sides-negative",
        "shift-search-malformed",
        "shift-search-dimension",
        "limit-cells-negative",
        "radius-negative",
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, argv, flag):
    code, stdout, err = run(capsys, *argv, *(("--out", str(tmp_path / "w.csv")) if argv[0] == "eta" else ()))
    assert code == 2
    assert stdout == ""
    assert err.startswith("bad input: ") and flag in err
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("fmt", ["csv", "pgm"])
def test_eta_grid_export_of_three_dimensions_exits_2(tmp_path, capsys, monkeypatch, fmt):
    def refuse(*args, **kwargs):
        raise AssertionError("window computed before the format check")

    monkeypatch.setattr(cli, "free_window", refuse)
    spec = tmp_path / "s.fam"
    spec.write_text("dim 3\nrect [2,1,1]\n")
    out = tmp_path / f"w.{fmt}"
    code, stdout, err = run(
        capsys, "eta", "--spec", str(spec), "--box", "0:2,0:2,0:2", "--format", fmt, "--out", str(out)
    )
    assert code == 2 and stdout == ""
    assert err.startswith("bad input: ") and f"--format {fmt}" in err
    assert not out.exists()


def test_report_dprime_of_another_dimension_exits_2(tmp_path, capsys):
    cand = tmp_path / "cand.fam"
    cand.write_text("dim 1\nrecttemplate [t^2] params=primes\n")
    code, stdout, err = run(capsys, "report", "--preset", "ex2", "--dprime", str(cand))
    assert code == 2 and stdout == ""
    assert err.startswith("bad input: ") and "--dprime" in err


def test_bad_limit_cells_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BFREE_LIMIT_CELLS", "abc")
    code, _, err = run(capsys, "eta", "--preset", "ex2", "--box", "0:1,0:1", "--out", str(tmp_path / "w.csv"))
    assert code == 2
    assert err.startswith("bad input: BFREE_LIMIT_CELLS")
    assert not (tmp_path / "w.csv").exists()


# main reads a valid argv from the argument tables and builds no parser;
# everything it prints must be what the parser of every command prints


def _subparser(parser, name):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices[name]


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_argument_table_has_the_full_parsers_actions(name):
    full = _subparser(cli.build_parser(), name)
    actions = [a for a in full._actions if a.dest != "help"]
    table = cli._TABLES[name]
    assert table.options == {
        a.option_strings[0]: (a.dest, a.type, a.choices, isinstance(a, argparse._StoreTrueAction))
        for a in actions
        if a.option_strings
    }
    assert all(len(a.option_strings) <= 1 for a in actions)
    assert table.positionals == [a.dest for a in actions if not a.option_strings]
    assert table.required == [a.dest for a in actions if a.option_strings and a.required]
    assert table.defaults == {
        "func": cli.COMMANDS[name][2],
        **{a.dest: a.default for a in actions if a.option_strings},
    }
    assert full.get_default("func") is cli.COMMANDS[name][2]


def _printed(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _full_parser_prints(argv):
    def call():
        try:
            cli.build_parser().parse_args(cli._join_flag_values(argv))
        except argparse.ArgumentError as exc:
            print(f"bad input: {exc}", file=sys.stderr)
            return cli.EXIT_BAD_INPUT
        raise AssertionError(f"{argv} parsed")

    return call


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *[[name, "--help"] for name in cli.COMMANDS],
        [],
        ["etx"],
        ["eta", "--box", "0:1,0:1", "--bogus"],
        ["decide", "--preset", "ex2", "--bogus", "1"],
        ["reproduce", "ex1", "ex2"],
        ["eta", "--preset", "ex2"],
        ["zero", "--shape", "0:1x"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_main_prints_what_the_full_parser_prints(capsys, argv):
    expected = _printed(capsys, _full_parser_prints(argv))
    assert _printed(capsys, lambda: main(argv)) == expected
    assert expected[0] in (0, 2)


def test_unknown_flag_prints_the_full_usage_line(capsys):
    code, out, err = _printed(capsys, lambda: main(["decide", "--preset", "ex2", "--bogus"]))
    assert code == 2 and out == ""
    assert err.startswith("usage: bfree [-h] {eta,zero,decide,density,report,reproduce} ...\n")
    assert err.endswith("bfree: error: unrecognized arguments: --bogus\n")


def _counted_parsers(monkeypatch):
    """The prog of every ArgumentParser constructed from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_main_builds_no_parser_for_a_valid_argv(tmp_path, capsys, monkeypatch):
    built = _counted_parsers(monkeypatch)
    for _ in range(2):
        assert main(["decide", "--preset", "rect-demo"]) == 0
        assert main(["eta", "--preset", "ex2", "--box", "-3:3,-3:3", "--out", str(tmp_path / "w.csv")]) == 0
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["decide", "--help"],
        ["etx"],
        ["decide", "--preset", "ex2", "--bogus"],
        ["decide", "--preset", "ex2", "--radius", "x"],
    ],
    ids=["help", "command-help", "unknown-command", "unknown-flag", "bad-value"],
)
def test_main_builds_the_full_parser_for_help_and_errors(capsys, monkeypatch, argv):
    built = _counted_parsers(monkeypatch)
    for _ in range(2):
        code, _, _ = _printed(capsys, lambda: main(argv))
        assert code in (0, 2)
    # built again on the second call: no parser is kept between calls
    assert built == 2 * ["bfree", *(f"bfree {name}" for name in cli.COMMANDS)]


VALID_VALUES = {
    "--preset": ["ex1", "ex2", "rect-demo", "squarefree-1d"],
    "--spec": ["family.txt", ""],
    "--limit-cells": ["1", "5000"],
    "--box": ["0:3,0:3", "-3:3,-2:2", "-10:-5"],
    "--format": ["csv", "pgm", "json"],
    "--out": ["w.csv", "x=y"],
    "--shape": ["0:1x0:0", "-1:1x0:2"],
    "--search": ["-4:4,-4:4"],
    "--instance-bound": ["0", "100"],
    "--max-side": ["0", "3"],
    "--radius": ["2", "16"],
    "--sides": ["5,10,20", "0"],
    "--shift-search": ["0:0,0:45"],
    "--dprime": ["candidate.txt"],
    "--outdir": ["out"],
}
HOSTILE_VALUES = ["-5", "-1", "x", "", "1.5", "3:0,0:1", "2,1", "bogus", "@missing-file", "-", "--", "-h", "=", "a b"]
HOSTILE_FLAGS = ["--bogus", "-h", "--help", "--", "-", "--pre", "--lim", "--form", "-x=1", "--crt=1"]


def _tokens(draw, flag, values, forms=("spaced", "joined", "bare")):
    """flag with a value from values, spaced, joined by "=" or bare."""
    value = draw(st.sampled_from(values))
    form = draw(st.sampled_from(forms))
    return {"spaced": [flag, value], "joined": [f"{flag}={value}"], "bare": [flag]}[form]


@st.composite
def _argvs(draw):
    """A command with its required and some optional arguments, each once,
    then up to two hostile groups of tokens, all in a drawn order."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    table = cli._TABLES[command]
    groups = [[draw(st.sampled_from(["ex1", "ex2", "ex3"]))] for _ in table.positionals]
    for flag, (dest, _, _, store_true) in table.options.items():
        if dest in table.required or draw(st.booleans()):
            groups.append([flag] if store_true else _tokens(draw, flag, VALID_VALUES[flag], ("spaced", "joined")))
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(sorted(table.options) + HOSTILE_FLAGS))
        groups.append(_tokens(draw, flag, VALID_VALUES.get(flag, ["ex1"]) + HOSTILE_VALUES))
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["eta", "--box", "0:3,0:3", "--preset=--"])
@example(["eta", "--box", "0:3,0:3", "--format", "--"])
def test_quick_parse_agrees_with_the_full_parser(argv):
    joined = cli._join_flag_values(argv)
    fast = cli._quick_parse(joined)
    event("fast" if fast is not None else "deferred")
    if fast is not None:
        assert vars(fast) == vars(cli.build_parser().parse_args(joined))


def test_every_pool_job_is_fast_parsed_to_the_full_parsers_namespace(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import jobs
    import run as perfbench_run

    runner = perfbench_run.Runner(tmp_path)
    parser = cli.build_parser()
    for workload in jobs.WORKLOADS:
        for _, variants in jobs.pool(workload).values():
            for job in variants:
                argv = cli._join_flag_values(runner.materialize(job)[0])
                fast = cli._quick_parse(argv)
                assert fast is not None, job.key
                assert vars(fast) == vars(parser.parse_args(argv)), job.key


@pytest.mark.parametrize(
    "argv, abbreviated, spelled",
    [
        (["eta", "--preset", "ex2", "--box", "-4:4,-4:4", "--out", "{out}"], ["--form", "pgm"], ["--format", "pgm"]),
        (["decide", "--preset", "ex2"], ["--lim", "5"], ["--limit-cells", "5"]),
    ],
    ids=["eta-form", "decide-lim"],
)
def test_abbreviated_flags_act_as_the_spelled_flag(tmp_path, capsys, argv, abbreviated, spelled):
    # argparse's prefix matching: the full parser accepts what the tables defer
    outcomes = []
    for name, extra in [("abbreviated", abbreviated), ("spelled", spelled), ("absent", [])]:
        out = tmp_path / name
        code, stdout, err = run(capsys, *(a.format(out=out) for a in argv), *extra)
        outcomes.append((code, stdout, err, out.read_bytes() if out.exists() else None))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] != outcomes[2]


def test_reproduce_of_an_unknown_target_is_bad_input(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "reproduce", "ex3", "--outdir", str(out))
    assert code == 2 and stdout == ""
    assert err == "bad input: unknown golden target 'ex3'\n"
    assert not out.exists()
