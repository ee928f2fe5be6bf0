"""Output verification, run outside the timed region.

Each check takes the job, what the command produced (exit code, stdout, the
artifact path) and the outputs recorded for that job at a trusted commit, and
returns None when the output is right or a one-line reason when it is not.

* Windows (``eta``): the exported bits, decoded from csv/pgm/json, must hash
  to the recorded digest; the free set is fixed mathematically, so any drift
  is a bug.  ``density`` ratios must equal the recorded exact fractions.
* ``zero`` translates are re-checked cell by cell with ``spec.covered``; CRT
  translates are rebuilt with ``zero_window_by_crt``.
* Exact verdicts are re-verified through ``check_covering``,
  ``check_fixed_translate`` and ``zero_window_by_crt``.  A verdict that flips
  between Proximal and NotProximal, or falls from exact to Inconclusive, is a
  failure; going from Inconclusive to exact is allowed once re-verified.
* ``reproduce`` must write the recorded set of artifact names, each with its
  recorded digest.
"""

import base64
import hashlib
import itertools
import json
from pathlib import Path

import jobs
from bfree import (
    BFreeError,
    Box,
    Lattice,
    Shape,
    check_covering,
    check_fixed_translate,
    intersect_all,
    parse_family,
    preset,
    zero_window_by_crt,
)

EXACT = ("Proximal", "NotProximal")


def family(job):
    text = job.file_text("spec")
    return parse_family(text) if text is not None else preset(job.preset)


def bits_digest(bits: str) -> str:
    return hashlib.sha256(bits.encode()).hexdigest()[:32]


def window_bits(fmt: str, text: str, box: Box) -> str:
    """The exported window as a 0/1 string in ``box.points()`` order."""
    if fmt == "json":
        data = json.loads(text)
        if [data["box"]["lo"], data["box"]["hi"]] != [list(box.lo), list(box.hi)]:
            raise ValueError("json box differs from the requested box")
        raw = base64.b64decode(data["bits"])
        return "".join(str(raw[i >> 3] >> (i & 7) & 1) for i in range(box.volume))
    lines = text.splitlines()
    if fmt == "pgm":
        if lines[:1] != ["P2"] or lines[2:3] != ["1"]:
            raise ValueError("bad pgm header")
        width, height = map(int, lines[1].split())
        rows = [ln.split() for ln in lines[3:]]
    else:
        rows = [ln.split(",") for ln in lines]
        width, height = len(rows[0]), len(rows)
    if box.dim == 1:
        if (width, height) != (box.volume, 1):
            raise ValueError("grid size differs from the box")
        return "".join(rows[0])
    # row 0 is the highest y; columns run over increasing x
    (w, h) = box.sides
    if (width, height) != (w, h) or any(len(r) != w for r in rows):
        raise ValueError("grid size differs from the box")
    return "".join(rows[h - 1 - j][i] for i in range(w) for j in range(h))


def check_eta(job, rc, stdout, out_path, expected):
    box = Box.parse(jobs.flag(job.args, "--box"))
    want = f"ones={expected['ones']} cells={box.volume}"
    if stdout.strip() != want:
        return f"summary {stdout.strip()!r}, expected {want!r}"
    bits = window_bits(jobs.flag(job.args, "--format"), Path(out_path).read_text(), box)
    if bits_digest(bits) != expected["bits"]:
        return "window bits differ from the recorded digest"
    return None


def density_rows(job, stdout, out_path):
    text = Path(out_path).read_text() if jobs.flag(job.args, "--out") else stdout
    lines = text.splitlines()
    if lines[:1] != ["side,shift,ratio"]:
        raise ValueError("bad density header")
    return [ln.split(",") for ln in lines[1:]]


def check_density(job, rc, stdout, out_path, expected):
    rows = density_rows(job, stdout, out_path)
    got = [[side, ratio] for side, _, ratio in rows]
    if got != expected["rows"]:
        return f"density rows {got}, expected {expected['rows']}"
    shift_box = Box.parse(jobs.flag(job.args, "--shift-search"))
    for _, shift, _ in rows:
        if not shift_box.contains(tuple(int(x) for x in shift.split())):
            return f"best shift {shift} lies outside the shift search box"
    return None


def _lattice(cols) -> Lattice:
    return Lattice.from_columns([tuple(c) for c in cols])


def _cells_covered(spec, translate, shape) -> bool:
    return all(spec.covered(tuple(a + b for a, b in zip(translate, f))) for f in shape.offsets)


def check_verdict(spec, verdict: dict, expected_status: str):
    status, cert = verdict["status"], verdict["certificate"]
    if expected_status in EXACT and status != expected_status:
        return f"verdict {status}, recorded {expected_status}"
    kind = cert["kind"]
    if status == "NotProximal" and kind == "Covering":
        covers = [_lattice(c) for c in cert["covers"]]
        missed = tuple(cert["missed_coset"])
        if any(c.contains(missed) for c in covers):
            return "missed coset lies in a cover"
        if not check_covering(spec, covers).covered:
            return "check_covering rejects the certified covers"
        ft = check_fixed_translate(spec, missed, intersect_all(covers))
        if not (ft.holds and ft.exact):
            return f"check_fixed_translate rejects the missed coset: {ft.detail}"
    elif status == "NotProximal" and kind == "FixedTranslate":
        ft = check_fixed_translate(spec, tuple(cert["translate"]), _lattice(cert["lattice"]))
        if not (ft.holds and ft.exact):
            return f"check_fixed_translate rejects the certificate: {ft.detail}"
    elif status == "Proximal" and kind == "CoprimeSubscheme":
        sample = [_lattice(c) for c in cert["sample"]]
        if any(not a.coprime(b) for a, b in itertools.combinations(sample, 2)):
            return "sample members are not pairwise coprime"
        members = {lat.basis for lat in spec.instances_up_to(max(lat.index for lat in sample))}
        if any(lat.basis not in members for lat in sample):
            return "sample holds a lattice that is not a family member"
        if all(lat.is_diagonal() for lat in sample):
            shape = Shape.segment(len(sample) - 1, spec.dim)
            if not _cells_covered(spec, zero_window_by_crt(sample, shape), shape):
                return "CRT window from the sample is not covered"
    elif status == "Inconclusive" and kind == "Evidence":
        for z in cert["zero_windows"]:
            k = z["side"]
            shape = Shape.from_box(Box((0,) * spec.dim, (k,) * spec.dim))
            if not _cells_covered(spec, tuple(z["translate"]), shape):
                return f"evidence zero window of side {k} is not covered"
    else:
        return f"unexpected certificate {kind} for {status}"
    return None


def check_decide(job, rc, stdout, out_path, expected):
    return check_verdict(family(job), json.loads(stdout), expected["status"])


def check_report(job, rc, stdout, out_path, expected):
    data = json.loads(stdout)
    verdict, rows = data["verdict"], data["conditions"]
    if ("d_prime" in rows) != (jobs.flag(job.args, "--dprime") is not None):
        return "d_prime row present without --dprime or missing with it"
    if verdict["status"] in EXACT and rows["a"]["holds"] != (verdict["status"] == "Proximal"):
        return "condition (a) disagrees with the verdict"
    return check_verdict(family(job), verdict, expected["status"])


def check_zero(job, rc, stdout, out_path, expected):
    if rc != 0:
        return None
    spec = family(job)
    shape = Shape.parse(jobs.flag(job.args, "--shape"), spec.dim)
    data = json.loads(stdout)
    translate = tuple(data["translate"])
    if not _cells_covered(spec, translate, shape):
        return f"translate {list(translate)} has a free cell"
    for col in data["period"]:
        if not _cells_covered(spec, tuple(a + b for a, b in zip(translate, col)), shape):
            return f"translate shifted by period generator {col} has a free cell"
    if "--crt" in job.args:
        lattices = [_lattice(c) for c in data["certificate"]["lattices"]]
        if zero_window_by_crt(lattices, shape) != translate:
            return "zero_window_by_crt does not rebuild the translate"
    return None


def artifact_digests(outdir) -> dict[str, str]:
    """File name -> digest of every artifact written to ``outdir``."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:32] for path in sorted(Path(outdir).iterdir())}


def check_reproduce(job, rc, stdout, out_path, expected):
    got, want = artifact_digests(out_path), expected["files"]
    if sorted(got) != sorted(want):
        return f"artifacts {sorted(got)}, recorded {sorted(want)}"
    for name, digest in got.items():
        if digest != want[name]:
            return f"{name} differs from the recorded digest"
    return None


CHECKS = {
    "eta": check_eta,
    "density": check_density,
    "decide": check_decide,
    "report": check_report,
    "zero": check_zero,
    "reproduce": check_reproduce,
}


def check(job, rc, stdout, out_path, expected):
    """None when the command's output is right, else the reason it is not."""
    if expected is None:
        return "no recorded output for this job (rerun record_expected.py at a trusted commit)"
    if expected["sig"] != job.signature():
        return "job changed since its output was recorded"
    if rc != expected["rc"]:
        return f"exit code {rc}, recorded {expected['rc']}"
    try:
        return CHECKS[job.kind](job, rc, stdout, out_path, expected)
    except (BFreeError, ValueError, KeyError, IndexError, OSError) as exc:
        return f"unreadable output: {exc!r}"
