"""Byte-for-byte snapshots of verdict and condition-report JSON.

The goldens under ``src/bfree/goldens`` hold only ``Evidence`` verdicts, so
this file pins the exact ``Covering`` and ``CoprimeSubscheme`` certificates
(covers, missed cosets, checks with their labels, rep counts, covers and
moduli: one check per entry that a single cover holds, one per member of
a finite entry otherwise; samples, rule texts) over a fixed list of specs: every entry
kind, every parameter sequence, coordinate changes and a non-diagonal
static entry, with Proximal, NotProximal and Inconclusive verdicts.  A covering check against
supplied covers adds the witness of a refuted cover, or the refusal of
an infinite entry whose span no single cover holds.  Fixed-translate
reports pin each NotProximal spec's missed coset with its cover
intersection, and translates that a member meets, with their witnesses.

Re-record deliberately with ``python tests/test_certificate_snapshots.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from bfree.errors import UnsettledEntryError
from bfree.families import parse_family, preset
from bfree.lattices import Lattice, intersect_all
from bfree.proximality import SearchBudget, check_covering, check_fixed_translate, conditions_report, decide

DATA = Path(__file__).with_name("data") / "certificate_snapshots.json"

BUDGET = SearchBudget(max_side=2, search_radius=8)

SPECS = {
    "rect-pair": "dim 2\nrect [2,1]\nrect [1,3]\n",
    "static-nondiagonal": "dim 2\nstatic [[2,1],[0,3]]\n",
    "rt-primes": "dim 2\nrecttemplate [t,t] params=primes\n",
    "rt-primes-excl": "dim 2\nrecttemplate [t,t^2] params=primes!2,3\n",
    "rt-oddprimes-coeff": "dim 2\nrecttemplate [2t,t] params=oddprimes\n",
    "rt-2t-1d": "dim 1\nrecttemplate [2t] params=primes\n",
    "rt-3t-excl-1d": "dim 1\nrecttemplate [3t] params=primes!2,5\n",
    "rt-geometric": "dim 2\nrecttemplate [t,3] params=geometric:2\n",
    "rt-geometric-start": "dim 2\nrecttemplate [t^2,1] params=geometric:3:2\n",
    "rt-explicit": "dim 2\nrecttemplate [t,t] params=explicit:2,3,5\n",
    "tpl-primes": "dim 2\ntemplate base=[[2,0],[0,1]] scale=(2,2) params=primes\n",
    "tpl-geometric": "dim 2\ntemplate base=[[2,1],[0,2]] scale=(1,1) params=geometric:2\n",
    "tpl-explicit": "dim 2\ntemplate base=[[1,1],[0,2]] scale=(2,2) params=explicit:3,5,7\n",
    "tpl-oddprimes-span": "dim 2\ntemplate base=[[1,1],[0,2]] scale=(1,1) params=oddprimes\n",
    "mixed-3d": (
        "dim 3\nrect [2,1,1]\nstatic [[1,1,0],[0,3,0],[0,0,1]]\n"
        "recttemplate [1,t,2] params=primes!3\n"
    ),
    "transform-geometric": "dim 2\nrecttemplate [t,3] params=geometric:2\ntransform [[1,0],[2,1]]\n",
    "transform-primes": "dim 2\nrecttemplate [t,t] params=primes\ntransform [[1,1],[0,1]]\n",
    "transform-template": (
        "dim 2\ntemplate base=[[2,0],[0,1]] scale=(2,2) params=primes\ntransform [[1,0],[1,1]]\n"
    ),
    "rt-3d-z": "dim 3\nrecttemplate [1,1,2t] params=primes\n",
    "rect-template-span": "dim 1\nrect [2]\nrect [1009]\nrecttemplate [200003t] params=primes\n",
    "rect-template-one-cover": "dim 1\nrect [1009]\nrect [1013]\nrecttemplate [2t] params=primes\n",
    "ex1": "ex1",
    "ex2": "ex2",
    "squarefree-1d": "squarefree-1d",
    "rect-demo": "rect-demo",
}

# (spec name, cover columns): supplied covers, some refuted with a witness
COVER_CASES = (
    ("rt-primes", [[[2, 0], [0, 2]]]),
    ("rt-primes-excl", [[[5, 0], [0, 1]], [[1, 0], [0, 7]]]),
    ("rt-2t-1d", [[[2]]]),
    ("rt-2t-1d", [[[4]], [[6]]]),
    ("rt-geometric", [[[4, 0], [0, 3]], [[2, 0], [0, 6]]]),
    ("tpl-primes", [[[2, 0], [0, 3]], [[6, 0], [0, 1]]]),
    ("tpl-geometric", [[[2, 0], [0, 1]]]),
    ("transform-template", [[[2, 0], [0, 2]]]),
    ("mixed-3d", [[[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, 3, 0], [0, 0, 1]],
                  [[1, 0, 0], [0, 1, 0], [0, 0, 2]]]),
    # every member lies in the union of three index-2 covers but in none alone
    ("rt-3d-z", [[[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
                 [[1, 0, 1], [0, 1, 1], [0, 0, 2]]]),
)

# (spec name, translate, lattice columns): translates that a member meets,
# refuted by the member scan of an infinite entry that its span does not
# settle, by a finite entry's member, and, under a transform, by the
# member scan again
REFUTED_TRANSLATES = (
    ("ex1", (0, 1), [[4, 0], [0, 2]]),
    ("rect-pair", (0, 1), [[2, 0], [0, 2]]),
    ("transform-primes", (1, 2), [[1000003, 0], [0, 1000003]]),
)


def _spec(name):
    text = SPECS[name]
    return parse_family(text) if "\n" in text else preset(text)


def _covering_record(name, cols):
    try:
        report = check_covering(_spec(name), [Lattice.from_columns(c) for c in cols])
    except UnsettledEntryError as exc:
        return json.dumps({"refused": str(exc)})
    return json.dumps(
        {
            "covered": report.covered,
            "certificate": report.certificate.to_json_dict() if report.certificate else None,
            "witness": list(report.witness[:2]) + [list(report.witness[2])]
            if report.witness
            else None,
        }
    )


def _fixed_translate_records() -> dict:
    """Key -> fixed-translate report: each NotProximal spec's missed coset
    with its cover intersection, then ``REFUTED_TRANSLATES``."""
    cases = []
    for name in SPECS:
        cert = decide(_spec(name), BUDGET).certificate
        if cert.kind == "Covering":
            cases.append((name, name, cert.missed_coset, intersect_all(cert.covers)))
    for name, translate, cols in REFUTED_TRANSLATES:
        cases.append((f"{name} {list(translate)}", name, translate, Lattice.from_columns(cols)))
    out = {}
    for key, name, translate, lattice in cases:
        report = check_fixed_translate(_spec(name), translate, lattice)
        out[key] = json.dumps(
            {
                "translate": list(translate),
                "lattice": lattice.to_columns(),
                "holds": report.holds,
                "exact": report.exact,
                "witness": list(report.witness) if report.witness else None,
                "detail": report.detail,
            }
        )
    return out


def record() -> dict:
    out = {"decide": {}, "report": {}, "covering": []}
    for name in SPECS:
        spec = _spec(name)
        out["decide"][name] = decide(spec, BUDGET).to_json()
        out["report"][name] = conditions_report(spec, BUDGET).to_json()
    for name, cols in COVER_CASES:
        out["covering"].append(_covering_record(name, cols))
    out["fixed_translate"] = _fixed_translate_records()
    return out


@pytest.fixture(scope="module")
def snapshots():
    return json.loads(DATA.read_text())


def test_snapshot_lists_match():
    data = json.loads(DATA.read_text())
    assert list(data["decide"]) == list(SPECS)
    assert len(data["covering"]) == len(COVER_CASES)
    statuses = {json.loads(v)["status"] for v in data["decide"].values()}
    kinds = {json.loads(v)["certificate"]["kind"] for v in data["decide"].values()}
    assert statuses == {"Proximal", "NotProximal", "Inconclusive"}
    assert {"Covering", "CoprimeSubscheme", "Evidence"} <= kinds
    records = [*data["decide"].values(), *data["report"].values(), *data["covering"]]
    coverings = [c for r in records for c in _coverings(json.loads(r))]
    assert coverings
    for cert in coverings:
        for check in cert["checks"]:
            assert set(check) == {"entry", "label", "reps", "cover", "modulus"}
            assert check["cover"] is None or 0 <= check["cover"] < len(cert["covers"])


def _coverings(node):
    """Every ``Covering`` certificate nested in a decoded record."""
    if isinstance(node, dict):
        if node.get("kind") == "Covering":
            yield node
        for value in node.values():
            yield from _coverings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _coverings(value)


@pytest.mark.parametrize("name", list(SPECS))
def test_decide_snapshot(name, snapshots):
    assert decide(_spec(name), BUDGET).to_json() == snapshots["decide"][name]


@pytest.mark.parametrize("name", list(SPECS))
def test_conditions_report_snapshot(name, snapshots):
    assert conditions_report(_spec(name), BUDGET).to_json() == snapshots["report"][name]


@pytest.mark.parametrize("case", range(len(COVER_CASES)))
def test_check_covering_snapshot(case, snapshots):
    assert _covering_record(*COVER_CASES[case]) == snapshots["covering"][case]


def test_check_fixed_translate_snapshot(snapshots):
    records = _fixed_translate_records()
    assert records == snapshots["fixed_translate"]
    # every missed coset is an exact free translate; every refuted one has
    # a covered witness inside it
    for key, text in records.items():
        rec = json.loads(text)
        name = key.split(" ")[0]
        if key == name:
            assert rec["holds"] and rec["exact"] and rec["witness"] is None
        else:
            lattice = Lattice.from_columns(rec["lattice"])
            assert not rec["holds"] and rec["exact"]
            assert _spec(name).covered(rec["witness"])
            assert lattice.contains(tuple(w - a for w, a in zip(rec["witness"], rec["translate"])))


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"recorded {len(SPECS)} specs and {len(COVER_CASES)} covering cases to {DATA}", file=sys.stderr)
