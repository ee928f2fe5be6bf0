"""Verdict engine: decide proximality where the family schema allows an exact
answer, check the individual equivalent conditions, and emit machine-checkable
certificates.

Exact verdicts are issued in two situations only:

* a rectangular template over primes with unit coefficients describes an
  infinite pairwise coprime subfamily (Proximal); or
* finitely many proper lattices provably cover every member (NotProximal),
  verified by finite coset checks that are exact because cover membership is
  periodic.

Everything else is reported as Inconclusive with finite evidence.  Absence of
a coprime subset is never used on its own to conclude non-proximality: for
general lattice families that implication has no converse.
"""

import itertools
import json
from dataclasses import dataclass
from math import gcd

from .errors import (
    InconsistencyError,
    InvalidCoverError,
    NotPairwiseCoprimeError,
    NotRectangularError,
    TooLargeError,
)
from .families import (
    Explicit,
    FamilySpec,
    Geometric,
    Primes,
    Rectangular,
    RectTemplate,
    Static,
    Template,
)
from .lattices import Lattice, Point, hnf, intersect_all
from .windows import Box, Shape, find_zero_window

PROXIMAL = "Proximal"
NOT_PROXIMAL = "NotProximal"
INCONCLUSIVE = "Inconclusive"

DEFAULT_CLASS_LIMIT = 20_000
DEFAULT_REP_LIMIT = 200_000


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CoprimeSubscheme:
    """Description of an infinite pairwise coprime subfamily inside one entry."""

    entry_index: int
    rule: str
    sample: tuple[Lattice, ...]

    kind = "CoprimeSubscheme"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "entry": self.entry_index,
            "rule": self.rule,
            "sample": [lat.to_columns() for lat in self.sample],
        }


@dataclass(frozen=True)
class CoprimeList:
    """Finitely many pairwise coprime members, with a note on how they extend."""

    lattices: tuple[Lattice, ...]
    extension: str

    kind = "CoprimeList"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lattices": [lat.to_columns() for lat in self.lattices],
            "extension": self.extension,
        }


@dataclass(frozen=True)
class CoverCheck:
    """One verified containment: a member class sits inside the cover union."""

    entry_index: int
    label: str
    reps_checked: int


@dataclass(frozen=True)
class Covering:
    """Proper lattices whose union provably contains every family member."""

    covers: tuple[Lattice, ...]
    missed_coset: Point
    checks: tuple[CoverCheck, ...]

    kind = "Covering"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "covers": [lat.to_columns() for lat in self.covers],
            "missed_coset": list(self.missed_coset),
            "checks": [
                {"entry": c.entry_index, "label": c.label, "reps": c.reps_checked}
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class FixedTranslate:
    """A translate a + L of a finite-index lattice inside the free set."""

    translate: Point
    lattice: Lattice
    note: str

    kind = "FixedTranslate"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "translate": list(self.translate),
            "lattice": self.lattice.to_columns(),
            "note": self.note,
        }


@dataclass(frozen=True)
class Evidence:
    """Finite zero-window results only: no exact claim either way."""

    found: tuple[tuple[int, Point], ...]
    not_found: tuple[int, ...]
    searched: str

    kind = "Evidence"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "zero_windows": [{"side": k, "translate": list(g)} for k, g in self.found],
            "not_found_sides": list(self.not_found),
            "searched": self.searched,
        }


Certificate = CoprimeSubscheme | CoprimeList | Covering | FixedTranslate | Evidence


@dataclass(frozen=True)
class Verdict:
    status: str
    certificate: Certificate
    zero_window_sides: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "certificate": self.certificate.to_json_dict(),
            "evidence": {"zero_window_sides": list(self.zero_window_sides)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# ---------------------------------------------------------------------------
# entry-level schema analysis


def _rect_pattern(entry):
    """(coeffs, exps) for rectangular-like entries, or None."""
    if isinstance(entry, Rectangular):
        return tuple(entry.entries), (0,) * len(entry.entries)
    if isinstance(entry, RectTemplate):
        return tuple(s.coeff for s in entry.entries), tuple(s.exp for s in entry.entries)
    if isinstance(entry, Static) and entry.lattice.is_diagonal():
        return entry.lattice.diagonal, (0,) * entry.lattice.dim
    return None


def _coprime_subscheme(entry, idx: int):
    """A CoprimeSubscheme certificate when the entry provably contains an
    infinite pairwise coprime subfamily, else None.

    This happens exactly for prime-parameterized rectangular templates whose
    slots are pure powers t**e or the constant 1: distinct prime parameters
    then give coordinatewise coprime members.
    """
    if not isinstance(entry, RectTemplate):
        return None
    if not isinstance(entry.params, Primes):
        return None
    if any(s.coeff != 1 for s in entry.entries):
        return None
    sample_params = entry.params.values_up_to(30)[:4]
    sample = tuple(entry.member(t) for t in sample_params)
    rule = (
        f"members diag({', '.join(str(s) for s in entry.entries)}) over {entry.params.describe()}: "
        "distinct prime parameters give pairwise coprime members"
    )
    return CoprimeSubscheme(idx, rule, sample)


def _entry_cover(entry):
    """A proper lattice list containing every member of the entry, or None.

    For an infinite template the coordinatewise gcd over all parameters gives
    one rectangular cover; finite entries are covered by themselves.
    """
    if isinstance(entry, (Static,)):
        return [entry.lattice]
    if isinstance(entry, Rectangular):
        return [entry.lattice]
    if isinstance(entry, RectTemplate):
        if not entry.params.is_infinite:
            return [entry.member(t) for t in entry.params.values]
        profile = tuple(
            s.coeff * entry.params.power_gcd(s.exp) if s.exp else s.coeff
            for s in entry.entries
        )
        if all(g == 1 for g in profile):
            return None
        return [Lattice.from_diagonal(profile)]
    if isinstance(entry, Template):
        if not entry.params.is_infinite:
            return [entry.member(t) for t in entry.params.values]
        bound = entry.pair_sum_bound()
        # Every member contains its own scaled column, so the pairwise bound
        # contains each single member as well.
        if bound.is_proper():
            return [bound]
        return None
    return None


def _entry_coprime_pair_status(entry):
    """True/False when the schema decides whether two members of the entry can
    be coprime; None when it cannot tell."""
    if isinstance(entry, (Static, Rectangular)):
        return None  # single member: the question does not arise
    if isinstance(entry, RectTemplate):
        if isinstance(entry.params, Explicit):
            members = [entry.member(t) for t in entry.params.values]
            return any(
                a.coprime(b) for a, b in itertools.combinations(members, 2)
            )
        if any(s.coeff > 1 for s in entry.entries):
            return False  # every pair shares the constant coefficient
        if isinstance(entry.params, Geometric):
            return False  # every pair shares the base
        return True  # primes with unit coefficients
    if isinstance(entry, Template):
        if isinstance(entry.params, Explicit):
            members = [entry.member(t) for t in entry.params.values]
            return any(a.coprime(b) for a, b in itertools.combinations(members, 2))
        if entry.pair_sum_bound().is_proper():
            return False
        return None
    return None


def _is_entry_infinite(entry) -> bool:
    if isinstance(entry, (Static, Rectangular)):
        return False
    return entry.params.is_infinite


# ---------------------------------------------------------------------------
# covering checks


@dataclass(frozen=True)
class CoveringReport:
    covered: bool
    certificate: Covering | None
    witness: tuple[int, str, Point] | None  # (entry, class label, uncovered point)


def _member_classes(entry, idx: int, n: int):
    """Yield (label, columns, concrete member) for every member class modulo n.

    Two parameters congruent mod n generate the same subgroup once n*Z^m is
    added, so finitely many residue classes cover an infinite entry exactly.
    The concrete member instantiates some parameter of the class (used to
    lift certificate witnesses to actual member points); it may be None when
    no small representative exists.
    """
    m = entry.dim
    unit_cols = [tuple(n if i == j else 0 for i in range(m)) for j in range(m)]
    if isinstance(entry, (Static, Rectangular)):
        yield f"member {entry.lattice.to_columns()}", list(entry.lattice.columns), entry.lattice
        return
    if isinstance(entry, (RectTemplate, Template)):
        if isinstance(entry.params, Explicit):
            for t in entry.params.values:
                member = entry.member(t)
                yield f"t={t}", list(member.columns), member
            return
        for rho in sorted(entry.params.residues_mod(n)):
            t = entry.params.value_in_class(rho, n)
            member = entry.member(t) if t is not None else None
            if isinstance(entry, RectTemplate):
                cols = [
                    tuple(s.value(rho) % n if i == j else 0 for i in range(m))
                    for j, s in enumerate(entry.entries)
                ]
            else:
                cols = [tuple(c) for c in entry.member_columns(rho)]
            yield f"t={rho} (mod {n})", cols + unit_cols, member
        return
    raise TypeError(f"unknown entry type {type(entry).__name__}")


def _quotient_reps(big: Lattice, small: Lattice, rep_limit: int):
    """Coset representatives of small inside big (small must contain... lie in big).

    Expresses the columns of ``small`` over the basis of ``big``; the
    triangular coordinate matrix then enumerates the quotient mixed-radix.
    """
    m = big.dim
    coord_cols = []
    for col in small.columns:
        coeffs = big.coords_of(col)
        assert coeffs is not None, "quotient requires small to be a sublattice of big"
        coord_cols.append(coeffs)
    # coordinate matrix is again triangular with positive diagonal
    diag = [coord_cols[i][i] for i in range(m)]
    count = 1
    for d in diag:
        count *= d
    if count > rep_limit:
        raise TooLargeError(f"quotient of {count} cosets exceeds the check limit")
    out = []
    for k in range(count):
        ks = []
        t = k
        for d in diag:
            ks.append(t % d)
            t //= d
        vec = [0] * m
        for j, kj in enumerate(ks):
            if kj:
                for r in range(m):
                    vec[r] += kj * big.columns[j][r]
        out.append(tuple(vec))
    return out


def check_covering(
    spec: FamilySpec,
    covers,
    *,
    rep_limit: int = DEFAULT_REP_LIMIT,
) -> CoveringReport:
    """Exact answer to "is every family member inside the union of the covers".

    The covers must be proper and must not exhaust Z^m; violations raise
    InvalidCoverError (such a list certifies nothing).  Infinite template
    entries are reduced to finitely many parameter classes modulo the index
    of the cover intersection, which is exact because cover membership is
    periodic with that period.
    """
    covers = list(covers)
    if not covers:
        raise InvalidCoverError("need at least one cover")
    for cov in covers:
        if cov.dim != spec.dim:
            raise InvalidCoverError("cover dimension mismatch")
        if not cov.is_proper():
            raise InvalidCoverError("covers must be proper lattices (index >= 2)")
    period = intersect_all(covers)
    n = period.index
    missed = None
    scanned = 0
    for rep in period.iter_coset_reps():
        if not any(cov.contains(rep) for cov in covers):
            missed = rep
            break
        scanned += 1
        if scanned > rep_limit:
            raise TooLargeError(
                f"could not verify within {rep_limit} cosets that the union stays proper"
            )
    if missed is None:
        raise InvalidCoverError("the covers exhaust the whole group; nothing is certified")

    base = spec.base_spec()
    transform = spec.transform
    checks = []
    for idx, entry in enumerate(base.entries):
        if _is_entry_infinite(entry) and not isinstance(entry.params, Explicit):
            if entry.params.class_count(n) > rep_limit:
                raise TooLargeError("too many parameter classes modulo the cover period")
        for label, cols, member in _member_classes(entry, idx, n):
            if transform is not None:
                cols = [transform.apply_point(c) for c in cols]
                member = transform.apply(member) if member is not None else None
            class_lattice = hnf(
                list(cols)
                + [tuple(n if i == j else 0 for i in range(spec.dim)) for j in range(spec.dim)]
            )
            # cheap path: the whole class sits inside one cover
            direct = next(
                (
                    cov
                    for cov in covers
                    if all(cov.contains(c) for c in class_lattice.columns)
                ),
                None,
            )
            if direct is not None:
                checks.append(CoverCheck(idx, label, 0))
                continue
            inner = class_lattice.intersect(period)
            reps = _quotient_reps(class_lattice, inner, rep_limit)
            for rep in reps:
                if not any(cov.contains(rep) for cov in covers):
                    witness = _lift_witness(member, n, rep, spec.dim)
                    return CoveringReport(False, None, (idx, label, witness))
            checks.append(CoverCheck(idx, label, len(reps)))
    cert = Covering(tuple(covers), missed, tuple(checks))
    return CoveringReport(True, cert, None)


def _lift_witness(member, n: int, rep, dim: int):
    """Replace a class-lattice witness by a congruent point of a concrete
    member: union membership is n*Z^m-periodic, so the lifted point is
    equally uncovered while being a genuine covered-set point."""
    if member is None:
        return rep
    from .lattices import split_in_sum

    parts = split_in_sum(member, Lattice.from_diagonal((n,) * dim), rep)
    if parts is None:
        return rep
    return parts[0]


def prove_no_zero_window(spec: FamilySpec, shape: Shape, covers) -> bool:
    """Exact nonexistence of zero windows for the shape, given a verified cover.

    With every member inside the union of the covers, a zero window must sit
    inside the union as well; union membership is periodic modulo the cover
    intersection, so scanning one period is exhaustive.  Returns True when no
    translate survives (nonexistence proved); False means the scan is silent
    (some period translate stays inside the union, so nothing is proved).
    """
    period = intersect_all(list(covers))
    for g in period.coset_reps():
        ok = True
        for f in shape.offsets:
            p = tuple(a + b for a, b in zip(g, f))
            if not any(cov.contains(p) for cov in covers):
                ok = False
                break
        if ok:
            return False
    return True


# ---------------------------------------------------------------------------
# coprime subsets


def extract_coprime_subset(lattices, exact_limit: int = 12) -> list[Lattice]:
    """A pairwise coprime sublist: maximum-size (ties broken by the
    lexicographically smallest tuple of bases) when the input is small enough
    for exhaustive search, greedy first-fit beyond."""
    lattices = list(lattices)
    n = len(lattices)
    pair: dict[tuple[int, int], bool] = {}

    def ok(i: int, j: int) -> bool:
        key = (min(i, j), max(i, j))
        if key not in pair:
            pair[key] = lattices[key[0]].coprime(lattices[key[1]])
        return pair[key]

    if n <= exact_limit:
        best: list[int] = []
        best_key = None
        for size in range(n, 0, -1):
            for combo in itertools.combinations(range(n), size):
                if all(ok(i, j) for i, j in itertools.combinations(combo, 2)):
                    key = tuple(lattices[i].basis for i in combo)
                    if best_key is None or key < best_key:
                        best = list(combo)
                        best_key = key
            if best_key is not None:
                break
        return [lattices[i] for i in best]
    chosen: list[int] = []
    for i in range(n):
        if all(ok(i, j) for j in chosen):
            chosen.append(i)
    return [lattices[i] for i in chosen]


def coprime_index_subset(lattices) -> list[Lattice]:
    """Sublist of a pairwise coprime family whose indices are pairwise coprime
    integers.

    Greedy gcd filtering in input order; if that keeps a single element while
    some pair of input indices is coprime, the first such pair is returned
    instead, so a two-element answer is produced whenever one exists.
    Raises NotPairwiseCoprimeError when the input itself is not pairwise
    coprime.
    """
    lattices = list(lattices)
    for i, j in itertools.combinations(range(len(lattices)), 2):
        if not lattices[i].coprime(lattices[j]):
            raise NotPairwiseCoprimeError(f"input lattices {i} and {j} are not coprime")
    kept: list[int] = []
    for i, lat in enumerate(lattices):
        if all(gcd(lat.index, lattices[j].index) == 1 for j in kept):
            kept.append(i)
    if len(kept) < 2:
        for i, j in itertools.combinations(range(len(lattices)), 2):
            if gcd(lattices[i].index, lattices[j].index) == 1:
                return [lattices[i], lattices[j]]
    return [lattices[i] for i in kept]


# ---------------------------------------------------------------------------
# the verdict


@dataclass(frozen=True)
class SearchBudget:
    """Bounded-search knobs for evidence gathering and reports."""

    max_side: int = 3
    search_radius: int = 16
    instance_bound: int = 60
    cell_limit: int = 10**8


def _zero_window_evidence(spec: FamilySpec, budget: SearchBudget):
    found = []
    not_found = []
    search = Box.centered(budget.search_radius, spec.dim)
    for k in range(1, budget.max_side + 1):
        shape = Shape.from_box(Box((0,) * spec.dim, (k,) * spec.dim))
        g = find_zero_window(spec, shape, search, cell_limit=budget.cell_limit)
        if g is None:
            not_found.append(k)
        else:
            found.append((k, g))
    return tuple(found), tuple(not_found), f"translates in {search.format()}"


def decide(spec: FamilySpec, budget: SearchBudget | None = None) -> Verdict:
    """Proximality verdict with a re-checkable certificate.

    Exact for rectangular schemas (templates included); families with
    non-rectangular entries whose schema supports a covering argument get an
    exact NotProximal; everything else is Inconclusive with finite evidence.
    A coordinate change on the family does not affect the verdict, so it is
    decided on the underlying entries and certificates are mapped forward.
    """
    budget = budget or SearchBudget()
    base = spec.base_spec()

    for idx, entry in enumerate(base.entries):
        scheme = _coprime_subscheme(entry, idx)
        if scheme is not None:
            if spec.transform is not None:
                scheme = CoprimeSubscheme(
                    scheme.entry_index,
                    scheme.rule + " (mapped through the coordinate change)",
                    tuple(spec.transform.apply(lat) for lat in scheme.sample),
                )
            return Verdict(PROXIMAL, scheme)

    covers: list[Lattice] = []
    coverable = True
    for entry in base.entries:
        entry_covers = _entry_cover(entry)
        if entry_covers is None:
            coverable = False
            break
        covers.extend(entry_covers)
    if coverable and covers:
        if spec.transform is not None:
            covers = [spec.transform.apply(c) for c in covers]
        dedup = {}
        for cov in covers:
            dedup[cov.basis] = cov
        covers = sorted(dedup.values(), key=lambda l: (l.index, l.basis))
        try:
            report = check_covering(spec, covers)
        except (InvalidCoverError, TooLargeError):
            report = CoveringReport(False, None, None)
        if report.covered:
            return Verdict(NOT_PROXIMAL, report.certificate)

    found, not_found, searched = _zero_window_evidence(spec, budget)
    evidence = Evidence(found, not_found, searched)
    return Verdict(INCONCLUSIVE, evidence, tuple(k for k, _ in found))


def decide_rectangular(spec: FamilySpec) -> Verdict:
    """Verdict for families of rectangular entries only.

    Raises NotRectangularError when a non-rectangular entry is present; for
    rectangular schemas the coprime-subfamily test and the coordinatewise
    covering construction are jointly complete, so the answer is never
    Inconclusive.
    """
    for entry in spec.base_spec().entries:
        if _rect_pattern(entry) is None:
            raise NotRectangularError(
                f"entry {entry.describe()} is not rectangular"
            )
    return decide(spec)


def crt_window_certificate(spec: FamilySpec, shape, *, instance_bound: int = 2000):
    """Zero window built from family members, with the coprime list that made it.

    Collects pairwise coprime rectangular members (greedy over instances by
    increasing index), constructs the CRT translate for the shape, verifies
    every cell, and returns (translate, period, CoprimeList certificate).
    The extension note records whether a schema-level coprime subfamily
    guarantees arbitrarily large windows of this kind.
    """
    from .windows import zero_window_by_crt

    members = [lat for lat in spec.instances_up_to(instance_bound) if lat.is_diagonal()]
    chosen: list[Lattice] = []
    for lat in members:
        if all(lat.coprime(c) for c in chosen):
            chosen.append(lat)
        if len(chosen) == len(shape):
            break
    translate = zero_window_by_crt(chosen, shape)
    for lat, f in zip(chosen, shape.offsets):
        cell = tuple(a + b for a, b in zip(translate, f))
        if not lat.contains(cell) or not spec.covered(cell):
            raise InconsistencyError("constructed window failed its membership recheck")
    period = intersect_all(chosen[: len(shape)])
    scheme = next(
        (
            idx
            for idx, entry in enumerate(spec.base_spec().entries)
            if _coprime_subscheme(entry, idx) is not None
        ),
        None,
    )
    if scheme is not None:
        note = (
            f"entry {scheme} supplies pairwise coprime members for every window size, "
            "so windows of this kind exist for all shapes"
        )
    else:
        note = "finite verification only: no schema-level coprime subfamily was found"
    cert = CoprimeList(tuple(chosen), note)
    return translate, period, cert


def fixed_translate_verdict(
    spec: FamilySpec, translate, lattice: Lattice
) -> Verdict:
    """NotProximal verdict certified by a free translate of a finite-index lattice.

    A translate of a finite-index lattice avoiding every member rules out the
    all-zero limit configuration, hence proximality.  Raises ValueError when
    the supplied translate does not check out exactly.
    """
    report = check_fixed_translate(spec, translate, lattice)
    if not report.holds or not report.exact:
        raise ValueError(
            "the supplied translate is not an exactly verified free translate: "
            + report.detail
        )
    cert = FixedTranslate(tuple(translate), lattice, report.detail)
    return Verdict(NOT_PROXIMAL, cert)


# ---------------------------------------------------------------------------
# fixed translates


@dataclass(frozen=True)
class FixedTranslateReport:
    holds: bool
    exact: bool
    witness: Point | None  # covered point inside translate + lattice, when refuted
    detail: str


def check_fixed_translate(
    spec: FamilySpec,
    translate,
    lattice: Lattice,
    *,
    class_limit: int = DEFAULT_CLASS_LIMIT,
) -> FixedTranslateReport:
    """Does translate + lattice avoid every family member entirely?

    Per member L the translate meets L precisely when the translate point
    lies in L + lattice, so the test is exact member by member.  Infinite
    template entries reduce to parameter classes modulo the index of
    ``lattice`` (the sum lattice only depends on the parameter through that
    residue).  Falls back to bounded evidence if the class enumeration would
    exceed ``class_limit``.
    """
    a = spec.pullback(translate)
    base = spec.base_spec()
    if spec.transform is not None:
        lattice = spec.transform.inverse().apply(lattice)
    n = lattice.index
    exact = True
    for idx, entry in enumerate(base.entries):
        if _is_entry_infinite(entry) and entry.params.class_count(n) > class_limit:
            exact = False
            members = entry.instances_up_to(class_limit)
            for member in members:
                if member.sum(lattice).contains(a):
                    w = _meeting_point(member, lattice, a)
                    return FixedTranslateReport(False, True, w, f"entry {idx} member meets the translate")
            continue
        for label, cols, _ in _member_classes(entry, idx, n):
            summed = hnf(list(cols) + list(lattice.columns))
            if summed.contains(a):
                return FixedTranslateReport(
                    False, True, None, f"entry {idx} class {label} meets the translate"
                )
    detail = "no member meets the translate" if exact else (
        "no enumerated member meets the translate (class enumeration truncated)"
    )
    return FixedTranslateReport(True, exact, None, detail)


def _meeting_point(member: Lattice, lattice: Lattice, a):
    from .lattices import split_in_sum

    parts = split_in_sum(member, lattice, a)
    if parts is None:
        return None
    x, _ = parts
    return x


# ---------------------------------------------------------------------------
# condition reports


@dataclass(frozen=True)
class ConditionRow:
    holds: bool | None
    mode: str  # "exact", "derived", "evidence", "unknown"
    detail: str

    def to_json_dict(self) -> dict:
        return {"holds": self.holds, "mode": self.mode, "detail": self.detail}


@dataclass(frozen=True)
class ConditionsReport:
    """Status of the equivalent conditions, with certificates where exact.

    Keys: "a" proximality, "b" the all-zero configuration is a limit of
    translates, "c" no proper-cover containment of the union, "d" infinite
    pairwise coprime subfamily, "e" no free translate of a finite-index
    lattice, "f" upper Banach density of the union equals 1.  "d_prime" is
    present when a candidate coprime subfamily was supplied for checking.
    """

    rows: dict
    verdict: Verdict

    def to_json_dict(self) -> dict:
        return {
            "conditions": {k: v.to_json_dict() for k, v in self.rows.items()},
            "verdict": self.verdict.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _coprime_subset_analysis(spec: FamilySpec):
    """(holds, mode, detail) for the infinite-pairwise-coprime-subfamily condition."""
    base = spec.base_spec()
    for idx, entry in enumerate(base.entries):
        if _coprime_subscheme(entry, idx) is not None:
            return True, "exact", f"entry {idx} carries an infinite pairwise coprime subfamily"
    infinite = [(i, e) for i, e in enumerate(base.entries) if _is_entry_infinite(e)]
    if not infinite:
        return False, "exact", "the family is finite, so it has no infinite subfamily"
    blockers = []
    for i, e in infinite:
        status = _entry_coprime_pair_status(e)
        if status is not False:
            return None, "unknown", f"entry {i} admits no schema-level coprimality analysis"
        blockers.append(i)
    detail = (
        "every infinite entry (%s) has pairwise non-coprime members, and an infinite "
        "subfamily must draw infinitely many members from a single entry"
        % ", ".join(map(str, blockers))
    )
    return False, "exact", detail


@dataclass(frozen=True)
class DPrimeReport:
    holds: bool | None
    mode: str
    detail: str
    witness: tuple | None


def check_coprime_cover_candidate(
    spec: FamilySpec,
    candidate: FamilySpec,
    *,
    instance_bound: int = 200,
    scan_radius: int = 12,
) -> DPrimeReport:
    """Checker for a user-supplied pairwise coprime family claimed to sit
    inside the covered union.

    Pairwise coprimality of the candidate must be schema-exact; containment
    is refuted exactly by a witness point, or reported as bounded evidence
    when the scan finds none.
    """
    holds, mode, detail = _coprime_subset_analysis(candidate)
    if holds is not True:
        return DPrimeReport(
            None,
            "unknown",
            f"candidate family is not schema-certified pairwise coprime ({detail})",
            None,
        )
    for member in candidate.instances_up_to(instance_bound):
        bound = scan_radius
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=member.dim):
            vec = [0] * member.dim
            for j, k in enumerate(coeffs):
                if k:
                    for r in range(member.dim):
                        vec[r] += k * member.columns[j][r]
            p = tuple(vec)
            if spec.free(p):
                return DPrimeReport(
                    False,
                    "exact",
                    f"candidate member {member.to_columns()} contains the free point {p}",
                    (member, p),
                )
    return DPrimeReport(
        True,
        "evidence",
        f"no candidate point escapes the union (members of index <= {instance_bound}, "
        f"coefficients within +/-{scan_radius})",
        None,
    )


def conditions_report(
    spec: FamilySpec,
    budget: SearchBudget | None = None,
    dprime_candidate: FamilySpec | None = None,
) -> ConditionsReport:
    """Evaluate each equivalent condition as far as the schema and budget allow.

    Exact results must respect the proved implications (the conditions other
    than the coprime-subfamily one are mutually equivalent, and that one
    implies the rest); any exact violation raises InconsistencyError, since
    it can only mean an implementation bug.
    """
    budget = budget or SearchBudget()
    verdict = decide(spec, budget)
    rows: dict[str, ConditionRow] = {}

    if verdict.status == PROXIMAL:
        base = ConditionRow(True, "exact", "coprime subfamily certificate")
        rows["a"] = base
        rows["b"] = ConditionRow(True, "derived", "equivalent to (a)")
        rows["c"] = ConditionRow(True, "derived", "equivalent to (a)")
        rows["e"] = ConditionRow(True, "derived", "equivalent to (a)")
        rows["f"] = ConditionRow(True, "derived", "equivalent to (a)")
    elif verdict.status == NOT_PROXIMAL:
        cert = verdict.certificate
        assert isinstance(cert, Covering)
        rows["a"] = ConditionRow(False, "exact", "covering certificate")
        period = intersect_all(cert.covers)
        side = period.index - 1
        if (side + 1) ** spec.dim * period.index <= 500_000:
            # A box of side index(P) - 1 meets every coset of P, so the scan
            # below is guaranteed to refute it when the covering holds.
            shape = Shape.from_box(Box((0,) * spec.dim, (side,) * spec.dim))
            proved = prove_no_zero_window(spec, shape, cert.covers)
            if not proved:
                raise InconsistencyError(
                    "covering verified but the period scan found a surviving translate"
                )
            b_detail = (
                f"no zero window of side {side} exists "
                "(full-period scan modulo the cover intersection)"
            )
        else:
            b_detail = "a verified covering forbids large zero windows"
        rows["b"] = ConditionRow(False, "exact", b_detail)
        rows["c"] = ConditionRow(
            False, "exact", "the certified covers contain every member"
        )
        ft = check_fixed_translate(spec, cert.missed_coset, period)
        if not ft.holds:
            raise InconsistencyError("missed cover coset fails to give a free translate")
        rows["e"] = ConditionRow(
            False,
            "exact",
            f"translate {list(cert.missed_coset)} + (cover intersection) stays free",
        )
        rows["f"] = ConditionRow(
            False, "derived", "equivalent to (b): the union misses a full coset, so its density stays below 1"
        )
    else:
        if isinstance(verdict.certificate, Evidence):
            ev = verdict.certificate
            found, not_found, searched = ev.found, ev.not_found, ev.searched
        else:
            found, not_found, searched = _zero_window_evidence(spec, budget)
        all_found = not not_found
        b_row = ConditionRow(
            True if all_found else None,
            "evidence" if all_found else "unknown",
            f"zero windows found for square shapes up to side {budget.max_side} ({searched})"
            if all_found
            else f"no zero window found for sides {list(not_found)} ({searched}); not a proof",
        )
        rows["b"] = b_row
        rows["a"] = ConditionRow(b_row.holds, "derived" if all_found else "unknown", "equivalent to (b)")
        rows["c"] = ConditionRow(b_row.holds, "derived" if all_found else "unknown", "equivalent to (b)")
        rows["e"] = ConditionRow(b_row.holds, "derived" if all_found else "unknown", "equivalent to (b)")
        rows["f"] = ConditionRow(b_row.holds, "derived" if all_found else "unknown", "equivalent to (b); density ratios are lower bounds only")

    d_holds, d_mode, d_detail = _coprime_subset_analysis(spec)
    rows["d"] = ConditionRow(d_holds, d_mode, d_detail)

    if dprime_candidate is not None:
        dp = check_coprime_cover_candidate(spec, dprime_candidate)
        rows["d_prime"] = ConditionRow(dp.holds, dp.mode, dp.detail)

    _check_consistency(rows)
    ordered = {k: rows[k] for k in ("a", "b", "c", "d", "d_prime", "e", "f") if k in rows}
    return ConditionsReport(ordered, verdict)


def _check_consistency(rows: dict):
    exact_equiv = [
        rows[k].holds for k in ("a", "b", "c", "e", "f") if k in rows and rows[k].mode in ("exact", "derived") and rows[k].holds is not None
    ]
    if exact_equiv and len(set(exact_equiv)) > 1:
        raise InconsistencyError(f"equivalent conditions disagree: {rows}")
    d = rows.get("d")
    if d is not None and d.mode == "exact" and d.holds is True and exact_equiv and not all(exact_equiv):
        raise InconsistencyError("a coprime subfamily exists but an equivalent condition is false")
