"""Verdict engine: decide proximality where the family schema allows an exact
answer, check the individual equivalent conditions, and emit machine-checkable
certificates.

Exact verdicts come from each entry's ``schema()`` answer, read once per
question, and are issued in two situations only:

* some entry holds an infinite pairwise coprime subfamily, which today means
  a template with the identity base over primes (Proximal); or
* every entry has a cover (its members, or the span of an infinite entry)
  and the covers provably hold every member (NotProximal), verified by
  finite checks that are exact because cover membership is periodic.

Those checks, ``check_covering`` and ``check_fixed_translate``, settle an
entry by its span, or a finite entry member by member.  An infinite entry
that its span does not settle is refused by the covering check
(``UnsettledEntryError``) and scanned by members up to a bound by the
fixed-translate check; its parameters are never sorted into classes.

The same answers decide condition (d) of ``conditions_report``, the
candidate check behind (d') and the note of ``crt_window_certificate``.

Everything else is reported as Inconclusive with finite evidence.  Absence of
a coprime subset is never used on its own to conclude non-proximality: for
general lattice families that implication has no converse.
"""

import itertools
from math import gcd

from .errors import (
    InconsistencyError,
    InvalidCoverError,
    NotPairwiseCoprimeError,
    TooLargeError,
    UnsettledEntryError,
)
from .families import CoprimeFamily, FamilySpec, Static, indented_json
from .lattices import (
    Lattice,
    Point,
    as_point,
    combination,
    intersect_all,
    record,
    split_in_sum,
)
from .windows import DEFAULT_CELL_LIMIT, Box, Shape, _check_scan_size, _Sieve, _slabs, covered_flags, zero_window_by_crt

PROXIMAL = "Proximal"
NOT_PROXIMAL = "NotProximal"
INCONCLUSIVE = "Inconclusive"

DEFAULT_REP_LIMIT = 200_000
DEFAULT_PERIOD_CELL_LIMIT = 10**6  # cells of prove_no_zero_window's sieve box
REPORT_PERIOD_SCAN_LIMIT = 500_000  # (b)'s period scan needs n^(m+1) <= this, n the index of the covers' intersection
CRT_INSTANCE_BOUND = 2000
_DPRIME_INSTANCE_BOUND = 200
_DPRIME_SCAN_RADIUS = 12
# the conditions the paper proves equivalent for lattices in Z^m
_EQUIVALENT = ("a", "b", "c", "e", "f")


# ---------------------------------------------------------------------------
# certificates


@record
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


@record
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


@record
class CoverCheck:
    """One verified containment: an entry's span, or one member of a finite
    entry, taken modulo ``modulus``, sits inside the cover union.  ``cover``
    is the index of the one cover holding it, or None when the check spans
    several covers."""

    entry_index: int
    label: str
    reps_checked: int
    cover: int | None
    modulus: int


@record
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
                {
                    "entry": c.entry_index,
                    "label": c.label,
                    "reps": c.reps_checked,
                    "cover": c.cover,
                    "modulus": c.modulus,
                }
                for c in self.checks
            ],
        }


@record
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


Certificate = CoprimeSubscheme | CoprimeList | Covering | Evidence


@record
class Verdict:
    status: str
    certificate: Certificate

    @property
    def zero_window_sides(self) -> tuple[int, ...]:
        """Sides with a zero window found, read off an Evidence certificate."""
        if isinstance(self.certificate, Evidence):
            return tuple(k for k, _ in self.certificate.found)
        return ()

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "certificate": self.certificate.to_json_dict(),
            "evidence": {"zero_window_sides": list(self.zero_window_sides)},
        }

    def to_json(self) -> str:
        return indented_json(self.to_json_dict())


# ---------------------------------------------------------------------------
# covering checks


@record
class CoveringReport:
    covered: bool
    certificate: Covering | None
    witness: tuple[int, str, Point] | None  # (entry, check label, uncovered point)


def _coset_walk(big: Lattice, covers, limit: int, grow=None):
    """(rep, charged): the first coset rep in ``big`` of I, ``big``
    intersected with every cover, that no cover holds, or None; ``charged``
    is the sum of the quotients walked.

    I lies in every cover, so a cover holding a rep r holds r + I, and None
    proves ``big`` inside the union.  I's coordinates over ``big``'s basis
    are triangular with diagonal I.diagonal / big.diagonal, so the quotient
    is walked mixed-radix over those ratios (first coordinate fastest) and
    mapped through ``big``'s columns.  With ``grow``
    (``FamilySpec.member_containing``), grow(rep) joins the covers, I
    shrinks to its intersection with it and the walk starts again, so a
    rep is returned only when grow(rep) is None.  Each walk is charged its
    whole quotient, and one whose quotient exceeds what is left of
    ``limit`` raises TooLargeError before its first rep.
    """
    covers = list(covers)
    inter = intersect_all([big, *covers])
    cols, charged = big.columns, 0
    while True:
        count, left = inter.index // big.index, limit - charged
        if count > left:
            raise TooLargeError(
                f"covering check: a class quotient of {count} cosets exceeds rep_limit={left}",
                check="covering check", limit_name="rep_limit", limit=left, count=count,
            )
        charged += count
        ratios = [s // b for s, b in zip(inter.diagonal, big.diagonal)]
        reps = (combination(cols, ks) for ks in Lattice.from_diagonal(ratios).iter_coset_reps())
        rep = _outside(covers, reps)
        found = None if rep is None or grow is None else grow(rep)
        if found is None:
            return rep, charged
        covers.append(found)
        inter = inter.intersect(found)


def _settle_entry(entry, n: int, answer, image):
    """Lattices that hold every member of ``entry`` between them, for a
    property that passes to sublattices, as (label, lattice,
    answer(lattice), member, modulus), each lattice mapped into family
    coordinates by ``image`` (``FamilySpec.image``); ``member`` is the
    concrete member inside it, in entry coordinates.

    ``answer`` is None where the property fails, and is evaluated once per
    lattice.  The image of the span comes first, and settles the entry
    alone when its answer is not None (member and modulus None).  Else a
    finite entry is settled member by member, built lazily: a member's
    lattice is the image of the member plus n Z^m (``Lattice.sum``, so
    diag(gcd) of a diagonal member), which the unimodular map keeps, with
    modulus n.  An infinite entry that its span does not settle gives
    None: its members are never sorted into classes.
    """
    span = entry.span
    mapped = image(span)
    got = answer(mapped)
    if got is not None:
        return [(f"{entry.span_word} {span.to_columns()}", mapped, got, None, None)]
    if entry.is_infinite:
        return None
    n_lattice = Lattice.from_diagonal((n,) * entry.dim)

    def members():
        for label, member in entry.labelled_members():
            lat = image(member.sum(n_lattice))
            yield label, lat, answer(lat), member, n

    return members()


def check_covering(
    spec: FamilySpec,
    covers,
    *,
    rep_limit: int = DEFAULT_REP_LIMIT,
) -> CoveringReport:
    """Exact answer to "is every family member inside the union of the covers".

    The covers must be proper and must not exhaust Z^m; violations raise
    InvalidCoverError (such a list certifies nothing).  The missed coset is
    a representative of the cover intersection outside every cover: the
    first in ``iter_coset_reps`` order, built coordinate by coordinate when
    every cover is diagonal and found by a scan otherwise, or, past
    ``rep_limit`` scanned reps, a small missed point reduced modulo the
    intersection (``_first_missed_scan``).

    Each entry is settled by ``_settle_entry`` with the property "held by
    one cover".  A cover is a group, so it holds every member exactly when
    it holds the span's columns, and one ``CoverCheck`` naming the first
    such cover C settles the entry, with index(C) as its modulus.  A finite
    entry that no single cover holds is checked member by member, modulo
    the index N of the cover intersection, which is exact because union
    membership is periodic with that period: each member gets its own
    check, and a member that no one cover holds is walked by
    ``_coset_walk``; a rep outside the union refutes the covering, with a
    witness lifted to a point of that member.  An infinite entry whose
    span no single cover holds raises UnsettledEntryError, naming the entry
    and its span: such covers are never answered for, either way.  Raises
    TooLargeError, naming the count and ``rep_limit``, when neither the
    scan of non-diagonal covers nor the small-point search finds a missed
    coset within it, or when a member's quotient has more reps than it.
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
    if all(cov.is_diagonal() for cov in covers):
        missed = _first_missed_diagonal(covers)
    else:
        missed = _first_missed_scan(covers, period, rep_limit)
    if missed is None:
        raise InvalidCoverError("the covers exhaust the whole group; nothing is certified")

    def holding_cover(lat):
        """Index of the first cover that contains ``lat``, or None."""
        return next((k for k, cov in enumerate(covers) if all(cov.contains(c) for c in lat.columns)), None)

    checks = []
    for idx, entry in enumerate(spec.entries):
        settled = _settle_entry(entry, n, holding_cover, spec.image)
        if settled is None:
            raise UnsettledEntryError(
                f"covering check, entry {idx} ({entry.spec_line()}): no single cover holds "
                f"its span {spec.image(entry.span).to_columns()}, and an infinite entry "
                "is settled by its span alone"
            )
        for label, lat, k, member, modulus in settled:
            if k is not None:
                checks.append(CoverCheck(idx, label, 0, k, covers[k].index if modulus is None else modulus))
                continue
            # no one cover holds the member: walk its quotient by the period
            rep, count = _coset_walk(lat, covers, rep_limit)
            if rep is not None:
                n_lattice = Lattice.from_diagonal((n,) * spec.dim)
                witness = split_in_sum(spec.image(member), n_lattice, rep)[0]
                return CoveringReport(False, None, (idx, label, witness))
            checks.append(CoverCheck(idx, label, count, None, n))
    cert = Covering(tuple(covers), missed, tuple(checks))
    return CoveringReport(True, cert, None)


def _first_missed_diagonal(covers) -> Point:
    """First coset rep of the intersection of proper diagonal covers that
    lies in none of them.

    A point escapes a diagonal cover when some coordinate is not a multiple
    of that cover's diagonal entry; the value 1 escapes every cover whose
    entry exceeds 1, and 0 escapes none.  Reps are ordered last coordinate
    first, so coordinates are fixed from last to first, each at 0 unless
    an open cover (one no chosen coordinate escapes yet) has entry 1 on
    every coordinate below: that cover must be escaped here, and 1 is the
    least value that does.  Each proper cover is escaped by the time the
    first coordinate is fixed, so a missed coset always exists.
    """
    # per cover: its diagonal and its lowest coordinate with an entry above 1
    open_covers = [
        (cov.diagonal, next(i for i, d in enumerate(cov.diagonal) if d > 1)) for cov in covers
    ]
    point = [0] * covers[0].dim
    for j in reversed(range(len(point))):
        if any(low >= j for _, low in open_covers):
            point[j] = 1
            open_covers = [(diag, low) for diag, low in open_covers if diag[j] == 1]
    return tuple(point)


def _outside(covers, points):
    """The first of ``points`` that no cover holds, or None."""
    return next((p for p in points if not any(cov.contains(p) for cov in covers)), None)


def _first_missed_scan(covers, period: Lattice, rep_limit: int) -> Point | None:
    """A coset rep of ``period`` outside every cover; None when the covers
    hold them all.

    The first ``rep_limit`` reps are scanned, in ``iter_coset_reps`` order,
    and the first one outside every cover is returned.  When ``period`` has
    more cosets than that, the points of Z^m are then tested by growing
    infinity-norm radius, through the largest ball of at most ``rep_limit``
    points; the first one outside every cover is returned reduced modulo
    ``period`` (its canonical rep in the box [0, diagonal)), which the
    covers miss as well, since each holds ``period``.  So a small missed
    point is found whatever the coordinates.  Raises TooLargeError when
    neither route finds one.
    """
    rep = _outside(covers, itertools.islice(period.iter_coset_reps(), rep_limit))
    if rep is not None or period.index <= rep_limit:
        return rep
    point = _outside(covers, _points_by_radius(period.dim, rep_limit))
    if point is not None:
        return period.reduce(point)
    raise TooLargeError(
        f"covering check: the first {rep_limit} of {period.index} cosets of the cover "
        f"intersection all lie in the union (rep_limit={rep_limit})",
        check="covering check", limit_name="rep_limit", limit=rep_limit, count=period.index,
    )


def _points_by_radius(m: int, limit: int):
    """The points of Z^m shell by shell, infinity-norm radius r = 0, 1, ...,
    through the largest r whose ball, (2r + 1)^m points, has at most
    ``limit`` points.  A shell point has its first coordinate of absolute
    value r at some k: the coordinates before k lie strictly inside."""
    r = 0
    while (2 * r + 1) ** m <= limit:
        ends = (-r, r) if r else (0,)
        for k in range(m):
            for head in itertools.product(range(1 - r, r), repeat=k):
                for x in ends:
                    for tail in itertools.product(range(-r, r + 1), repeat=m - k - 1):
                        yield head + (x,) + tail
        r += 1


def prove_no_zero_window(spec: FamilySpec, shape: Shape, covers) -> bool:
    """Exact nonexistence of zero windows for the shape, given a verified cover.

    With every member inside the union of the covers, a zero window must sit
    inside the union as well; union membership is periodic modulo the cover
    intersection, so the translates of the rep box [0, D), D its diagonal,
    are exhaustive.  They go through the sieve of the zero-window scans in
    one piece, over the box [shape low, D - 1 + shape high].  Returns True
    when none survives (nonexistence proved); False means nothing is proved.
    Raises TooLargeError, naming the period's size, when that box has more
    than DEFAULT_PERIOD_CELL_LIMIT cells.
    """
    covers = list(covers)
    period = intersect_all(covers)
    lo, hi = shape.bounds()
    diag = period.diagonal
    box = Box(lo, tuple(d - 1 + h for d, h in zip(diag, hi)))
    if box.volume > DEFAULT_PERIOD_CELL_LIMIT:
        raise TooLargeError(
            f"period proof: a period of {period.index} cosets needs a sieve box of "
            f"{box.volume} cells, above the limit of {DEFAULT_PERIOD_CELL_LIMIT}",
            check="period proof", limit_name="DEFAULT_PERIOD_CELL_LIMIT", limit=DEFAULT_PERIOD_CELL_LIMIT,
            count=box.volume,
        )
    union = FamilySpec(len(diag), tuple(Static(cov) for cov in covers))
    sieve = _Sieve(union, Box((0,) * len(diag), tuple(d - 1 for d in diag)), lo, hi)
    return not sieve.keep(sieve.survivors, shape.offsets)


# ---------------------------------------------------------------------------
# coprime subsets


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


@record
class SearchBudget:
    """Bounded-search knobs for evidence gathering and reports."""

    max_side: int = 3
    search_radius: int = 16
    cell_limit: int = DEFAULT_CELL_LIMIT


def _zero_window_evidence(spec: FamilySpec, budget: SearchBudget) -> Evidence:
    """Zero windows of the square shapes [0, k]^m, k = 1..max_side, in the
    centered search box: for each side, the lexicographically first
    translate, as ``find_zero_window`` gives it.  Every side's scan is
    checked against the cell limit, in order, before the first sieve.

    The search box's slabs (``windows._slabs``) are walked once, each
    sieved once, grown by max_side, for every side not yet found: side k
    ANDs in the offsets of [0, k]^m that the sides before it in the slab
    did not (``_square_offsets``) and takes its first survivor.  A window
    of side k + 1 at g holds one of side k at g, so a side without a
    survivor in a slab sends every larger side to the next slab, and the
    scan stops at the first side without a window and lists it and every
    larger side as not found."""
    m = spec.dim
    search = Box.centered(budget.search_radius, m)
    top = budget.max_side
    sides = range(1, top + 1)
    for k in sides:
        _check_scan_size(search, (k + 1) ** m, (k + 1,) * m, budget.cell_limit)
    found = []
    for slab in _slabs(search):
        if len(found) == top:
            break
        sieve = _Sieve(spec, slab, (0,) * m, (top,) * m)
        survivors, done = sieve.survivors, -1
        for k in sides[len(found) :]:
            survivors = sieve.keep(survivors, _square_offsets(m, done, k))
            if not survivors:
                break
            found.append((k, sieve.first(survivors)))
            done = k
    return Evidence(tuple(found), tuple(sides[len(found) :]), f"translates in {search.format()}")


def _square_offsets(m: int, done: int, k: int) -> list[Point]:
    """The offsets of [0, k]^m outside [0, done]^m."""
    return [f for f in itertools.product(range(k + 1), repeat=m) if max(f) > done]


def _schemas(spec: FamilySpec) -> list:
    """Each entry's ``schema()`` answer, in entry order, in entry coordinates."""
    return [entry.schema() for entry in spec.entries]


def _coprime_entry(schemas):
    """(index, CoprimeFamily) of the first entry holding one, or None."""
    return next(((i, s) for i, s in enumerate(schemas) if isinstance(s, CoprimeFamily)), None)


def _schema_verdict(spec: FamilySpec, schemas) -> Verdict | None:
    """Proximal when some entry holds a coprime family; else NotProximal
    when every entry has a cover and the covers verify; else None.  Raises
    InvalidCoverError or TooLargeError when the covers cannot be checked.
    Covers and samples are mapped into family coordinates by ``spec.image``."""
    coprime = _coprime_entry(schemas)
    if coprime is not None:
        idx, family = coprime
        rule = family.rule
        if spec.transform is not None:
            rule += " (mapped through the coordinate change)"
        return Verdict(PROXIMAL, CoprimeSubscheme(idx, rule, tuple(map(spec.image, family.sample))))
    if not schemas or any(s is None for s in schemas):
        return None
    covers = [spec.image(cov) for entry_covers in schemas for cov in entry_covers]
    dedup = {cov.basis: cov for cov in covers}
    covers = sorted(dedup.values(), key=lambda l: (l.index, l.basis))
    report = check_covering(spec, covers)
    return Verdict(NOT_PROXIMAL, report.certificate) if report.covered else None


def decide(spec: FamilySpec, budget: SearchBudget | None = None) -> Verdict:
    """Proximality verdict with a re-checkable certificate.

    Exact when some entry holds a coprime family, or when every entry has
    a cover (its span, or its members) and the covers verify; everything
    else is Inconclusive with finite evidence.  A nonempty family of
    diagonal entries (``rect``/``static`` lattices and templates over a
    diagonal base) always gets one of the two: each such infinite entry has a proper
    span or, over primes with the identity base, a coprime family.  Without
    a transform its covers are diagonal, so the missed coset is built
    directly and the verdict is never Inconclusive; under a transform only
    the missed-coset scan is bounded by the covering check's ``rep_limit``.
    A coordinate change on the family does not affect the verdict, so it is
    decided on the underlying entries and certificates are mapped forward.
    """
    return _decide(spec, budget or SearchBudget(), _schemas(spec))


def _decide(spec: FamilySpec, budget: SearchBudget, schemas) -> Verdict:
    """``decide`` on the entries' schema answers, read once by the caller."""
    try:
        verdict = _schema_verdict(spec, schemas)
    except (InvalidCoverError, TooLargeError):
        verdict = None
    if verdict is not None:
        return verdict
    return Verdict(INCONCLUSIVE, _zero_window_evidence(spec, budget))


def crt_window_certificate(spec: FamilySpec, shape, *, instance_bound: int = CRT_INSTANCE_BOUND):
    """Zero window built from family members, with the coprime list that made it.

    Collects members greedily over instances by increasing index, each
    coprime to the intersection (the period) of those before it, so the
    system of congruences always has a solution.  The members are built as
    they are read (``FamilySpec.iter_instances``), up to the one that fills
    the shape, not up to ``instance_bound``.  Builds the CRT translate
    for the shape, verifies every cell, and returns (translate, period,
    CoprimeList certificate).
    The extension note records whether a schema-level coprime subfamily
    guarantees arbitrarily large windows of this kind.
    """
    chosen: list[Lattice] = []
    period = Lattice.whole(spec.dim)
    for lat in spec.iter_instances(instance_bound):
        if lat.coprime(period):
            chosen.append(lat)
            period = period.intersect(lat)
        if len(chosen) == len(shape):
            break
    translate = zero_window_by_crt(chosen, shape)
    for lat, f in zip(chosen, shape.offsets):
        cell = tuple(a + b for a, b in zip(translate, f))
        if not lat.contains(cell) or not spec.covered(cell):
            raise InconsistencyError("constructed window failed its membership recheck")
    coprime = _coprime_entry(_schemas(spec))
    if coprime is not None:
        note = (
            f"entry {coprime[0]} supplies pairwise coprime members for every window size, "
            "so windows of this kind exist for all shapes"
        )
    else:
        note = "finite verification only: no schema-level coprime subfamily was found"
    cert = CoprimeList(tuple(chosen), note)
    return translate, period, cert


# ---------------------------------------------------------------------------
# fixed translates


@record
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
    rep_limit: int = DEFAULT_REP_LIMIT,
) -> FixedTranslateReport:
    """Does translate + lattice avoid every family member entirely?

    A member L meets the translate exactly when the translate point lies in
    L + lattice, and avoiding it passes to sublattices, so each entry is
    settled by ``_settle_entry`` with the property "the translate lies
    outside L + lattice", in family coordinates as in ``check_covering``:
    the span first, one test for every member; else, for a finite entry,
    each member.  A member that meets the translate refutes it exactly, and
    the witness is a point of that member inside translate + lattice.  An
    infinite entry whose span does not settle it falls back to its members
    of index at most ``rep_limit``: one that meets the translate still
    refutes it exactly, but when none does the answer is evidence only
    (``exact`` False).  A translate or a lattice of another dimension than
    the family raises ValueError before any entry is settled.
    """
    a = as_point(translate)
    if len(a) != spec.dim:
        raise ValueError("point dimension mismatch")
    if lattice.dim != spec.dim:
        raise ValueError("lattice dimension mismatch")
    exact = True

    def avoids(lat):
        return None if lat.sum(lattice).contains(a) else True

    def refuted(member, what):
        witness = split_in_sum(spec.image(member), lattice, a)[0]
        return FixedTranslateReport(False, True, witness, f"{what} meets the translate")

    for idx, entry in enumerate(spec.entries):
        settled = _settle_entry(entry, lattice.index, avoids, spec.image)
        if settled is None:
            exact = False
            for member in entry.iter_instances(rep_limit):
                if spec.image(member).sum(lattice).contains(a):
                    return refuted(member, f"entry {idx} member")
            continue
        for label, _, ok, member, _ in settled:
            if ok is None:
                return refuted(member, f"entry {idx} class {label}")
    detail = "no member meets the translate" if exact else (
        f"no member of index at most {rep_limit} meets the translate (member enumeration truncated)"
    )
    return FixedTranslateReport(True, exact, None, detail)


# ---------------------------------------------------------------------------
# condition reports


@record
class ConditionRow:
    holds: bool | None
    mode: str  # "exact", "derived", "evidence", "unknown"
    detail: str
    witness: tuple[Lattice, Point] | None = None  # the d' check's refuting (member, point)

    def to_json_dict(self) -> dict:
        return {"holds": self.holds, "mode": self.mode, "detail": self.detail}


@record
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
        return indented_json(self.to_json_dict())


def _coprime_subset_analysis(spec: FamilySpec, schemas) -> ConditionRow:
    """The row of the infinite-pairwise-coprime-subfamily condition.  An
    infinite entry's cover is one proper lattice, so no two of its members
    are coprime."""
    coprime = _coprime_entry(schemas)
    if coprime is not None:
        return ConditionRow(True, "exact", f"entry {coprime[0]} carries an infinite pairwise coprime subfamily")
    blockers = [i for i, e in enumerate(spec.entries) if e.is_infinite]
    if not blockers:
        return ConditionRow(False, "exact", "the family is finite, so it has no infinite subfamily")
    for i in blockers:
        if schemas[i] is None:
            return ConditionRow(None, "unknown", f"entry {i} admits no schema-level coprimality analysis")
    detail = (
        "every infinite entry (%s) has pairwise non-coprime members, and an infinite "
        "subfamily must draw infinitely many members from a single entry"
        % ", ".join(map(str, blockers))
    )
    return ConditionRow(False, "exact", detail)


def check_coprime_cover_candidate(
    spec: FamilySpec,
    candidate: FamilySpec,
    *,
    cell_limit: int = DEFAULT_CELL_LIMIT,
) -> ConditionRow:
    """Checker for a user-supplied pairwise coprime family claimed to sit
    inside the covered union, as the (d') row.

    Pairwise coprimality of the candidate must be schema-exact; containment
    is refuted exactly by a witness (member, point), or reported as bounded
    evidence when the scan finds none.  Only the candidate members of index
    at most _DPRIME_INSTANCE_BOUND are examined; with none, nothing is
    tested and the row is unknown.  Each member is first walked by
    ``_coset_walk``, grown by ``spec.member_containing``, within its own
    scan size, (2 * _DPRIME_SCAN_RADIUS + 1)^m representatives in all,
    and seeded with the family members that hold its basis columns and
    their sum (so a member that one family member holds is proved by one
    walk over a quotient of 1); a member so proved has no free point and
    is not scanned, and one with a free column or column sum is not
    walked.  Every other
    member, refuted or undecided, is scanned in order: its points with
    coefficients within +/-_DPRIME_SCAN_RADIUS, last coefficient fastest,
    and the first free one is the witness.  The member's canonical basis
    has last column d * e_m, so with the other coefficients fixed its
    points form a row of step d along the last axis: each row takes one
    ``covered_flags`` over its 2 * _DPRIME_SCAN_RADIUS * d + 1 cells, read
    at stride d.  Raises TooLargeError, before any member is tried, when
    the scan of all members has more than ``cell_limit`` points.
    """
    row = _coprime_subset_analysis(candidate, _schemas(candidate))
    if row.holds is not True:
        return ConditionRow(None, "unknown", f"candidate family is not schema-certified pairwise coprime ({row.detail})")
    members = candidate.instances_up_to(_DPRIME_INSTANCE_BOUND)
    r = _DPRIME_SCAN_RADIUS
    scan = (2 * r + 1) ** candidate.dim
    points = len(members) * scan
    if points > cell_limit:
        raise TooLargeError(
            f"d' check: the scan of {points} candidate points exceeds the cell limit of {cell_limit}",
            check="d' check", limit_name="cell_limit", limit=cell_limit, count=points,
        )
    if not members:
        return ConditionRow(
            None, "unknown", f"no candidate member has index <= {_DPRIME_INSTANCE_BOUND}, so no point was tested"
        )
    for member in members:
        cols = member.columns
        # the family members holding the columns and their sum seed the walk;
        # a probe that none holds is free, and the member is scanned unwalked
        seeds = dict.fromkeys(map(spec.member_containing, (*cols, tuple(map(sum, zip(*cols))))))
        if None not in seeds:
            try:
                if _coset_walk(member, seeds, scan, spec.member_containing)[0] is None:
                    continue
            except TooLargeError:
                pass  # undecided within its scan size: scan it
        d = cols[-1][-1]
        for head in itertools.product(range(-r, r + 1), repeat=candidate.dim - 1):
            *x, y = combination(cols, head + (-r,))
            v = covered_flags(spec, Box((*x, y), (*x, y + 2 * r * d)))[::d].find(0)
            if v >= 0:
                p = (*x, y + v * d)
                detail = f"candidate member {member.to_columns()} contains the free point {p}"
                return ConditionRow(False, "exact", detail, (member, p))
    return ConditionRow(
        True,
        "evidence",
        f"no candidate point escapes the union (members of index <= {_DPRIME_INSTANCE_BOUND}, "
        f"coefficients within +/-{_DPRIME_SCAN_RADIUS})",
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
    if dprime_candidate is not None and dprime_candidate.dim != spec.dim:
        raise ValueError(
            f"the d' candidate is {dprime_candidate.dim}-dimensional, the family is {spec.dim}-dimensional"
        )
    budget = budget or SearchBudget()
    schemas = _schemas(spec)  # read once, for the verdict and for row (d)
    verdict = _decide(spec, budget, schemas)
    cert = verdict.certificate
    if verdict.status == PROXIMAL:
        rows = {"a": ConditionRow(True, "exact", "coprime subfamily certificate")}
        source, mode, f_note = "a", "derived", ""
    elif verdict.status == NOT_PROXIMAL:
        assert isinstance(cert, Covering)
        period = intersect_all(cert.covers)
        side = period.index - 1
        if (side + 1) ** spec.dim * period.index <= REPORT_PERIOD_SCAN_LIMIT:
            # A box of side index(P) - 1 meets every coset of P, so the scan
            # below is guaranteed to refute it when the covering holds.
            shape = Shape.from_box(Box((0,) * spec.dim, (side,) * spec.dim))
            if not prove_no_zero_window(spec, shape, cert.covers):
                raise InconsistencyError("covering verified but the period scan found a surviving translate")
            b_detail = f"no zero window of side {side} exists (full-period scan modulo the cover intersection)"
        else:
            b_detail = "a verified covering forbids large zero windows"
        ft = check_fixed_translate(spec, cert.missed_coset, period)
        if not (ft.holds and ft.exact):
            raise InconsistencyError(f"missed cover coset fails to give an exact free translate: {ft.detail}")
        rows = {
            "a": ConditionRow(False, "exact", "covering certificate"),
            "b": ConditionRow(False, "exact", b_detail),
            "c": ConditionRow(False, "exact", "the certified covers contain every member"),
            "e": ConditionRow(False, "exact", f"translate {list(cert.missed_coset)} + (cover intersection) stays free"),
        }
        source, mode, f_note = "b", "derived", ": the union misses a full coset, so its density stays below 1"
    else:
        assert isinstance(cert, Evidence)
        # an empty search (max_side 0) finds no window either way
        all_found = bool(cert.found) and not cert.not_found
        if all_found:
            b_detail = f"zero windows found for square shapes up to side {budget.max_side} ({cert.searched})"
        elif cert.not_found:
            b_detail = f"no zero window found for sides {list(cert.not_found)} ({cert.searched}); not a proof"
        else:
            b_detail = f"no window side searched (max_side={budget.max_side})"
        rows = {"b": ConditionRow(True if all_found else None, "evidence" if all_found else "unknown", b_detail)}
        source, mode, f_note = "b", "derived" if all_found else "unknown", "; density ratios are lower bounds only"
    _derive_equivalents(rows, source, mode, f_note)

    rows["d"] = _coprime_subset_analysis(spec, schemas)
    if dprime_candidate is not None:
        rows["d_prime"] = check_coprime_cover_candidate(spec, dprime_candidate, cell_limit=budget.cell_limit)
    _check_consistency(rows)
    # the keys sort into the paper's order: a, b, c, d, d_prime, e, f
    return ConditionsReport({k: rows[k] for k in sorted(rows)}, verdict)


def _derive_equivalents(rows: dict, source: str, mode: str, f_note: str):
    """Give each condition equivalent to ``source`` that has no row yet the
    holds of ``source``, the given mode and the detail "equivalent to
    (source)", with ``f_note`` appended on the density row (f)."""
    for key in _EQUIVALENT:
        if key not in rows:
            note = f_note if key == "f" else ""
            rows[key] = ConditionRow(rows[source].holds, mode, f"equivalent to ({source}){note}")


def _check_consistency(rows: dict):
    exact_equiv = [
        rows[k].holds for k in _EQUIVALENT if k in rows and rows[k].mode in ("exact", "derived") and rows[k].holds is not None
    ]
    if exact_equiv and len(set(exact_equiv)) > 1:
        raise InconsistencyError(f"equivalent conditions disagree: {rows}")
    d = rows.get("d")
    if d is not None and d.mode == "exact" and d.holds is True and exact_equiv and not all(exact_equiv):
        raise InconsistencyError("a coprime subfamily exists but an equivalent condition is false")
