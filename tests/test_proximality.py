import itertools
import json
import random

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from bfree.errors import (
    InconsistencyError,
    InvalidCoverError,
    NotPairwiseCoprimeError,
    TooLargeError,
    UnsettledEntryError,
)
from bfree.families import (
    Explicit,
    FamilySpec,
    Geometric,
    Primes,
    RectEntry,
    RectTemplate,
    Rectangular,
    Static,
    Template,
    odd_primes,
    parse_family,
    preset,
)
from bfree import lattices, proximality
from bfree.lattices import Lattice, UnimodularMap, combination, hnf, intersect_all
from bfree.numtheory import primes_up_to
from bfree.proximality import (
    INCONCLUSIVE,
    NOT_PROXIMAL,
    PROXIMAL,
    ConditionRow,
    Covering,
    CoprimeSubscheme,
    Evidence,
    FixedTranslateReport,
    SearchBudget,
    _check_consistency,
    _coset_walk,
    _first_missed_scan,
    _points_by_radius,
    check_coprime_cover_candidate,
    check_covering,
    check_fixed_translate,
    conditions_report,
    coprime_index_subset,
    decide,
    prove_no_zero_window,
)
from bfree.windows import Box, Shape, all_zero_windows, find_zero_window, zero_window_by_crt
from helpers import canonical_lattices, entries, is_diagonal_entry, random_unimodular


def rect_spec(*diags):
    return FamilySpec(len(diags[0]), tuple(Rectangular(d) for d in diags))


GEOM_2I_X3 = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(3, 0)), Geometric(2)),))
TT_PRIMES = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(1, 1)), Primes()),))


# ---------------------------------------------------------------------------
# decide


def test_decide_tt_over_primes_proximal():
    v = decide(TT_PRIMES)
    assert v.status == PROXIMAL
    assert isinstance(v.certificate, CoprimeSubscheme)
    sample = v.certificate.sample
    for a, b in itertools.combinations(sample, 2):
        assert a.coprime(b)


def test_decide_squarefree_proximal():
    v = decide(preset("squarefree-1d"))
    assert v.status == PROXIMAL


def test_decide_geometric_not_proximal_with_cover():
    v = decide(GEOM_2I_X3)
    assert v.status == NOT_PROXIMAL
    assert isinstance(v.certificate, Covering)
    assert [c.to_columns() for c in v.certificate.covers] == [[[2, 0], [0, 3]]]


def test_decide_rect_demo_not_proximal():
    v = decide(preset("rect-demo"))
    assert v.status == NOT_PROXIMAL  # finite families are never proximal


def test_decide_takes_a_template_line_with_a_diagonal_base():
    spec = parse_family("dim 2\ntemplate base=[[1,0],[0,1]] scale=(1,1) params=primes\n")
    v = decide(spec)
    assert v.status == PROXIMAL and isinstance(v.certificate, CoprimeSubscheme)
    assert v.certificate.rule == (
        "members diag(t, 1) over all primes: distinct prime parameters give pairwise coprime members"
    )


def test_decide_builds_the_missed_coset_past_the_scan_limit():
    # the union of the two covers holds the first > 200000 cosets of their
    # intersection; diagonal covers get their missed coset by construction
    spec = parse_family("dim 2\nrect [1000003,1]\nrect [1,1000033]\n")
    v = decide(spec)
    assert v.status == NOT_PROXIMAL
    cert = v.certificate
    assert cert.missed_coset == (1, 1)
    report = check_covering(spec, cert.covers)
    assert report.covered and report.certificate == cert
    ft = check_fixed_translate(spec, cert.missed_coset, intersect_all(cert.covers))
    assert ft.holds and ft.exact


def test_check_covering_scan_limit_on_non_diagonal_covers():
    # the first 9 of the 27 cosets lie in the union, the 10th is missed
    covers = [hnf([(3, 1), (0, 3)]), Lattice.from_diagonal((1, 3))]
    spec = FamilySpec(2, (Static(covers[0]), Rectangular((1, 3))))
    with pytest.raises(
        TooLargeError,
        match=r"^covering check: the first 8 of 27 cosets of the cover intersection all lie in the union \(rep_limit=8\)$",
    ):
        check_covering(spec, covers, rep_limit=8)
    assert check_covering(spec, covers, rep_limit=10).certificate.missed_coset == (0, 1)


def test_decide_settles_the_200003_template_by_its_span():
    # the template entry's span 200003Z is one of the covers, so one check
    # settles it, whatever the period: 2Z, 1009Z and 200003Z miss 1
    spec = parse_family("dim 1\nrect [2]\nrect [1009]\nrecttemplate [200003t] params=primes\n")
    v = decide(spec)
    assert v.status == NOT_PROXIMAL
    cert = v.certificate
    assert [c.to_columns() for c in cert.covers] == [[[2]], [[1009]], [[200003]]]
    assert cert.missed_coset == (1,)
    assert [(c.label, c.cover, c.modulus) for c in cert.checks if c.entry_index == 2] == [
        ("span [[200003]]", 2, 200003)
    ]
    report = conditions_report(spec, SearchBudget(max_side=2, search_radius=1100))
    assert report.verdict == v
    for key in ("a", "b", "c", "e", "f"):
        assert report.rows[key].holds is False
        assert report.rows[key].mode == ("derived" if key == "f" else "exact")


def test_decide_settles_an_entry_in_one_check_modulo_its_cover():
    # the period 2*1009*1013 has over 200000 cosets, but the template
    # entry's span 2Z is one of the covers: one check, modulo 2
    spec = parse_family("dim 1\nrect [1009]\nrect [1013]\nrecttemplate [2t] params=primes\n")
    v = decide(spec)
    assert v.status == NOT_PROXIMAL
    assert [c.to_columns() for c in v.certificate.covers] == [[[2]], [[1009]], [[1013]]]
    assert [(c.entry_index, c.cover, c.modulus) for c in v.certificate.checks if c.entry_index == 2] == [
        (2, 0, 2)
    ]
    report = check_covering(spec, v.certificate.covers)
    assert report.covered and report.certificate == v.certificate
    ft = check_fixed_translate(spec, v.certificate.missed_coset, intersect_all(v.certificate.covers))
    assert ft.holds and ft.exact


def test_check_covering_refuses_an_infinite_entry_that_no_single_cover_holds():
    # every member lies in the union: 2Z x Z holds t = 2 and {x = y mod 2}
    # every odd t; but the span is Z^2, so no single cover holds the entry,
    # and an infinite entry is settled by its span alone
    spec = parse_family("dim 2\ntemplate base=[[1,1],[0,4]] scale=(1,1) params=primes!3\n")
    covers = [Lattice.from_diagonal((2, 1)), hnf([(1, 1), (0, 2)])]
    with pytest.raises(UnsettledEntryError) as info:
        check_covering(spec, covers)
    assert str(info.value) == (
        "covering check, entry 0 (template base=[[1,1],[0,4]] scale=(1,1) params=primes!3): "
        "no single cover holds its span [[1, 0], [0, 1]], and an infinite entry is settled by its span alone"
    )


@st.composite
def families(draw):
    """Families of one to three random entries, half of them under a
    random unimodular transform."""
    m = draw(st.integers(1, 3))
    es = tuple(draw(st.lists(entries(m), min_size=1, max_size=3)))
    transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m) if draw(st.booleans()) else None
    return FamilySpec(m, es, transform)


@settings(max_examples=100, deadline=None)
@given(families())
def test_decide_never_sweeps_a_quotient(spec):
    # decide's covers are each infinite entry's span and each finite entry's
    # members, so every entry or member it checks lies in one cover
    v = decide(spec, SearchBudget(max_side=0))
    if v.status == NOT_PROXIMAL:
        for check in v.certificate.checks:
            assert check.reps_checked == 0 and check.cover is not None


def test_decide_certificate_has_one_check_per_entry():
    # the sweep modulo 2*101*103 has over 10000 classes; each entry lies in
    # one cover, checked modulo that cover's index
    spec = parse_family("dim 2\nrect [101,1]\nrect [1,103]\nrecttemplate [2t,t] params=primes\n")
    v = decide(spec)
    assert v.status == NOT_PROXIMAL
    cert = v.certificate
    assert [c.entry_index for c in cert.checks] == [0, 1, 2]
    assert [(cert.covers[c.cover].index, c.modulus) for c in cert.checks] == [(101, 101), (103, 103), (2, 2)]
    assert len(v.to_json()) < 2000
    report = check_covering(spec, cert.covers)
    assert report.covered and report.certificate == cert
    ft = check_fixed_translate(spec, cert.missed_coset, intersect_all(cert.covers))
    assert ft.holds and ft.exact


@st.composite
def diagonal_entries(draw, m):
    """Diagonal lattices and templates over a diagonal base, half of them
    from the general entry strategy."""
    if draw(st.booleans()):
        return draw(entries(m).filter(is_diagonal_entry))
    kind = draw(st.sampled_from(("rect", "static", "recttemplate")))
    if kind != "recttemplate":
        diag = tuple(draw(st.integers(1, 4)) for _ in range(m))
        assume(any(d > 1 for d in diag))
        return Rectangular(diag) if kind == "rect" else Static(Lattice.from_diagonal(diag))
    slots = tuple(RectEntry(draw(st.integers(1, 2)), draw(st.integers(0, 2))) for _ in range(m))
    params = draw(st.sampled_from(
        (Primes(), odd_primes(), Geometric(2), Geometric(3, 2), Explicit((2, 3)), Explicit((3, 4, 5)))
    ))
    try:
        return RectTemplate(slots, params)
    except ValueError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(diagonal_entries(m), min_size=1, max_size=3).map(
    lambda ents: FamilySpec(m, tuple(ents)))))
# 230403 classes modulo 864000 once made the class sweep raise TooLargeError
@example(parse_family(
    "dim 3\nrecttemplate [2,t,2t^2] params=explicit:3,4,5\nrecttemplate [1,1,2t^2] params=primes\n"
))
def test_decide_is_exact_on_untransformed_diagonal_entries(spec):
    # never Inconclusive: every entry has a cover or a coprime family, and
    # diagonal covers get their missed coset by construction
    v = decide(spec, SearchBudget(max_side=0))
    if v.status == PROXIMAL:
        entry = spec.entries[v.certificate.entry_index]
        assert entry.is_infinite
        for a, b in itertools.combinations(v.certificate.sample, 2):
            assert a.coprime(b)
        for lat in v.certificate.sample:
            assert lat in [entry.member(t) for t in entry.params.iter_values_up_to(30)]
    else:
        assert v.status == NOT_PROXIMAL
        report = check_covering(spec, v.certificate.covers)
        assert report.covered and report.certificate == v.certificate


def test_decide_ex_presets_inconclusive_with_evidence():
    for name in ("ex2", "ex1"):
        v = decide(preset(name), SearchBudget(max_side=2, search_radius=12))
        assert v.status == INCONCLUSIVE
        assert isinstance(v.certificate, Evidence)
        assert v.zero_window_sides == (1, 2)


def test_evidence_search_stops_at_the_first_side_without_a_window(monkeypatch):
    # ex2's search box holds windows of sides 1 to 30 only; a window of side
    # k + 1 holds one of side k, so side 31 is the last one searched: no
    # slab ANDs in the offsets of a larger side
    sides = []
    offsets = proximality._square_offsets
    monkeypatch.setattr(proximality, "_square_offsets", lambda m, done, k: sides.append(k) or offsets(m, done, k))
    v = decide(preset("ex2"), SearchBudget(max_side=40, search_radius=16))
    assert v.status == INCONCLUSIVE
    assert sorted(set(sides)) == list(range(1, 32))
    assert v.zero_window_sides == tuple(range(1, 31))
    assert v.certificate.not_found == tuple(range(31, 41))


@st.composite
def gapped_families(draw):
    """Families whose zero windows stop at a middle side: the entries q Z
    along one axis, for a few small primes q, cover every point whose
    coordinate there is a multiple of one of them, so a square window needs
    a run of such values (2, 3, 4 in 2Z u 3Z; 2 to 10 in 2Z u 3Z u 5Z u 7Z),
    plus at most one random entry, under a random transform a third of the
    time (most transforms leave no window at all)."""
    m = draw(st.integers(1, 3))
    axis = draw(st.integers(0, m - 1))
    moduli = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=4, unique=True))
    es = tuple(Rectangular(tuple(q if i == axis else 1 for i in range(m))) for q in moduli)
    es += tuple(draw(st.lists(entries(m), max_size=1)))
    transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m) if draw(st.integers(0, 2)) == 0 else None
    return FamilySpec(m, es, transform)


# windows that stop at side 3, 5, 3 and 3
MIDDLE_STOPS = (
    "dim 1\nrect [2]\nrect [3]\n",
    "dim 2\nrect [2,1]\nrect [3,1]\nrect [5,1]\n",
    "dim 2\nrect [1,2]\nrect [1,3]\nrect [1,5]\ntransform [[1,0],[1,1]]\n",
    "dim 3\nrect [1,1,2]\nrect [1,1,3]\nrecttemplate [1,t,1] params=explicit:2,3\ntransform [[1,0,0],[0,1,0],[1,0,1]]\n",
)


def _with_examples(test):
    for spec in (preset("ex1"), preset("ex2"), *map(parse_family, MIDDLE_STOPS)):
        test = example(spec=spec, max_side=6, radius=16)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(spec=st.one_of(families(), gapped_families()), max_side=st.integers(0, 6), radius=st.integers(0, 16))
@_with_examples
def test_evidence_matches_a_search_of_every_side(spec, max_side, radius):
    # one sieve per slab for every side gives what a scan of each side
    # gives; a 3-d search box is cut to radius 5
    m = spec.dim
    search = Box.centered(min(radius, (16, 16, 5)[m - 1]), m)
    windows = [(k, find_zero_window(spec, Shape.from_box(Box((0,) * m, (k,) * m)), search)) for k in range(1, max_side + 1)]
    ev = proximality._zero_window_evidence(spec, SearchBudget(max_side=max_side, search_radius=search.hi[0]))
    assert ev.found == tuple((k, g) for k, g in windows if g is not None)
    assert ev.not_found == tuple(k for k, g in windows if g is None)
    event(f"{m}-d, windows stop at {'a middle side' if ev.found and ev.not_found else 'no middle side'}")


def test_verdict_json_shape():
    v = decide(GEOM_2I_X3)
    data = json.loads(v.to_json())
    assert data["status"] == "NotProximal"
    assert data["certificate"]["kind"] == "Covering"
    assert "zero_window_sides" in data["evidence"]


def test_one_dimensional_recovery():
    # m = 1: proximal iff an infinite pairwise coprime subfamily exists
    primes_1d = FamilySpec(1, (RectTemplate((RectEntry(1, 1),), Primes()),))
    assert decide(primes_1d).status == PROXIMAL
    even_1d = FamilySpec(1, (RectTemplate((RectEntry(2, 1),), Primes()),))
    v = decide(even_1d)
    assert v.status == NOT_PROXIMAL
    assert [c.to_columns() for c in v.certificate.covers] == [[[2]]]
    mixed = FamilySpec(
        1,
        (
            Rectangular((6,)),
            RectTemplate((RectEntry(1, 1),), odd_primes()),
        ),
    )
    assert decide(mixed).status == PROXIMAL


def test_proximal_certificate_feeds_crt_windows():
    v = decide(TT_PRIMES)
    entry = TT_PRIMES.entries[v.certificate.entry_index]
    for k in (1, 2, 3):
        shape = Shape.from_box(Box((0, 0), (k, k)))
        members = [entry.member(p) for p in list(entry.params.iter_values_up_to(200))[: len(shape)]]
        a = zero_window_by_crt(members, shape)
        for lat, f in zip(members, shape.offsets):
            assert lat.contains((a[0] + f[0], a[1] + f[1]))
        assert all(TT_PRIMES.covered((a[0] + f[0], a[1] + f[1])) for f in shape.offsets)


# ---------------------------------------------------------------------------
# coverings


def test_check_covering_geometric_family():
    report = check_covering(GEOM_2I_X3, [Lattice.from_diagonal((2, 3))])
    assert report.covered
    cert = report.certificate
    assert cert.missed_coset is not None
    assert not any(
        Lattice.from_diagonal((2, 3)).contains(cert.missed_coset) for _ in (0,)
    )


def test_check_covering_rejects_union_everything():
    covers = [
        Lattice.from_diagonal((1, 2)),
        Lattice.from_diagonal((2, 1)),
        hnf([(1, 1), (0, 2)]),
    ]
    with pytest.raises(InvalidCoverError):
        check_covering(preset("ex2"), covers)


def test_check_covering_rejects_improper():
    with pytest.raises(InvalidCoverError):
        check_covering(GEOM_2I_X3, [Lattice.whole(2)])


def test_check_covering_negative_with_witness():
    # member t = 3 of a finite entry escapes 2Z x 2Z; the witness is its point
    spec = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(1, 1)), Explicit((2, 3))),))
    report = check_covering(spec, [Lattice.from_diagonal((2, 2))])
    assert not report.covered
    idx, label, point = report.witness
    assert (idx, label) == (0, "t=3")
    assert spec.entries[0].member(3).contains(point)
    assert not Lattice.from_diagonal((2, 2)).contains(point)


def test_check_covering_names_the_first_entry_that_it_cannot_settle():
    # the rect entry lies in 2Z x Z; the template's span Z^2 lies in neither cover
    spec = parse_family("dim 2\nrect [2,1]\nrecttemplate [t,t] params=primes\n")
    covers = [Lattice.from_diagonal((2, 1)), Lattice.from_diagonal((1, 3))]
    with pytest.raises(UnsettledEntryError, match=r"^covering check, entry 1 \(recttemplate \[t,t\] params=primes\): "):
        check_covering(spec, covers)


# a semiprime whose factoring exceeds factor()'s rho budget
HARD_SEMIPRIME = 185124726281477 * 491069414308633


def _forbid_factoring(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factor({n}) called")

    for target in ("bfree.numtheory.factor", "bfree.families.factor", "bfree.numtheory.iter_factors",
                   "bfree.families.iter_factors"):
        monkeypatch.setattr(target, refuse)


def test_check_covering_refuses_without_factoring_the_period(monkeypatch):
    # the span Z lies in no cover 2N Z: refused at once, where a sweep of
    # the classes of primes modulo 2N had to factor N and gave up
    _forbid_factoring(monkeypatch)
    spec = parse_family("dim 1\nrecttemplate [t] params=primes\n")
    with pytest.raises(UnsettledEntryError):
        check_covering(spec, [Lattice.from_diagonal((2 * HARD_SEMIPRIME,))])
    with pytest.raises(UnsettledEntryError):
        check_covering(TT_PRIMES, [Lattice.from_diagonal((1_000_003, 1_000_003))])


def test_prove_no_zero_window_geometric():
    shape = Shape.from_offsets([(0, 0), (1, 0)])
    covers = [Lattice.from_diagonal((2, 3))]
    assert prove_no_zero_window(GEOM_2I_X3, shape, covers)
    # and indeed a scan of one full period finds nothing
    assert all_zero_windows(GEOM_2I_X3, shape, Box((0, 0), (1, 2))) == []
    # sanity: the single-cell shape does have windows
    assert find_zero_window(GEOM_2I_X3, Shape.from_offsets([(0, 0)]), Box.centered(4, 2))


def test_prove_no_zero_window_silent_when_windows_exist():
    spec = rect_spec((2, 2), (3, 3))
    covers = [Lattice.from_diagonal((2, 2)), Lattice.from_diagonal((3, 3))]
    shape = Shape.from_offsets([(0, 0), (1, 0)])
    assert not prove_no_zero_window(spec, shape, covers)


def _in_union(covers, p) -> bool:
    return any(cov.contains(p) for cov in covers)


@st.composite
def diagonal_covers(draw):
    m = draw(st.integers(1, 3))
    diag = st.lists(st.integers(1, 5), min_size=m, max_size=m).filter(lambda d: any(x > 1 for x in d))
    return [Lattice.from_diagonal(d) for d in draw(st.lists(diag, min_size=1, max_size=4))]


@settings(max_examples=150, deadline=None)
@given(diagonal_covers())
def test_constructed_missed_coset_is_the_first_uncovered_rep(covers):
    spec = FamilySpec(covers[0].dim, tuple(Static(cov) for cov in covers))
    first = next(rep for rep in intersect_all(covers).iter_coset_reps() if not _in_union(covers, rep))
    assert check_covering(spec, covers).certificate.missed_coset == first


@st.composite
def covers_and_shapes(draw):
    m = draw(st.integers(1, 2))
    cover = canonical_lattices(m, max_diag=5).filter(Lattice.is_proper)
    covers = draw(st.lists(cover, min_size=1, max_size=3))
    side = intersect_all(covers).index - 1
    if draw(st.booleans()) and (side + 1) ** m <= 400:
        # the full-box shape conditions_report passes
        return covers, Shape.from_box(Box((0,) * m, (side,) * m))
    point = st.tuples(*[st.integers(-4, 4)] * m)
    return covers, Shape.from_offsets(draw(st.lists(point, min_size=1, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(covers_and_shapes())
def test_prove_no_zero_window_matches_the_per_coset_scan(case):
    covers, shape = case
    spec = FamilySpec(covers[0].dim, tuple(Static(cov) for cov in covers))
    survives = any(
        all(_in_union(covers, tuple(a + b for a, b in zip(g, f))) for f in shape.offsets)
        for g in intersect_all(covers).iter_coset_reps()
    )
    assert prove_no_zero_window(spec, shape, covers) == (not survives)


# ---------------------------------------------------------------------------
# fixed translates


def _in_translate(point, translate, lattice):
    return lattice.contains(tuple(p - a for p, a in zip(point, translate)))


def test_fixed_translate_ex1_examples():
    spec = preset("ex1")
    lattice = Lattice.from_diagonal((4, 2))
    report = check_fixed_translate(spec, (0, 1), lattice)
    assert not report.holds and report.exact
    # the geometric entry's span does not settle it: its first member
    # refutes, with a witness of that member
    assert report.detail == "entry 3 member meets the translate"
    assert report.witness == (4, 1)
    assert spec.covered(report.witness) and _in_translate(report.witness, (0, 1), lattice)
    # the origin is covered, so it can never anchor a free translate
    for lat in (Lattice.from_diagonal((2, 2)), hnf([(1, 1), (0, 4)])):
        assert not check_fixed_translate(spec, (0, 0), lat).holds


def test_fixed_translate_ex1_never_holds():
    spec = preset("ex1")
    rng = random.Random(4)
    for _ in range(25):
        lat = Lattice.from_diagonal((rng.randint(1, 6), rng.randint(1, 6)))
        a = (rng.randint(-6, 6), rng.randint(-6, 6))
        assert not check_fixed_translate(spec, a, lat).holds


def test_fixed_translate_positive_case():
    # family {2Z x 2Z}: the odd-odd translate of 2Z x 2Z stays free
    spec = rect_spec((2, 2))
    report = check_fixed_translate(spec, (1, 1), Lattice.from_diagonal((2, 2)))
    assert report.holds and report.exact
    # the origin lies in ex2's member 2Z x Z, so no translate through it is free
    report = check_fixed_translate(preset("ex2"), (0, 0), Lattice.from_diagonal((2, 2)))
    assert not report.holds and report.exact


def test_fixed_translate_refuses_a_lattice_of_another_dimension():
    # a family without entries settles nothing, so only the check itself refuses
    with pytest.raises(ValueError, match="lattice dimension mismatch"):
        check_fixed_translate(FamilySpec(2, ()), (1, 1), Lattice.from_diagonal((2, 2, 2)))
    with pytest.raises(ValueError, match="lattice dimension mismatch"):
        check_fixed_translate(rect_spec((2, 2)), (1, 1), Lattice.from_diagonal((2,)))


def test_fixed_translate_missed_coset_of_covering():
    v = decide(GEOM_2I_X3)
    cert = v.certificate
    period = cert.covers[0]
    for other in cert.covers[1:]:
        period = period.intersect(other)
    report = check_fixed_translate(GEOM_2I_X3, cert.missed_coset, period)
    assert report.holds and report.exact


def test_fixed_translate_scans_the_members_of_an_entry_that_its_span_does_not_settle(monkeypatch):
    # the span Z^2 + diag(1000003, 1000003) holds (1, 1); the first member
    # diag(2, 2) meets the translate, with nothing factored
    _forbid_factoring(monkeypatch)
    lattice = Lattice.from_diagonal((1_000_003, 1_000_003))
    report = check_fixed_translate(TT_PRIMES, (1, 1), lattice, rep_limit=1000)
    assert not report.holds and report.exact
    assert report.detail == "entry 0 member meets the translate"
    w = report.witness
    assert TT_PRIMES.covered(w) and lattice.contains((w[0] - 1, w[1] - 1))


def test_fixed_translate_refutes_past_a_hard_factorization(monkeypatch):
    # a sweep of the classes of primes modulo N had to factor N and gave
    # up; the member scan refutes with member 2Z at once
    _forbid_factoring(monkeypatch)
    spec = parse_family("dim 1\nrecttemplate [t] params=primes\n")
    lattice = Lattice.from_diagonal((HARD_SEMIPRIME,))
    report = check_fixed_translate(spec, (1,), lattice)
    assert not report.holds and report.exact
    assert report.detail == "entry 0 member meets the translate"
    assert spec.covered(report.witness) and _in_translate(report.witness, (1,), lattice)


def test_fixed_translate_sieves_only_as_far_as_the_member_that_refutes(monkeypatch):
    # member 2Z refutes at once: the member scan lists primes as it reads
    # them, where it used to sieve up to rep_limit first
    sieved = []
    monkeypatch.setattr("bfree.families.primes_up_to", lambda n: sieved.append(n) or primes_up_to(n))
    spec = parse_family("dim 1\nrecttemplate [t] params=primes\n")
    report = check_fixed_translate(spec, (1,), Lattice.from_diagonal((HARD_SEMIPRIME,)))
    assert not report.holds and report.exact
    assert sieved and max(sieved) <= 1024 < proximality.DEFAULT_REP_LIMIT


@pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (7, 2), (1_000_003, 999_983)])
def test_decide_on_two_diagonal_lattices_runs_no_elimination(monkeypatch, p, q):
    # covers, their intersection and the span checks of diagonal lattices
    # are read off the diagonals
    spec = parse_family(f"dim 2\nrect [{p},1]\nrect [1,{q}]\n")
    calls = []
    real = lattices._hnf_columns
    monkeypatch.setattr(lattices, "_hnf_columns", lambda cols, nrows: calls.append(nrows) or real(cols, nrows))
    verdict = decide(spec)
    assert verdict.status == NOT_PROXIMAL
    assert set(verdict.certificate.covers) == {Lattice.from_diagonal((p, 1)), Lattice.from_diagonal((1, q))}
    assert calls == []


def test_fixed_translate_maps_a_member_witness_through_the_transform():
    # the span does not settle the entry: the member scan refutes, and its
    # witness is in family coordinates
    spec = parse_family("dim 2\nrecttemplate [t,t] params=primes\ntransform [[1,1],[0,1]]\n")
    lattice = Lattice.from_diagonal((1_000_003, 1_000_003))
    report = check_fixed_translate(spec, (1, 2), lattice, rep_limit=1000)
    assert not report.holds and report.exact
    assert report.detail == "entry 0 member meets the translate"
    assert spec.covered(report.witness) and _in_translate(report.witness, (1, 2), lattice)


def _forbid_member_levels(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("an entry was settled member by member")

    monkeypatch.setattr(Template, "labelled_members", refuse)
    monkeypatch.setattr(Template, "iter_instances", refuse)


def test_fixed_translate_settles_an_entry_by_its_span(monkeypatch):
    # the span 2Z x Z holds every member, and (1, 1) lies outside
    # 2Z x Z + diag(202, 103): no member is enumerated
    _forbid_member_levels(monkeypatch)
    spec = parse_family("dim 2\nrecttemplate [2t,t] params=primes\n")
    report = check_fixed_translate(spec, (1, 1), Lattice.from_diagonal((202, 103)))
    assert report.holds and report.exact and report.witness is None


def test_fixed_translate_is_evidence_only_past_the_member_scan():
    # the span is Z^2, so it does not settle the entry, and no member has
    # index at most rep_limit=2: the answer holds as evidence only
    spec = parse_family("dim 2\ntemplate base=[[1,1],[0,2]] scale=(1,1) params=primes\n")
    report = check_fixed_translate(spec, (1, 0), Lattice.from_diagonal((2, 2)), rep_limit=2)
    assert report.holds and not report.exact and report.witness is None
    assert report.detail == "no member of index at most 2 meets the translate (member enumeration truncated)"
    # past the scan the members do not meet it either: t = 2 gives 2Z x Z,
    # and every odd t lies in {x = y mod 2}
    assert check_fixed_translate(spec, (1, 0), Lattice.from_diagonal((2, 2)), rep_limit=10**4).holds


def test_conditions_report_settles_every_entry_by_its_span(monkeypatch):
    # every entry's span settles both the covering and the translate of (e)
    spec = parse_family("dim 2\nrect [101,1]\nrect [1,103]\nrecttemplate [2t,t] params=primes\n")
    _forbid_member_levels(monkeypatch)
    report = conditions_report(spec)
    assert report.verdict.status == NOT_PROXIMAL
    assert report.rows["e"].holds is False and report.rows["e"].mode == "exact"


def test_conditions_report_refuses_an_inexact_fixed_translate(monkeypatch):
    def truncated(*args, **kwargs):
        return FixedTranslateReport(True, False, None, "member enumeration truncated")

    monkeypatch.setattr(proximality, "check_fixed_translate", truncated)
    with pytest.raises(InconsistencyError, match="exact free translate: member enumeration truncated"):
        conditions_report(GEOM_2I_X3, SearchBudget(max_side=1, search_radius=2))


# ---------------------------------------------------------------------------
# coprime subsets


def test_coprime_index_subset_examples():
    a = hnf([(2, 1), (0, 3)])  # index 6
    b = hnf([(5, 2), (0, 7)])  # index 35
    assert a.coprime(b)
    got = coprime_index_subset([a, b])
    assert got == [a, b]
    single = [Lattice.from_diagonal((2, 3))]
    assert coprime_index_subset(single) == single


def test_coprime_index_subset_requires_pairwise_coprime():
    with pytest.raises(NotPairwiseCoprimeError):
        coprime_index_subset(
            [Lattice.from_diagonal((2, 2)), Lattice.from_diagonal((2, 3))]
        )


def _random_coprime_family(rng, size):
    """Pairwise coprime lattices in Z^2 built from distinct prime diagonals."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    rng.shuffle(primes)
    out = []
    for p in primes[:size]:
        if rng.random() < 0.5:
            out.append(Lattice.from_diagonal((p, p)))
        else:
            out.append(hnf([(p, rng.randrange(p)), (0, p)]))
    return out


def test_coprime_index_subset_randomized_soundness():
    rng = random.Random(71)
    for _ in range(100):
        fam = _random_coprime_family(rng, rng.randint(1, 8))
        got = coprime_index_subset(fam)
        for x, y in itertools.combinations(got, 2):
            from math import gcd

            assert gcd(x.index, y.index) == 1
        if len(fam) >= 2:
            assert len(got) >= 2


# ---------------------------------------------------------------------------
# condition reports


def test_conditions_report_ex2():
    report = conditions_report(preset("ex2"), SearchBudget(max_side=3, search_radius=16))
    rows = report.rows
    assert rows["b"].holds is True and rows["b"].mode == "evidence"
    assert rows["d"].holds is False and rows["d"].mode == "exact"
    assert rows["a"].holds is True


def test_conditions_report_ex1_with_dprime():
    candidate = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(1, 1)), odd_primes()),))
    report = conditions_report(
        preset("ex1"), SearchBudget(max_side=3, search_radius=16), dprime_candidate=candidate
    )
    rows = report.rows
    assert rows["a"].holds is True
    assert rows["b"].holds is True
    assert rows["d"].holds is False and rows["d"].mode == "exact"
    assert rows["d_prime"].holds is False and rows["d_prime"].mode == "exact"


def test_conditions_report_ex2_dprime_candidate_survives():
    candidate = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(1, 1)), odd_primes()),))
    report = conditions_report(
        preset("ex2"), SearchBudget(max_side=2, search_radius=12), dprime_candidate=candidate
    )
    assert report.rows["d_prime"].holds is True
    assert report.rows["d_prime"].mode == "evidence"


def test_conditions_report_rectangular_all_true():
    report = conditions_report(TT_PRIMES, SearchBudget(max_side=2, search_radius=10))
    for key in ("a", "b", "c", "d", "e", "f"):
        assert report.rows[key].holds is True


def test_conditions_report_not_proximal_family():
    report = conditions_report(GEOM_2I_X3, SearchBudget(max_side=2, search_radius=10))
    for key in ("a", "b", "c", "e", "f"):
        assert report.rows[key].holds is False
    assert report.rows["d"].holds is False


def test_conditions_report_empty_search_claims_nothing():
    # the template's span is Z^2, so decide has no cover: the verdict is
    # Inconclusive and no side is searched
    spec = parse_family("dim 2\ntemplate base=[[1,1],[0,2]] scale=(1,1) params=primes\n")
    report = conditions_report(spec, SearchBudget(max_side=0))
    assert report.verdict.status == INCONCLUSIVE
    for key in ("a", "b", "c", "e", "f"):
        assert report.rows[key].holds is None and report.rows[key].mode == "unknown"
    assert report.rows["b"].detail == "no window side searched (max_side=0)"


def test_conditions_report_refuses_a_dprime_candidate_of_another_dimension(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("zero-window search started before the dimension check")

    monkeypatch.setattr(proximality, "_Sieve", refuse)
    candidate = parse_family("dim 1\nrecttemplate [t^2] params=primes\n")
    with pytest.raises(ValueError, match="candidate is 1-dimensional, the family is 2-dimensional"):
        conditions_report(preset("ex2"), dprime_candidate=candidate)


def test_consistency_checker_raises():
    rows = {
        "a": ConditionRow(True, "exact", "x"),
        "b": ConditionRow(False, "exact", "y"),
    }
    with pytest.raises(InconsistencyError):
        _check_consistency(rows)
    rows = {
        "a": ConditionRow(False, "exact", "x"),
        "d": ConditionRow(True, "exact", "y"),
    }
    with pytest.raises(InconsistencyError):
        _check_consistency(rows)


def test_dprime_checker_requires_certified_candidate():
    vague = FamilySpec(2, (Static(hnf([(1, 1), (0, 2)])),))
    report = check_coprime_cover_candidate(preset("ex2"), vague)
    assert report.holds is None


def test_dprime_refutation_carries_its_witness_outside_the_json():
    # ex1's free set holds (0, y) for every odd y; the scan of 3Z x 3Z, last
    # coefficient fastest from -12, meets (0, -33) first
    candidate = parse_family("dim 2\nrecttemplate [t,t] params=oddprimes\n")
    row = check_coprime_cover_candidate(preset("ex1"), candidate)
    assert (row.holds, row.mode) == (False, "exact")
    assert row.witness == (Lattice.from_diagonal((3, 3)), (0, -33))
    assert row.to_json_dict() == {
        "holds": False,
        "mode": "exact",
        "detail": "candidate member [[3, 0], [0, 3]] contains the free point (0, -33)",
    }


def test_dprime_scan_is_bounded_by_the_cell_limit_before_it_starts(monkeypatch):
    # the members of index <= 200 over odd primes are t = 3, 5, 7, 11, 13:
    # 5 members, each scanned at 25 x 25 points
    spec = preset("ex2")
    candidate = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(1, 1)), odd_primes()),))
    full = check_coprime_cover_candidate(spec, candidate)
    assert check_coprime_cover_candidate(spec, candidate, cell_limit=5 * 25**2) == full
    tested = _count_scanned_rows(monkeypatch)
    with pytest.raises(TooLargeError, match="^d' check: the scan of 3125 candidate points exceeds the cell limit of 3124$"):
        check_coprime_cover_candidate(spec, candidate, cell_limit=5 * 25**2 - 1)
    with pytest.raises(TooLargeError, match="d' check"):
        conditions_report(spec, SearchBudget(max_side=0, cell_limit=1000), dprime_candidate=candidate)
    assert tested == []


def _count_scanned_rows(monkeypatch) -> list:
    """The boxes of the d' scan's covered_flags calls, one per scanned row."""
    tested = []
    flags = proximality.covered_flags
    monkeypatch.setattr(proximality, "covered_flags", lambda spec, box: tested.append(box) or flags(spec, box))
    return tested


def test_dprime_without_a_member_within_the_index_bound_claims_nothing(monkeypatch):
    # t^8 > 200 for every odd prime: no member is examined, so the row
    # claims nothing (the candidate is refuted: diag(81, 81) holds the free
    # point (0, 81) of ex1)
    tested = _count_scanned_rows(monkeypatch)
    candidate = parse_family("dim 2\nrecttemplate [t^4,t^4] params=oddprimes\n")
    row = check_coprime_cover_candidate(preset("ex1"), candidate)
    assert row.to_json_dict() == {
        "holds": None,
        "mode": "unknown",
        "detail": "no candidate member has index <= 200, so no point was tested",
    }
    assert tested == [] and preset("ex1").free((0, 81))


def test_dprime_proves_every_ex2_member_without_a_free_call(monkeypatch):
    # each of the five members tt Z^2 lies in ex2's members, found by
    # member_containing on quotient reps: no row is scanned
    tested = _count_scanned_rows(monkeypatch)
    candidate = parse_family("dim 2\nrecttemplate [t,t] params=oddprimes\n")
    row = check_coprime_cover_candidate(preset("ex2"), candidate)
    assert (row.holds, row.mode) == (True, "evidence")
    assert tested == []


@pytest.mark.parametrize("name, candidate, held, scanned", [
    # rect-demo's p Z^2 holds the members 3 Z^2 ... 11 Z^2 whole; 13 Z^2
    # has the free column (13, 0)
    ("rect-demo", "dim 2\nrecttemplate [t,t] params=oddprimes\n", (3, 5, 7, 11), 13),
    # squarefree-1d's p^2 Z is each member p^2 Z itself
    ("squarefree-1d", "dim 1\nrecttemplate [t^2] params=primes\n", (4, 9, 25, 49, 121, 169), None),
])
def test_a_member_one_family_member_holds_takes_one_walk(name, candidate, held, scanned, monkeypatch):
    # the walk is seeded with the family members holding the member's
    # columns and their sum, so a member that one of them holds is proved
    # by one walk over a quotient of 1, with no grow call; a member with a
    # free column is scanned without a walk
    spec, candidate = preset(name), parse_family(candidate)
    walks, grown = [], []

    def walk(big, covers, limit, grow=None):
        def counted(p):
            grown.append(p)
            return grow(p)

        result = _coset_walk(big, covers, limit, counted)
        walks.append((big.diagonal[0], result))
        return result

    monkeypatch.setattr(proximality, "_coset_walk", walk)
    tested = _count_scanned_rows(monkeypatch)
    row = check_coprime_cover_candidate(spec, candidate)
    assert walks == [(d, (None, 1)) for d in held] and grown == []
    ref = _scan_only_dprime(spec, candidate)
    assert (row.holds, row.mode, row.detail, row.witness) == (ref.holds, ref.mode, ref.detail, ref.witness)
    if scanned is None:
        assert tested == []
    else:
        assert tested and all(box.lo[0] % scanned == 0 for box in tested)


def test_a_member_whose_probes_are_held_is_walked_then_scanned(monkeypatch):
    # 3 Z^2's columns (3, 0), (0, 3) and their sum (3, 3) lie in Z x 2Z,
    # 5Z x Z and the static lattice, but (-36, -33) is free: the seeded walk
    # finds a free rep, so the member is scanned and gives the witness
    spec = parse_family("dim 2\nrect [1,2]\nrect [5,1]\nstatic [[3,3],[0,6]]\n")
    candidate = parse_family("dim 2\nrecttemplate [t,t] params=oddprimes\n")
    walks = []
    monkeypatch.setattr(
        proximality, "_coset_walk", lambda *args: walks.append(args[0]) or _coset_walk(*args)
    )
    row = check_coprime_cover_candidate(spec, candidate)
    ref = _scan_only_dprime(spec, candidate)
    assert (row.holds, row.mode, row.detail, row.witness) == (ref.holds, ref.mode, ref.detail, ref.witness)
    assert walks == [Lattice.from_diagonal((3, 3))] and row.witness[1] == (-36, -33)


def test_a_member_with_a_free_probe_is_scanned_without_a_walk(monkeypatch):
    # 3 Z^2's columns lie in Z x 17Z and 11Z x Z, but their sum (3, 3) lies
    # in no member: the member is scanned at once, with the scan's witness
    spec = parse_family("dim 2\nrect [11,1]\nrect [1,17]\nrecttemplate [2t,t] params=primes\n")
    candidate = parse_family("dim 2\nrecttemplate [t,t] params=oddprimes\n")
    walks = []
    monkeypatch.setattr(proximality, "_coset_walk", lambda *args: walks.append(args[0]) or _coset_walk(*args))
    row = check_coprime_cover_candidate(spec, candidate)
    ref = _scan_only_dprime(spec, candidate)
    assert (row.holds, row.mode, row.detail, row.witness) == (ref.holds, ref.mode, ref.detail, ref.witness)
    assert walks == [] and row.witness == (Lattice.from_diagonal((3, 3)), (-27, -36))


def test_conditions_report_reads_the_family_schemas_once(monkeypatch):
    # the verdict and row (d) share one _schemas pass over the family; the
    # d' candidate has its own
    seen = []
    schemas = proximality._schemas
    monkeypatch.setattr(proximality, "_schemas", lambda spec: seen.append(spec) or schemas(spec))
    spec, candidate = preset("ex2"), parse_family("dim 2\nrecttemplate [t,t] params=oddprimes\n")
    full = conditions_report(spec, SearchBudget(max_side=2), dprime_candidate=candidate)
    assert seen == [spec, candidate]
    monkeypatch.setattr(proximality, "_schemas", schemas)
    assert full == conditions_report(spec, SearchBudget(max_side=2), dprime_candidate=candidate)


def _scan_only_dprime(spec: FamilySpec, candidate: FamilySpec) -> ConditionRow:
    """The (d') row of a schema-certified candidate by the point scan alone:
    every member of index <= 200, coefficients within +/-12, last fastest."""
    coeffs = Box.centered(12, candidate.dim)
    for member in candidate.instances_up_to(200):
        for ks in coeffs.points():
            p = combination(member.columns, ks)
            if spec.free(p):
                detail = f"candidate member {member.to_columns()} contains the free point {p}"
                return ConditionRow(False, "exact", detail, (member, p))
    detail = "no candidate point escapes the union (members of index <= 200, coefficients within +/-12)"
    return ConditionRow(True, "evidence", detail)


DPRIME_CANDIDATES = {
    1: (
        "dim 1\nrecttemplate [t] params=oddprimes\n",
        "dim 1\nrecttemplate [t^2] params=primes\n",
        "dim 1\nrecttemplate [t] params=primes!2,3\n",
        "dim 1\nrecttemplate [t] params=oddprimes\ntransform [[-1]]\n",
    ),
    2: (
        "dim 2\nrecttemplate [t,t] params=oddprimes\n",
        "dim 2\nrecttemplate [t^2,t] params=primes\n",
        "dim 2\nrecttemplate [t,t] params=primes\ntransform [[1,1],[0,1]]\n",
        "dim 2\nrecttemplate [t,t^2] params=oddprimes\ntransform [[1,0],[2,1]]\n",
    ),
}


@st.composite
def dprime_cases(draw):
    """A family of random entries in dims 1-2, half the time under a
    transform, and half the time with the members t Z^m over primes added,
    so that candidates are often held; in 2-d, a third of the time with
    ex1's entries or a template scaling the first row of a base like
    ex1's."""
    m = draw(st.integers(1, 2))
    es = tuple(draw(st.lists(entries(m), min_size=1, max_size=3)))
    if draw(st.booleans()):
        es += (RectTemplate((RectEntry(1, 1),) * m, Primes()),)
    if m == 2:
        extra = draw(st.integers(0, 5))
        if extra == 0:
            es += preset("ex1").entries
        elif extra == 1:
            d = draw(st.integers(1, 3))
            base = Lattice(((2, 0), (draw(st.integers(0, d - 1)), d)))
            es += (Template(base, (1, 0), draw(st.sampled_from((odd_primes(), Geometric(2, 1), Primes((3,)))))),)
    transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m) if draw(st.booleans()) else None
    return FamilySpec(m, es, transform)


@settings(max_examples=80, deadline=None)
@given(spec=dprime_cases(), data=st.data())
def test_dprime_check_matches_the_scan_only_row(spec, data):
    candidate = parse_family(data.draw(st.sampled_from(DPRIME_CANDIDATES[spec.dim])))
    row = check_coprime_cover_candidate(spec, candidate)
    ref = _scan_only_dprime(spec, candidate)
    assert (row.holds, row.mode, row.detail, row.witness) == (ref.holds, ref.mode, ref.detail, ref.witness)


@pytest.mark.parametrize(
    "family, candidate",
    [
        ("dim 3\nrect [2,1,1]\nrect [1,2,1]\n", "dim 3\nrecttemplate [t,t,t] params=oddprimes\n"),
        (
            "dim 3\nrect [2,1,1]\nrect [1,2,1]\ntransform [[1,0,0],[1,1,0],[0,1,1]]\n",
            "dim 3\nrecttemplate [t,1,t^2] params=oddprimes\n",
        ),
        (
            "dim 3\nrecttemplate [t,1,1] params=primes\nrect [1,1,2]\n",
            "dim 3\nrecttemplate [1,1,t] params=oddprimes\ntransform [[1,0,0],[0,1,0],[1,0,1]]\n",
        ),
        (
            "dim 3\nrect [2,1,1]\ntemplate base=[[1,0,0],[1,2,0],[0,0,1]] scale=(1,1) params=oddprimes\n",
            "dim 3\nrecttemplate [t,t,1] params=oddprimes\n",
        ),
    ],
)
def test_dprime_scan_of_a_3d_member_matches_the_scan_only_row(family, candidate, monkeypatch):
    # the first member is not held, so its rows are scanned up to the witness
    spec, candidate = parse_family(family), parse_family(candidate)
    ref = _scan_only_dprime(spec, candidate)
    rows = _count_scanned_rows(monkeypatch)
    row = check_coprime_cover_candidate(spec, candidate)
    assert (row.holds, row.mode, row.detail, row.witness) == (ref.holds, ref.mode, ref.detail, ref.witness)
    assert row.holds is False and rows


@settings(max_examples=150, deadline=None)
@given(spec=dprime_cases(), data=st.data())
def test_a_member_held_by_members_has_no_free_point(spec, data):
    m = spec.dim
    member = data.draw(canonical_lattices(m, max_diag=12))
    if data.draw(st.booleans()):
        inside = spec.member_containing(combination(member.columns, (1,) * m))
        if inside is not None:
            member = member.intersect(inside)
    try:
        if _coset_walk(member, [], 25**m, spec.member_containing)[0] is not None:
            return
    except TooLargeError:
        return
    for ks in Box.centered(15, m).points():
        assert not spec.free(combination(member.columns, ks)), (spec, member, ks)


# ---------------------------------------------------------------------------
# the coset walk behind the covering check and the d' pre-check


@st.composite
def coset_walks(draw):
    """(big, covers, spec or None) in dims 1-3: a canonical lattice, up to
    three proper covers, and half the time a family whose
    ``member_containing`` grows the covers, with the members t Z^m over
    primes half of that time, so that walks restart often."""
    m = draw(st.integers(1, 3))
    big = draw(canonical_lattices(m))
    covers = draw(st.lists(canonical_lattices(m, max_diag=3).filter(Lattice.is_proper), max_size=3))
    if draw(st.booleans()):
        return big, covers, None
    es = tuple(draw(st.lists(entries(m), min_size=1, max_size=2)))
    if draw(st.booleans()):
        es += (RectTemplate((RectEntry(1, 1),) * m, Primes()),)
    return big, covers, FamilySpec(m, es)


class _Walk:
    """``_coset_walk`` on one (big, covers, spec) with grow recorded: the
    (rep, lattice) pairs grow saw, and at each grow call the number of
    ``Lattice.contains`` calls the walk had made (grow's own not counted)."""

    def __init__(self, big, covers, spec):
        self.big, self.covers, self.spec = big, covers, spec

    def run(self, limit):
        self.grown, self.calls_at_grow, self.calls, self.walking = [], [], 0, True
        real = Lattice.contains

        def contains(lat, p):
            self.calls += self.walking
            return real(lat, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Lattice, "contains", contains)
            return _coset_walk(self.big, self.covers, limit, None if self.spec is None else self.grow)

    def grow(self, p):
        self.calls_at_grow.append(self.calls)
        self.walking = False
        lat = self.spec.member_containing(p)
        self.walking = True
        self.grown.append((p, lat))
        return lat

    def quotients(self) -> list:
        """The lattices I of the walks run: the first, then after each growth."""
        found = [lat for _, lat in self.grown if lat is not None]
        return list(itertools.accumulate(found, Lattice.intersect, initial=intersect_all([self.big, *self.covers])))


@settings(max_examples=200, deadline=None)
@given(coset_walks())
def test_coset_walk_finds_a_free_rep_or_proves_big_held(drawn):
    big, covers, spec = drawn
    walk = _Walk(big, covers, spec)
    try:
        rep, charged = walk.run(3000)
    except TooLargeError:
        event("refused")
        return
    inters = walk.quotients()
    assert charged == sum(inter.index // big.index for inter in inters)
    holders = covers + [lat for _, lat in walk.grown if lat is not None]
    assert all(lat.contains(p) for p, lat in walk.grown if lat is not None)
    event(f"{'held' if rep is None else 'free rep'}, {len(inters)} walks")
    if rep is not None:
        assert big.contains(rep) and not any(lat.contains(rep) for lat in holders)
        assert spec is None or walk.grown[-1] == (rep, None)
        return
    # None only when every coset rep of the last I in big is held
    for p in itertools.product(*map(range, inters[-1].diagonal)):
        assert not big.contains(p) or any(lat.contains(p) for lat in holders), p


@settings(max_examples=150, deadline=None)
@given(coset_walks(), st.data())
def test_a_refused_walk_makes_no_membership_test(drawn, data):
    big, covers, spec = drawn
    full = _Walk(big, covers, spec)
    try:
        result = full.run(3000)
    except TooLargeError:
        event("refused")
        return
    sizes = [inter.index // big.index for inter in full.quotients()]
    # a limit that the walks' quotients meet exactly runs every walk
    assert _Walk(big, covers, spec).run(sum(sizes)) == result
    # refuse walk j: the walks before it run as before, and it tests nothing
    j = data.draw(st.integers(0, len(sizes) - 1))
    refused = _Walk(big, covers, spec)
    with pytest.raises(TooLargeError) as info:
        refused.run(sum(sizes[: j + 1]) - 1)
    assert refused.calls == (full.calls_at_grow[j - 1] if j else 0)
    exc, count = info.value, sizes[j]
    assert str(exc) == f"covering check: a class quotient of {count} cosets exceeds rep_limit={count - 1}"
    assert (exc.check, exc.limit_name, exc.limit, exc.count) == ("covering check", "rep_limit", count - 1, count)


def test_points_by_radius_walk_each_ball_once_shell_by_shell():
    for m, r in ((1, 5), (2, 3), (3, 2)):
        points = list(_points_by_radius(m, (2 * r + 1) ** m))
        assert sorted(points) == sorted(Box.centered(r, m).points())
        radii = [max(map(abs, p)) for p in points]
        assert radii == sorted(radii)
        # one point short of the ball of radius r stops at radius r - 1
        assert len(list(_points_by_radius(m, (2 * r + 1) ** m - 1))) == (2 * r - 1) ** m


def _residues(lattice: Lattice) -> set:
    """The points of the lattice modulo n Z^m, n its index, which it holds,
    by closing {0} under adding its columns: a brute-force membership test
    that never reads the triangular basis."""
    n = lattice.index
    seen = {(0,) * lattice.dim}
    todo = list(seen)
    while todo:
        p = todo.pop()
        for col in lattice.columns:
            q = tuple((x + c) % n for x, c in zip(p, col))
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3)).flatmap(
        lambda m: st.lists(canonical_lattices(m, max_diag=4).filter(Lattice.is_proper), min_size=2, max_size=3)
    )
)
def test_missed_coset_scan_takes_exactly_rep_limit_reps(covers):
    # pos is the brute-force position of the first rep no cover holds: a
    # scan of pos reps returns it, one of pos - 1 leaves it to the
    # small-point search
    assume(not all(cov.is_diagonal() for cov in covers))
    period = intersect_all(covers)
    held = [(cov.index, _residues(cov)) for cov in covers]

    def missed(p):
        return not any(tuple(x % n for x in p) in h for n, h in held)

    reps = list(period.iter_coset_reps())
    pos = next((i for i, rep in enumerate(reps, 1) if missed(rep)), None)
    assume(pos is not None)
    assert _first_missed_scan(covers, period, pos) == reps[pos - 1]
    small = next(filter(missed, _points_by_radius(period.dim, pos - 1)), None)
    if small is None:
        with pytest.raises(TooLargeError, match=rf"the first {pos - 1} of {period.index} cosets"):
            _first_missed_scan(covers, period, pos - 1)
    else:
        assert _first_missed_scan(covers, period, pos - 1) == period.reduce(small)


def test_missed_coset_scan_falls_back_to_small_points():
    # the reps (x, 0) of the period 1000003Z x 3Z all lie in Z x 3Z, so the
    # scan stops at rep_limit; the radius-1 point (-1, -1) lies in neither
    # cover, and its canonical rep is the missed coset
    covers = [Lattice.from_diagonal((1, 3)), Lattice.from_diagonal((1_000_003, 1))]
    period = intersect_all(covers)
    assert _first_missed_scan(covers, period, 100) == (1_000_002, 2)
    # rep_limit 8 leaves room for the origin alone, which both covers hold
    with pytest.raises(TooLargeError, match=r"the first 8 of 3000009 cosets"):
        _first_missed_scan(covers, period, 8)


# ---------------------------------------------------------------------------
# transported families


def test_decide_transported_matches_base():
    for k in (1, 2, 3):
        shear = UnimodularMap(((1, 0), (k, 1)))
        for base in (TT_PRIMES, GEOM_2I_X3):
            moved = FamilySpec(2, base.entries, transform=shear)
            assert decide(moved).status == decide(base).status


def test_transported_covering_certificate_verifies():
    shear = UnimodularMap(((1, 0), (2, 1)))
    moved = FamilySpec(2, GEOM_2I_X3.entries, transform=shear)
    v = decide(moved)
    assert v.status == NOT_PROXIMAL
    assert check_covering(moved, v.certificate.covers).covered
    expected_cover = shear.apply(Lattice.from_diagonal((2, 3)))
    assert list(v.certificate.covers) == [expected_cover]


# ---------------------------------------------------------------------------
# certificate construction routes


def test_crt_window_certificate_with_subscheme_note():
    from bfree.proximality import crt_window_certificate

    shape = Shape.from_offsets([(0, 0), (1, 0), (0, 1)])
    translate, period, cert = crt_window_certificate(TT_PRIMES, shape)
    assert len(cert.lattices) == 3
    for lat, f in zip(cert.lattices, shape.offsets):
        assert lat.contains((translate[0] + f[0], translate[1] + f[1]))
    assert "every window size" in cert.extension
    assert period == cert.lattices[0].intersect(cert.lattices[1]).intersect(cert.lattices[2])


def test_crt_window_certificate_finite_family_note():
    from bfree.proximality import crt_window_certificate

    shape = Shape.from_offsets([(0, 0), (1, 0)])
    translate, period, cert = crt_window_certificate(preset("rect-demo"), shape)
    assert "finite verification only" in cert.extension
    assert period == Lattice.from_diagonal((6, 6))


@pytest.mark.parametrize(
    "spec, box",
    [
        (preset("rect-demo"), Box((0, 0), (1, 1))),
        # the families of the benchmark's zero --crt jobs
        (parse_family("dim 2\nrecttemplate [t,t] params=primes\n"), Box((0, 0), (2, 1))),
        (parse_family("dim 2\nrecttemplate [t,t^2] params=primes!2\n"), Box((0, 0), (3, 2))),
        (parse_family("dim 2\nrect [4,1]\nrecttemplate [t,t] params=primes!2,3\n"), Box((0, 0), (2, 2))),
    ],
    ids=["rect-demo", "t-t", "t-t2", "rect-t-t"],
)
def test_crt_window_certificate_members_and_period(spec, box):
    from bfree.proximality import crt_window_certificate

    shape = Shape.from_box(box)
    translate, period, cert = crt_window_certificate(spec, shape, instance_bound=100000)
    chosen = list(cert.lattices)
    assert len(chosen) == len(shape)
    assert all(a.coprime(b) for i, a in enumerate(chosen) for b in chosen[i + 1 :])
    assert period == intersect_all(chosen)
    assert translate == zero_window_by_crt(chosen, shape)


def test_crt_window_certificate_builds_few_members(monkeypatch):
    # the members up to 10^14 are the 664 579 squares p^2 with p < 10^7;
    # the first two fill the shape
    from bfree.proximality import crt_window_certificate

    built = []
    member = Template.member
    monkeypatch.setattr(Template, "member", lambda self, t: built.append(t) or member(self, t))
    translate, period, cert = crt_window_certificate(preset("squarefree-1d"), Shape.parse("0:1"), instance_bound=10**14)
    assert cert.lattices == (Lattice.from_diagonal((4,)), Lattice.from_diagonal((9,)))
    assert (translate, period) == ((8,), Lattice.from_diagonal((36,)))
    # a few for the stream, four for the schema's coprime sample
    assert len(built) <= 8


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_crt_window_certificate_reads_the_members_in_the_eager_order(data):
    from bfree.errors import NotCoprimeError, NotEnoughIdealsError
    from bfree.proximality import crt_window_certificate

    m = data.draw(st.sampled_from((1, 2)))
    ents = tuple(data.draw(st.lists(entries(m), min_size=1, max_size=3)))
    transform = random_unimodular(random.Random(data.draw(st.integers(0, 10**6))), m, ops=4) if data.draw(st.booleans()) else None
    spec = FamilySpec(m, ents, transform=transform)
    bound = data.draw(st.integers(0, 300))
    shape = Shape(tuple(data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m), min_size=1, max_size=3, unique=True))))
    # every member of index <= bound, deduplicated and sorted, built at once
    eager = {}
    for e in spec.entries:
        members = [e.lattice] if isinstance(e, Static) else map(e.member, e.params.iter_values_up_to(bound))
        for lat in map(spec.image, members):
            if lat.index <= bound:
                eager[lat.basis] = lat
    eager = sorted(eager.values(), key=lambda lat: (lat.index, lat.basis))
    assert list(spec.iter_instances(bound)) == spec.instances_up_to(bound) == eager
    chosen, period = [], Lattice.whole(m)
    for lat in eager:
        if len(chosen) < len(shape) and lat.coprime(period):
            chosen.append(lat)
            period = period.intersect(lat)
    try:
        expected = (zero_window_by_crt(chosen, shape), period, tuple(chosen))
    except (NotCoprimeError, NotEnoughIdealsError) as exc:
        with pytest.raises(type(exc)):
            crt_window_certificate(spec, shape, instance_bound=bound)
    else:
        translate, period, cert = crt_window_certificate(spec, shape, instance_bound=bound)
        assert (translate, period, cert.lattices) == expected


def test_coprime_index_subset_fallback_triple():
    # pairwise coprime lattices with indices 6, 10, 21: greedy from the first
    # keeps only index 6 (shares a factor with both others), but the pair
    # (10, 21) has coprime indices and the fallback must surface it
    l6 = hnf([(2, 1), (0, 3)])
    l10 = hnf([(5, 2), (0, 2)])
    l21 = hnf([(7, 3), (0, 3)])
    assert (l6.index, l10.index) == (6, 10)
    assert l21.index == 21
    for a, b in itertools.combinations([l6, l10, l21], 2):
        assert a.coprime(b)
    got = coprime_index_subset([l6, l10, l21])
    assert got == [l10, l21]
    from math import gcd
    assert gcd(got[0].index, got[1].index) == 1
