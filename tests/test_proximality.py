import itertools
import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bfree.errors import (
    InconsistencyError,
    InvalidCoverError,
    NotPairwiseCoprimeError,
    NotRectangularError,
    TooLargeError,
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
from bfree import proximality
from bfree.lattices import Lattice, UnimodularMap, combination, hnf, intersect_all
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
    _first_missed_scan,
    _held_by_members,
    _points_by_radius,
    check_coprime_cover_candidate,
    check_covering,
    check_fixed_translate,
    conditions_report,
    coprime_index_subset,
    decide,
    decide_rectangular,
    prove_no_zero_window,
)
from bfree.windows import Box, Shape, all_zero_windows, find_zero_window, zero_window_by_crt
from helpers import canonical_lattices, entries, random_unimodular


def rect_spec(*diags):
    return FamilySpec(len(diags[0]), tuple(Rectangular(d) for d in diags))


GEOM_2I_X3 = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(3, 0)), Geometric(2)),))
TT_PRIMES = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(1, 1)), Primes()),))


# ---------------------------------------------------------------------------
# decide


def test_decide_tt_over_primes_proximal():
    v = decide_rectangular(TT_PRIMES)
    assert v.status == PROXIMAL
    assert isinstance(v.certificate, CoprimeSubscheme)
    sample = v.certificate.sample
    for a, b in itertools.combinations(sample, 2):
        assert a.coprime(b)


def test_decide_squarefree_proximal():
    v = decide_rectangular(preset("squarefree-1d"))
    assert v.status == PROXIMAL


def test_decide_geometric_not_proximal_with_cover():
    v = decide_rectangular(GEOM_2I_X3)
    assert v.status == NOT_PROXIMAL
    assert isinstance(v.certificate, Covering)
    assert [c.to_columns() for c in v.certificate.covers] == [[[2, 0], [0, 3]]]


def test_decide_rect_demo_not_proximal():
    v = decide(preset("rect-demo"))
    assert v.status == NOT_PROXIMAL  # finite families are never proximal


def test_decide_rectangular_rejects_templates():
    with pytest.raises(NotRectangularError, match=r"entry template base=\[\[1,1\],\[0,2\]\] scale=\(2,2\)"):
        decide_rectangular(preset("ex2"))
    with pytest.raises(ValueError):
        decide_rectangular(FamilySpec(2, ()))


def test_decide_rectangular_takes_a_template_line_with_a_diagonal_base():
    spec = parse_family("dim 2\ntemplate base=[[1,0],[0,1]] scale=(1,1) params=primes\n")
    v = decide_rectangular(spec)
    assert v.status == PROXIMAL and isinstance(v.certificate, CoprimeSubscheme)
    assert v.certificate.rule == (
        "members diag(t, 1) over all primes: distinct prime parameters give pairwise coprime members"
    )


def test_decide_rectangular_builds_the_missed_coset_past_the_scan_limit():
    # the union of the two covers holds the first > 200000 cosets of their
    # intersection; diagonal covers get their missed coset by construction
    spec = parse_family("dim 2\nrect [1000003,1]\nrect [1,1000033]\n")
    v = decide_rectangular(spec)
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
    assert check_covering(spec, covers, rep_limit=9).certificate.missed_coset == (0, 1)


def test_decide_rectangular_settles_the_200003_template_by_its_span():
    # no divisor d of the period puts every class of the template entry
    # inside one cover (d has over 200000 classes of primes, or the class
    # t = 1 (mod d) has the lattice 200003Z + dZ = Z), but its span 200003Z
    # is one of the covers: 2Z, 1009Z and 200003Z miss 1
    spec = parse_family("dim 1\nrect [2]\nrect [1009]\nrecttemplate [200003t] params=primes\n")
    v = decide_rectangular(spec)
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


def test_decide_rectangular_settles_an_entry_past_the_class_limit_by_its_span():
    # the sweep modulo 2*1009*1013 has over 200000 classes, but the template
    # entry's span 2Z is one of the covers: one check, modulo 2
    spec = parse_family("dim 1\nrect [1009]\nrect [1013]\nrecttemplate [2t] params=primes\n")
    v = decide_rectangular(spec)
    assert v.status == NOT_PROXIMAL
    assert [c.to_columns() for c in v.certificate.covers] == [[[2]], [[1009]], [[1013]]]
    assert [(c.entry_index, c.cover, c.modulus) for c in v.certificate.checks if c.entry_index == 2] == [
        (2, 0, 2)
    ]
    report = check_covering(spec, v.certificate.covers)
    assert report.covered and report.certificate == v.certificate
    ft = check_fixed_translate(spec, v.certificate.missed_coset, intersect_all(v.certificate.covers))
    assert ft.holds and ft.exact
    assert decide(spec) == v


def test_check_covering_checks_supplied_covers_modulo_a_divisor_past_the_rep_limit():
    # the span is Z^2, so no single cover holds the entry, and its 3 classes
    # of primes modulo 4 exceed rep_limit=2; modulo 2 the class of t = 2
    # lies in 2Z x Z and the odd class in {x = y mod 2}
    spec = parse_family("dim 2\ntemplate base=[[1,1],[0,4]] scale=(1,1) params=primes!3\n")
    covers = [Lattice.from_diagonal((2, 1)), hnf([(1, 1), (0, 2)])]
    report = check_covering(spec, covers, rep_limit=2)
    assert report.covered
    assert [(c.label, c.cover, c.modulus) for c in report.certificate.checks] == [
        ("t=0 (mod 2)", 0, 2),
        ("t=1 (mod 2)", 1, 2),
    ]
    assert [c.modulus for c in check_covering(spec, covers).certificate.checks] == [4, 4, 4]


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
def rect_entries(draw, m):
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
@given(st.integers(1, 3).flatmap(lambda m: st.lists(rect_entries(m), min_size=1, max_size=3).map(
    lambda ents: FamilySpec(m, tuple(ents)))))
# 230403 classes modulo 864000 once made the class sweep raise TooLargeError
@example(parse_family(
    "dim 3\nrecttemplate [2,t,2t^2] params=explicit:3,4,5\nrecttemplate [1,1,2t^2] params=primes\n"
))
def test_decide_rectangular_is_exact_and_reverifies(spec):
    v = decide_rectangular(spec)
    if v.status == PROXIMAL:
        entry = spec.entries[v.certificate.entry_index]
        assert entry.is_infinite
        for a, b in itertools.combinations(v.certificate.sample, 2):
            assert a.coprime(b)
        for lat in v.certificate.sample:
            assert lat in [entry.member(t) for t in entry.params.values_up_to(30)]
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
    # k + 1 holds one of side k, so side 31 is the last one searched
    sides = []
    find = proximality.find_zero_window
    monkeypatch.setattr(proximality, "find_zero_window", lambda spec, shape, *a, **kw: sides.append(shape) or find(spec, shape, *a, **kw))
    v = decide(preset("ex2"), SearchBudget(max_side=40, search_radius=16))
    assert v.status == INCONCLUSIVE
    assert len(sides) == 31
    assert v.zero_window_sides == tuple(range(1, 31))
    assert v.certificate.not_found == tuple(range(31, 41))


@settings(max_examples=40, deadline=None)
@given(families())
def test_evidence_matches_a_search_of_every_side(spec):
    search = Box.centered(4, spec.dim)
    windows = [
        (k, find_zero_window(spec, Shape.from_box(Box((0,) * spec.dim, (k,) * spec.dim)), search))
        for k in range(1, 4)
    ]
    ev = proximality._zero_window_evidence(spec, SearchBudget(max_side=3, search_radius=4))
    assert ev.found == tuple((k, g) for k, g in windows if g is not None)
    assert ev.not_found == tuple(k for k, g in windows if g is None)


def test_verdict_json_shape():
    v = decide_rectangular(GEOM_2I_X3)
    data = json.loads(v.to_json())
    assert data["status"] == "NotProximal"
    assert data["certificate"]["kind"] == "Covering"
    assert "zero_window_sides" in data["evidence"]


def test_one_dimensional_recovery():
    # m = 1: proximal iff an infinite pairwise coprime subfamily exists
    primes_1d = FamilySpec(1, (RectTemplate((RectEntry(1, 1),), Primes()),))
    assert decide_rectangular(primes_1d).status == PROXIMAL
    even_1d = FamilySpec(1, (RectTemplate((RectEntry(2, 1),), Primes()),))
    v = decide_rectangular(even_1d)
    assert v.status == NOT_PROXIMAL
    assert [c.to_columns() for c in v.certificate.covers] == [[[2]]]
    mixed = FamilySpec(
        1,
        (
            Rectangular((6,)),
            RectTemplate((RectEntry(1, 1),), odd_primes()),
        ),
    )
    assert decide_rectangular(mixed).status == PROXIMAL


def test_proximal_certificate_feeds_crt_windows():
    v = decide_rectangular(TT_PRIMES)
    entry = TT_PRIMES.entries[v.certificate.entry_index]
    for k in (1, 2, 3):
        shape = Shape.from_box(Box((0, 0), (k, k)))
        members = [entry.member(p) for p in entry.params.values_up_to(200)[: len(shape)]]
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
    report = check_covering(TT_PRIMES, [Lattice.from_diagonal((2, 2))])
    assert not report.covered
    idx, label, point = report.witness
    assert idx == 0
    assert TT_PRIMES.covered(point)
    assert not Lattice.from_diagonal((2, 2)).contains(point)


def _forbid_residue_sets(monkeypatch):
    def refuse(self, n):
        raise AssertionError(f"residue set mod {n} built before the class limit was checked")

    monkeypatch.setattr(Primes, "residues_mod", refuse)


def test_check_covering_names_the_entry_and_the_class_count_past_the_rep_limit():
    # no one cover holds the entry (span Z^2); its 4 classes of primes
    # modulo 6 exceed rep_limit=3; modulo 2 the odd class lies in neither
    # cover, and modulo 3 the 3 classes exceed the one class left
    spec = parse_family("dim 2\nrect [2,1]\nrecttemplate [t,t] params=primes\n")
    covers = [Lattice.from_diagonal((2, 1)), Lattice.from_diagonal((1, 3))]
    with pytest.raises(
        TooLargeError,
        match=r"^covering check, entry 1: 4 parameter classes modulo 6 exceed the limit 3$",
    ):
        check_covering(spec, covers, rep_limit=3)


def test_check_covering_counts_classes_before_enumerating(monkeypatch):
    # about 10**12 unit classes modulo the period: the count alone must refuse
    _forbid_residue_sets(monkeypatch)
    with pytest.raises(TooLargeError):
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
    # a class refutation is lifted to a point of a concrete member
    assert report.detail == "entry 3 class t=0 (mod 8) meets the translate"
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
    v = decide_rectangular(GEOM_2I_X3)
    cert = v.certificate
    period = cert.covers[0]
    for other in cert.covers[1:]:
        period = period.intersect(other)
    report = check_fixed_translate(GEOM_2I_X3, cert.missed_coset, period)
    assert report.holds and report.exact


def test_fixed_translate_counts_classes_before_enumerating(monkeypatch):
    _forbid_residue_sets(monkeypatch)
    lattice = Lattice.from_diagonal((1_000_003, 1_000_003))
    report = check_fixed_translate(TT_PRIMES, (1, 1), lattice, rep_limit=1000)
    assert not report.holds and report.exact
    w = report.witness
    assert TT_PRIMES.covered(w) and lattice.contains((w[0] - 1, w[1] - 1))


def test_fixed_translate_maps_a_member_witness_through_the_transform():
    # 1000003 classes of primes and no proper divisor of the prime index:
    # the member scan refutes, and its witness is in family coordinates
    spec = parse_family("dim 2\nrecttemplate [t,t] params=primes\ntransform [[1,1],[0,1]]\n")
    lattice = Lattice.from_diagonal((1_000_003, 1_000_003))
    report = check_fixed_translate(spec, (1, 2), lattice, rep_limit=1000)
    assert not report.holds and report.exact
    assert report.detail == "entry 0 member meets the translate"
    assert spec.covered(report.witness) and _in_translate(report.witness, (1, 2), lattice)


def test_fixed_translate_settles_an_entry_by_its_span(monkeypatch):
    # the span 2Z x Z holds every member, and (1, 1) lies outside
    # 2Z x Z + diag(202, 103): no parameter class is built
    def refuse(self, n, limit):
        raise AssertionError(f"parameter classes modulo {n} built")

    monkeypatch.setattr(Template, "classes_mod", refuse)
    spec = parse_family("dim 2\nrecttemplate [2t,t] params=primes\n")
    report = check_fixed_translate(spec, (1, 1), Lattice.from_diagonal((202, 103)))
    assert report.holds and report.exact and report.witness is None


def test_fixed_translate_settles_an_entry_modulo_a_divisor_past_the_rep_limit():
    # the span is Z^2 and the 3 classes of primes modulo 4 exceed
    # rep_limit=2; modulo 2 both classes, 2Z x Z and {x = y mod 2}, miss (1, 0)
    spec = parse_family("dim 2\ntemplate base=[[1,1],[0,2]] scale=(1,1) params=primes\n")
    report = check_fixed_translate(spec, (1, 0), Lattice.from_diagonal((2, 2)), rep_limit=2)
    assert report.holds and report.exact


def test_conditions_report_builds_no_parameter_class(monkeypatch):
    # every entry's span settles both the covering and the translate of (e)
    def refuse(self, n, limit):
        raise AssertionError(f"parameter classes modulo {n} built")

    monkeypatch.setattr(Template, "classes_mod", refuse)
    spec = parse_family("dim 2\nrect [101,1]\nrect [1,103]\nrecttemplate [2t,t] params=primes\n")
    report = conditions_report(spec)
    assert report.verdict.status == NOT_PROXIMAL
    assert report.rows["e"].holds is False and report.rows["e"].mode == "exact"


def test_conditions_report_refuses_an_inexact_fixed_translate(monkeypatch):
    def truncated(*args, **kwargs):
        return FixedTranslateReport(True, False, None, "class enumeration truncated")

    monkeypatch.setattr(proximality, "check_fixed_translate", truncated)
    with pytest.raises(InconsistencyError, match="exact free translate: class enumeration truncated"):
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

    monkeypatch.setattr(proximality, "find_zero_window", refuse)
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
    tested = []
    free = FamilySpec.free
    monkeypatch.setattr(FamilySpec, "free", lambda self, p: tested.append(p) or free(self, p))
    with pytest.raises(TooLargeError, match="^d' check: the scan of 3125 candidate points exceeds the cell limit of 3124$"):
        check_coprime_cover_candidate(spec, candidate, cell_limit=5 * 25**2 - 1)
    with pytest.raises(TooLargeError, match="d' check"):
        conditions_report(spec, SearchBudget(max_side=0, cell_limit=1000), dprime_candidate=candidate)
    assert tested == []


def _count_free_calls(monkeypatch) -> list:
    tested = []
    free = FamilySpec.free
    monkeypatch.setattr(FamilySpec, "free", lambda self, p: tested.append(p) or free(self, p))
    return tested


def test_dprime_without_a_member_within_the_index_bound_claims_nothing(monkeypatch):
    # t^8 > 200 for every odd prime: no member is examined, so the row
    # claims nothing (the candidate is refuted: diag(81, 81) holds the free
    # point (0, 81) of ex1)
    tested = _count_free_calls(monkeypatch)
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
    # member_containing on quotient reps: no point is scanned
    tested = _count_free_calls(monkeypatch)
    candidate = parse_family("dim 2\nrecttemplate [t,t] params=oddprimes\n")
    row = check_coprime_cover_candidate(preset("ex2"), candidate)
    assert (row.holds, row.mode) == (True, "evidence")
    assert tested == []


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
    ),
    2: (
        "dim 2\nrecttemplate [t,t] params=oddprimes\n",
        "dim 2\nrecttemplate [t^2,t] params=primes\n",
        "dim 2\nrecttemplate [t,t] params=primes\ntransform [[1,1],[0,1]]\n",
    ),
}


@st.composite
def dprime_cases(draw):
    """A family of random entries in dims 1-2, half the time under a
    transform, and half the time with the members t Z^m over primes added,
    so that candidates are often held."""
    m = draw(st.integers(1, 2))
    es = tuple(draw(st.lists(entries(m), min_size=1, max_size=3)))
    if draw(st.booleans()):
        es += (RectTemplate((RectEntry(1, 1),) * m, Primes()),)
    transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m) if draw(st.booleans()) else None
    return FamilySpec(m, es, transform)


@settings(max_examples=80, deadline=None)
@given(spec=dprime_cases(), data=st.data())
def test_dprime_check_matches_the_scan_only_row(spec, data):
    candidate = parse_family(data.draw(st.sampled_from(DPRIME_CANDIDATES[spec.dim])))
    row = check_coprime_cover_candidate(spec, candidate)
    ref = _scan_only_dprime(spec, candidate)
    assert (row.holds, row.mode, row.detail, row.witness) == (ref.holds, ref.mode, ref.detail, ref.witness)


@settings(max_examples=150, deadline=None)
@given(spec=dprime_cases(), data=st.data())
def test_a_member_held_by_members_has_no_free_point(spec, data):
    m = spec.dim
    member = data.draw(canonical_lattices(m, max_diag=12))
    if data.draw(st.booleans()):
        inside = spec.member_containing(combination(member.columns, (1,) * m))
        if inside is not None:
            member = member.intersect(inside)
    if not _held_by_members(spec, member, 25**m):
        return
    for ks in Box.centered(15, m).points():
        assert not spec.free(combination(member.columns, ks)), (spec, member, ks)


def test_points_by_radius_walk_each_ball_once_shell_by_shell():
    for m, r in ((1, 5), (2, 3), (3, 2)):
        points = list(_points_by_radius(m, (2 * r + 1) ** m))
        assert sorted(points) == sorted(Box.centered(r, m).points())
        radii = [max(map(abs, p)) for p in points]
        assert radii == sorted(radii)
        # one point short of the ball of radius r stops at radius r - 1
        assert len(list(_points_by_radius(m, (2 * r + 1) ** m - 1))) == (2 * r - 1) ** m


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
        members = [e.lattice] if isinstance(e, Static) else map(e.member, e.params.values_up_to(bound))
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
