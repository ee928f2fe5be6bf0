"""Randomized cross-validation of the exact covering and fixed-translate
checkers against direct point enumeration.

The checks settle an entry by its span, or a finite entry member by
member, and the covering check refuses an infinite entry whose span lies
in no single cover.  Here small random families and covers corner them:
every answer they give is compared with brute force over instantiated
members, and each refusal with the span test it rests on.  A span is taken
as what its first members generate (``test_span_is_generated_by_the_first_members``
in ``tests/test_entries.py``).
"""

import itertools
import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from bfree.errors import InvalidCoverError, UnsettledEntryError
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
)
from bfree.lattices import Lattice, combination, hnf, intersect_all
from bfree.proximality import CoverCheck, check_covering, check_fixed_translate
from helpers import canonical_lattices, entries, random_unimodular, scaled_row



def random_entry(rng):
    kind = rng.randrange(4)
    if kind == 0:
        d = (rng.randint(1, 4), rng.randint(1, 4))
        if d == (1, 1):
            d = (2, 2)
        return Rectangular(d)
    if kind == 1:
        diag = (rng.randint(2, 4), rng.randint(1, 4))
        return Static(hnf([(diag[0], rng.randrange(diag[1])), (0, diag[1])]))
    if kind == 2:
        slots = (
            RectEntry(rng.randint(1, 3), rng.choice((0, 1))),
            RectEntry(rng.randint(1, 3), rng.choice((0, 1, 2))),
        )
        if all(s.exp == 0 for s in slots):
            slots = (RectEntry(slots[0].coeff, 1), slots[1])
        params = rng.choice(
            [Primes(), odd_primes(), Geometric(2, 1), Geometric(3, 1), Explicit((2, 5, 9))]
        )
        if all(s.coeff == 1 for s in slots) and isinstance(params, Explicit):
            slots = (RectEntry(2, slots[0].exp), slots[1])
        return RectTemplate(slots, params)
    base = hnf([(rng.randint(1, 3), rng.randrange(2)), (0, rng.randint(2, 3))])
    params = rng.choice([Primes(), Geometric(2, 1), Explicit((2, 3, 7))])
    if base.index < 2 and 1 in params:
        base = hnf([(2, 1), (0, 2)])
    return Template(base, scaled_row(2, rng.randrange(2)), params)


def random_cover(rng):
    if rng.random() < 0.6:
        d = (rng.randint(1, 4), rng.randint(1, 4))
        if d == (1, 1):
            d = (rng.randint(2, 4), 1)
        return Lattice.from_diagonal(d)
    d0, d1 = rng.randint(2, 4), rng.randint(2, 4)
    return hnf([(d0, rng.randrange(d1)), (0, d1)])


def first_members(entry, count=12):
    """The entry's members of the first ``count`` parameters, which generate
    its span."""
    if not hasattr(entry, "params"):
        return [entry.lattice]
    return [entry.member(t) for t in list(entry.params.iter_values_up_to(10**4))[:count]]


def all_members(entry):
    """Every member of a finite entry."""
    return [entry.lattice] if not hasattr(entry, "params") else [entry.member(t) for t in entry.params.values]


def holds(cover, lattice) -> bool:
    return all(cover.contains(c) for c in lattice.columns)


def span_cover(spec, entry, covers):
    """Index of the first cover that holds every first member (mapped), or None."""
    mapped = [spec.image(member) for member in first_members(entry)]
    return next((k for k, cov in enumerate(covers) if all(holds(cov, lat) for lat in mapped)), None)


def escapes(member, covers, period) -> bool:
    """Whether some point of the member lies outside every cover: union
    membership is periodic modulo ``period``, so the reps of ``period``
    that lie in member + period are every point of the member, up to it."""
    meets = member.sum(period)
    return any(
        meets.contains(rep) and not any(cov.contains(rep) for cov in covers)
        for rep in period.iter_coset_reps()
    )


def reference_covering(spec, covers):
    """("covered", None), ("missed", entry) or ("refused", entry), taking the
    entries in order: an entry that one cover holds is settled; else a
    finite entry's members are checked point by point modulo the period,
    and an infinite entry is refused."""
    period = intersect_all(covers)
    for idx, entry in enumerate(spec.entries):
        if span_cover(spec, entry, covers) is not None:
            continue
        if entry.is_infinite:
            return "refused", idx
        if any(escapes(spec.image(member), covers, period) for member in all_members(entry)):
            return "missed", idx
    return "covered", None


def brute_force_covered(spec, covers, instance_bound=400, coeff=9):
    """Direct check on all small members: every small-coefficient point of
    every instantiated member must lie in some cover."""
    for member in spec.instances_up_to(instance_bound):
        for ks in itertools.product(range(-coeff, coeff + 1), repeat=2):
            p = tuple(
                ks[0] * member.columns[0][r] + ks[1] * member.columns[1][r]
                for r in range(2)
            )
            if not any(cov.contains(p) for cov in covers):
                return False, (member, p)
    return True, None


@pytest.mark.parametrize("seed", range(40))
def test_check_covering_agrees_with_bruteforce(seed):
    rng = random.Random(1000 + seed)
    spec = FamilySpec(2, tuple(random_entry(rng) for _ in range(rng.randint(1, 3))))
    covers = [random_cover(rng) for _ in range(rng.randint(1, 3))]
    try:
        report = check_covering(spec, covers)
    except InvalidCoverError:
        return  # covers rejected (improper or exhaustive): nothing to compare
    except UnsettledEntryError:
        assert reference_covering(spec, covers)[0] == "refused"
        return
    brute, witness = brute_force_covered(spec, covers)
    if report.covered:
        assert brute, f"checker says covered but {witness} escapes"
    else:
        # the checker's exactness claim: some member point escapes the union;
        # its witness must be a covered-set point outside every cover
        idx, label, point = report.witness
        assert spec.covered(point), (label, point)
        assert not any(cov.contains(point) for cov in covers)


@st.composite
def entries_and_covers(draw):
    """An entry, an optional transform, and a proper cover in family
    coordinates: a random lattice, or one above the mapped span, so that
    the cover often holds the entry."""
    m = draw(st.integers(1, 3))
    entry = draw(entries(m))
    transform = None
    if draw(st.booleans()):
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m, ops=4)
    cover = draw(canonical_lattices(m))
    if draw(st.booleans()):
        span = entry.span
        cover = cover.sum(transform.apply(span) if transform else span)
    assume(cover.is_proper() and cover.index <= 500)
    return FamilySpec(m, (entry,), transform), cover


@settings(max_examples=200, deadline=None)
@given(entries_and_covers())
def test_span_containment_agrees_with_the_first_members(case):
    spec, cover = case
    entry = spec.entries[0]
    assert holds(cover, spec.image(entry.span)) == (span_cover(spec, entry, [cover]) == 0)


@st.composite
def specs_and_covers(draw):
    m = draw(st.integers(1, 3))
    ents = tuple(draw(st.lists(entries(m), min_size=1, max_size=3)))
    transform = None
    if draw(st.booleans()):
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m, ops=4)
    diagonal = st.tuples(*[st.integers(1, 4)] * m).map(Lattice.from_diagonal)
    covers = draw(st.lists(
        st.one_of(diagonal, canonical_lattices(m)).filter(Lattice.is_proper), max_size=3
    ))
    if draw(st.booleans()):
        # the entries' own covers, as decide would use them, so that many
        # cases are covered
        for answer in (entry.schema() for entry in ents):
            if isinstance(answer, list):
                covers += [transform.apply(c) if transform else c for c in answer]
    if draw(st.booleans()):
        # an entry's first members modulo a small d: together they often
        # hold the entry's members with no single one holding its span
        entry, d = draw(st.sampled_from(ents)), draw(st.integers(2, 4))
        d_cols = Lattice.from_diagonal((d,) * m).columns
        for member in first_members(entry, count=4):
            lat = hnf(list(member.columns) + list(d_cols))
            if lat.is_proper():
                covers.append(transform.apply(lat) if transform else lat)
    # the reference does work in proportion to the period
    assume(covers and intersect_all(covers).index <= 1000)
    return FamilySpec(m, ents, transform), covers


@settings(max_examples=150, deadline=None)
@given(specs_and_covers())
def test_check_covering_agrees_with_the_sweep_modulo_the_period(case):
    spec, covers = case
    expected, at = reference_covering(spec, covers)
    try:
        report = check_covering(spec, covers)
    except InvalidCoverError:
        assume(False)
    except UnsettledEntryError as exc:
        # refused exactly when, before any refuted entry, an infinite
        # entry's span lies in no single cover; the error names the entry
        event("refused")
        assert expected == "refused"
        assert str(exc).startswith(f"covering check, entry {at} ({spec.entries[at].spec_line()}): ")
        return
    event(expected)
    assert expected != "refused"
    assert report.covered == (expected == "covered")
    if not report.covered:
        idx, label, point = report.witness
        assert idx == at
        # a point of the named member, outside every cover
        entry = spec.entries[idx]
        member = dict(entry.labelled_members())[label]
        assert spec.image(member).contains(point)
        assert not any(cov.contains(point) for cov in covers)
        return
    n = intersect_all(covers).index
    for idx, entry in enumerate(spec.entries):
        checks = [c for c in report.certificate.checks if c.entry_index == idx]
        k = span_cover(spec, entry, covers)
        if k is not None:
            # an entry that one cover holds is settled by one check naming
            # the first such cover, modulo its index
            assert [(c.cover, c.modulus, c.reps_checked) for c in checks] == [(k, covers[k].index, 0)]
            assert checks[0].label == f"{entry.span_word} {entry.span.to_columns()}"
            continue
        # else one check per member, modulo the period
        members = list(entry.labelled_members())
        assert [c.label for c in checks] == [label for label, _ in members]
        for check, (_, member) in zip(checks, members):
            assert check.modulus == n
            if check.cover is not None:
                assert holds(covers[check.cover], spec.image(member))
            else:
                assert check.reps_checked >= 1


def test_a_member_that_only_the_union_holds_is_checked_by_its_reps():
    # 3Z x Z lies in none of the covers, but each of its 4 cosets of the
    # period 6Z x 2Z, at (0, 0), (3, 0), (0, 1) and (3, 1), lies in one
    spec = FamilySpec(2, (Static(Lattice.from_diagonal((3, 1))),))
    covers = [Lattice.from_diagonal((6, 1)), Lattice.from_diagonal((3, 2)), hnf([(3, 1), (0, 2)])]
    report = check_covering(spec, covers)
    assert report.covered
    assert report.certificate.missed_coset == (1, 0)
    assert report.certificate.checks == (CoverCheck(0, "member [[3, 0], [0, 1]]", 4, None, 12),)


def half_of(member, phi):
    """The points of member whose coefficients k over its columns have
    phi . k even, for phi in {0, 1}^m, not 0: a sublattice of index 2."""
    m = member.dim
    i0 = phi.index(1)
    coefficients = [tuple(2 * (i == i0) for i in range(m))]
    coefficients += [tuple(int(i == j) + phi[j] * (i == i0) for i in range(m)) for j in range(m) if j != i0]
    return hnf([combination(member.columns, ks) for ks in coefficients])


@st.composite
def members_split_among_covers(draw):
    """(spec, covers): finite entries, the first of them one member M, and
    three or more distinct halves of M (``half_of``) as covers, so that no
    single cover holds M; the halves hold M together exactly when every
    parity class of coefficients is even under some phi."""
    m = draw(st.integers(2, 3))
    member = draw(canonical_lattices(m).filter(Lattice.is_proper))
    phis = [phi for phi in itertools.product((0, 1), repeat=m) if any(phi)]
    covers = [half_of(member, phi) for phi in draw(st.lists(st.sampled_from(phis), min_size=3, unique=True))]
    others = draw(st.lists(entries(m).filter(lambda e: not e.is_infinite), max_size=2))
    transform = None
    if draw(st.booleans()):
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m, ops=4)
        covers = [transform.apply(c) for c in covers]
    return FamilySpec(m, (Static(member), *others), transform), covers


@settings(max_examples=150, deadline=None)
@given(members_split_among_covers())
def test_a_member_split_among_the_covers_agrees_with_the_sweep(case):
    spec, covers = case
    member = spec.image(spec.entries[0].lattice)
    assert not any(holds(cov, member) for cov in covers)
    expected, at = reference_covering(spec, covers)
    report = check_covering(spec, covers)
    event(expected)
    assert report.covered == (expected == "covered")
    if not report.covered:
        idx, label, point = report.witness
        assert idx == at
        member = spec.image(dict(spec.entries[idx].labelled_members())[label])
        assert member.contains(point)
        assert not any(cov.contains(point) for cov in covers)
        return
    # the covers lie in M, so the period does: M has n / index(M) cosets of it
    n = intersect_all(covers).index
    check = report.certificate.checks[0]
    assert (check.entry_index, check.cover, check.modulus, check.reps_checked) == (0, None, n, n // member.index)


@pytest.mark.parametrize("seed", range(40))
def test_fixed_translate_agrees_with_bruteforce(seed):
    rng = random.Random(5000 + seed)
    spec = FamilySpec(2, tuple(random_entry(rng) for _ in range(rng.randint(1, 2))))
    lattice = random_cover(rng)
    a = (rng.randint(-6, 6), rng.randint(-6, 6))
    report = check_fixed_translate(spec, a, lattice)
    if not report.exact:
        return
    # brute force: does a + lattice meet any member within a generous range?
    meets = False
    for ks in itertools.product(range(-30, 31), repeat=2):
        p = (
            a[0] + ks[0] * lattice.columns[0][0] + ks[1] * lattice.columns[1][0],
            a[1] + ks[0] * lattice.columns[0][1] + ks[1] * lattice.columns[1][1],
        )
        if spec.covered(p):
            meets = True
            break
    if report.holds:
        assert not meets
    else:
        # the checker refutes with a sum-lattice argument; brute force over a
        # bounded range may simply not reach the meeting point, but whenever
        # it does, the answers must agree
        if meets:
            assert not report.holds


@st.composite
def specs_and_translates(draw):
    """A family, a lattice and a translate in family coordinates.  The
    lattice is often cut down to the entries' mapped spans, so that the
    translate is often free; small limits cut the member scan of an entry
    that its span does not settle."""
    m = draw(st.integers(1, 3))
    ents = tuple(draw(st.lists(entries(m), min_size=1, max_size=3)))
    transform = None
    if draw(st.booleans()):
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m, ops=4)
    lattice = draw(canonical_lattices(m))
    if draw(st.booleans()):
        spans = [entry.span for entry in ents]
        lattice = intersect_all([lattice] + [transform.apply(sp) if transform else sp for sp in spans])
    assume(lattice.index <= 1000)
    translate = tuple(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)))
    rep_limit = draw(st.sampled_from((3, 10, 2000)))
    return FamilySpec(m, ents, transform), translate, lattice, rep_limit


def reference_translate(spec, translate, lattice, rep_limit):
    """(holds, exact) taking the entries in order: an entry whose first
    members' sum with ``lattice`` misses the translate is settled; else a
    finite entry's members, or an infinite entry's members of index at most
    ``rep_limit`` (not exact), are tested one by one."""
    def meets(member):
        return spec.image(member).sum(lattice).contains(translate)

    exact = True
    for entry in spec.entries:
        mapped = [c for member in first_members(entry) for c in spec.image(member).columns]
        if not hnf(mapped + list(lattice.columns)).contains(translate):
            continue
        if entry.is_infinite:
            exact = False
            scanned = [entry.member(t) for t in entry.params.iter_values_up_to(rep_limit)]
            if any(meets(member) for member in scanned if member.index <= rep_limit):
                return False, True
        elif any(meets(member) for member in all_members(entry)):
            return False, True
    return True, exact


def translate_points(translate, lattice, coeff=4):
    """The points translate + k . columns of the lattice, |k_i| <= coeff."""
    for ks in itertools.product(range(-coeff, coeff + 1), repeat=lattice.dim):
        yield tuple(a + sum(k * col[i] for k, col in zip(ks, lattice.columns)) for i, a in enumerate(translate))


@settings(max_examples=200, deadline=None)
@given(specs_and_translates())
def test_fixed_translate_agrees_with_the_reference(case):
    spec, translate, lattice, rep_limit = case
    report = check_fixed_translate(spec, translate, lattice, rep_limit=rep_limit)
    event(f"holds={report.holds} exact={report.exact}")
    assert (report.holds, report.exact) == reference_translate(spec, translate, lattice, rep_limit)
    if not report.holds:
        # every refutation is exact, with a covered witness in the translate
        w = report.witness
        assert report.exact and spec.covered(w)
        assert lattice.contains(tuple(x - a for x, a in zip(w, translate)))
    else:
        assert report.witness is None
        if report.exact:
            assert not any(spec.covered(p) for p in translate_points(translate, lattice))


@pytest.mark.parametrize("seed", range(20))
def test_template_pair_sum_bound_contains_all_pair_sums(seed):
    # the span contains every pairwise sum of members, which is what makes
    # the coprime-subfamily refutation exact when it is proper
    rng = random.Random(9000 + seed)
    base = hnf([(rng.randint(1, 3), rng.randrange(3)), (0, rng.randint(1, 3))])
    entry = Template(base, scaled_row(2, rng.randrange(2)), Primes())
    bound = entry.span
    params = [2, 3, 5, 7, 11, 13]
    for t1, t2 in itertools.combinations(params, 2):
        s = entry.member(t1).sum(entry.member(t2))
        for col in s.columns:
            assert bound.contains(col)
        # and each member alone sits inside the span as well
        for col in entry.member(t1).columns:
            assert bound.contains(col)
