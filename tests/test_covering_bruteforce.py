"""Randomized cross-validation of the exact covering and fixed-translate
checkers against direct point enumeration.

The class-based reductions claim exactness for infinite template entries;
here we corner them with small random families and covers and compare with
brute force over generous boxes of instantiated members.
"""

import itertools
import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from bfree.errors import InvalidCoverError, TooLargeError
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
from bfree.lattices import Lattice, hnf, intersect_all
from bfree.proximality import _lift_witness, _quotient_reps, check_covering, check_fixed_translate
from helpers import canonical_lattices, entries, random_unimodular, scaled_row

CLASS_LIMIT = 10**6


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
    except TooLargeError:
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


def reference_sweep(spec, covers):
    """The refuting (entry, class label, witness) of the sweep modulo the
    cover intersection's index N over every class of every entry, or None
    when every class lies in the union: the covering check without its
    one-cover-per-entry shortcut, kept as the reference."""
    period = intersect_all(covers)
    n = period.index
    n_lattice = Lattice.from_diagonal((n,) * spec.dim)
    transform = spec.transform
    for idx, entry in enumerate(spec.entries):
        for label, cols, param in entry.classes_mod(n, CLASS_LIMIT):
            if transform is not None:
                cols = [transform.apply_point(c) for c in cols]
            class_lattice = hnf(list(cols) + list(n_lattice.columns))
            _, reps = _quotient_reps(class_lattice, class_lattice.intersect(period), CLASS_LIMIT)
            for rep in reps:
                if not any(cov.contains(rep) for cov in covers):
                    witness = _lift_witness(entry.class_member(param, n), spec.image, n_lattice, rep)
                    return idx, label, witness
    return None


def reference_translate_sweep(spec, translate, lattice):
    """Whether some member class modulo the index of ``lattice`` meets
    translate + lattice, swept over every class of every entry in entry
    coordinates: the fixed-translate check without its span step, kept as
    the reference."""
    a = spec.pullback(translate)
    if spec.transform is not None:
        lattice = spec.transform.inverse().apply(lattice)
    return any(
        hnf(list(cols) + list(lattice.columns)).contains(a)
        for entry in spec.entries
        for _, cols, _ in entry.classes_mod(lattice.index, CLASS_LIMIT)
    )


def mapped_classes(entry, modulus, transform):
    """Columns of every member class of the entry modulo ``modulus``, mapped
    through the transform."""
    for _, cols, _ in entry.classes_mod(modulus, CLASS_LIMIT):
        yield [transform.apply_point(c) for c in cols] if transform is not None else cols


def one_cover_holds(entry, cover, transform):
    """Whether the cover holds every member class modulo its index: the
    class sweep that the span test replaced, kept as its reference."""
    return all(
        all(cover.contains(c) for c in cols) for cols in mapped_classes(entry, cover.index, transform)
    )


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
        span = entry.span()
        cover = cover.sum(transform.apply(span) if transform else span)
    assume(cover.is_proper() and cover.index <= 500)
    return entry, transform, cover


@settings(max_examples=200, deadline=None)
@given(entries_and_covers())
def test_span_containment_agrees_with_the_class_sweep(case):
    entry, transform, cover = case
    span = entry.span()
    cols = [transform.apply_point(c) for c in span.columns] if transform else span.columns
    assert all(cover.contains(c) for c in cols) == one_cover_holds(entry, cover, transform)


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
        # an entry's class lattices modulo a small d: together they hold the
        # entry, often with no single one holding it all
        entry, d = draw(st.sampled_from(ents)), draw(st.integers(2, 4))
        for cols in mapped_classes(entry, d, transform):
            lat = hnf(list(cols) + list(Lattice.from_diagonal((d,) * m).columns))
            if lat.is_proper():
                covers.append(lat)
    # the reference sweep does work in proportion to the period
    assume(covers and intersect_all(covers).index <= 1000)
    return FamilySpec(m, ents, transform), covers


@settings(max_examples=150, deadline=None)
@given(specs_and_covers())
def test_check_covering_agrees_with_the_sweep_modulo_the_period(case):
    spec, covers = case
    try:
        report = check_covering(spec, covers)
    except InvalidCoverError:
        assume(False)
    refuted = reference_sweep(spec, covers)
    assert report.covered == (refuted is None)
    assert report.witness == refuted
    if not report.covered:
        return
    for idx, entry in enumerate(spec.entries):
        checks = [c for c in report.certificate.checks if c.entry_index == idx]
        held = any(one_cover_holds(entry, cov, spec.transform) for cov in covers)
        # an entry that one cover holds is settled by one check naming it
        assert (len(checks) == 1 and checks[0].cover is not None) or not held
        if len(checks) == 1 and checks[0].cover is not None:
            cover = covers[checks[0].cover]
            modulus_lattice = Lattice.from_diagonal((checks[0].modulus,) * spec.dim)
            assert all(cover.contains(c) for c in modulus_lattice.columns)
            for cols in mapped_classes(entry, checks[0].modulus, spec.transform):
                assert all(cover.contains(c) for c in cols)


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
    translate is often free; small limits push entries to the divisor level
    and to the member scan."""
    m = draw(st.integers(1, 3))
    ents = tuple(draw(st.lists(entries(m), min_size=1, max_size=3)))
    transform = None
    if draw(st.booleans()):
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m, ops=4)
    lattice = draw(canonical_lattices(m))
    if draw(st.booleans()):
        spans = [entry.span() for entry in ents]
        lattice = intersect_all([lattice] + [transform.apply(sp) if transform else sp for sp in spans])
    assume(lattice.index <= 1000)
    translate = tuple(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)))
    rep_limit = draw(st.sampled_from((3, 10, 200_000)))
    return FamilySpec(m, ents, transform), translate, lattice, rep_limit


@settings(max_examples=200, deadline=None)
@given(specs_and_translates())
def test_fixed_translate_agrees_with_the_class_sweep(case):
    spec, translate, lattice, rep_limit = case
    report = check_fixed_translate(spec, translate, lattice, rep_limit=rep_limit)
    event(f"holds={report.holds} exact={report.exact}")
    if report.exact:
        assert report.holds == (not reference_translate_sweep(spec, translate, lattice))
    if not report.holds:
        # every refutation is exact, with a covered witness in the translate
        w = report.witness
        assert report.exact and spec.covered(w)
        assert lattice.contains(tuple(x - a for x, a in zip(w, translate)))
    else:
        assert report.witness is None


@pytest.mark.parametrize("seed", range(20))
def test_template_pair_sum_bound_contains_all_pair_sums(seed):
    # the span contains every pairwise sum of members, which is what makes
    # the coprime-subfamily refutation exact when it is proper
    rng = random.Random(9000 + seed)
    base = hnf([(rng.randint(1, 3), rng.randrange(3)), (0, rng.randint(1, 3))])
    entry = Template(base, scaled_row(2, rng.randrange(2)), Primes())
    bound = entry.span()
    params = [2, 3, 5, 7, 11, 13]
    for t1, t2 in itertools.combinations(params, 2):
        s = entry.member(t1).sum(entry.member(t2))
        for col in s.columns:
            assert bound.contains(col)
        # and each member alone sits inside the span as well
        for col in entry.member(t1).columns:
            assert bound.contains(col)
