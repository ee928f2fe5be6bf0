"""Properties of the entry protocol: span, schema(), labelled_members(),
the parameter sequences' delta() behind spans, and finite entries read as
their members."""

import dataclasses
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bfree import families, windows
from bfree.families import (
    CoprimeFamily,
    Explicit,
    FamilySpec,
    Primes,
    RectEntry,
    RectTemplate,
    Rectangular,
    Static,
    Template,
    odd_primes,
    parse_family,
)
from bfree.lattices import Lattice, hnf
from bfree.windows import Box, covered_flags

from helpers import canonical_lattices, entries, is_diagonal_entry, param_seqs, random_unimodular, scaled_row


def sample_params(entry, count=6):
    """The first few parameters of a template entry (count None: all up to 200)."""
    return list(entry.params.iter_values_up_to(200))[:count]


def members(entry, count=6):
    if not hasattr(entry, "params"):
        return [entry.lattice]
    return [entry.member(t) for t in sample_params(entry, count)]


def some_coprime_pair(lattices):
    return any(a.coprime(b) for a, b in itertools.combinations(lattices, 2))


def check_coprime_family(entry, family):
    """The sample is pairwise coprime and made of the entry's members."""
    assert entry.is_infinite and len(family.sample) >= 2
    assert all(a.coprime(b) for a, b in itertools.combinations(family.sample, 2))
    instances = {entry.member(t) for t in entry.params.iter_values_up_to(200)}
    assert set(family.sample) <= instances


# ---------------------------------------------------------------------------
# schema, members


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(entries))
def test_cover_contains_every_member(entry):
    answer = entry.schema()
    if is_diagonal_entry(entry):
        assert answer is not None  # why decide is exact on diagonal entries
    if answer is None or isinstance(answer, CoprimeFamily):
        return
    if not entry.is_infinite:
        assert answer == members(entry, count=None)
    assert answer and all(cov.is_proper() for cov in answer)
    for member in members(entry):
        assert any(all(cov.contains(c) for c in member.columns) for cov in answer)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(entries))
def test_coprime_pairs_match_brute_force(entry):
    """A coprime family is a real one; an infinite entry with a cover has no
    coprime pair among its sampled members."""
    answer = entry.schema()
    if isinstance(answer, CoprimeFamily):
        check_coprime_family(entry, answer)
        assert some_coprime_pair(members(entry))
    elif answer is not None and entry.is_infinite:
        assert not some_coprime_pair(members(entry))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any),
    st.lists(st.sampled_from((2, 3, 5, 7)), unique=True, max_size=2),
)
def test_unit_prime_templates_give_coprime_families(exps, exclude):
    entry = RectTemplate(tuple(RectEntry(1, e) for e in exps), Primes(tuple(exclude)))
    answer = entry.schema()
    assert isinstance(answer, CoprimeFamily)
    check_coprime_family(entry, answer)


def eager_coprime_family(template):
    """(rule, sample) as Template.schema built them on every call before
    CoprimeFamily read them off its template: the reference."""
    params = template.params
    sample = tuple(map(template.member, itertools.islice(params.iter_values_up_to(30), 4)))
    if params.exclude:
        over = "primes excluding {%s}" % ", ".join(map(str, params.exclude))
    else:
        over = "all primes"
    rule = (
        f"members diag({', '.join(map(str, template._slots()))}) over {over}: "
        "distinct prime parameters give pairwise coprime members"
    )
    return rule, sample


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda m: st.lists(st.integers(0, 3), min_size=m, max_size=m)).filter(any),
    st.lists(st.sampled_from((2, 3, 5, 7)), unique=True),
)
def test_coprime_family_rule_and_sample_equal_the_eager_ones(exps, exclude):
    entry = Template(Lattice.whole(len(exps)), tuple(exps), Primes(tuple(exclude)))
    answer = entry.schema()
    assert answer == CoprimeFamily(entry)
    assert (answer.rule, answer.sample) == eager_coprime_family(entry)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(entries))
def test_labelled_members_of_a_finite_entry(entry):
    if entry.is_infinite:
        return
    got = list(entry.labelled_members())
    assert [lat for _, lat in got] == members(entry, count=None)
    if hasattr(entry, "params"):
        assert [label for label, _ in got] == [f"t={t}" for t in entry.params.values]
    else:
        assert got == [(f"member {entry.lattice.to_columns()}", entry.lattice)]


def test_single_member_entries():
    entry = Rectangular((2, 3))
    assert not entry.is_infinite and is_diagonal_entry(entry)
    assert entry.schema() == [Lattice.from_diagonal((2, 3))]


# ---------------------------------------------------------------------------
# span, delta


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(entries))
def test_span_is_generated_by_the_first_members(entry):
    """The closed form equals the lattice the first 12 members generate."""
    if hasattr(entry, "params"):
        cols = [c for t in list(entry.params.iter_values_up_to(10**4))[:12] for c in entry.member(t).columns]
    else:
        cols = list(entry.lattice.columns)
    assert entry.span == hnf(cols, dim=entry.dim)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(entries))
def test_a_cached_span_equals_a_fresh_computation(entry):
    span = entry.span
    assert entry.span is span
    if isinstance(entry, Template):
        assert Template.span.func(entry) == span
        assert dataclasses.replace(entry).span == span


@settings(max_examples=200, deadline=None)
@given(param_seqs())
@example(Primes((2, 3, 5, 7)))
@example(Primes((3, 7)))
def test_delta_matches_brute_force(seq):
    """Over the values up to 10**4: for primes with exclusions, the first
    primes left."""
    values = list(seq.iter_values_up_to(10**4))
    assert values[0] == seq.min_value()
    assert seq.delta() == gcd(*(t - values[0] for t in values))


@pytest.mark.parametrize(
    "entry",
    [
        Static(Lattice(((2, 0), (1, 2)))),
        Rectangular((2, 3)),
        RectTemplate((RectEntry(1, 1), RectEntry(2, 0)), Primes()),
        Template(Lattice(((2, 0), (1, 2))), (1, 0), odd_primes()),
        Template(Lattice(((2, 0), (1, 2))), (1, 0), Explicit((1, 3))),
    ],
    ids=("Static", "Rectangular", "RectTemplate", "Template", "ExplicitTemplate"),
)
@pytest.mark.parametrize("point", [(2,), (2, 1, 5)], ids=("short", "long"))
@pytest.mark.parametrize("question", ["covered", "member_containing"])
def test_entries_refuse_points_of_another_dimension(entry, point, question):
    # a truncated or padded point must raise, never answer for its prefix
    with pytest.raises(ValueError, match="dimension mismatch"):
        getattr(entry, question)(point)


# ---------------------------------------------------------------------------
# a finite entry is its members: the window sieve and the point questions
# against a brute-force reference


@st.composite
def finite_entries(draw, m):
    """A static lattice, or a template (diagonal base or not) over an
    explicit list."""
    kind = draw(st.sampled_from(("static", "recttemplate", "template")))
    values = Explicit(tuple(sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=4)))))
    try:
        if kind == "static":
            return Static(draw(canonical_lattices(m)))
        if kind == "recttemplate":
            slots = tuple(RectEntry(draw(st.integers(1, 3)), draw(st.integers(0, 3))) for _ in range(m))
            return RectTemplate(slots, values)
        return Template(draw(canonical_lattices(m)), scaled_row(m, draw(st.integers(0, m - 1))), values)
    except ValueError:  # improper member or no parameterised slot
        assume(False)


def reference_members(entry):
    """The members of a finite entry, by increasing parameter, from the
    definition: the base's columns with row i's diagonal entry times t**e_i,
    put in canonical form."""
    if isinstance(entry, Static):
        return [entry.lattice]
    out = []
    for t in entry.params.values:
        cols = [list(col) for col in entry.base.columns]
        for i, e in enumerate(entry.exps):
            cols[i][i] *= t**e
        out.append(hnf(cols))
    return out


def reference_test(lattice, rows):
    """Membership in the image of lattice under the matrix of these rows
    (the identity for None), by the rational inverse of the image's
    generator matrix: a point lies in it when its coefficients are integers."""
    generators = sympy.Matrix(lattice.basis)
    if rows is not None:
        generators = sympy.Matrix(rows) * generators
    inverse = [[Fraction(int(x.p), int(x.q)) for x in row] for row in generators.inv().tolist()]
    return lambda p: all((sum(c * x for c, x in zip(row, p))).denominator == 1 for row in inverse)


@st.composite
def finite_families(draw):
    """(spec, box): one to three finite entries, maybe a transform, and a
    small box near 0 or near 10**12."""
    m = draw(st.sampled_from((1, 2, 2, 3)))
    ents = tuple(draw(st.lists(finite_entries(m), min_size=1, max_size=3)))
    transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m) if draw(st.booleans()) else None
    side = {1: 40, 2: 8, 3: 4}[m]
    centre = draw(st.one_of(st.integers(-8, 8), st.integers(10**12 - 50, 10**12 + 50)))
    lo = tuple(centre + draw(st.integers(-side, 0)) for _ in range(m))
    hi = tuple(a + draw(st.integers(0, side - 1)) for a in lo)
    return FamilySpec(m, ents, transform), Box(lo, hi)


@settings(max_examples=150, deadline=None)
@given(finite_families())
def test_a_finite_entry_is_the_union_of_its_members(case):
    spec, box = case
    rows = None if spec.transform is None else spec.transform.rows
    # per entry, its members by increasing parameter with their tests in
    # family coordinates
    tests = [[(lat, reference_test(lat, rows)) for lat in reference_members(e)] for e in spec.entries]
    expected = bytearray(any(holds(p) for ms in tests for _, holds in ms) for p in box.points())
    assert covered_flags(spec, box) == expected
    for p, flag in zip(box.points(), expected):
        q = spec.pullback(p)
        assert spec.covered(p) == flag
        for entry, ms in zip(spec.entries, tests):
            least = next((lat for lat, holds in ms if holds(p)), None)
            assert entry.covered(q) == (least is not None)
            assert entry.member_containing(q) == least


def test_finite_entries_take_no_divisibility_route(monkeypatch):
    # explicit templates that scale their first row or their last, far out,
    # beside static lattices, without and with a transform: every answer
    # comes from the members, so the elimination, the constraint test, the
    # line pieces and the row walk are never asked, and each member marks
    # the rows it meets
    specs = [
        FamilySpec(2, (
            Template(Lattice(((2, 0), (1, 2))), (1, 0), Explicit((2, 3, 5))),
            RectTemplate((RectEntry(3, 0), RectEntry(1, 2)), Explicit((2, 3, 5))),
            RectTemplate((RectEntry(2, 1), RectEntry(1, 1)), Explicit((2, 3, 5))),
            Static(Lattice(((7, 0), (3, 7)))),
        )),
        parse_family("dim 2\nrecttemplate [1,t^2] params=explicit:2,3,6\nrect [2,1]\ntransform [[20,-1],[-19,1]]\n"),
    ]
    c = 3 * 10**14
    box = Box((c - 20, c - 20), (c + 20, c + 20))
    expected = [bytearray(spec.covered(p) for p in box.points()) for spec in specs]
    assert all(0 < sum(flags) < box.volume for flags in expected)
    marked = []
    mark = windows._mark_lattice

    def refuse(*args, **kwargs):
        raise AssertionError("a finite entry asked the divisibility route")

    def recording(flags, lattice, *args, **kwargs):
        marked.append(lattice)
        mark(flags, lattice, *args, **kwargs)

    for name in ("_eliminate", "_holds", "_least_param", "line_pieces"):
        monkeypatch.setattr(families.Template, name, refuse)
    monkeypatch.setattr(windows, "_mark_last_row", refuse)
    monkeypatch.setattr(windows, "_mark_lattice", recording)
    for spec, flags, members in zip(specs, expected, (10, 4)):
        marked.clear()
        assert covered_flags(spec, box) == flags
        assert bytearray(spec.covered(p) for p in box.points()) == flags
        assert len(marked) == members and marked == list(spec.finite_images)
