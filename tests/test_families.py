import json
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfree.errors import FamilyParseError, TooLargeError, UnknownPresetError
from bfree import families
from bfree.families import (
    PRESET_NAMES,
    PRIME_SIEVE_LIMIT,
    Explicit,
    FamilySpec,
    Geometric,
    Primes,
    RectEntry,
    RectTemplate,
    Rectangular,
    Static,
    Template,
    format_family,
    indented_json,
    odd_primes,
    parse_family,
    preset,
)
from bfree.lattices import Lattice, UnimodularMap, hnf
from bfree.numtheory import primes_up_to
from bfree.proximality import SearchBudget, conditions_report, decide
from bfree.windows import Box, free_window

from helpers import canonical_lattices, entries, param_seqs, random_unimodular, scaled_row


# closed-form membership oracles for the two worked examples


def ex2_free(n, m):
    return n % 2 == 1 and m % 2 == 1 and abs(m - n) == 2


def ex1_free(n, m):
    return n in (-2, 0, 2) and m % 2 == 1


def is_squarefree(n):
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# presets against the closed forms


def test_ex2_membership_examples():
    spec = preset("ex2")
    assert spec.covered((1, 5))
    assert not spec.covered((3, 1))
    assert spec.covered((0, 0))


def test_ex2_closed_form_window():
    spec = preset("ex2")
    for p in product(range(-50, 51), repeat=2):
        assert spec.free(p) == ex2_free(*p), p


def test_ex1_eta_examples():
    spec = preset("ex1")
    assert spec.eta((0, 3)) == 1
    assert spec.eta((4, 3)) == 0
    assert spec.eta((6, 3)) == 0


def test_ex1_closed_form_window():
    spec = preset("ex1")
    for p in product(range(-50, 51), repeat=2):
        assert spec.free(p) == ex1_free(*p), p


def test_squarefree_preset_matches_sieve():
    spec = preset("squarefree-1d")
    for n in range(-300, 301):
        assert spec.free((n,)) == is_squarefree(n), n


def test_rect_demo_preset():
    spec = preset("rect-demo")
    assert len(spec.entries) == 5
    assert spec.covered((2, 4))
    assert spec.free((1, 1))


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        preset("nope")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_are_built_as_parsed_matrices_are(monkeypatch, name):
    # a preset's matrices are canonical, so they take the checked
    # Lattice(basis) route of parse_family and no elimination
    calls = []
    monkeypatch.setattr(families, "hnf", lambda *a, **k: calls.append(a) or hnf(*a, **k))
    spec = preset(name)
    assert calls == []
    assert spec == parse_family(format_family(spec))


def test_origin_always_covered():
    for name in ("ex2", "ex1", "squarefree-1d", "rect-demo"):
        spec = preset(name)
        assert spec.covered((0,) * spec.dim)


# ---------------------------------------------------------------------------
# instances


def test_instances_ex2_bound6():
    got = preset("ex2").instances_up_to(6)
    expected = {
        Lattice.from_diagonal((2, 1)),
        Lattice.from_diagonal((1, 2)),
        hnf([(1, 1), (0, 4)]),
        hnf([(1, 1), (0, 6)]),
    }
    assert set(got) == expected
    assert len(got) == 4


def test_instances_bound1_empty():
    for name in ("ex2", "ex1", "rect-demo"):
        assert preset(name).instances_up_to(1) == []


def test_instances_rect_demo():
    got = preset("rect-demo").instances_up_to(25)
    assert got == [
        Lattice.from_diagonal((2, 2)),
        Lattice.from_diagonal((3, 3)),
        Lattice.from_diagonal((5, 5)),
    ]


def test_instances_monotone_and_member_consistent():
    spec = preset("ex1")
    small = spec.instances_up_to(12)
    large = spec.instances_up_to(40)
    assert set(small) <= set(large)
    rng = random.Random(2)
    for lat in large:
        for _ in range(10):
            ks = (rng.randint(-3, 3), rng.randint(-3, 3))
            p = tuple(
                ks[0] * lat.columns[0][r] + ks[1] * lat.columns[1][r] for r in range(2)
            )
            assert spec.covered(p)


# sequences holding 1, which the entry must pair with a coefficient or a base
# index of at least 2
PARAMS_WITH_ONE = st.one_of(
    st.builds(Geometric, st.integers(2, 5), st.just(0)),
    st.sets(st.integers(2, 40), max_size=3).map(lambda s: Explicit(tuple(sorted({1, *s})))),
)


@st.composite
def template_entries(draw):
    m = draw(st.integers(1, 3))
    params = draw(st.one_of(param_seqs(), PARAMS_WITH_ONE))
    try:
        if draw(st.booleans()):
            slots = tuple(RectEntry(draw(st.integers(1, 3)), draw(st.integers(0, 3))) for _ in range(m))
            return RectTemplate(slots, params)
        return Template(draw(canonical_lattices(m)), scaled_row(m, draw(st.integers(0, m - 1))), params)
    except ValueError:  # improper member or no parameterised slot
        assume(False)


@settings(max_examples=200, deadline=None)
@given(entry=template_entries(), bound=st.integers(0, 3000))
def test_template_instances_are_the_members_within_the_bound(entry, bound):
    # a member's index is at least its parameter, so every member of index
    # <= bound has a parameter <= bound
    members = [entry.member(t) for t in entry.params.iter_values_up_to(bound)]
    assert list(entry.iter_instances(bound)) == [lat for lat in members if lat.index <= bound]
    assert all(lat.is_proper() for lat in members)


SEQUENCES = st.one_of(
    param_seqs(),
    st.lists(st.sampled_from((2, 3, 5, 7, 1021, 1031, 4093)), unique=True, max_size=3).map(lambda xs: Primes(tuple(sorted(xs)))),
)


def listed_at_once(seq, bound: int) -> list[int]:
    """The values up to bound from one sieve of that length, or from the
    definition of a sequence without a sieve."""
    if isinstance(seq, Primes):
        return [p for p in primes_up_to(bound) if p not in seq.exclude]
    if isinstance(seq, Geometric):
        return [seq.base**k for k in range(seq.start, max(bound, 1).bit_length() + 1) if seq.base**k <= bound]
    return [v for v in seq.values if v <= bound]


@settings(max_examples=200, deadline=None)
@given(seq=SEQUENCES, bound=st.one_of(st.integers(-2, 40), st.integers(1000, 20_000)))
def test_parameters_found_as_read_are_the_listed_ones(seq, bound):
    # the prime sieves grow 1024, 4096, 16384, ...: bounds on both sides of
    # each step give the same values in the same order as one sieve
    assert list(seq.iter_values_up_to(bound)) == listed_at_once(seq, bound)


@settings(max_examples=100, deadline=None)
@given(
    ents=st.integers(1, 2).flatmap(lambda m: st.lists(entries(m), min_size=1, max_size=3)),
    bound=st.one_of(st.integers(0, 300), st.integers(1000, 20_000)),
)
def test_spec_members_come_in_the_listed_order(ents, bound):
    # the members that a listing of every parameter up front gave, deduplicated
    # and sorted by (index, basis)
    spec = FamilySpec(ents[0].dim, tuple(ents))
    listed = {}
    for e in spec.entries:
        for lat in [e.lattice] if isinstance(e, Static) else map(e.member, e.params.iter_values_up_to(bound)):
            if lat.index <= bound:
                listed[lat.basis] = lat
    want = sorted(listed.values(), key=lambda lat: (lat.index, lat.basis))
    assert list(spec.iter_instances(bound)) == spec.instances_up_to(bound) == want


def test_members_past_the_sieve_limit_raise_before_any_sieve(monkeypatch):
    sieved = []
    monkeypatch.setattr("bfree.families.primes_up_to", lambda n: sieved.append(n) or ())
    entry = parse_family("dim 1\nrecttemplate [t] params=primes\n").entries[0]
    with pytest.raises(TooLargeError):
        entry.iter_instances(PRIME_SIEVE_LIMIT + 1)
    with pytest.raises(TooLargeError):
        Primes().iter_values_up_to(PRIME_SIEVE_LIMIT + 1)
    assert sieved == []
    members = entry.iter_instances(PRIME_SIEVE_LIMIT)
    assert sieved == []  # nothing is sieved before the first member is read
    assert list(members) == [] and sieved == [1024, 4096, 16384, 65536, 262144, 1048576, 4194304, PRIME_SIEVE_LIMIT]


JSON_TEXT = st.text(st.characters(exclude_categories=()))
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**60), 10**60),
    st.sampled_from((0, 1, -1, True, False)),
    JSON_TEXT,
    st.sampled_from(("", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\u00e9\u2028\ud83d\ude00", "\udc80")),
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
def test_indented_json_equals_json_dumps(obj):
    assert indented_json(obj) == json.dumps(obj, indent=2)


def test_indented_json_writes_the_exports_as_json_dumps_does():
    budget = SearchBudget(max_side=2, search_radius=4)
    for name in ("ex1", "ex2", "squarefree-1d", "rect-demo"):
        spec = preset(name)
        for obj in (decide(spec, budget).to_json_dict(), conditions_report(spec, budget).to_json_dict()):
            assert indented_json(obj) == json.dumps(obj, indent=2)
    window = free_window(preset("ex2"), Box((-3, -3), (3, 3))).to_json_dict()
    assert indented_json(window) == json.dumps(window, indent=2)


@pytest.mark.parametrize("obj", [1.5, {1: 2}, {(1,): 2}, {None: 1}, {"a": [set()]}, b"x", Primes()])
def test_indented_json_refuses_what_the_package_never_writes(obj):
    with pytest.raises(TypeError):
        indented_json(obj)


def test_member_containing_trace():
    spec = preset("ex2")
    member = spec.member_containing((1, 5))
    assert member == hnf([(1, 1), (0, 4)])
    assert spec.member_containing((3, 1)) is None


# ---------------------------------------------------------------------------
# parameter sequences


def test_primes_candidates():
    p = Primes()
    assert list(p.candidates(((12, 1),))) == [2, 3]
    assert list(p.candidates(((12, 2),))) == [2]
    assert list(odd_primes().candidates(((12, 1),))) == [3]
    assert 97 in p and 96 not in p


def test_geometric_membership_and_candidates():
    g = Geometric(2, 1)
    assert 8 in g and 6 not in g and 1 not in g
    assert g.candidates(((24, 1),)) == [2, 4, 8]
    assert Geometric(2, 2).candidates(((24, 1),)) == [4, 8]
    assert list(g.iter_values_up_to(20)) == [2, 4, 8, 16]


def test_explicit_validation():
    with pytest.raises(ValueError):
        Explicit(())
    with pytest.raises(ValueError):
        Explicit((3, 3))


@settings(max_examples=300, deadline=None)
@given(
    param_seqs(explicit=False),
    st.lists(st.tuples(st.integers(-3000, 3000), st.integers(1, 3)), min_size=1, max_size=3),
)
def test_candidates_increase_and_the_least_parameter_is_the_first(params, constraints):
    assume(any(v for v, _ in constraints))
    top = max(abs(v) for v, _ in constraints)
    brute = [t for t in range(1, top + 1) if t in params and all(v % t**e == 0 for v, e in constraints)]
    listed = list(params.candidates(constraints))
    assert listed == brute
    assert all(a < b for a, b in zip(listed, listed[1:]))
    template = Template(Lattice(((2,),)), (1,), params)
    assert template._least_param(constraints) == (brute[0] if brute else None)
    assert template._least_param([(0, e) for _, e in constraints]) == params.min_value()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(param_seqs(explicit=False), st.builds(Primes, st.sampled_from(((), (2,), (3, 5), (2, 3, 7))))),
    st.lists(st.tuples(st.one_of(st.just(0), st.integers(-60, 60)), st.integers(1, 2)), min_size=1, max_size=3),
    st.integers(1, 2),
    st.integers(-80, 80),
    st.integers(0, 150),
    st.sampled_from((1, -1, 2, -3, 7)),
)
def test_line_hits_equal_the_per_cell_answers(params, head, e, start, n, step):
    # _hits flags the values of a run in one pass when e and every head
    # exponent are 1 (the head's gcd taken once, the flags of one period
    # repeated); on any run, with exclusions, zero values and negative
    # steps, the flags are the per-cell _holds answers
    template = Template(Lattice(((2,),)), (1,), params)
    run = range(start, start + n * step, step)
    expected = bytearray(template._holds(head + [(v, e)]) for v in run)
    assert template._hits(head, e, run) == expected


# ---------------------------------------------------------------------------
# entry validation


def test_improper_entries_rejected():
    with pytest.raises(ValueError):
        Static(Lattice.whole(2))
    with pytest.raises(ValueError):
        Rectangular((1, 1))
    with pytest.raises(ValueError):
        RectTemplate((RectEntry(1, 1),), Explicit((1, 3)))
    with pytest.raises(ValueError):
        Template(Lattice.whole(2), (1, 0), Explicit((1, 2)))


def test_template_zero_scaled_coordinate():
    # points on the main diagonal zero out the scaled row, so membership is
    # parameter-independent and holds for every member
    spec = preset("ex2")
    entry = spec.entries[2]
    assert entry.covered((3, 3))
    assert entry.member_containing((3, 3)).index == 4  # smallest prime parameter
    assert not entry.covered((0, 2))  # would need the parameter to divide 1


# ---------------------------------------------------------------------------
# transformed families


def test_transformed_family_pullback():
    base = FamilySpec(2, (Rectangular((3, 5)),))
    shear = UnimodularMap(((1, 0), (2, 1)))
    moved = FamilySpec(2, base.entries, transform=shear)
    for p in product(range(-12, 13), repeat=2):
        image = shear.apply_point(p)
        assert base.covered(p) == moved.covered(image)
    assert moved.instances_up_to(20) == [shear.apply(Lattice.from_diagonal((3, 5)))]
    member = moved.member_containing(shear.apply_point((3, 0)))
    assert member == shear.apply(Lattice.from_diagonal((3, 5)))


# ---------------------------------------------------------------------------
# the text format


EXAMPLE_TEXT = """
# demo family
dim 2
static [[2,0],[0,1]]
rect [1,2]
template base=[[1,1],[0,2]] scale=(2,2) params=primes
recttemplate [t,2] params=geometric:2
"""


def test_parse_family_roundtrip():
    spec = parse_family(EXAMPLE_TEXT)
    assert spec.dim == 2
    assert len(spec.entries) == 4
    assert spec.entries[0] == Static(Lattice.from_diagonal((2, 1)))
    assert spec.entries[1] == Rectangular((1, 2))
    assert spec.entries[2] == Template(hnf([(1, 1), (0, 2)]), (0, 1), Primes())
    assert spec.entries[3] == RectTemplate((RectEntry(1, 1), RectEntry(2, 0)), Geometric(2))
    assert parse_family(format_family(spec)) == spec


def test_parse_family_transform():
    text = "dim 2\nrect [3,5]\ntransform [[1,0],[2,1]]\n"
    spec = parse_family(text)
    assert spec.transform == UnimodularMap(((1, 0), (2, 1)))
    assert parse_family(format_family(spec)) == spec


def test_parse_rejects_improper_with_line_number():
    bad = "dim 2\nstatic [[1,0],[0,1]]\n"
    with pytest.raises(FamilyParseError) as exc:
        parse_family(bad)
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


def test_parse_rejects_rank_deficient():
    with pytest.raises(FamilyParseError):
        parse_family("dim 2\nstatic [[2,4]]\n")


def test_parse_rejects_missing_dim():
    with pytest.raises(FamilyParseError):
        parse_family("rect [2,2]\n")


def test_parse_slot_forms():
    spec = parse_family("dim 3\nrecttemplate [t^2,3t,7] params=primes!2,5\n")
    entry = spec.entries[0]
    assert entry == RectTemplate((RectEntry(1, 2), RectEntry(3, 1), RectEntry(7, 0)), Primes(exclude=(2, 5)))
    assert entry.params == Primes(exclude=(2, 5))


def test_squarefree_closed_under_roundtrip():
    spec = preset("squarefree-1d")
    assert parse_family(format_family(spec)) == spec


@st.composite
def family_specs(draw):
    """A family of every entry kind over every parameter sequence (primes
    with exclusions, odd primes among them, geometric with offsets 0 to 2,
    explicit lists), with or without a transform."""
    m = draw(st.integers(1, 3))
    transform = None
    if draw(st.booleans()):
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m, ops=4)
    return FamilySpec(m, tuple(draw(st.lists(entries(m), min_size=1, max_size=3))), transform)


def test_template_and_recttemplate_lines_of_a_diagonal_base_are_one_entry():
    template = parse_family("dim 2\ntemplate base=[[3,0],[0,2]] scale=(1,1) params=primes\n")
    recttemplate = parse_family("dim 2\nrecttemplate [3t,2] params=primes\n")
    assert template == recttemplate
    assert format_family(template) == format_family(recttemplate) == "dim 2\nrecttemplate [3t,2] params=primes\n"


@settings(max_examples=200, deadline=None)
@given(family_specs())
def test_text_format_round_trips(spec):
    assert parse_family(format_family(spec)) == spec


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rect_and_static_lines_of_a_diagonal_lattice_are_one_entry(data):
    # either spelling, among other entries, gives the same entry and the
    # same bytes from every command that reads it
    m = data.draw(st.integers(1, 3))
    diag = data.draw(st.lists(st.integers(1, 5), min_size=m, max_size=m).filter(lambda d: max(d) > 1))
    columns = [[a if i == j else 0 for i in range(m)] for j, a in enumerate(diag)]
    others = format_family(FamilySpec(m, tuple(data.draw(st.lists(entries(m), max_size=2))))).splitlines()[1:]
    pos = data.draw(st.integers(0, len(others)))
    rect, static = (
        parse_family("\n".join([f"dim {m}", *others[:pos], line, *others[pos:]]))
        for line in (f"rect {json.dumps(diag)}", f"static {json.dumps(columns)}")
    )
    assert rect.entries[pos] == static.entries[pos] == Rectangular(tuple(diag))
    assert hash(rect.entries[pos]) == hash(static.entries[pos])
    assert rect.entries[pos].spec_line() == static.entries[pos].spec_line()
    assert format_family(rect) == format_family(static)
    budget = SearchBudget(max_side=1, search_radius=3)
    box = Box.centered(4, m)
    outputs = [
        (free_window(spec, box).bits, decide(spec, budget).to_json(), conditions_report(spec, budget).to_json())
        for spec in (rect, static)
    ]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("dim 1\nrecttemplate [t] params=primes!2,x\n", 2, "bad exclusion list '2,x'"),
        ("dim 1\nrecttemplate [t] params=geometric:x\n", 2, "bad geometric params 'geometric:x'"),
        ("dim 1\nrecttemplate [t] params=geometric:2:1:3\n", 2, "bad geometric params 'geometric:2:1:3'"),
        ("dim 1\nrecttemplate [t] params=explicit:2,x\n", 2, "bad explicit params 'explicit:2,x'"),
        ("dim 1\nrecttemplate [t] params=primesx\n", 2, "bad params 'primesx'"),
        ("dim 1\nrecttemplate [t] params=fibonacci\n", 2, "unknown parameter sequence 'fibonacci'"),
        ("dim 1\nrecttemplate [tt] params=primes\n", 2, "bad template slot 'tt'"),
        ("dim 2\nstatic [[2,0],[0,1]\n", 2, "bad list literal '[[2,0],[0,1]'"),
        ("dim 2\nstatic 5\n", 2, "'5' is not a list of integer lists"),
        ("dim 2\nstatic [2,0]\n", 2, "'[2,0]' is not a list of integer lists"),
        ("dim 2\nrect [[2],1]\n", 2, "'[[2],1]' is not a list of integers"),
        ("dim 2\ntemplate base=[[2,0],[0,1]] params=primes\n", 2, "template needs base=, scale=, params="),
        (
            "dim 2\ntemplate base=[[2,0],[0,1]] scale=(1,2) params=primes\n",
            2,
            "scale must be a diagonal position (r,r)",
        ),
        ("dim 1\nrecttemplate t params=primes\n", 2, "recttemplate needs [slots] params=..."),
        ("dim 1\ncircle [2]\n", 2, "unknown entry kind 'circle'"),
        ("# no dim\n", 0, "missing dim line"),
        ("\nrect [2,2]\n", 2, "dim must come before entries"),
        ("dim 0\n", 1, "dimension must be positive"),
    ],
)
def test_parse_diagnostics(text, line_no, message):
    with pytest.raises(FamilyParseError) as exc:
        parse_family(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("dim 2\nrect [2,1,3]\n", 2, "rect of dimension 3 in a family of dimension 2"),
        ("dim 2\nrecttemplate [t] params=primes\n", 2, "recttemplate of dimension 1 in a family of dimension 2"),
        ("dim 2\nrect [2,1]\ntransform [[1]]\n", 3, "transform of dimension 1 in a family of dimension 2"),
        ("dim 1\nrect [2]\ndim 2\nrect [2,1]\n", 3, "repeated dim line"),
        ("dim 2\nrect [2,1]\ntransform [[1,1],[0,1]]\ntransform [[1,0],[1,1]]\n", 4, "repeated transform line"),
    ],
)
def test_parse_refuses_conflicting_dim_and_transform_lines(text, line_no, message):
    with pytest.raises(FamilyParseError) as exc:
        parse_family(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize(
    "text",
    [
        "dim 2\nrect [2.5,1]\n",
        "dim 2\nrect [true,2]\n",
        'dim 2\nrect ["2",1]\n',
        "dim 2\nstatic [[2.9,0],[0,1]]\n",
        "dim 2\ntemplate base=[[1,1],[0,2.5]] scale=(2,2) params=primes\n",
        "dim 2\nrect [2,1]\ntransform [[1.7,0],[0,1]]\n",
    ],
)
def test_parse_refuses_numbers_that_are_not_integers(text):
    # int() would truncate or coerce them into a family the text does not describe
    line_no = text.count("\n")
    with pytest.raises(FamilyParseError) as exc:
        parse_family(text)
    assert exc.value.line_no == line_no
    assert "is not a list of integer" in str(exc.value)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parsed_matrices_are_the_hnf_of_their_columns(data):
    # a static or template base= matrix whose columns are already canonical
    # is built by the checked constructor, any other one is eliminated:
    # either way the lattice is hnf of the written columns, views included,
    # and a matrix that hnf refuses is refused with hnf's text
    m = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        cols = [list(c) for c in data.draw(canonical_lattices(m, max_diag=6)).columns]
    else:
        width = data.draw(st.sampled_from((m, m, m - 1, m + 1)))
        column = st.lists(st.integers(-6, 6), min_size=width, max_size=width)
        cols = data.draw(st.lists(column, min_size=1, max_size=m + 1))
    text = json.dumps(cols, separators=(",", ":"))
    lines = ((f"static {text}", lambda e: e.lattice), (f"template base={text} scale=(1,1) params=primes", lambda e: e.base))
    try:
        expected = hnf(cols, dim=m)
    except ValueError as exc:
        for line, _ in lines:
            with pytest.raises(FamilyParseError) as info:
                parse_family(f"dim {m}\n{line}\n")
            assert str(info.value) == f"line 2: {exc}"
        return
    for line, lattice_of in lines:
        try:
            entry = parse_family(f"dim {m}\n{line}\n").entries[0]
        except FamilyParseError as exc:
            assert line.startswith("static") and expected.index == 1
            assert str(exc) == "line 2: family members must be proper (index >= 2)"
            continue
        got = lattice_of(entry)
        assert got == expected
        assert (got.columns, got.diagonal, got.index, got.is_diagonal()) == (
            expected.columns, expected.diagonal, expected.index, expected.is_diagonal()
        )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_template_member_is_canonical_without_hnf(data):
    # member() scales the diagonal entries of the canonical base in place
    # (over a diagonal base, any exponents, built by from_diagonal); the
    # result must be the canonical form of the scaled generators
    m = data.draw(st.integers(1, 4))
    diagonal = data.draw(st.booleans())
    rows = []
    for i in range(m):
        d = data.draw(st.integers(1, 9))
        rows.append(tuple(data.draw(st.integers(0, d - 1)) if j < i and not diagonal else d * (i == j) for j in range(m)))
    base = Lattice(tuple(rows))
    if base.is_diagonal():
        exps = tuple(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any)))
    else:
        exps = scaled_row(m, data.draw(st.integers(0, m - 1)))
    entry = Template(base, exps, Explicit((2, 3, 5)))
    t = data.draw(st.integers(1, 10**6))
    cols = [list(c) for c in base.columns]
    for i, e in enumerate(exps):
        cols[i][i] *= t**e
    member = entry.member(t)
    assert member == hnf(cols)
    # built without validation, it equals the validated lattice of its basis,
    # views included
    checked = Lattice(member.basis)
    assert member == checked
    assert (member.dim, member.columns, member.diagonal, member.index, member.is_diagonal()) == (
        checked.dim, checked.columns, checked.diagonal, checked.index, checked.is_diagonal()
    )
