"""Properties of the entry protocol: span(), schema(), classes_mod(),
class_member(), and the parameter sequences' delta() and value_in_class
behind spans and witnesses."""

import itertools
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bfree.errors import TooLargeError
from bfree.families import (
    CoprimeFamily,
    Explicit,
    Geometric,
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
from bfree.proximality import decide

from helpers import entries, param_seqs


def sample_params(entry, count=6):
    """The first few parameters of a template entry (count None: all up to 200)."""
    return entry.params.values_up_to(200)[:count]


def members(entry, count=6):
    if not hasattr(entry, "params"):
        return [entry.lattice]
    return [entry.member(t) for t in sample_params(entry, count)]


def with_n(lattice_columns, n, m):
    return hnf(list(lattice_columns) + [tuple(n * (i == j) for i in range(m)) for j in range(m)])


def some_coprime_pair(lattices):
    return any(a.coprime(b) for a, b in itertools.combinations(lattices, 2))


def check_coprime_family(entry, family):
    """The sample is pairwise coprime and made of the entry's members."""
    assert entry.is_infinite and len(family.sample) >= 2
    assert all(a.coprime(b) for a, b in itertools.combinations(family.sample, 2))
    instances = {entry.member(t) for t in entry.params.values_up_to(200)}
    assert set(family.sample) <= instances


# ---------------------------------------------------------------------------
# schema, classes


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(entries))
def test_cover_contains_every_member(entry):
    answer = entry.schema()
    if entry.is_rectangular:
        assert answer is not None  # what decide_rectangular relies on
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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(entries), st.integers(1, 30))
def test_classes_mod_match_members(entry, n):
    m = entry.dim
    classes = {}
    for label, cols, param in entry.classes_mod(n, 10**6):
        lattice = with_n(cols, n, m)
        classes[label] = (lattice, param)
        member = entry.class_member(param, n)
        assert member is not None
        assert with_n(member.columns, n, m) == lattice
    if not hasattr(entry, "params"):
        assert [lat for lat, _ in classes.values()] == [with_n(entry.lattice.columns, n, m)]
        return
    for t in sample_params(entry):
        label = f"t={t % n} (mod {n})" if entry.is_infinite else f"t={t}"
        assert classes[label][0] == with_n(entry.member(t).columns, n, m)
    if entry.is_infinite:
        assert len(classes) == entry.params.class_count(n)


def test_classes_mod_refuses_before_building(monkeypatch):
    entry = parse_family("dim 1\nrecttemplate [2t] params=primes\n").entries[0]
    monkeypatch.setattr(Primes, "residues_mod", lambda self, n: pytest.fail("classes built"))
    with pytest.raises(TooLargeError, match=r"\d+ parameter classes modulo 1000003 exceed the limit 1000"):
        entry.classes_mod(1_000_003, 1000)


def test_single_member_entries():
    entry = Rectangular((2, 3))
    assert not entry.is_infinite and entry.is_rectangular
    assert entry.schema() == [Lattice.from_diagonal((2, 3))]


# ---------------------------------------------------------------------------
# span, delta


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(entries))
def test_span_is_generated_by_the_first_members(entry):
    """The closed form equals the lattice the first 12 members generate."""
    if hasattr(entry, "params"):
        cols = [c for t in entry.params.values_up_to(10**4)[:12] for c in entry.member(t).columns]
    else:
        cols = list(entry.lattice.columns)
    assert entry.span() == hnf(cols, dim=entry.dim)


@settings(max_examples=200, deadline=None)
@given(param_seqs())
def test_delta_matches_brute_force(seq):
    """Over the values up to 10**4: for primes with exclusions, the first
    primes left."""
    values = seq.values_up_to(10**4)
    assert values[0] == seq.min_value()
    assert seq.delta() == gcd(*(t - values[0] for t in values))


# ---------------------------------------------------------------------------
# value_in_class


def brute_value_in_class(seq, rho, n):
    """Smallest non-excluded prime congruent to rho mod n: a prime in a
    non-unit class divides n, so the search ends at n for those."""
    p = 1
    while True:
        p = sympy.nextprime(p)
        if p % n == rho and p not in seq.exclude:
            return p
        if p > n and gcd(rho, n) != 1:
            return None


def test_primes_value_in_class_beyond_the_old_scan():
    assert Primes().value_in_class(22, 461) == 37363


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 600).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), unique=True, max_size=3),
)
def test_primes_value_in_class_matches_brute_force(case, exclude):
    n, rho = case
    seq = Primes(tuple(exclude))
    assert seq.value_in_class(rho, n) == brute_value_in_class(seq, rho, n)


@pytest.mark.parametrize("seq", [Geometric(2, 1), Geometric(6, 0), Explicit((4, 9, 15))], ids=repr)
def test_value_in_class_lands_in_class(seq):
    for n in range(1, 60):
        for rho in seq.residues_mod(n):
            t = seq.value_in_class(rho, n)
            assert t in seq and t % n == rho


def test_covering_verdict_builds_no_member(monkeypatch):
    # classes carry residues; a concrete member is only built to lift a witness
    spec = parse_family("dim 2\nrecttemplate [2t,t] params=primes\nrect [1,3]\n")
    expected = decide(spec).to_json()
    assert '"NotProximal"' in expected

    def refuse(self, rho, n):
        raise AssertionError("value_in_class called for a verified cover")

    monkeypatch.setattr(Primes, "value_in_class", refuse)
    assert decide(spec).to_json() == expected


@pytest.mark.parametrize(
    "entry",
    [
        Static(Lattice(((2, 0), (1, 2)))),
        Rectangular((2, 3)),
        RectTemplate((RectEntry(1, 1), RectEntry(2, 0)), Primes()),
        Template(Lattice(((2, 0), (1, 2))), (1, 0), odd_primes()),
    ],
    ids=("Static", "Rectangular", "RectTemplate", "Template"),
)
@pytest.mark.parametrize("point", [(2,), (2, 1, 5)], ids=("short", "long"))
@pytest.mark.parametrize("question", ["covered", "member_containing"])
def test_entries_refuse_points_of_another_dimension(entry, point, question):
    # a truncated or padded point must raise, never answer for its prefix
    with pytest.raises(ValueError, match="dimension mismatch"):
        getattr(entry, question)(point)
