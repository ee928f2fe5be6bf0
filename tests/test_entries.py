"""Properties of the entry protocol: span, schema(), labelled_members(),
and the parameter sequences' delta() behind spans."""

import dataclasses
import itertools
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfree.families import (
    CoprimeFamily,
    Primes,
    RectEntry,
    RectTemplate,
    Rectangular,
    Static,
    Template,
    odd_primes,
)
from bfree.lattices import Lattice, hnf

from helpers import entries, is_diagonal_entry, param_seqs


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
    ],
    ids=("Static", "Rectangular", "RectTemplate", "Template"),
)
@pytest.mark.parametrize("point", [(2,), (2, 1, 5)], ids=("short", "long"))
@pytest.mark.parametrize("question", ["covered", "member_containing"])
def test_entries_refuse_points_of_another_dimension(entry, point, question):
    # a truncated or padded point must raise, never answer for its prefix
    with pytest.raises(ValueError, match="dimension mismatch"):
        getattr(entry, question)(point)
