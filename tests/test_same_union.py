"""Same union, same answer: metamorphic properties of the verdict engine.

The free set depends only on the union of the members, so two descriptions
of one union must give the same free windows, and their exact verdicts
(Proximal or NotProximal) must never disagree.  A coordinate change must
not change the status at all, ``Inconclusive`` included.  Each relation
below builds such a pair from random entries:

* ``order``: the entries in another order;
* ``transform``: the entries under a unimodular change of coordinates A,
  whose union is the image of the other under A;
* ``peel``: one value t0 taken off a template's parameters and added as the
  static member(t0) (``Primes`` with t0 excluded, ``Geometric(b, s + 1)``
  plus member(b**s), an explicit list without its first value);
* ``redundant``: a duplicate entry, or a static sublattice of a member;
* ``explicit``: a template over explicit values against its members as
  static entries.

The entries come from ``helpers.entries`` and, in a test of their own, from
the entries of ``helpers.hard_families`` (without their transform).
"""

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfree.families import Explicit, FamilySpec, Geometric, Primes, Static, Template, parse_family
from bfree.lattices import intersect_all
from bfree.proximality import INCONCLUSIVE, NOT_PROXIMAL, SearchBudget, check_covering, decide
from bfree.windows import Box, free_window
from helpers import canonical_lattices, entries, hard_families, random_unimodular

# exact verdicts only: no zero-window evidence is searched
BUDGET = SearchBudget(max_side=0)
RADIUS = {1: 30, 2: 6, 3: 3}


def _first_member(entry):
    return entry.lattice if isinstance(entry, Static) else entry.member(entry.params.min_value())


def _peeled(entry, i):
    """The entry with its i-th value t0 (i < 3) taken off, as (rest or None,
    Static(member(t0)))."""
    params = entry.params
    if isinstance(params, Primes):
        t0 = list(params.iter_values_up_to(20))[i]
        rest = Primes(params.exclude + (t0,))
    elif isinstance(params, Geometric):
        t0 = params.min_value()
        rest = Geometric(params.base, params.start + 1)
    else:
        t0 = params.values[0]
        rest = Explicit(params.values[1:]) if len(params.values) > 1 else None
    return (None if rest is None else dataclasses.replace(entry, params=rest)), Static(entry.member(t0))


@st.composite
def same_union_pairs(draw, relation, hard=False):
    """(first, second, A) with second's union the image of first's under A
    (A None for the identity); with hard, first holds the entries of a hard
    family."""
    if hard:
        m = draw(st.integers(2, 3))
        es = list(draw(hard_families(m)).entries)
    else:
        m = draw(st.integers(1, 3))
        es = draw(st.lists(entries(m), min_size=1, max_size=3))
    first = FamilySpec(m, tuple(es))
    if relation == "order":
        return first, FamilySpec(m, tuple(draw(st.permutations(es)))), None
    if relation == "transform":
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m)
        return first, FamilySpec(m, tuple(es), transform), transform
    if relation == "redundant":
        i = draw(st.integers(0, len(es) - 1))
        if draw(st.booleans()):
            extra = es[i]
        else:
            extra = Static(_first_member(es[i]).intersect(draw(canonical_lattices(m))))
        return first, FamilySpec(m, tuple(es) + (extra,)), None
    templates = [i for i, e in enumerate(es) if isinstance(e, Template)]
    assume(templates)
    i = draw(st.sampled_from(templates))
    if relation == "peel":
        rest, static = _peeled(es[i], draw(st.integers(0, 2)))
        peeled = es[:i] + ([] if rest is None else [rest]) + es[i + 1 :] + [static]
        return first, FamilySpec(m, tuple(peeled)), None
    # explicit: the template over its first k values, against their members
    values = list(es[i].params.iter_values_up_to(40))[: draw(st.integers(1, 3))]
    es[i] = dataclasses.replace(es[i], params=Explicit(tuple(values)))
    statics = [Static(es[i].member(t)) for t in values]
    return FamilySpec(m, tuple(es)), FamilySpec(m, tuple(es[:i] + statics + es[i + 1 :])), None


def _agree_on_windows(first, second, transform):
    box = Box.centered(RADIUS[first.dim], first.dim)
    one, two = free_window(first, box), free_window(second, box)
    if transform is None:
        assert one == two
        return
    inverse = transform.inverse()
    for p in box.points():
        assert one.get(p) == second.eta(transform.apply_point(p))
        assert two.get(p) == first.eta(inverse.apply_point(p))


def _no_exact_verdicts_disagree(first, second, transform, relation):
    _agree_on_windows(first, second, transform)
    statuses = {decide(first, BUDGET).status, decide(second, BUDGET).status}
    if relation == "transform":  # Inconclusive included
        assert len(statuses) == 1, (first, second)
    assert len(statuses - {INCONCLUSIVE}) <= 1, (first, second)


RELATIONS = ["order", "transform", "peel", "redundant", "explicit"]


@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_same_union_same_windows_and_no_exact_verdicts_disagree(relation, data):
    _no_exact_verdicts_disagree(*data.draw(same_union_pairs(relation)), relation)


@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_same_union_on_hard_families(relation, data):
    _no_exact_verdicts_disagree(*data.draw(same_union_pairs(relation, hard=True)), relation)


def test_a_coordinate_change_keeps_the_status_past_the_missed_coset_scan():
    # the period has diagonal (10077696, 2592, 466560), and its first 200000
    # reps (x, 0, 0) all lie in covers; the radius-1 point (-1, -1, -1) lies
    # in none, and after the map the scan meets such a point at once
    text = (
        "dim 3\nrecttemplate [t^3,3t,2t^2] params=explicit:8,27\nrect [4,3,5]\n"
        "template base=[[1,0,0],[0,1,3],[0,0,4]] scale=(3,3) params=explicit:8,27\n"
    )
    first = parse_family(text)
    second = parse_family(text + "transform [[1,0,1],[0,0,-1],[2,-1,2]]\n")
    for spec in (second, first):
        verdict = decide(spec, BUDGET)
        assert verdict.status == NOT_PROXIMAL
        cert = verdict.certificate
        assert check_covering(spec, cert.covers).certificate == cert
    assert cert.missed_coset == (10077695, 2591, 466559)
    assert intersect_all(cert.covers).reduce((-1, -1, -1)) == cert.missed_coset
