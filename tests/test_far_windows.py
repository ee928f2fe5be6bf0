"""Windows and membership of template entries over primes, far from the
origin, against a brute-force oracle built on sympy.

The oracle never calls the entry's own ``covered``: it solves for the
member coefficients with sympy, takes every prime dividing a numerator as a
candidate parameter (a superset of the parameters that can work), and tests
each candidate member with ``Lattice.contains``.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bfree import families, numtheory
from bfree.families import FamilySpec, Primes, RectEntry, RectTemplate, Rectangular, Template, preset
from bfree.lattices import Lattice
from bfree.windows import Box, covered_flags

from helpers import canonical_lattices

# exclusions include primes above every trial table
EXCLUSIONS = st.lists(st.sampled_from((2, 3, 5, 7, 100003, 1000003)), unique=True, max_size=2)


def oracle(entry):
    """covered(p) for a template entry over primes, independent of the entry's code."""
    inverse = sympy.Matrix(entry.member_columns(1)).T.inv()
    inv = [[Fraction(int(a.p), int(a.q)) for a in row] for row in inverse.tolist()]
    least = entry.params.min_value()
    exclude = set(entry.params.exclude)

    def covered(p):
        candidates = {least}
        for row in inv:
            c = sum(a * x for a, x in zip(row, p))
            if c.denominator == 1 and c:
                candidates |= set(sympy.factorint(abs(c.numerator)))
        return any(t not in exclude and entry.member(t).contains(p) for t in candidates)

    return covered


def oracle_flags(spec, box):
    tests = [oracle(e) if hasattr(e, "params") else e.covered for e in spec.entries]
    return bytearray(int(any(f(p) for f in tests)) for p in box.points())


@st.composite
def prime_templates(draw, m):
    params = Primes(tuple(sorted(draw(EXCLUSIONS))))
    if draw(st.booleans()):
        slots = [RectEntry(draw(st.integers(1, 4)), draw(st.integers(0, 3))) for _ in range(m)]
        if not any(s.exp for s in slots):
            slots[-1] = RectEntry(slots[-1].coeff, draw(st.integers(1, 3)))
        return RectTemplate(tuple(slots), params)
    # scaled row first (as in ex1) or last (as in ex2) or anywhere
    return Template(draw(canonical_lattices(m)), draw(st.integers(0, m - 1)), params)


@st.composite
def far_boxes(draw, m):
    """Boxes centred at |coord| in [10^9, 2*10^15], or straddling 0."""
    half = {1: 30, 2: 4, 3: 1}[m]
    lo, hi = [], []
    for _ in range(m):
        if draw(st.integers(0, 4)):
            c = draw(st.sampled_from((-1, 1))) * 10 ** draw(st.integers(9, 15)) * draw(st.integers(1, 2))
            c += draw(st.integers(-(10**6), 10**6))
        else:
            c = draw(st.integers(-half, half))
        lo.append(c - draw(st.integers(0, half)))
        hi.append(c + draw(st.integers(0, half)))
    return Box(tuple(lo), tuple(hi))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_far_window_matches_oracle(data):
    m = data.draw(st.sampled_from((1, 1, 2, 2, 3)))
    ents = data.draw(st.lists(prime_templates(m), min_size=1, max_size=2))
    if data.draw(st.booleans()):
        ents.append(Rectangular(tuple(data.draw(st.integers(1, 3)) for _ in range(m - 1)) + (2,)))
    spec = FamilySpec(m, tuple(ents))
    box = data.draw(far_boxes(m))
    assert covered_flags(spec, box) == oracle_flags(spec, box)


@settings(max_examples=100, deadline=None)
@given(e=st.integers(1, 3), c=st.integers(1, 4), exclude=EXCLUSIONS, box=far_boxes(1))
@example(e=2, c=1, exclude=[2], box=Box((-30,), (30,)))
@example(e=3, c=2, exclude=[3, 100003], box=Box((-10**15,), (-10**15 + 60,)))
def test_far_1d_power_windows_match_oracle(e, c, exclude, box):
    # the line sieve proper: one line, t^e | x / c
    spec = FamilySpec(1, (RectTemplate((RectEntry(c, e),), Primes(tuple(sorted(exclude)))),))
    assert covered_flags(spec, box) == oracle_flags(spec, box)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_far_covered_matches_oracle(data):
    m = data.draw(st.integers(1, 3))
    entry = data.draw(prime_templates(m))
    box = data.draw(far_boxes(m))
    p = tuple(data.draw(st.integers(a, b)) for a, b in zip(box.lo, box.hi))
    assert entry.covered(p) == oracle(entry)(p)


def _edge_spec(e, c, exclude=()):
    return FamilySpec(1, (RectTemplate((RectEntry(c, e),), Primes(exclude)),))


@settings(max_examples=40, deadline=None)
@given(
    e=st.integers(2, 3),
    c=st.integers(1, 3),
    k=st.integers(6, 16),
    data=st.data(),
    excluded=st.booleans(),
)
def test_cofactor_at_the_trial_bound_edge(e, c, k, data, excluded):
    # v = q^e * s with q the first prime above the line's trial bound
    # B = 2^k: sieving leaves the cofactor q^e, which is decided by size
    q = sympy.nextprime(2**k)
    s = data.draw(st.integers(2 ** (k - 1), 2**k))
    v = q**e * s
    assume(numtheory.trial_bound(v + 20, e + 1) == 2**k)
    spec = _edge_spec(e, c, (q,) if excluded else ())
    box = Box((c * (v - 20),), (c * (v + 20),))
    flags = covered_flags(spec, box)
    assert flags == oracle_flags(spec, box)
    # s < q, so with q excluded only an e-th power inside s covers v
    assert flags[20 * c] == (not excluded or any(k >= e for k in sympy.factorint(s).values()))


@pytest.mark.parametrize(
    "v, covered",
    [
        # cofactors at or above B^3 = 10^15 for e = 2 go to factor
        (sympy.nextprime(4 * 10**7) ** 2, True),
        (sympy.nextprime(4 * 10**7) * sympy.nextprime(5 * 10**7), False),
        (sympy.nextprime(10**15), False),
    ],
)
def test_cofactor_above_the_capped_bound_is_factored(v, covered):
    spec = _edge_spec(2, 1)
    box = Box((v - 3,), (v + 3,))
    flags = covered_flags(spec, box)
    assert flags[3] == covered
    assert flags == oracle_flags(spec, box)


@settings(max_examples=30, deadline=None)
@given(x=st.integers(10**9, 10**15), shift=st.integers(-40, 40))
@example(x=0, shift=0)
def test_ex1_and_ex2_far_windows_match_oracle(x, shift):
    for name in ("ex1", "ex2"):
        spec = preset(name)
        box = Box((x - 4 + shift, -x - 4), (x + 4 + shift, -x + 4))
        expected = bytearray()
        tests = [oracle(e) if isinstance(getattr(e, "params", None), Primes) else e.covered for e in spec.entries]
        for p in box.points():
            expected.append(int(any(f(p) for f in tests)))
        assert covered_flags(spec, box) == expected


def test_ex2_covered_needs_no_factoring(monkeypatch):
    # w = (y - x) / 2 = (2^89 - 1)(2^61 - 1) is too large for rho, yet some
    # prime divides it, so (1, y) lies in a member
    def refuse(n):
        raise AssertionError(f"factor({n}) called")

    monkeypatch.setattr(numtheory, "factor", refuse)
    monkeypatch.setattr(families, "factor", refuse)
    assert preset("ex2").covered((1, 1 + 2 * (2**89 - 1) * (2**61 - 1)))
    spec = FamilySpec(2, (RectTemplate((RectEntry(2, 1), RectEntry(1, 1)), Primes((2, 3))),))
    assert spec.covered((2 * 3**5 * (2**89 - 1), 2**20 * (2**61 - 1) * (2**89 - 1)))
    assert not spec.covered((2 * 3**5, 2**20 * (2**61 - 1)))


def test_member_containing_still_gives_the_least_parameter():
    spec = FamilySpec(1, (Template(Lattice(((2,),)), 0, Primes((3,))),))
    assert spec.member_containing((2 * 3 * 5 * 7,)) == Lattice(((10,),))
    assert spec.member_containing((2 * 9,)) is None
