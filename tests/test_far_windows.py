"""Windows and membership of template entries, far from the origin, against
a brute-force oracle built on sympy.

The oracle never calls the entry's own ``covered`` or ``member_containing``:
it solves for the member coefficients with sympy, takes as candidate
parameters a superset of those that can work (over primes every prime
dividing a numerator, over powers of a base every power up to the largest
numerator, over a list every value), and tests each candidate member with
``Lattice.contains``; the least one that holds the point is the member
``member_containing`` must give.
"""

from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bfree import families, numtheory
from bfree.cli import main
from bfree.errors import FactorizationError
from bfree.families import (
    Explicit,
    FamilySpec,
    Geometric,
    Primes,
    RectEntry,
    RectTemplate,
    Rectangular,
    Template,
    parse_family,
    preset,
)
from bfree.lattices import Lattice
from bfree.windows import Box, covered_flags

from helpers import FOUR_BIT, canonical_lattices, random_unimodular, scaled_row

# exclusions include primes above every trial table
EXCLUSIONS = st.lists(st.sampled_from((2, 3, 5, 7, 100003, 1000003)), unique=True, max_size=2)


def least_member(entry):
    """member_containing(p) for a template entry, independent of the entry's
    code: the member of the least parameter that holds p, or None."""
    inverse = sympy.Matrix(entry.member(1).columns).T.inv()
    inv = [[Fraction(int(a.p), int(a.q)) for a in row] for row in inverse.tolist()]
    params = entry.params

    def candidates(numerators):
        # a member t holds p only if t divides every nonzero scaled
        # coefficient, or with those all 0, and then so does the least member
        if isinstance(params, Primes):
            return {params.min_value()}.union(*map(sympy.factorint, numerators))
        if isinstance(params, Geometric):
            return {params.min_value(), *params.iter_values_up_to(max(numerators, default=0))}
        return set(params.values)

    def least(p):
        numerators = set()
        for row in inv:
            c = sum(a * x for a, x in zip(row, p))
            if c.denominator == 1 and c:
                numerators.add(abs(c.numerator))
        held = [t for t in candidates(numerators) if t in params and entry.member(t).contains(p)]
        return entry.member(min(held)) if held else None

    return least


def oracle(entry):
    """covered(p) for a template entry, independent of the entry's code."""
    least = least_member(entry)
    return lambda p: least(p) is not None


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
    return Template(draw(canonical_lattices(m)), scaled_row(m, draw(st.integers(0, m - 1))), params)


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


@st.composite
def far_points(draw, m):
    box = draw(far_boxes(m))
    return tuple(draw(st.integers(a, b)) for a, b in zip(box.lo, box.hi))


# 3-d bases whose scaled column has no entry below the diagonal while another
# column has one: the elimination defers that row's constraint, not only in
# the last row; each point lies in members of several parameters
DEFERRED_ROW_0 = (
    Template(Lattice(((2, 0, 0), (0, 3, 0), (0, 1, 2))), (1, 0, 0), Primes()),
    (2 * 7 * 1000003, 3 * 10**12, 10**12 + 2),
)
DEFERRED_ROW_1 = (
    Template(Lattice(((2, 0, 0), (1, 3, 0), (0, 0, 2))), (0, 1, 0), Geometric(2, 3)),
    (2 * 10**12, 10**12 + 3 * 2**41, 10),
)


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 3).flatmap(lambda m: st.tuples(prime_templates(m), far_points(m))))
@example(case=DEFERRED_ROW_0)
@example(case=DEFERRED_ROW_1)
def test_far_covered_matches_oracle(case):
    entry, p = case
    assert entry.covered(p) == oracle(entry)(p)


def _edge_spec(e, c, exclude=()):
    return FamilySpec(1, (RectTemplate((RectEntry(c, e),), Primes(exclude)),))


@settings(max_examples=40, deadline=None)
@given(
    e=st.integers(2, 3),
    c=st.integers(1, 3),
    i=st.integers(FOUR_BIT.index(64), FOUR_BIT.index(max(b for b in FOUR_BIT if b <= numtheory._TRIAL_LIMIT))),
    data=st.data(),
    excluded=st.booleans(),
)
def test_cofactor_at_the_trial_bound_edge(e, c, i, data, excluded):
    # v = q^e * s with q the first prime above the line's trial bound B, a
    # four-bit value, and s drawn so that B is the least four-bit value with
    # B^(e+1) > v + 20: sieving leaves the cofactor q^e, decided by size
    below, bound = FOUR_BIT[i - 1], FOUR_BIT[i]
    q = sympy.nextprime(bound)
    lo = max(2, -(-(below ** (e + 1) - 20) // q**e))
    hi = min(q - 1, (bound ** (e + 1) - 21) // q**e)
    s = data.draw(st.integers(lo, hi))
    v = q**e * s
    assert below ** (e + 1) <= v + 20 < bound ** (e + 1)
    assert numtheory.trial_bound(v + 20, e + 1) == bound
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
        # 100003^2 * 100019 is just above B^3: only factoring finds 100003^2
        (100003**2 * 100019, True),
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
        assert covered_flags(spec, box) == oracle_flags(spec, box)


def test_ex2_covered_needs_no_factoring(monkeypatch):
    # w = (y - x) / 2 = (2^89 - 1)(2^61 - 1) is too large for rho, yet some
    # prime divides it, so (1, y) lies in a member
    refuse_factoring(monkeypatch)
    assert preset("ex2").covered((1, 1 + 2 * (2**89 - 1) * (2**61 - 1)))
    spec = FamilySpec(2, (RectTemplate((RectEntry(2, 1), RectEntry(1, 1)), Primes((2, 3))),))
    assert spec.covered((2 * 3**5 * (2**89 - 1), 2**20 * (2**61 - 1) * (2**89 - 1)))
    assert not spec.covered((2 * 3**5, 2**20 * (2**61 - 1)))


def refuse_factoring(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factor({n}) called")

    for module in (numtheory, families):
        monkeypatch.setattr(module, "factor", refuse)
        monkeypatch.setattr(module, "iter_factors", refuse)


# a squarefree semiprime that rho cannot split within its budget
SEMIPRIME = 185124726281477 * 491069414308633


def test_ex1_semiprime_line_needs_no_factoring(monkeypatch, capsys, tmp_path):
    # on the line x = 2N the odd-primes template of ex1 forks on w = N: an
    # odd prime divides N, so its one class, N mod 2 = 1, covers the odd y
    refuse_factoring(monkeypatch)
    assert 181818181818181818181818181882 == 2 * SEMIPRIME
    assert preset("ex1").covered((2 * SEMIPRIME, 1))
    box = "181818181818181818181818181880:181818181818181818181818181884,1:3"
    assert main(["eta", "--preset", "ex1", "--box", box, "--out", str(tmp_path / "w.csv")]) == 0
    assert capsys.readouterr().out == "ones=0 cells=15\n"


def test_ex1_semiprime_member_still_factors():
    # the least parameter needs the prime factors of N, which factor cannot
    # find: member_containing raises rather than answer without them
    with pytest.raises(FactorizationError):
        preset("ex1").member_containing((2 * SEMIPRIME, 1))


def test_least_trial_prime_is_found_without_splitting_the_cofactor(monkeypatch):
    # 1013 and 1009 are trial primes (below 2**10), and candidates are read
    # from the trial primes up: the first is the answer, and the cofactor N,
    # which rho cannot split within 10**4 steps, is never tested or split
    def refuse(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(numtheory, "_RHO_ITERATION_CAP", 10**4)
    monkeypatch.setattr(numtheory, "_pollard_rho", refuse)
    assert preset("squarefree-1d").member_containing((1013**2 * SEMIPRIME,)) == Lattice(((1013**2,),))
    assert preset("squarefree-1d").member_containing((-(1009**2) * 1013**2 * SEMIPRIME,)) == Lattice(((1009**2,),))


def test_member_containing_still_gives_the_least_parameter():
    spec = FamilySpec(1, (Template(Lattice(((2,),)), (1,), Primes((3,))),))
    assert spec.member_containing((2 * 3 * 5 * 7,)) == Lattice(((10,),))
    assert spec.member_containing((2 * 9,)) is None


# geometric and explicit sequences take the line route too

SEQUENCES = st.one_of(
    st.builds(Geometric, st.integers(2, 5), st.integers(0, 2)),
    st.builds(Explicit, st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True).map(sorted).map(tuple)),
)


@st.composite
def sequence_templates(draw, m):
    params = draw(SEQUENCES)
    try:
        if draw(st.booleans()):
            slots = [RectEntry(draw(st.integers(1, 4)), draw(st.integers(0, 3))) for _ in range(m)]
            if not any(s.exp for s in slots):
                slots[-1] = RectEntry(slots[-1].coeff, draw(st.integers(1, 3)))
            return RectTemplate(tuple(slots), params)
        # scaled row first (as in ex1), last (as in ex2) or anywhere
        row = draw(st.sampled_from((0, m - 1, draw(st.integers(0, m - 1)))))
        return Template(draw(canonical_lattices(m)), scaled_row(m, row), params)
    except ValueError:  # parameter 1 would give an improper member
        assume(False)


@st.composite
def template_points(draw):
    """(entry, p): a template and a far point, or a point of some member,
    which other members may hold as well."""
    m = draw(st.integers(1, 3))
    entry = draw(st.one_of(prime_templates(m), sequence_templates(m)))
    if draw(st.booleans()):
        return entry, draw(far_points(m))
    t = draw(st.sampled_from(list(entry.params.iter_values_up_to(60))))
    coefficients = st.one_of(st.integers(-6, 6), st.integers(-(10**12), 10**12))
    columns = entry.member(t).columns
    ks = [draw(coefficients) for _ in columns]
    return entry, tuple(sum(k * col[i] for k, col in zip(ks, columns)) for i in range(m))


@settings(max_examples=200, deadline=None)
@given(case=template_points())
@example(case=DEFERRED_ROW_0)
@example(case=DEFERRED_ROW_1)
def test_member_containing_is_the_member_of_the_least_parameter(case):
    entry, p = case
    found = entry.member_containing(p)
    assert found == least_member(entry)(p)
    assert (found is not None) == entry.covered(p)


def per_cell_flags(spec, box):
    return bytearray(int(spec.covered(p)) for p in box.points())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_far_window_over_any_sequence_matches_oracle(data):
    m = data.draw(st.sampled_from((1, 1, 2, 2, 3)))
    ents = data.draw(st.lists(sequence_templates(m), min_size=1, max_size=2))
    if data.draw(st.booleans()):
        ents.append(data.draw(prime_templates(m)))
    spec = FamilySpec(m, tuple(ents))
    box = data.draw(far_boxes(m))
    flags = covered_flags(spec, box)
    assert flags == oracle_flags(spec, box)
    assert flags == per_cell_flags(spec, box)


@settings(max_examples=200, deadline=None)
@given(
    params=st.one_of(SEQUENCES, EXCLUSIONS.map(sorted).map(tuple).map(Primes)),
    e=st.integers(1, 3),
    # near 0 the e-th root of the largest |v| falls within the run, far out not
    v0=st.one_of(st.integers(-(10**4), 10**4), st.integers(-(10**15), 10**15)),
    # the run is v0, v0 + k, ..., v0 + (n - 1) k, with steps of either sign
    k=st.one_of(st.sampled_from((1, 1, -1, 2, -2, 3, 6, 20)), st.integers(-(10**4), 10**4).filter(bool)),
    n=st.integers(0, 80),
)
@example(params=Geometric(2, 0), e=3, v0=-5, k=1, n=11)
@example(params=Explicit((1, 6)), e=2, v0=10**15, k=1, n=40)
@example(params=Explicit((40,)), e=1, v0=-5, k=1, n=11)
@example(params=Primes((2,)), e=2, v0=-5, k=1, n=11)  # v = 0, and no prime p <= 2 left
@example(params=Primes(), e=3, v0=-3, k=1, n=7)  # every |v| <= 3: no prime p with p^e <= |v|
@example(params=Primes(), e=1, v0=-1, k=1, n=1)  # -1 has no prime divisor
@example(params=Primes((2,)), e=1, v0=-4, k=1, n=4)  # -2 has only an excluded one
@example(params=Primes(), e=2, v0=10**15, k=7, n=0)  # an empty run far out
@example(params=Primes(), e=2, v0=-5, k=-3, n=0)
@example(params=Primes((2,)), e=3, v0=0, k=5, n=1)  # the run {0}
@example(params=Primes(), e=2, v0=10**15 + 1, k=-1, n=1)
@example(params=Primes(), e=1, v0=3, k=-1, n=7)  # 3 down to -3
@example(params=Primes(), e=1, v0=-3, k=2, n=4)  # -3, -1, 1, 3
@example(params=Primes((3,)), e=2, v0=-8, k=4, n=5)  # -8 .. 8 through 0
@example(params=Primes(), e=2, v0=10**12, k=6, n=40)  # 2 | k divides every value, 3 | k none
@example(params=Primes((2,)), e=2, v0=-(10**12), k=-12, n=40)
@example(params=Primes(), e=3, v0=10**15 - 7, k=-20, n=80)
@example(params=Explicit((4, 6)), e=2, v0=8, k=12, n=30)  # gcd(k, t^e) > 1
@example(params=Explicit((1, 6)), e=2, v0=10**15, k=-4, n=40)
@example(params=Geometric(2, 0), e=3, v0=-5, k=3, n=11)
@example(params=Geometric(3, 2), e=1, v0=-(10**15), k=-9, n=60)
def test_power_hits_of_geometric_and_explicit_sequences(params, e, v0, k, n):
    run = range(v0, v0 + n * k, k)
    assert len(run) == n
    hits = params.power_hits(run, e)
    if isinstance(params, Primes):  # 0 lies in every member
        # factorint lists -1 as a factor of a negative v; only primes count
        expected = (
            v == 0 or any(c >= e and p not in params.exclude for p, c in sympy.factorint(abs(v)).items())
            for v in run
        )
    else:
        top = max(map(abs, run), default=1)
        members = {params.min_value(), *params.iter_values_up_to(top)}  # the least one divides 0
        expected = (any(v % t**e == 0 for t in members) for v in run)
    assert hits == bytearray(map(int, expected))


@st.composite
def far_runs(draw):
    """(e, run): runs v0, v0 + k, ..., of at most 40 values, with steps +-1
    and 2 <= |k| <= 30, far out: |v0| in [10^9, 10^15], or the largest |v|
    next to B^(e+1) for a four-bit B, where the sieve's trial bound steps."""
    e = draw(st.integers(2, 3))
    k = draw(st.sampled_from((1, 1, 2)))
    if k == 2:
        k = draw(st.integers(2, 30))
    k *= draw(st.sampled_from((-1, 1)))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        v0 = draw(st.integers(10**9, 10**15))
    else:
        steps = [b ** (e + 1) for b in FOUR_BIT if 10**9 + 40 * 30 <= b ** (e + 1) <= 10**15]
        top = draw(st.sampled_from(steps)) + draw(st.integers(-2, 1))
        v0 = top if k < 0 else top - (n - 1) * k
    if draw(st.booleans()):  # the same run of negative values
        v0, k = -v0, -k
    return e, range(v0, v0 + n * k, k)


@settings(max_examples=150, deadline=None)
@given(case=far_runs(), exclude=EXCLUSIONS.map(sorted).map(tuple))
# 10007^2 * 10010 second in a descending run: its index, from the inverse
# of the step -1, differs from that of the step 1
@example(case=(2, range(10007**2 * 10010 + 1, 10007**2 * 10010 - 1, -1)), exclude=())
def test_far_prime_power_hits_match_factorint(case, exclude):
    e, run = case
    expected = (any(c >= e and p not in exclude for p, c in sympy.factorint(abs(v)).items()) for v in run)
    assert Primes(exclude).power_hits(run, e) == bytearray(map(int, expected))


@settings(max_examples=100, deadline=None)
@given(v0=st.one_of(st.integers(-50, 50), st.integers(-(10**15), 10**15)), n=st.integers(0, 80))
@example(v0=-1, n=3)  # exactly -1, 0 and 1
@example(v0=-40, n=81)
@example(v0=1, n=1)
@example(v0=-1, n=1)
def test_prime_power_hits_of_exponent_one_are_divides(v0, n):
    # every v but -1 and 1 has a prime divisor, or is 0
    primes = Primes()
    assert primes.power_hits(range(v0, v0 + n), 1) == bytearray(map(primes.divides, range(v0, v0 + n)))


@pytest.mark.parametrize("params", ["geometric:2", "explicit:2,3,5"])
def test_nonzero_prefix_over_a_sequence_that_never_factors_asks_once_per_line(monkeypatch, params):
    # x = 2t leaves finitely many candidates t on each line, each marking the
    # multiples of t in y: no cell is asked on its own
    spec = parse_family(f"dim 2\nrecttemplate [2t,t] params={params}\n")
    c = 3 * 10**14
    box = Box((c - 20, c - 20), (c + 20, c + 20))
    expected = per_cell_flags(spec, box)
    assert 0 < sum(expected) < box.volume
    calls = []
    holds = Template._holds

    def counting(self, constraints):
        calls.append(constraints)
        return holds(self, constraints)

    monkeypatch.setattr(Template, "_holds", counting)
    assert covered_flags(spec, box) == expected
    assert len(calls) <= box.sides[0]


@pytest.mark.parametrize("params", ["primes", "geometric:2", "explicit:2,3,5"])
def test_prefix_independent_run_is_sieved_once_per_box(monkeypatch, params):
    # every line with x = 0 (mod 3) asks whether t^2 | y for the same run of
    # y, so that run is sieved once, not once per line
    spec = parse_family(f"dim 2\nrecttemplate [3,t^2] params={params}\n")
    entry = spec.entries[0]
    c = 3 * 10**14
    box = Box((c - 20, c - 20), (c + 20, c + 20))
    expected = per_cell_flags(spec, box)
    calls = []
    seq = type(entry.params)
    power_hits = seq.power_hits

    def counting(self, run, e):
        calls.append((run, e))
        return power_hits(self, run, e)

    monkeypatch.setattr(seq, "power_hits", counting)
    assert covered_flags(spec, box) == expected
    assert calls == [(range(c - 20, c + 21), 2)]


def test_ex1_far_box_is_evaluated_by_lines(monkeypatch):
    # near 10^12 both templates of ex1 go by lines, the geometric one
    # included, and no cell is evaluated on its own
    spec = preset("ex1")
    box = Box((10**12 - 20, -(10**12) - 20), (10**12 + 20, -(10**12) + 20))
    expected = oracle_flags(spec, box)
    assert expected == per_cell_flags(spec, box)

    def refuse(self, p):
        raise AssertionError("evaluated per cell")

    def no_candidates(self, constraints):
        raise AssertionError(f"candidates({constraints}) called")

    monkeypatch.setattr(Template, "covered", refuse)
    monkeypatch.setattr(Primes, "candidates", no_candidates)
    refuse_factoring(monkeypatch)
    # the odd-primes template forks on w = x / 2 by the class of w / p mod 2,
    # which is w mod 2 for every odd p: no line lists its primes
    assert covered_flags(spec, box) == expected


# the class fork: a non-diagonal template scaling a prefix row

FORK_PARAMS = st.one_of(st.sampled_from((Primes(), Primes((2,)), Primes((3,)), Primes((2, 3)))), SEQUENCES)


@st.composite
def forking_templates(draw):
    """Templates of dimension 2 or 3 scaling a prefix row i by t, with M,
    the product of the diagonal entries after row i, in 1..6.  Where M > 1
    the column of row i gets an entry below the diagonal, so the
    elimination forks there and the later rows read w / t modulo M."""
    m = draw(st.integers(2, 3))
    i = draw(st.integers(0, m - 2))
    M = draw(st.integers(1, 6))
    diag = [draw(st.integers(1, 4)) for _ in range(i + 1)]
    if m - i == 3:  # two later rows share M
        first = draw(st.sampled_from([d for d in range(1, M + 1) if M % d == 0]))
        diag += [first, M // first]
    else:
        diag.append(M)
    rows = [[draw(st.integers(0, diag[r] - 1)) if c < r else diag[r] * (c == r) for c in range(m)] for r in range(m)]
    below = [r for r in range(i + 1, m) if diag[r] > 1]
    if below:
        r = draw(st.sampled_from(below))
        rows[r][i] = draw(st.integers(1, diag[r] - 1))
    try:
        return Template(Lattice(tuple(map(tuple, rows))), scaled_row(m, i), draw(FORK_PARAMS))
    except ValueError:  # parameter 1 would give an improper member
        assume(False)


def check_against_oracle(entry, transform, centre):
    """covered_flags, covered and member_containing on the box of side 5
    (side 3 in dimension 3) around centre, given in entry coordinates,
    against the oracle."""
    m = entry.dim
    spec = FamilySpec(m, (entry,), transform)
    if transform is not None:
        centre = transform.apply_point(centre)
    half = 2 if m == 2 else 1
    box = Box(tuple(c - half for c in centre), tuple(c + half for c in centre))
    least = least_member(entry)
    expected = [least(spec.pullback(p)) for p in box.points()]
    assert covered_flags(spec, box) == bytearray(int(h is not None) for h in expected)
    for p, held in zip(box.points(), expected):
        assert entry.covered(spec.pullback(p)) == (held is not None)
        assert spec.member_containing(p) == (None if held is None else spec.image(held))


@settings(max_examples=150, deadline=None)
@given(entry=forking_templates(), data=st.data())
def test_class_fork_matches_oracle(entry, data):
    m = entry.dim
    transform = random_unimodular(Random(data.draw(st.integers(0, 2**32))), m) if data.draw(st.booleans()) else None
    # a point of some member, or any point, up to 10^12 from the origin
    big = st.integers(-(10**12), 10**12)
    if data.draw(st.booleans()):
        columns = entry.member(data.draw(st.sampled_from(list(entry.params.iter_values_up_to(60))))).columns
        ks = [data.draw(st.one_of(st.integers(-6, 6), big)) for _ in columns]
        centre = tuple(sum(k * col[j] for k, col in zip(ks, columns)) for j in range(m))
    else:
        centre = tuple(data.draw(big) for _ in range(m))
    check_against_oracle(entry, transform, centre)


SHEAR = Lattice(((2, 0), (1, 2)))


@pytest.mark.parametrize(
    "entry, transform, centre",
    [
        # ex1's odd-primes template: w = x / 2, one class w mod 2 per line
        (preset("ex1").entries[2], None, (2 * 10**12 + 2, -3)),
        # w = 2q, q prime: t = 2 gives class 1, t = q class 0
        (Template(SHEAR, (1, 0), Primes()), None, (4 * 1000003, 5)),
        (Template(SHEAR, (1, 0), Primes()), random_unimodular(Random(7), 2), (4 * 1000003, 5)),
        # w = 2: only t = 2 divides it, class 1, though w = 0 (mod 2)
        (Template(SHEAR, (1, 0), Primes()), None, (4, 0)),
        # w = 2^40 with 2 excluded: no member divides it, no class
        (Template(SHEAR, (1, 0), Primes((2,))), None, (2**41, 1)),
        # M = 6 > 2, so the classes come from the candidates of w
        (Template(Lattice(((2, 0), (5, 6))), (1, 0), Primes((3,))), None, (2 * 3 * 5 * 7 * 10**9, 11)),
    ],
)
def test_class_fork_at_chosen_quotients(entry, transform, centre):
    check_against_oracle(entry, transform, centre)


@settings(max_examples=200, deadline=None)
@given(
    params=st.one_of(FORK_PARAMS, EXCLUSIONS.map(sorted).map(tuple).map(Primes)),
    w=st.one_of(st.integers(-200, 200), st.integers(-(10**12), 10**12)).filter(bool),
    n=st.integers(1, 6),
)
def test_quotients_mod_are_the_classes_of_w_over_its_members(params, w, n):
    if isinstance(params, Primes):
        members = [p for p in sympy.factorint(abs(w)) if p not in params.exclude]
    else:
        members = [t for t in {params.min_value(), *params.iter_values_up_to(abs(w))} if w % t == 0]
    assert params.quotients_mod(w, n) == {w // t % n for t in members}
