"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance (zero tolerance unless noted) and
prints a single PASS line on success; a failing criterion shows up as a
normal pytest failure.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from bfree.errors import NotPairwiseCoprimeError
from bfree.families import (
    FamilySpec,
    Geometric,
    Primes,
    RectEntry,
    RectTemplate,
    Rectangular,
    odd_primes,
    preset,
)
from bfree.lattices import Lattice, UnimodularMap, hnf
from bfree.numtheory import crt_integers, primes_up_to
from bfree.proximality import (
    NOT_PROXIMAL,
    PROXIMAL,
    SearchBudget,
    check_covering,
    conditions_report,
    coprime_index_subset,
    decide,
    prove_no_zero_window,
)
from bfree.quadratic import QuadraticRing, crt, principal
from bfree.windows import (
    Box,
    Shape,
    all_zero_windows,
    density_profile,
    free_window,
    zero_window_by_crt,
)


def _report(n, text):
    print(f"\nPASS criterion {n}: {text}")


BOX25 = Box((-25, -25), (25, 25))


def test_criterion_1_ex2_golden_window():
    start = time.perf_counter()
    w = free_window(preset("ex2"), BOX25)
    elapsed = time.perf_counter() - start
    expected = {
        p for p in BOX25.points() if p[0] % 2 == 1 and p[1] % 2 == 1 and abs(p[0] - p[1]) == 2
    }
    assert w.ones() == 50
    for p in BOX25.points():
        assert w.get(p) == (1 if p in expected else 0)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"ex2 window exact on [-25,25]^2 with 50 ones in {elapsed:.3f}s")


def test_criterion_2_ex1_golden_window():
    start = time.perf_counter()
    w = free_window(preset("ex1"), BOX25)
    elapsed = time.perf_counter() - start
    expected = {p for p in BOX25.points() if p[0] in (-2, 0, 2) and p[1] % 2 == 1}
    assert w.ones() == 78
    for p in BOX25.points():
        assert w.get(p) == (1 if p in expected else 0)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(2, f"ex1 window exact on [-25,25]^2 with 78 ones in {elapsed:.3f}s")


def test_criterion_3_conditions_consistency():
    budget = SearchBudget(max_side=6, search_radius=16)
    candidate = FamilySpec(
        2, (RectTemplate((RectEntry(1, 1), RectEntry(1, 1)), odd_primes()),)
    )

    ex2 = conditions_report(preset("ex2"), budget, dprime_candidate=candidate)
    assert ex2.rows["b"].holds is True
    assert ex2.verdict.zero_window_sides == (1, 2, 3, 4, 5, 6)
    assert ex2.rows["d"].holds is False and ex2.rows["d"].mode == "exact"
    assert ex2.rows["d_prime"].holds is True  # the same candidate survives here

    ex1 = conditions_report(preset("ex1"), budget, dprime_candidate=candidate)
    assert ex1.rows["b"].holds is True
    assert ex1.verdict.zero_window_sides == (1, 2, 3, 4, 5, 6)
    assert ex1.rows["d"].holds is False and ex1.rows["d"].mode == "exact"
    assert ex1.rows["d_prime"].holds is False and ex1.rows["d_prime"].mode == "exact"
    _report(
        3,
        "ex2/ex1 reports: (b) true with windows up to side 6, (d) false by schema, "
        "d' candidate fails on ex1 only",
    )


def test_criterion_4_crt_construction():
    start = time.perf_counter()
    qs = (2, 3, 5, 7, 11)
    checked = 0
    cross_checked = 0
    for size in range(1, len(qs) + 1):
        for subset in itertools.combinations(qs, size):
            lats = [Lattice.from_diagonal((q, q)) for q in subset]
            for k in range(size):  # shapes of k+1 cells, k+1 <= subset size
                shape = Shape.segment(k, 2)
                a = zero_window_by_crt(lats, shape)
                for lat, f in zip(lats, shape.offsets):
                    assert lat.contains((a[0] + f[0], a[1] + f[1]))
                    checked += 1
                period = 1
                for q in subset[: k + 1]:
                    period *= q
                if period <= 35:
                    spec = FamilySpec(2, tuple(Rectangular((q, q)) for q in subset))
                    hits = all_zero_windows(
                        spec, shape, Box((0, 0), (period - 1, period - 1))
                    )
                    assert a in hits
                    cross_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    _report(
        4,
        f"CRT windows verified ({checked} cell memberships, {cross_checked} "
        f"full-period cross-checks) in {elapsed:.2f}s",
    )


def _random_lattice(rng, m, cap=200):
    while True:
        rows = []
        for i in range(m):
            d = rng.randint(1, 6)
            rows.append(tuple(rng.randrange(d) if j < i else (d if j == i else 0) for j in range(m)))
        lat = Lattice(tuple(rows))
        if lat.index <= cap:
            return lat


def _rational_member(columns, p):
    from fractions import Fraction

    m = len(p)
    a = [[Fraction(columns[j][i]) for j in range(m)] + [Fraction(p[i])] for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(m):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return all(a[r][m].denominator == 1 for r in range(m))


def test_criterion_5_index_product_law_and_membership():
    rng = random.Random(2024)
    for trial in range(1000):
        m = 2 if trial % 2 == 0 else 3
        a, b = _random_lattice(rng, m), _random_lattice(rng, m)
        assert a.intersect(b).index * a.sum(b).index == a.index * b.index
    for _ in range(200):
        m = rng.choice((2, 3))
        lat = _random_lattice(rng, m, cap=64)
        p = tuple(rng.randint(-15, 15) for _ in range(m))
        assert lat.contains(p) == _rational_member(lat.columns, p)
        reps = list(lat.iter_coset_reps())
        assert len(reps) == lat.index
        assert (lat.reduce(p) in reps) and lat.contains(
            tuple(x - y for x, y in zip(p, lat.reduce(p)))
        )
    _report(5, "index product law on 1000 pairs; membership oracle equivalence on 200")


def test_criterion_6_coprime_index_soundness():
    from math import gcd

    rng = random.Random(77)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    violations = 0
    for trial in range(500):
        pool = primes[:]
        rng.shuffle(pool)
        size = rng.randint(1, 8)
        fam = []
        for p in pool[:size]:
            if rng.random() < 0.5:
                fam.append(Lattice.from_diagonal((p, p)))
            else:
                fam.append(hnf([(p, rng.randrange(p)), (0, p)]))
        out = coprime_index_subset(fam)
        assert out, "output must be non-empty"
        for x, y in itertools.combinations(out, 2):
            assert gcd(x.index, y.index) == 1
        if size >= 2 and trial % 2 == 0:
            bad = fam + [fam[0]]  # duplicate member is never coprime to itself
            with pytest.raises(NotPairwiseCoprimeError):
                coprime_index_subset(bad)
            violations += 1
    _report(6, f"coprime-index soundness on 500 families; {violations} violations all raised")


def test_criterion_7_negative_certificate_exactness():
    spec = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(3, 0)), Geometric(2)),))
    verdict = decide(spec)
    assert verdict.status == NOT_PROXIMAL
    payload = json.loads(verdict.to_json())
    covers_json = payload["certificate"]["covers"]
    assert covers_json == [[[2, 0], [0, 3]]]
    covers = [Lattice.from_columns(c) for c in covers_json]
    shape = Shape.from_offsets([(0, 0), (1, 0)])
    assert prove_no_zero_window(spec, shape, covers)
    assert all_zero_windows(spec, shape, Box((0, 0), (1, 2))) == []
    report = check_covering(spec, covers)
    assert report.covered
    _report(7, "NotProximal cover {2Z x 3Z} re-verified; zero-window nonexistence exact")


def test_criterion_8_quadratic_ring_properties():
    rng = random.Random(555)
    rings = (QuadraticRing(-1), QuadraticRing(-5))
    pairs = 0

    def draw():
        while True:
            x = (rng.randint(-9, 9), rng.randint(-9, 9))
            if x != (0, 0):
                return x

    for ring in rings:
        for _ in range(250):
            a, b = principal(ring, draw()), principal(ring, draw())
            ab = a.product(b)
            assert ab.norm == a.norm * b.norm
            meet = a.intersect(b)
            for gen in ab.module.columns:
                assert meet.contains(gen)
            pairs += 1
    assert pairs == 500
    gauss = QuadraticRing(-1)
    ideals = [principal(gauss, g) for g in ((1, 1), (2, 1), (2, -1), (3, 0))]
    for _ in range(100):
        residues = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in ideals]
        x = crt(ideals, residues)
        for ideal, r in zip(ideals, residues):
            assert ideal.contains((x[0] - r[0], x[1] - r[1]))
    _report(8, f"norms multiplicative and products inside intersections on {pairs} pairs; CRT sound")


def test_criterion_9_automorphism_transport():
    base = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(1, 1)), Primes()),))
    base_verdict = decide(base)
    assert base_verdict.status == PROXIMAL
    box = Box((-10, -10), (10, 10))
    for k in (1, 2, 3):
        shear = UnimodularMap(((1, 0), (k, 1)))
        moved = FamilySpec(2, base.entries, transform=shear)
        assert decide(moved).status == base_verdict.status
        for p in box.points():
            assert moved.eta(shear.apply_point(p)) == base.eta(p)
    # the same transport equivalence on a non-proximal rectangular family
    geom = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(3, 0)), Geometric(2)),))
    for k in (1, 2, 3):
        shear = UnimodularMap(((1, 0), (k, 1)))
        moved = FamilySpec(2, geom.entries, transform=shear)
        assert decide(moved).status == decide(geom).status == NOT_PROXIMAL
    _report(9, "verdicts invariant under shears k=1,2,3; window equivariance exact on [-10,10]^2")


def test_criterion_10_density_lower_bounds():
    sides = (5, 10, 20, 40)

    # ex2: one shift column reaching far off the diagonal clears all free points
    profile = density_profile(preset("ex2"), sides, Box((0, 0), (0, 90)))
    ratios = [r.ratio for r in profile.rows]
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > Fraction(9, 10)

    # squarefree case: drive each window to a CRT-constructed shift; these are
    # lower bounds for the upper Banach density, not the density itself
    sq = preset("squarefree-1d")
    sq_ratios = []
    for n in sides:
        cells = list(range(-n, n + 1))
        moduli = [p * p for p in primes_up_to(10**4)[: len(cells)]]
        shift = crt_integers([(-c) % q for c, q in zip(cells, moduli)], moduli)
        profile = density_profile(sq, [n], Box((shift,), (shift,)))
        sq_ratios.append(profile.rows[0].ratio)
    assert all(a <= b for a, b in zip(sq_ratios, sq_ratios[1:]))
    assert sq_ratios[-1] > Fraction(9, 10)
    assert sq_ratios[-1] == 1  # the constructed window is fully covered
    _report(10, "density lower bounds nondecreasing over sides 5,10,20,40 and > 0.9 at 40")
