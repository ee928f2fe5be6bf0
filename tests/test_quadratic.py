import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfree.errors import NotCoprimeError, ZeroElementError
from bfree.quadratic import (
    ProductIdeal,
    QuadIdeal,
    QuadraticRing,
    crt,
    crt_product,
    ideal_from_columns,
    principal,
    unit_ideal,
)

GAUSSIAN = QuadraticRing(-1)
ROOT_MINUS5 = QuadraticRing(-5)
ROOT2 = QuadraticRing(2)
EISENSTEIN_FIELD = QuadraticRing(-3)  # d = 1 mod 4, half-integral generator


def field_norm(ring, x):
    """Independent norm oracle via explicit conjugation over Q(sqrt(d))."""
    a, b = x
    if ring.d % 4 == 1:
        # x = a + b(1+sqrt d)/2, conjugate flips sqrt d
        # N = (a + b/2)^2 - d (b/2)^2, computed over integers times 4
        return ((2 * a + b) ** 2 - ring.d * b * b) // 4
    return a * a - ring.d * b * b


def test_ring_validation():
    with pytest.raises(ValueError):
        QuadraticRing(0)
    with pytest.raises(ValueError):
        QuadraticRing(1)
    with pytest.raises(ValueError):
        QuadraticRing(12)  # 4 | 12


def test_multiplication_tables():
    # (1+i)(1-i) = 2
    assert GAUSSIAN.mul((1, 1), (1, -1)) == (2, 0)
    # i^2 = -1
    assert GAUSSIAN.mul((0, 1), (0, 1)) == (-1, 0)
    # w^2 = w - 1 for w = (1+sqrt(-3))/2
    assert EISENSTEIN_FIELD.mul((0, 1), (0, 1)) == (-1, 1)
    # sqrt(2)^2 = 2
    assert ROOT2.mul((0, 1), (0, 1)) == (2, 0)


def test_norms_match_field_norm():
    rng = random.Random(5)
    for ring in (GAUSSIAN, ROOT_MINUS5, ROOT2, EISENSTEIN_FIELD):
        for _ in range(100):
            x = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert ring.norm(x) == field_norm(ring, x)


def test_principal_ideal_examples():
    assert principal(GAUSSIAN, (1, 1)).norm == 2
    assert principal(GAUSSIAN, (1, 0)).norm == 1
    assert principal(GAUSSIAN, (2, 1)).norm == 5
    with pytest.raises(ZeroElementError):
        principal(GAUSSIAN, (0, 0))


def test_principal_norm_is_abs_field_norm():
    rng = random.Random(11)
    for ring in (GAUSSIAN, ROOT_MINUS5, ROOT2, EISENSTEIN_FIELD):
        for _ in range(60):
            x = (rng.randint(-7, 7), rng.randint(-7, 7))
            if x == (0, 0):
                continue
            assert principal(ring, x).norm == abs(field_norm(ring, x))


def test_ideal_closure_validation():
    # Z-module generated by 1 alone is not an ideal of Z[i]
    with pytest.raises(ValueError):
        QuadIdeal(GAUSSIAN, __import__("bfree.lattices", fromlist=["hnf"]).hnf([(1, 0), (0, 2)]))


def test_product_and_sum_examples():
    one_plus_i = principal(GAUSSIAN, (1, 1))
    sq = one_plus_i.product(one_plus_i)
    assert sq == principal(GAUSSIAN, (2, 0))
    assert sq.norm == 4
    a = principal(GAUSSIAN, (2, 1))
    b = principal(GAUSSIAN, (2, -1))
    assert a.sum(b).is_unit_ideal()
    assert a.coprime(b)
    assert a.product(unit_ideal(GAUSSIAN)) == a


def test_coprime_examples():
    one_plus_i = principal(GAUSSIAN, (1, 1))
    two = principal(GAUSSIAN, (2, 0))
    assert not one_plus_i.coprime(two)
    assert one_plus_i.sum(two) == one_plus_i  # (2) = (1+i)^2 sits inside (1+i)
    assert principal(GAUSSIAN, (2, 1)).coprime(unit_ideal(GAUSSIAN))


def test_norm_multiplicative_and_product_in_intersection():
    rng = random.Random(23)
    for ring in (GAUSSIAN, ROOT_MINUS5):
        for _ in range(120):
            x = (rng.randint(-6, 6), rng.randint(-6, 6))
            y = (rng.randint(-6, 6), rng.randint(-6, 6))
            if x == (0, 0) or y == (0, 0):
                continue
            a, b = principal(ring, x), principal(ring, y)
            ab = a.product(b)
            assert ab.norm == a.norm * b.norm
            meet = a.intersect(b)
            for gen in ab.module.columns:
                assert meet.contains(gen)


def test_crt_integers_via_rect_case():
    # the 1-d integer instance: ideals (2), (3), (5) with residues 0, 2, 0
    from bfree.numtheory import crt_integers

    assert crt_integers([0, 2, 0], [2, 3, 5]) == 20


def test_crt_single_ideal_reduces():
    a = principal(GAUSSIAN, (2, 1))
    r = crt([a], [(7, 9)])
    assert a.contains((7 - r[0], 9 - r[1]))
    assert r == a.reduce((7, 9))


def test_crt_gaussian_example():
    a = principal(GAUSSIAN, (2, 1))
    b = principal(GAUSSIAN, (2, -1))
    x = crt([a, b], [(0, 0), (1, 0)])
    assert a.contains(x)
    assert b.contains((x[0] - 1, x[1]))


def test_crt_not_coprime():
    a = principal(GAUSSIAN, (1, 1))
    b = principal(GAUSSIAN, (2, 0))
    with pytest.raises(NotCoprimeError):
        crt([a, b], [(0, 0), (1, 0)])


def test_crt_many_ideals_soundness():
    rng = random.Random(31)
    gens = [(1, 1), (2, 1), (2, -1), (3, 0), (1, 2)]  # norms 2, 5, 5, 9, 5... pick coprime ones
    ideals = [principal(GAUSSIAN, g) for g in ((1, 1), (2, 1), (2, -1), (3, 0))]
    for _ in range(50):
        residues = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in ideals]
        x = crt(ideals, residues)
        for ideal, r in zip(ideals, residues):
            assert ideal.contains((x[0] - r[0], x[1] - r[1]))


def test_prime_avoidance_smoke():
    # for principal a not inside any of the prime ideals p_j, some element of a
    # avoids their union (searched over small coefficient combinations)
    rng = random.Random(41)
    primes = [principal(GAUSSIAN, g) for g in ((1, 1), (2, 1), (2, -1), (3, 0))]
    for _ in range(40):
        x = (rng.randint(-8, 8), rng.randint(-8, 8))
        if x == (0, 0):
            continue
        a = principal(GAUSSIAN, x)
        outside = [p for p in primes if not all(p.contains(g) for g in a.module.columns)]
        if len(outside) != len(primes):
            continue  # a sits inside some prime; the lemma premise fails
        g1, g2 = a.module.columns
        found = None
        for k1 in range(-4, 5):
            for k2 in range(-4, 5):
                cand = (k1 * g1[0] + k2 * g2[0], k1 * g1[1] + k2 * g2[1])
                if cand == (0, 0):
                    continue
                if not any(p.contains(cand) for p in primes):
                    found = cand
                    break
            if found:
                break
        assert found is not None


def test_product_ideal_componentwise():
    a = ProductIdeal((principal(GAUSSIAN, (1, 1)), principal(GAUSSIAN, (2, 1))))
    b = ProductIdeal((principal(GAUSSIAN, (2, 1)), principal(GAUSSIAN, (1, 1))))
    assert a.norm == 2 * 5
    assert a.sum(b).norm == 1
    assert a.coprime(b)
    prod = a.product(b)
    assert prod.norm == a.norm * b.norm
    xs = crt_product([a, b], [((0, 0), (0, 0)), ((1, 0), (1, 0))])
    assert a.contains(xs)
    assert b.contains(tuple((x[0] - 1, x[1]) for x in xs))


RINGS = tuple(QuadraticRing(d) for d in (-1, -3, -5, 2, 5))
SMALL = st.integers(-6, 6)
NONZERO = st.tuples(SMALL, SMALL).filter(lambda x: x != (0, 0))


@st.composite
def product_ideal_systems(draw):
    """1-3 product ideals over 1-3 factor rings, each factor generated by one
    or two elements, with one residue and one test element per ideal."""
    rings = draw(st.lists(st.sampled_from(RINGS), min_size=1, max_size=3))
    element_tuple = st.tuples(*[st.tuples(SMALL, SMALL) for _ in rings])
    ideals = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for ring in rings:
            gens = draw(st.lists(NONZERO, min_size=1, max_size=2))
            factor = principal(ring, gens[0])
            for g in gens[1:]:
                factor = factor.sum(principal(ring, g))
            factors.append(factor)
        ideals.append(ProductIdeal(tuple(factors)))
    residues = [draw(element_tuple) for _ in ideals]
    points = [draw(element_tuple) for _ in ideals]
    return ideals, residues, points


def slotwise_crt(ideals, residues):
    """Reference: one quadratic CRT per factor slot."""
    width = len(ideals[0].factors)
    return tuple(crt([pi.factors[s] for pi in ideals], [r[s] for r in residues]) for s in range(width))


def slotwise_norm(ideal):
    out = 1
    for f in ideal.factors:
        out *= f.norm
    return out


def slotwise_contains(ideal, xs):
    return all(f.contains(x) for f, x in zip(ideal.factors, xs, strict=True))


def slotwise_coprime(a, b):
    return all(x.coprime(y) for x, y in zip(a.factors, b.factors, strict=True))


def outcome(solve, *args):
    try:
        return solve(*args)
    except NotCoprimeError:
        return NotCoprimeError


@settings(max_examples=200, deadline=None)
@given(product_ideal_systems())
def test_product_ideal_direct_sum_matches_the_factors(system):
    ideals, residues, points = system
    got = outcome(crt_product, ideals, residues)
    assert got == outcome(slotwise_crt, ideals, residues)
    if got is not NotCoprimeError:
        for pi, r in zip(ideals, residues):
            assert pi.contains(tuple((x[0] - y[0], x[1] - y[1]) for x, y in zip(got, r)))
    for pi, xs in zip(ideals, points):
        assert pi.norm == slotwise_norm(pi)
        assert pi.contains(xs) == slotwise_contains(pi, xs)
        # each factor's first basis column lies in that factor
        member = tuple(f.module.columns[0] for f in pi.factors)
        assert pi.contains(member) and slotwise_contains(pi, member)
    for a in ideals:
        for b in ideals:
            assert a.coprime(b) == slotwise_coprime(a, b)


def test_product_ideal_refuses_an_element_that_is_not_a_pair():
    a = ProductIdeal((principal(GAUSSIAN, (1, 1)), principal(GAUSSIAN, (2, 1))))
    # four coordinates in all, as many as the direct sum has, but not two pairs
    for xs in (((1, 2, 3), (4,)), ((0, 0),), ((0, 0), (0, 0), (0, 0))):
        with pytest.raises(ValueError):
            a.contains(xs)
    with pytest.raises(ValueError):
        crt_product([a], [((1, 2, 3), (4,))])
    with pytest.raises(ValueError):
        a.coprime(ProductIdeal((principal(GAUSSIAN, (1, 1)), principal(ROOT2, (1, 1)))))


def test_ideal_serialization_roundtrip():
    a = principal(ROOT_MINUS5, (1, 1))
    again = ideal_from_columns(ROOT_MINUS5, a.to_columns())
    assert again == a


def test_ring_and_ideal_json():
    a = principal(GAUSSIAN, (2, 1))
    data = a.to_json_dict()
    assert data["ring"] == {"d": -1}
    assert QuadIdeal.from_json_dict(data) == a
