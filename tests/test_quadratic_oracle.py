"""The number-field case as an oracle on the lattice engine.

A family of ideals of a quadratic ring, each given by one or two
generators, is a family of lattices in Z^2 (one ``static`` line per ideal),
so it runs through ``decide`` as written.  Facts that need no theorem then
check the engine:

* 1 lies in no proper ideal.  For proper ideals I_1 ... I_k with
  intersection I, no x in 1 + I lies in any I_j (else 1 would lie in
  I_j + I = I_j).  So an exact verdict on such a family is NotProximal, and
  its missed coset lies in no ideal.
* Membership in an ideal I = (a) or (a, b) is divisibility.  I * conj(I)
  is (N), N the gcd of N(a), N(b) and Tr(a * conj(b)) (Gauss's lemma on
  the contents of a + bX and its conjugate), so x lies in I exactly when
  x * conj(a) and x * conj(b) are N times ring elements.  That decides
  ``covered`` and ``free`` on a box without the lattice code.  A
  two-generator ideal need not be principal: (2, 1 + sqrt(-5)) of
  Z[sqrt(-5)] has norm 2, and no element has norm 2.
* ``recttemplate [t,t] params=primes`` is the ideals (t) of Z for prime t,
  pairwise coprime, so adding it to any family makes it Proximal.
* A product ideal I*J lies inside I, so adding it to a family holding I
  changes neither the covered set nor the verdict.
"""

import random
from math import gcd

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bfree.families import parse_family
from bfree.proximality import Covering, decide
from bfree.quadratic import QuadraticRing, ideal_from_columns, principal
from bfree.windows import Box, free_window

from helpers import random_unimodular

RINGS = [QuadraticRing(d) for d in (-1, -3, -5, 2, 5, -2, 3)]
BOX = Box((-6, -6), (6, 6))


def conjugate(ring, x):
    """The Galois conjugate of a + b*w: w -> sqrt(d) -> -sqrt(d), or
    w = (1 + sqrt(d))/2 -> (1 - sqrt(d))/2 = 1 - w."""
    a, b = x
    return (a + b, -b) if ring.d % 4 == 1 else (a, -b)


def trace(ring, x) -> int:
    """x + conj(x): 2a for a + b*sqrt(d), 2a + b for a + b*(1 + sqrt(d))/2."""
    return 2 * x[0] + x[1] * (ring.d % 4 == 1)


def ideal_norm(ring, gens) -> int:
    """N(I) for I generated by gens: the gcd of the norms of the
    generators and the traces of a * conj(b) over pairs of them."""
    return gcd(
        *(abs(ring.norm(a)) for a in gens),
        *(trace(ring, ring.mul(a, conjugate(ring, b))) for i, a in enumerate(gens) for b in gens[i + 1 :]),
    )


def in_ideal(ring, gens, x) -> bool:
    """x in (gens), read off x * conj(g) for every generator g against N(I)."""
    n = ideal_norm(ring, gens)
    return all(c % n == 0 for g in gens for c in ring.mul(x, conjugate(ring, g)))


def ideal(ring, gens):
    """The ideal generated by gens: the module of every g and g * w."""
    return ideal_from_columns(ring, [c for g in gens for c in (g, ring.times_omega(g))])


@st.composite
def ideal_families(draw):
    """(ring, 1 to 4 proper ideals, each as 1 or 2 nonzero generators)."""
    ring = draw(st.sampled_from(RINGS))
    element = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda x: x != (0, 0))
    gens = st.lists(element, min_size=1, max_size=2).map(tuple)
    ideals = draw(st.lists(gens.filter(lambda g: ideal_norm(ring, g) > 1), min_size=1, max_size=4))
    return ring, ideals


def static_lines(ring, ideals) -> list[str]:
    return [f"static {ideal(ring, gens).to_columns()}" for gens in ideals]


def family(lines, rows=None):
    head = ["dim 2"] + ([f"transform {[list(r) for r in rows]}"] if rows else [])
    return parse_family("\n".join(head + lines) + "\n")


def pull_back(rows, p):
    """p in entry coordinates: the inverse of a 2x2 matrix of determinant +-1
    is det times its adjugate."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    return (det * (d * p[0] - b * p[1]), det * (a * p[1] - c * p[0]))


# (2, 1 + sqrt(-5)), which is not principal, alone and beside (3)
NON_PRINCIPAL = (QuadraticRing(-5), [((2, 0), (1, 1))])
BESIDE_THREE = (QuadraticRing(-5), [((2, 0), (1, 1)), ((3, 0),)])


@settings(max_examples=60, deadline=None)
@given(ideal_families(), st.randoms(use_true_random=False), st.booleans())
@example(NON_PRINCIPAL, random.Random(0), False)
@example(BESIDE_THREE, random.Random(0), True)
def test_exact_verdicts_on_ideal_families_are_not_proximal(drawn, rng, transformed):
    ring, ideals = drawn
    rows = random_unimodular(rng, 2).rows if transformed else None
    verdict = decide(family(static_lines(ring, ideals), rows))
    event(f"{verdict.status}, {'some' if any(len(g) == 2 for g in ideals) else 'no'} two-generator ideal")
    if verdict.status == "Inconclusive":
        return
    assert verdict.status == "NotProximal"
    assert isinstance(verdict.certificate, Covering)
    q = verdict.certificate.missed_coset
    q = pull_back(rows, q) if rows else q
    assert not any(in_ideal(ring, gens, q) for gens in ideals)


@settings(max_examples=40, deadline=None)
@given(ideal_families(), st.randoms(use_true_random=False), st.booleans())
@example(NON_PRINCIPAL, random.Random(0), True)
@example(BESIDE_THREE, random.Random(0), False)
def test_covered_and_free_agree_with_ideal_membership_on_a_box(drawn, rng, transformed):
    ring, ideals = drawn
    rows = random_unimodular(rng, 2).rows if transformed else None
    spec = family(static_lines(ring, ideals), rows)
    window = free_window(spec, BOX)
    for p in BOX.points():
        q = pull_back(rows, p) if rows else p
        member = any(in_ideal(ring, gens, q) for gens in ideals)
        assert spec.covered(p) is member
        assert spec.free(p) is not member
        assert window.get(p) == (not member)


@settings(max_examples=40, deadline=None)
@given(ideal_families())
def test_the_prime_ideals_of_z_make_any_ideal_family_proximal(drawn):
    ring, ideals = drawn
    verdict = decide(family(static_lines(ring, ideals) + ["recttemplate [t,t] params=primes"]))
    assert verdict.status == "Proximal"


@settings(max_examples=40, deadline=None)
@given(ideal_families(), st.data())
def test_a_product_ideal_inside_a_member_is_redundant(drawn, data):
    ring, ideals = drawn
    gens = data.draw(st.sampled_from(ideals))
    h = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda x: x != (0, 0)))
    product = ideal(ring, gens).product(principal(ring, h))
    assert product.module == ideal(ring, [ring.mul(g, h) for g in gens]).module
    lines = static_lines(ring, ideals)
    spec, grown = family(lines), family(lines + [f"static {product.to_columns()}"])
    assert all(spec.covered(p) == grown.covered(p) for p in BOX.points())
    assert decide(grown).status == decide(spec).status
