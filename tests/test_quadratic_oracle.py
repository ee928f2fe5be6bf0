"""The number-field case as an oracle on the lattice engine.

A family of principal ideals of a quadratic ring is a family of lattices in
Z^2 (one ``static`` line per ideal), so it runs through ``decide`` as
written.  Facts that need no theorem then check the engine:

* 1 lies in no proper ideal.  For proper ideals I_1 ... I_k with
  intersection I, no x in 1 + I lies in any I_j (else 1 would lie in
  I_j + I = I_j).  So an exact verdict on such a family is NotProximal, and
  its missed coset lies in no ideal.
* Membership in a principal ideal (a) is divisibility: x lies in (a) exactly
  when x * conj(a) is |N(a)| times a ring element.  That decides ``covered``
  and ``free`` on a box without the lattice code.
* ``recttemplate [t,t] params=primes`` is the ideals (t) of Z for prime t,
  pairwise coprime, so adding it to any family makes it Proximal.
* A product ideal I*J lies inside I, so adding it to a family holding I
  changes neither the covered set nor the verdict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from bfree.families import parse_family
from bfree.proximality import Covering, decide
from bfree.quadratic import QuadraticRing, principal
from bfree.windows import Box, free_window

from helpers import random_unimodular

RINGS = [QuadraticRing(d) for d in (-1, -3, -5, 2, 5, -2, 3)]
BOX = Box((-6, -6), (6, 6))


def conjugate(ring, x):
    """The Galois conjugate of a + b*w: w -> sqrt(d) -> -sqrt(d), or
    w = (1 + sqrt(d))/2 -> (1 - sqrt(d))/2 = 1 - w."""
    a, b = x
    return (a + b, -b) if ring.d % 4 == 1 else (a, -b)


def in_principal(ring, gen, x) -> bool:
    """x in (gen), read off x * conj(gen) against |N(gen)|."""
    n = abs(ring.norm(gen))
    return all(c % n == 0 for c in ring.mul(x, conjugate(ring, gen)))


@st.composite
def ideal_families(draw):
    """(ring, generators of 1 to 4 proper principal ideals)."""
    ring = draw(st.sampled_from(RINGS))
    element = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    gens = draw(st.lists(element.filter(lambda x: abs(ring.norm(x)) > 1), min_size=1, max_size=4))
    return ring, gens


def static_lines(ring, gens) -> list[str]:
    return [f"static {principal(ring, g).to_columns()}" for g in gens]


def family(lines, rows=None):
    head = ["dim 2"] + ([f"transform {[list(r) for r in rows]}"] if rows else [])
    return parse_family("\n".join(head + lines) + "\n")


def pull_back(rows, p):
    """p in entry coordinates: the inverse of a 2x2 matrix of determinant +-1
    is det times its adjugate."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    return (det * (d * p[0] - b * p[1]), det * (a * p[1] - c * p[0]))


@settings(max_examples=60, deadline=None)
@given(ideal_families(), st.randoms(use_true_random=False), st.booleans())
def test_exact_verdicts_on_ideal_families_are_not_proximal(drawn, rng, transformed):
    ring, gens = drawn
    rows = random_unimodular(rng, 2).rows if transformed else None
    verdict = decide(family(static_lines(ring, gens), rows))
    if verdict.status == "Inconclusive":
        return
    assert verdict.status == "NotProximal"
    assert isinstance(verdict.certificate, Covering)
    q = verdict.certificate.missed_coset
    q = pull_back(rows, q) if rows else q
    assert not any(in_principal(ring, g, q) for g in gens)


@settings(max_examples=40, deadline=None)
@given(ideal_families(), st.randoms(use_true_random=False), st.booleans())
def test_covered_and_free_agree_with_ideal_membership_on_a_box(drawn, rng, transformed):
    ring, gens = drawn
    rows = random_unimodular(rng, 2).rows if transformed else None
    spec = family(static_lines(ring, gens), rows)
    window = free_window(spec, BOX)
    for p in BOX.points():
        q = pull_back(rows, p) if rows else p
        member = any(in_principal(ring, g, q) for g in gens)
        assert spec.covered(p) is member
        assert spec.free(p) is not member
        assert window.get(p) == (not member)


@settings(max_examples=40, deadline=None)
@given(ideal_families())
def test_the_prime_ideals_of_z_make_any_ideal_family_proximal(drawn):
    ring, gens = drawn
    verdict = decide(family(static_lines(ring, gens) + ["recttemplate [t,t] params=primes"]))
    assert verdict.status == "Proximal"


@settings(max_examples=40, deadline=None)
@given(ideal_families(), st.data())
def test_a_product_ideal_inside_a_member_is_redundant(drawn, data):
    ring, gens = drawn
    g = data.draw(st.sampled_from(gens))
    h = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda x: x != (0, 0)))
    product = principal(ring, g).product(principal(ring, h))
    assert product.module == principal(ring, ring.mul(g, h)).module
    lines = static_lines(ring, gens)
    spec, grown = family(lines), family(lines + [f"static {product.to_columns()}"])
    assert all(spec.covered(p) == grown.covered(p) for p in BOX.points())
    assert decide(grown).status == decide(spec).status
