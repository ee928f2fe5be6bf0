"""Properties of bfree.numtheory against sympy as an independent oracle."""

import math

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfree import numtheory
from bfree.errors import FactorizationError
from bfree.numtheory import factor, is_prime, multiplicative_order, primes_up_to, totient

TRIAL_PRIMES = list(sympy.primerange(2, numtheory._TRIAL_LIMIT + 1))
BLOCK = numtheory._BLOCK_SIZE
# primes on both sides of every trial-block edge, of every power of two the
# trial tables are sized by, and of the trial limit
BLOCK_EDGE_PRIMES = sorted(
    {TRIAL_PRIMES[i] for i in range(BLOCK - 1, len(TRIAL_PRIMES), BLOCK)}
    | {TRIAL_PRIMES[i] for i in range(BLOCK, len(TRIAL_PRIMES), BLOCK)}
    | {sympy.prevprime(2**k) for k in range(2, 19)}
    | {sympy.nextprime(2**k) for k in range(1, 19)}
    | {sympy.prevprime(numtheory._TRIAL_LIMIT), sympy.nextprime(numtheory._TRIAL_LIMIT)}
)
LARGE_PRIMES = st.integers(numtheory._TRIAL_LIMIT, 10**9).map(sympy.nextprime)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def oracle(n: int):
    return tuple(sorted(sympy.factorint(n).items()))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**15))
@example(1)
@example(2)
@example(4)
@example(10**15)
def test_factor_matches_sympy(n):
    assert factor(n) == oracle(n)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(BLOCK_EDGE_PRIMES), st.integers(1, 3)),
        min_size=1,
        max_size=5,
    ),
    st.integers(1, 1000),
)
def test_factor_products_at_block_edges(powers, cofactor):
    n = cofactor * math.prod(p**e for p, e in powers)
    assert factor(n) == oracle(n)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(TRIAL_PRIMES[:200] + BLOCK_EDGE_PRIMES), LARGE_PRIMES), st.integers(1, 6))
def test_factor_prime_powers(p, e):
    assert factor(p**e) == ((p, e),)


@settings(max_examples=30, deadline=None)
@given(LARGE_PRIMES, LARGE_PRIMES)
def test_factor_semiprimes_above_trial_limit(p, q):
    assert factor(p * q) == oracle(p * q)


def test_factor_rejects_non_positive():
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            factor(n)


def test_rho_budget_is_shared_across_restarts(monkeypatch):
    # 100003 * 100019: both factors above the trial limit, so only rho can
    # split it, and 10 steps are too few for any restart constant
    monkeypatch.setattr(numtheory, "_RHO_ITERATION_CAP", 10)
    factor.cache_clear()
    n = 100003 * 100019
    calls = []
    real_gcd = math.gcd

    def counting_gcd(a, b):
        calls.append(b)
        return real_gcd(a, b)

    monkeypatch.setattr(numtheory.math, "gcd", counting_gcd)
    with pytest.raises(FactorizationError, match=r"34-bit cofactor .*within 10 rho iterations"):
        factor(n)
    monkeypatch.undo()
    assert calls.count(n) == 10
    factor.cache_clear()
    assert factor(n) == ((100003, 1), (100019, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 * 10**5))
@example(0)
@example(1)
@example(2)
@example(3)
@example(4)
@example(2 * 10**5)
def test_primes_up_to_matches_sympy(n):
    assert primes_up_to(n) == tuple(sympy.primerange(2, n + 1))


def test_trial_tables_are_sized_to_the_input():
    numtheory._trial_blocks.cache_clear()
    primes_up_to.cache_clear()
    for n in range(1, 5000):
        factor.__wrapped__(n)
    # isqrt(n) <= 70: tables up to 2, 4, ..., 128, never to the trial limit
    assert numtheory._trial_blocks.cache_info().currsize == 7
    for k in range(200):
        factor.__wrapped__(2**k)
        factor.__wrapped__(3**k)
    # 2, 4, ..., 2**16 and the trial limit; each sieved once
    assert numtheory._trial_blocks.cache_info().currsize == 17
    assert primes_up_to.cache_info().misses == 17


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(-10, MR_BOUND - 1),
        st.integers(2, 10**12),
        st.integers(2, MR_BOUND // 10**6).map(sympy.nextprime),
        st.tuples(LARGE_PRIMES, LARGE_PRIMES).map(lambda pq: pq[0] * pq[1]),
    )
)
@example(561)
@example(3215031751)
@example(3825123056546413051)
@example(318665857834031151167461)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**9))
def test_totient_matches_sympy(n):
    assert totient(n) == sympy.totient(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_multiplicative_order_matches_sympy(a, n):
    if math.gcd(a, n) != 1:
        with pytest.raises(ValueError):
            multiplicative_order(a, n)
        return
    assert multiplicative_order(a, n) == (1 if n == 1 else sympy.n_order(a, n))
