"""Properties of bfree.numtheory against sympy as an independent oracle."""

import math

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfree import families, numtheory
from bfree.errors import FactorizationError
from bfree.numtheory import factor, is_prime, primes_up_to, trial_bound, valuation

from helpers import FOUR_BIT

TRIAL_PRIMES = list(sympy.primerange(2, numtheory._TRIAL_LIMIT + 1))
# primes on both sides of every power of two the trial tables are sized by,
# of factor()'s trial limit and of the sieve's
EDGE_PRIMES = sorted(
    {sympy.prevprime(2**k) for k in range(2, 19)}
    | {sympy.nextprime(2**k) for k in range(1, 19)}
    | {sympy.prevprime(numtheory._FACTOR_TRIAL_LIMIT), sympy.nextprime(numtheory._FACTOR_TRIAL_LIMIT)}
    | {sympy.prevprime(numtheory._TRIAL_LIMIT), sympy.nextprime(numtheory._TRIAL_LIMIT)}
)
LARGE_PRIMES = st.integers(numtheory._TRIAL_LIMIT, 10**9).map(sympy.nextprime)
# primes above factor()'s trial limit and up to the sieve's: rho splits them off
MIDDLE_PRIMES = [p for p in TRIAL_PRIMES if p > numtheory._FACTOR_TRIAL_LIMIT]
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
        st.tuples(st.sampled_from(EDGE_PRIMES), st.integers(1, 3)),
        min_size=1,
        max_size=5,
    ),
    st.integers(1, 1000),
)
def test_factor_products_at_table_edges(powers, cofactor):
    n = cofactor * math.prod(p**e for p, e in powers)
    assert factor(n) == oracle(n)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(TRIAL_PRIMES[:200] + EDGE_PRIMES), LARGE_PRIMES), st.integers(1, 6))
def test_factor_prime_powers(p, e):
    assert factor(p**e) == ((p, e),)


@settings(max_examples=30, deadline=None)
@given(LARGE_PRIMES, LARGE_PRIMES)
def test_factor_semiprimes_above_trial_limit(p, q):
    assert factor(p * q) == oracle(p * q)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(MIDDLE_PRIMES), st.integers(1, 3)), min_size=1, max_size=4),
    st.one_of(st.just(1), st.integers(2, 1000), st.integers(3, 10**9).map(sympy.prevprime)),
)
@example([(sympy.nextprime(numtheory._FACTOR_TRIAL_LIMIT), 1)], 1)
@example([(sympy.prevprime(numtheory._TRIAL_LIMIT), 3), (sympy.nextprime(numtheory._FACTOR_TRIAL_LIMIT), 2)], 999_999_937)
def test_factor_products_of_primes_between_the_trial_limits(powers, cofactor):
    n = cofactor * math.prod(p**e for p, e in powers)
    assert factor(n) == oracle(n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MIDDLE_PRIMES[:10]), st.integers(1, 12))
@example(MIDDLE_PRIMES[0], 12)
def test_factor_powers_of_primes_just_above_the_trial_limit(p, e):
    assert factor(p**e) == ((p, e),)


def test_factor_raises_on_a_hard_cofactor_after_rho_finds_a_small_prime(monkeypatch):
    # 1031 is the first prime above factor()'s trial limit, so rho splits it
    # off; the 97-bit semiprime left needs far more than 10**4 rho steps
    hard = 185124726281477 * 491069414308633
    monkeypatch.setattr(numtheory, "_RHO_ITERATION_CAP", 10**4)
    with pytest.raises(FactorizationError, match=rf"97-bit cofactor {hard}: .*within 10000 rho iterations"):
        factor(1031 * hard)


def test_factor_rejects_non_positive():
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            factor(n)


def test_rho_budget_is_shared_across_restarts(monkeypatch):
    # 100003 * 100019: both factors above the trial limit, so only rho can
    # split it, and 10 steps are too few for any restart constant
    monkeypatch.setattr(numtheory, "_RHO_ITERATION_CAP", 10)
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


def _record_limits(monkeypatch, module, name):
    asked = []
    real = getattr(module, name)

    def recording(limit):
        asked.append(limit)
        return real(limit)

    monkeypatch.setattr(module, name, recording)
    return asked


def test_trial_tables_are_sized_to_the_input(monkeypatch):
    primes_up_to.cache_clear()
    tables = _record_limits(monkeypatch, numtheory, "primes_up_to")
    for n in range(1, 5000):
        factor(n)
    # isqrt(n) <= 70: tables up to 2, 4, ..., 128
    assert set(tables) == {2**k for k in range(1, 8)}
    for k in range(100):
        factor(2**k)
        factor(3**k)
        factor(10**k)
    for p in (1031, 99991, 100003, 999999937):
        factor(p * 10**20)
        factor(p * p * 3**20)
    factor(10**30)
    # inputs up to 10**30 read the tables up to 2, 4, ..., 2**10 and no
    # further; each table is sieved once
    assert set(tables) == {2**k for k in range(1, 11)}
    assert primes_up_to.cache_info().misses == 10

    # the line sieve still reads the 10**5 table for squares near 10**15
    power_sieves = _record_limits(monkeypatch, families, "primes_up_to")
    families.Primes().power_hits(range(10**15 - 20, 10**15 + 20), 2)
    assert power_sieves == [numtheory._TRIAL_LIMIT]
    assert primes_up_to.cache_info().misses == 11


@settings(max_examples=300, deadline=None)
@given(k=st.integers(2, 4), data=st.data())
def test_sieve_bound_is_the_least_four_bit_value_above_the_root(k, data):
    # tops anywhere, and next to b^k for a four-bit b, where the bound steps
    top = data.draw(
        st.one_of(
            st.integers(0, 10**6),
            st.integers(0, 10**22),
            st.sampled_from(FOUR_BIT).flatmap(lambda b: st.integers(b**k - 1, b**k + 1)),
        )
    )
    least = next((b for b in FOUR_BIT if b**k > top), numtheory._TRIAL_LIMIT)
    assert trial_bound(top, k) == min(least, numtheory._TRIAL_LIMIT)


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


def test_valuation_rejects_bases_below_two_in_absolute_value():
    for p in (-1, 0, 1):
        with pytest.raises(ValueError, match=f"base {p}"):
            valuation(5, p)
    assert valuation(-48, -2) == 4
    with pytest.raises(ValueError, match="valuation of 0"):
        valuation(0, 2)
