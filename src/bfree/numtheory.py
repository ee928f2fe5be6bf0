"""Shared integer helpers: extended gcd, primality, factorization, classical CRT.

Everything in this module is exact integer arithmetic; no floats anywhere.

Factorization first finds the small primes of n by trial division.  The
trial table is sized to the input: it holds the primes up to the next power
of two above isqrt(n), capped at _FACTOR_TRIAL_LIMIT (2**10), so factor()
never divides by more than 172 primes.  Trial division stops at the first
prime p with p**2 above what is left.  A cofactor that remains is tested by
Miller-Rabin and split by Pollard rho, whose restarts share one budget of
_RHO_ITERATION_CAP steps; a prime factor p above the trial limit costs rho
about sqrt(p) steps.  So factor() either returns a correct answer or raises,
never guesses.  The line sieve (families.Primes.power_hits) sizes its own
tables by trial_bound, to values of at most four significant bits, up to
_TRIAL_LIMIT (10**5).

One routine, iter_factors, yields the primes in increasing order as it
finds them; factor() reads it whole, and a reader that stops at a trial
prime never touches the cofactor.  Only the prime tables are cached.

is_prime is deterministic below 3.317e24 and a strong probable-prime test
to thirteen bases above.
"""

import math
from functools import lru_cache
from itertools import compress

from .errors import FactorizationError, NotCoprimeError

# Deterministic Miller-Rabin witness set: the first 13 primes, valid for
# n < 3317044064679887385961981, the least strong pseudoprime to all of them
# (the first 12 alone admit 318665857834031151167461).  Beyond that the test
# is a very strong probable-prime test.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_LIMIT = 100_000
_FACTOR_TRIAL_LIMIT = 1 << 10
_RHO_ITERATION_CAP = 2_000_000


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: (g, s, t) with g = s*a + t*b and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n via a sieve over the odd numbers."""
    if n < 2:
        return ()
    sieve = bytearray([1]) * ((n + 1) // 2)  # sieve[i] stands for 2*i + 1
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return (2,) + tuple(compress(range(1, n + 1, 2), sieve))


def trial_bound(n: int, k: int) -> int:
    """Size of the line sieve's trial-prime table for values up to n, which
    looks for k-1'st powers: the least B of at most four significant bits
    (m * 2**j with m < 16) with B**k > n, capped at _TRIAL_LIMIT.  Any B
    with B**k > n would do; the rounding leaves at most 8 sizes per octave,
    so rows whose values cross many k-th powers share a few tables."""
    b = iroot(n, k) + 1
    shift = max(b.bit_length() - 4, 0)
    return min(_TRIAL_LIMIT, -(-b >> shift) << shift)


def _pollard_rho(n: int) -> int:
    # n odd composite, no factor below factor()'s trial limit; all restarts
    # share one budget of _RHO_ITERATION_CAP steps
    steps = 0
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1 and steps < _RHO_ITERATION_CAP:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            steps += 1
        if 1 < d < n:
            return d
    raise FactorizationError(
        f"cannot factor the {n.bit_length()}-bit cofactor {n}: "
        f"no factor found within {_RHO_ITERATION_CAP} rho iterations"
    )


def iter_factors(n: int):
    """The (prime, exponent) pairs of n >= 1 in increasing order: each trial
    prime as trial division reaches it, then the cofactor's primes, sorted,
    which all lie above the trial primes."""
    if n < 1:
        raise ValueError("factor() expects a positive integer")
    limit = min(1 << math.isqrt(n).bit_length(), _FACTOR_TRIAL_LIMIT)
    for p in primes_up_to(limit):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
    out: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        # trial division left m no prime factor up to min(limit, isqrt(m)),
        # so m is prime if it is below limit**2
        if m < limit * limit or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    yield from sorted(out.items())


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a sorted tuple of (prime, exponent)."""
    return tuple(iter_factors(n))


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n != 0, |p| >= 2)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if abs(p) < 2:
        raise ValueError(f"valuation with base {p} is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0 (integer Newton iteration, no floats)."""
    if n < 0:
        raise ValueError("iroot of a negative number")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << ((n.bit_length() + k - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def crt_integers(residues: list[int] | tuple[int, ...], moduli: list[int] | tuple[int, ...]) -> int:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli; returns x in [0, prod m_i).

    Raises NotCoprimeError if a pair of moduli shares a factor (incompatible
    systems are then possible, so we refuse rather than pick a branch).
    """
    if len(residues) != len(moduli):
        raise ValueError("residue and modulus lists differ in length")
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        if q < 1:
            raise ValueError("moduli must be positive")
        g, inv, _ = xgcd(m % q, q)
        if g != 1:
            raise NotCoprimeError(f"moduli are not pairwise coprime (gcd {g})")
        k = ((r - x) * inv) % q
        x += m * k
        m *= q
    return x % m
