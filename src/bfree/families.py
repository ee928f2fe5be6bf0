"""Finite descriptions of (possibly infinite) families of lattices.

A family is a list of entries, each one of:

* ``Static`` -- a single lattice: a ``static`` line gives its basis, a
  ``rect`` line its diagonal (``Rectangular`` builds one from a_1, ..., a_m);
* ``Template`` -- a triangular base matrix whose diagonal entries are
  multiplied by powers t**e of a parameter t running over a sequence: any
  powers on a diagonal base (``RectTemplate`` builds one from slots
  c * t**e), t on one row of any other base.

Every entry kind answers the same questions: membership, ``span()``,
``classes_mod(n, limit)`` and ``schema()``, and names its span in labels by
``span_word``, so the verdict engine never dispatches on the kind.
``span()`` is the lattice generated by all the members, in closed form: a
lattice holds every member exactly when it holds the span.  ``schema()`` is
the one answer behind verdicts: a cover (proper lattices holding every
member; the span, for an infinite entry whose span is proper), a
``CoprimeFamily`` (an infinite pairwise coprime subfamily), or None when
the schema proves neither.

Parameter sequences are primes (with optional exclusions), powers of a fixed
base, or an explicit finite list.  Membership of a point in the union of all
members is decided exactly: divisibility constraints pin down finitely many
candidate parameters, so no sampling or truncation is involved.  One
elimination reads those constraints, ``Template._eliminate``; the point
questions run it on the whole point, and ``line_pieces`` on a line's prefix.
The schema answers with a ``CoprimeFamily`` only for a template with the
identity base over primes, whose distinct parameters give pairwise coprime
members.

A family may carry a unimodular change of coordinates; the described family
is then the image of every entry under that map.  Membership pulls points
back through the inverse, and ``FamilySpec.image`` maps lattices forward.
"""

import json
import re
from functools import cached_property, partial
from math import gcd

from .errors import FamilyParseError, TooLargeError, UnknownPresetError
from .lattices import Lattice, Point, UnimodularMap, as_point, hnf, record
from .numtheory import (
    factor,
    iroot,
    is_prime,
    multiplicative_order,
    primes_up_to,
    totient,
    trial_bound,
    valuation,
)

# Primes below this bound are tried directly before any factorization, so
# membership that holds via a small prime never factors a huge constraint.
_PROBE_BOUND = 1000

# The longest sieve that lists prime parameters (Primes.values_up_to): a
# template's members up to an index bound are listed from it.
PRIME_SIEVE_LIMIT = 10**7


# ---------------------------------------------------------------------------
# parameter sequences


def _multiples_in_run(v0: int, n: int, moduli) -> bytearray:
    """Flags over v0, ..., v0 + n - 1: 1 where some modulus divides v."""
    hits = bytearray(n)
    for q in moduli:
        first = -v0 % q
        hits[first::q] = b"\x01" * len(range(first, n, q))
    return hits


@record
class Primes:
    """All primes, minus an optional finite exclusion set."""

    exclude: tuple[int, ...] = ()

    def __post_init__(self):
        if any(not is_prime(x) for x in self.exclude):
            raise ValueError("exclusions must be primes")

    is_infinite = True
    factors = True  # membership may factor a value (see windows.covered_flags)

    def __contains__(self, t: int) -> bool:
        return t not in self.exclude and is_prime(t)

    def values_up_to(self, bound: int) -> list[int]:
        """The members up to bound, from a sieve of that length: raises
        TooLargeError, before it sieves, when bound exceeds
        PRIME_SIEVE_LIMIT."""
        if bound > PRIME_SIEVE_LIMIT:
            raise TooLargeError(
                f"listing the primes up to {bound} exceeds the sieve limit of {PRIME_SIEVE_LIMIT}",
                check="prime parameters", limit_name="PRIME_SIEVE_LIMIT", limit=PRIME_SIEVE_LIMIT, count=bound,
            )
        return [p for p in primes_up_to(bound) if p not in self.exclude]

    def min_value(self) -> int:
        p = 2
        while p in self.exclude:
            p = next_prime(p)
        return p

    def delta(self) -> int:
        """gcd of t - min_value() over the sequence: 2 when 2 is excluded,
        as every t is then odd, else 1.  Finitely many exclusions leave
        primes in every unit class (Dirichlet), so no larger divisor is
        common to the differences."""
        return 2 if 2 in self.exclude else 1

    def candidates(self, constraints) -> list[int]:
        """All sequence members t with t**e dividing v for every (v, e) given.

        At least one v must be nonzero.  Decided by factoring the gcd of the
        nonzero v's.
        """
        g = 0
        for v, _ in constraints:
            g = gcd(g, v)
        g = abs(g)
        if g == 0:
            raise ValueError("all constraint values are zero")
        out = []
        for p, _ in factor(g):
            if p in self.exclude:
                continue
            if all(v == 0 or v % p**e == 0 for v, e in constraints):
                out.append(p)
        return out

    def divides(self, v: int) -> bool:
        """Whether some sequence member divides v, without factoring: v = 0,
        or |v| keeps a factor above 1 once the excluded primes are divided out."""
        if v == 0:
            return True
        v = abs(v)
        for p in self.exclude:
            while v % p == 0:
                v //= p
        return v > 1

    def power_hits(self, v0: int, n: int, e: int) -> bytearray:
        """Flags over v0, ..., v0 + n - 1: 1 where some member t has t**e | v.

        e = 1 is ``divides``.  For e >= 2, p**e | v != 0 needs p <= R =
        iroot(max |v|, e); when R <= n the multiples of p**e are marked for
        every prime p <= R not excluded, and v = 0, which lies in every
        member, is marked too.  Otherwise the run is sieved by the trial
        primes p <= B, B the power of two with B**(e+1) above every |v|
        (capped at the trial limit; see numtheory.trial_bound): p**e | v is
        a hit unless p is excluded, and p is divided out of v.  A cofactor
        r < B**(e+1) that is left has at most e prime factors, all above B,
        so a member's e-th power divides it exactly when r = q**e with q not
        excluded.  Only a cofactor of at least B**(e+1) is factored.
        """
        if e == 1:
            return bytearray(map(self.divides, range(v0, v0 + n)))
        excluded = set(self.exclude)
        top = max(abs(v0), abs(v0 + n - 1))
        root = iroot(top, e)
        if root <= n:
            hits = _multiples_in_run(v0, n, (p**e for p in primes_up_to(root) if p not in excluded))
            if v0 <= 0 < v0 + n:
                hits[-v0] = 1
            return hits
        bound = trial_bound(top, e + 1)
        hits = bytearray(n)
        # v = 0 keeps r = 0 = 0**e below, a hit: it lies in every member
        rest = [abs(v) for v in range(v0, v0 + n)]
        for p in primes_up_to(bound):
            i = -v0 % p
            while i < n:
                r = rest[i]
                if r:
                    r, k = r // p, 1
                    while r % p == 0:
                        r //= p
                        k += 1
                    rest[i] = r
                    if k >= e and p not in excluded:
                        hits[i] = 1
                i += p
        top = bound ** (e + 1)
        for i, r in enumerate(rest):
            if hits[i] or r == 1:
                continue
            if r < top:
                q = iroot(r, e)
                hits[i] = q**e == r and q not in excluded
            else:
                hits[i] = any(k >= e and p not in excluded for p, k in factor(r))
        return hits

    def residues_mod(self, n: int) -> set[int]:
        """Exact set {t mod n : t in the sequence}.

        Every unit class mod n contains infinitely many primes, so finite
        exclusions never empty it; non-unit classes are reached only by the
        primes dividing n themselves.
        """
        out = {u for u in range(1, n) if gcd(u, n) == 1}
        for p, _ in factor(n):
            if p not in self.exclude:
                out.add(p % n)
        if n == 1:
            out.add(0)
        return out

    def class_count(self, n: int) -> int:
        """len(residues_mod(n)), from factor(n) alone: phi(n) unit classes
        plus one class per non-excluded prime dividing n."""
        return totient(n) + sum(p not in self.exclude for p, _ in factor(n))

    def value_in_class(self, rho: int, n: int):
        """Smallest sequence member congruent to rho mod n, or None.

        A unit class holds infinitely many primes (Dirichlet), so the walk
        rho, rho + n, ... ends; any other class holds at most the prime
        gcd(rho, n).
        """
        rho %= n
        g = gcd(rho, n)
        if g != 1:
            return g if g in self and g % n == rho else None
        while rho not in self:
            rho += n
        return rho

    def describe(self) -> str:
        if self.exclude:
            return "primes excluding {%s}" % ", ".join(map(str, self.exclude))
        return "all primes"

    def spec_text(self) -> str:
        """The ``params=`` text that parse_family reads back."""
        return "primes!" + ",".join(map(str, self.exclude)) if self.exclude else "primes"


def odd_primes() -> Primes:
    return Primes(exclude=(2,))


def next_prime(p: int) -> int:
    q = p + 1
    while not is_prime(q):
        q += 1
    return q


@record
class Geometric:
    """Powers base**k for k >= start (base >= 2)."""

    base: int
    start: int = 1

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("geometric base must be >= 2")
        if self.start < 0:
            raise ValueError("exponent offset must be >= 0")

    is_infinite = True
    factors = False

    def __contains__(self, t: int) -> bool:
        if t < self.base**self.start:
            return False
        while t % self.base == 0:
            t //= self.base
        return t == 1

    def values_up_to(self, bound: int) -> list[int]:
        out = []
        v = self.base**self.start
        while v <= bound:
            out.append(v)
            v *= self.base
        return out

    def min_value(self) -> int:
        return self.base**self.start

    def delta(self) -> int:
        """gcd of base**start * (base**k - 1) over k >= 1: base - 1 divides
        each base**k - 1 and is the first."""
        return self.base**self.start * (self.base - 1)

    def candidates(self, constraints) -> list[int]:
        kmax = None
        for v, e in constraints:
            if v == 0:
                continue
            k = valuation(v, self.base) // e
            kmax = k if kmax is None else min(kmax, k)
        if kmax is None:
            raise ValueError("all constraint values are zero")
        return [self.base**k for k in range(self.start, kmax + 1)]

    def divides(self, v: int) -> bool:
        """Whether some member divides v: base**start does."""
        return v % self.base**self.start == 0

    def power_hits(self, v0: int, n: int, e: int) -> bytearray:
        """Flags over v0, ..., v0 + n - 1: 1 where some member t has
        t**e | v (as Primes.power_hits).  Every member is a multiple of
        base**start, so that is base**(start*e) | v: one progression, no
        factoring."""
        return _multiples_in_run(v0, n, (self.base ** (self.start * e),))

    def residues_mod(self, n: int) -> set[int]:
        out = set()
        r = pow(self.base, self.start, n)
        while r not in out:
            out.add(r)
            r = r * self.base % n
        return out

    def class_count(self, n: int) -> int:
        """len(residues_mod(n)) without walking the orbit.

        Write n = n1 * n2 with n1 made of the primes dividing the base.  Mod
        n1 the powers base**k are distinct and nonzero for k < K and zero from
        K on, where K = max ceil(e_p / v_p(base)) over p**e_p exactly dividing
        n1; mod n2 the base is a unit of order L.  So the classes from
        k = start on are max(0, K - start) tail classes plus L periodic ones.
        """
        n1, k_zero = 1, 0
        for p, e in factor(n):
            v = valuation(self.base, p)
            if v:
                n1 *= p**e
                k_zero = max(k_zero, -(-e // v))
        n2 = n // n1
        return max(0, k_zero - self.start) + multiplicative_order(self.base % n2, n2)

    def value_in_class(self, rho: int, n: int):
        seen = set()
        k = self.start
        r = pow(self.base, k, n)
        while r not in seen:
            if r == rho:
                return self.base**k
            seen.add(r)
            k += 1
            r = r * self.base % n
        return None

    def spec_text(self) -> str:
        return f"geometric:{self.base}:{self.start}" if self.start != 1 else f"geometric:{self.base}"


@record
class Explicit:
    """A finite, strictly increasing list of parameter values."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("explicit parameter list must be non-empty")
        if any(v < 1 for v in self.values):
            raise ValueError("parameters must be positive")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("explicit parameter list must be strictly increasing")

    is_infinite = False
    factors = False

    def __contains__(self, t: int) -> bool:
        return t in self.values

    def values_up_to(self, bound: int) -> list[int]:
        return [v for v in self.values if v <= bound]

    def min_value(self) -> int:
        return self.values[0]

    def delta(self) -> int:
        """gcd of the differences to the least value (0 for a single value)."""
        return gcd(*(v - self.values[0] for v in self.values))

    def candidates(self, constraints) -> list[int]:
        if all(v == 0 for v, _ in constraints):
            raise ValueError("all constraint values are zero")
        return [
            t
            for t in self.values
            if all(v == 0 or v % t**e == 0 for v, e in constraints)
        ]

    def divides(self, v: int) -> bool:
        return any(v % t == 0 for t in self.values)

    def power_hits(self, v0: int, n: int, e: int) -> bytearray:
        """Flags over v0, ..., v0 + n - 1: 1 where some listed t has t**e | v
        (as Primes.power_hits): one progression per value."""
        return _multiples_in_run(v0, n, {t**e for t in self.values})

    def residues_mod(self, n: int) -> set[int]:
        return {v % n for v in self.values}

    def class_count(self, n: int) -> int:
        return len(self.residues_mod(n))

    def value_in_class(self, rho: int, n: int):
        return next((v for v in self.values if v % n == rho), None)

    def spec_text(self) -> str:
        return "explicit:" + ",".join(map(str, self.values))


ParamSeq = Primes | Geometric | Explicit


# ---------------------------------------------------------------------------
# entries


@record
class CoprimeFamily:
    """An infinite pairwise coprime subfamily of an entry: the rule that
    gives it and its first members."""

    rule: str
    sample: tuple[Lattice, ...]


@record
class Static:
    """A single lattice member, which answers the whole entry protocol."""

    lattice: Lattice

    is_infinite = False
    factors = False  # line_pieces never factors (see windows.covered_flags)
    span_word = "member"

    def __post_init__(self):
        if not self.lattice.is_proper():
            raise ValueError("family members must be proper (index >= 2)")

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def is_rectangular(self) -> bool:
        return self.lattice.is_diagonal()

    def covered(self, p) -> bool:
        return self.lattice.contains(p)

    def member_containing(self, p):
        return self.lattice if self.covered(p) else None

    def instances_up_to(self, bound: int) -> list[Lattice]:
        lat = self.lattice
        return [lat] if lat.index <= bound else []

    def line_pieces(self, prefix, power_hits):
        """How the one member meets the line prefix x Z (as
        Template.line_pieces): back-substitution through the prefix
        rows leaves one progression, or none."""
        basis = self.lattice.basis
        res = list(prefix) + [0]
        for i in range(len(prefix)):
            if res[i] % basis[i][i]:
                return []
            w = res[i] // basis[i][i]
            for j in range(i + 1, len(res)):
                res[j] -= w * basis[j][i]
        return [(-res[-1], basis[-1][-1], None)]

    def span(self) -> Lattice:
        """The lattice the members generate: the one member."""
        return self.lattice

    def schema(self) -> list[Lattice]:
        """The one member, which is its own cover (see Template.schema)."""
        return [self.lattice]

    def classes_mod(self, n: int, limit: int):
        lat = self.lattice
        return iter([(f"member {lat.to_columns()}", list(lat.columns), None)])

    def class_member(self, parameter, n: int) -> Lattice:
        return self.lattice

    def spec_line(self) -> str:
        """A ``rect`` line for a diagonal lattice, else a ``static`` line."""
        if self.lattice.is_diagonal():
            return f"rect {_compact(list(self.lattice.diagonal))}"
        return f"static {_compact(self.lattice.to_columns())}"


def Rectangular(entries) -> Static:
    """The entry for the diagonal lattice a_1 Z x ... x a_m Z, with
    a != (1, ..., 1) checked before the lattice is built."""
    if any(a < 1 for a in entries):
        raise ValueError("rectangular entries must be positive")
    if all(a == 1 for a in entries):
        raise ValueError("the all-ones pattern is not a proper lattice")
    return Static(Lattice.from_diagonal(entries))


@record
class RectEntry:
    """One diagonal slot of a rectangular template: the value c * t**e."""

    coeff: int = 1
    exp: int = 0

    def __post_init__(self):
        if self.coeff < 1 or self.exp < 0:
            raise ValueError("slot must be c * t**e with c >= 1 and e >= 0")

    def __str__(self):
        if self.exp == 0:
            return str(self.coeff)
        c = "" if self.coeff == 1 else str(self.coeff)
        return f"{c}t" if self.exp == 1 else f"{c}t^{self.exp}"


@record
class Template:
    """Lattices over a parameter sequence: member t is the canonical
    triangular base with row i's diagonal entry multiplied by t**exps[i].

    A diagonal base may scale any rows by any powers (the ``recttemplate``
    line); any other base scales exactly one row, by t (the ``template``
    line).  The rest of a scaled column, below the diagonal, is shared by
    every member.
    """

    base: Lattice
    exps: tuple[int, ...]
    params: ParamSeq

    span_word = "span"

    def __post_init__(self):
        if len(self.exps) != self.base.dim or min(self.exps) < 0:
            raise ValueError("a template needs one exponent e >= 0 per row")
        if not any(self.exps):
            raise ValueError("a template needs at least one parameterized slot")
        if not self.base.is_diagonal() and sorted(self.exps) != [0] * (self.dim - 1) + [1]:
            raise ValueError("a non-diagonal base scales exactly one row, by t")
        if self.base.index < 2 and 1 in self.params:
            raise ValueError("parameter 1 would instantiate an improper member")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def is_infinite(self) -> bool:
        return self.params.is_infinite

    @property
    def factors(self) -> bool:
        return self.params.factors

    @property
    def is_rectangular(self) -> bool:
        return self.base.is_diagonal()

    def classes_mod(self, n: int, limit: int):
        """(label, columns, parameter) for every member class modulo n.

        Two parameters congruent mod n generate the same subgroup once
        n*Z^m is added, so finitely many classes cover an infinite entry
        exactly.  The columns leave n*Z^m out: every caller adds it, or a
        lattice of index n that contains it.  The parameter is a value of a
        finite sequence, else a residue; ``class_member`` turns it into a
        concrete member only when one is needed.  Raises TooLargeError,
        before any class is built, when an infinite sequence has more than
        ``limit`` classes mod n.
        """
        params = self.params
        if not params.is_infinite:
            return ((f"t={t}", self.member_columns(t), t) for t in params.values)
        count = params.class_count(n)
        if count > limit:
            raise TooLargeError(
                f"{count} parameter classes modulo {n} exceed the limit {limit}",
                check="member classes", limit_name="limit", limit=limit, count=count,
            )
        return (
            (f"t={rho} (mod {n})", self.member_columns(rho), rho)
            for rho in sorted(params.residues_mod(n))
        )

    def class_member(self, parameter, n: int):
        """A member in the class ``classes_mod(n)`` yielded with this
        parameter, or None when the sequence has no value in it."""
        if self.params.is_infinite:
            parameter = self.params.value_in_class(parameter, n)
        return None if parameter is None else self.member(parameter)

    def instances_up_to(self, bound: int) -> list[Lattice]:
        """Every member of index <= bound, by increasing parameter: member t
        has index index(base) * t**E, E the sum of the exponents.
        ``__post_init__`` rejects the parameter that gives an improper
        member, so no member needs filtering."""
        top = iroot(max(bound, 0) // self.base.index, sum(self.exps))
        return [self.member(t) for t in self.params.values_up_to(top)]

    def schema(self):
        """What the schema proves about the members: a cover, a
        CoprimeFamily, or None when it proves neither.

        A cover is a list of proper lattices holding every member: the
        members themselves for a finite sequence.  For an infinite entry it
        is the span when that is proper, so no two members are coprime.
        Otherwise, with the identity base over primes, distinct primes give
        coordinatewise coprime members, a CoprimeFamily; any other base
        proves no coprime family here (geometric powers share the base, so
        their span is proper).
        """
        params = self.params
        if not params.is_infinite:
            return [self.member(t) for t in params.values]
        span = self.span()
        if span.is_proper():
            return [span]
        if self.base.index > 1 or not isinstance(params, Primes):
            return None
        sample = tuple(self.member(t) for t in params.values_up_to(30)[:4])
        rule = (
            f"members diag({', '.join(map(str, self._slots()))}) over {params.describe()}: "
            "distinct prime parameters give pairwise coprime members"
        )
        return CoprimeFamily(rule, sample)

    @cached_property
    def _rows(self):
        """Per row i: its diagonal entry, its exponent, and the nonzero
        entries (j, b) of its column below the diagonal."""
        basis = self.base.basis
        return tuple(
            (basis[i][i], e, tuple((j, basis[j][i]) for j in range(i + 1, len(basis)) if basis[j][i]))
            for i, e in enumerate(self.exps)
        )

    def member(self, t: int) -> Lattice:
        """The member for t, from the base's rows: scaling diagonal entries
        by t**e >= 1 keeps the off-diagonal entries reduced, so no hnf is
        needed."""
        return Lattice(tuple(
            row[:i] + (row[i] * t**e,) + row[i + 1 :] if e else row
            for i, (row, e) in enumerate(zip(self.base.basis, self.exps))
        ))

    def member_columns(self, t: int) -> list[list[int]]:
        """Member t's columns, for any integer t (a residue may be 0)."""
        cols = [list(c) for c in self.base.columns]
        for i, e in enumerate(self.exps):
            cols[i][i] *= t**e
        return cols

    def _eliminate(self, p, rows: int) -> list:
        """Back-substitution of p through the first ``rows`` rows of the
        members: (t, constraints, rest) for every branch that survives, by
        increasing t, where rest is, on the later rows, p less the
        combination of member columns that matches p on those rows.

        A scaled row of exponent e whose quotient w is not 0 is handled in
        one of two ways.  With no entry below the diagonal in its column,
        the coefficient w / t**e reaches no later row, so the branch defers:
        it goes on with (w, e) added to its constraints, which ``_holds``
        and ``_least_param`` resolve.  Otherwise it forks over the
        parameters t with t**e | w, each fork going on with the coefficient
        w / t**e.  t is None on a branch that has not forked.  Only a
        non-diagonal base forks, and it has one scaled row, so a fork meets
        no other scaled row and its constraints stay empty.  Raises
        ValueError for a point of another dimension.
        """
        table = self._rows
        if len(p) != len(table):
            raise ValueError("point dimension mismatch")
        done, todo = [], [(None, [], list(p), 0)]
        while todo:  # depth first, the least t on top
            t, constraints, res, start = todo.pop()
            for i in range(start, rows):
                d, e, below = table[i]
                w, rem = divmod(res[i], d)
                if rem:
                    break
                if e and w:
                    if below:
                        for t in sorted(self.params.candidates(((w, e),)), reverse=True):
                            fork = res[:]
                            for j, b in below:
                                fork[j] -= w // t**e * b
                            todo.append((t, [], fork, i + 1))
                        break
                    constraints.append((w, e))
                else:
                    for j, b in below:
                        res[j] -= w * b
            else:
                done.append((t, constraints, res))
        return done

    def _probe_first(self, constraints) -> bool:
        # Huge constraint values would make the exact candidate computation
        # factor astronomically large numbers; small primes are tried directly
        # first, so membership that holds via one of them stays cheap.
        return self.params.factors and any(
            abs(v).bit_length() > 64 for v, _ in constraints
        )

    def _least_param(self, constraints):
        """The least parameter t with t**e | v for every (v, e), or None."""
        if all(v == 0 for v, _ in constraints):
            return self.params.min_value()  # zero is divisible by every parameter value
        if self._probe_first(constraints):
            for t in self.params.values_up_to(_PROBE_BOUND):
                if all(v % t**e == 0 for v, e in constraints):
                    return t
            extra = (t for t in self.params.candidates(constraints) if t > _PROBE_BOUND)
            return min(extra, default=None)
        return min(self.params.candidates(constraints), default=None)

    def _holds(self, constraints) -> bool:
        """Whether some parameter t has t**e | v for every (v, e).  With
        every exponent 1 that is whether some parameter divides the gcd of
        the values (0 without constraints), which needs no factoring."""
        g = 0
        for v, e in constraints:
            if e != 1:
                return self._least_param(constraints) is not None
            g = gcd(g, v)
        return self.params.divides(g)

    def covered(self, p) -> bool:
        for _, constraints, _ in self._eliminate(p, len(self._rows)):
            if self._holds(constraints):
                return True
        return False

    def member_containing(self, p):
        """The member of the least parameter that holds p, or None.  A
        branch that has not forked is the only one, so the first branch
        with a parameter gives the least."""
        for t, constraints, _ in self._eliminate(p, len(self._rows)):
            if t is None:
                t = self._least_param(constraints)
            if t is not None:
                return self.member(t)
        return None

    def line_pieces(self, prefix, power_hits):
        """How the entry meets the line prefix x Z: a list of (s, d, hits),
        each covering the x = s (mod d) on the line; all of them when hits
        is None, else those x = s + (v0 + i) * d that hits(v0, n) flags.

        power_hits is the sequence's power_hits, or a caching stand-in for
        it.  ``_eliminate`` through the prefix rows leaves each branch its
        constraints and the last coordinate -s; the last row has diagonal
        entry d and exponent e.  With e = 0 the prefix alone decides, and
        branches that force the same progression are merged.  Otherwise no
        row before the last forks, so one branch at most is left, and the
        condition on the cell x is t**e | (x - s) / d.  Without
        constraints that is the same run of values on every such line.  With
        constraints, a sequence that never factors lists their candidates
        t, each covering x = s (mod d * t**e); over primes each cell adds
        (x - s) / d to the constraints and asks _holds, whose gcd stays
        small where the prefix values are huge.
        """
        d, e, _ = self._rows[-1]
        branches = self._eliminate((*prefix, 0), len(prefix))
        if not e:
            return [(s, d, None) for s in {-res[-1] % d for _, head, res in branches if self._holds(head)}]
        pieces = []
        for _, head, res in branches:
            s = -res[-1]
            if not head:
                pieces.append((s, d, partial(power_hits, e=e)))
            elif not self.factors:
                pieces += [(s, d * t**e, None) for t in self.params.candidates(head)]
            else:
                pieces.append((s, d, partial(self._hits, head, e)))
        return pieces

    def _hits(self, head, e, v0, n):
        """line_pieces' flags over the values v0, ..., v0 + n - 1: whether
        some parameter satisfies the constraints head and t**e | v."""
        return bytearray(self._holds(head + [(v, e)]) for v in range(v0, v0 + n))

    def span(self) -> Lattice:
        """The lattice the members generate: member t0's columns plus
        c * delta**e * e_i for each scaled row i, with t0 the least
        parameter, delta the gcd of t - t0 over the sequence, c the row's
        diagonal entry and e its exponent.  With e = 1 column i is affine in
        t, so it moves by (t - t0) * c * e_i from member t0 to member t.
        With e >= 2 the base is diagonal, and the span's entry c * g**e
        (g = gcd(t0, delta) the gcd of the parameters, g**e that of the
        t**e) is the gcd of c * t0**e and c * delta**e."""
        delta = self.params.delta()
        extra = [
            tuple(d * delta**e if j == i else 0 for j in range(self.dim))
            for i, (d, e, _) in enumerate(self._rows)
            if e
        ]
        return hnf(self.member_columns(self.params.min_value()) + extra, dim=self.dim)

    def _slots(self) -> list[RectEntry]:
        """The diagonal slots c * t**e of a diagonal base."""
        return [RectEntry(c, e) for c, e in zip(self.base.diagonal, self.exps)]

    def spec_line(self) -> str:
        params = f"params={self.params.spec_text()}"
        if self.base.is_diagonal():
            return f"recttemplate [{','.join(map(str, self._slots()))}] {params}"
        pos = self.exps.index(1) + 1
        return f"template base={_compact(self.base.to_columns())} scale=({pos},{pos}) {params}"


def RectTemplate(slots, params: ParamSeq) -> Template:
    """The template diag(c_1 t**e_1, ..., c_m t**e_m) over params, from its
    slots c * t**e."""
    return Template(Lattice.from_diagonal(tuple(s.coeff for s in slots)), tuple(s.exp for s in slots), params)


Entry = Static | Template


# ---------------------------------------------------------------------------
# family specifications


@record
class FamilySpec:
    """A finite description of a (possibly infinite) family of lattices.

    ``transform``, when present, maps every described entry through a
    unimodular change of coordinates.  The entries stay in their own (entry)
    coordinates; membership pulls points back through the inverse, and
    ``image`` is the one map of a lattice forward, so evaluation stays exact.
    """

    dim: int
    entries: tuple[Entry, ...]
    transform: UnimodularMap | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        for e in self.entries:
            if e.dim != self.dim:
                raise ValueError("entry dimension mismatch")
        if self.transform is not None:
            if self.transform.dim != self.dim:
                raise ValueError("transform dimension mismatch")
            object.__setattr__(self, "_inverse", self.transform.inverse())

    def pullback(self, p) -> Point:
        """The point in entry coordinates: p itself, or its image under the inverse transform."""
        p = as_point(p)
        if len(p) != self.dim:
            raise ValueError("point dimension mismatch")
        if self.transform is None:
            return p
        return self._inverse.apply_point(p)  # type: ignore[attr-defined]

    def image(self, lattice: Lattice) -> Lattice:
        """The lattice, given in entry coordinates, in family coordinates:
        itself, or its image under the transform."""
        return lattice if self.transform is None else self.transform.apply(lattice)

    def covered(self, p) -> bool:
        """True when the point lies in some member of the family."""
        q = self.pullback(p)
        return any(e.covered(q) for e in self.entries)

    def coordinates(self) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
        """Rows of A and of its inverse, where x = A q takes entry
        coordinates q to the family's: the transform, else the identity."""
        if self.transform is None:
            identity = tuple(tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim))
            return identity, identity
        return self.transform.rows, self._inverse.rows  # type: ignore[attr-defined]

    def free(self, p) -> bool:
        return not self.covered(p)

    def eta(self, p) -> int:
        """Indicator bit of the free set: 1 on free points, 0 on covered ones."""
        return 0 if self.covered(p) else 1

    def member_containing(self, p):
        """Some member lattice containing p (first entry, smallest parameter), or None."""
        q = self.pullback(p)
        for e in self.entries:
            found = e.member_containing(q)
            if found is not None:
                return self.image(found)
        return None

    def instances_up_to(self, bound: int) -> list[Lattice]:
        """All members with index <= bound, deduplicated, sorted by (index, basis)."""
        seen = {}
        for e in self.entries:
            for lat in map(self.image, e.instances_up_to(bound)):
                seen[lat.basis] = lat
        return sorted(seen.values(), key=lambda l: (l.index, l.basis))


# ---------------------------------------------------------------------------
# presets

#: Built-in example families; see ``preset``.
PRESET_NAMES = ("ex2", "ex1", "squarefree-1d", "rect-demo")


def preset(name: str) -> FamilySpec:
    """Documented example families.

    * ``ex2``: 2Z x Z, Z x 2Z, and (1,1)Z + (0,2p)Z over all primes p.  Its
      free set is the pair of diagonals {(a, a +/- 2) : a odd}.
    * ``ex1``: (1,1)Z + (0,2)Z, Z x 2Z, (2p,1)Z + (0,2)Z over odd primes,
      and (2^(i+1),1)Z + (0,2)Z for i >= 1.  Its free set is
      {-2, 0, 2} x (odd integers).
    * ``squarefree-1d``: the squares p^2 Z over all primes; free points are
      the squarefree integers.
    * ``rect-demo``: the five diagonal lattices p Z x p Z for p in
      {2, 3, 5, 7, 11}.
    """
    if name == "ex2":
        return FamilySpec(
            dim=2,
            entries=(
                Rectangular((2, 1)),
                Rectangular((1, 2)),
                Template(base=hnf([(1, 1), (0, 2)]), exps=(0, 1), params=Primes()),
            ),
        )
    if name == "ex1":
        return FamilySpec(
            dim=2,
            entries=(
                Static(hnf([(1, 1), (0, 2)])),
                Rectangular((1, 2)),
                Template(base=hnf([(2, 1), (0, 2)]), exps=(1, 0), params=odd_primes()),
                Template(base=hnf([(2, 1), (0, 2)]), exps=(1, 0), params=Geometric(2, 1)),
            ),
        )
    if name == "squarefree-1d":
        return FamilySpec(dim=1, entries=(RectTemplate((RectEntry(1, 2),), Primes()),))
    if name == "rect-demo":
        return FamilySpec(
            dim=2,
            entries=tuple(Rectangular((p, p)) for p in (2, 3, 5, 7, 11)),
        )
    raise UnknownPresetError(f"unknown preset {name!r} (choose from {', '.join(PRESET_NAMES)})")


# ---------------------------------------------------------------------------
# text format

_SLOT_RE = re.compile(r"^(?:(\d+)\s*\*?\s*)?t(?:\^(\d+))?$")


def _parse_params(text: str, line_no: int) -> ParamSeq:
    text = text.strip()
    if text.startswith("primes"):
        rest = text[len("primes"):]
        if not rest:
            return Primes()
        if rest.startswith("!"):
            try:
                excl = tuple(int(x) for x in rest[1:].split(","))
            except ValueError:
                raise FamilyParseError(line_no, f"bad exclusion list {rest[1:]!r}")
            return Primes(exclude=excl)
        raise FamilyParseError(line_no, f"bad params {text!r}")
    if text == "oddprimes":
        return odd_primes()
    if text.startswith("geometric:"):
        parts = text.split(":")[1:]
        try:
            nums = [int(x) for x in parts]
        except ValueError:
            raise FamilyParseError(line_no, f"bad geometric params {text!r}")
        if len(nums) == 1:
            return Geometric(nums[0])
        if len(nums) == 2:
            return Geometric(nums[0], nums[1])
        raise FamilyParseError(line_no, f"bad geometric params {text!r}")
    if text.startswith("explicit:"):
        try:
            vals = tuple(int(x) for x in text[len("explicit:"):].split(","))
        except ValueError:
            raise FamilyParseError(line_no, f"bad explicit params {text!r}")
        return Explicit(vals)
    raise FamilyParseError(line_no, f"unknown parameter sequence {text!r}")


def _parse_slot(text: str, line_no: int) -> RectEntry:
    text = text.strip()
    if re.fullmatch(r"\d+", text):
        return RectEntry(coeff=int(text), exp=0)
    m = _SLOT_RE.fullmatch(text)
    if not m:
        raise FamilyParseError(line_no, f"bad template slot {text!r}")
    coeff = int(m.group(1)) if m.group(1) else 1
    exp = int(m.group(2)) if m.group(2) else 1
    return RectEntry(coeff=coeff, exp=exp)


def _parse_ints(text: str, line_no: int, nested: bool):
    """The JSON list of integers in text, or with ``nested`` the list of
    such lists (a matrix).  Only JSON integers are taken: int() would turn
    a float, boolean or string into a number the user did not write."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise FamilyParseError(line_no, f"bad list literal {text!r}")
    rows = obj if nested and isinstance(obj, list) else [obj]
    if not all(isinstance(r, list) and all(type(x) is int for x in r) for r in rows):
        shape = "a list of integer lists" if nested else "a list of integers"
        raise FamilyParseError(line_no, f"{text!r} is not {shape}")
    return obj


def parse_family(text: str) -> FamilySpec:
    """Parse the one-entry-per-line family format.

    ::

        # comment
        dim 2
        static [[2,0],[0,1]]
        rect [1,2]
        template base=[[1,1],[0,2]] scale=(2,2) params=primes
        recttemplate [t,2] params=geometric:2
        transform [[1,0],[1,1]]

    Matrices are given as lists of basis columns (a transform by its rows),
    with JSON integers only.  Improper entries (index 1), entries or a
    transform of another dimension than the one ``dim`` line, a second
    ``transform`` line, and numbers that are not integers are rejected with
    a diagnostic naming the offending line.
    """
    dim = None
    entries: list[Entry] = []
    transform = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if key == "dim":
                if dim is not None:
                    raise FamilyParseError(line_no, "repeated dim line")
                dim = int(rest)
                if dim < 1:
                    raise FamilyParseError(line_no, "dimension must be positive")
                continue
            if dim is None:
                raise FamilyParseError(line_no, "dim must come before entries")
            if key == "static":
                item = Static(hnf(_parse_ints(rest, line_no, nested=True), dim=dim))
            elif key == "rect":
                item = Rectangular(tuple(_parse_ints(rest, line_no, nested=False)))
            elif key == "template":
                fields = dict(re.findall(r"(\w+)=(\S+)", rest))
                if set(fields) != {"base", "scale", "params"}:
                    raise FamilyParseError(line_no, "template needs base=, scale=, params=")
                base = hnf(_parse_ints(fields["base"], line_no, nested=True), dim=dim)
                mscale = re.fullmatch(r"\((\d+),(\d+)\)", fields["scale"])
                if not mscale or mscale.group(1) != mscale.group(2):
                    raise FamilyParseError(line_no, "scale must be a diagonal position (r,r)")
                row = int(mscale.group(1)) - 1
                if not 0 <= row < dim:
                    raise FamilyParseError(line_no, "scaled position out of range")
                item = Template(base, tuple(int(i == row) for i in range(dim)), _parse_params(fields["params"], line_no))
            elif key == "recttemplate":
                mrow = re.fullmatch(r"\[(.*)\]\s+params=(\S+)", rest)
                if not mrow:
                    raise FamilyParseError(line_no, "recttemplate needs [slots] params=...")
                slots = tuple(_parse_slot(s, line_no) for s in mrow.group(1).split(","))
                item = RectTemplate(slots, _parse_params(mrow.group(2), line_no))
            elif key == "transform":
                item = UnimodularMap(tuple(map(tuple, _parse_ints(rest, line_no, nested=True))))
            else:
                raise FamilyParseError(line_no, f"unknown entry kind {key!r}")
            if item.dim != dim:
                raise FamilyParseError(line_no, f"{key} of dimension {item.dim} in a family of dimension {dim}")
            if key == "transform":
                if transform is not None:
                    raise FamilyParseError(line_no, "repeated transform line")
                transform = item
            else:
                entries.append(item)
        except FamilyParseError:
            raise
        except (ValueError, TypeError) as exc:
            raise FamilyParseError(line_no, str(exc)) from exc
    if dim is None:
        raise FamilyParseError(0, "missing dim line")
    return FamilySpec(dim=dim, entries=tuple(entries), transform=transform)


def format_family(spec: FamilySpec) -> str:
    """Inverse of parse_family, up to whitespace."""
    lines = [f"dim {spec.dim}"] + [e.spec_line() for e in spec.entries]
    if spec.transform is not None:
        lines.append(f"transform {_compact(spec.transform.to_rows())}")
    return "\n".join(lines) + "\n"


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))
