"""Finite descriptions of (possibly infinite) families of lattices.

A family is a list of entries, each one of:

* ``Static`` -- a single lattice, given explicitly;
* ``Rectangular`` -- a single diagonal lattice a_1 Z x ... x a_m Z;
* ``Template`` -- a triangular base matrix whose single scaled diagonal
  entry is multiplied by a parameter t running over a sequence;
* ``RectTemplate`` -- a diagonal pattern whose slots are c * t**e, again
  over a parameter sequence.

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
candidate parameters, so no sampling or truncation is involved.  Each
template kind has one elimination that reads those constraints
(``Template._eliminate``, ``RectTemplate._constraints``); its point questions
run it on the whole point, and ``line_pieces`` runs it on a line's prefix.

A family may carry a unimodular change of coordinates; the described family
is then the image of every entry under that map.  Membership pulls points
back through the inverse, and ``FamilySpec.image`` maps lattices forward.
"""

import json
import re
from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd, prod

from .errors import FamilyParseError, TooLargeError, UnknownPresetError
from .lattices import Lattice, Point, UnimodularMap, as_point, hnf
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


# ---------------------------------------------------------------------------
# parameter sequences


def _multiples_in_run(v0: int, n: int, moduli) -> bytearray:
    """Flags over v0, ..., v0 + n - 1: 1 where some modulus divides v."""
    hits = bytearray(n)
    for q in moduli:
        first = -v0 % q
        hits[first::q] = b"\x01" * len(range(first, n, q))
    return hits


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def describe(self) -> str:
        return f"powers {self.base}^k, k >= {self.start}"

    def spec_text(self) -> str:
        return f"geometric:{self.base}:{self.start}" if self.start != 1 else f"geometric:{self.base}"


@dataclass(frozen=True)
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

    def describe(self) -> str:
        return "{%s}" % ", ".join(map(str, self.values))

    def spec_text(self) -> str:
        return "explicit:" + ",".join(map(str, self.values))


ParamSeq = Primes | Geometric | Explicit


# ---------------------------------------------------------------------------
# entries


@dataclass(frozen=True)
class CoprimeFamily:
    """An infinite pairwise coprime subfamily of an entry: the rule that
    gives it and its first members."""

    rule: str
    sample: tuple[Lattice, ...]


class _OneMember:
    """Entry protocol of the single-lattice kinds, read off ``self.lattice``."""

    is_infinite = False
    factors = False  # line_pieces never factors (see windows.covered_flags)
    span_word = "member"

    def member_containing(self, p):
        return self.lattice if self.covered(p) else None

    def instances_up_to(self, bound: int) -> list[Lattice]:
        lat = self.lattice
        return [lat] if lat.index <= bound else []

    def line_pieces(self, prefix, power_hits):
        """How the one member meets the line prefix x Z (as
        RectTemplate.line_pieces): back-substitution through the prefix
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
        """The one member, which is its own cover (see _Parameterised.schema)."""
        return [self.lattice]

    def classes_mod(self, n: int, limit: int):
        lat = self.lattice
        return iter([(f"member {lat.to_columns()}", list(lat.columns), None)])

    def class_member(self, parameter, n: int) -> Lattice:
        return self.lattice


@dataclass(frozen=True)
class Static(_OneMember):
    """A single lattice member."""

    lattice: Lattice

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

    def spec_line(self) -> str:
        return f"static {_compact(self.lattice.to_columns())}"


@dataclass(frozen=True)
class Rectangular(_OneMember):
    """The diagonal lattice a_1 Z x ... x a_m Z with a != (1, ..., 1)."""

    entries: tuple[int, ...]

    is_rectangular = True

    def __post_init__(self):
        if any(a < 1 for a in self.entries):
            raise ValueError("rectangular entries must be positive")
        if all(a == 1 for a in self.entries):
            raise ValueError("the all-ones pattern is not a proper lattice")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def lattice(self) -> Lattice:
        return Lattice.from_diagonal(self.entries)

    def covered(self, p) -> bool:
        if len(p) != len(self.entries):
            raise ValueError("point dimension mismatch")
        return all(x % a == 0 for x, a in zip(p, self.entries))

    def spec_line(self) -> str:
        return f"rect {_compact(list(self.entries))}"


@dataclass(frozen=True)
class RectEntry:
    """One diagonal slot of a rectangular template: the value c * t**e."""

    coeff: int = 1
    exp: int = 0

    def __post_init__(self):
        if self.coeff < 1 or self.exp < 0:
            raise ValueError("slot must be c * t**e with c >= 1 and e >= 0")

    def value(self, t: int) -> int:
        return self.coeff * t**self.exp

    def __str__(self):
        if self.exp == 0:
            return str(self.coeff)
        c = "" if self.coeff == 1 else str(self.coeff)
        return f"{c}t" if self.exp == 1 else f"{c}t^{self.exp}"


class _Parameterised:
    """Entry protocol of the template kinds, read off ``params``,
    ``member(t)``, ``member_columns(t)``, ``_parameter_bound(bound)``,
    ``span()`` and ``_coprime_family()``."""

    span_word = "span"

    @property
    def is_infinite(self) -> bool:
        return self.params.is_infinite

    @property
    def factors(self) -> bool:
        return self.params.factors

    def _members(self) -> list[Lattice]:
        """Every member, for a finite sequence."""
        return [self.member(t) for t in self.params.values]

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
            raise TooLargeError(f"{count} parameter classes modulo {n} exceed the limit {limit}")
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
        """Every member of index <= bound, by increasing parameter.  Each
        ``__post_init__`` rejects the parameters that give an improper
        member, so no member needs filtering."""
        return [self.member(t) for t in self.params.values_up_to(self._parameter_bound(bound))]

    def schema(self):
        """What the schema proves about the members: a cover, a
        CoprimeFamily, or None when it proves neither.

        A cover is a list of proper lattices holding every member: the
        members themselves for a finite sequence.  For an infinite entry it
        is the span when that is proper, so no two members are coprime;
        otherwise the answer is ``_coprime_family()``.
        """
        if not self.params.is_infinite:
            return self._members()
        span = self.span()
        return [span] if span.is_proper() else self._coprime_family()


@dataclass(frozen=True)
class RectTemplate(_Parameterised):
    """Diagonal lattices diag(c_1 t**e_1, ..., c_m t**e_m) over a parameter sequence."""

    entries: tuple[RectEntry, ...]
    params: ParamSeq

    is_rectangular = True

    def __post_init__(self):
        if not any(s.exp >= 1 for s in self.entries):
            raise ValueError("a rectangular template needs at least one parameterized slot")
        if all(s.coeff == 1 for s in self.entries) and 1 in self.params:
            raise ValueError("parameter 1 would instantiate the improper all-ones member")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def member(self, t: int) -> Lattice:
        return Lattice.from_diagonal(tuple(s.value(t) for s in self.entries))

    def member_columns(self, t: int) -> list[Point]:
        m = self.dim
        return [tuple(s.value(t) if i == j else 0 for i in range(m)) for j, s in enumerate(self.entries)]

    def _parameter_bound(self, bound: int) -> int:
        """The largest t with c * t**E <= bound: c the product of the
        coefficients, E the sum of the exponents (at least 1)."""
        const = prod(s.coeff for s in self.entries)
        return iroot(max(bound, 0) // const, sum(s.exp for s in self.entries))

    def _constraints(self, p):
        """Per-slot divisibility data for the leading slots that p fills
        (every slot for a point, all but the last for a line's prefix), or
        None when a constant slot fails."""
        constraints = []
        for s, x in zip(self.entries, p):
            if x % s.coeff:
                return None
            if s.exp >= 1:
                constraints.append((x // s.coeff, s.exp))
        return constraints

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
        the values, which needs no factoring."""
        if all(e == 1 for _, e in constraints):
            return self.params.divides(gcd(*(v for v, _ in constraints)))
        return self._least_param(constraints) is not None

    def covered(self, p) -> bool:
        if len(p) != self.dim:
            raise ValueError("point dimension mismatch")
        constraints = self._constraints(p)
        return constraints is not None and self._holds(constraints)

    def member_containing(self, p):
        if len(p) != self.dim:
            raise ValueError("point dimension mismatch")
        constraints = self._constraints(p)
        t = None if constraints is None else self._least_param(constraints)
        return None if t is None else self.member(t)

    def line_pieces(self, prefix, power_hits):
        """How the entry meets the line prefix x Z: a list of (s, d, hits),
        each covering the x = s (mod d) on the line; all of them when hits
        is None, else those x = s + (v0 + i) * d that hits(v0, n) flags.

        power_hits is the sequence's power_hits, or a caching stand-in for
        it.  With a constant last slot the prefix alone decides.  With the
        last slot c * t**e and the parameterised prefix coordinates all 0,
        the condition is t**e | x / c, the same run of values on every such
        line.  Otherwise the prefix leaves finitely many candidates t: a
        sequence that never factors lists them, each covering x = 0 (mod
        c * t**e); over primes each cell adds x / c to the prefix
        constraints and asks _holds, whose gcd stays small where the prefix
        values are huge.
        """
        head = self._constraints(prefix)
        if head is None:
            return []
        last = self.entries[-1]
        if not last.exp:
            return [(0, last.coeff, None)] if self._holds(head) else []
        if not any(v for v, _ in head):
            return [(0, last.coeff, partial(power_hits, e=last.exp))]
        if not self.factors:
            return [(0, last.value(t), None) for t in self.params.candidates(head)]

        def hits(v0, n):
            return bytearray(self._holds(head + [(v, last.exp)]) for v in range(v0, v0 + n))

        return [(0, last.coeff, hits)]

    def span(self) -> Lattice:
        """The lattice the members generate: the diagonal of coordinatewise
        gcds c * gcd(t**e) = c * g**e over the sequence, where g, the gcd of
        the parameters, is gcd(min_value(), delta())."""
        g = gcd(self.params.min_value(), self.params.delta())
        return Lattice.from_diagonal(tuple(s.coeff * g**s.exp for s in self.entries))

    def _coprime_family(self) -> CoprimeFamily:
        """The schema answer for an infinite entry whose span is Z^m.  That
        happens only with unit coefficients over primes (geometric powers
        share the base, and parameter 1 is rejected), and then distinct
        primes give coordinatewise coprime members, so a rectangular
        template never answers None."""
        sample = tuple(self.member(t) for t in self.params.values_up_to(30)[:4])
        rule = (
            f"members diag({', '.join(str(s) for s in self.entries)}) over {self.params.describe()}: "
            "distinct prime parameters give pairwise coprime members"
        )
        return CoprimeFamily(rule, sample)

    def spec_line(self) -> str:
        slots = ",".join(str(s) for s in self.entries)
        return f"recttemplate [{slots}] params={self.params.spec_text()}"


@dataclass(frozen=True)
class Template(_Parameterised):
    """Triangular base whose scaled diagonal entry is multiplied by the parameter.

    ``scaled_row`` is the 0-indexed diagonal position; the rest of that
    column (rows below the diagonal) is shared by every member.
    """

    base: Lattice
    scaled_row: int
    params: ParamSeq

    is_rectangular = False

    def __post_init__(self):
        if not 0 <= self.scaled_row < self.base.dim:
            raise ValueError("scaled position out of range")
        if self.base.index < 2 and 1 in self.params:
            raise ValueError("parameter 1 would instantiate an improper member")

    @property
    def dim(self) -> int:
        return self.base.dim

    def member_columns(self, t: int) -> list[list[int]]:
        cols = [list(c) for c in self.base.columns]
        r = self.scaled_row
        cols[r][r] = self.base.basis[r][r] * t
        return cols

    def member(self, t: int) -> Lattice:
        """The member for t, from its canonical basis rows unchecked: scaling
        one diagonal entry by t >= 1 keeps the base's off-diagonal entries
        reduced, so no hnf is needed."""
        r = self.scaled_row
        row = list(self.base.basis[r])
        row[r] *= t
        return Lattice(self.base.basis[:r] + (tuple(row),) + self.base.basis[r + 1 :])

    def _parameter_bound(self, bound: int) -> int:
        """The largest t with index(base) * t <= bound."""
        return bound // self.base.index

    def covered(self, p) -> bool:
        """Whether some member holds p.  With the scaled row last, that is
        whether some parameter divides the last quotient, which
        ``params.divides`` answers without factoring it."""
        m = self.dim
        if self.scaled_row < m - 1:
            return bool(self._eliminate(p, m))
        d = self.base.basis[-1][-1]
        for _, res in self._eliminate(p, m - 1):  # one branch at most
            w, rem = divmod(res[-1], d)
            return not rem and self.params.divides(w)
        return False

    def member_containing(self, p):
        """The member of the least parameter that holds p, or None."""
        branches = self._eliminate(p, self.dim)
        if not branches:
            return None
        t = branches[0][0]
        return self.member(self.params.min_value() if t is None else t)

    def _eliminate(self, p, rows: int) -> list:
        """Back-substitution of p through the first ``rows`` rows of the
        members: (t, rest) for every branch that survives, by increasing t,
        where rest is p less a combination of member columns, 0 on those
        rows.  At the scaled row a branch forks over the parameters t that
        divide its quotient; t is None on a branch that has not met that
        row, or met it with quotient 0, where every member goes on alike.
        Raises ValueError for a point of another dimension."""
        basis = self.base.basis
        m = len(basis)
        if len(p) != m:
            raise ValueError("point dimension mismatch")
        r = self.scaled_row
        branches = [(None, list(p))]
        for i in range(rows):
            d = basis[i][i]
            survivors = []
            for t, res in branches:
                w, rem = divmod(res[i], d)
                if rem:
                    continue
                if i != r or not w:
                    if w:  # this row does not fork: update in place
                        for j in range(i, m):
                            res[j] -= w * basis[j][i]
                    survivors.append((t, res))
                    continue
                for t in sorted(self.params.candidates(((w, 1),))):
                    k = w // t
                    fork = res[:]
                    fork[i] = 0
                    for j in range(i + 1, m):
                        fork[j] -= k * basis[j][i]
                    survivors.append((t, fork))
            branches = survivors
        return branches

    def line_pieces(self, prefix, power_hits):
        """How the entry meets the line prefix x Z, as RectTemplate.line_pieces.

        ``_eliminate`` through the prefix rows leaves each branch the last
        coordinate -s.  With the scaled row last, some member holds the cell
        x exactly when t | (x - s) / d; otherwise the branch covers x = s
        (mod d), and branches that force the same progression are merged.
        """
        d = self.base.basis[-1][-1]
        branches = self._eliminate((*prefix, 0), self.dim - 1)
        if self.scaled_row == self.dim - 1:
            return [(-res[-1], d, partial(power_hits, e=1)) for _, res in branches]
        return [(s, d, None) for s in {-res[-1] % d for _, res in branches}]

    def span(self) -> Lattice:
        """The lattice the members generate: member t0's columns plus
        delta * c * e_r, with t0 the least parameter, delta the gcd of
        t - t0 over the sequence and c the scaled diagonal entry.  Only the
        scaled column depends on t, and it is affine in t, so it moves by
        (t - t0) * c * e_r from member t0 to member t."""
        r = self.scaled_row
        step = self.params.delta() * self.base.basis[r][r]
        extra = tuple(step if i == r else 0 for i in range(self.dim))
        return hnf(self.member_columns(self.params.min_value()) + [extra], dim=self.dim)

    def _coprime_family(self) -> None:
        """The schema proves no coprime family here."""
        return None

    def spec_line(self) -> str:
        pos = self.scaled_row + 1
        return (
            f"template base={_compact(self.base.to_columns())} scale=({pos},{pos}) "
            f"params={self.params.spec_text()}"
        )


Entry = Static | Rectangular | RectTemplate | Template


# ---------------------------------------------------------------------------
# family specifications


@dataclass(frozen=True)
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
                Template(base=hnf([(1, 1), (0, 2)]), scaled_row=1, params=Primes()),
            ),
        )
    if name == "ex1":
        return FamilySpec(
            dim=2,
            entries=(
                Static(hnf([(1, 1), (0, 2)])),
                Rectangular((1, 2)),
                Template(base=hnf([(2, 1), (0, 2)]), scaled_row=0, params=odd_primes()),
                Template(base=hnf([(2, 1), (0, 2)]), scaled_row=0, params=Geometric(2, 1)),
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
                item = Template(base, row, _parse_params(fields["params"], line_no))
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
