"""Finite descriptions of (possibly infinite) families of lattices.

A family is a list of entries, each one of:

* ``Static`` -- a single lattice: a ``static`` line gives its basis, a
  ``rect`` line its diagonal (``Rectangular`` builds one from a_1, ..., a_m);
* ``Template`` -- a triangular base matrix whose diagonal entries are
  multiplied by powers t**e of a parameter t running over a sequence: any
  powers on a diagonal base (``RectTemplate`` builds one from slots
  c * t**e), t on one row of any other base.

Every entry kind answers the same questions, each by one method:
membership, its members by increasing index (``iter_instances``, built as
they are read), ``span``, a finite entry's ``labelled_members()`` and
``schema()``, and names its span in labels by ``span_word``, so the verdict
engine never dispatches on the kind.  ``span`` is the lattice generated by
all the members, in closed form: a lattice holds every member exactly when it holds the span,
so a check settles an entry by its span or, for a finite entry, member by
member, and never by classes of parameters.  ``schema()`` is
the one answer behind verdicts: a cover (proper lattices holding every
member; the span, for an infinite entry whose span is proper), a
``CoprimeFamily`` (an infinite pairwise coprime subfamily), or None when
the schema proves neither.

Parameter sequences are primes (with optional exclusions), powers of a fixed
base, or an explicit finite list.  A finite entry (a single lattice, or a
template over a list) is its ``members`` everywhere: the point questions,
``schema()``, the covering checks and the window sieve read them by
increasing parameter.  Only the infinite sequences answer the divisibility
protocol (``candidates``, ``divides``, ``quotients_mod``, ``power_hits``):
constraints pin down finitely many candidate parameters, listed in
increasing order (primes lazily, as they are factored), so membership is
exact and the least parameter is read first.  One elimination reads them,
``Template._eliminate``; the point questions run it on the whole point,
and ``line_pieces`` on a line's prefix for the window sieve of a template
that scales a row before its last.  For one that scales only its last
row, the sieve walks the rows that the image of its base meets, along each
of which the members read a progression of coefficients that the
sequence's ``power_hits`` takes whole (``windows.covered_flags``).
The schema answers with a ``CoprimeFamily`` only for a template with the
identity base over primes, whose distinct parameters give pairwise coprime
members.  The answer holds the template and works out its rule and first
members only when they are read, which only a Proximal certificate does.

A family may carry a unimodular change of coordinates; the described family
is then the image of every entry under that map.  Membership pulls points
back through the inverse, and ``FamilySpec.image`` maps lattices forward.
"""

import json
import re
from functools import cached_property, lru_cache, partial
from itertools import count, groupby, islice, repeat
from json.encoder import encode_basestring_ascii as _json_string
from math import gcd, prod

from .errors import FamilyParseError, TooLargeError, UnknownPresetError
from .lattices import Lattice, Point, UnimodularMap, as_point, hnf, record
from .numtheory import (
    factor,
    iroot,
    is_prime,
    iter_factors,
    primes_up_to,
    trial_bound,
    valuation,
)

# The longest sieve that lists prime parameters (Primes.iter_values_up_to): a
# template's members up to an index bound are listed from it.
PRIME_SIEVE_LIMIT = 10**7

# The first sieve of Primes.iter_values_up_to; each next one is 4 times longer.
_FIRST_SIEVE = 1024


# ---------------------------------------------------------------------------
# parameter sequences


def _without(v: int, primes) -> int:
    """|v| with every factor in primes divided out (v != 0)."""
    v = abs(v)
    for p in primes:
        while v % p == 0:
            v //= p
    return v


def _quotients_by_candidates(params, w: int, n: int) -> set[int]:
    """{w / t mod n : t in params, t | w}, from the candidates t of w."""
    return {w // t % n for t in params.candidates(((w, 1),))}


def _multiples_in_run(run: range, moduli) -> bytearray:
    """Flags over the values v of the progression run: 1 where some modulus
    q divides v.  With step k and g = gcd(k, q), q | v0 + i * k needs g | v0,
    and then holds for one class of i modulo q / g."""
    n, v0, k = len(run), run.start, run.step
    hits = bytearray(n)
    for q in moduli:
        g = gcd(k, q)
        if v0 % g:
            continue
        q //= g
        first = -(v0 // g) * pow(k // g, -1, q) % q
        hits[first::q] = b"\x01" * len(range(first, n, q))
    return hits


@lru_cache(maxsize=16)
def _step_inverses(k: int, bound: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The primes p <= bound not dividing k, the inverse of k modulo each,
    and the primes p <= bound dividing k: one table per step of a run."""
    primes = primes_up_to(bound)
    coprime = tuple(p for p in primes if k % p)
    return coprime, tuple(pow(k, -1, p) for p in coprime), tuple(p for p in primes if not k % p)


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

    def iter_values_up_to(self, bound: int):
        """The members up to bound, found as they are read: sieves of length
        _FIRST_SIEVE, 4 times that, and so on up to bound, each read past
        the primes of the one before.  A reader that stops at p has sieved
        no further than max(_FIRST_SIEVE, 4p), and one that reads every
        value about 4/3 of bound.  Raises TooLargeError when called, before
        any sieve, when bound exceeds PRIME_SIEVE_LIMIT."""
        if bound > PRIME_SIEVE_LIMIT:
            raise TooLargeError(
                f"listing the primes up to {bound} exceeds the sieve limit of {PRIME_SIEVE_LIMIT}",
                check="prime parameters", limit_name="PRIME_SIEVE_LIMIT", limit=PRIME_SIEVE_LIMIT, count=bound,
            )
        return self._sieved(bound)

    def _sieved(self, bound: int):
        done, length = 0, min(bound, _FIRST_SIEVE)
        while True:
            primes = primes_up_to(length)
            yield from (p for p in primes[done:] if p not in self.exclude)
            if length >= bound:
                return
            done, length = len(primes), min(4 * length, bound)

    def min_value(self) -> int:
        return next(filter(self.__contains__, count(2)))

    def delta(self) -> int:
        """gcd of t - min_value() over the sequence: 2 when 2 is excluded,
        as every t is then odd, else 1.  Finitely many exclusions leave
        primes in every unit class (Dirichlet), so no larger divisor is
        common to the differences."""
        return 2 if 2 in self.exclude else 1

    def candidates(self, constraints):
        """All sequence members t with t**e dividing v for every (v, e)
        given, in increasing order, read lazily from the primes of the gcd
        of the v's: a reader that stops at the first factors no further.
        At least one v must be nonzero, which is checked at the call."""
        g = gcd(*(v for v, _ in constraints))
        if g == 0:
            raise ValueError("all constraint values are zero")
        return (p for p, _ in iter_factors(g) if p not in self.exclude and all(v % p**e == 0 for v, e in constraints))

    def divides(self, v: int) -> bool:
        """Whether some sequence member divides v, without factoring: v = 0,
        or |v| keeps a factor above 1 once the excluded primes are divided out."""
        return v == 0 or _without(v, self.exclude) > 1

    def quotients_mod(self, w: int, n: int) -> set[int]:
        """{w / t mod n : t a member dividing w}, for w != 0.

        For n <= 2 nothing is factored: an odd t is a unit mod 2, so
        w / t = w (mod n).  The classes are then w / 2 when 2 is a member
        dividing w, and w when some odd member divides w, that is, when |w|
        keeps a factor above 1 once 2 and the exclusions are divided out.
        For n > 2 they come from the candidates of w.
        """
        if n > 2:
            return _quotients_by_candidates(self, w, n)
        out = set()
        if w % 2 == 0 and 2 not in self.exclude:
            out.add(w // 2 % n)
        if _without(w, (2, *self.exclude)) > 1:
            out.add(w % n)
        return out

    def power_hits(self, run: range, e: int) -> bytearray:
        """Flags over the values v of the progression run (a range, of any
        nonzero step k): 1 where some member t has t**e | v.

        For e = 1 without exclusions every v but +-1 is a hit: it has a
        prime divisor, or is 0, which lies in every member; with exclusions
        it is ``divides``.  For e >= 2, p**e | v != 0 needs p <= R =
        iroot(max |v|, e); when R <= n, the run's length, the multiples of
        p**e are marked for every prime p <= R not excluded, and v = 0,
        which lies in every member, is marked too.  Otherwise the run is
        sieved by the trial primes p <= B, B the least value of at most four
        significant bits with B**(e+1) above every |v| (capped at the trial
        limit; see numtheory.trial_bound).  The values p divides are one
        class of indices modulo p, from the inverse of k modulo p: k itself
        for k = +-1, else one table per step (``_step_inverses``), whose
        build a command pays once per (k, B), as caches start empty; when
        p | k they are all the values or none.  p**e | v is a hit unless p
        is excluded, and p is divided out of v.  A cofactor r < B**(e+1)
        that is left has at most e prime factors, all above B, so a member's
        e-th power divides it exactly when r = q**e with q not excluded.
        Only a cofactor of at least B**(e+1) is factored.
        """
        n = len(run)
        if e == 1:
            if self.exclude:
                return bytearray(map(self.divides, run))
            hits = bytearray(b"\x01") * n
            for v in (-1, 1):
                if v in run:
                    hits[run.index(v)] = 0
            return hits
        if not n:
            return bytearray()
        excluded = set(self.exclude)
        top = max(abs(run[0]), abs(run[-1]))
        root = iroot(top, e)
        if root <= n:
            hits = _multiples_in_run(run, (p**e for p in primes_up_to(root) if p not in excluded))
            if 0 in run:
                hits[run.index(0)] = 1
            return hits
        bound = trial_bound(top, e + 1)
        hits = bytearray(n)
        # v = 0 keeps r = 0 = 0**e below, a hit: it lies in every member
        rest = list(map(abs, run))

        def divide(p, i, step):
            # divide p out of the values at i, i + step, ...: all multiples of p
            while i < n:
                r = rest[i]
                if r:
                    r, c = r // p, 1
                    while r % p == 0:
                        r //= p
                        c += 1
                    rest[i] = r
                    if c >= e and p not in excluded:
                        hits[i] = 1
                i += step

        v0, k = run.start, run.step
        if k in (1, -1):  # k is its own inverse: no table to build
            a = -v0 * k
            for p in primes_up_to(bound):
                i = a % p
                if i < n:
                    divide(p, i, p)
        else:
            primes, inverses, common = _step_inverses(k, bound)
            for p in common:  # p | k divides every value of the run or none
                if v0 % p == 0:
                    divide(p, 0, 1)
            for p, inverse in zip(primes, inverses):
                i = -v0 * inverse % p
                if i < n:
                    divide(p, i, p)
        top = bound ** (e + 1)
        for i, r in enumerate(rest):
            if hits[i] or r == 1:
                continue
            if r < top:
                q = iroot(r, e)
                hits[i] = q**e == r and q not in excluded
            else:
                hits[i] = any(c >= e and p not in excluded for p, c in factor(r))
        return hits

    def spec_text(self) -> str:
        """The ``params=`` text that parse_family reads back."""
        return "primes!" + ",".join(map(str, self.exclude)) if self.exclude else "primes"


def odd_primes() -> Primes:
    return Primes(exclude=(2,))


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

    def iter_values_up_to(self, bound: int):
        v = self.base**self.start
        while v <= bound:
            yield v
            v *= self.base

    def min_value(self) -> int:
        return self.base**self.start

    def delta(self) -> int:
        """gcd of base**start * (base**k - 1) over k >= 1: base - 1 divides
        each base**k - 1 and is the first."""
        return self.base**self.start * (self.base - 1)

    def candidates(self, constraints) -> list[int]:
        """All members t with t**e dividing v for every (v, e) given, in
        increasing order; at least one v must be nonzero."""
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

    quotients_mod = _quotients_by_candidates

    def power_hits(self, run: range, e: int) -> bytearray:
        """Flags over the values v of the progression run: 1 where some
        member t has t**e | v (as Primes.power_hits).  Every member is a
        multiple of base**start, so that is base**(start*e) | v: one class
        of indices, no factoring."""
        return _multiples_in_run(run, (self.base ** (self.start * e),))

    def spec_text(self) -> str:
        return f"geometric:{self.base}:{self.start}" if self.start != 1 else f"geometric:{self.base}"


@record
class Explicit:
    """A finite, strictly increasing list of parameter values: a template
    over it is read member by member, so it needs no divisibility protocol."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("explicit parameter list must be non-empty")
        if any(v < 1 for v in self.values):
            raise ValueError("parameters must be positive")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("explicit parameter list must be strictly increasing")

    is_infinite = False

    def __contains__(self, t: int) -> bool:
        return t in self.values

    def iter_values_up_to(self, bound: int):
        return (v for v in self.values if v <= bound)

    def min_value(self) -> int:
        return self.values[0]

    def delta(self) -> int:
        """gcd of the differences to the least value (0 for a single value)."""
        return gcd(*(v - self.values[0] for v in self.values))

    def spec_text(self) -> str:
        return "explicit:" + ",".join(map(str, self.values))


ParamSeq = Primes | Geometric | Explicit


# ---------------------------------------------------------------------------
# entries


@record
class CoprimeFamily:
    """An infinite pairwise coprime subfamily of an entry: the members of a
    template with the identity base over primes.  Its rule and its first
    members are worked out when read, so an answer costs only the kind."""

    template: "Template"

    @property
    def rule(self) -> str:
        slots = ", ".join(map(str, self.template._slots()))
        exclude = self.template.params.exclude
        over = "primes excluding {%s}" % ", ".join(map(str, exclude)) if exclude else "all primes"
        return f"members diag({slots}) over {over}: distinct prime parameters give pairwise coprime members"

    @property
    def sample(self) -> tuple[Lattice, ...]:
        template = self.template
        return tuple(map(template.member, islice(template.params.iter_values_up_to(30), 4)))


@record
class Static:
    """A single lattice member, which answers the whole entry protocol."""

    lattice: Lattice

    is_infinite = False
    span_word = "member"

    def __post_init__(self):
        if self.lattice.index < 2:
            raise ValueError("family members must be proper (index >= 2)")
        self.__dict__["members"] = (self.lattice,)  # a plain attribute: windows read it per box

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def covered(self, p) -> bool:
        return self.lattice.contains(p)

    def member_containing(self, p):
        return self.lattice if self.covered(p) else None

    def iter_instances(self, bound: int):
        """The one member, if its index is at most bound."""
        lat = self.lattice
        return iter([lat] if lat.index <= bound else [])

    @property
    def span(self) -> Lattice:
        """The lattice the members generate: the one member."""
        return self.lattice

    def schema(self) -> list[Lattice]:
        """The one member, which is its own cover (see Template.schema)."""
        return [self.lattice]

    def labelled_members(self):
        """(label, member) for the one member."""
        return [(f"member {self.lattice.to_columns()}", self.lattice)]

    def spec_line(self) -> str:
        """A ``rect`` line for a diagonal lattice, else a ``static`` line."""
        if self.lattice.is_diagonal():
            return f"rect {_compact(list(self.lattice.diagonal))}"
        return f"static {_compact(self.lattice.to_columns())}"


def Rectangular(entries) -> Static:
    """The entry for the diagonal lattice a_1 Z x ... x a_m Z, with
    a != (1, ..., 1) checked before the lattice is built."""
    if min(entries, default=1) < 1:
        raise ValueError("rectangular entries must be positive")
    if max(entries, default=1) == 1:
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
    every member.  Over a finite list every question reads the ``members``;
    over an infinite sequence, divisibility constraints (``_eliminate``).
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

    @cached_property
    def is_infinite(self) -> bool:
        return self.params.is_infinite

    @cached_property
    def members(self) -> tuple[Lattice, ...]:
        """A finite entry's members, by increasing parameter, built once."""
        return tuple(map(self.member, self.params.values))

    def labelled_members(self):
        """(label, member) for every member of a finite entry, by
        increasing parameter."""
        return zip([f"t={t}" for t in self.params.values], self.members)

    def iter_instances(self, bound: int):
        """Every member of index <= bound, by increasing parameter, built
        as it is read: member t has index index(base) * t**E, E the sum of
        the exponents, so the index rises with t.  The parameters are found
        as the members are read (``iter_values_up_to``), so a reader that
        stops early lists no parameter far past its last one; a prime sieve
        past its limit raises TooLargeError when this is called.
        ``__post_init__`` rejects the parameter that gives an improper
        member, so no member needs filtering."""
        top = iroot(max(bound, 0) // self.base.index, sum(self.exps))
        return map(self.member, self.params.iter_values_up_to(top))

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
            return list(self.members)
        span = self.span
        if span.is_proper():
            return [span]
        if self.base.index > 1 or not isinstance(params, Primes):
            return None
        return CoprimeFamily(self)

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
        """The member for t >= 1, from the base's columns: scaling diagonal
        entries by t**e >= 1 keeps the off-diagonal entries reduced, so the
        columns are already canonical and are neither reduced nor checked.
        Over a diagonal base the member is diag(c * t**e), built as such."""
        if self.base.is_diagonal():
            return Lattice.from_diagonal([c * t**e for c, e in zip(self.base.diagonal, self.exps)])
        return Lattice._of_columns(tuple([
            col[:i] + (col[i] * t**e,) + col[i + 1 :] if e else col
            for i, (col, e) in enumerate(zip(self.base.columns, self.exps))
        ]))

    def _eliminate(self, p, rows: int) -> list:
        """Back-substitution of p through the first ``rows`` rows of the
        members: (fork, constraints, rest) for every branch that survives,
        where rest is, on the later rows, p less a combination of member
        columns that matches p on those rows.

        A scaled row of exponent e whose quotient w is not 0 is handled in
        one of two ways.  With no entry below the diagonal in its column,
        the coefficient w / t**e reaches no later row, so the branch defers:
        it goes on with (w, e) added to its constraints, which ``_holds``
        and ``_least_param`` resolve.  Otherwise the base is not diagonal,
        so this is its one scaled row and e = 1.  The later rows read the
        coefficient w / t only modulo M, the product of their diagonal
        entries: a change of M moves rest by M times the column's entries
        below the diagonal, a vector of the lattice the later columns span
        (index M).  So the branch forks once per class r in
        ``params.quotients_mod(w, M)``, going on with the coefficient r and
        fork = (w, M, r); fork is None on a branch that has not forked.
        After a fork, rest is defined only modulo that lattice, which is all
        the later rows' divisibility tests and ``line_pieces``' last
        coordinate modulo its diagonal entry read.  A fork meets no other
        scaled row, so its constraints stay empty.  Raises ValueError for a
        point of another dimension.
        """
        table = self._rows
        if len(p) != len(table):
            raise ValueError("point dimension mismatch")
        done, todo = [], [(None, [], list(p), 0)]
        while todo:  # depth first, the least class on top
            fork, constraints, res, start = todo.pop()
            for i in range(start, rows):
                d, e, below = table[i]
                w, rem = divmod(res[i], d)
                if rem:
                    break
                if e and w:
                    if below:
                        n = prod(later for later, _, _ in table[i + 1 :])
                        for r in sorted(self.params.quotients_mod(w, n), reverse=True):
                            branch = res[:]
                            for j, b in below:
                                branch[j] -= r * b
                            todo.append(((w, n, r), [], branch, i + 1))
                        break
                    constraints.append((w, e))
                else:
                    for j, b in below:
                        res[j] -= w * b
            else:
                done.append((fork, constraints, res))
        return done

    def _least_param(self, constraints):
        """The least parameter t with t**e | v for every (v, e), or None:
        the first candidate, as candidates come in increasing order."""
        if all(v == 0 for v, _ in constraints):
            return self.params.min_value()  # zero is divisible by every parameter value
        return next(iter(self.params.candidates(constraints)), None)

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
        if not self.is_infinite:
            return self.member_containing(p) is not None
        for _, constraints, _ in self._eliminate(p, len(self._rows)):
            if self._holds(constraints):
                return True
        return False

    def member_containing(self, p):
        """The member of the least parameter that holds p, or None.

        A finite entry reads its members in order.  For an infinite one,
        without a fork there is one branch at most, and its least parameter
        is the answer.  The branches of a fork share its w and M; the answer
        is the least member t | w whose class w / t mod M survived: the
        first such candidate of w.  This is the one place a fork lists them,
        so over primes it factors w up to that member (and may raise
        FactorizationError) where ``covered`` and ``line_pieces`` do not.
        """
        if not self.is_infinite:
            if len(p) != self.dim:
                raise ValueError("point dimension mismatch")
            return next((lat for lat in self.members if lat.contains(p)), None)
        branches = self._eliminate(p, len(self._rows))
        if not branches:
            return None
        fork, constraints, _ = branches[0]
        if fork is None:
            t = self._least_param(constraints)
            return None if t is None else self.member(t)
        w, n, _ = fork
        survivors = {r for (_, _, r), _, _ in branches}
        return self.member(next(t for t in self.params.candidates(((w, 1),)) if w // t % n in survivors))

    def line_pieces(self, prefix, power_hits):
        """How the entry meets the line prefix x Z: a list of (s, d, hits),
        each covering the x = s (mod d) on the line; all of them when hits
        is None, else those x = s + v * d, v in the run of values v0, v0 + 1,
        ..., that hits(run) flags.

        power_hits is the sequence's power_hits, or a caching stand-in for
        it.  ``_eliminate`` through the prefix rows leaves each branch its
        constraints and the last coordinate -s; the last row has diagonal
        entry d and exponent e.  With e = 0 the prefix alone decides: a fork
        leaves one branch per class of its coefficient, not per parameter,
        so over primes with M <= 2 (as in ``ex1``) a line factors nothing,
        and branches that force the same progression are merged.  Otherwise no
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
            elif not self.params.factors:
                pieces += [(s, d * t**e, None) for t in self.params.candidates(head)]
            else:
                pieces.append((s, d, partial(self._hits, head, e)))
        return pieces

    def _hits(self, head, e, run):
        """line_pieces' flags over the values v of run: whether some
        parameter satisfies the constraints head and t**e | v.  With e and
        every exponent of head 1, that is whether some parameter divides
        gcd(g, v), g the gcd of head's values, taken once (see _holds).
        That depends on v modulo g only, and the values g places apart
        along the run are congruent modulo g, so a run longer than g > 0 is
        its first g flags repeated."""
        if e == 1 and all(f == 1 for _, f in head):
            g, n = gcd(*[v for v, _ in head]), len(run)
            if 0 < g < n:
                return (self._hits(head, e, run[:g]) * -(-n // g))[:n]
            return bytearray(map(self.params.divides, map(gcd, repeat(g), run)))
        return bytearray(self._holds(head + [(v, e)]) for v in run)

    @cached_property
    def span(self) -> Lattice:
        """The lattice the members generate: member t0's columns plus
        c * delta**e * e_i for each scaled row i, with t0 the least
        parameter, delta the gcd of t - t0 over the sequence, c the row's
        diagonal entry and e its exponent.  With e = 1 column i is affine in
        t, so it moves by (t - t0) * c * e_i from member t0 to member t.
        With e >= 2 the base is diagonal, and the span's entry c * g**e
        (g = gcd(t0, delta) the gcd of the parameters, g**e that of the
        t**e) is the gcd of c * t0**e and c * delta**e.  A diagonal base
        has every generator on an axis, so its span is diag(c * g**e), built
        as such; any other base is eliminated.  Computed once per entry."""
        delta, t0 = self.params.delta(), self.params.min_value()
        if self.base.is_diagonal():
            g = gcd(t0, delta)
            return Lattice.from_diagonal([c * g**e for c, e in zip(self.base.diagonal, self.exps)])
        extra = [
            tuple(d * delta**e if j == i else 0 for j in range(self.dim))
            for i, (d, e, _) in enumerate(self._rows)
            if e
        ]
        return hnf(self.member(t0).columns + tuple(extra), dim=self.dim)

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

    @cached_property
    def finite_images(self) -> tuple[Lattice, ...]:
        """The finite entries' members in family coordinates, entry by
        entry, each mapped once: the window sieve marks them on every box."""
        return tuple(map(self.image, [m for e in self.entries if not e.is_infinite for m in e.members]))

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

    def iter_instances(self, bound: int):
        """All members with index <= bound, deduplicated, by (index, basis),
        built as they are read: every entry's members come by increasing
        index, and mapping them keeps the index, so the entries' streams
        are merged and equal neighbours dropped.  An entry's parameters are
        found as its members are read; the merge reads one member of every
        entry ahead."""
        from heapq import merge  # here, not at import: only member listings need it

        streams = [map(self.image, e.iter_instances(bound)) for e in self.entries]
        return (lat for lat, _ in groupby(merge(*streams, key=lambda l: (l.index, l.basis))))

    def instances_up_to(self, bound: int) -> list[Lattice]:
        """iter_instances(bound) as a list."""
        return list(self.iter_instances(bound))


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
                Template(base=_lattice_of([(1, 1), (0, 2)], 2), exps=(0, 1), params=Primes()),
            ),
        )
    if name == "ex1":
        return FamilySpec(
            dim=2,
            entries=(
                Static(_lattice_of([(1, 1), (0, 2)], 2)),
                Rectangular((1, 2)),
                Template(base=_lattice_of([(2, 1), (0, 2)], 2), exps=(1, 0), params=odd_primes()),
                Template(base=_lattice_of([(2, 1), (0, 2)], 2), exps=(1, 0), params=Geometric(2, 1)),
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


_INT = {int}


def _parse_ints(text: str, line_no: int, nested: bool):
    """The JSON list of integers in text, or with ``nested`` the list of
    such lists (a matrix).  Only JSON integers are taken: int() would turn
    a float, boolean or string into a number the user did not write.  A
    JSON array decodes to a list and a JSON integer to an int, so the
    types of the items are compared with those two exactly."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise FamilyParseError(line_no, f"bad list literal {text!r}")
    rows = obj if nested and type(obj) is list else [obj]
    if not all([type(r) is list and {*map(type, r)} <= _INT for r in rows]):
        shape = "a list of integer lists" if nested else "a list of integers"
        raise FamilyParseError(line_no, f"{text!r} is not {shape}")
    return obj


def _lattice_of(cols, dim: int) -> Lattice:
    """hnf(cols, dim=dim): the checked Lattice(basis) when the columns are
    already a canonical basis of that dimension, as a written matrix often
    is and every preset's is (the canonical form is unique, so the lattice
    is the same), else the elimination."""
    if len(cols) == dim and all(len(col) == dim for col in cols):
        try:
            return Lattice(tuple(zip(*cols)))
        except ValueError:
            pass
    return hnf(cols, dim=dim)


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
                item = Static(_lattice_of(_parse_ints(rest, line_no, nested=True), dim))
            elif key == "rect":
                item = Rectangular(tuple(_parse_ints(rest, line_no, nested=False)))
            elif key == "template":
                fields = dict(re.findall(r"(\w+)=(\S+)", rest))
                if set(fields) != {"base", "scale", "params"}:
                    raise FamilyParseError(line_no, "template needs base=, scale=, params=")
                base = _lattice_of(_parse_ints(fields["base"], line_no, nested=True), dim)
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


def indented_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for the package's JSON
    shapes: dicts with str keys, lists, tuples, str, int, bool and None.
    Anything else raises TypeError.  With an indent, json.dumps runs its
    pure-Python encoder; this writer joins the parts directly and escapes
    strings with the same C function as the compact encoder."""
    return _indented(obj, "\n")


def _indented(obj, newline: str) -> str:
    kind = type(obj)
    if kind is str:
        return _json_string(obj)
    if kind is int:
        return repr(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        items = [repr(x) if type(x) is int else _indented(x, inner) for x in obj]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_json_string(key)}: {_indented(value, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
