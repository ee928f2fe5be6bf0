"""Ideal arithmetic in quadratic integer rings.

A ring is the ring of integers of Q(sqrt(d)) for a squarefree d not in
{0, 1}.  Elements are coordinate pairs (a, b) meaning a + b*w, where w is
sqrt(d) when d = 2, 3 (mod 4) and (1 + sqrt(d))/2 when d = 1 (mod 4).

Ideals are stored as rank-2 Z-modules in the same canonical triangular form
used for lattices, with closure under multiplication by w validated at
construction.  Norms come out as basis determinants, which agree with field
norms on principal ideals.  An ideal of a product of k rings is the direct
sum of its factors' modules, one lattice in Z^(2k).

This module is the number-field case of the theory and stays a leaf: ideal
arithmetic only, not a family entry kind; the package re-exports it and
no other module uses it.
"""

from dataclasses import field

from . import lattices
from .errors import ZeroElementError
from .lattices import Lattice, Point, hnf, record
from .numtheory import factor

Element = tuple[int, int]


@record
class QuadraticRing:
    """Ring of integers of Q(sqrt(d)), d squarefree and not 0 or 1."""

    d: int

    def __post_init__(self):
        if self.d in (0, 1):
            raise ValueError("d must not be 0 or 1")
        if any(e > 1 for _, e in factor(abs(self.d))):
            raise ValueError("d must be squarefree")

    @property
    def half_integral(self) -> bool:
        """True when the generator is (1 + sqrt(d))/2 rather than sqrt(d)."""
        return self.d % 4 == 1

    @property
    def one(self) -> Element:
        return (1, 0)

    @property
    def omega(self) -> Element:
        return (0, 1)

    def mul(self, x: Element, y: Element) -> Element:
        a, b = x
        c, e = y
        if self.half_integral:
            # w^2 = w + (d-1)/4
            q = (self.d - 1) // 4
            return (a * c + b * e * q, a * e + b * c + b * e)
        return (a * c + b * e * self.d, a * e + b * c)

    def norm(self, x: Element) -> int:
        a, b = x
        if self.half_integral:
            return a * a + a * b + b * b * (1 - self.d) // 4
        return a * a - self.d * b * b

    def times_omega(self, x: Element) -> Element:
        return self.mul(x, self.omega)

    def to_json_dict(self) -> dict:
        return {"d": self.d}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuadraticRing":
        return cls(int(data["d"]))


@record
class QuadIdeal:
    """Nonzero ideal of a quadratic integer ring as a canonical Z-module."""

    ring: QuadraticRing
    module: Lattice

    def __post_init__(self):
        if self.module.dim != 2:
            raise ValueError("ideal module must be 2-dimensional")
        for col in self.module.columns:
            if not self.module.contains(self.ring.times_omega(col)):
                raise ValueError("module is not closed under multiplication by the ring generator")

    @property
    def norm(self) -> int:
        return self.module.index

    def is_unit_ideal(self) -> bool:
        return self.norm == 1

    def contains(self, x: Element) -> bool:
        return self.module.contains(x)

    def reduce(self, x: Element) -> Element:
        r = self.module.reduce(x)
        return (r[0], r[1])

    def sum(self, other: "QuadIdeal") -> "QuadIdeal":
        self._check_ring(other)
        return QuadIdeal(self.ring, self.module.sum(other.module))

    def intersect(self, other: "QuadIdeal") -> "QuadIdeal":
        self._check_ring(other)
        return QuadIdeal(self.ring, self.module.intersect(other.module))

    def product(self, other: "QuadIdeal") -> "QuadIdeal":
        self._check_ring(other)
        gens = [
            self.ring.mul(a, b) for a in self.module.columns for b in other.module.columns
        ]
        return QuadIdeal(self.ring, hnf(gens))

    def coprime(self, other: "QuadIdeal") -> bool:
        return self.sum(other).is_unit_ideal()

    def to_columns(self) -> list[list[int]]:
        return self.module.to_columns()

    def to_json_dict(self) -> dict:
        return {"ring": self.ring.to_json_dict(), "basis": self.to_columns()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuadIdeal":
        ring = QuadraticRing.from_json_dict(data["ring"])
        return cls(ring, hnf(data["basis"]))

    def _check_ring(self, other: "QuadIdeal"):
        if self.ring != other.ring:
            raise ValueError("ideals live in different rings")

    def __repr__(self):
        return f"QuadIdeal(d={self.ring.d}, cols={self.to_columns()})"


def principal(ring: QuadraticRing, x: Element) -> QuadIdeal:
    """The principal ideal generated by x != 0; its norm is |N(x)|."""
    x = (int(x[0]), int(x[1]))
    if x == (0, 0):
        raise ZeroElementError("zero generates the zero ideal, which has infinite index")
    return QuadIdeal(ring, hnf([x, ring.times_omega(x)]))


def unit_ideal(ring: QuadraticRing) -> QuadIdeal:
    return principal(ring, ring.one)


def ideal_from_columns(ring: QuadraticRing, cols) -> QuadIdeal:
    return QuadIdeal(ring, hnf(cols))


def crt(ideals, residues) -> Element:
    """Element congruent to residues[i] modulo ideals[i] for every i.

    One call of :func:`lattices.crt` on the ideals' modules.  The result is
    the canonical representative modulo the intersection of the ideals (their
    product when they are pairwise coprime), so it is reproducible.  Raises
    NotCoprimeError when the congruence system is unsolvable.
    """
    x = lattices.crt([ideal.module for ideal in ideals], residues)
    return (x[0], x[1])


@record
class ProductIdeal:
    """Ideal of a finite product of quadratic rings: one factor per slot.

    ``module`` is the direct sum of the factors' modules, a block-diagonal
    lattice in Z^(2k) whose points list one pair per factor, and it decides
    norm, membership, coprimality and the CRT; sums and products need the
    ring multiplication, so they go factor by factor."""

    factors: tuple[QuadIdeal, ...]
    module: Lattice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        rows = [(0,) * (2 * s) + row + (0,) * (2 * (len(self.factors) - 1 - s))
                for s, f in enumerate(self.factors) for row in f.module.basis]
        object.__setattr__(self, "module", Lattice(tuple(rows)))

    @property
    def norm(self) -> int:
        return self.module.index

    def contains(self, xs) -> bool:
        return self.module.contains(self._point(xs))

    def sum(self, other: "ProductIdeal") -> "ProductIdeal":
        return ProductIdeal(tuple(a.sum(b) for a, b in zip(self.factors, other.factors, strict=True)))

    def product(self, other: "ProductIdeal") -> "ProductIdeal":
        return ProductIdeal(
            tuple(a.product(b) for a, b in zip(self.factors, other.factors, strict=True))
        )

    def coprime(self, other: "ProductIdeal") -> bool:
        if [f.ring for f in self.factors] != [f.ring for f in other.factors]:
            raise ValueError("product ideals live in different rings")
        return self.module.coprime(other.module)

    def _point(self, xs) -> Point:
        xs = tuple(xs)
        if len(xs) != len(self.factors) or any(len(x) != 2 for x in xs):
            raise ValueError("need one pair per factor")
        return tuple(c for x in xs for c in x)


def crt_product(ideals, residues) -> tuple[Element, ...]:
    """One :func:`lattices.crt` call on the direct sums, split back into pairs."""
    pairs = list(zip(ideals, residues, strict=True))
    x = lattices.crt([pi.module for pi, _ in pairs], [pi._point(r) for pi, r in pairs])
    return tuple(x[i : i + 2] for i in range(0, len(x), 2))
