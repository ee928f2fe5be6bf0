"""Exact arithmetic on finite-index sublattices of Z^m.

A lattice is stored by its canonical triangular basis: the basis matrix is
lower triangular with strictly positive diagonal, columns are the generators,
and every entry left of the diagonal is reduced into [0, diagonal).  This
form is unique for each finite-index subgroup, so structural equality of the
basis decides equality of subgroups.  Each lattice computes its views,
``dim``, ``columns``, ``diagonal`` and ``index``, once, as plain instance
values.  ``Lattice(basis)`` checks the canonical form; ``hnf``,
``intersect`` and ``from_diagonal``, whose elimination or positive diagonal
already guarantees it, build through ``Lattice._of_columns``, which skips
those checks.

One integer column elimination, ``_hnf_columns``, serves every operation.
``hnf`` is that elimination.  ``Lattice.intersect`` and ``split_in_sum``
eliminate the stacked generators (b, b) for b in one lattice and (c, 0) for
c in the other, which span {(x + y, x)}: the intersection is read off the
last columns, and a split off the back-substituted target.  A matrix is
unimodular exactly when its columns eliminate to index 1, and
``UnimodularMap.inverse`` appends unit vectors to them, so the elimination
records the transform U with A*U = I.  ``crt``, the Chinese Remainder
solver for lattices and ideals' modules alike, is ``split_in_sum`` against
the intersection of the congruences so far.

All operations are pure; ``Lattice`` and ``UnimodularMap`` values are
immutable and safe to share.
"""

from dataclasses import FrozenInstanceError, dataclass, fields
from functools import reduce
from math import prod

from .errors import NotCoprimeError, RankDeficientError
from .numtheory import xgcd

Point = tuple[int, ...]


def as_point(seq) -> Point:
    return tuple(map(int, seq))


def record(cls):
    """An immutable dataclass: what ``dataclass(frozen=True)`` makes, with
    the same equality, hash, repr and FrozenInstanceError, but ``dataclass``
    generates only ``__init__``.  The other five methods are the shared
    functions below, which read the field names the class keeps in
    ``_record_fields``, ``_record_compare`` and ``_record_repr``; a method the
    class defines itself (``Lattice.__repr__``) is kept.

    ``__init__`` and ``__post_init__`` may set each field once; after that,
    and for any other name, assignment and deletion raise.  Code that writes
    around the guard (``object.__setattr__``, the instance ``__dict__``,
    ``functools.cached_property``) keeps working."""
    cls = dataclass(cls, eq=False, repr=False)
    found = fields(cls)
    cls._record_fields = frozenset(f.name for f in found)
    cls._record_compare = tuple(f.name for f in found if f.compare)
    cls._record_repr = tuple(f.name for f in found if f.repr)
    for name, method in _RECORD_METHODS.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _record_key(self):
    return tuple([getattr(self, name) for name in self._record_compare])


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _record_key(self) == _record_key(other)


def _record_hash(self):
    return hash(_record_key(self))


def _record_repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_repr)
    return f"{self.__class__.__qualname__}({shown})"


def _record_setattr(self, name, value):
    # runs once per field in every __init__: writing the instance dict
    # directly is what object.__setattr__ does for a field, at less cost
    attrs = self.__dict__
    if name in attrs or name not in self._record_fields:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    attrs[name] = value


def _record_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_RECORD_METHODS = {
    "__eq__": _record_eq,
    "__hash__": _record_hash,
    "__repr__": _record_repr,
    "__setattr__": _record_setattr,
    "__delattr__": _record_delattr,
}


def combination(columns, coeffs) -> Point:
    """The point sum_j coeffs[j] * columns[j] (extra coefficients ignored)."""
    vec = [0] * len(columns[0])
    for k, col in zip(coeffs, columns):
        if k:
            for r, x in enumerate(col):
                vec[r] += k * x
    return tuple(vec)


@record
class Lattice:
    """Finite-index subgroup of Z^m in canonical triangular form.

    ``basis`` is the matrix by rows; column j is the j-th generator.
    Use :func:`hnf` to build a Lattice from arbitrary generators.
    """

    basis: tuple[Point, ...]

    def __post_init__(self):
        m = len(self.basis)
        if m == 0 or any(len(row) != m for row in self.basis):
            raise ValueError("basis must be a nonempty square matrix")
        for i, row in enumerate(self.basis):
            d = row[i]
            if d < 1:
                raise ValueError("diagonal entries must be positive")
            for j in range(m):
                if j > i and row[j] != 0:
                    raise ValueError("basis must be lower triangular")
                if j < i and not 0 <= row[j] < d:
                    raise ValueError("off-diagonal entries must be reduced into [0, diagonal)")
        self._views(tuple(zip(*self.basis)))

    @classmethod
    def _of_columns(cls, columns) -> "Lattice":
        """The lattice whose canonical basis has these columns (a tuple of
        tuples), without __post_init__'s checks: only for what an
        elimination or a positive diagonal already puts in canonical form."""
        self = cls.__new__(cls)
        self.__dict__["basis"] = tuple(zip(*columns))
        self._views(columns)
        return self

    def _views(self, columns):
        """Store dim, columns, diagonal and index once, as plain values."""
        diagonal = tuple([col[i] for i, col in enumerate(columns)])
        self.__dict__.update(dim=len(columns), columns=columns, diagonal=diagonal, index=prod(diagonal))

    def is_proper(self) -> bool:
        return self.index >= 2

    def is_diagonal(self) -> bool:
        return all(
            self.basis[i][j] == 0 for i in range(self.dim) for j in range(self.dim) if i != j
        )

    def contains(self, p) -> bool:
        """Membership by back-substitution against the triangular basis."""
        res = list(p)
        m = self.dim
        if len(res) != m:
            raise ValueError("dimension mismatch")
        basis = self.basis
        for i in range(m):
            d = basis[i][i]
            if res[i] % d:
                return False
            c = res[i] // d
            if c:
                for r in range(i, m):
                    res[r] -= c * basis[r][i]
        return True

    def reduce(self, p) -> Point:
        """Canonical coset representative of p: the unique congruent point in
        the box prod_i [0, basis[i][i])."""
        res = list(as_point(p))
        m = self.dim
        if len(res) != m:
            raise ValueError("dimension mismatch")
        for i in range(m):
            d = self.basis[i][i]
            q = res[i] // d
            if q:
                for r in range(i, m):
                    res[r] -= q * self.basis[r][i]
        return tuple(res)

    def iter_coset_reps(self):
        """Lazy mixed-radix enumeration of all coset representatives, the
        points of the box prod_i [0, diagonal_i), first coordinate fastest.
        Nested generators, not itertools.product, which would first store
        every range: a diagonal entry may be far too large for that."""
        return reduce(_prepend, reversed(self.diagonal), ((),))

    def sum(self, other: "Lattice") -> "Lattice":
        self._check_same_dim(other)
        return hnf(self.columns + other.columns)

    def intersect(self, other: "Lattice") -> "Lattice":
        """Intersection from one elimination of the stacked generators.

        In the canonical triangular basis of {(x + y, x) : x in self, y in
        other} the last m columns span the points whose first m coordinates
        vanish, that is (0, x) with x in self and -x in other, so their lower
        block is already the canonical basis of the intersection.
        """
        m = self.dim
        cols = _stacked_sum(self, other, 2 * m)
        return Lattice._of_columns(tuple([tuple(col[m:]) for col in cols[m:]]))

    def coprime(self, other: "Lattice") -> bool:
        return self.sum(other).index == 1

    def to_columns(self) -> list[list[int]]:
        """JSON-friendly form: list of basis columns."""
        return [list(c) for c in self.columns]

    @classmethod
    def from_columns(cls, cols) -> "Lattice":
        return hnf(cols)

    @classmethod
    def from_diagonal(cls, entries) -> "Lattice":
        entries = as_point(entries)
        if not entries:
            raise ValueError("basis must be a nonempty square matrix")
        if any(e < 1 for e in entries):
            raise ValueError("diagonal entries must be positive")
        m = len(entries)
        return cls._of_columns(tuple([tuple([e if i == j else 0 for i in range(m)]) for j, e in enumerate(entries)]))

    @classmethod
    def whole(cls, dim: int) -> "Lattice":
        return cls.from_diagonal((1,) * dim)

    def _check_same_dim(self, other: "Lattice"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __repr__(self):
        return f"Lattice(cols={self.to_columns()})"


def _prepend(reps, d: int):
    """(x,) + r for each r of reps in turn and, within it, x = 0..d-1."""
    return ((x,) + r for r in reps for x in range(d))


def _hnf_columns(cols, nrows: int) -> None:
    """Bring the first ``nrows`` coordinates of ``cols`` to canonical
    triangular form in place.

    xgcd column operations clear each row below its pivot, the pivot is made
    positive, and earlier columns are reduced into [0, pivot).  Coordinates
    past ``nrows`` ride along under the same operations, so appended unit
    vectors record the unimodular transform.  Raises RankDeficientError when
    the first ``nrows`` coordinates do not reach full rank.
    """
    n = len(cols)
    width = len(cols[0]) if cols else nrows
    for i in range(nrows):
        piv = next((j for j in range(i, n) if cols[j][i] != 0), None)
        if piv is None:
            raise RankDeficientError(f"generators do not reach full rank at row {i}")
        cols[i], cols[piv] = cols[piv], cols[i]
        for j in range(i + 1, n):
            if cols[j][i] == 0:
                continue
            a, b = cols[i][i], cols[j][i]
            g, s, t = xgcd(a, b)
            u, v = -(b // g), a // g
            for r in range(i, width):
                x, y = cols[i][r], cols[j][r]
                cols[i][r] = s * x + t * y
                cols[j][r] = u * x + v * y
        if cols[i][i] < 0:
            for r in range(i, width):
                cols[i][r] = -cols[i][r]
        d = cols[i][i]
        for j in range(i):
            q = cols[j][i] // d
            if q:
                for r in range(i, width):
                    cols[j][r] -= q * cols[i][r]


def _stacked_sum(l1: Lattice, l2: Lattice, nrows: int) -> list[list[int]]:
    """The generators (b, b) for b in l1 and (c, 0) for c in l2, which span
    {(x + y, x) : x in l1, y in l2}, eliminated over their first ``nrows``
    coordinates."""
    l1._check_same_dim(l2)
    m = l1.dim
    cols = [list(b) + list(b) for b in l1.columns]
    cols += [list(c) + [0] * m for c in l2.columns]
    _hnf_columns(cols, nrows)
    return cols


def hnf(generators, dim: int | None = None) -> Lattice:
    """Canonical triangular form of the subgroup generated by the given vectors.

    Column operations only, so the generated subgroup never changes.  Raises
    RankDeficientError when the subgroup has infinite index.
    """
    gens = [as_point(g) for g in generators]
    gens = [g for g in gens if any(g)]
    if dim is None:
        if not gens:
            raise RankDeficientError("no nonzero generators")
        dim = len(gens[0])
    if dim < 1:
        raise ValueError("basis must be a nonempty square matrix")
    if any(len(g) != dim for g in gens):
        raise ValueError("generators of mixed dimension")
    cols = [list(g) for g in gens]
    _hnf_columns(cols, dim)
    return Lattice._of_columns(tuple(map(tuple, cols[:dim])))


def split_in_sum(l1: Lattice, l2: Lattice, target):
    """Write target = x + y with x in l1 and y in l2, or return None.

    Solvable exactly when target lies in l1 + l2.  Back-substituting
    (target, 0) over the pivot columns of the stacked generators (x + y, x),
    eliminated over their first m coordinates, leaves (0, -x).
    """
    m = l1.dim
    target = as_point(target)
    if len(target) != m:
        raise ValueError("dimension mismatch")
    cols = _stacked_sum(l1, l2, m)
    res = list(target) + [0] * m
    for i in range(m):
        d = cols[i][i]
        if res[i] % d:
            return None
        q = res[i] // d
        if q:
            for r in range(i, 2 * m):
                res[r] -= q * cols[i][r]
    x = tuple(-v for v in res[m:])
    return x, tuple(t - v for t, v in zip(target, x))


def crt(lattices, residues) -> Point:
    """The point congruent to residues[i] modulo lattices[i] for every i.

    Each congruence is solved against the intersection of the ones before it,
    and the result is the canonical representative modulo the intersection of
    all lattices.  Raises NotCoprimeError when the system has no solution;
    for m >= 2 that can happen even when the lattices are pairwise coprime.
    """
    lattices = list(lattices)
    residues = [as_point(r) for r in residues]
    if len(lattices) != len(residues):
        raise ValueError("lattice and residue lists differ in length")
    if not lattices:
        raise ValueError("need at least one lattice")
    if any(len(r) != lat.dim for lat, r in zip(lattices, residues)):
        raise ValueError("dimension mismatch")
    acc, value = lattices[0], residues[0]
    for lat, res in zip(lattices[1:], residues[1:]):
        parts = split_in_sum(acc, lat, tuple(r - v for r, v in zip(res, value)))
        if parts is None:
            raise NotCoprimeError("congruence system unsolvable")
        value = tuple(v + x for v, x in zip(value, parts[0]))
        acc = acc.intersect(lat)
    return acc.reduce(value)


def intersect_all(lattices) -> Lattice:
    lattices = list(lattices)
    if not lattices:
        raise ValueError("need at least one lattice")
    acc = lattices[0]
    for lat in lattices[1:]:
        acc = acc.intersect(lat)
    return acc


@record
class UnimodularMap:
    """Invertible change of coordinates of Z^m, stored by matrix rows."""

    rows: tuple[Point, ...]

    def __post_init__(self):
        m = len(self.rows)
        if m == 0 or any(len(r) != m for r in self.rows):
            raise ValueError("matrix must be square")
        try:
            unimodular = hnf(zip(*self.rows), m).index == 1
        except RankDeficientError:
            unimodular = False
        if not unimodular:
            raise ValueError("matrix must have determinant +1 or -1")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, m: int) -> "UnimodularMap":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m)))

    def apply_point(self, p) -> Point:
        p = as_point(p)
        if len(p) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(sum(row[j] * p[j] for j in range(self.dim)) for row in self.rows)

    def apply(self, lattice: Lattice) -> Lattice:
        """Image lattice A(L); the index is preserved since |det A| = 1."""
        if lattice.dim != self.dim:
            raise ValueError("dimension mismatch")
        return hnf([self.apply_point(c) for c in lattice.columns])

    def inverse(self) -> "UnimodularMap":
        """A^-1, read off the elimination of A's columns with unit vectors
        appended: it brings A to the identity by A*U = I, and the appended
        part records U."""
        m = self.dim
        cols = [list(a) + [int(i == j) for i in range(m)] for j, a in enumerate(zip(*self.rows))]
        _hnf_columns(cols, m)
        return UnimodularMap(tuple(tuple(cols[j][m + i] for j in range(m)) for i in range(m)))

    def to_rows(self) -> list[list[int]]:
        return [list(r) for r in self.rows]
