"""Exact arithmetic on finite-index sublattices of Z^m.

A lattice is stored by its canonical triangular basis: the basis matrix is
lower triangular with strictly positive diagonal, columns are the generators,
and every entry left of the diagonal is reduced into [0, diagonal).  This
form is unique for each finite-index subgroup, so structural equality of the
basis decides equality of subgroups.

All operations are pure; ``Lattice`` and ``UnimodularMap`` values are
immutable and safe to share.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import RankDeficientError, TooLargeError
from .numtheory import xgcd

Point = tuple[int, ...]

DEFAULT_COSET_LIMIT = 10**6


def as_point(seq) -> Point:
    return tuple(int(x) for x in seq)


def combination(columns, coeffs) -> Point:
    """The point sum_j coeffs[j] * columns[j] (extra coefficients ignored)."""
    vec = [0] * len(columns[0])
    for k, col in zip(coeffs, columns):
        if k:
            for r, x in enumerate(col):
                vec[r] += k * x
    return tuple(vec)


def det_int(rows) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
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

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> int:
        out = 1
        for i, row in enumerate(self.basis):
            out *= row[i]
        return out

    @property
    def columns(self) -> tuple[Point, ...]:
        m = self.dim
        return tuple(tuple(self.basis[i][j] for i in range(m)) for j in range(m))

    @property
    def diagonal(self) -> Point:
        return tuple(row[i] for i, row in enumerate(self.basis))

    def is_proper(self) -> bool:
        return self.index >= 2

    def is_diagonal(self) -> bool:
        return all(
            self.basis[i][j] == 0 for i in range(self.dim) for j in range(self.dim) if i != j
        )

    def contains(self, p) -> bool:
        """Membership by back-substitution against the triangular basis."""
        p = as_point(p)
        if len(p) != self.dim:
            raise ValueError("dimension mismatch")
        res = list(p)
        for i in range(self.dim):
            d = self.basis[i][i]
            if res[i] % d:
                return False
            c = res[i] // d
            if c:
                for r in range(i, self.dim):
                    res[r] -= c * self.basis[r][i]
        return True

    def reduce(self, p) -> Point:
        """Canonical coset representative of p: the unique congruent point in
        the box prod_i [0, basis[i][i])."""
        p = as_point(p)
        res = list(p)
        for i in range(self.dim):
            d = self.basis[i][i]
            q = res[i] // d
            if q:
                for r in range(i, self.dim):
                    res[r] -= q * self.basis[r][i]
        return tuple(res)

    def coset_reps(self, limit: int = DEFAULT_COSET_LIMIT) -> list[Point]:
        """All coset representatives, mixed-radix over the diagonal with the
        first coordinate varying fastest."""
        n = self.index
        if n > limit:
            raise TooLargeError(f"{n} cosets exceed the limit of {limit}")
        return list(self.iter_coset_reps())

    def iter_coset_reps(self):
        """Lazy mixed-radix enumeration of all coset representatives."""
        radices = self.diagonal
        for k in range(self.index):
            v = []
            t = k
            for d in radices:
                v.append(t % d)
                t //= d
            yield tuple(v)

    def sum(self, other: "Lattice") -> "Lattice":
        self._check_same_dim(other)
        return hnf(self.columns + other.columns)

    def intersect(self, other: "Lattice") -> "Lattice":
        """Intersection via the kernel of (u, v) -> B1*u - B2*v on Z^(2m)."""
        self._check_same_dim(other)
        m = self.dim
        cols = [list(c) for c in self.columns]
        cols += [[-x for x in c] for c in other.columns]
        _, transform, pivots = _echelon_with_transform(cols, m)
        if len(pivots) != m:  # cannot happen for finite-index inputs
            raise RankDeficientError("intersection lost rank")
        b1 = self.columns
        return hnf([combination(b1, w) for w in transform[m:]])

    def coprime(self, other: "Lattice") -> bool:
        return self.sum(other).index == 1

    def scaled(self, k: int) -> "Lattice":
        """The lattice k*L (every generator multiplied by k > 0)."""
        if k < 1:
            raise ValueError("scale factor must be positive")
        return hnf([tuple(k * x for x in c) for c in self.columns])

    def to_columns(self) -> list[list[int]]:
        """JSON-friendly form: list of basis columns."""
        return [list(c) for c in self.columns]

    @classmethod
    def from_columns(cls, cols) -> "Lattice":
        return hnf(cols)

    @classmethod
    def from_diagonal(cls, entries) -> "Lattice":
        entries = as_point(entries)
        if any(e < 1 for e in entries):
            raise ValueError("diagonal entries must be positive")
        m = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(m)) for i in range(m)))

    @classmethod
    def whole(cls, dim: int) -> "Lattice":
        return cls.from_diagonal((1,) * dim)

    def _check_same_dim(self, other: "Lattice"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __repr__(self):
        return f"Lattice(cols={self.to_columns()})"


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
    if any(len(g) != dim for g in gens):
        raise ValueError("generators of mixed dimension")
    cols = [list(g) for g in gens]
    n = len(cols)
    for i in range(dim):
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
            for r in range(i, dim):
                x, y = cols[i][r], cols[j][r]
                cols[i][r] = s * x + t * y
                cols[j][r] = u * x + v * y
        if cols[i][i] < 0:
            for r in range(i, dim):
                cols[i][r] = -cols[i][r]
        d = cols[i][i]
        for j in range(i):
            q = cols[j][i] // d
            if q:
                for r in range(i, dim):
                    cols[j][r] -= q * cols[i][r]
    rows = tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))
    return Lattice(rows)


def _echelon_with_transform(cols, nrows):
    """Column echelon form tracking the unimodular column transform.

    Returns (echelon_cols, transform_cols, pivots) where pivots is a list of
    (row, col) positions.  Columns at positions >= len(pivots) of the echelon
    are zero, and the matching transform columns span the kernel.
    """
    cols = [list(c) for c in cols]
    n = len(cols)
    transform = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    piv = 0
    pivots = []
    for i in range(nrows):
        j0 = next((j for j in range(piv, n) if cols[j][i] != 0), None)
        if j0 is None:
            continue
        cols[piv], cols[j0] = cols[j0], cols[piv]
        transform[piv], transform[j0] = transform[j0], transform[piv]
        for j in range(piv + 1, n):
            if cols[j][i] == 0:
                continue
            a, b = cols[piv][i], cols[j][i]
            g, s, t = xgcd(a, b)
            u, v = -(b // g), a // g
            for r in range(i, nrows):
                x, y = cols[piv][r], cols[j][r]
                cols[piv][r] = s * x + t * y
                cols[j][r] = u * x + v * y
            for r in range(n):
                x, y = transform[piv][r], transform[j][r]
                transform[piv][r] = s * x + t * y
                transform[j][r] = u * x + v * y
        pivots.append((i, piv))
        piv += 1
    return cols, transform, pivots


def solve_in_columns(cols, target):
    """Integer coefficients c with sum_j c_j * cols[j] = target, or None."""
    target = list(as_point(target))
    nrows = len(target)
    cols = [list(c) for c in cols]
    ech, transform, pivots = _echelon_with_transform(cols, nrows)
    res = target[:]
    w = [0] * len(cols)
    for row, col in pivots:
        d = ech[col][row]
        if res[row] % d:
            return None
        q = res[row] // d
        w[col] = q
        if q:
            for r in range(row, nrows):
                res[r] -= q * ech[col][r]
    if any(res):
        return None
    return combination(transform, w)


def split_in_sum(l1: Lattice, l2: Lattice, target):
    """Write target = x + y with x in l1 and y in l2, or return None.

    Solvable exactly when target lies in l1 + l2.
    """
    m = l1.dim
    coeffs = solve_in_columns(l1.columns + l2.columns, target)
    if coeffs is None:
        return None
    return combination(l1.columns, coeffs[:m]), combination(l2.columns, coeffs[m:])


def intersect_all(lattices) -> Lattice:
    lattices = list(lattices)
    if not lattices:
        raise ValueError("need at least one lattice")
    acc = lattices[0]
    for lat in lattices[1:]:
        acc = acc.intersect(lat)
    return acc


@dataclass(frozen=True)
class UnimodularMap:
    """Invertible change of coordinates of Z^m, stored by matrix rows."""

    rows: tuple[Point, ...]

    def __post_init__(self):
        m = len(self.rows)
        if m == 0 or any(len(r) != m for r in self.rows):
            raise ValueError("matrix must be square")
        if det_int(self.rows) not in (1, -1):
            raise ValueError("matrix must have determinant +1 or -1")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, m: int) -> "UnimodularMap":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m)))

    def apply_point(self, p) -> Point:
        p = as_point(p)
        return tuple(sum(row[j] * p[j] for j in range(self.dim)) for row in self.rows)

    def apply(self, lattice: Lattice) -> Lattice:
        """Image lattice A(L); the index is preserved since |det A| = 1."""
        if lattice.dim != self.dim:
            raise ValueError("dimension mismatch")
        return hnf([self.apply_point(c) for c in lattice.columns])

    def inverse(self) -> "UnimodularMap":
        m = self.dim
        aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
               for i, row in enumerate(self.rows)]
        for col in range(m):
            pivot = next(r for r in range(col, m) if aug[r][col] != 0)
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pv = aug[col][col]
            aug[col] = [x / pv for x in aug[col]]
            for r in range(m):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        rows = []
        for r in range(m):
            vals = aug[r][m:]
            assert all(v.denominator == 1 for v in vals)
            rows.append(tuple(int(v) for v in vals))
        return UnimodularMap(tuple(rows))

    def to_rows(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def enumerate_points(lattice: Lattice, coeff_bound: int):
    """All integer combinations of the basis with coefficients in
    [-coeff_bound, coeff_bound], last coefficient varying fastest."""
    cols = lattice.columns
    for ks in product(range(-coeff_bound, coeff_bound + 1), repeat=lattice.dim):
        yield combination(cols, ks)
