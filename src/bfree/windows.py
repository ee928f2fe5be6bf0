"""Desk-scale views of the free/covered split: boxes of indicator bits,
zero-window search and construction, syndetic periods, and density profiles.

The ambient Folner sequence is fixed to centered boxes {-n, ..., n}^m.  All
counts are integers and all ratios are exact fractions.
"""

import base64
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, islice, product
from math import prod
from operator import add, or_, sub

from .errors import (
    NotAZeroWindowError,
    NotCoprimeError,
    NotEnoughIdealsError,
    NotRectangularError,
    TooLargeError,
)
from .families import FamilySpec
from .lattices import Lattice, Point, as_point, intersect_all
from .numtheory import crt_integers

DEFAULT_CELL_LIMIT = 10**8

# Sieve cost model, in box cells.  An entry is sieved while its parameter
# bound stays within _PARAM_COST per cell and its members' rows (plus
# _HNF_COST per member mapped through a transform) within one per cell;
# otherwise it is evaluated per cell, on the cells still unmarked.
_PARAM_COST = 4
_HNF_COST = 32


@dataclass(frozen=True)
class Box:
    """Axis-aligned integer box [lo_1, hi_1] x ... x [lo_m, hi_m]."""

    lo: Point
    hi: Point

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be nonempty vectors of equal length")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box is empty")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> Point:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        out = 1
        for s in self.sides:
            out *= s
        return out

    def contains(self, p) -> bool:
        return all(a <= x <= b for x, a, b in zip(p, self.lo, self.hi, strict=True))

    def points(self):
        """Lexicographic iteration; also the row-major bit order of windows."""
        return product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def index_of(self, p) -> int:
        if not self.contains(p):
            raise ValueError(f"point {tuple(p)} lies outside the box {self.format()}")
        idx = 0
        for x, a, s in zip(p, self.lo, self.sides, strict=True):
            idx = idx * s + (x - a)
        return idx

    def shifted(self, g) -> "Box":
        g = as_point(g)
        return Box(
            tuple(a + x for a, x in zip(self.lo, g)),
            tuple(b + x for b, x in zip(self.hi, g)),
        )

    @classmethod
    def centered(cls, n: int, dim: int) -> "Box":
        return cls((-n,) * dim, (n,) * dim)

    @classmethod
    def parse(cls, text: str) -> "Box":
        """Parse "lo:hi,lo:hi,..." into a box."""
        lo, hi = [], []
        for part in text.split(","):
            a, _, b = part.partition(":")
            lo.append(int(a))
            hi.append(int(b))
        return cls(tuple(lo), tuple(hi))

    def format(self) -> str:
        return ",".join(f"{a}:{b}" for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True)
class Shape:
    """A finite pattern of offsets; order is meaningful for CRT pairing."""

    offsets: tuple[Point, ...]

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("shape must be non-empty")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("shape offsets must be distinct")
        m = len(self.offsets[0])
        if any(len(f) != m for f in self.offsets):
            raise ValueError("shape offsets of mixed dimension")

    @property
    def dim(self) -> int:
        return len(self.offsets[0])

    def __len__(self):
        return len(self.offsets)

    @classmethod
    def from_offsets(cls, offsets) -> "Shape":
        seen = []
        for f in offsets:
            f = as_point(f)
            if f not in seen:
                seen.append(f)
        return cls(tuple(seen))

    @classmethod
    def from_box(cls, box: Box) -> "Shape":
        return cls(tuple(box.points()))

    @classmethod
    def segment(cls, k: int, dim: int, axis: int = 0) -> "Shape":
        """The k+1 cells 0, e_axis, 2*e_axis, ..., k*e_axis."""
        offs = []
        for i in range(k + 1):
            v = [0] * dim
            v[axis] = i
            offs.append(tuple(v))
        return cls(tuple(offs))

    @classmethod
    def parse(cls, text: str, dim: int | None = None) -> "Shape":
        """Parse "a:bxc:d" rectangle syntax (one range per dimension; when
        dim is given, exactly dim ranges)."""
        ranges = []
        for part in text.split("x"):
            a, _, b = part.partition(":")
            ranges.append((int(a), int(b)))
        if dim is not None and len(ranges) != dim:
            raise ValueError(f"shape has {len(ranges)} ranges, expected {dim}")
        return cls.from_box(Box(tuple(a for a, _ in ranges), tuple(b for _, b in ranges)))

    def bounds(self) -> tuple[Point, Point]:
        m = self.dim
        lo = tuple(min(f[i] for f in self.offsets) for i in range(m))
        hi = tuple(max(f[i] for f in self.offsets) for i in range(m))
        return lo, hi


@dataclass(frozen=True)
class FreeWindow:
    """Indicator bits of the free set over a box, packed row-major LSB-first."""

    box: Box
    bits: bytes

    def __post_init__(self):
        if len(self.bits) != (self.box.volume + 7) // 8:
            raise ValueError("bit payload does not match the box volume")

    def get(self, p) -> int:
        i = self.box.index_of(p)
        return (self.bits[i >> 3] >> (i & 7)) & 1

    def ones(self) -> int:
        return self._chars().count("1")

    def _chars(self) -> str:
        """One '0'/'1' per cell, in row-major order."""
        n = len(self.bits) * 8
        return f"{int.from_bytes(self.bits, 'little'):0{n}b}"[::-1][: self.box.volume]

    def to_json_dict(self) -> dict:
        return {
            "box": {"lo": list(self.box.lo), "hi": list(self.box.hi)},
            "bits": base64.b64encode(self.bits).decode("ascii"),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FreeWindow":
        box = Box(tuple(data["box"]["lo"]), tuple(data["box"]["hi"]))
        return cls(box, base64.b64decode(data["bits"]))

    def to_csv(self) -> str:
        """Rows of 0/1 values; for 2-d windows row 0 is the highest y."""
        return "\n".join(",".join(row) for row in self._grid_rows()) + "\n"

    def to_pgm(self) -> str:
        """Plain PGM (P2) with maxval 1; row 0 is the highest y."""
        rows = self._grid_rows()
        width = len(rows[0])
        height = len(rows)
        body = "\n".join(" ".join(row) for row in rows)
        return f"P2\n{width} {height}\n1\n{body}\n"

    def _grid_rows(self) -> list[str]:
        chars = self._chars()
        if self.box.dim == 1:
            return [chars]
        if self.box.dim == 2:
            sy = self.box.sides[1]
            return [chars[j::sy] for j in reversed(range(sy))]
        raise ValueError("grid export only supports dimensions 1 and 2; use JSON")


# covered flags -> free-cell characters ("1" on free cells), and -> unmarked mask
_FREE_CHARS = bytes.maketrans(b"\x00\x01", b"10")
_UNMARKED = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def covered_flags(spec: FamilySpec, box: Box) -> bytearray:
    """Exact covered indicator over a box: one byte per cell, 1 on covered
    cells, row-major with the last coordinate fastest.

    Each entry takes the first of three routes that applies:

    * sieve: the members that can meet the box are marked row by row, every
      row of a lattice in canonical triangular form being an arithmetic
      progression, unless that costs more than the box has cells (see
      _PARAM_COST);
    * lines: a template entry over any parameter sequence, without a
      transform, is evaluated once per line of the box (see _mark_lines);
      entries whose sequence never factors go first, so the lines they
      flag entirely are skipped by those that may (as in ex1);
    * per cell: any other entry is evaluated cell by cell, on the cells no
      other entry covers.
    """
    _check_dim(spec, box.dim)
    flags = bytearray(box.volume)
    qlo, qhi = spec.pullback_box(box.lo, box.hi)
    mark, mark_run = _marker(flags, box)
    lines, rest = [], []
    for entry in spec.entries:
        members = _box_members(spec, entry, box, qlo, qhi)
        if members is not None:
            for basis in members:
                mark(basis)
        elif spec.transform is None and hasattr(entry, "line_pieces"):
            lines.append(entry)
        else:
            rest.append(entry)
    for entry in sorted(lines, key=lambda e: e.params.factors):
        _mark_lines(flags, box, entry, mark_run)
    if rest:
        unmarked = flags.translate(_UNMARKED)
        for i, p in compress(enumerate(box.points()), unmarked):
            q = spec.pullback(p)
            if any(e.covered(q) for e in rest):
                flags[i] = 1
    return flags


def _box_members(spec: FamilySpec, entry, box: Box, qlo, qhi):
    """Bases of the entry's members that can meet the box, mapped through
    the transform; None when sieving them would exceed the cost model."""
    budget = box.volume
    members = entry.sieve_members(qlo, qhi, _PARAM_COST * budget)
    if members is None:
        return None
    sides = box.sides[:-1]
    out = []
    cost = 0
    for basis in members:
        if spec.transform is not None:
            basis = spec.transform.apply(Lattice(basis)).basis
            cost += _HNF_COST
        rows = 1  # bound on the last-coordinate rows in the box
        for i, s in enumerate(sides):
            rows *= -(-s // basis[i][i])
        cost += rows
        if cost > budget:
            return None
        out.append(basis)
    return out


def _marker(flags: bytearray, box: Box):
    """(mark, mark_run) over the flags of the box.

    mark(basis) sets the flag of every point of the lattice with that
    canonical basis inside the box: the prefixes x_0..x_{m-2} of lattice
    points are enumerated by back-substitution, and over each the last
    coordinate runs through one arithmetic progression.

    mark_run(base, s, d, hits=None) sets, with a single slice assignment,
    the flags of the cells x = s (mod d) of the line whose first cell has
    flat index base; given hits(v0, n), only those of the n cells, at
    x = s + (v0 + i) * d, that it flags.
    """
    lo, hi = box.lo, box.hi
    m = len(lo)
    strides = [prod(box.sides[k + 1 :]) for k in range(m)]
    ones = memoryview(b"\x01" * box.sides[-1])
    a0, b0 = lo[-1], hi[-1]

    def mark_run(base, s, d, hits=None):
        first = a0 + (s - a0) % d
        n = (b0 - first) // d + 1
        if n > 0:
            start = base + first - a0
            run = slice(start, start + (n - 1) * d + 1, d)
            flags[run] = ones[:n] if hits is None else bytes(map(or_, flags[run], hits((first - s) // d, n)))

    def mark(basis):
        # (flat index of the row start, sum of the chosen columns so far)
        rows = [(0, (0,) * m)]
        for k in range(m - 1):
            d = basis[k][k]
            col = [row[k] for row in basis]
            nxt = []
            for base, shift in rows:
                s = shift[k]
                for x in range(lo[k] + (s - lo[k]) % d, hi[k] + 1, d):
                    c = (x - s) // d
                    shifted = tuple(a + c * b for a, b in zip(shift, col))
                    nxt.append((base + (x - lo[k]) * strides[k], shifted))
            rows = nxt
        d = basis[-1][-1]
        for base, shift in rows:
            mark_run(base, shift[-1], d)

    return mark, mark_run


def _mark_lines(flags: bytearray, box: Box, entry, mark_run):
    """Set the flags of the entry's members, one line of the box at a time.

    A line fixes the prefix x_0..x_{m-2}; lines whose cells are all flagged
    already are skipped.  entry.line_pieces(prefix, power_hits) says how the
    entry meets the line: progressions covered outright (members forced by
    the prefix), or a progression x = s (mod d) whose cells a test over the
    whole run of values (x - s) / d picks, such as the sequence's power_hits
    for t**e | (x - s) / d.  That run is often the same on every line (a
    rectangular template whose parameterised prefix coordinates are 0), so
    the last one is kept: consecutive lines asking for it share one sieve.
    """
    n = box.sides[-1]
    power_hits = lru_cache(maxsize=1)(entry.params.power_hits)
    prefixes = product(*(range(a, b + 1) for a, b in zip(box.lo[:-1], box.hi[:-1])))
    for base, prefix in zip(range(0, len(flags), n), prefixes):
        if flags.find(0, base, base + n) < 0:
            continue
        for s, d, hits in entry.line_pieces(prefix, power_hits):
            mark_run(base, s, d, hits)


def free_window(
    spec: FamilySpec,
    box: Box,
    *,
    cell_limit: int = DEFAULT_CELL_LIMIT,
) -> FreeWindow:
    """Exact free-set indicator over a box, packed from covered_flags."""
    _check_dim(spec, box.dim)
    vol = box.volume
    if vol > cell_limit:
        raise TooLargeError(f"window volume {vol} exceeds the limit of {cell_limit}")
    chars = covered_flags(spec, box).translate(_FREE_CHARS)
    return FreeWindow(box, int(chars[::-1], 2).to_bytes((vol + 7) // 8, "little"))


def find_zero_window(
    spec: FamilySpec,
    shape: Shape,
    search: Box,
    *,
    cell_limit: int = DEFAULT_CELL_LIMIT,
):
    """First translate g, lexicographic over the search box sieved slab by
    slab, with every cell of g + shape covered, or None if the box holds none.

    Absence here is not a nonexistence proof; see the proximality module for
    the periodic-exact route.
    """
    return next(_zero_translates(spec, shape, search, cell_limit), None)


def all_zero_windows(
    spec: FamilySpec,
    shape: Shape,
    search: Box,
    *,
    cell_limit: int = DEFAULT_CELL_LIMIT,
) -> list[Point]:
    """Every valid translate in the search box, in lexicographic order."""
    return list(_zero_translates(spec, shape, search, cell_limit))


def _zero_translates(spec: FamilySpec, shape: Shape, search: Box, cell_limit: int):
    """Valid translates in lexicographic order, sieved in slabs of the first
    coordinate whose heights double (1, 2, 4, ...): a hit near the start of
    the search box costs one thin slab, a miss about one sieve of the box."""
    _check_dim(spec, shape.dim)
    if search.dim != shape.dim:
        raise ValueError("search box dimension mismatch")
    if search.volume * len(shape) > cell_limit:
        raise TooLargeError("scan exceeds the cell limit")
    grown = prod(s + e - 1 for s, e in zip(search.sides, Box(*shape.bounds()).sides))
    if grown > cell_limit:
        raise TooLargeError(f"scan sieves {grown} cells, above the cell limit of {cell_limit}")
    (x, *lo), (b, *hi) = search.lo, search.hi
    while x <= b:
        top = min(2 * x - search.lo[0], b)
        yield from _sieved_translates(spec, shape, Box((x, *lo), (top, *hi)))
        x = top + 1


def _sieved_translates(spec: FamilySpec, shape: Shape, search: Box):
    """Translates g in the search box with g + shape wholly covered, in
    lexicographic order: one covered_flags over the search box grown by the
    shape's bounds, masked to the search box and ANDed with the flags
    shifted by each offset; translate g sits at the cell g + (shape low)."""
    lo, hi = shape.bounds()
    box = Box(tuple(map(add, search.lo, lo)), tuple(map(add, search.hi, hi)))
    flags = int.from_bytes(covered_flags(spec, box), "little")
    strides = [prod(box.sides[k + 1 :]) for k in range(box.dim)]
    survivors = b"\x01"  # the search box's cells inside the grown box
    for s, t, stride in reversed(list(zip(search.sides, box.sides, strides))):
        survivors = survivors * s + bytes((t - s) * stride)
    survivors = int.from_bytes(survivors, "little")
    for f in shape.offsets:
        survivors &= flags >> (8 * sum((x - a) * s for x, a, s in zip(f, lo, strides)))
        if not survivors:
            return
    translates = box.shifted(tuple(-a for a in lo)).points()
    yield from compress(translates, survivors.to_bytes(box.volume, "little"))


def zero_window_by_crt(lattices, shape: Shape) -> Point:
    """Translate placing the whole shape inside the union, built by the
    Chinese Remainder Theorem over rectangular (diagonal) lattices.

    Cell i is paired with lattices[i] in list order; the result a satisfies
    a + shape.offsets[i] in lattices[i] and is reduced to the canonical
    representative modulo the intersection of the used lattices.
    """
    lattices = list(lattices)
    if len(lattices) < len(shape):
        raise NotEnoughIdealsError(
            f"{len(shape)} cells need at least that many lattices, got {len(lattices)}"
        )
    used = lattices[: len(shape)]
    m = shape.dim
    for lat in used:
        if lat.dim != m:
            raise ValueError("lattice dimension mismatch")
        if not lat.is_diagonal():
            raise NotRectangularError("CRT construction needs rectangular (diagonal) lattices")
    for i in range(len(used)):
        for j in range(i + 1, len(used)):
            if not used[i].coprime(used[j]):
                raise NotCoprimeError(
                    f"lattices {i} and {j} are not coprime"
                )
    coords = []
    for axis in range(m):
        moduli = [lat.diagonal[axis] for lat in used]
        residues = [-f[axis] % q for f, q in zip(shape.offsets, moduli)]
        coords.append(crt_integers(residues, moduli))
    period = intersect_all(used)
    return period.reduce(tuple(coords))


def syndetic_period(spec: FamilySpec, translate, shape: Shape) -> Lattice:
    """A finite-index lattice H with translate + H + shape inside the union.

    H is the intersection of one covering member per shape cell, so every
    H-translate of the zero window is again a zero window; a nonempty zero
    window is therefore syndetic.
    """
    translate = as_point(translate)
    members = []
    for f in shape.offsets:
        p = tuple(a + b for a, b in zip(translate, f))
        member = spec.member_containing(p)
        if member is None:
            raise NotAZeroWindowError(f"cell {f} lands on a free point at {p}")
        members.append(member)
    return intersect_all(members)


@dataclass(frozen=True)
class ProfileRow:
    side: int
    shift: Point
    ratio: Fraction


@dataclass(frozen=True)
class DensityProfile:
    """Best covered-fraction of centered boxes over a shift search.

    Each ratio is a lower bound for the upper Banach density of the covered
    set: the supremum over all shifts is approached, never computed.
    """

    rows: tuple[ProfileRow, ...]

    def __post_init__(self):
        sides = [r.side for r in self.rows]
        if any(a >= b for a, b in zip(sides, sides[1:])):
            raise ValueError("sides must be strictly increasing")
        if any(not 0 <= r.ratio <= 1 for r in self.rows):
            raise ValueError("ratios must lie in [0, 1]")

    def to_csv(self) -> str:
        lines = ["side,shift,ratio"]
        for r in self.rows:
            shift = " ".join(str(x) for x in r.shift)
            lines.append(f"{r.side},{shift},{r.ratio.numerator}/{r.ratio.denominator}")
        return "\n".join(lines) + "\n"


def density_profile(
    spec: FamilySpec,
    sides,
    shift_search: Box,
    *,
    cell_limit: int = DEFAULT_CELL_LIMIT,
) -> DensityProfile:
    """For each side n, the exact maximum over shifts x in the search box of
    |covered set  intersect  ([-n, n]^m + x)| / (2n+1)^m.

    Uses one covered_flags evaluation over the Minkowski-sum box plus
    sliding-window sums; ties go to the first shift in lexicographic order.
    """
    sides = [int(n) for n in sides]
    m = spec.dim
    if shift_search.dim != m:
        raise ValueError("shift box dimension mismatch")
    if any(n < 0 for n in sides):
        raise ValueError("sides must be non-negative")
    rows = []
    for n in sides:
        lo = tuple(a - n for a in shift_search.lo)
        hi = tuple(b + n for b in shift_search.hi)
        grid = Box(lo, hi)
        if grid.volume > cell_limit:
            raise TooLargeError(f"combined grid volume {grid.volume} exceeds {cell_limit}")
        counts = _window_counts(covered_flags(spec, grid), grid.sides, 2 * n + 1)
        best = max(counts)
        best_shift = next(islice(shift_search.points(), counts.index(best), None))
        rows.append(ProfileRow(n, best_shift, Fraction(best, (2 * n + 1) ** m)))
    return DensityProfile(tuple(rows))


def _window_counts(flags, sides, width: int) -> list[int]:
    """Sum of the flags over every sub-grid of side width, row-major by its
    lowest corner: along each axis in turn, prefix sums and their
    differences at distance width."""
    vals = list(flags)
    shape = list(sides)
    for axis in reversed(range(len(shape))):
        n = shape[axis]
        inner = prod(shape[axis + 1 :])
        out: list[int] = []
        for start in range(0, len(vals), n * inner):
            block = vals[start : start + n * inner]
            if inner == 1:
                acc = list(accumulate(block, initial=0))
                out += map(sub, acc[width:], acc)
            else:
                lines = (block[i : i + inner] for i in range(0, n * inner, inner))
                acc = list(accumulate(lines, _add_lines, initial=[0] * inner))
                for low, high in zip(acc, acc[width:]):
                    out += map(sub, high, low)
        vals = out
        shape[axis] = n - width + 1
    return vals


def _add_lines(a: list[int], b: list[int]) -> list[int]:
    return list(map(add, a, b))


def _check_dim(spec: FamilySpec, dim: int):
    if spec.dim != dim:
        raise ValueError(f"family is {spec.dim}-dimensional, got {dim}-dimensional input")
