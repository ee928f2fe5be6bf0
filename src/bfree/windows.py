"""Desk-scale views of the free/covered split: boxes of indicator bits,
zero-window search and construction, syndetic periods, and density profiles.

The ambient Folner sequence is fixed to centered boxes {-n, ..., n}^m.  All
counts are integers and all ratios are exact fractions.
"""

import base64
import sys
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, compress, islice, product, repeat
from math import prod
from operator import add, floordiv, mul, sub

from .errors import NotAZeroWindowError, NotEnoughIdealsError, TooLargeError
from .families import FamilySpec
from .lattices import Lattice, Point, as_point, back_substitute, crt, intersect_all, mixed_radix, record

DEFAULT_CELL_LIMIT = 10**8

# Lines of entry coordinates held at once by covered_flags: a box's line
# table is built and walked in chunks of at most this many lines.
_CHUNK_LINES = 1 << 12


def _parse_ranges(text: str, sep: str) -> tuple[Point, Point]:
    """(lo, hi) of "lo:hi" ranges joined by sep."""
    lo, hi = [], []
    for part in text.split(sep):
        a, _, b = part.partition(":")
        lo.append(int(a))
        hi.append(int(b))
    return tuple(lo), tuple(hi)


@record
class Box:
    """Axis-aligned integer box [lo_1, hi_1] x ... x [lo_m, hi_m].

    Every flat array of cells here is row-major, last coordinate fastest:
    cell p sits at index_of(p) = sum_k (p_k - lo_k) * strides[k], strides[k]
    the product of the sides after k, and point_at inverts it."""

    lo: Point
    hi: Point

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be nonempty vectors of equal length")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box is empty")
        sides = tuple([b - a + 1 for a, b in zip(self.lo, self.hi)])
        strides = tuple(accumulate(reversed(sides[1:]), mul, initial=1))[::-1]
        self.__dict__.update(sides=sides, strides=strides, volume=strides[0] * sides[0])

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, p) -> bool:
        if len(p) != len(self.lo):
            raise ValueError("dimension mismatch")
        return all(a <= x <= b for x, a, b in zip(p, self.lo, self.hi))

    def points(self):
        """Lexicographic iteration; also the row-major bit order of windows."""
        return product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def index_of(self, p) -> int:
        if not self.contains(p):
            raise ValueError(f"point {tuple(p)} lies outside the box {self.format()}")
        return sum(map(mul, map(sub, p, self.lo), self.strides))

    def point_at(self, i: int) -> Point:
        """The cell at the flat index i: the inverse of index_of."""
        if not 0 <= i < self.volume:
            raise ValueError(f"index {i} lies outside the box {self.format()}, of {self.volume} cells")
        return tuple([a + i // t % s for a, t, s in zip(self.lo, self.strides, self.sides)])

    def shifted(self, g) -> "Box":
        g = as_point(g)
        if len(g) != len(self.lo):
            raise ValueError("dimension mismatch")
        return Box(tuple(map(add, self.lo, g)), tuple(map(add, self.hi, g)))

    @classmethod
    def centered(cls, n: int, dim: int) -> "Box":
        return cls((-n,) * dim, (n,) * dim)

    @classmethod
    def parse(cls, text: str) -> "Box":
        """Parse "lo:hi,lo:hi,..." into a box."""
        return cls(*_parse_ranges(text, ","))

    def format(self) -> str:
        return ",".join(f"{a}:{b}" for a, b in zip(self.lo, self.hi))


@record
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
        """The distinct offsets, in first-seen order (dict keys keep it)."""
        return cls(tuple(dict.fromkeys(map(as_point, offsets))))

    @classmethod
    def from_box(cls, box: Box) -> "Shape":
        return cls(tuple(box.points()))

    @classmethod
    def segment(cls, k: int, dim: int, axis: int = 0) -> "Shape":
        """The k+1 cells 0, e_axis, 2*e_axis, ..., k*e_axis."""
        return cls(tuple(tuple(i if j == axis else 0 for j in range(dim)) for i in range(k + 1)))

    @staticmethod
    def parse_box(text: str, dim: int | None = None) -> Box:
        """The box of "a:bxc:d" rectangle syntax (one range per dimension;
        when dim is given, exactly dim ranges), before any offset is built."""
        lo, hi = _parse_ranges(text, "x")
        if dim is not None and len(lo) != dim:
            raise ValueError(f"shape has {len(lo)} ranges, expected {dim}")
        return Box(lo, hi)

    @classmethod
    def parse(cls, text: str, dim: int | None = None) -> "Shape":
        """Every offset of the box that parse_box reads."""
        return cls.from_box(cls.parse_box(text, dim))

    def bounds(self) -> tuple[Point, Point]:
        axes = list(zip(*self.offsets))
        return tuple(map(min, axes)), tuple(map(max, axes))


@record
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
        """The free cells: the set bits, less any padding past the box."""
        return (int.from_bytes(self.bits, "little") & ((1 << self.box.volume) - 1)).bit_count()

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


# covered flags -> free-cell characters ("1" on free cells)
_FREE_CHARS = bytes.maketrans(b"\x00\x01", b"10")


def covered_flags(spec: FamilySpec, box: Box) -> bytearray:
    """Exact covered indicator over a box: one byte per cell, 1 on covered
    cells, row-major with the last coordinate fastest.

    A finite entry's members are marked through their images in family
    coordinates, spec.image(member), on the rows of the box they meet (see
    _mark_lattice).  So is a last-row template, one that scales only its
    last row, through spec.image(entry.base): each row met takes one
    power_hits call over the member coefficients of its cells, a
    progression (see _mark_last_row).  Any other template is evaluated in
    its own coordinates q, x = A q (A the transform, else the identity),
    once per line of q that meets the box, each line one slice of the
    flags, chunk by chunk (see _box_lines and _mark_lines); without a
    transform the lines are the box's rows, and their tables are read off
    the box directly.  One skip rule:
    every template skips the rows and lines already flagged entirely (as in
    ex1, whose lattices cover every line with odd x_0).  The marking order
    (finite entries; last-row templates that never factor; templates on
    lines, those that never factor first; last-row templates that may
    factor) keeps a template that may factor, or raise FactorizationError,
    off the rows and lines a cheaper entry covers.  A box without templates
    on lines builds no lines.
    """
    _check_dim(spec, box.dim)
    flags = bytearray(box.volume)
    ones = memoryview(b"\x01" * max(box.sides))
    templates = []
    for entry in spec.entries:
        if entry.is_infinite:
            templates.append(entry)
        else:
            for member in entry.members:
                _mark_lattice(flags, spec.image(member), box, ones)
    rows_first, on_lines, rows_last = [], [], []
    for entry in sorted(templates, key=lambda e: e.params.factors):
        # a run of power_hits that repeats on consecutive rows or lines is sieved once per box
        power_hits = lru_cache(maxsize=1)(entry.params.power_hits)
        if any(entry.exps[:-1]):
            on_lines.append((entry, power_hits))
        else:
            (rows_last if entry.params.factors else rows_first).append((entry, power_hits))
    for entry, power_hits in rows_first:
        _mark_last_row(flags, spec, entry, box, power_hits, ones)
    if on_lines:
        for lines in _box_lines(spec, box):
            for entry, power_hits in on_lines:
                _mark_lines(flags, lines, entry, power_hits, ones)
            del lines  # free this chunk's table before the next one is built
    for entry, power_hits in rows_last:
        _mark_last_row(flags, spec, entry, box, power_hits, ones)
    return flags


def _mark_lattice(flags: bytearray, lattice: Lattice, box: Box, ones, mark=None, form=None):
    """Mark each row x_0..x_{m-2} of the box that the lattice meets: the
    row's n cells x_{m-1} = s (mod d) in the box sit at begin, begin + d,
    ..., begin + (n - 1) * d of the flags.  Without mark they are set, one
    slice assignment (ones holds a row's 1s).  Otherwise mark(begin, n, c)
    is called, c the value on the first of them of the linear form worth
    form[j] on column j of the basis: along the row it steps by form[-1].

    Back-substitution through the canonical basis: given the coefficients
    of the columns before i, the points of the lattice have x_i = s_i (mod
    b_ii), s the sum of those columns, and each such x_i fixes the next
    coefficient.  So the walk steps x_i by b_ii from its first value in the
    box, adding column i to s, and form[i] to c, at each step.
    """
    basis, lo, hi, sides, strides = lattice.basis, box.lo, box.hi, box.sides, box.strides
    m = len(sides)
    form = form or (0,) * m
    d, side, k = basis[-1][-1], sides[-1], form[-1]

    def rows(starts, t, v, c, u):
        # the rows whose cells in the box begin at starts: on the first,
        # x_{m-1} = lo_{m-1} + t (mod d); t steps by v and c by u per row
        if mark is None:
            for begin in starts:
                first = t % d
                flags[begin + first : begin + side : d] = ones[: (side - first + d - 1) // d]
                t += v
            return
        for begin in starts:
            first = t % d
            if first < side:
                mark(begin + first, (side - first + d - 1) // d, c + (first - t) // d * k)
            t += v
            c += u

    def walk(i, s, c, start):
        b, column, u = basis[i][i], [r[i] for r in basis], form[i]
        x = lo[i] + (s[i] - lo[i]) % b
        h = (x - s[i]) // b
        s = list(map(add, s, map(mul, repeat(h), column)))
        c += h * u
        start += (x - lo[i]) * strides[i]
        step = b * strides[i]
        starts = range(start, start + len(range(x, hi[i] + 1, b)) * step, step)
        if i == m - 2:
            rows(starts, s[-1] - lo[-1], column[-1], c, u)
            return
        for start in starts:
            walk(i + 1, s, c, start)
            s = list(map(add, s, column))
            c += u

    if m > 1:
        walk(0, [0] * m, 0, 0)
    else:
        rows(range(1), -lo[0], 0, 0, 0)


def _mark_last_row(flags: bytearray, spec: FamilySpec, entry, box: Box, power_hits, ones):
    """Set the flags of a last-row template's members, by _mark_lattice's
    walk over L = spec.image(entry.base).

    Member t holds the points q of the base whose last coefficient over the
    base's columns is divisible by t**e (the last column is d * e_m), so a
    point x of L is covered when t**e | c(x), c the last coefficient of
    A^-1 x.  That c is linear in x's coefficients over L's columns (see
    _last_coefficients), so along a row met it runs over a progression
    c0, c0 + k, ..., one step k per entry, and the row takes one
    power_hits call, merged by _or_run.  With k = 0 the whole row shares
    one value.  A row flagged entirely is skipped (see covered_flags).
    """
    lattice = spec.image(entry.base)
    form = _last_coefficients(spec, entry.base, lattice)
    d, k, e = lattice.basis[-1][-1], form[-1], entry.exps[-1]

    def mark(begin, n, c):
        run = slice(begin, begin + n * d, d)
        if 0 not in flags[run]:
            return
        if not k:
            if power_hits(range(c, c + 1), e)[0]:
                flags[run] = ones[:n]
            return
        _or_run(flags, run, power_hits(range(c, c + n * k, k), e))

    _mark_lattice(flags, lattice, box, ones, mark, form)


def _or_run(flags: bytearray, run: slice, hits):
    """OR the bytes hits into the strided run of the flags, by one integer OR."""
    merged = int.from_bytes(flags[run], "little") | int.from_bytes(hits, "little")
    flags[run] = merged.to_bytes(len(hits), "little")


def _last_coefficients(spec: FamilySpec, base: Lattice, image: Lattice) -> list[int]:
    """Per column h of image = spec.image(base): the last coefficient of
    A^-1 h over the base's columns (A the transform, else the identity),
    the last quotient of back_substitute, exact as A^-1 h lies in the base.
    The coefficient is linear, so on image's point sum_j h_j * col_j it is
    sum_j h_j times these."""
    _, inverse = spec.coordinates()
    return [
        back_substitute(base.columns, [sum(map(mul, row, col)) for row in inverse])[-1]
        for col in image.columns
    ]


def _first_cells(a, lo, hi):
    """Per axis i along which x - a leaves the box [lo, hi] first, the
    ranges of coordinates of the cells x of the box with x - a outside it
    that leave along i (empty boxes omitted): one first cell per line."""
    for i, c in enumerate(a):
        if not c:
            continue
        ranges = [range(max(l, l + e), min(h, h + e) + 1) for l, h, e in zip(lo[:i], hi[:i], a)]
        ranges.append(range(lo[i], min(hi[i], lo[i] + c - 1) + 1) if c > 0 else range(max(lo[i], hi[i] + c + 1), hi[i] + 1))
        ranges += map(range, lo[i + 1 :], [h + 1 for h in hi[i + 1 :]])
        if all(ranges):
            yield ranges


def _box_lines(spec: FamilySpec, box: Box):
    """Tables {prefix: (start, sigma, klo, khi)} of at most _CHUNK_LINES
    lines each, over the lines of entry coordinates that meet the box:
    fixing q_0..q_{m-2} leaves x = x_0 + k a, a = A e_m, and the flat index
    in the box being linear in x, the line's cells k = klo..khi there sit
    at start + (k - klo) * sigma, sigma = strides . a.  Each line is found
    from its first cell (see _first_cells), so the tables are disjoint.
    The first cells are drawn lazily by mixed_radix, so no long range is
    held whole.  Without a transform the lines are the rows, read straight
    off the box (see _row_lines).  Only templates on lines ask for the
    tables, and every 1-d template is last-row, so m >= 2 and the prefix is
    never empty."""
    if spec.transform is None:
        yield from _row_lines(box)
        return
    rows, inverse = spec.coordinates()
    lo, hi, strides = box.lo, box.hi, box.strides
    a = [row[-1] for row in rows]
    sigma = sum(map(mul, strides, a)) or 1  # 0: lines of one cell, any sigma
    offset = sum(map(mul, strides, lo))
    for ranges in _first_cells(a, lo, hi):
        cells = mixed_radix(ranges)
        while lines := _line_table(islice(cells, _CHUNK_LINES), inverse, strides, a, lo, hi, sigma, offset):
            yield lines
            del lines  # free this table before the next one is built


def _row_lines(box: Box):
    """_box_lines' tables without a transform: the line with prefix
    x_0..x_{m-2} is that row of the box, {prefix: (the row's first flat
    index, 1, lo_{m-1}, hi_{m-1})}, in the order and chunks of the general
    tables (first coordinate fastest).  A row's first flat index is the sum
    of (x_j - lo_j) * strides[j], drawn by mixed_radix beside its prefix."""
    lo, hi, sides = box.lo, box.hi, box.sides
    heads = [range(a, a + s) for a, s in zip(lo[:-1], sides)]
    offsets = [range(0, s * t, t) for s, t in zip(sides[:-1], box.strides)]
    rows = zip(mixed_radix(heads), zip(map(sum, mixed_radix(offsets)), repeat(1), repeat(lo[-1]), repeat(hi[-1])))
    while lines := dict(islice(rows, _CHUNK_LINES)):
        yield lines
        del lines  # free this table before the next one is built


def _line_table(first, inverse, strides, a, lo, hi, sigma, offset) -> dict:
    """The lines (see _box_lines) whose first cells are the points first."""
    cols = list(zip(*first))  # coordinates of the first cells
    if not cols:
        return {}
    *prefix, k, index = (list(_dot(row, cols)) for row in (*inverse, strides))
    steps = reduce(partial(map, min), (  # steps of a each first cell takes in the box
        map(floordiv, map(sub, repeat(h), x) if e > 0 else map(sub, x, repeat(l)), repeat(abs(e)))
        for l, h, e, x in zip(lo, hi, a, cols) if e
    ))
    values = zip(map(sub, index, repeat(offset)), repeat(sigma), k, map(add, k, steps))
    return dict(zip(zip(*prefix), values))


def _dot(u, cols):
    """u . x over the points x whose coordinates are the columns cols."""
    return reduce(partial(map, add), (col if c == 1 else map(mul, repeat(c), col) for c, col in zip(u, cols) if c))


def _mark_lines(flags: bytearray, lines: dict, entry, power_hits, ones):
    """Set the flags of the entry's members, one line at a time, skipping
    the lines flagged entirely (see covered_flags).  Each (s, d, hits) of
    entry.line_pieces(prefix, power_hits) sets, with one slice assignment,
    the flags of the line's cells k = s (mod d), or given hits(run) only
    those of the n cells, at k = s + v * d for v in run = range(v0, v0 + n),
    that it flags (merged by _or_run), such as power_hits (the sequence's,
    cached) for t**e | (k - s) / d.  ones holds a line's 1s."""
    for prefix, (start, sigma, klo, khi) in lines.items():
        stop = start + (khi - klo + 1) * sigma
        if 0 not in flags[start : stop if stop >= 0 else None : sigma]:
            continue
        for s, d, hits in entry.line_pieces(prefix, power_hits):
            first = klo + (s - klo) % d
            n = (khi - first) // d + 1
            if n <= 0:
                continue
            begin = start + (first - klo) * sigma
            stop = begin + n * d * sigma
            run = slice(begin, stop if stop >= 0 else None, d * sigma)
            if hits is None:
                flags[run] = ones[:n]
            else:
                v0 = (first - s) // d
                _or_run(flags, run, hits(range(v0, v0 + n)))


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
        raise TooLargeError(
            f"window volume {vol} exceeds the limit of {cell_limit}",
            check="free window", limit_name="cell_limit", limit=cell_limit, count=vol,
        )
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
    """Valid translates g, g + shape wholly covered, in lexicographic order:
    slab by slab (see _slabs), those that one _Sieve over the shape's
    bounds keeps."""
    _check_dim(spec, shape.dim)
    if search.dim != shape.dim:
        raise ValueError("search box dimension mismatch")
    lo, hi = shape.bounds()
    _check_scan_size(search, len(shape), Box(lo, hi).sides, cell_limit)
    for slab in _slabs(search):
        sieve = _Sieve(spec, slab, lo, hi)
        survivors = sieve.keep(sieve.survivors, shape.offsets)
        if survivors:
            translates = sieve.box.shifted(tuple(-a for a in lo)).points()
            yield from compress(translates, survivors.to_bytes(sieve.box.volume, "little"))


def _slabs(search: Box):
    """The search box in slabs of its first coordinate whose heights double
    (1, 2, 4, ...), in order: a hit near the start of the search box costs
    one thin slab, a miss about one sieve of the box."""
    (x, *lo), (b, *hi) = search.lo, search.hi
    while x <= b:
        top = min(2 * x - search.lo[0], b)
        yield Box((x, *lo), (top, *hi))
        x = top + 1


def _check_scan_size(search: Box, cells: int, extent, cell_limit: int):
    """The size checks of a zero-window scan for a shape of ``cells`` cells
    whose bounding box has sides ``extent``: its translates times cells, and
    the search box grown by the extent, which is what gets sieved."""
    translates = search.volume * cells
    if translates > cell_limit:
        raise TooLargeError(
            "scan exceeds the cell limit",
            check="zero-window scan", limit_name="cell_limit", limit=cell_limit, count=translates,
        )
    grown = prod(s + e - 1 for s, e in zip(search.sides, extent))
    if grown > cell_limit:
        raise TooLargeError(
            f"scan sieves {grown} cells, above the cell limit of {cell_limit}",
            check="zero-window scan", limit_name="cell_limit", limit=cell_limit, count=grown,
        )


class _Sieve:
    """One covered_flags over the search box grown by the offset bounds [lo,
    hi], as one integer of a byte per cell (box, flags).  Translate g of the
    search box sits at the cell g + lo; ``survivors`` marks every such cell,
    and keep(survivors, offsets) ANDs it with the flags shifted by each
    offset f, leaving the translates g with g + f covered too."""

    def __init__(self, spec: FamilySpec, search: Box, lo, hi):
        self.box = box = Box(tuple(map(add, search.lo, lo)), tuple(map(add, search.hi, hi)))
        self.flags = int.from_bytes(covered_flags(spec, box), "little")
        self.lo = lo
        survivors = b"\x01"
        for s, t, stride in reversed(list(zip(search.sides, box.sides, box.strides))):
            survivors = survivors * s + bytes((t - s) * stride)
        self.survivors = int.from_bytes(survivors, "little")

    def keep(self, survivors: int, offsets) -> int:
        flags, lo, strides = self.flags, self.lo, self.box.strides
        for f in offsets:
            survivors &= flags >> (8 * sum(map(mul, map(sub, f, lo), strides)))
            if not survivors:
                break
        return survivors

    def first(self, survivors: int) -> Point:
        """The lexicographically first translate that survivors marks."""
        i = (survivors & -survivors).bit_length() // 8
        return tuple(map(sub, self.box.point_at(i), self.lo))


def zero_window_by_crt(lattices, shape: Shape) -> Point:
    """Translate placing the whole shape inside the union, built by the
    Chinese Remainder Theorem (:func:`lattices.crt`).

    Cell i is paired with lattices[i] in list order; the result a satisfies
    a + shape.offsets[i] in lattices[i] and is the canonical representative
    modulo the intersection of the used lattices.  Raises NotCoprimeError
    when no such a exists, which for m >= 2 can happen even when the used
    lattices are pairwise coprime.
    """
    lattices = list(lattices)
    if len(lattices) < len(shape):
        raise NotEnoughIdealsError(
            f"{len(shape)} cells need at least that many lattices, got {len(lattices)}"
        )
    used = lattices[: len(shape)]
    if any(lat.dim != shape.dim for lat in used):
        raise ValueError("lattice dimension mismatch")
    return crt(used, [tuple(-x for x in f) for f in shape.offsets])


def syndetic_period(spec: FamilySpec, translate, shape: Shape) -> Lattice:
    """A finite-index lattice H with translate + H + shape inside the union.

    H is the intersection of one covering member per shape cell, so every
    H-translate of the zero window is again a zero window; a nonempty zero
    window is therefore syndetic.
    """
    translate = as_point(translate)
    if len(translate) != spec.dim or shape.dim != spec.dim:
        raise ValueError("dimension mismatch")
    members = []
    for f in shape.offsets:
        p = tuple(a + b for a, b in zip(translate, f))
        member = spec.member_containing(p)
        if member is None:
            raise NotAZeroWindowError(f"cell {f} lands on a free point at {p}")
        members.append(member)
    return intersect_all(members)


@record
class ProfileRow:
    side: int
    shift: Point
    ratio: Fraction


@record
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

    Each side's grid is the shift box grown by n, so the grids are nested:
    one covered_flags evaluation over the largest grid, from which each
    side's flags are cut (see _crop), plus sliding-window sums; ties go to
    the first shift in lexicographic order.  The sides must be strictly
    increasing, and the grids' volumes, which the crops and sums read, must
    fit ``cell_limit`` in sum; both are checked before any grid is sieved.
    """
    sides = [int(n) for n in sides]
    m = spec.dim
    if shift_search.dim != m:
        raise ValueError("shift box dimension mismatch")
    if any(n < 0 for n in sides):
        raise ValueError("sides must be non-negative")
    if any(a >= b for a, b in zip(sides, sides[1:])):
        raise ValueError("sides must be strictly increasing")
    grids = [Box(tuple(a - n for a in shift_search.lo), tuple(b + n for b in shift_search.hi)) for n in sides]
    volume = sum(grid.volume for grid in grids)
    if volume > cell_limit:
        raise TooLargeError(
            f"combined grid volume {volume} exceeds {cell_limit}",
            check="density profile", limit_name="cell_limit", limit=cell_limit, count=volume,
        )
    rows = []
    flags = covered_flags(spec, grids[-1]) if grids else None
    for n, grid in zip(sides, grids):
        counts = _window_counts(_crop(flags, grids[-1], grid), grid.sides, 2 * n + 1)
        best = max(counts)
        rows.append(ProfileRow(n, shift_search.point_at(counts.index(best)), Fraction(best, (2 * n + 1) ** m)))
    return DensityProfile(tuple(rows))


def _crop(flags, outer: Box, inner: Box, size: int = 1):
    """The row-major cells of the box inner, cut from those of the box
    outer that holds it, size bytes per cell: one slice per row of inner."""
    if inner == outer:
        return flags
    starts = [outer.index_of(inner.lo)]
    for a, b, stride in zip(inner.lo[:-1], inner.hi[:-1], outer.strides):
        starts = [s + k * stride for s in starts for k in range(b - a + 1)]
    width = inner.sides[-1] * size
    return b"".join(flags[s * size : s * size + width] for s in starts)


def _window_counts(flags, sides, width: int):
    """Sum of the flags over every sub-grid of side width, row-major by its
    lowest corner, as an array.array: whole-number operations, not cell by
    cell.

    Each cell is one field of a big integer, as wide as an array item that
    holds width**m.  Along an axis whose neighbouring cells lie `shift`
    bits apart, a number holding sums of a cells per field gives sums of 2a
    by adding itself shifted down a * shift bits, and of a + 1 as the cells
    plus itself shifted down one step: width is reached in O(log width)
    shifts and additions, bit by bit.  No field exceeds width**m, so none
    carries into the next.  Fields of corners whose sub-grid leaves the
    grid mix in other rows, and are cut away (see _crop).
    """
    from array import array  # here, not at import: only density profiles need it

    m = len(sides)
    code = next(c for c in "BHILQ" if 8 * array(c).itemsize >= (width**m).bit_length())
    size = array(code).itemsize
    cells = bytearray(len(flags) * size)
    cells[::size] = flags
    total, shift = int.from_bytes(cells, "little"), 8 * size
    for side in reversed(sides):
        sums, count = total, 1
        for bit in f"{width:b}"[1:]:
            sums += sums >> (count * shift)
            count *= 2
            if bit == "1":
                sums = total + (sums >> shift)
                count += 1
        total, shift = sums, shift * side
    grid = Box((0,) * m, tuple(s - 1 for s in sides))
    corners = Box((0,) * m, tuple(s - width for s in sides))
    counts = array(code, _crop(total.to_bytes(len(cells), "little"), grid, corners, size))
    if sys.byteorder == "big":
        counts.byteswap()
    return counts


def _check_dim(spec: FamilySpec, dim: int):
    if spec.dim != dim:
        raise ValueError(f"family is {spec.dim}-dimensional, got {dim}-dimensional input")
