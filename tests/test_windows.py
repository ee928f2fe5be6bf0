import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfree import families, lattices, windows
from bfree.errors import (
    NotAZeroWindowError,
    NotCoprimeError,
    NotEnoughIdealsError,
    TooLargeError,
)
from bfree.families import FamilySpec, Rectangular, Static, Template, parse_family, preset
from bfree.lattices import Lattice, UnimodularMap, hnf
from bfree.windows import (
    DEFAULT_CELL_LIMIT,
    Box,
    FreeWindow,
    Shape,
    all_zero_windows,
    covered_flags,
    density_profile,
    find_zero_window,
    free_window,
    syndetic_period,
    zero_window_by_crt,
)

from helpers import entries, random_unimodular

EMPTY = FamilySpec(2, ())


def ex2_free(n, m):
    return n % 2 == 1 and m % 2 == 1 and abs(m - n) == 2


# ---------------------------------------------------------------------------
# random families and boxes for the window properties


@st.composite
def specs(draw, dims=(1, 2, 3)):
    m = draw(st.sampled_from(dims))
    ents = tuple(draw(st.lists(entries(m), max_size=3)))
    transform = None
    if draw(st.booleans()):
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m, ops=4)
    return FamilySpec(m, ents, transform=transform)


@st.composite
def boxes(draw, m, max_half=None):
    # centres near 0 give boxes that straddle it; near 10^6 the values on a
    # line are far larger than the box's sides
    scale = draw(st.sampled_from((0, 10, 1000, 10**6)))
    max_half = max_half or {1: 150, 2: 12, 3: 4}[m]
    lo, hi = [], []
    for _ in range(m):
        c = draw(st.integers(-scale, scale))
        lo.append(c - draw(st.integers(0, max_half)))
        hi.append(c + draw(st.integers(0, max_half)))
    return Box(tuple(lo), tuple(hi))


def reference_window(spec, box):
    """The free window packed from one spec.eta call per cell."""
    out = bytearray((box.volume + 7) // 8)
    for i, p in enumerate(box.points()):
        if spec.eta(p):
            out[i >> 3] |= 1 << (i & 7)
    return FreeWindow(box, bytes(out))


@st.composite
def shapes(draw, m):
    """Dense shapes (a small box of offsets) and sparse ones, both reaching
    below 0."""
    if draw(st.booleans()):
        lo = tuple(draw(st.integers(-2, 1)) for _ in range(m))
        return Shape.from_box(Box(lo, tuple(a + draw(st.integers(0, 2)) for a in lo)))
    cells = st.tuples(*[st.integers(-6, 6)] * m)
    return Shape(tuple(draw(st.lists(cells, min_size=1, max_size=4, unique=True))))


def reference_zero_translates(spec, shape, search):
    """Every translate of the search box with all cells of g + shape
    covered, in lexicographic order, from one spec.covered call per cell."""
    covered = {}

    def hit(p):
        if p not in covered:
            covered[p] = spec.covered(p)
        return covered[p]

    return [g for g in search.points() if all(hit(tuple(map(add, g, f))) for f in shape.offsets)]


def reference_rows(window):
    """Grid export rows rendered with one get() call per cell."""
    box = window.box
    if box.dim == 1:
        return [[str(window.get((x,))) for x in range(box.lo[0], box.hi[0] + 1)]]
    (xlo, ylo), (xhi, yhi) = box.lo, box.hi
    return [
        [str(window.get((x, y))) for x in range(xlo, xhi + 1)] for y in range(yhi, ylo - 1, -1)
    ]


# ---------------------------------------------------------------------------
# boxes and shapes


def test_box_basics():
    box = Box((-1, 0), (1, 2))
    assert box.volume == 9
    assert box.sides == (3, 3)
    pts = list(box.points())
    assert pts[0] == (-1, 0) and pts[-1] == (1, 2)
    assert [box.index_of(p) for p in pts] == list(range(9))
    assert Box.parse("-1:1,0:2") == box
    assert Box.parse(box.format()) == box


def test_box_validation():
    with pytest.raises(ValueError):
        Box((1,), (0,))


def test_shape_parse_and_order():
    shape = Shape.parse("0:1x0:0", 2)
    assert shape.offsets == ((0, 0), (1, 0))
    seg = Shape.segment(2, 2)
    assert seg.offsets == ((0, 0), (1, 0), (2, 0))
    assert Shape.from_offsets([(0, 0), (0, 0), (1, 1)]).offsets == ((0, 0), (1, 1))


def test_shape_from_offsets_dedupes_in_linear_time():
    # 20 000 offsets, 7 919 distinct: a list membership test per offset
    # (quadratic) takes seconds here, a set of seen offsets milliseconds
    offsets = [(i % 7919, (i % 7919) * 7 // 100) for i in range(20000)]
    seen, expected = set(), []
    for f in offsets:
        if f not in seen:
            seen.add(f)
            expected.append(f)
    start = time.perf_counter()
    shape = Shape.from_offsets(offsets)
    assert time.perf_counter() - start < 1.0
    assert shape.offsets == tuple(expected) and len(expected) == 7919


# ---------------------------------------------------------------------------
# windows


def test_ex2_window_small():
    w = free_window(preset("ex2"), Box((-5, -5), (5, 5)))
    assert w.ones() == 10
    for p in Box((-5, -5), (5, 5)).points():
        assert w.get(p) == (1 if ex2_free(*p) else 0)


def test_ex1_window_small():
    w = free_window(preset("ex1"), Box((-4, -4), (4, 4)))
    expected = {(x, y) for x in (-2, 0, 2) for y in (-3, -1, 1, 3)}
    assert w.ones() == len(expected) == 12
    for p in Box((-4, -4), (4, 4)).points():
        assert w.get(p) == (1 if p in expected else 0)


def test_free_window_get_refuses_points_outside_its_box():
    # unchecked, the flat index of such a point lands on a cell of another
    # row: a free one for (0, 8), a covered one for (1, -1), against eta
    spec = preset("ex2")
    w = free_window(spec, Box((0, 0), (4, 4)))
    assert spec.eta((0, 8)) == 0 and spec.eta((1, -1)) == 1
    for p in ((0, 8), (1, -1)):
        with pytest.raises(ValueError, match="outside the box"):
            w.get(p)
        with pytest.raises(ValueError, match="outside the box"):
            w.box.index_of(p)


def test_empty_family_window_all_ones():
    box = Box((-3, -3), (3, 3))
    w = free_window(EMPTY, box)
    assert w.ones() == box.volume


def test_window_limit():
    with pytest.raises(TooLargeError):
        free_window(preset("ex2"), Box((-5, -5), (5, 5)), cell_limit=10)


def test_window_exports_and_json_roundtrip():
    box = Box((-2, -2), (2, 2))
    w = free_window(preset("ex2"), box)
    again = FreeWindow.from_json_dict(json.loads(json.dumps(w.to_json_dict())))
    assert again == w
    csv = w.to_csv().splitlines()
    assert len(csv) == 5 and all(len(r.split(",")) == 5 for r in csv)
    # row 0 is y = 2: free points there are (1, 3)? outside; (3,1)? outside;
    # y=2 row has no odd-odd pairs -> all zeros
    assert csv[0] == "0,0,0,0,0"
    # y = 1 row: x = -1 has |1-(-1)| = 2, both odd -> free bit at x=-1 and x=3(out)
    assert csv[1].split(",")[1] == "1"
    pgm = w.to_pgm().splitlines()
    assert pgm[0] == "P2" and pgm[1] == "5 5" and pgm[2] == "1"
    assert pgm[3].replace(" ", ",") == csv[0]


def test_window_1d_export():
    w = free_window(preset("squarefree-1d"), Box((0,), (9,)))
    # squarefree in 0..9: 1,2,3,5,6,7 -> bits
    assert w.to_csv().strip() == "0,1,1,1,0,1,1,1,0,0"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_equals_per_cell_reference(data):
    spec = data.draw(specs())
    box = data.draw(boxes(spec.dim))
    assert free_window(spec, box) == reference_window(spec, box)


def test_window_far_box_is_evaluated_by_lines(monkeypatch):
    # near 10^12 the squares p^2 that matter run up to p = 10^6, far more
    # than the 61 cells of the box, so the line's values are sieved by the
    # trial primes, never evaluated per cell
    spec = preset("squarefree-1d")
    box = Box((10**12 - 30,), (10**12 + 30,))
    expected = reference_window(spec, box)

    def refuse(self, p):
        raise AssertionError("evaluated per cell")

    monkeypatch.setattr(Template, "covered", refuse)
    assert free_window(spec, box) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_under_long_transforms_equals_per_cell_reference(data):
    # twelve column operations give last columns a with |a_i| up to tens,
    # so each line of entry coordinates crosses the box in a few cells
    m = data.draw(st.sampled_from((1, 2, 3)))
    ents = tuple(data.draw(st.lists(entries(m), min_size=1, max_size=3)))
    transform = random_unimodular(random.Random(data.draw(st.integers(0, 10**6))), m, ops=12)
    spec = FamilySpec(m, ents, transform=transform)
    box = data.draw(boxes(m))
    assert free_window(spec, box) == reference_window(spec, box)


TRANSFORMED = parse_family(
    "dim 2\n"
    "static [[3,1],[0,3]]\n"
    "rect [2,1]\n"
    "recttemplate [t,3] params=geometric:3\n"
    "template base=[[1,1],[0,2]] scale=(2,2) params=primes\n"
    "transform [[1,3],[3,10]]\n"
)


def test_transformed_windows_never_evaluate_per_cell(monkeypatch):
    # every entry goes by lines of entry coordinates in both boxes
    near, far = Box((-15, -15), (15, 15)), Box((10**6, -(10**6)), (10**6 + 20, -(10**6) + 20))
    shape = Shape.from_offsets([(0, 0), (0, 1), (1, 0)])
    windows_expected = [reference_window(TRANSFORMED, box) for box in (near, far)]
    profile = density_profile(TRANSFORMED, [1, 3], Box((-3, -3), (3, 3)))
    hits = [reference_zero_translates(TRANSFORMED, shape, box) for box in (near, far)]
    assert all(hits)

    def refuse(*args, **kwargs):
        raise AssertionError("evaluated per cell")

    for cls in (Static, Template):
        monkeypatch.setattr(cls, "covered", refuse)
    monkeypatch.setattr(FamilySpec, "pullback", refuse)
    # nor is any member mapped through the transform
    monkeypatch.setattr(lattices, "hnf", refuse)
    monkeypatch.setattr(families, "hnf", refuse)
    assert [free_window(TRANSFORMED, box) for box in (near, far)] == windows_expected
    assert density_profile(TRANSFORMED, [1, 3], Box((-3, -3), (3, 3))) == profile
    assert [find_zero_window(TRANSFORMED, shape, box) for box in (near, far)] == [h[0] for h in hits]


def test_single_lattices_answer_by_lines(monkeypatch):
    # static and rect entries meet each line of entry coordinates in one
    # progression or none, and are never evaluated per cell
    cases = [
        ("dim 2\nstatic [[1,1],[0,3]]\nrect [1,3]\nrect [2,1]\ntransform [[1,3],[3,10]]\n",
         [Box((-2, -2), (2, 2)), Box((7, -40), (12, -37)), Box((10**9, 5), (10**9 + 3, 9))]),
        ("dim 3\nstatic [[1,1,2],[0,2,1],[0,0,3]]\nrect [1,2,3]\ntransform [[1,0,2],[0,1,3],[0,0,1]]\n",
         [Box((-1, -1, -1), (1, 1, 1)), Box((40, -7, 3), (42, -5, 5))]),
    ]
    expected = []
    for text, boxes in cases:
        spec = parse_family(text)
        for box in boxes:
            expected.append(reference_window(spec, box))

    def refuse(self, p):
        raise AssertionError("evaluated per cell")

    monkeypatch.setattr(Static, "covered", refuse)
    assert [free_window(parse_family(text), box) for text, boxes in cases for box in boxes] == expected


def test_lines_under_a_transform_are_walked_once_each(monkeypatch):
    # A = [[1,3],[3,10]] has last column a = (3, 10): a 31 x 31 box meets at
    # most 31 * (3 + 10) lines of entry coordinates, each a few cells long
    spec = TRANSFORMED
    box = Box((10**6, 10**6), (10**6 + 30, 10**6 + 30))
    meeting = {spec.pullback(p)[:-1] for p in box.points()}
    assert set(windows._box_lines(spec, box)) == meeting
    assert len(meeting) <= 31 * (3 + 10) + 2
    expected = reference_window(spec, box)
    calls = []
    line_pieces = Template.line_pieces

    def count(self, prefix, power_hits):
        calls.append((self.spec_line(), prefix))
        return line_pieces(self, prefix, power_hits)

    monkeypatch.setattr(Template, "line_pieces", count)
    assert free_window(spec, box) == expected
    # each of the two template entries walks each line once at most
    assert calls and len(calls) == len(set(calls)) and {prefix for _, prefix in calls} <= meeting


def test_tall_box_line_table_stays_bounded():
    # a box whose last side is 1 has one line per cell; the lines are built
    # and walked in slabs of the first coordinate, so the peak memory beyond
    # the flags does not grow with the first side
    spec = parse_family("dim 2\nrect [3,1]\nstatic [[1,0],[1,2]]\ntransform [[1,0],[2,1]]\n")
    peaks = []
    for h in (9000, 18000):
        box = Box((-(h // 2), 5), (h - 1 - h // 2, 5))
        tracemalloc.start()
        try:
            flags = covered_flags(spec, box)
            peaks.append(tracemalloc.get_traced_memory()[1] - box.volume)
        finally:
            tracemalloc.stop()
        assert flags == bytearray(map(spec.covered, box.points()))
    assert max(peaks) < 4 * 10**6


def test_covered_flags_layout():
    spec = preset("ex2")
    box = Box((-3, -2), (4, 5))
    flags = covered_flags(spec, box)
    assert list(flags) == [int(spec.covered(p)) for p in box.points()]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_grid_exports_equal_per_cell_rendering(data):
    m = data.draw(st.sampled_from((1, 2)))
    box = data.draw(boxes(m, max_half=20))
    # arbitrary payload, padding bits included: exports read only the box's cells
    bits = data.draw(st.binary(min_size=(box.volume + 7) // 8, max_size=(box.volume + 7) // 8))
    w = FreeWindow(box, bits)
    rows = reference_rows(w)
    assert w.to_csv() == "\n".join(",".join(r) for r in rows) + "\n"
    body = "\n".join(" ".join(r) for r in rows)
    assert w.to_pgm() == f"P2\n{len(rows[0])} {len(rows)}\n1\n{body}\n"
    assert w.ones() == sum(w.get(p) for p in box.points())


# ---------------------------------------------------------------------------
# zero windows


def test_zero_window_origin_for_single_cell():
    spec = preset("rect-demo")
    g = find_zero_window(spec, Shape.from_offsets([(0, 0)]), Box.centered(2, 2))
    assert g == (-2, -2) or spec.covered(g)  # first lexicographic hit, verified below
    assert spec.covered(g)


def test_zero_window_ex2_two_cells():
    spec = preset("ex2")
    shape = Shape.from_offsets([(0, 0), (0, 1)])
    g = find_zero_window(spec, shape, Box((0, 0), (6, 6)))
    assert g is not None
    for f in shape.offsets:
        assert spec.covered((g[0] + f[0], g[1] + f[1]))
    # the contract example: (1, 0) is a valid translate
    assert spec.covered((1, 0)) and spec.covered((1, 1))


def test_zero_window_deterministic_lexicographic():
    spec = preset("ex2")
    shape = Shape.from_offsets([(0, 0), (0, 1)])
    search = Box((0, 0), (6, 6))
    g1 = find_zero_window(spec, shape, search)
    g2 = find_zero_window(spec, shape, search)
    assert g1 == g2
    hits = all_zero_windows(spec, shape, search)
    assert hits and hits[0] == g1


def test_zero_window_scans_reject_dimension_mismatch():
    spec = preset("ex2")
    shape = Shape.from_offsets([(0, 0), (0, 1)])
    for scan in (find_zero_window, all_zero_windows):
        with pytest.raises(ValueError):
            scan(spec, Shape.from_offsets([(0,)]), Box((0,), (4,)))
        with pytest.raises(ValueError):
            scan(spec, shape, Box((0,), (4,)))


def test_zero_window_not_found_returns_none():
    # family {2Z x 2Z} never covers odd points, so shapes with adjacent cells fail
    spec = FamilySpec(2, (Rectangular((2, 2)),))
    shape = Shape.from_offsets([(0, 0), (1, 0)])
    assert find_zero_window(spec, shape, Box.centered(4, 2)) is None


def test_rect_demo_pair_shape():
    spec = preset("rect-demo")
    shape = Shape.from_offsets([(0, 0), (1, 0)])
    g = find_zero_window(spec, shape, Box((0, 0), (14, 14)))
    assert g is not None
    assert spec.covered(g) and spec.covered((g[0] + 1, g[1]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_zero_window_scans_equal_per_cell_reference(data):
    spec = data.draw(specs())
    shape = data.draw(shapes(spec.dim))
    search = data.draw(boxes(spec.dim, max_half={1: 40, 2: 8, 3: 3}[spec.dim]))
    expected = reference_zero_translates(spec, shape, search)
    assert all_zero_windows(spec, shape, search) == expected
    assert find_zero_window(spec, shape, search) == (expected[0] if expected else None)


def test_zero_window_scans_never_evaluate_per_cell(monkeypatch):
    cases = [
        (preset("ex1"), Shape.parse("0:1x0:1"), Box.centered(8, 2)),
        (preset("ex2"), Shape.from_offsets([(0, 0), (0, 1), (-1, 3)]), Box((-5, 2), (9, 11))),
        (preset("rect-demo"), Shape.parse("0:2x0:1"), Box((36, 12), (56, 32))),
        (preset("squarefree-1d"), Shape.segment(2, 1), Box((-60,), (60,))),
    ]
    expected = [reference_zero_translates(*case) for case in cases]
    assert any(expected) and not all(expected)  # hits and misses

    def refuse(self, p):
        raise AssertionError("evaluated per cell")

    monkeypatch.setattr(FamilySpec, "covered", refuse)
    for case, hits in zip(cases, expected):
        assert all_zero_windows(*case) == hits
        assert find_zero_window(*case) == (hits[0] if hits else None)


def test_zero_window_scan_sieves_doubling_slabs_up_to_the_first_hit(monkeypatch):
    # covered exactly where x = 0 (mod 7): the first hit, x = 7, lies in the
    # third slab of the first coordinate, after slabs of heights 1 and 2
    spec = FamilySpec(2, (Rectangular((7, 1)),))
    search = Box((1, 0), (20, 2))
    slabs = []

    def record(spec, shape, box):
        slabs.append((box.lo[0], box.hi[0]))
        return sieve(spec, shape, box)

    sieve = windows._sieved_translates
    monkeypatch.setattr(windows, "_sieved_translates", record)
    shape = Shape.from_offsets([(0, 0)])
    assert find_zero_window(spec, shape, search) == (7, 0)
    assert slabs == [(1, 1), (2, 3), (4, 7)]
    slabs.clear()
    assert all_zero_windows(spec, shape, search) == [(x, y) for x in (7, 14) for y in range(3)]
    assert slabs == [(1, 1), (2, 3), (4, 7), (8, 15), (16, 20)]


def test_zero_window_scan_limit():
    shape = Shape.parse("0:1x0:1")
    for scan in (find_zero_window, all_zero_windows):
        with pytest.raises(TooLargeError, match="^scan exceeds the cell limit$"):
            scan(preset("ex2"), shape, Box.centered(16, 2), cell_limit=33 * 33 * 4 - 1)
    assert find_zero_window(preset("ex2"), shape, Box.centered(16, 2), cell_limit=33 * 33 * 4)


def test_zero_window_scan_refuses_a_sparse_shape_before_sieving(monkeypatch):
    # two cells 10^9 apart pass the translates-times-cells check, but the
    # sieve box grown by the shape would hold more than 10^9 cells
    shape = Shape.from_offsets([(0, 0), (0, 10**9)])
    search = Box.centered(16, 2)
    assert search.volume * len(shape) <= DEFAULT_CELL_LIMIT

    def refuse(spec, box):
        raise AssertionError(f"sieved {box.volume} cells")

    monkeypatch.setattr(windows, "covered_flags", refuse)
    for scan in (find_zero_window, all_zero_windows):
        with pytest.raises(TooLargeError, match="above the cell limit of 100000000"):
            scan(preset("ex2"), shape, search)


# ---------------------------------------------------------------------------
# CRT construction


def test_crt_construction_contract_example():
    lats = [Lattice.from_diagonal((q, q)) for q in (2, 3, 5)]
    shape = Shape.from_offsets([(0, 0), (1, 0), (0, 1)])
    a = zero_window_by_crt(lats, shape)
    assert a == (20, 24)
    assert lats[0].contains(a)
    assert lats[1].contains((a[0] + 1, a[1]))
    assert lats[2].contains((a[0], a[1] + 1))


def test_crt_single_ideal():
    a = zero_window_by_crt([Lattice.from_diagonal((2, 2))], Shape.from_offsets([(0, 0)]))
    assert a == (0, 0)


def test_crt_membership_recheck_randomized():
    rng = random.Random(17)
    diag_pool = [(2, 3), (3, 5), (5, 2), (7, 7), (11, 1)]
    lats = [Lattice.from_diagonal(d) for d in diag_pool]
    for _ in range(20):
        k = rng.randint(1, 4)
        shape = Shape.from_offsets(
            [(i, rng.randint(0, 2)) for i in range(k)]
        )
        a = zero_window_by_crt(lats, shape)
        for lat, f in zip(lats, shape.offsets):
            assert lat.contains((a[0] + f[0], a[1] + f[1]))


def test_crt_errors():
    with pytest.raises(NotEnoughIdealsError):
        zero_window_by_crt([Lattice.from_diagonal((2, 2))], Shape.segment(1, 2))
    with pytest.raises(NotCoprimeError):
        zero_window_by_crt(
            [Lattice.from_diagonal((2, 2)), Lattice.from_diagonal((4, 3))],
            Shape.segment(1, 2),
        )
    # ex2's forced lattices 2Z x Z, Z x 2Z and {x = y mod 2} are pairwise
    # coprime, yet no translate puts the L-shape in them cell by cell
    forced = [Lattice.from_diagonal((2, 1)), Lattice.from_diagonal((1, 2)), hnf([(1, 1), (0, 2)])]
    shape = Shape.from_offsets([(0, 0), (1, 0), (0, 1)])
    assert all(a.coprime(b) for i, a in enumerate(forced) for b in forced[i + 1 :])
    assert not any(
        all(lat.contains(tuple(map(add, a, f))) for lat, f in zip(forced, shape.offsets))
        for a in product(range(2), repeat=2)
    )
    with pytest.raises(NotCoprimeError):
        zero_window_by_crt(forced, shape)
    with pytest.raises(ValueError, match="dimension mismatch"):
        zero_window_by_crt([Lattice.from_diagonal((2, 2, 2))], Shape.from_offsets([(0, 0)]))


def test_crt_non_diagonal_lattices():
    lats = [hnf([(1, 1), (0, 2)]), Lattice.from_diagonal((3, 3))]
    shape = Shape.segment(1, 2)
    a = zero_window_by_crt(lats, shape)
    for lat, f in zip(lats, shape.offsets):
        assert lat.contains(tuple(map(add, a, f)))
    spec = FamilySpec(2, (Static(lats[0]), Rectangular((3, 3))))
    period_box = Box((0, 0), tuple(d - 1 for d in lats[0].intersect(lats[1]).diagonal))
    assert a in all_zero_windows(spec, shape, period_box)


def test_crt_vs_bruteforce_scan():
    # the constructed translate appears among all hits of a full-period scan
    rng = random.Random(29)
    for diags in [[(2, 2), (3, 3)], [(2, 3), (5, 2), (3, 5)], [(5, 5), (7, 7)]]:
        lats = [Lattice.from_diagonal(d) for d in diags]
        spec = FamilySpec(2, tuple(Rectangular(d) for d in diags))
        shape = Shape.segment(len(lats) - 1, 2)
        a = zero_window_by_crt(lats, shape)
        px = 1
        py = 1
        for d in diags:
            px *= d[0]
            py *= d[1]
        hits = all_zero_windows(spec, shape, Box((0, 0), (px - 1, py - 1)))
        assert a in hits


# ---------------------------------------------------------------------------
# syndetic periods


def test_syndetic_period_single_cell_ex2():
    spec = preset("ex2")
    H = syndetic_period(spec, (1, 5), Shape.from_offsets([(0, 0)]))
    assert H == hnf([(1, 1), (0, 4)])


def test_syndetic_period_origin():
    spec = preset("ex2")
    H = syndetic_period(spec, (0, 0), Shape.from_offsets([(0, 0)]))
    assert H == spec.member_containing((0, 0))


def test_syndetic_period_rect_demo_crt():
    lats = [Lattice.from_diagonal((q, q)) for q in (2, 3, 5)]
    shape = Shape.from_offsets([(0, 0), (1, 0), (0, 1)])
    a = zero_window_by_crt(lats, shape)
    H = syndetic_period(preset("rect-demo"), a, shape)
    assert H == Lattice.from_diagonal((30, 30))


def test_syndetic_period_rejects_free_cells():
    with pytest.raises(NotAZeroWindowError):
        syndetic_period(preset("ex2"), (1, 3), Shape.from_offsets([(0, 0)]))


def test_zero_window_implies_syndetic_verified():
    # whenever the search succeeds, the period lattice keeps all translates covered
    spec = preset("ex2")
    shape = Shape.from_offsets([(0, 0), (1, 0), (0, 1), (1, 1)])
    g = find_zero_window(spec, shape, Box.centered(12, 2))
    assert g is not None
    H = syndetic_period(spec, g, shape)
    assert H.index >= 2 or H.index == 1
    count = 0
    for ks in product(range(-5, 6), repeat=2):
        h = tuple(
            ks[0] * H.columns[0][r] + ks[1] * H.columns[1][r] for r in range(2)
        )
        for f in shape.offsets:
            assert spec.covered((g[0] + h[0] + f[0], g[1] + h[1] + f[1]))
        count += 1
    assert count >= 100


# ---------------------------------------------------------------------------
# density profiles


def test_density_empty_family_zero():
    profile = density_profile(EMPTY, [2, 3], Box.centered(2, 2))
    assert [r.ratio for r in profile.rows] == [Fraction(0), Fraction(0)]


def test_density_ex2_high():
    profile = density_profile(preset("ex2"), [10], Box((0, 0), (0, 30)))
    row = profile.rows[0]
    assert row.ratio >= 1 - Fraction(42, 441)
    # a shift far off the diagonal clears every free point
    assert row.ratio == 1


def test_density_profile_monotone_sides_required():
    with pytest.raises(ValueError):
        density_profile(EMPTY, [3, 3], Box.centered(1, 2))
    with pytest.raises(ValueError):
        density_profile(EMPTY, [-1], Box.centered(3, 2))


def test_density_profile_refuses_before_sieving(monkeypatch):
    sieved = []
    flags = windows.covered_flags
    monkeypatch.setattr(windows, "covered_flags", lambda spec, box: sieved.append(box) or flags(spec, box))
    with pytest.raises(ValueError, match="^sides must be strictly increasing$"):
        density_profile(preset("ex2"), [5, 3], Box.centered(2, 2))
    # the side-400 grid fits the limit, the side-100000 grid does not
    with pytest.raises(TooLargeError, match="^combined grid volume 40016401681 exceeds 1000000$"):
        density_profile(preset("ex2"), [400, 100000], Box.centered(20, 2), cell_limit=10**6)
    assert sieved == []


def test_density_matches_direct_count():
    spec = preset("ex2")
    shift_box = Box((-2, -2), (2, 2))
    profile = density_profile(spec, [3], shift_box)
    row = profile.rows[0]
    best = max(
        (
            sum(
                1
                for p in Box((x[0] - 3, x[1] - 3), (x[0] + 3, x[1] + 3)).points()
                if spec.covered(p)
            ),
            x,
        )
        for x in shift_box.points()
    )
    assert row.ratio == Fraction(best[0], 49)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_density_equals_brute_force(data):
    spec = data.draw(specs(dims=(1, 2)))
    shift_box = data.draw(boxes(spec.dim, max_half={1: 6, 2: 2}[spec.dim]))
    sides = sorted(data.draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
    profile = density_profile(spec, sides, shift_box)
    for row, n in zip(profile.rows, sides):
        best, best_shift = -1, None
        for x in shift_box.points():  # lexicographic: the first maximum wins ties
            cell = Box(tuple(a - n for a in x), tuple(a + n for a in x))
            count = sum(spec.covered(p) for p in cell.points())
            if count > best:
                best, best_shift = count, x
        assert (row.side, row.shift, row.ratio) == (n, best_shift, Fraction(best, cell.volume))


def test_density_tie_goes_to_first_shift():
    # rect-demo is symmetric under x -> -x: the squares around (-3, 0) and
    # (3, 0) each hold the three covered cells of their middle row, and no
    # shift in between holds more
    profile = density_profile(preset("rect-demo"), [1], Box((-3, 0), (3, 0)))
    assert profile.rows[0].shift == (-3, 0)
    assert profile.rows[0].ratio == Fraction(3, 9)


def test_density_csv_format():
    profile = density_profile(preset("squarefree-1d"), [2, 4], Box((0,), (20,)))
    lines = profile.to_csv().splitlines()
    assert lines[0] == "side,shift,ratio"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# equivariance and density monotone evidence


def test_zero_window_equivariance_under_shear():
    # g is a zero window for the base family and pattern F exactly when A g
    # is one for the transported family and pattern A F
    base = preset("ex2")
    shear = UnimodularMap(((1, 0), (1, 1)))
    moved = FamilySpec(2, base.entries, transform=shear)
    shape = Shape.from_offsets([(0, 0), (1, 0), (0, 1)])
    moved_shape = Shape.from_offsets([shear.apply_point(f) for f in shape.offsets])
    for g in Box.centered(6, 2).points():
        base_hit = all(
            base.covered((g[0] + f[0], g[1] + f[1])) for f in shape.offsets
        )
        ag = shear.apply_point(g)
        moved_hit = all(
            moved.covered((ag[0] + f[0], ag[1] + f[1])) for f in moved_shape.offsets
        )
        assert base_hit == moved_hit


def test_full_box_window_gives_density_one():
    # a zero window for the full box shape [0, 2k]^m witnesses ratio 1 at side k
    spec = preset("ex2")
    k = 3
    shape = Shape.from_box(Box((0, 0), (2 * k, 2 * k)))
    g = find_zero_window(spec, shape, Box.centered(16, 2))
    assert g is not None
    center = (g[0] + k, g[1] + k)
    profile = density_profile(spec, [k], Box(center, center))
    assert profile.rows[0].ratio == 1
